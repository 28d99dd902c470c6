"""Differential lowering operators and the large-k filtration limit."""

import math
import re

import pytest

from freetransform import (
    DomainError,
    FreeTransformError,
    InvalidInput,
    LevyTriple,
    StepError,
    TransformEvaluator,
    derivative_t,
    filtration_limit_check,
    lower_selfdec_class,
    lower_shrink_class,
    sself,
    transform_lclass,
    transform_sself,
    transform_ubeta,
    voiculescu_id,
)
from freetransform.transforms import random_integral_evaluator
from freetransform.verify import _OP_TRIPLES

MIXED = LevyTriple(0.4, 1.1, ((-1.5, 0.4), (0.7, 1.2), (2.0, 0.3)))
T_GRID = (0.5, 1.0, 2.0)


def test_derivative_on_polynomial():
    # Richardson-combined central differences are exact through degree 4
    V = lambda t: t ** 3 + 1j * t ** 2
    d = derivative_t(V, 2.0, 1e-3)
    assert abs(d - (12.0 + 4.0j)) < 1e-9


def test_derivative_on_reciprocal():
    V = lambda t: 1.0 / t
    assert abs(derivative_t(V, 0.5, 1e-4) - (-4.0)) < 1e-8


def test_derivative_step_validation():
    with pytest.raises(StepError):
        derivative_t(lambda t: t, 1.0, 0.0)
    with pytest.raises(StepError):
        derivative_t(lambda t: t, 1.0, 0.5)  # t - 2h hits the boundary
    with pytest.raises(StepError):
        derivative_t(lambda t: t, 1.0, math.nan)


def test_evaluator_wrapper():
    ev = TransformEvaluator(lambda t: 2.0 * t, label="double")
    assert ev(3.0) == 6.0
    assert ev.label == "double"


def test_shrink_lowering_single_step():
    V = lambda t: transform_sself(2, MIXED, t)
    lowered = lower_shrink_class(V)
    for t in T_GRID:
        target = transform_sself(1, MIXED, t)
        assert abs(lowered(t) - target) < 1e-6, t


def test_selfdec_lowering_single_step():
    V = lambda t: transform_lclass(1, MIXED, t)
    lowered = lower_selfdec_class(V)
    for t in T_GRID:
        target = transform_lclass(0, MIXED, t)
        assert abs(lowered(t) - target) < 1e-6, t


def test_lowering_difference_is_identity():
    V = lambda t: voiculescu_id(MIXED, t)
    big = lower_shrink_class(V)
    small = lower_selfdec_class(V)
    for t in T_GRID:
        assert abs(big(t) - small(t) - V(t)) < 1e-12


def test_operator_power_single_matches_direct():
    # n = 1 against the definition 2 V - t dV/dt, differentiated in t
    V = lambda t: transform_sself(1, MIXED, t)
    lowered = lower_shrink_class(V, 1)
    for t in (0.8, 1.6):
        direct = 2.0 * V(t) - t * derivative_t(V, t, 1e-3 * t)
        assert abs(lowered(t) - direct) < 1e-10


def test_operator_power_reaches_base_class():
    V = lambda t: transform_sself(3, MIXED, t)
    powered = lower_shrink_class(V, 3)
    for t in T_GRID:
        assert abs(powered(t) - voiculescu_id(MIXED, t)) < 1e-8


@pytest.mark.parametrize("n,bound", [(1, 1e-12), (2, 1e-9), (3, 1e-8),
                                     (4, 1e-7), (5, 1e-6), (6, 5e-6)])
def test_operator_power_over_four_decades_of_t(n, bound):
    # (2 - t d/dt)^n takes sself(n), and (1 - t d/dt)^n takes lclass(n-1),
    # to the plain transform
    worst = 0.0
    for tr in _OP_TRIPLES:
        shrink = lower_shrink_class(lambda t: transform_sself(n, tr, t), n)
        selfdec = lower_selfdec_class(lambda t: transform_lclass(n - 1, tr, t), n)
        for t in (0.01, 0.1, 0.5, 1.0, 2.0, 10.0, 100.0):
            target = voiculescu_id(tr, t)
            for lowered in (shrink, selfdec):
                worst = max(worst, abs(lowered(t) - target) / (1.0 + abs(target)))
    assert worst < bound, worst


@pytest.mark.parametrize("n,calls", [(1, 5), (2, 9), (3, 17)])
def test_operator_power_evaluation_count(n, calls):
    # one pass over the stencil points; nothing lowered is differentiated again
    points = []
    lower_selfdec_class(lambda t: points.append(t) or 1.0 / t, n)(1.5)
    assert len(points) == calls


def test_operator_power_validation():
    for lower in (lower_shrink_class, lower_selfdec_class):
        for n in (0, -1, True, 2.0, 7, 400):
            with pytest.raises(InvalidInput):
                lower(lambda t: t, n)
        for t in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                lower(lambda t: t)(t)


@pytest.mark.parametrize("lower", [lower_shrink_class, lower_selfdec_class])
def test_power_past_the_string_limit_is_invalid_input(lower):
    # str() refuses an int of more than 4 300 digits, so the message names
    # the refused power by its bit length
    for n, shown in ((-10 ** 5000, "a negative int"), (10 ** 5000, "an int")):
        with pytest.raises(InvalidInput, match=f"{shown} of 16610 bits"):
            lower(lambda t: t, n)


@pytest.mark.parametrize("lower", [lower_shrink_class, lower_selfdec_class])
def test_lowering_at_the_ends_of_the_float_range(lower):
    # each point gives a finite value or a package error; a difference
    # node above t that overflows exp() is a DomainError naming t and n
    for n in range(1, 7):
        lowered = lower(random_integral_evaluator(sself(n), MIXED), n)
        for t in (5e-324, 1e-300, 1e307, 1.7e308, 1.79e308):
            try:
                value = lowered(t)
            except FreeTransformError:
                continue
            assert math.isfinite(value.real) and math.isfinite(value.imag), (n, t)
    for n, t in ((2, 1.79e308), (4, 1.7e308)):
        with pytest.raises(DomainError, match=re.escape(f"t={t!r}, n={n}")):
            lower(random_integral_evaluator(sself(n), MIXED), n)(t)


def test_lowering_labels():
    ev = TransformEvaluator(lambda t: t, label="V")
    assert lower_shrink_class(ev).label == "(2 - t d/dt) V"
    assert lower_selfdec_class(ev, 3).label == "(1 - t d/dt)^3 V"


def test_filtration_limit_report():
    devs = filtration_limit_check(MIXED, 1.0)
    assert type(devs) is tuple and len(devs) == 3
    assert devs[0] > devs[1] > devs[2]
    for a, b in zip(devs, devs[1:]):
        assert 5.0 <= a / b <= 20.0


def test_filtration_gaussian_gap_closed_form():
    tr = LevyTriple(1.0, 2.0, ())
    t = 1.0
    gaps = filtration_limit_check(tr, t)
    # transform gap: -a/(k+1) + 2 sigma^2/((k+2) i t), here at k = 10
    exact = abs(complex(-1.0 / 11.0, -2.0 * 2.0 / 12.0))
    assert math.isclose(gaps[0], exact, rel_tol=1e-12)


def test_ubeta_deviation_shrinks_against_named_value():
    t = 2.0
    base = voiculescu_id(MIXED, t)
    gaps = [abs(transform_ubeta(k, MIXED, t) - base) for k in (10, 100)]
    assert gaps[1] < gaps[0] / 5.0


def test_operators_suite_builds_each_lowered_transform_once(monkeypatch):
    # 27 random-integral transforms: for each of 3 triples, sself at
    # orders 1 to 3 and lclass at 0 to 3, which the shrink and selfdec
    # steps lower and compare with one order down, and 3 powers of each
    # class.  Each is built once, not once per point that the finite
    # differences or the comparisons take; the transforms module builds
    # one, the exponential-map image
    from freetransform import transforms, verify

    built = {"verify": 0, "transforms": 0}

    def counting(where, real):
        def evaluator(fam, tr):
            built[where] += 1
            return real(fam, tr)
        return evaluator

    monkeypatch.setattr(verify, "random_integral_evaluator",
                        counting("verify", verify.random_integral_evaluator))
    monkeypatch.setattr(transforms, "random_integral_evaluator",
                        counting("transforms", transforms.random_integral_evaluator))
    assert all(r.passed for r in verify.run_suite("operators"))
    assert built == {"verify": 27, "transforms": 1}
