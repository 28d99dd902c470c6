"""Adaptive Gauss-Kronrod integration against integrals with known values."""

import math
import re

import pytest

from freetransform import (
    InvalidInput,
    LevyTriple,
    MaxSubdivisionError,
    NonFiniteError,
    integrate_finite,
    integrate_semi_infinite,
    laplace_transform,
)
from freetransform.quadrature import (_integrate, _integrate_half_line, _kronrod_panel,
                                      gamma_average)
from freetransform.transforms import logphi
from freetransform.verify import _GAUSS_PAIRS, _LAPLACE_T

TOL = 1e-10


def check(res, exact, tol=TOL):
    err = abs(res.value - exact)
    assert err <= max(tol, res.error_estimate), (res, exact)
    # the estimate must bound the true error (with a little headroom
    # for the pairwise-summation rounding of many panels)
    assert err <= res.error_estimate + 1e-14 or err <= 1e-14


def test_smooth_polynomial():
    res = integrate_finite(lambda s: s ** 3, 0.0, 1.0)
    check(res, 0.25)
    assert res.evaluations >= 15


def test_log_endpoint_singularity():
    check(integrate_finite(math.log, 0.0, 1.0), -1.0)


def test_inverse_sqrt_singularity():
    check(integrate_finite(lambda s: 1.0 / math.sqrt(s), 0.0, 1.0), 2.0)


def test_complex_oscillatory():
    res = integrate_finite(lambda s: complex(math.cos(s), math.sin(s)), 0.0, 1.0)
    check(res, complex(math.sin(1.0), 1.0 - math.cos(1.0)))


def test_moderately_oscillatory():
    check(integrate_finite(lambda s: math.cos(40.0 * s), 0.0, 1.0),
          math.sin(40.0) / 40.0)


def test_endpoints_never_sampled():
    def f(s):
        assert 0.0 < s < 1.0
        return math.log(s) / math.sqrt(1.0 - s)

    # value = 2 (log(4) - 2) / ... no closed form needed; just finish
    res = integrate_finite(f, 0.0, 1.0)
    assert res.error_estimate < 1e-8


def test_linearity():
    f = lambda s: math.exp(s)
    g = lambda s: 1.0 / (1.0 + s)
    combined = integrate_finite(lambda s: 2.0 * f(s) - 3.0 * g(s), 0.0, 1.0)
    parts = (2.0 * integrate_finite(f, 0.0, 1.0).value
             - 3.0 * integrate_finite(g, 0.0, 1.0).value)
    assert abs(combined.value - parts) < 1e-12


def test_determinism():
    f = lambda s: math.sin(17.0 * s) / math.sqrt(s)
    a = integrate_finite(f, 0.0, 1.0)
    b = integrate_finite(f, 0.0, 1.0)
    assert a.value == b.value and a.error_estimate == b.error_estimate


def test_semi_infinite_exponential():
    check(integrate_semi_infinite(lambda s: math.exp(-s)), 1.0)
    check(integrate_semi_infinite(lambda s: s * math.exp(-s)), 1.0)
    check(integrate_semi_infinite(lambda s: math.exp(-s * s)),
          math.sqrt(math.pi) / 2.0)


def test_semi_infinite_algebraic_tail():
    # 1/(1+s^2) has only algebraic decay; a -log v chart could not reach it
    res = integrate_semi_infinite(lambda s: 1.0 / (1.0 + s * s), 1e-9)
    check(res, math.pi / 2.0, tol=1e-9)


def test_semi_infinite_gamma_moments():
    # int_0^inf s^k e^-s ds = k!, to a tolerance relative to the value
    for k in range(9):
        exact = math.factorial(k)
        res = integrate_semi_infinite(lambda s: s ** k * math.exp(-s),
                                      TOL * exact)
        check(res, exact, tol=TOL * exact)


def test_semi_infinite_laplace_of_square():
    # L{u^2}(t) = 2/t^3 as one half-line integral
    for t in (0.5, 2.0):
        res = integrate_semi_infinite(lambda u: u * u * math.exp(-t * u))
        check(res, 2.0 / t ** 3)


def test_semi_infinite_divergent_raises():
    # bisection walks into v = 0 until the samples or their panel sums
    # stop being finite; that must surface as a package error, not a value
    for f in (lambda u: 1.0 / (1.0 + u), lambda u: u ** -0.5):
        with pytest.raises(NonFiniteError):
            integrate_semi_infinite(f)


def test_semi_infinite_split_resolves_far_peak():
    # unsplit, all first-panel nodes miss a unit-width peak at u = 300
    f = lambda u, x: (math.exp(-0.5 * (u - 300.0) ** 2) / x / x,)
    check(_integrate_half_line(f, 1, TOL, 300.0)[0], math.sqrt(2.0 * math.pi))


def test_laplace_evaluation_count():
    # the Gaussian round trip of verify's laplace suite takes 4 170
    # evaluations; with its tail on a u = -log v chart it took 27 510
    evals = 0
    for a, var in _GAUSS_PAIRS:
        tr = LevyTriple(a, var, ())
        for t in _LAPLACE_T:
            evals += laplace_transform(lambda u: logphi(tr, -u), t, 1e-8).evaluations
    assert evals <= 8_000


def test_laplace_of_constant_and_ramp():
    for t in (0.5, 1.0, 2.0):
        check(laplace_transform(lambda u: 1.0, t), 1.0 / t)
        check(laplace_transform(lambda u: u, t), 1.0 / t ** 2)
        check(laplace_transform(lambda u: u * u, t), 2.0 / t ** 3)


def test_laplace_singular_integrand():
    # L{u^(-1/2)}(t) = sqrt(pi/t); exercises the endpoint singularity at
    # u = 0, which sits in the directly integrated head on (0, 1)
    for t in (0.5, 2.0):
        res = laplace_transform(lambda u: 1.0 / math.sqrt(u), t, 1e-9)
        check(res, math.sqrt(math.pi / t), tol=1e-9)


def test_invalid_bounds_and_tol():
    with pytest.raises(InvalidInput):
        integrate_finite(lambda s: s, 1.0, 0.0)
    with pytest.raises(InvalidInput):
        integrate_finite(lambda s: s, 0.0, math.inf)
    with pytest.raises(InvalidInput):
        integrate_finite(lambda s: s, 0.0, 1.0, tol=0.0)
    for split in (-1.0, math.inf, math.nan):
        with pytest.raises(InvalidInput):
            _integrate_half_line(lambda u, x: (math.exp(-u) / x / x,), 1, TOL, split)
    with pytest.raises(InvalidInput):
        laplace_transform(lambda u: 1.0, 0.0)


def test_non_finite_integrand():
    with pytest.raises(NonFiniteError):
        integrate_finite(lambda s: float("inf"), 0.0, 1.0)
    with pytest.raises(NonFiniteError):
        integrate_finite(lambda s: complex(0.0, float("nan")), 0.0, 1.0)
    # float arithmetic that raises instead of giving inf: a pole on the
    # centre node, and a power that overflows
    with pytest.raises(NonFiniteError):
        integrate_finite(lambda s: 1.0 / (s - 0.5), 0.0, 1.0)
    with pytest.raises(NonFiniteError):
        integrate_finite(lambda s: (1.0 / s) ** 400, 0.0, 1.0)


def test_panel_budget_exhaustion():
    # ~1e8 oscillations can't be resolved by 1e4 panels
    with pytest.raises(MaxSubdivisionError):
        integrate_finite(lambda s: math.sin(1e8 * s), 0.0, 1.0, tol=1e-12)


# vector integrands: m components on one mesh ----------------------------------

_COMPONENTS = (
    (lambda s: s ** 3, 0.25),
    (lambda s: math.cos(40.0 * s), math.sin(40.0) / 40.0),
    (lambda s: 1.0 / math.sqrt(s), 2.0),
    (lambda s: complex(math.cos(s), math.sin(s)), complex(math.sin(1.0), 1.0 - math.cos(1.0))),
)


def test_components_share_one_mesh():
    res = _integrate(lambda s: [f(s) for f, _ in _COMPONENTS], len(_COMPONENTS),
                     0.0, 1.0, TOL)
    for r, (_, exact) in zip(res, _COMPONENTS):
        check(r, exact)
        assert r.error_estimate <= TOL
        assert r.evaluations == res[0].evaluations
    # the shared mesh is as fine as the hardest component needs
    assert res[0].evaluations >= max(integrate_finite(f, 0.0, 1.0).evaluations
                                     for f, _ in _COMPONENTS)


def test_one_component_is_the_scalar_integral():
    # one component of a vector integral is the one-integral call, and a
    # pair of components is two singles on one mesh
    for f, _ in _COMPONENTS:
        for lo, hi in ((0.0, 1.0), (0.25, 3.5)):
            vector = _integrate(lambda s: (f(s),), 1, lo, hi, TOL)
            assert vector == [integrate_finite(f, lo, hi, TOL)]
    q = lambda w: 1.0 / (1.0 - complex(0.5, 2.0) * w)
    single = gamma_average(lambda w, weight: (q(w) * weight,), 1, 3, 2.5, TOL)
    pair = gamma_average(lambda w, weight: (q(w) * weight, q(w) * weight), 2, 3, 2.5, TOL)
    assert pair == single + single


def test_nan_in_one_component_raises():
    # a NaN sample in one component, and finite samples whose panel sums
    # overflow: the other component converges, the call still fails
    for bad in (lambda s: math.nan if s > 0.7 else 1.0, lambda s: 1.7e308):
        with pytest.raises(NonFiniteError):
            _integrate(lambda s: (s, bad(s)), 2, 0.0, 1.0, TOL)


def test_a_node_must_return_m_values():
    # zip() across the nodes would keep the shortest count, or the longest
    # row's extra values, without a word
    for f, got in ((lambda s: (s,), 1), (lambda s: (s, s, s), 3),
                   (lambda s: (s, s) if s < 0.9 else (s,), 1)):
        with pytest.raises(InvalidInput, match=f"returned {got} values at .*, expected 2"):
            _integrate(f, 2, 0.0, 1.0, TOL)


def test_budget_exhaustion_names_the_component():
    with pytest.raises(MaxSubdivisionError, match="component 1"):
        _integrate(lambda s: (s, math.sin(1e8 * s), s * s), 3, 0.0, 1.0, 1e-12)


# (value, error estimate, evaluation count) of single G7/K15 panels, frozen:
# any rewrite of the panel routine must reproduce them bit for bit.  The
# integrands use only correctly rounded arithmetic, so the values do not
# depend on the platform's libm.  The last five panels are 8 to 49 ulps
# wide, so their outer nodes round onto an edge and must be pulled inward:
# the integrand has its pole on that edge.  On _THIN, 8 ulps, several node
# pairs round onto the edges; on _WIDE, 40 ulps, only the outermost pair
# does.
_THIN = 1.0 + 8 * 2.0 ** -52
_WIDE = 1.0 + 40 * 2.0 ** -52
_FROZEN_PANELS = [
    (lambda s: 1.0 / (1.0 + s), 0.0, 1.0,
     (0.6931471805599453 + 0j, 7.273495740812831e-13, 15)),
    (lambda s: 1.0 / math.sqrt(s), 0.0, 1e-3,
     (0.06180107503477193 + 0j, 0.029542295800871907, 15)),
    (lambda s: complex(1.0 / (0.1 + s * s), s * s * s - 2.0 * s), -2.0, 3.5,
     (8.9403521704794 + 25.265624999999996j, 39.59001225952949, 15)),
    (lambda s: 1.0 / (1.0 + s * s), -1e6, 1e6,
     (209482.14109847174 + 0j, 375081.5147331346, 15)),
    (lambda s: 1.0 / (s - 1.0), 1.0, _THIN,
     (3.119181117652138 + 0j, 1.9343753145777411, 15)),
    (lambda s: 1.0 / (_THIN - s), 1.0, _THIN,
     (3.119181117652138 + 0j, 1.9343753145777411, 15)),
    (lambda s: 5e-324 / (s - 5e-324) + 1j, 5e-324, 2.5e-322,
     (2.5e-323 + 2.47e-322j, 2.5e-323, 15)),
    (lambda s: 1.0 / (s - 1.0), 1.0, _WIDE,
     (4.779634095850339 + 0j, 4.416457094102766, 15)),
    (lambda s: 1.0 / (_WIDE - s), 1.0, _WIDE,
     (4.779634095850339 + 0j, 4.416457094102766, 15)),
]


@pytest.mark.parametrize("f, lo, hi, frozen", _FROZEN_PANELS)
def test_panel_bit_identical(f, lo, hi, frozen):
    values, errs, n = _kronrod_panel(lambda s: (f(s),), lo, hi, 1)
    assert (values[0], errs[0], n) == frozen


def _mixed(s):
    # a float, an int and a complex component: each is summed as returned
    return (1.0 / (1.0 + s), 3 if s < 0.5 else -2, complex(s * s, 1.0 / (2.0 - s)))


# (values, error estimates, evaluation count) of _mixed's vector panels,
# frozen from the panel that made every sample complex before summing
_FROZEN_VECTOR_PANELS = [
    (0.0, 1.0,
     ([0.6931471805599453 + 0j, 0.23814732364409025 + 0j,
       0.33333333333333337 + 0.6931471805599453j],
      [7.273495740812831e-13, 2.472573270354099, 4.725161199280543e-13], 15)),
    (-1.5, 0.75,
     ([-3.7542302016808713 + 0j, 5.6766519845844865 + 0j,
       1.265625 + 1.0296194171811583j],
      [11.807913018856725, 1.9418825264405521, 1.2910913920948299e-09], 15)),
]


@pytest.mark.parametrize("lo, hi, frozen", _FROZEN_VECTOR_PANELS)
def test_vector_panel_bit_identical(lo, hi, frozen):
    values, errs, n = _kronrod_panel(_mixed, lo, hi, 3)
    assert all(type(v) is complex for v in values)
    assert (values, errs, n) == frozen


def test_nan_in_a_float_component_names_its_node():
    nodes = []
    _kronrod_panel(lambda s: nodes.append(s) or (0.0,), 0.0, 1.0, 1)
    bad = nodes[5]

    def f(s):
        return (complex(s, 1.0), math.nan if s == bad else s, 2)

    with pytest.raises(NonFiniteError, match=re.escape(f"non-finite at {bad!r}")):
        _kronrod_panel(f, 0.0, 1.0, 3)
