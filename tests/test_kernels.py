"""Kernel families: closed-form g, c, d against direct integration."""

import bisect
import cmath
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freetransform import (
    DomainError,
    FreeTransformError,
    FiniteMeasure,
    InvalidInput,
    KernelFamily,
    NonFiniteError,
    PickRepresentation,
    const_c,
    const_c_quad,
    const_d,
    const_d_quad,
    custom_density,
    custom_step,
    kernel_g,
    kernel_g_quad,
    kernel_quad_grid,
    lclass,
    lerch_phi,
    pick_eval,
    pick_representation,
    sself,
    ubeta,
)
from freetransform import kernels, quadrature, verify
from freetransform.verify import _upper_grid, run_suite

UPPER = [complex(re, im) for re in (-0.5, 0.4, 1.5) for im in (0.2, 1.0)]


# constants -----------------------------------------------------------------

def test_constants_closed_forms():
    for k in range(1, 7):
        assert const_c(sself(k)) == 0.5 ** k
        assert math.isclose(const_d(sself(k)), (1.0 / 3.0) ** k, rel_tol=1e-15)
        assert math.isclose(const_c(ubeta(k)), k / (k + 1.0), rel_tol=1e-15)
        assert math.isclose(const_d(ubeta(k)), k / (k + 2.0), rel_tol=1e-15)
        assert const_c(lclass(k)) == 1.0
        assert const_d(lclass(k)) == 0.5 ** (k + 1)


def test_constants_against_quadrature():
    for fam in (sself(2), ubeta(3), lclass(1)):
        assert abs(const_c(fam) - const_c_quad(fam).value) < 1e-10
        assert abs(const_d(fam) - const_d_quad(fam).value) < 1e-10


# closed-form g ---------------------------------------------------------------

def test_g_at_zero_is_c():
    for fam in (sself(1), sself(4), ubeta(1), ubeta(5), lclass(0), lclass(3)):
        assert abs(kernel_g(fam, 0.0) - const_c(fam)) < 1e-14


def test_g_elementary_values():
    # order-0 exponential kernel: g(z) = log(1+z)/z
    assert abs(kernel_g(lclass(0), 1.0) - math.log(2.0)) < 1e-14
    # the k = 1 beta and shrink kernels coincide (h = s, dr = ds on (0,1]),
    # where g(z) = (z - log(1+z))/z^2
    for z in (1.0, 0.7j, -0.3 + 0.4j):
        exact = (z - cmath.log(1.0 + z)) / z ** 2
        assert abs(kernel_g(ubeta(1), z) - exact) < 1e-13
        assert abs(kernel_g(sself(1), z) - exact) < 1e-13


def test_g_against_quadrature():
    for k in (1, 3):
        for fam in (sself(k), ubeta(k), lclass(k)):
            for z in UPPER:
                dev = abs(kernel_g(fam, z) - kernel_g_quad(fam, z).value)
                assert dev < 1e-8, (fam.tag, k, z)


def test_g_series_branch_continuity():
    # g near z = 0 must sit on the quadrature value, scale * Phi(-z, s, v)
    # as a gamma average taken to 1e-12
    for fam, (scale, s, v) in ((sself(2), (1.0, 2, 2.0)), (ubeta(2), (2.0, 1, 3.0)),
                               (lclass(1), (1.0, 2, 1.0))):
        for z in (0.999e-3 * cmath.exp(0.4j), 1.001e-3 * cmath.exp(0.4j)):
            oracle = quadrature.gamma_average(
                lambda h, w: (1.0 / (z * h + 1.0) * w,), 1, s, v, 1e-12)[0].value
            dev = abs(kernel_g(fam, z) - scale * oracle)
            assert dev < 1e-10, (fam.tag, z)


# sself(3) on its raw (0, 1] chart: h(s) = s, dr = (-log s)^2/2 ds
SSELF3_INTERVAL = custom_density(lambda s: s, lambda s: math.log(s) ** 2 / 2.0,
                                 0.0, 1.0)


def test_sself_two_charts_agree():
    fam = sself(3)
    for z in UPPER[:3]:
        a = kernel_g_quad(SSELF3_INTERVAL, z).value
        b = kernel_g_quad(fam, z).value
        assert abs(a - b) < 1e-10


def _sself_chart_nodes(fam):
    """The s = h values at which the kernel integral of fam samples g's
    integrand."""
    seen = []

    def f(s, w):
        seen.append(s)
        return (s / (complex(0.4, 1.0) * s + 1.0) * w,)

    kernels._integrate_kernel(fam, f, 1)
    return seen


def test_sself_charts_sample_different_nodes():
    # the chart-agreement check in verify compares two charts only while
    # they feed the integrand different s; with s = e^-w = v on both the
    # two sides were one integrand rounded twice
    interval = sorted(_sself_chart_nodes(SSELF3_INTERVAL))
    halfline = _sself_chart_nodes(sself(3))

    def shared(s):
        i = bisect.bisect_left(interval, s)
        return any(abs(interval[j] - s) <= 1e-12 * s
                   for j in (i - 1, i) if 0 <= j < len(interval))

    assert sum(map(shared, halfline)) < 0.1 * len(halfline)


# evaluation counts of the oracles on verify's grid: 5 160 for lclass(5),
# 3 840 for sself(3) and 975 for ubeta(3); on a u = -log v chart the
# half-line ones were 37 125 and 11 625

def test_lclass_oracle_evaluation_count():
    fam = lclass(5)
    assert sum(kernel_g_quad(fam, z).evaluations for z in _upper_grid()) <= 10_000


def test_sself_oracle_evaluation_count():
    fam = sself(3)
    assert sum(kernel_g_quad(fam, z).evaluations for z in _upper_grid()) <= 6_000


def test_ubeta_oracle_evaluation_count():
    fam = ubeta(3)
    assert sum(kernel_g_quad(fam, z).evaluations for z in _upper_grid()) <= 1_500


def test_kernels_suite_panel_count(monkeypatch):
    # 213 G7/K15 panels with one mesh per family; 3 946 with one per
    # integral, and 4 032 when each half-line family had its own chart
    panels = []
    kronrod_panel = quadrature._kronrod_panel

    def counted(f, lo, hi, m):
        panels.append(hi - lo)
        return kronrod_panel(f, lo, hi, m)

    monkeypatch.setattr(quadrature, "_kronrod_panel", counted)
    assert all(r.passed for r in run_suite("kernels"))
    assert 0 < len(panels) <= 213


def test_kernels_suite_oracle_node_count(monkeypatch):
    # the integrand nodes behind the 25 g(z), c and d of each of the 15
    # built-in family orders: 2 310 on one mesh per family order, 50 520
    # with one mesh per integral; and 885 for the raw sself charts
    nodes = {}
    family = [None]
    kronrod_panel = quadrature._kronrod_panel
    quad_grid = verify.kernel_quad_grid

    def counted_panel(f, lo, hi, m):
        res = kronrod_panel(f, lo, hi, m)
        nodes[family[0]] = nodes.get(family[0], 0) + res[2]
        return res

    def counted_grid(fam, zs, *args, **kwargs):
        family[0] = fam.tag if fam.tag == kernels.CUSTOM else (fam.tag, fam.k)
        return quad_grid(fam, zs, *args, **kwargs)

    monkeypatch.setattr(quadrature, "_kronrod_panel", counted_panel)
    monkeypatch.setattr(verify, "kernel_quad_grid", counted_grid)
    assert all(r.passed for r in run_suite("kernels"))
    raw = nodes.pop(kernels.CUSTOM)
    assert len(nodes) == 15
    assert sum(nodes.values()) <= 2_310
    assert raw <= 885


def test_nevanlinna_suite_takes_each_g_once(monkeypatch):
    # one map_data per family order, 9 in all; 1 800 when kernel_g took
    # it at each of the 200 samples
    calls = []
    real_map_data = kernels.map_data

    def counted(fam):
        calls.append(fam)
        return real_map_data(fam)

    monkeypatch.setattr(kernels, "map_data", counted)
    monkeypatch.setattr(verify, "map_data", counted)
    assert all(r.passed for r in run_suite("nevanlinna"))
    assert 0 < len(calls) <= 9


# one mesh per family ---------------------------------------------------------

def test_kernel_quad_grid_matches_closed_forms():
    grid = _upper_grid()
    for k in (1, 2, 3, 4, 5):
        for fam in (sself(k), ubeta(k), lclass(k)):
            c, d, gs = kernel_quad_grid(fam, grid)
            assert abs(c.value - const_c(fam)) <= 1e-14, fam
            assert abs(d.value - const_d(fam)) <= 1e-14, fam
            assert len(gs) == len(grid)
            for z, g in zip(grid, gs):
                assert abs(g.value - kernel_g(fam, z)) <= 1e-13, (fam, z)
            for res in (c, d, *gs):
                assert res.error_estimate <= 1e-10, fam
                # one mesh: every component counts the same nodes
                assert res.evaluations == c.evaluations


# (value, error estimate, evaluations) of c, d, g(0.5+0.5j) and
# g(-0.95+0.02j), each integrated on a mesh of its own, frozen: any rewrite
# of the one-component oracles must reproduce them bit for bit.
# The kernels use only correctly rounded arithmetic, so the values do not
# depend on the platform's libm.
_FROZEN_ORACLES = [
    (ubeta(2), [
        ((0.6666666666666667+0j), 7.401486830834377e-15, 15),
        ((0.49999999999999983+0j), 5.551115123125781e-15, 15),
        ((0.45442075383825853-0.1195836813348789j), 5.675201421667541e-14, 15),
        ((3.587625891729824-0.5708380446894759j), 1.0750192146296471e-11, 135)]),
    (custom_density(lambda s: 1.0 - s, lambda s: -3.0 * s * s, 0.0, 1.0,
                    increasing=False), [
        ((-0.25+0j), 2.7755575615628914e-15, 15),
        ((-0.1+0j), 1.1102230246251565e-15, 15),
        ((0.2876110196153101+0.07944154167983591j), 6.4955953151410855e-15, 45),
        ((0.18459852508903057+0.0009626157862193542j), 1.7862879258453595e-11, 15)]),
    (custom_density(lambda u: 1.0 / (1.0 + u),
                    lambda u: 1.0 / ((1.0 + u) * (1.0 + u) * (1.0 + u)), 0.0, math.inf), [
        ((0.3333333333333333+0j), 3.700743415417188e-15, 15),
        ((0.24999999999999997+0j), 2.775557561562891e-15, 15),
        ((0.22721037691912932-0.05979184066743945j), 2.837683324552073e-14, 15),
        ((1.7938129458649121-0.285419022344738j), 5.375133157059896e-12, 135)]),
    (custom_step(lambda s: 1.0 / (1.0 + s), ((0.5, 0.7), (1.5, 0.3))), [
        (0.5866666666666667, 0.0, 2),
        (0.35911111111111105, 0.0, 2),
        ((0.42670906200317965-0.0985691573926868j), 0.0, 2),
        ((1.4645627179802174-0.04871685735848976j), 0.0, 2)]),
]


@pytest.mark.parametrize("fam, frozen", _FROZEN_ORACLES)
def test_one_component_oracles_bit_identical(fam, frozen):
    got = [const_c_quad(fam), const_d_quad(fam),
           kernel_g_quad(fam, 0.5 + 0.5j), kernel_g_quad(fam, -0.95 + 0.02j)]
    assert [tuple(res) for res in got] == frozen


def test_step_kernel_grid_is_its_one_component_sums():
    # a step kernel's sums take the same products on either path
    fam, frozen = _FROZEN_ORACLES[-1]
    c, d, gs = kernel_quad_grid(fam, (0.5 + 0.5j, -0.95 + 0.02j))
    assert [tuple(res) for res in (c, d, *gs)] == frozen


# (value, error estimate, evaluations) of c, d, g(0.5+0.5j) and
# g(-0.95+0.02j) of kernel_quad_grid, all four on one mesh, frozen: the
# gamma average's head and tail (sself, lclass) and ubeta's (0, 1] chart
# with m = 4, where each node weights every component
_FROZEN_GRIDS = [
    (sself(3), [
        ((0.12500000000000006+0j), 2.388740377467121e-12, 270),
        ((0.03703703703703705+0j), 6.10009796573804e-13, 270),
        ((0.10764516260818886-0.012511425620197577j), 2.777751898695715e-12, 270),
        ((0.19217262589197615-0.0033332245411277113j), 1.921104183225609e-12, 270)]),
    (lclass(2), [
        ((1.0000000000000004+0j), 1.910992301973697e-11, 300),
        ((0.12500000000000003+0j), 9.84773842928993e-13, 300),
        ((0.939921705885807-0.04756686849399564j), 1.8635053383251348e-11, 300),
        ((1.1824973301065551-0.007010015831910847j), 2.0083227310417308e-11, 300)]),
    (ubeta(2), [
        ((0.6666666666666667+0j), 7.401486830834377e-15, 135),
        ((0.5+0j), 5.551115123125783e-15, 135),
        ((0.45442075383825864-0.1195836813348789j), 5.22474361001703e-15, 135),
        ((3.587625891729824-0.5708380446894759j), 1.0750192146296471e-11, 135)]),
]


@pytest.mark.parametrize("fam, frozen", _FROZEN_GRIDS)
def test_grid_oracles_bit_identical(fam, frozen):
    c, d, gs = kernel_quad_grid(fam, (0.5 + 0.5j, -0.95 + 0.02j))
    assert [tuple(res) for res in (c, d, *gs)] == frozen


def test_lclass_oracle_high_order():
    # the weight s^k e^-s/k! peaks at s = k, far beyond the first panel's
    # nodes, and s^k alone overflows from k = 75 on the chart's far
    # nodes; the oracle must find the peak and stay finite
    for k in (30, 60, 75, 90, 120, 170):
        fam = lclass(k)
        for z in (0.5 + 0.5j, -0.5 + 0.1j, 2j):
            value = kernel_g_quad(fam, z).value
            assert abs(value - kernel_g(fam, z)) <= 1e-12, (k, z)


def test_high_order_oracles_raise_package_errors():
    # k! and s^k leave the float range from k = 171 on, but the gamma
    # average forms their quotient in log space: the old limit of order
    # 500 is gone
    for fam in (lclass(70), lclass(171), sself(172), lclass(501), sself(502),
                lclass(2000)):
        for z in (0.5 + 0.5j, 2j):
            value = kernel_g_quad(fam, z).value
            assert abs(value - kernel_g(fam, z)) <= 1e-12, (fam.tag, fam.k, z)
    # at the cap; z inside |z| <= 1/2, where the closed form is a short
    # series
    cap = quadrature._GAMMA_MAX_ORDER
    for fam in (lclass(cap - 1), sself(cap)):
        assert abs(const_c_quad(fam).value - const_c(fam)) <= 1e-10
        assert abs(const_d_quad(fam).value - const_d(fam)) <= 1e-10
        z = 0.3 + 0.3j
        assert abs(kernel_g_quad(fam, z).value - kernel_g(fam, z)) <= 1e-10
    # beyond it the first panel of the head can miss the weight's peak
    for fam in (lclass(cap), sself(cap + 1), lclass(10 ** 12), sself(10 ** 12)):
        for oracle in (const_c_quad, const_d_quad,
                       lambda fam: kernel_g_quad(fam, 0.5 + 0.5j)):
            with pytest.raises(DomainError):
                oracle(fam)


def test_ubeta_oracle_high_order():
    # from k = 50 on the weight k s^k crowds against s = 1 and ubeta takes
    # the gamma average; on its (0, 1] chart the first panel missed the
    # weight from k of about 7 000 and gave c of about 0
    for k in (50, 1000, 10 ** 4, 10 ** 6):
        fam = ubeta(k)
        assert abs(const_c_quad(fam).value - const_c(fam)) <= 1e-12, k
        assert abs(const_d_quad(fam).value - const_d(fam)) <= 1e-12, k
        for z in (0.3 + 0.3j, 0.5 + 0.5j, -0.5 + 0.1j, 2j):
            value = kernel_g_quad(fam, z).value
            assert abs(value - kernel_g(fam, z)) <= 1e-12, (k, z)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-0.9, max_value=3.0),
       st.floats(min_value=1e-3, max_value=3.0),
       st.sampled_from((1, 2, 3)))
def test_g_conjugate_symmetry(re, im, k):
    """Real kernel data forces g(conj z) = conj(g(z))."""
    z = complex(re, im)
    for fam in (sself(k), ubeta(k), lclass(k)):
        a = kernel_g(fam, z.conjugate())
        b = kernel_g(fam, z).conjugate()
        assert cmath.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


def test_g_domain_cut():
    for fam in (sself(1), ubeta(1), ubeta(2), lclass(0)):
        for z in (-1.0, -2.0, -3.5, -10.0):
            with pytest.raises(DomainError):
                kernel_g(fam, z)


def test_family_validation():
    with pytest.raises(InvalidInput):
        sself(0)
    with pytest.raises(InvalidInput):
        ubeta(0)
    with pytest.raises(InvalidInput):
        lclass(-1)
    # a float order would reach k! in the oracle as a bare TypeError
    for make in (sself, ubeta, lclass):
        for k in (2.0, True, "2", None, 10 ** 400):
            with pytest.raises(InvalidInput):
                make(k)
    with pytest.raises(InvalidInput):
        kernels.KernelFamily("beta", 2)


# a built-in tag with a custom kernel's fields, each of which was taken
# and ignored, but for increasing, which flipped the image's signs while
# kernel_g kept the + sign; and an increasing that is not a bool, which
# was taken by its truth
CONTRADICTORY = {
    "sself.increasing": lambda: KernelFamily("sself", 2, increasing=False),
    "ubeta.increasing": lambda: KernelFamily("ubeta", 2, increasing=False),
    "sself.increasing.replace": lambda: sself(2)._replace(increasing=False),
    "lclass.h": lambda: KernelFamily("lclass", 1, h=math.exp),
    "sself.r_density": lambda: KernelFamily("sself", 1, r_density=lambda s: 1.0),
    "ubeta.jumps": lambda: KernelFamily("ubeta", 1, jumps=((0.5, 1.0),)),
    "lclass.lo": lambda: KernelFamily("lclass", 0, lo=0.5),
    "sself.hi": lambda: KernelFamily("sself", 1, hi=math.inf),
    "ubeta.increasing.int": lambda: KernelFamily("ubeta", 2, increasing=1),
    "custom_density.increasing": lambda: custom_density(
        lambda s: s, lambda s: 1.0, 0.0, 1.0, increasing="no"),
    "custom_step.increasing": lambda: custom_step(lambda s: s, ((0.5, 1.0),),
                                                  increasing=1.0),
    # an unhashable tag escaped as a bare TypeError from the FAMILIES lookup
    "tag.unhashable": lambda: KernelFamily([1], 2),
}


@pytest.mark.parametrize("site", sorted(CONTRADICTORY))
def test_contradictory_family_is_invalid_input(site):
    with pytest.raises(InvalidInput, match=r"takes only tag and k|increasing must be a bool|"
                                           r"tag must be a str"):
        CONTRADICTORY[site]()


def test_family_order_past_the_string_limit_is_invalid_input():
    # str() refuses an int of more than 4 300 digits, so the message names
    # the refused order, or tag, by its bit length
    for make in (sself, ubeta, lclass):
        with pytest.raises(InvalidInput, match="a negative int of 16610 bits"):
            make(-10 ** 5000)
    with pytest.raises(InvalidInput, match="an int of 16610 bits"):
        kernels.KernelFamily(10 ** 5000, 2)


_ORDERS = st.one_of(st.integers(-10, 600), st.integers(10 ** 6, 10 ** 12),
                    st.floats(allow_nan=True, allow_infinity=True), st.booleans())
_UPPER_Z = st.builds(complex, st.floats(-1e3, 1e3), st.floats(1e-6, 1e3))


@settings(max_examples=60, deadline=None)
@given(make=st.sampled_from((sself, ubeta, lclass)), k=_ORDERS, z=_UPPER_Z)
def test_family_oracles_raise_only_package_errors(make, k, z):
    for call in (lambda: make(k),
                 lambda: const_c_quad(make(k)).value,
                 lambda: const_d_quad(make(k)).value,
                 lambda: kernel_g_quad(make(k), z).value):
        try:
            value = call()
        except FreeTransformError:
            continue
        if not isinstance(value, kernels.KernelFamily):
            assert cmath.isfinite(value), (make, k, z)


# upper half-plane sign --------------------------------------------------------

def test_nevanlinna_sign():
    rng = random.Random(3)
    zs = [complex(rng.uniform(-3.0, 3.0), rng.uniform(1e-2, 3.0))
          for _ in range(50)]
    for fam in (sself(1), ubeta(2), lclass(1)):
        for z in zs:
            assert kernel_g(fam, z).imag < 0.0, (fam.tag, z)


# custom kernels ----------------------------------------------------------------

def test_custom_density_replicates_beta_kernel():
    fam = custom_density(lambda s: s, lambda s: 1.0, 0.0, 1.0)
    for z in UPPER[:4]:
        assert abs(kernel_g_quad(fam, z).value - kernel_g(ubeta(1), z)) < 1e-9
    assert abs(const_c_quad(fam).value - 0.5) < 1e-10
    assert abs(const_d_quad(fam).value - 1.0 / 3.0) < 1e-10


def test_custom_density_half_line_starts_at_lo():
    # dr = e^-s ds on (1, inf): c = e^-1, not the 1 of (0, inf)
    fam = custom_density(lambda s: 1.0, lambda s: math.exp(-s), 1.0, math.inf)
    assert abs(const_c_quad(fam).value - math.exp(-1.0)) < 1e-12


# a density's interval needs a finite lo < hi, hi finite or +inf; each of
# these was once taken as given: the half line integrated from lo + u

def test_custom_interval_from_minus_inf_is_invalid():
    # once c = 0j, where the whole line gives 2
    with pytest.raises(InvalidInput, match="lo must be a finite number, got -inf"):
        custom_density(lambda s: math.exp(-abs(s)), lambda s: 1.0, -math.inf, math.inf)


def test_custom_interval_to_minus_inf_is_invalid():
    # once integrated (0, inf), c = 1
    with pytest.raises(InvalidInput, match="hi must be a finite number, got -inf"):
        custom_density(lambda s: math.exp(-abs(s)), lambda s: 1.0, 0.0, -math.inf)


def test_custom_interval_from_nan_is_invalid():
    # once "integrand non-finite at 0.5"
    with pytest.raises(InvalidInput, match="lo must be a finite number, got nan"):
        custom_density(lambda s: math.exp(-abs(s)), lambda s: 1.0, math.nan, math.inf)


def test_custom_interval_needs_lo_below_hi():
    with pytest.raises(InvalidInput, match=r"needs lo < hi, got \(1.0, 1.0\)"):
        custom_density(lambda s: s, lambda s: 1.0, 1.0, 1.0)


def test_custom_step_finite_sum():
    h = lambda s: 1.0 / (1.0 + s)
    jumps = ((0.5, 0.7), (2.0, 0.3))
    fam = custom_step(h, jumps)
    z = 0.8 + 0.6j
    expected = sum(j * h(s) / (z * h(s) + 1.0) for s, j in jumps)
    assert abs(kernel_g_quad(fam, z).value - expected) < 1e-15
    assert abs(const_c_quad(fam).value - sum(j * h(s) for s, j in jumps)) < 1e-15


def test_custom_step_decreasing_sign():
    # a non-increasing time change flips the denominator sign
    h = lambda s: math.exp(-s)
    jumps = ((1.0, -0.4), (2.0, -0.6))
    fam = custom_step(h, jumps, increasing=False)
    z = 1.0 + 1.0j
    expected = sum(j * h(s) / (z * h(s) - 1.0) for s, j in jumps)
    assert abs(kernel_g_quad(fam, z).value - expected) < 1e-15


def test_custom_step_non_finite_sums_name_the_jump():
    # a density kernel raises NonFiniteError on such an h; a step kernel
    # gave c = inf with error 0.0, and g = nan+nanj, without a word
    jumps = ((0.5, 1.0), (1.5, 2.0))
    with pytest.raises(NonFiniteError, match=r"integrand non-finite at jump 1\.5$"):
        const_c_quad(custom_step(lambda s: 1e308, jumps))
    with pytest.raises(NonFiniteError, match=r"integrand non-finite at jump 0\.5$"):
        kernel_g_quad(custom_step(lambda s: math.nan, jumps), 0.5 + 0.5j)
    # finite terms whose sum overflows
    with pytest.raises(NonFiniteError, match=r"step sum overflows at jump 1\.5$"):
        const_c_quad(custom_step(lambda s: 1e308, ((0.5, 1.0), (1.5, 1.0))))
    # a pole on a jump
    with pytest.raises(NonFiniteError, match=r"ZeroDivisionError at jump 0\.5$"):
        kernel_g_quad(custom_step(lambda s: 1.0, jumps), -1.0)
    # a grid names the first component that is not finite
    fam = custom_step(lambda s: 2.0 if s < 1.0 else 1e308, jumps)
    with pytest.raises(NonFiniteError, match=r"at jump 1\.5 in component 0$"):
        kernel_quad_grid(fam, (0.5j,))


def test_custom_step_sign_validation():
    with pytest.raises(InvalidInput):
        custom_step(lambda s: s, ((1.0, -1.0),))  # negative jump, increasing
    with pytest.raises(InvalidInput):
        custom_step(lambda s: s, ((1.0, 1.0),), increasing=False)
    with pytest.raises(InvalidInput):
        custom_step(lambda s: s, ((1.0, 1.0), (2.0, -1.0)))


# derivatives ---------------------------------------------------------------------

def test_derivative_formula_first_order():
    # g(z) = scale Phi(-z, s, v) and z dPhi/dz = Phi(z, s-1, v) - v Phi(z, s, v),
    # with Phi(z, 0, v) = 1/(1-z)
    h = 1e-5
    for fam in (sself(2), ubeta(1), lclass(1)):
        _, _, scale, s, v = kernels.FAMILIES[fam.tag].closed_form(fam.k)
        for z in (0.5 + 0.5j, 1.5 + 0.2j):
            fd = (kernel_g(fam, z + h) - kernel_g(fam, z - h)) / (2.0 * h)
            lower = 1.0 / (1.0 + z) if s == 1 else lerch_phi(-z, s - 1, v)
            exact = scale * (lower - v * lerch_phi(-z, s, v)) / z
            assert abs(fd - exact) < 1e-8


# half-plane representation of step kernels ------------------------------------

def test_pick_representation_example():
    rep = pick_representation([2.0], [3.0])
    # b = 1/h = 0.5: shift 3*0.5/1.25 = 1.2, atom at -0.5 with mass 3/1.25
    assert math.isclose(rep.shift, 1.2, rel_tol=1e-15)
    assert rep.measure.atoms == ((-0.5, 2.4),)


def test_pick_eval_matches_direct_sum():
    rng = random.Random(11)
    for _ in range(5):
        hs = [rng.uniform(0.1, 2.0) for _ in range(8)]
        ws = [rng.uniform(0.05, 1.0) for _ in range(8)]
        rep = pick_representation(hs, ws)
        for z in (0.5 + 0.5j, -1.0 + 2.0j):
            direct = sum(w * h / (z * h + 1.0) for h, w in zip(hs, ws))
            assert abs(pick_eval(rep, z) - direct) < 1e-13


@pytest.mark.parametrize("hs, ws", [([1e-160], [0.7]), ([1e-200], [0.7]), ([1e-300], [0.7]),
                                    ([1e-320], [0.7]), ([5e-324, 1.0], [0.7, 1.3])])
def test_pick_eval_at_tiny_kernel_values(hs, ws):
    # where b = 1/h squares past the largest double the step's share was
    # lost, and where b itself is inf the atom at -b was refused
    rep = pick_representation(hs, ws)
    for z in (0.3 + 1.0j, -2.0 + 0.5j, 1.0j, 0.1 - 3.0j):
        direct = sum(w * h / (z * h + 1.0) for h, w in zip(hs, ws))
        assert abs(pick_eval(rep, z) - direct) <= 1e-15 * abs(direct), (hs, z)


def test_pick_eval_at_a_huge_off_axis_z():
    # Smith's denominator |z|^2/max(|Re z|, |Im z|) overflows here, and
    # the sum came out nan+nanj; (1 + z)/(z - 1) is 1 to double precision
    rep = PickRepresentation(0.0, FiniteMeasure(((1.0, 1.0),)))
    assert abs(pick_eval(rep, -1.2e308 + 1.2e308j) - 1.0) <= 1e-15


_PICK_LARGE_Z = "FOUND: pick_eval loses relative accuracy at large |z| where g falls like 1/z"


@pytest.mark.parametrize("z", [
    0.3 + 1.0j, 5.0 - 2.0j,
    pytest.param(1e6 - 3e5j, marks=pytest.mark.xfail(strict=True, reason=_PICK_LARGE_Z)),
    pytest.param(1e10 - 3e9j, marks=pytest.mark.xfail(strict=True, reason=_PICK_LARGE_Z)),
])
def test_pick_eval_is_relative_at_large_z(z):
    # shift 0.65 and the atom at -1 of mass 0.65 tend to constants that
    # cancel; measured 1.4e-16, 2.7e-16, 2.5e-11 and 1.5e-7 relative
    direct = 1.3 / (z + 1.0)
    value = pick_eval(pick_representation([1.0], [1.3]), z)
    assert abs(value - direct) <= 1e-13 * abs(direct)


def test_pick_eval_sign():
    rep = pick_representation([0.5, 1.0, 2.0], [1.0, 1.0, 1.0])
    for z in (1.0j, -2.0 + 0.1j, 3.0 + 2.0j):
        assert pick_eval(rep, z).imag < 0.0


def test_pick_merges_equal_locations():
    rep = pick_representation([1.0, 1.0], [0.4, 0.6])
    assert len(rep.measure.atoms) == 1


def test_pick_validation():
    with pytest.raises(InvalidInput):
        pick_representation([], [])
    with pytest.raises(InvalidInput):
        pick_representation([1.0, -2.0], [1.0, 1.0])
    with pytest.raises(InvalidInput):
        pick_representation([1.0], [0.0])


# the record contract ---------------------------------------------------------------

def test_kernel_family_validates_on_every_construction_path():
    with pytest.raises(InvalidInput):
        sself(2)._replace(k=0)
    with pytest.raises(InvalidInput):
        KernelFamily._make(("nope", 1, None, None, None, 0.0, 1.0, True))
    with pytest.raises(InvalidInput):
        custom_density(lambda s: s, lambda s: 1.0, 0.0, 1.0)._replace(h=None)
    assert sself(2)._replace(k=3) == sself(3)
    assert KernelFamily._make(tuple(lclass(0))) == lclass(0)


def test_kernel_family_record():
    fam = ubeta(3)
    with pytest.raises(AttributeError):
        fam.k = 0
    assert fam == KernelFamily("ubeta", 3) and hash(fam) == hash(ubeta(3))
    assert fam != sself(3)
    assert repr(fam) == ("KernelFamily(tag='ubeta', k=3, h=None, r_density=None, "
                         "jumps=None, lo=0.0, hi=1.0, increasing=True)")
    rep = pick_representation([2.0], [3.0])
    assert rep != (rep.shift, rep.measure)
    assert rep == PickRepresentation(rep.shift, rep.measure)
