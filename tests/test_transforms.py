"""Transform evaluation on the imaginary axis, all class families."""

import cmath
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freetransform import (
    DomainError,
    FiniteMeasure,
    InvalidInput,
    LevyTriple,
    LInfSpec,
    PickRepresentation,
    TransformEvaluator,
    add_transforms,
    cauchy_pick_integral,
    custom_density,
    custom_step,
    euler_gamma,
    exp_map_convolution_check,
    lclass,
    linf_integrand,
    logphi,
    pick_eval,
    random_integral_transform,
    scale_transform,
    scale_triple,
    sself,
    transform_lclass,
    transform_linf,
    transform_sself,
    transform_ubeta,
    ubeta,
    voiculescu_cauchy,
    voiculescu_id,
    voiculescu_via_laplace,
)
from freetransform.kernels import map_data
from freetransform.specfun import log_gamma2_slope
from freetransform.transforms import (direct_evaluator, linf_evaluator,
                                      random_integral_evaluator)

GAUSS = LevyTriple(1.0, 2.0, ())
MIXED = LevyTriple(0.4, 1.1, ((-1.5, 0.4), (0.7, 1.2), (2.0, 0.3)))
T_GRID = (0.5, 1.0, 2.0)


# characteristic exponent -----------------------------------------------------

def test_logphi_gaussian():
    # i a t - sigma^2 t^2 / 2 at t = 0.7
    assert abs(logphi(GAUSS, 0.7) - complex(-0.7 * 0.7, 0.7)) < 1e-15


def test_logphi_compound_poisson():
    tr = LevyTriple(0.0, 0.0, ((1.0, 2.0),))
    t = 0.3
    exact = 2.0 * (cmath.exp(1j * t) - 1.0 - 1j * t / 2.0)
    assert abs(logphi(tr, t) - exact) < 1e-15


# direct evaluation ------------------------------------------------------------

def test_direct_single_atom():
    val = direct_evaluator(0.0, FiniteMeasure(((1.0, 1.0),)))(1.0)
    assert type(val) is complex
    assert abs(val - (-1.0j)) < 1e-15  # (1+i)/(i-1) = -i


def test_direct_origin_atom_is_gaussian_term():
    val = direct_evaluator(0.0, FiniteMeasure(((0.0, 2.0),)))(1.0)
    assert abs(val - 2.0 / 1.0j) < 1e-15


def test_direct_far_atoms_divide_before_weighting():
    # t x or w (1 + itx) overflows; the value is about -it and -w i
    for x in (1e308, -1e308):
        V = direct_evaluator(0.0, FiniteMeasure(((x, 1.0),)))
        for t in (10.0, 100.0):
            assert abs(V(t) + 1j * t) <= 1e-15 * t, (x, t)
    val = direct_evaluator(0.0, FiniteMeasure(((1e10, 1e300),)))(1.0)
    assert abs(val + 1e300j) <= 1e-15 * 1e300


def test_direct_evaluator_equals_the_formula():
    m = FiniteMeasure(((-2.5, 0.3), (-0.2, 1.1), (0.0, 0.7), (0.9, 0.4), (40.0, 0.01)))
    V = direct_evaluator(-0.3, m)
    for i in range(200):
        t = 10.0 ** (-8.0 + 20.0 * i / 199)
        it = 1j * t
        acc = complex(-0.3)
        for x, w in m.atoms:
            acc += w * (1.0 + it * x) / (it - x)
        assert V(t) == acc == pick_eval(PickRepresentation(-0.3, m), it), t


def test_id_gaussian_closed_form():
    for t in T_GRID:
        assert abs(voiculescu_id(GAUSS, t) - (1.0 + 2.0 / (1j * t))) < 1e-15


def test_one_point_transforms_return_complex():
    V = lambda u: voiculescu_id(MIXED, u)
    spec = LInfSpec(0.4, FiniteMeasure(((1.0, 0.5),)))
    for value in (voiculescu_id(MIXED, 1.0), voiculescu_via_laplace(GAUSS, 1.0),
                  random_integral_transform(ubeta(2), MIXED, 1.0),
                  transform_sself(0, MIXED, 1.0), transform_sself(2, MIXED, 1.0),
                  transform_ubeta(2, MIXED, 1.0), transform_lclass(1, MIXED, 1.0),
                  transform_linf(spec, 1.0), scale_transform(2.0, V, 1.0),
                  add_transforms(V, V, 1.0), voiculescu_cauchy(0.3, 1.0)):
        assert type(value) is complex, value


def test_id_rejects_bad_t():
    for t in (0.0, -1.0, math.inf):
        with pytest.raises(DomainError):
            voiculescu_id(GAUSS, t)


# analytic route ----------------------------------------------------------------

def test_laplace_route_matches_direct():
    for tr in (GAUSS, MIXED):
        for t in T_GRID:
            a = voiculescu_via_laplace(tr, t)
            b = voiculescu_id(tr, t)
            assert abs(a - b) < 1e-7, (tr, t)


# named classes vs the generic kernel map -----------------------------------------

def test_named_transforms_equal_generic():
    for t in T_GRID:
        for k in (1, 2):
            a = random_integral_transform(sself(k), MIXED, t)
            assert abs(a - transform_sself(k, MIXED, t)) < 1e-12
            b = random_integral_transform(ubeta(k), MIXED, t)
            assert abs(b - transform_ubeta(k, MIXED, t)) < 1e-12


def _transform_per_t(fam, tr, t):
    """The random-integral formula with map_data taken at every t: the
    reference the evaluator must reproduce bit for bit where it sums g
    atom by atom."""
    sign = 1.0 if fam.increasing else -1.0
    c, d, g, _ = map_data(fam)
    acc = tr.drift * c + sign * tr.gauss_var * d / (1j * t)
    for x, w in tr.levy_atoms:
        acc += w * sign * x * (g(1j * x / t) - sign * c / (1.0 + x * x))
    return acc


def _absolute_contributions(fam, tr, t):
    """|a c| + |sigma^2 d|/t + sum |w x| (|g(ix/t)| + c/(1+x^2)): the scale
    of the rounding in either way of summing the formula."""
    c, d, g, _ = map_data(fam)
    return (abs(tr.drift * c) + abs(tr.gauss_var * d) / t
            + sum(abs(w * x) * (abs(g(1j * x / t)) + abs(c) / (1.0 + x * x))
                  for x, w in tr.levy_atoms))


# On t >= 2 max|x| a built-in family's evaluator sums the atoms' moment
# series, in another order than the formula; fixed before measuring, in
# units of the sum of absolute contributions.  Worst measured: 2.3e-16
# against the formula on the law below, and 7.4e-16 against the exact
# value over 5 000 draws like the property test's
SERIES_BOUND = 1e-15


def test_random_integral_evaluator_equals_the_formula():
    tr = LevyTriple(-0.7, 0.6, ((-3.0, 0.2), (-0.4, 1.1), (0.05, 2.0),
                                (1.3, 0.5), (25.0, 0.01)))
    reach = 2.0 * max(abs(x) for x, _ in tr.levy_atoms)
    families = [fn(k) for fn in (sself, ubeta, lclass) for k in (1, 4, 16)]
    families.append(custom_density(lambda s: s, lambda s: -2.0 * s, 0.0, 1.0,
                                   increasing=False))
    for fam in families:
        V = random_integral_evaluator(fam, tr)
        steps = 5 if fam.tag == "custom" else 25
        for i in range(steps):
            t = 10.0 ** (-3.0 + 6.0 * i / (steps - 1))
            value = V(t)
            assert value == random_integral_transform(fam, tr, t), (fam, t)
            if t < reach or fam.tag == "custom":
                assert value == _transform_per_t(fam, tr, t), (fam, t)
            else:
                assert (abs(value - _transform_per_t(fam, tr, t))
                        <= SERIES_BOUND * _absolute_contributions(fam, tr, t)), (fam, t)


def _mirrored_atoms(draw):
    """1-4 atoms with |x| on [1e-3, 1e3] and w on [1e-3, 1e3], each
    mirrored or not: an atom (-x, w) at or next to the mirror image
    cancels, or nearly, the even moments sum w x (x/X)^n."""
    mags = st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)
    atoms = {}
    for _ in range(draw(st.integers(1, 4))):
        x = draw(mags) * draw(st.sampled_from((1.0, -1.0)))
        w = atoms[x] = draw(mags)
        nudge = draw(st.sampled_from((None, 0.0, 1e-12, 1e-6)))
        if nudge is not None:
            atoms[-x * (1.0 + nudge)] = w
    return tuple(sorted(atoms.items()))


# k -> (c, d, scale, s, v) of each built-in family in exact rationals
_EXACT_FAMILIES = {
    "sself": lambda k: (Fraction(1, 2 ** k), Fraction(1, 3 ** k), 1, k, 2),
    "ubeta": lambda k: (Fraction(k, k + 1), Fraction(k, k + 2), k, 1, k + 1),
    "lclass": lambda k: (Fraction(1), Fraction(1, 2 ** (k + 1)), 1, k + 1, 1),
}


def _exact_on_the_band(fam, tr, t):
    """V(it) on t >= 2 max|x| in rationals, g = scale sum_n p_n (-ix/t)^n
    with p_n = (v+n)^-s cut after the first term below 2^-64 of the
    first, the tail then below twice that, and rounded once, to a
    complex."""
    c, d, scale, s, v = _EXACT_FAMILIES[fam.tag](fam.k)
    t = Fraction(t)
    re, im = Fraction(tr.drift) * c, -Fraction(tr.gauss_var) * d / t
    for x, w in tr.levy_atoms:
        x, w = Fraction(x), Fraction(w)
        re -= w * x * c / (1 + x * x)
        power, ratio = w * x * scale, x / t  # w x scale (x/t)^n
        stop = abs(power) / (v ** s * 2 ** 64)
        for n in itertools.count():
            term = power / (v + n) ** s
            if n % 2:
                im += term if n % 4 == 3 else -term
            else:
                re += term if n % 4 == 0 else -term
            if abs(term) <= stop:
                break
            power *= ratio
    return complex(re, im)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_moment_series_on_its_band_against_exact_values(data):
    draw = data.draw
    fam = draw(st.sampled_from((sself, ubeta, lclass)))(
        draw(st.integers(1, 1000)))
    tr = LevyTriple(draw(st.floats(-2.0, 2.0)), draw(st.floats(0.0, 2.0)),
                    _mirrored_atoms(draw))
    reach = 2.0 * max(abs(x) for x, _ in tr.levy_atoms)
    V = random_integral_evaluator(fam, tr)
    for t in (reach, reach * 10.0 ** draw(st.floats(0.0, 6.0))):
        assert (abs(V(t) - _exact_on_the_band(fam, tr, t))
                <= SERIES_BOUND * _absolute_contributions(fam, tr, t)), (fam, tr, t)


def test_shrink_order_zero_is_id():
    for t in T_GRID:
        assert abs(transform_sself(0, MIXED, t)
                   - voiculescu_id(MIXED, t)) < 1e-14


def test_ubeta_large_k_approaches_id():
    t = 1.0
    target = voiculescu_id(GAUSS, t)
    # closed-form gap: |-a/(k+1) + 2 sigma^2/((k+2) i t)|
    for k in (10, 100):
        gap = abs(transform_ubeta(k, GAUSS, t) - target)
        exact = abs(complex(-1.0 / (k + 1), -2.0 * 2.0 / (k + 2)))
        assert math.isclose(gap, exact, rel_tol=1e-9)


def test_lclass_poisson_value():
    # single unit jump at x = 1, k = 0: V = it Li_1(1/(it)) - 1/2
    tr = LevyTriple(0.0, 0.0, ((1.0, 1.0),))
    t = 2.0
    it = 2.0j
    exact = it * (-cmath.log(1.0 - 1.0 / it)) - 0.5
    assert abs(transform_lclass(0, tr, t) - exact) < 1e-14


def test_lclass_requires_valid_k():
    with pytest.raises(InvalidInput):
        transform_lclass(-1, GAUSS, 1.0)
    with pytest.raises(InvalidInput):
        transform_ubeta(0, GAUSS, 1.0)
    with pytest.raises(InvalidInput):
        transform_sself(-2, GAUSS, 1.0)


# dilation and convolution algebra ----------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.2, max_value=5.0),
       st.floats(min_value=0.3, max_value=3.0))
def test_scaling_identity(c, t):
    """c V(it/c) must equal the transform of the dilated triple."""
    scaled = scale_triple(c, MIXED)
    lhs = scale_transform(c, lambda u: voiculescu_id(MIXED, u), t)
    rhs = voiculescu_id(scaled, t)
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))


def test_additivity_under_convolution():
    tr1 = LevyTriple(0.5, 1.0, ((1.0, 0.7),))
    tr2 = LevyTriple(-0.2, 0.5, ((-2.0, 0.4),))
    convolved = LevyTriple(0.3, 1.5, ((-2.0, 0.4), (1.0, 0.7)))
    for t in T_GRID:
        total = add_transforms(lambda u: voiculescu_id(tr1, u),
                               lambda u: voiculescu_id(tr2, u), t)
        assert abs(total - voiculescu_id(convolved, t)) < 1e-12


def test_exp_map_convolution_split():
    assert exp_map_convolution_check(MIXED, T_GRID) <= 1e-12


def test_exp_map_convolution_split_reports_nan(monkeypatch):
    # a NaN at the last grid point must not be folded away by max()
    from freetransform import transforms

    real_id = transforms.id_evaluator

    def nan_at_last(tr):
        V = real_id(tr)
        return lambda t: complex(math.nan, 0.0) if t == T_GRID[-1] else V(t)

    monkeypatch.setattr(transforms, "id_evaluator", nan_at_last)
    assert math.isnan(exp_map_convolution_check(MIXED, T_GRID))


def test_exp_map_convolution_split_sees_a_wrong_image(monkeypatch):
    # the direct side is built without the closed forms, so an error in
    # them shows instead of cancelling
    from freetransform import transforms

    real_image = transforms.random_integral_evaluator

    def shifted(fam, tr):
        V = real_image(fam, tr)
        return lambda t: V(t) + 1e-9

    monkeypatch.setattr(transforms, "random_integral_evaluator", shifted)
    assert exp_map_convolution_check(MIXED, T_GRID) >= 1e-10


def test_exp_map_convolution_split_panel_count(monkeypatch):
    # 77 G7/K15 panels: 13 for c, d and the 9 g(ix/t) of the image on one
    # mesh, and 64 for the Laplace route; 175 with c, d and each g on a
    # mesh of its own
    from freetransform import quadrature

    panels = []
    kronrod_panel = quadrature._kronrod_panel

    def counted(f, lo, hi, m):
        panels.append(hi - lo)
        return kronrod_panel(f, lo, hi, m)

    monkeypatch.setattr(quadrature, "_kronrod_panel", counted)
    assert exp_map_convolution_check(MIXED, T_GRID) <= 1e-12
    assert 0 < len(panels) <= 77


def test_exp_map_convolution_split_without_jumps():
    # no atom, so the image's mesh holds c and d alone
    assert exp_map_convolution_check(LevyTriple(0.3, 1.7, ()), T_GRID) <= 1e-12


def test_exp_map_convolution_empty_grid():
    with pytest.raises(InvalidInput):
        exp_map_convolution_check(MIXED, ())


# decreasing time changes ------------------------------------------------------------

def test_decreasing_kernel_against_reflection_oracle():
    """For a non-increasing step time change, the transform must equal
    sum over steps of (-jump) h V[reflected law](t/h)."""
    h = lambda s: 1.0 / s
    jumps = ((1.0, -0.6), (2.0, -0.4))
    fam = custom_step(h, jumps, increasing=False)
    # the triple of the law of -X
    refl = LevyTriple(-MIXED.drift, MIXED.gauss_var,
                      tuple((-x, w) for x, w in MIXED.levy_atoms))
    for t in T_GRID:
        direct = random_integral_transform(fam, MIXED, t)
        oracle = sum((-j) * h(s) * voiculescu_id(refl, t / h(s))
                     for s, j in jumps)
        assert abs(direct - oracle) < 1e-12, t


def test_increasing_step_kernel_average_identity():
    # V[image](it) = sum jump * h * V(it/h) for a non-decreasing step change
    h = lambda s: s
    jumps = ((0.25, 0.5), (0.75, 0.5))
    fam = custom_step(h, jumps)
    for t in T_GRID:
        direct = random_integral_transform(fam, MIXED, t)
        oracle = sum(j * h(s) * voiculescu_id(MIXED, t / h(s))
                     for s, j in jumps)
        assert abs(direct - oracle) < 1e-12


# scale-invariant class ----------------------------------------------------------------

def test_linf_integrand_limits_filled():
    assert linf_integrand(1.0, 3.7) == complex(-euler_gamma(), math.pi / 2.0)
    assert linf_integrand(-1.0, 0.2) == complex(euler_gamma(), math.pi / 2.0)


def _linf_integrand_per_t(x, t):
    """The integrand with its t-free factor formed at every t: the
    reference linf_evaluator must reproduce bit for bit."""
    sigma = 1.0 if x > 0.0 else -1.0
    eps = abs(x) - 1.0
    slope = log_gamma2_slope(eps)
    if eps == 0.0:
        return complex(sigma * slope, math.pi / 2.0)
    a = eps + eps * slope
    b = sigma * math.pi * eps / 2.0
    half = math.sin(b / 2.0)
    num = complex(math.expm1(a) * math.cos(b) - 2.0 * half * half - eps,
                  math.exp(a) * math.sin(b))
    return sigma * num / eps * t ** -eps


def test_linf_evaluator_equals_the_formula():
    spec = LInfSpec(0.25, FiniteMeasure(((-1.7, 0.2), (-0.5, 1.3), (0.05, 0.4),
                                         (1.0, 0.6), (1.0 + 1e-9, 0.1), (2.0, 0.3))))
    V = linf_evaluator(spec)
    for i in range(500):
        t = 10.0 ** (-8.0 + 20.0 * i / 499)
        acc = complex(spec.shift)
        for x, w in spec.measure.atoms:
            acc -= w * _linf_integrand_per_t(x, t)
        assert V(t) == acc == transform_linf(spec, t), t
        assert linf_integrand(-0.5, t) == _linf_integrand_per_t(-0.5, t)


def test_linf_rademacher():
    spec = LInfSpec(0.4, FiniteMeasure(((1.0, 0.5), (-1.0, 0.5))))
    for t in T_GRID:
        val = transform_linf(spec, t)
        assert abs(val - complex(0.4, -math.pi / 2.0)) < 1e-15


def test_linf_scale_closure():
    spec = LInfSpec(0.3, FiniteMeasure(((0.5, 1.0), (-1.2, 0.7), (2.0, 0.2))))
    for c in (0.5, 2.0, 7.0):
        rescaled = LInfSpec(
            c * spec.shift,
            FiniteMeasure(tuple((x, w * c ** abs(x))
                                for x, w in spec.measure.atoms)))
        for t in (0.7, 1.9):
            lhs = scale_transform(c, lambda u: transform_linf(spec, u), t)
            rhs = transform_linf(rescaled, t)
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))


def test_linf_spec_validation():
    with pytest.raises(InvalidInput):
        LInfSpec(0.0, FiniteMeasure(((2.5, 1.0),)))
    with pytest.raises(InvalidInput):
        LInfSpec(0.0, FiniteMeasure(((-2.0, 1.0),)))
    with pytest.raises(InvalidInput):
        LInfSpec(0.0, FiniteMeasure(((1.0, 0.0),)))
    LInfSpec(0.0, FiniteMeasure(((2.0, 1.0),)))  # right endpoint included


def test_linf_spec_record():
    spec = LInfSpec(0.0, FiniteMeasure(((1.0, 0.5),)))
    with pytest.raises(InvalidInput):
        spec._replace(measure=FiniteMeasure(((3.0, 1.0),)))
    with pytest.raises(InvalidInput):
        LInfSpec._make((0.0, FiniteMeasure(((3.0, 1.0),))))
    with pytest.raises(InvalidInput):
        spec._replace(shift=math.nan)
    with pytest.raises(AttributeError):
        spec.shift = 1.0
    assert LInfSpec(0.0, FiniteMeasure()) != PickRepresentation(0.0, FiniteMeasure())
    assert LInfSpec(0.0) == LInfSpec(0.0, FiniteMeasure())
    assert hash(LInfSpec(0.0)) == hash(LInfSpec(0.0, FiniteMeasure()))


def test_transform_evaluator_builds_by_keyword():
    f = lambda t: 2.0 * t
    ev = TransformEvaluator(fn=f, label="x")
    assert ev.fn is f and ev.label == "x" and ev(1.5) == 3.0
    assert TransformEvaluator(f) == TransformEvaluator(fn=f, label="")
    assert repr(TransformEvaluator(fn=f, label="x")) == f"TransformEvaluator(fn={f!r}, label='x')"


def test_linf_integrand_domain():
    with pytest.raises(DomainError):
        linf_integrand(0.0, 1.0)
    with pytest.raises(DomainError):
        linf_integrand(2.1, 1.0)
    with pytest.raises(DomainError):
        linf_integrand(1.0, 0.0)


# Cauchy anchor -----------------------------------------------------------------------

def test_cauchy_integral_value():
    for t in T_GRID:
        assert abs(cauchy_pick_integral(t) - complex(0.0, -math.pi)) < 1e-6


def test_cauchy_transform_is_shift_minus_half_pi():
    for t in (0.5, 1.0):
        val = voiculescu_cauchy(0.3, t)
        assert abs(val - complex(0.3, -math.pi / 2.0)) < 1e-6
