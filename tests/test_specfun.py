"""Gamma, Lerch transcendent, polylogarithm, and the collapsed 2F1."""

import cmath
import math
import random
import subprocess
import sys
import textwrap

import pytest
from childproc import child_env
from hypothesis import given, settings
from hypothesis import strategies as st

from freetransform import (
    ConvergenceError,
    DomainError,
    InvalidInput,
    euler_gamma,
    gamma_fn,
    integrate_finite,
    integrate_semi_infinite,
    kernel_g,
    lclass,
    lerch_phi,
    polylog,
    sself,
    ubeta,
)
from freetransform import specfun


# gamma -------------------------------------------------------------------

def test_gamma_integers_and_half_integers():
    for n in range(1, 13):
        assert math.isclose(gamma_fn(float(n)), math.factorial(n - 1),
                            rel_tol=1e-13)
    assert math.isclose(gamma_fn(0.5), math.sqrt(math.pi), rel_tol=1e-14)
    assert math.isclose(gamma_fn(1.5), math.sqrt(math.pi) / 2.0, rel_tol=1e-14)


def test_gamma_against_stdlib():
    rng = random.Random(7)
    for _ in range(50):
        x = rng.uniform(0.01, 30.0)
        assert math.isclose(gamma_fn(x), math.gamma(x), rel_tol=1e-12)


def test_gamma_reflection_region():
    # arguments below 1/2, where a Lanczos form needs the sine reflection
    for x in (0.01, 0.1, 0.3, 0.49):
        assert math.isclose(gamma_fn(x), math.gamma(x), rel_tol=1e-12)


def test_gamma_domain():
    for x in (0.0, -1.0, -2.5, math.inf, math.nan):
        with pytest.raises(DomainError):
            gamma_fn(x)


def test_euler_gamma_value():
    # gamma = -Gamma'(1) = -int_0^inf e^{-u} log u du
    res = integrate_semi_infinite(lambda u: -math.exp(-u) * math.log(u), 1e-11)
    assert abs(euler_gamma() - res.value) < 1e-9
    assert euler_gamma() == 0.5772156649015329


# lerch -------------------------------------------------------------------

def test_lerch_closed_forms():
    # Phi(z, 1, 1) = -log(1-z)/z
    assert abs(lerch_phi(0.5, 1, 1.0) - 2.0 * math.log(2.0)) < 1e-14
    # Phi(z, 1, 2) = sum z^n/(n+2) = (-log(1-z) - z)/z^2
    z = 0.3
    exact = (-math.log1p(-z) - z) / z ** 2
    assert abs(lerch_phi(z, 1, 2.0) - exact) < 1e-14
    # s = 2, v = 1 is the dilogarithm over z
    assert abs(lerch_phi(0.4, 2, 1.0) - polylog(2, 0.4) / 0.4) < 1e-14


def test_lerch_branch_agreement():
    rng = random.Random(42)
    for _ in range(25):
        r = rng.uniform(0.4, 0.6)
        theta = rng.uniform(0.05, 2.0 * math.pi - 0.05)
        z = cmath.rect(r, theta)
        for s in (1, 2, 3):
            for v in (1.0, 2.5):
                a = specfun._lerch_series(z, s, v)
                b = specfun._lerch_integral(z, s, v)
                assert abs(a - b) < 1e-10, (z, s, v)


@settings(max_examples=60, deadline=None)
@given(
    r=st.floats(min_value=0.0, max_value=0.85),
    theta=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    s=st.sampled_from((1, 2, 3)),
    v=st.floats(min_value=0.2, max_value=5.0),
)
def test_lerch_contiguous_recurrence(r, theta, s, v):
    """Phi(z, s, v) = v^-s + z Phi(z, s, v+1)."""
    z = cmath.rect(r, theta)
    lhs = lerch_phi(z, s, v)
    rhs = v ** (-s) + z * lerch_phi(z, s, v + 1.0)
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))


def test_lerch_quadrature_oracle():
    # Phi(z, 1, v) = int_0^1 u^{v-1}/(1 - z u) du, checked off-definition
    for z in (0.7, -1.3, 0.2 + 0.9j):
        for v in (1.0, 2.0):
            res = integrate_finite(lambda u: u ** (v - 1.0) / (1.0 - z * u),
                                   0.0, 1.0, 1e-12)
            assert abs(lerch_phi(z, 1, v) - res.value) < 1e-10


def test_lerch_integral_bit_identical():
    # the integral branch's gamma average, frozen: any rewrite of its
    # integrand or of the panels must reproduce it bit for bit
    assert specfun._lerch_integral(0.9j, 2, 2.5) == 0.1306766294883017 + 0.05642541160346972j


def test_lerch_domain():
    for z in (1.0, 1.5, 100.0):
        with pytest.raises(DomainError):
            lerch_phi(z, 1, 1.0)
    with pytest.raises(DomainError):
        lerch_phi(0.5, 0, 1.0)
    with pytest.raises(DomainError):
        lerch_phi(0.3, True, 1.0)
    with pytest.raises(DomainError):
        lerch_phi(0.5, 1, -1.0)
    # Phi is about v^-s, beyond the double range, on the integral branch
    # and on the series branch
    for z, s, v in ((0.7, 1000, 0.3), (0.1, 1000, 0.3), (0.1j, 2000, 0.5),
                    (-0.4j, 700, 0.35)):
        with pytest.raises(DomainError):
            lerch_phi(z, s, v)


def _lerch_series_direct(z, s, v):
    """The series summed with (v+n)^-s formed term by term: the
    reference the tabled powers must reproduce bit for bit."""
    acc = complex(0.0)
    term = complex(1.0)
    stop = specfun._SERIES_EPS * v ** -s
    for n in range(specfun._SERIES_MAX_TERMS + 1):
        contrib = term * (v + n) ** -s
        acc += contrib
        if abs(contrib) <= stop:
            return acc
        term *= z
    raise AssertionError("reference series did not stop")


def test_lerch_series_table_is_bit_identical():
    cells = [(cmath.rect(r, 2.0 * math.pi * j / 8), s, v)
             for s in (1, 2, 5, 16, 60, 1100)
             for v in (0.3, 1, 2, 17, 100_001)
             for r in (0.0, 1e-3, 0.1, 0.5)
             for j in range(8)]
    # |z| = 0.9 runs past the table (the _lerch_log route); 2^-1100 underflows
    cells += [(0.9j, 1, 100.0), (cmath.rect(0.9, 2.0), 1, 100.0), (0.3, 1100, 2.0)]
    compared = 0
    for z, s, v in cells:
        try:
            got = specfun._lerch_series(z, s, v)
        except DomainError:
            continue
        assert got == _lerch_series_direct(z, s, v), (z, s, v)
        compared += 1
    assert compared > 800
    assert specfun._lerch_series(0.3, 1100, 2.0) == 0.0
    # the imaginary axis, summed in float arithmetic: both signs of y and
    # of the zero real part, subnormal y, |y| = 1/2, and |y| in (1/2, 1)
    # past the table; repr tells signed zeros apart
    tiny = 5e-324
    ys = (tiny, 1e-310, 1e-160, 2.0 ** -537, 1e-3, 0.1, 0.3,
          math.nextafter(0.5, 0.0), 0.5, 0.55, 0.7, 0.9, 0.97)
    axis = [(complex(zr, sign * y), s, v)
            for zr in (0.0, -0.0) for sign in (1.0, -1.0) for y in ys
            for s in (1, 2, 5, 17, 1100) for v in (0.3, 1.0, 2.0, 17.0, 1e300)]
    compared = 0
    for z, s, v in axis:
        try:
            got = specfun._lerch_series(z, s, v)
        except DomainError:
            continue
        assert repr(got) == repr(_lerch_series_direct(z, s, v)), (z, s, v)
        compared += 1
    assert compared > 1200
    # a zero imaginary part stays +0.0 for y < 0, as in the complex loop
    assert repr(specfun._lerch_series(complex(0.0, -tiny), 17, 2.0)) == "(7.62939453125e-06+0j)"
    info = specfun._series_powers.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize
    for s in (1, 2, 5, 16, 60, 1100):
        for v in (0.3, 1, 2, 17, 100_001):
            try:
                assert len(specfun._series_powers(s, v)[1]) <= 13, (s, v)
            except DomainError:
                pass


def test_lerch_series_axis_stops_where_the_complex_loop_does(monkeypatch):
    # both loops read rows of four terms, n = 1, 2, ...: with a term limit
    # at or past the reference's last term they give the reference's value,
    # and below it the same ConvergenceError; the last z is off the axis
    for z, s, v in ((0.9j, 1, 100.0), (-0.7j, 1, 3.0), (complex(-0.0, 0.6), 2, 1.0),
                    (complex(0.1, 0.85), 1, 100.0)):
        expected = repr(_lerch_series_direct(z, s, v))
        last = 0  # the term that meets the stop, summed too
        term = complex(1.0)
        while abs(term * (v + last) ** -s) > specfun._SERIES_EPS * v ** -s:
            term *= z
            last += 1
        limit = (last - 1) // 4 * 4
        # both loops read the whole table whatever the limit
        assert limit >= 4 * len(specfun._series_powers(s, v)[1]), (z, s, v)
        monkeypatch.setattr(specfun, "_SERIES_MAX_TERMS", -(-last // 4) * 4)
        assert repr(specfun._lerch_series(z, s, v)) == expected
        monkeypatch.setattr(specfun, "_SERIES_MAX_TERMS", limit)
        with pytest.raises(ConvergenceError) as err:
            specfun._lerch_series(z, s, v)
        assert str(err.value) == (f"Lerch series did not converge within {limit} "
                                  f"terms at z={z!r}")
        monkeypatch.undo()
    assert specfun._SERIES_MAX_TERMS % 4 == 0


# polylog -----------------------------------------------------------------

def test_polylog_log_identity():
    for z in (0.3, -0.8, 0.5j, -1.7 + 0.4j, 2.0j):
        assert abs(polylog(1, z) - (-cmath.log(1.0 - z))) < 1e-12, z


def test_polylog_special_values():
    assert abs(polylog(2, 1.0) - math.pi ** 2 / 6.0) < 1e-12
    assert abs(polylog(2, -1.0) - (-math.pi ** 2 / 12.0)) < 1e-12
    # Landen: Li_2(1/2) = pi^2/12 - log(2)^2/2
    assert abs(polylog(2, 0.5) - (math.pi ** 2 / 12.0 - math.log(2.0) ** 2 / 2.0)) < 1e-14
    # Apery's constant
    assert abs(polylog(3, 1.0) - 1.2020569031595943) < 1e-12


def test_polylog_integral_oracle_off_disk():
    # Li_2(z) = -int_0^1 log(1 - z u)/u du, valid along the ray to z
    for z in (3.0j, -2.5, 1.5 + 1.5j):
        res = integrate_finite(lambda u: -cmath.log(1.0 - z * u) / u,
                               0.0, 1.0, 1e-12)
        assert abs(polylog(2, z) - res.value) < 1e-10, z


def test_polylog_derivative_recurrence():
    # z d/dz Li_s(z) = Li_{s-1}(z)
    h = 1e-6
    for z in (0.4, -0.9, 0.3 + 0.2j):
        dz = (polylog(3, z + h) - polylog(3, z - h)) / (2.0 * h)
        assert abs(z * dz - polylog(2, z)) < 1e-8


def test_modulus_past_the_double_range_is_a_domain_error():
    # finite parts near the largest double: abs(z) overflows, and once
    # escaped as a bare OverflowError
    big = 1.7e308
    for z in (complex(big, big), complex(-big, -big), complex(big, -big)):
        for s, v in ((2, 2.0), (3, 1.0), (1, 5.0), (2, 2.5), (40, 1.0)):
            with pytest.raises(DomainError, match="passes the largest double"):
                lerch_phi(z, s, v)
        for s in (1, 3, 40):
            with pytest.raises(DomainError, match="passes the largest double"):
                polylog(s, z)
        for fam in (sself(3), ubeta(2), lclass(1)):
            with pytest.raises(DomainError, match="passes the largest double"):
                kernel_g(fam, z)


def test_non_finite_argument_is_a_domain_error():
    # in a child process, so that a hang fails here instead of stalling:
    # with |log(-z)| = inf the inversion formula's tail once never ended
    code = textwrap.dedent("""
        import math, sys
        from freetransform import DomainError, lerch_phi, polylog
        inf, nan = math.inf, math.nan
        for z in (complex(0.0, -inf), complex(inf, inf), complex(-inf, 0.0),
                  complex(nan, 0.0), complex(0.0, nan), complex(nan, nan)):
            for s, v in ((2, 2.0), (3, 1.0), (1, 5.0), (2, 2.5)):
                try:
                    lerch_phi(z, s, v)
                    sys.exit(f"lerch_phi({z!r}, {s}, {v}) returned")
                except DomainError:
                    pass
            for s in (1, 2, 7):
                try:
                    polylog(s, z)
                    sys.exit(f"polylog({s}, {z!r}) returned")
                except DomainError:
                    pass
    """)
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60, env=child_env())
    assert res.returncode == 0, res.stderr


def test_order_past_the_string_limit_is_a_domain_error():
    # str() refuses an int of more than 4 300 digits, so the message names
    # the refused order by its bit length
    s = -10 ** 5000
    with pytest.raises(DomainError, match="a negative int of 16610 bits"):
        polylog(s, 1j)
    with pytest.raises(DomainError, match="a negative int of 16610 bits"):
        lerch_phi(1j, s, 1.0)


def test_polylog_domain():
    with pytest.raises(DomainError):
        polylog(1, 1.0)
    with pytest.raises(DomainError):
        polylog(2, 2.0)
    with pytest.raises(DomainError):
        polylog(0, 0.5)
    with pytest.raises(DomainError):
        polylog(True, 0.3)



def _log_series_direct(s, z, shift):
    """_log_series with zeta, the stop weight and H_{s-1} formed per term."""
    mu = cmath.log(z)
    acc = complex(0.0)
    power = complex(1.0)
    for m in range(s + 2 * specfun._BERNOULLI_HALF):
        if m == s - 1:
            harmonic = math.fsum(1.0 / j for j in range(1, s))
            acc += (harmonic - shift - cmath.log(-mu)) * power
        else:
            zeta, zeta_m1 = specfun._zeta_pair(s - m)
            if zeta:
                acc += (zeta_m1 if shift else zeta) * power
                if (abs(zeta) + shift) * abs(power) <= specfun._SUM_EPS * abs(acc):
                    return acc
            elif shift:
                acc -= power
        power *= mu / (m + 1)
    raise AssertionError("reference log-series did not stop")


def _inversion_direct(s, z, shift):
    """_inversion with every eta coefficient formed per term, in the same
    one forward pass from L^(s mod 2)/(s mod 2)! up."""
    big_l = cmath.log(-z)
    l_squared = big_l * big_l
    j = s % 2
    power = big_l if j else complex(1.0)
    acc = complex(0.0)
    for n in range(s // 2, 0, -1):
        zeta, zeta_m1 = specfun._zeta_pair(2 * n)
        half = 2.0 ** (1 - 2 * n)
        if shift:
            coef = 2.0 * (half * zeta - zeta_m1)
        else:
            coef = -2.0 * (1.0 - half) * zeta
        acc += coef * power
        power *= l_squared / ((j + 1) * (j + 2))
        j += 2
    assert j == s
    if shift:
        acc += power
        while True:
            power *= l_squared / ((j + 1) * (j + 2))
            j += 2
            acc += 2.0 * power
            if j > abs(big_l) and abs(power) <= specfun._SUM_EPS * abs(acc):
                break
    else:
        acc -= power
    w = 1.0 / z
    inner = (w * w if shift else w) * _lerch_series_direct(w, s, 1.0 + shift)
    return acc - inner if s % 2 == 0 else acc + inner


_OFF_DISK_ORDERS = (1, 2, 3, 5, 8, 12, 17, 60, 400, 1100)
# 8 angles off the axes, and the imaginary axis
_OFF_DISK_ANGLES = tuple(math.pi * (2 * j + 1) / 8 for j in range(8)) + (
    math.pi / 2, -math.pi / 2)
_NEAR = (0.5000001, 0.6, 0.9, 1.0, 1.3, 1.9999999)
# the shifted tail runs up to about 70 steps at |z| = 1e30, 250 at 1e150
# and 470 at 1.7e308
_FAR = (2.0, 3.0, 10.0, 1e3, 1e8, 1e30, 1e150, 1e300, 1.7e308)


def _off_disk_points(radii, angles=_OFF_DISK_ANGLES):
    """z at each radius and angle, and on the negative real axis with
    either sign of zero imaginary part."""
    return [z for r in radii
            for z in [cmath.rect(r, theta) for theta in angles]
            + [complex(-r, 0.0), complex(-r, -0.0)]]


def _compare_off_disk(orders, near=_off_disk_points(_NEAR), far=_off_disk_points(_FAR)):
    """_log_series at the points near, on 1/2 < |z| < 2, and _inversion
    at the points far, on |z| >= 2, against the per-term loops, bit for
    bit, signed zeros included; the number compared."""
    compared = 0
    for s in orders:
        for shift in (0, 1):
            for z in near:
                assert repr(specfun._log_series(s, z, shift)) == \
                    repr(_log_series_direct(s, z, shift)), (s, z, shift)
            for z in far:
                assert repr(specfun._inversion(s, z, shift)) == \
                    repr(_inversion_direct(s, z, shift)), (s, z, shift)
            compared += len(near) + len(far)
    return compared


def test_off_disk_tables_are_bit_identical():
    assert _compare_off_disk(_OFF_DISK_ORDERS) > 2500


def test_off_disk_terms_past_the_tables_are_bit_identical():
    # s // 2 = 539 eta coefficients run past both eta tables into their
    # constant tails, and at 4098 the log-series reads only zeta = 1.0
    # terms, past the zeta table
    s = 2 * 538 + 2
    assert s // 2 > max(map(len, specfun._eta_tables()))
    assert _compare_off_disk((s, 4098)) > 200


def test_off_disk_orders_at_the_table_ends_are_bit_identical():
    # s // 2 one below, at and one past the length of each eta table, 27
    # and 537, for both parities of s: the first order whose pass takes
    # a step with the constant coefficient, and the last that takes none
    edges = [2 * n + parity for n in map(len, specfun._eta_tables())
             for n in (n - 1, n, n + 1) for parity in (0, 1)]
    assert edges[:6] == [52, 53, 54, 55, 56, 57]
    assert _compare_off_disk(edges) > 1000


def test_off_disk_at_order_a_million_is_bit_identical():
    # about s/2 steps of the constant coefficient, nearly all of them
    # after L^j/j! has reached 0j at |z| = 3: the pass stops there
    near = _off_disk_points((0.6, 1.3), (math.pi / 2, 2.0))
    far = _off_disk_points((3.0,), (1.0,))
    assert _compare_off_disk((10 ** 6,), near, far) == 2 * (len(near) + len(far))


def test_inversion_work_is_bounded_at_every_order():
    # from L^j/j! = 0j on every term is an exact zero, so the pass stops
    # there: at s = 10^9 it steps a few hundred times, not s/2 times.
    # Counted as the lines _inversion runs, with the count cut off long
    # before s/2 steps
    code = specfun._inversion.__code__
    limit = 50_000
    lines = []

    def trace(frame, event, arg):
        if frame.f_code is not code:
            return None

        def count(frame, event, arg):
            if event == "line":
                lines.append(frame.f_lineno)
                if len(lines) > limit:
                    raise AssertionError(f"_inversion ran past {limit} lines")
            return count

        return count

    z = complex(3.0, 0.1)
    sys.settrace(trace)
    try:
        li = polylog(10 ** 9, z)
        phi = lerch_phi(z, 10 ** 9, 2.0)
    finally:
        sys.settrace(None)
    assert 0 < len(lines) < limit
    # Li_s(z) = z + z^2 2^-s + ..., and Phi(z, s, 2) = 2^-s + ...
    assert abs(li - z) <= 1e-15 * abs(z)
    assert abs(phi) <= 1e-15


# fixed before measuring: about twice the larger of the inversion's mpmath
# bounds (tests/test_specfun_reference.py), as each pass is held to its
# own; worst measured 8.6e-15 (shift 0) and 1.9e-14 (shift 1) on a
# denser grid of orders and 201 moduli
AXIS_AGREEMENT = 6e-14
_AXIS_CHECK_ORDERS = (2, 3, 4, 5, 8, 11, 12, 16, 17, 21, 22, 30, 31, 60, 100, 159, 160)


def test_axis_inversion_agrees_with_the_complex_pass():
    # every order the axis plan serves, z = iy from |y| = 2 to the top of
    # the double range, both signs of y and of the zero real part
    ys = [2.0 * (1.7e308 / 2.0) ** (j / 60) for j in range(61)]
    worst = 0.0
    for s in _AXIS_CHECK_ORDERS:
        for y in ys:
            for z in (complex(0.0, y), complex(-0.0, y), complex(0.0, -y), complex(-0.0, -y)):
                for shift in (0, 1):
                    ref = specfun._inversion(s, z, shift)
                    err = abs(specfun._axis_inversion(s, z, shift) - ref) / abs(ref)
                    worst = max(worst, err)
    assert worst <= AXIS_AGREEMENT, worst


def test_axis_inversion_is_conjugate_symmetric():
    # Li_s(-iy) - shift (-iy) is the conjugate of Li_s(iy) - shift iy, and
    # the value does not see the sign of the zero real part
    for s in (2, 3, 16, 160):
        for y in (2.0, 37.0, 1e30, 1.7e308):
            for shift in (0, 1):
                up = specfun._axis_inversion(s, complex(0.0, y), shift)
                assert specfun._axis_inversion(s, complex(-0.0, y), shift) == up
                assert specfun._axis_inversion(s, complex(0.0, -y), shift) == up.conjugate()


def test_axis_log_series_agrees_with_the_complex_pass():
    # every order the axis plan serves, z = iy on 1/2 < |y| < 2 up to the
    # doubles next to both band edges, both signs of y and of the zero
    # real part; held to the axis inversion's bound, fixed before
    # measuring.  Worst measured: 2.2e-14 (shift 1, s = 6, |y| = 0.54)
    ys = [0.5 * 4.0 ** (j / 40) for j in range(1, 40)]
    ys += [math.nextafter(0.5, 1.0), 0.5000001, 1.9999999, math.nextafter(2.0, 0.0)]
    worst = 0.0
    for s in range(2, specfun._AXIS_ORDERS + 1):
        for y in ys:
            for z in (complex(0.0, y), complex(-0.0, y), complex(0.0, -y), complex(-0.0, -y)):
                for shift in (0, 1):
                    ref = specfun._log_series(s, z, shift)
                    err = abs(specfun._axis_log_series(s, z, shift) - ref) / abs(ref)
                    worst = max(worst, err)
    assert worst <= AXIS_AGREEMENT, worst


def test_axis_log_series_is_conjugate_symmetric():
    # as the axis inversion: Li_s(-iy) - shift (-iy) is the conjugate of
    # Li_s(iy) - shift iy, and the value does not see the sign of the zero
    # real part
    for s in (2, 3, 16, 160):
        for y in (0.5000001, 0.7, 1.0, 1.9999999):
            for shift in (0, 1):
                up = specfun._axis_log_series(s, complex(0.0, y), shift)
                assert specfun._axis_log_series(s, complex(-0.0, y), shift) == up
                assert specfun._axis_log_series(s, complex(0.0, -y), shift) == up.conjugate()


def test_off_disk_tables_are_bounded():
    # the order-keyed caches, the (s, v) power tables, routes and direct
    # sum radii, and the (s, shift) plans of the log-series and of the two
    # axis paths, are bounded; every other cache is a table built once
    cached = {name: fn for name, fn in vars(specfun).items()
              if hasattr(fn, "cache_info")}
    keyed = {name for name, fn in cached.items()
             if fn.cache_info().maxsize is not None}
    assert keyed == {"_series_powers", "_route", "_direct_radius",
                     "_log_series_plan", "_axis_plan", "_axis_log_plan"}
    polylog(30, 1.5j)
    polylog(30, 3.0j)
    lerch_phi(-1.5j, 30, 2.0)
    specfun._li(30, 1.5j, 1.5)
    before = {name: fn.cache_info().currsize for name, fn in cached.items()}
    axis_misses = [fn.cache_info().misses
                   for fn in (specfun._axis_plan, specfun._axis_log_plan)]
    for s in (2 * 10 ** 4, 10 ** 5):
        polylog(s, 1.5j)
        lerch_phi(-1.5j, s, 2.0)
        polylog(s, 3.0j)
        lerch_phi(-3.0j, s, 2.0)
        for z in (1.5j, 3.0j):
            for shift in (0, 1):
                specfun._li(s, z, abs(z), shift)
    # orders past _AXIS_ORDERS take the complex passes on the axis too
    assert [fn.cache_info().misses for fn in (specfun._axis_plan, specfun._axis_log_plan)
            ] == axis_misses
    for name, fn in cached.items():
        info = fn.cache_info()
        if name in keyed:
            assert info.currsize <= info.maxsize, name
        else:
            assert info.currsize == before[name] <= 1, name
    # fixed lengths, whatever the orders taken
    assert len(specfun._zeta_table()) == specfun._ZETA_TOP - specfun._ZETA_LOW == 1203
    assert tuple(map(len, specfun._eta_tables())) == (27, 537)
    # the powers come in rows of four: at most 13 rows
    assert len(specfun._series_powers(602, 1.0)[1]) <= 13
    # a plan holds one coefficient and one stop weight per log-series
    # term, at most _LOG_SERIES_TERMS of each, at any order
    for s in (2, 30, 1100, 2 * 10 ** 4, 10 ** 5, 10 ** 9):
        for shift in (0, 1):
            coefs, bounds = specfun._log_series_plan(s, shift)
            assert len(coefs) == len(bounds) <= specfun._LOG_SERIES_TERMS
    # an axis inversion plan holds one coefficient per power l^k, k <= s,
    # and an axis log-series plan a real and an imaginary part per power
    # up to the degree its convergence radius fixes, whatever the order
    assert specfun._AXIS_LOG_DEGREE == 20
    for s in (2, 3, 30, specfun._AXIS_ORDERS):
        for shift in (0, 1):
            re_coefs, im_coefs, _, _ = specfun._axis_plan(s, shift)
            assert len(re_coefs) + len(im_coefs) == s + 1
            re_coefs, im_coefs, _ = specfun._axis_log_plan(s, shift)
            assert len(re_coefs) == len(im_coefs) == specfun._AXIS_LOG_DEGREE + 1


def test_linf_eval_leaves_the_zeta_table_unbuilt(tmp_path):
    # log Gamma(2 + eps) needs 64 values of zeta(k) - 1, not the whole
    # 1203-pair table with its Bernoulli numbers; a fresh process's eval
    # of the scale-invariant class builds only what it reads
    path = tmp_path / "linf.json"
    path.write_text('{"c": 0.3, "atoms": [{"x": 0.5, "w": 1.0}, {"x": -1.5, "w": 0.2}]}')
    code = textwrap.dedent(f"""
        import contextlib, io, sys
        from freetransform import cli, specfun
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["eval", "--class", "linf", "--input", {str(path)!r}])
        sys.exit(code or specfun._zeta_table.cache_info().currsize
                 or specfun._log_gamma2_coefficients.cache_info().currsize != 1)
    """)
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60, env=child_env())
    assert res.returncode == 0, (res.returncode, res.stderr)


def test_log_gamma2_coefficients_are_the_zeta_table_values():
    assert specfun._log_gamma2_coefficients() == tuple(
        specfun._zeta_pair(k)[1] / k for k in range(2, 2 + specfun._LOG_GAMMA2_TERMS))


def test_table_tails_are_constant():
    # past each fixed table the direct formulas give the table's tail
    # constant, checked for every n up to 5000
    assert specfun._zeta_minus_one(specfun._ZETA_TOP - 1) > 0.0
    for n in range(specfun._ZETA_TOP, 5001):
        zeta_m1 = specfun._zeta_minus_one(n)
        assert (1.0 + zeta_m1, zeta_m1) == (1.0, 0.0) == specfun._zeta_pair(n), n
    for shift, coefs in enumerate(specfun._eta_tables()):
        tail = specfun._ETA_TAIL[shift]
        assert coefs[-1] != tail, shift
        for n in range(len(coefs) + 1, 5001):
            zeta_m1 = specfun._zeta_minus_one(2 * n)
            zeta, half = 1.0 + zeta_m1, 2.0 ** (1 - 2 * n)
            if shift:
                coef = 2.0 * (half * zeta - zeta_m1)
            else:
                coef = -2.0 * (1.0 - half) * zeta
            assert repr(coef) == repr(tail), (shift, n)


# collapsed hypergeometric --------------------------------------------------

def _hyp2f1_special(k, z):
    # 2F1(1, k+1; k+2; -z) = (k+1) Phi(-z, 1, k+1) = (k+1)/k g_ubeta(k)(z)
    return kernel_g(ubeta(k), z) * (k + 1) / k


def test_hyp2f1_quadrature_oracle():
    # 2F1(1, k+1; k+2; -z) = (k+1) int_0^1 s^k/(1+z s) ds
    for k in (1, 2, 4):
        for z in (0.4, -0.6, 2.0, 1.0j):
            res = integrate_finite(lambda s: (k + 1) * s ** k / (1.0 + z * s),
                                   0.0, 1.0, 1e-12)
            assert abs(_hyp2f1_special(k, z) - res.value) < 1e-10, (k, z)


def test_hyp2f1_branch_consistency():
    # lerch_phi leaves its series at |z| = 1/2
    for k in (1, 3):
        for z in (0.49, 0.51, 0.49j, 0.51j, -0.49, -0.51):
            a = _hyp2f1_special(k, complex(z))
            res = integrate_finite(lambda s: (k + 1) * s ** k / (1.0 + z * s),
                                   0.0, 1.0, 1e-12)
            assert abs(a - res.value) < 1e-10


def test_hyp2f1_frozen_value():
    assert abs(_hyp2f1_special(2, 0.4) - 0.7721360916193565) < 1e-13


def test_hyp2f1_domain():
    with pytest.raises(DomainError):
        _hyp2f1_special(1, -1.0)
    with pytest.raises(DomainError):
        _hyp2f1_special(1, -3.5)
    # k = 0 is not an order of the ubeta family
    with pytest.raises(InvalidInput):
        _hyp2f1_special(0, 0.5)
