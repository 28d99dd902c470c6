"""Polylogarithm, Lerch transcendent, zeta table, gamma and the class
transforms built on them, against mpmath.

mpmath serves only as a high-precision reference here; the tests are
skipped where it is not installed.  Lerch references are built from
mpmath's polylog and log at raised precision, which is independent of
the package's own series.
"""

import cmath
import math
import sys

import pytest

from freetransform import (LevyTriple, gamma_fn, kernel_g, lerch_phi,
                           linf_integrand, polylog, sself, transform_lclass,
                           transform_sself, transform_ubeta)
from freetransform import cli, specfun
from freetransform.specfun import _zeta_pair

mpmath = pytest.importorskip("mpmath")

# |z| from 1e-3 to 1e10, with both sides of each switch radius
RADII = (1e-3, 0.1, 0.5, 0.5000001, 0.7, 0.99, 1.0, 1.3, 1.9999999, 2.0,
         3.0, 30.0, 1e3, 1e6, 1e10)
# the full argument circle, plus both rims of the cut and the negative axis
ANGLES = tuple(2.0 * math.pi * j / 12 for j in range(12)) + (1e-7, -1e-7, math.pi)


def _grid(radii):
    for r in radii:
        for theta in ANGLES:
            z = cmath.rect(r, theta)
            if z.imag == 0.0 and z.real >= 1.0:
                continue  # the cut itself is a DomainError
            yield z
        # the exact imaginary axis, where every eval argument -ix/t lies:
        # cmath.rect(r, pi/2) has real part 6e-17, off the float axis loop
        for re in (0.0, -0.0):
            for im in (r, -r):
                yield complex(re, im)


def _mpc(z):
    return mpmath.mpc(z.real, z.imag)


def _rel(value, ref):
    ref = complex(ref)
    return abs(value - ref) / abs(ref)


def test_zeta_table_against_mpmath():
    with mpmath.workdps(60):
        for n in list(range(-127, 1)) + list(range(2, 130)) + [200, 1000]:
            zeta, zeta_m1 = _zeta_pair(n)
            ref = mpmath.zeta(n)
            if ref == 0:
                assert zeta == 0.0 and zeta_m1 == -1.0, n
                continue
            assert _rel(zeta, ref) < 1e-15, n
            if n >= 2:
                # Hurwitz zeta(n, 2) = zeta(n) - 1 without the cancellation
                # that 60 digits cannot absorb from n ~ 200 on
                assert _rel(zeta_m1, mpmath.zeta(n, 2)) < 1e-15, n


def test_zeta_table_even_closed_form():
    # zeta(2n) = (-1)^(n+1) B_2n (2 pi)^(2n) / (2 (2n)!)
    for n, ref in ((2, math.pi ** 2 / 6), (4, math.pi ** 4 / 90),
                   (6, math.pi ** 6 / 945), (8, math.pi ** 8 / 9450)):
        assert math.isclose(_zeta_pair(n)[0], ref, rel_tol=1e-15)


@pytest.mark.parametrize("s", [1, 2, 3, 4, 5, 7, 9, 12, 16, 20, 25, 30])
def test_polylog_against_mpmath(s):
    worst = 0.0
    for z in _grid(RADII):
        worst = max(worst, _rel(polylog(s, z), mpmath.polylog(s, _mpc(z))))
    assert worst < 1e-13, worst


def _phi_v2(z, s):
    # Li_s(z) - z cancels about 2^s/|z|, under 7 digits for s <= 12 and
    # |z| >= 1e-3; 30 digits leave more than 20
    with mpmath.workdps(30):
        w = _mpc(z)
        return (mpmath.polylog(s, w) - w) / w ** 2


def _phi_s1(z, k):
    # -z^-k log(1-z) - sum_{j<k} z^-j/(k-j), with the digits the
    # cancellation inside the unit disk eats added back
    with mpmath.workdps(25 + int(k * max(0.0, -math.log10(abs(z))))):
        w = _mpc(z)
        acc = -mpmath.log(1 - w) / w ** k
        for j in range(1, k):
            acc -= w ** (-j) / (k - j)
        return acc


LERCH_RADII = tuple(r for r in RADII if r <= 1e4)


# the worst cases of the two tests below: 1.73e-13 at s = 5, and 4.50e-13
# at k = 8, where _lerch_log's closed form cancels inside the unit disk
LERCH_BOUND = 1e-12


@pytest.mark.parametrize("s", [1, 2, 3, 5, 8, 11, 12])
def test_lerch_v2_against_mpmath(s):
    worst = 0.0
    for z in _grid(LERCH_RADII):
        worst = max(worst, _rel(lerch_phi(z, s, 2.0), _phi_v2(z, s)))
    assert worst < LERCH_BOUND, worst


@pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 11, 12])
def test_lerch_s1_against_mpmath(k):
    worst = 0.0
    for z in _grid(LERCH_RADII):
        worst = max(worst, _rel(lerch_phi(z, 1, float(k)), _phi_s1(z, k)))
    assert worst < LERCH_BOUND, worst


def _phi_series(w, s, v):
    """Phi(w, s, v) for |w| < 1 by its defining series, at the working
    precision."""
    acc, term, n = mpmath.mpf(0), mpmath.mpf(1), 0
    while True:
        contrib = term / mpmath.mpf(v + n) ** s
        acc += contrib
        if abs(contrib) < mpmath.eps * abs(acc):
            return acc
        term *= w
        n += 1


@pytest.mark.parametrize("v", [0.3, 0.9, 1.5, 2.5])
def test_lerch_integral_is_relative(v):
    # Phi is about v^-s: far below or above an absolute 1e-11 at high s
    worst = 0.0
    for s in (1, 8, 30, 80):
        for z in (0.7, -0.9, 0.6 + 0.6j):
            with mpmath.workdps(40):
                ref = _phi_series(_mpc(complex(z)), s, mpmath.mpf(v))
            worst = max(worst, _rel(lerch_phi(z, s, v), ref))
    assert worst < 1e-12, worst


@pytest.mark.parametrize("v", [1e5 + 1, 2e5 + 1, 1e6 + 1])
def test_lerch_integral_large_v(v):
    # past the closed forms' largest v; in t the weight v e^(-v t) sat
    # within 1/v of 0, between the first panel's nodes, and Phi came out 0
    worst = 0.0
    for z in (0.7, -0.9, 0.6 + 0.6j, -1.7j, 3j, -20.0):
        with mpmath.workdps(25):
            ref = mpmath.lerchphi(_mpc(complex(z)), 1, mpmath.mpf(v))
        worst = max(worst, _rel(lerch_phi(z, 1, v), ref))
    assert worst < 1e-13, worst


def test_gamma_against_mpmath():
    # from 1e-3 up to the top of the double range, log-spaced
    worst = 0.0
    with mpmath.workdps(40):
        for j in range(401):
            x = 1e-3 * (171.6 / 1e-3) ** (j / 400)
            worst = max(worst, _rel(gamma_fn(x), mpmath.gamma(mpmath.mpf(x))))
    assert worst < 2e-15, worst


# defects of the quadrature route, kept as regressions ------------------------

def test_polylog_order_8_off_disk():
    # the integral branch exhausted its panel budget here
    assert _rel(polylog(8, 2j), mpmath.polylog(8, 2j)) < 1e-13


def test_sself_kernel_next_to_its_cut():
    # g(z) = Phi(-z, 2, 2) just above the singular ray (-inf, -1]
    z = complex(-2.0, 1e-8)
    assert _rel(kernel_g(sself(2), z), _phi_v2(-z, 2)) < 1e-12


@pytest.mark.parametrize("s", [2, 3, 5, 8, 12])
def test_lerch_v2_far_out(s):
    # the integral branch lost six digits at |z| = 1e8
    assert _rel(lerch_phi(1e8j, s, 2.0), _phi_v2(1e8j, s)) < 1e-12


@pytest.mark.parametrize("s", [2, 3, 5, 8, 16])
def test_lerch_v2_on_the_axis_from_4_to_the_s(s):
    # from |z| = 4^s on Phi(z, s, 2) is (Li_s(z) - z)/z/z with Li_s(z)
    # from the unshifted inversion; the shifted one, which rebuilds -z
    # from log(-z), lost about |log z| eps, 1.1e-13 at |z| = 1e308.
    # Worst measured: 2.2e-16; the bound leaves a margin of 2.3
    worst = 0.0
    grid = [m * 10.0 ** e for e in range(1, 309, 2) for m in (1.0, 3.3)] + [1.7e308]
    for y in grid:
        if y >= 4.0 ** s:
            for z in (complex(0.0, y), complex(0.0, -y)):
                worst = max(worst, _rel(lerch_phi(z, s, 2.0), _phi_v2(z, s)))
    assert worst < 5e-16, worst


@pytest.mark.parametrize("s", [1, 2, 3, 5, 8, 16])
def test_lerch_v2_beyond_the_square_root_of_the_double_range(s):
    # z * z overflows from |z| of about 1.34e154 on, and Phi came out 0 or
    # NaN.  Worst measured: 2.2e-16 (8.1e-14, at s = 3, z = 1e244j, while
    # the shifted inversion served these |z|).  The bound leaves a margin
    # of 2.3.
    worst = 0.0
    for e in range(150, 308, 2):
        for y in (10.0 ** e, 3.3 * 10.0 ** e, -(10.0 ** e), -3.3 * 10.0 ** e):
            z = complex(0.0, y)
            worst = max(worst, _rel(lerch_phi(z, s, 2.0), _phi_v2(z, s)))
    # either side of the first |z| whose square overflows, and the largest
    root = math.sqrt(sys.float_info.max)
    for z in (root * 1j, math.nextafter(root, math.inf) * 1j, sys.float_info.max * 1j):
        worst = max(worst, _rel(lerch_phi(z, s, 2.0), _phi_v2(z, s)))
    assert worst < 5e-16, worst


# the inversion formula on its own, both shifts -----------------------------

INVERSION_ORDERS = (2, 3, 4, 5, 8, 11, 16, 17, 30, 60, 100, 200, 400)
INVERSION_RADII = (2.0, 3.0, 10.0, 1e2, 1e3, 1e5, 1e10, 1e20, 1e50, 1e100,
                   1e200, 1e300)
# per shift, the worst that summing a per-call list of the powers of L from
# the top down reached on this grid: 1.992e-14 at s = 400, |z| = 1e200,
# and 2.875e-14 at s = 3, |z| = 1e300.  Both are the conditioning of Li_s
# in L = log(-z), about s eps (or |L| eps in the shifted tail), which the
# rounding of L carries.
INVERSION_BOUND = (1.992e-14, 2.876e-14)


@pytest.mark.parametrize("s", INVERSION_ORDERS)
def test_inversion_against_mpmath(s):
    worst = [0.0, 0.0]
    for r in INVERSION_RADII:
        zs = [cmath.rect(r, math.pi * (2 * j + 1) / 8) for j in range(8)]
        zs += [complex(re, im) for re in (0.0, -0.0) for im in (r, -r)]
        for z in zs:
            w = _mpc(z)
            # Li_s(z) - z cancels up to 2^s/|z|
            with mpmath.workdps(30 + int(0.31 * s)):
                li = mpmath.polylog(s, w)
                refs = (li, li - w)
            for shift in (0, 1):
                worst[shift] = max(worst[shift],
                                   _rel(specfun._inversion(s, z, shift), refs[shift]))
    assert worst[0] <= INVERSION_BOUND[0] and worst[1] <= INVERSION_BOUND[1], worst


@pytest.mark.parametrize("s", [s for s in INVERSION_ORDERS if s <= specfun._AXIS_ORDERS]
                         + [specfun._AXIS_ORDERS])
def test_axis_inversion_against_mpmath(s):
    # the float path on the axis points of the grid above, held to the
    # complex pass's bounds; worst measured 4.8e-15 and 1.5e-14
    worst = [0.0, 0.0]
    for r in INVERSION_RADII:
        for y in (r, -r):
            with mpmath.workdps(30 + int(0.31 * s)):
                li = mpmath.polylog(s, mpmath.mpc(0.0, y))
                refs = (li, li - mpmath.mpc(0.0, y))
            for z in (complex(0.0, y), complex(-0.0, y)):
                for shift in (0, 1):
                    worst[shift] = max(worst[shift],
                                       _rel(specfun._axis_inversion(s, z, shift), refs[shift]))
    assert worst[0] <= INVERSION_BOUND[0] and worst[1] <= INVERSION_BOUND[1], worst


# the log-series band on the axis, 1/2 < |y| < 2 ------------------------------

AXIS_LOG_ORDERS = tuple(range(2, 22)) + (30, 31, 45, 60, 100, 159, 160)
# both band edges, the doubles next to them, and points between
AXIS_LOG_YS = (math.nextafter(0.5, 1.0), 0.5000001, 0.51, 0.55, 0.7, 0.9, 1.0,
               1.1, 1.3, 1.6, 1.9, 1.99, 1.9999999, math.nextafter(2.0, 0.0))
# fixed before measuring, for the float path and for Phi(iy, s, 2) through
# it alike.  Worst measured: 1.2e-15 (shift 0) and 2.1e-14 (shift 1, and
# Phi), against 1.1e-15 and 1.4e-14 for the complex pass on these cells
AXIS_LOG_BOUND = 5e-14


def _li_refs(s, y):
    """(Li_s(iy), Li_s(iy) - iy, Phi(iy, s, 2)) from mpmath: Li_s(iy) - iy
    cancels about 2^-s, so s log10(2) + 30 digits."""
    with mpmath.workdps(30 + int(s * math.log10(2.0)) + 1):
        w = mpmath.mpc(0.0, y)
        li = mpmath.polylog(s, w)
        return complex(li), complex(li - w), complex((li - w) / w ** 2)


@pytest.mark.parametrize("s", AXIS_LOG_ORDERS)
def test_axis_log_series_against_mpmath(s):
    worst = [0.0, 0.0, 0.0]
    for y in AXIS_LOG_YS:
        for sign in (1.0, -1.0):
            refs = _li_refs(s, sign * y)
            for z in (complex(0.0, sign * y), complex(-0.0, sign * y)):
                for shift in (0, 1):
                    worst[shift] = max(worst[shift],
                                       _rel(specfun._axis_log_series(s, z, shift), refs[shift]))
                worst[2] = max(worst[2], _rel(lerch_phi(z, s, 2.0), refs[2]))
    assert max(worst) <= AXIS_LOG_BOUND, worst


# the defining sum at large orders, Re z <= 0 ---------------------------------

def _phi_direct(z, s, v):
    """sum_{n<N} z^n (v+n)^-s at 40 digits, N the first n whose tail bound
    |z|^n (v+n)^-s, valid for Re z <= 0, is below 1e-35 of the first term;
    None where the bounds grow again before that."""
    with mpmath.workdps(40):
        w, first = _mpc(z), mpmath.mpf(v) ** -s
        acc, last = mpmath.mpf(0), None
        for n in range(10 ** 4):
            bound = abs(w) ** n * mpmath.mpf(v + n) ** -s
            if bound < mpmath.mpf(10) ** -35 * first:
                return acc
            if last is not None and bound > last:
                return None
            acc += w ** n * mpmath.mpf(v + n) ** -s
            last = bound
    return None


# fixed before measuring: the sum is v^-s (1 + small), a few roundings
DIRECT_BOUND = 1e-15


@pytest.mark.parametrize("s", [40, 100, 1000])
@pytest.mark.parametrize("v", [1.0, 2.0])
def test_direct_sum_against_mpmath(s, v):
    # 24 radii log-spaced from 0.6 to the branch's radius or 1e300
    top = min(specfun._direct_radius(s, v), 1e300)
    radii = [0.6 * (top / 0.6) ** (i / 23) for i in range(24)]
    angles = (math.pi / 2, 5 * math.pi / 8, 3 * math.pi / 4, 7 * math.pi / 8, math.pi)
    checked, worst = 0, 0.0
    for r in radii:
        for theta in angles:
            for z in (cmath.rect(r, theta), cmath.rect(r, -theta)):
                z = complex(0.0, z.imag) if theta == math.pi / 2 else z
                ref = _phi_direct(z, s, v)
                if ref is None:
                    continue
                worst = max(worst, _rel(lerch_phi(z, s, v), ref))
                checked += 1
    assert checked >= 50
    assert worst <= DIRECT_BOUND, worst


# the |z| <= 1/2 series at high order ----------------------------------------

@pytest.mark.parametrize("s", [25, 50])
@pytest.mark.parametrize("z", [0.5, -0.5, 0.5j, 0.09j])
def test_lerch_series_high_order_is_relative(s, z):
    # Phi(z, s, 2) ~ 2^-s: an absolute stop ended the sum after two terms
    with mpmath.workdps(40):
        ref = mpmath.lerchphi(_mpc(complex(z)), s, 2)
    assert _rel(lerch_phi(z, s, 2.0), ref) < 1e-14


# class transforms against the class formula ---------------------------------

# drift, Gaussian variance and jumps on both sides of |x| = 1
LAW = LevyTriple(0.2, 0.7, ((0.05, 0.3), (-0.4, 1.2), (2.0, 0.5)))
T_GRID = tuple(10.0 ** (e / 2.0) for e in range(-16, 25))


def _phi_ref(w, s, v):
    """Phi(w, s, v) to about 40 digits: the defining series for |w| <= 1/2,
    beyond it the log and polylog identities with the digits their
    cancellation eats added back."""
    if abs(w) <= 0.5:
        with mpmath.workdps(45):
            return _phi_series(w, s, v)
    lost = int(v * max(0.0, -math.log10(abs(w)))) if s == 1 else int(0.31 * s)
    with mpmath.workdps(45 + lost):
        if s == 1:
            acc = -mpmath.log(1 - w) / w ** v
            return acc - mpmath.fsum(w ** -j / (v - j) for j in range(1, v))
        if v == 2:
            return (mpmath.polylog(s, w) - w) / w ** 2
        return mpmath.polylog(s, w) / w


# named transform: k -> (c, d, scale, s, v) with g(z) = scale * Phi(-z, s, v)
CLASS_DATA = {
    "sself": (transform_sself,
              lambda k: (mpmath.mpf(2) ** -k, mpmath.mpf(3) ** -k, 1, k, 2)),
    "ubeta": (transform_ubeta,
              lambda k: (mpmath.mpf(k) / (k + 1), mpmath.mpf(k) / (k + 2), k, 1, k + 1)),
    "lclass": (transform_lclass,
               lambda k: (mpmath.mpf(1), mpmath.mpf(2) ** -(k + 1), 1, k + 1, 1)),
}


def _class_ref(name, k, t, phi=_phi_ref):
    with mpmath.workdps(45):
        c, d, scale, s, v = CLASS_DATA[name][1](k)
        t = mpmath.mpf(t)
        acc = LAW.drift * c + LAW.gauss_var * d / mpmath.mpc(0, t)
        for x, w in LAW.levy_atoms:
            x = mpmath.mpf(x)
            g = scale * phi(mpmath.mpc(0, -x / t), s, v)
            acc += w * x * (g - c / (1 + x * x))
        return acc


@pytest.mark.parametrize("name,k", [
    ("ubeta", 1), ("ubeta", 30), ("ubeta", 1000),
    ("sself", 1), ("sself", 2), ("sself", 5),
    ("lclass", 0), ("lclass", 1), ("lclass", 4)])
def test_class_transform_against_mpmath(name, k):
    # t from 1e-8 to 1e12; k Phi(w, 1, k) - 1 for ubeta cancelled at large t
    transform = CLASS_DATA[name][0]
    worst = max(_rel(transform(k, LAW, t), _class_ref(name, k, t))
                for t in T_GRID)
    assert worst < 1e-12, worst


def test_ubeta_order_past_the_closed_forms():
    # k + 1 > 100 000 takes the Lerch integral for |x|/t > 1/2; the log
    # form behind _phi_ref would need a million terms, mpmath's lerchphi not
    k = 10 ** 6
    for t in (0.01, 0.8685):
        ref = _class_ref("ubeta", k, t, phi=mpmath.lerchphi)
        assert _rel(transform_ubeta(k, LAW, t), ref) < 1e-12, t


# the scale-invariant integrand -----------------------------------------------

LINF_NEAR_ONE = tuple(sign * (1.0 + side * 10.0 ** -j)
                      for j in range(1, 13) for sign in (1.0, -1.0)
                      for side in (1.0, -1.0))
LINF_GRID = tuple(-2.0 + 4.0 * (i + 0.5) / 100 for i in range(100)) + (2.0,)


def test_linf_integrand_against_mpmath():
    # a first-order patch within 1e-4 of |x| = 1 was off by 2.6e-9 there
    worst = 0.0
    with mpmath.workdps(50):
        for x in LINF_NEAR_ONE + LINF_GRID:
            ax = mpmath.mpf(abs(x))
            num = mpmath.gamma(ax + 1) * 1j * mpmath.expjpi(mpmath.mpf(x) / 2) + x
            for t in (0.2, 1.0, 3.7):
                ref = num * mpmath.mpf(t) ** (1 - ax) / (1 - ax)
                worst = max(worst, _rel(linf_integrand(x, t), ref))
    assert worst < 1e-14, worst


# the division band: |z| from 1e307 to the largest double, off the axes ------

BAND_RADII = (1e307, 5e307, 1e308, 1.5e308, 1.7e308, 1.79e308)
# the rays arg z = k pi/8, but the cut arg z = 0
BAND_RAYS = tuple(cmath.rect(r, k * math.pi / 8) for k in range(1, 16) for r in BAND_RADII)
# where z^2 is finite but past the band: Phi(z, s, 2) once divided by it
# for s > log2|z|/2, and abs(z^2) overflows from |z| = 1.34e154 on arg z = pi/8
SQUARE_RAYS = tuple(cmath.rect(r, k * math.pi / 8) for k in range(1, 16)
                    for r in (1.2e154, 1.45e154, 1.55e154))


def _band_miss(value, ref):
    """Whether value is off ref by more than 1e-13 of max(|ref|, the
    smallest normal double)."""
    ref = complex(ref)
    return not abs(value - ref) <= 1e-13 * max(abs(ref), sys.float_info.min)


def test_division_band_against_mpmath():
    # Smith's complex division overflows out here: v = 1 once gave 0j and
    # v = 2 nan.  s = 1 is referred to hyp2f1, as lerchphi is wrong here
    misses = []
    with mpmath.workdps(40):
        for z in BAND_RAYS:
            zm = _mpc(z)
            for s in (2, 3, 5, 11, 50, 500):
                li = mpmath.polylog(s, zm)
                for v, ref in ((1.0, li / zm), (2.0, (li - zm) / zm ** 2)):
                    if _band_miss(lerch_phi(z, s, v), ref):
                        misses.append((z, s, v))
            for v in (2, 3, 6, 17):
                ref = mpmath.hyp2f1(1, v, v + 1, zm) / v
                if _band_miss(lerch_phi(z, 1, float(v)), ref):
                    misses.append((z, 1, v))
        for z in SQUARE_RAYS:
            zm = _mpc(z)
            for s in (300, 500):
                if _band_miss(lerch_phi(z, s, 2.0), (mpmath.polylog(s, zm) - zm) / zm ** 2):
                    misses.append((z, s, 2.0))
    assert not misses, (len(misses), misses[:5])


def test_kernels_rows_in_the_division_band(capsys):
    # each family's g at z = -1.2e308 + 1.2e308i: once 0.0, -0.0 for lclass,
    # nan for sself and 0.0 for ubeta, with exit 0
    z = complex(-1.2e308, 1.2e308)
    with mpmath.workdps(40):
        zm = _mpc(z)
        refs = {"lclass": mpmath.polylog(3, -zm) / -zm,
                "sself": (mpmath.polylog(2, -zm) + zm) / zm ** 2,
                "ubeta": 2 * mpmath.hyp2f1(1, 3, 4, -zm) / 3}
    for family, ref in refs.items():
        argv = ["kernels", "--family", family, "--k", "2",
                "--grid=-1.2e308:-1.2e308:1,1.2e308:1.2e308:1"]
        assert cli.main(argv) == 0, family
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert not _band_miss(complex(float(row[2]), float(row[3])), ref), (family, row)
