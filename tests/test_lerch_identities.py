"""Route-independent identities of the Lerch transcendent.

The v-shift Phi(z, s, v) = v^-s + z Phi(z, s, v+1) needs no reference
value, and its two sides take different branches of specfun's route:
with v = 1 it pairs polylog (series, log-series, inversion, defining
sum) with Phi(z, s, 2), and with s = 1 it pairs the log closed form of
order v with that of order v + 1, and, past the closed forms' largest
order, the log closed form with the integral representation.  The
arguments z = +-iy are those of eval; v = 1 is also checked on the
diagonals arg z = +-pi/4 and +-3pi/4, and on the rays between them and
the axes, arg z = +-pi/8, +-3pi/8, +-5pi/8 and +-7pi/8.
"""

import cmath
import math

import pytest

from freetransform import lerch_phi

# relative to |v^-s| + |z Phi(z, s, v+1)|, the scale of the rounding on the
# right-hand side; fixed before measuring.  Worst measured on the grids
# below: 8.2e-14 for v = 1 (s = 1000, y = 1.8e229), 8.7e-14 on its
# diagonals (s = 1000, |z| = 5.6e234, arg z = +-3pi/4), 9.5e-14 on the
# rays (s >= 1000, |z| = 1e232, arg z = +-3pi/8) but for their two FOUND
# cells, and 4.5e-16 for s = 1
BOUND = 1e-13

# quarter decades of y from 1e-3 to 1e300
Y_V1 = [10.0 ** (e / 4) for e in range(-12, 1201)]
ORDERS_V1 = [1, 2, 3, 5, 10, 21, 22, 31, 40, 100, 300, 1000, 3000, 10 ** 6, 10 ** 9]
# unit steps along arg z = +-pi/4 and +-3pi/4: Re z > 0 takes polylog's
# log-series and inversion, and Re z < 0 the defining sum, with the
# _lerch_v2 log-series off the negative real axis
DIAGONALS = [cmath.rect(1.0, k * math.pi / 4) for k in (1, -1, 3, -3)]
# half decades of |z| from 1e-3 to 1e300 on the rays arg z = k pi/8, odd k
R_RAYS = [10.0 ** (e / 2) for e in range(-6, 601)]
RAYS = (1, -1, 3, -3, 5, -5, 7, -7)
# quarter decades from 1e-2 to 1e12, off the band 1/2 < y < 2 in which
# the log closed form cancels (FOUND: the _lerch_log band)
Y_S1 = [y for y in (10.0 ** (e / 4) for e in range(-8, 49)) if not 0.5 < y < 2.0]
# the log closed form sums v terms per call, so large v take fewer y
Y_S1_LARGE = [0.01, 0.3, 3.0, 1e3, 1e12]


def _shift_error(z: complex, s: int, v: float) -> float:
    first = v ** -s
    rest = z * lerch_phi(z, s, v + 1.0)
    return abs(lerch_phi(z, s, v) - first - rest) / (abs(first) + abs(rest))


def _worst(s: int, v: float, ys) -> tuple:
    return max((_shift_error(sign * 1j * y, s, v), sign * y)
               for y in ys for sign in (1.0, -1.0))


@pytest.mark.parametrize("s", ORDERS_V1)
def test_v_shift_pairs_polylog_with_v2(s):
    err, y = _worst(s, 1.0, Y_V1)
    assert err <= BOUND, (s, y, err)


@pytest.mark.parametrize("s", ORDERS_V1)
def test_v_shift_pairs_polylog_with_v2_on_the_diagonals(s):
    err, z = max(((_shift_error(unit * r, s, 1.0), unit * r)
                  for r in Y_V1 for unit in DIAGONALS), key=lambda cell: cell[0])
    assert err <= BOUND, (s, z, err)


_INVERSION_HIGH_ORDER = ("FOUND: _inversion at high order and huge |z|, "
                         "s = 1000 on arg z = +-5pi/8 at |z| = 1e232")


def _ray_cells():
    for s in ORDERS_V1:
        for k in RAYS:
            marks = ()
            if s == 1000 and abs(k) == 5:
                marks = pytest.mark.xfail(strict=True, reason=_INVERSION_HIGH_ORDER)
            yield pytest.param(s, k, id=f"s{s}-arg{k:+d}pi_8", marks=marks)


@pytest.mark.parametrize("s,k", _ray_cells())
def test_v_shift_pairs_polylog_with_v2_on_the_rays(s, k):
    unit = cmath.rect(1.0, k * math.pi / 8)
    err, r = max((_shift_error(unit * r, s, 1.0), r) for r in R_RAYS)
    assert err <= BOUND, (s, k, r, err)


def test_v_shift_pairs_log_closed_forms():
    for v in [*range(1, 64), 80, 81, 99, 100]:
        err, y = _worst(1, float(v), Y_S1)
        assert err <= BOUND, (v, y, err)


@pytest.mark.parametrize("v", [1000, 10 ** 4, 99_999])
def test_v_shift_pairs_log_closed_forms_at_large_order(v):
    err, y = _worst(1, float(v), Y_S1_LARGE)
    assert err <= BOUND, (v, y, err)


_LERCH_LOG_BAND = "FOUND: the _lerch_log band, 1/2 < y <= 1 for v from 9 to 99 999"
_INTEGRAL_PAST_MAX_V = ("FOUND: ubk past _CLOSED_FORM_MAX_V, the integral branch "
                        "at large |z|")


@pytest.mark.parametrize("v,y", [
    pytest.param(81.0, 0.92, id="lerch-log-band-v81",
                 marks=pytest.mark.xfail(strict=True, reason=_LERCH_LOG_BAND)),
    pytest.param(23.0, 0.75, id="lerch-log-band-v23",
                 marks=pytest.mark.xfail(strict=True, reason=_LERCH_LOG_BAND)),
    pytest.param(99_999.0, 1.0, id="lerch-log-band-v99999",
                 marks=pytest.mark.xfail(strict=True, reason=_LERCH_LOG_BAND)),
    pytest.param(100_000.0, 2.4e11, id="integral-past-closed-form-max-v",
                 marks=pytest.mark.xfail(strict=True, reason=_INTEGRAL_PAST_MAX_V)),
])
def test_v_shift_found_cells(v, y):
    # each cell stays in the test until its FOUND line is mended
    assert _shift_error(1j * y, 1, v) <= BOUND
