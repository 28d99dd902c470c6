"""Route-independent identities of the Lerch transcendent.

The v-shift Phi(z, s, v) = v^-s + z Phi(z, s, v+1) needs no reference
value, and its two sides take different branches of specfun's route:
with v = 1 it pairs polylog (series, log-series, inversion, defining
sum) with Phi(z, s, 2), and with s = 1 it pairs the log closed form of
order v with that of order v + 1, and, past the closed forms' largest
order, the log closed form with the integral representation.  The
arguments z = +-iy are those of eval.
"""

import pytest

from freetransform import lerch_phi

# relative to |v^-s| + |z Phi(z, s, v+1)|, the scale of the rounding on the
# right-hand side; fixed before measuring.  Worst measured on the grids
# below: 8.2e-14 for v = 1 (s = 1000, y = 1.8e229), and 4.5e-16 for s = 1
BOUND = 1e-13

# quarter decades of y from 1e-3 to 1e300
Y_V1 = [10.0 ** (e / 4) for e in range(-12, 1201)]
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


@pytest.mark.parametrize("s", [1, 2, 3, 5, 10, 21, 22, 31, 40, 100, 300, 1000, 3000,
                               10 ** 6, 10 ** 9])
def test_v_shift_pairs_polylog_with_v2(s):
    err, y = _worst(s, 1.0, Y_V1)
    assert err <= BOUND, (s, y, err)


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
