"""Scalar special functions: Hurwitz-Lerch transcendent, polylogarithm
and the gamma function.

Only the slices needed by the transform kernels are covered: integer
s >= 1 for the Lerch/polylog family, gamma on the positive axis (the
standard library's, with this package's error contract), and
log Gamma(2 + eps) on |eps| <= 1 as a power series from the zeta table.

Li_s(z) for integer s takes one of three branches by |z|:

  |z| <= 1/2       the power series sum_{n>=1} z^n / n^s = z Phi(z, s, 1);
  1/2 < |z| < 2    Crandall's log-series in mu = log z,
                   sum_{m != s-1} zeta(s-m) mu^m/m!
                   + mu^(s-1)/(s-1)! (H_{s-1} - log(-mu));
  |z| >= 2         the inversion formula, which trades z for 1/z inside
                   the series disk, summed in one forward pass over the
                   powers L^j/j! of L = log(-z), stepping by L^2, with no
                   list of them; the pass stops where L^j/j! reaches 0j,
                   so its work is bounded at every order.
On the imaginary axis up to s = _AXIS_ORDERS the last two run in float
arithmetic instead (see below).

The last two, and the same two for Li_s(z) - z, are chosen in one
place, _li(s, z, r, shift), which polylog and _lerch_v2 both call.

Ahead of the last two, at the orders where it stops within four terms,
Re z <= 0 takes the defining sum sum_n z^n (v+n)^-s (_lerch_direct):
there the integral representation bounds its tail past n by |z|^n
(v+n)^-s, although the sum diverges for |z| > 1.  Every eval argument
-ix/t lies there: past s of about 1 800 for v = 1 and 2 600 for v = 2
the sum serves every finite z with Re z <= 0, so the lclass and sself
kernels' work stays bounded at every order.  Its radius,
_direct_radius(s, v), is asked at every order; below s = 22 for v = 1
it is at most 1/2, so no z off the series disk takes the sum there.

Each argument is checked once, where it enters.  lerch_phi and polylog
share one order check, _check_order: s is an int >= 1, not a bool,
that converts to a double (so at most about 1.8e308), since the sums
take s as one.  lerch_phi then checks z and v and calls _route(s, v), a
bounded cache of one function of z per (s, v), with the dispatch on
(s, v) made once: the series on the disk, and off it the defining sum,
then polylog for v = 1, the log closed form for s = 1, Phi(z, s, 2) =
(Li_s(z) - z)/z^2, or the integral representation, each called from
the route with no frame between.  The kernel families check their
order where they are built, so kernels.map_data binds g to the route,
and kernels.kernel_g calls it after its own ray check: neither an
evaluator nor kernel_g checks (s, v) again or dispatches per point.

The Lerch series is the only series on the disk |w| <= 1/2: polylog
there takes sum_{n>=1} w^n n^-s = w Phi(w, s, 1), and the inversion
formula at w = 1/z the same sum, or sum_{n>=2} w^n n^-s =
w^2 Phi(w, s, 2) when it subtracts z.

What does not depend on z is tabled.  A bounded lru_cache holds the
last _SERIES_TABLES tables of (v+n)^-s, one per (s, v): v^-s, then rows
of four terms, at most 13 rows each; the Lerch series reads them, and
forms the rows past a table in one place.  Two fixed tables, built on
first use, serve every order: zeta(n) for _ZETA_LOW <= n < _ZETA_TOP,
past which zeta(n) - 1 underflows; and the inversion formula's eta(2n)
coefficients, one table per shift, up to the n from which the
coefficient is a constant.  From the zeta table, a bounded lru_cache of
the last _SERIES_TABLES orders holds the log-series' plan per (s,
shift), built on its first call: two flat tuples over its at most
_LOG_SERIES_TERMS terms, the coefficients, H_{s-1} - shift at the log
term, and the stop weights (_log_series_plan).  _direct_radius is
cached per (s, v) in the same way.  The inversion formula's complex
pass keeps no plan: it reads each coefficient from the eta table, or
past it takes the constant, and forms each divisor as it steps.  Every
sum takes the same terms in the same order as without the tables and
plan.

On the imaginary axis, where every argument -ix/t of the transforms
lies, one float loop, _axis_sum, sums a power series in iy: odd powers
are imaginary and even ones real, so each term goes to one part, the
sign of i^n held in its coefficient.  It reads one row format, four
pairs (c_n, b_n) a row, and stops at the first n whose bound b_n |y|^n
is at most the caller's stop.  Two series take it, both built on the
(s, v) table: the Lerch series at z = iy, y != 0, whose values are the
complex loop's bit for bit, signed zeros included (z = 0, real z and
every other z take the complex loop); and the image classes' moment
series, whose rows _moment_rows builds once per law for transforms.

Off the disk at z = iy, either sign of zero real part, _li takes two
float paths up to s = _AXIS_ORDERS: _axis_log_series for 1/2 < |y| < 2
and _axis_inversion for |y| >= 2.  Off the axis, and at higher orders,
the complex _log_series and _inversion serve.  On the axis both log z
and log(-z) are l +- i pi/2, l = log|y|, so each sum's polynomial part,
re-expanded about i pi/2 in powers of l by one routine
(_about_half_pi), is two real polynomials in l, summed by Horner's
rule.  Their coefficients c_k/k! come from a plan per (s, shift), each
in a bounded lru_cache of the last _SERIES_TABLES, built on its first
call.  The log-series' (_axis_log_plan) re-expands the coefficients of
_log_series_plan as they stand up to l^_AXIS_LOG_DEGREE, a degree its
convergence radius 3 pi/2 about i pi/2 fixes, and its log term is
formed once per call.
The inversion's (_axis_plan) re-expands the eta table's in full, summed
in l^2; the shifted form adds a real series in l, and the series at 1/z
is _axis_sum's on the (s, 1 + shift) table.  The float paths' values
are not the complex passes' bits: each agrees with its complex pass
within 6e-14 relative, and each is held to mpmath bounds of its own.

Every division by z that a branch makes off the disk is plain up to
|z| = _SCALED_FROM = 2^1000 and scaled past it, where CPython's complex
division would overflow (see _SCALED_FROM).  Phi(z, s, 2) divides by z
twice at every |z|, never by z * z.

Li_1(z) = -log(1-z) is used as it stands beyond the series radius.  The
Lerch transcendent with integer v reduces to these: Phi(z,s,1) =
Li_s(z)/z, Phi(z,s,2) = (Li_s(z) - z)/z^2, and Phi(z,1,k) is a logarithm
minus a finite sum in 1/z.  Other v use the integral representation,
quadrature.gamma_average, which is also the oracle the closed forms are
checked against and refuses orders above 500 000.

References: R. Crandall, "Note on fast polylogarithm computation"
(2006); D. Wood, "The computation of polylogarithms", University of
Kent TR 15-92 (1992).
"""

from __future__ import annotations

import cmath
import functools
import math

from .errors import ConvergenceError, DomainError, _complex, _real, _shown
from .quadrature import gamma_average

_SERIES_RADIUS = 0.5
_INVERSION_RADIUS = 2.0
# the Lerch series' term limit, its first term v^-s not counted; a multiple
# of 4, as its rows hold the terms n = 4j+1 to 4j+4
_SERIES_MAX_TERMS = 1_000_000
_SERIES_EPS = 1e-15
# (s, v) series power tables kept, at most 13 rows of eight floats each
_SERIES_TABLES = 64
# mu^m/m! underflows to 0 by m = 229 at |mu| = 3.22, the largest |log z| on
# 1/2 < |z| < 2, so every log-series sum stops within this many terms
_LOG_SERIES_TERMS = 256
# relative to the mass v^-s of the integral representation's weight
_INTEGRAL_TOL = 1e-11
# the closed-form sums stop at the first nonzero term below this fraction
# of the running sum
_SUM_EPS = 2.0 ** -53
# off the disk, Re z <= 0 takes the defining sum of Phi(z, s, v) where its
# tail bound |z|^n (v+n)^-s is below _SUM_EPS v^-s within this many terms
_DIRECT_TERMS = 4
# Phi(z, 1, k) in closed form cancels about |z|^-k inside the unit disk;
# below this |z|^k the direct series is summed instead
_LOG_FORM_MIN = 1e-3
# integer v up to this size take the closed forms; the 1/z sum of
# Phi(z, 1, k) has k terms
_CLOSED_FORM_MAX_V = 100_000
# zeta(n) - 1 sums k^-n for 2 <= k < n + _EM_CUT at most; a sum cut
# there adds the Euler-Maclaurin tail, whose terms fall like
# (n/(2 pi cut))^2 since the cut grows with n
_EM_CUT = 10
# the direct sum of zeta(n) - 1 may stop where its tail is below this
# fraction of 2^-n, eight bits below the sum's last bit
_TAIL_EPS = 2.0 ** -60
# log_gamma2_slope's terms are below 2^-64 of its sum after this many
# at |eps| = 1, so its relative stop always comes first
_LOG_GAMMA2_TERMS = 64
# B_0, B_2, ..., B_{2 _BERNOULLI_HALF} are tabulated
_BERNOULLI_HALF = 64
# the zeta table spans _ZETA_LOW <= n < _ZETA_TOP: below, zeta needs Bernoulli
# numbers past their table; from 1075 on, every k^-n in zeta(n) - 1 underflows
_ZETA_LOW = -2 * _BERNOULLI_HALF
_ZETA_TOP = 1075
# inversion coefficients past their tables: -2 eta(2n) is -2.0 once 2^(1-2n)
# is below half an ulp of 1, and 2 - 2 eta(2n) is 0.0 once it underflows
_ETA_TAIL = (-2.0, 0.0)
# z = iy up to this order takes _axis_inversion: its plan's Horner
# coefficients c_k/k! and its tail's 1/(s+1)! stay normal doubles, as k!
# overflows at k = 171
_AXIS_ORDERS = 160
# the log-series' regular part is analytic within 3 pi/2 of mu = i pi/2, its
# nearest singularity mu = 2 pi i, and on the axis |mu - i pi/2| = |log|y||
# < log 2 for 1/2 < |y| < 2: its terms in l = log|y| fall like (log 2 /
# (3 pi/2))^k, and this is the first degree k at which that reaches _SUM_EPS
_AXIS_LOG_DEGREE = math.ceil(math.log(_SUM_EPS) / math.log(math.log(2.0) / (1.5 * math.pi)))

# log of the largest double, to within 0.8
_LOG_DOUBLE_MAX = 709.0
# CPython divides complex numbers by Smith's method, whose denominator
# |z|^2/max(|Re z|, |Im z|) overflows off the axes for |z| near the largest
# double.  From |z| = _SCALED_FROM on, _over scales z and the numerator
# by _SCALE first (M. Baudin and R. L. Smith, arXiv:1210.4539):
# the quotient keeps its bits wherever the plain one is finite, and the
# numerator loses bits only below 2^-958, where the quotient underflows
_SCALED_FROM = 2.0 ** 1000
_SCALE = 2.0 ** -64

# Euler-Mascheroni constant, double precision.
_EULER_GAMMA = 0.5772156649015329


def euler_gamma() -> float:
    """The Euler-Mascheroni constant."""
    return _EULER_GAMMA


def gamma_fn(x: float) -> float:
    """Gamma function on the positive real axis (math.gamma).

    Raises DomainError for x <= 0, a non-finite x, and from x ~ 171.62
    on, where Gamma overflows double precision.
    """
    x = _real(x, "x", DomainError, True)
    try:
        return math.gamma(x)
    except OverflowError:
        raise DomainError(f"gamma_fn({x!r}) overflows double precision")


def _on_cut(z: complex) -> bool:
    return z.imag == 0.0 and z.real >= 1.0


def _over(w: complex, z: complex, r: float) -> complex:
    """w / z for r = |z|, scaled from r = _SCALED_FROM on."""
    return w / z if r < _SCALED_FROM else w * _SCALE / (z * _SCALE)


def _check_order(s) -> None:
    """DomainError unless s is an int >= 1, not a bool, that converts to
    a double: the sums take s as one."""
    # True passes as an int >= 1; False already fails s >= 1
    if not (isinstance(s, int) and s >= 1) or s is True:
        raise DomainError(f"s must be an integer >= 1, got {_shown(s)}")
    try:
        float(s)
    except OverflowError:
        raise DomainError(f"s must convert to a double, got {s.bit_length()} bits") from None


@functools.lru_cache(maxsize=_SERIES_TABLES)
def _series_powers(s: int, v: float) -> tuple:
    """(p_0, rows) with p_n = (v+n)^-s: p_0 = v^-s, and _series_row's
    rows of the terms n = 1, 2, ... up to the first n with 2^-n p_n <=
    _SERIES_EPS p_0, the last row filled out with the terms that follow:
    every term the series takes at |z| <= 1/2, at most 13 rows for
    s >= 1.  DomainError where v^-s overflows double precision; (v+n)^-s
    for n >= 1 cannot, as v+n > 1.
    """
    try:
        first = v ** -s
    except OverflowError:
        raise DomainError(f"v^-s = {v!r}^-{s} overflows double precision")
    rows = [_series_row(s, v, 1)]
    # 2^-n p_n falls with n, so only a row's last term is tested
    while 0.5 ** (4 * len(rows)) * rows[-1][-1] > _SERIES_EPS * first:
        rows.append(_series_row(s, v, 4 * len(rows) + 1))
    return first, tuple(rows)


def _series_row(s: int, v: float, n: int) -> tuple:
    """The terms n to n+3, n = 1 mod 4, in _axis_sum's row format: pairs
    (c_m, b_m) with b_m = (v+m)^-s and c_m = b_m times the sign of i^m."""
    p1, p2, p3, p4 = [(v + m) ** -s for m in range(n, n + 4)]
    return (p1, p1, -p2, p2, -p3, p3, p4, p4)


def _series_rows_past(s: int, v: float, rows: tuple):
    """The rows of _series_powers(s, v), then rows formed past them, up
    to the term n = _SERIES_MAX_TERMS."""
    yield from rows
    for n in range(4 * len(rows) + 1, _SERIES_MAX_TERMS, 4):
        yield _series_row(s, v, n)


def _axis_sum(rows, r: float, stop: float, re: float):
    """(re + the even terms, the odd terms) of sum_{n>=1} c_n r^n, up to
    the first n whose bound b_n r^n is at most stop; None where the rows
    end first.  rows holds the pairs (c_n, b_n), four to a row from n = 1.
    """
    im = 0.0
    mag = 1.0  # r^n
    for c1, b1, c2, b2, c3, b3, c4, b4 in rows:
        mag *= r
        im += c1 * mag
        if b1 * mag <= stop:
            break
        mag *= r
        re += c2 * mag
        if b2 * mag <= stop:
            break
        mag *= r
        im += c3 * mag
        if b3 * mag <= stop:
            break
        mag *= r
        re += c4 * mag
        if b4 * mag <= stop:
            break
    else:
        return None
    return re, im


def _lerch_series(z: complex, s: int, v: float) -> complex:
    """Direct summation of sum_{n>=0} z^n / (v+n)^s: lerch_phi's series
    on |z| <= 1/2, and with v = 1 or 2 the sums of z^n n^-s that polylog
    and the inversion formula take there.

    The sum stops at the first term below _SERIES_EPS times the first
    term v^-s, which for |z| <= 1/2 and v >= 1 is within a factor 2 of
    |Phi|: the stop is relative, however small Phi is (Phi(z, s, 2) is
    about 2^-s).  The negative power underflows to 0 where (v+n)^s would
    overflow.  The powers come from _series_powers(s, v), and past that
    table from _series_rows_past, so the terms and the stop are the same
    either way; the complex loop may read past the table at any z, as
    nothing bounds its rounded |z^n| by 2^-n.

    At z = iy, y != 0 (either sign of zero real part), the sum is
    _axis_sum's at r = |y| from v^-s, with the sign of y applied to the
    imaginary part at the end.  Each product, sum and stop test is the
    one the complex loop makes on the term's nonzero part, and rounding
    is symmetric under negation, so the value is the complex loop's bit
    for bit.  Neither part can become -0.0 (nor can the complex loop's),
    and 0.0 - im keeps a zero imaginary part +0.0.  For |y| <= 1/2 the
    computed |y|^n never exceeds 2^-n, so the sum stops inside the
    table; only |y| > 1/2 (from _lerch_log) reads rows past it.  z = 0
    and real z take the complex loop.
    """
    first, rows = _series_powers(s, v)
    stop = _SERIES_EPS * first
    if z.real == 0.0 and z.imag:
        y = abs(z.imag)
        if y > _SERIES_RADIUS:
            rows = _series_rows_past(s, v, rows)
        parts = _axis_sum(rows, y, stop, first)
        if parts is not None:
            re, im = parts
            return complex(re, im if z.imag > 0.0 else 0.0 - im)
    else:
        # the term n = 0 is first itself, and meets the stop only where
        # first is 0, as every later term then does
        acc = complex(first)
        term = complex(1.0)  # z^n
        for row in _series_rows_past(s, v, rows):
            for power in row[1::2]:
                term *= z
                contrib = term * power
                acc += contrib
                if abs(contrib) <= stop:
                    return acc
    raise ConvergenceError(
        f"Lerch series did not converge within {_SERIES_MAX_TERMS} terms at z={z!r}"
    )


def _moment_rows(scale: float, s: int, v: float, atoms: list) -> tuple:
    """(first, rows, stop) of sum_{(w, q) in atoms} w scale Phi(iqr, s, v)
    for |q| <= 1 and r <= 1/2: first sum w + sum_n c_n r^n.  With the
    pairs (c_n, b_n) of _series_powers(s, v) and first = scale v^-s, the
    rows hold c_n scale sum w q^n and b_n scale sum |w q^n|, closed by a
    row of zeros; stop is _SERIES_EPS first sum |w|, the relative term
    at which each atom's own series stops.  No rows where stop is inf.
    """
    first, table = _series_powers(s, v)
    first *= scale
    stop = _SERIES_EPS * first * sum(abs(w) for w, _ in atoms)
    if stop == math.inf:
        return first, (), stop
    rows = []
    powers = [w for w, _ in atoms]  # w q^n
    for row in table:
        pairs = []
        for c, b in zip(row[::2], row[1::2]):
            powers = [p * q for p, (_, q) in zip(powers, atoms)]
            pairs += (c * scale * sum(powers), b * scale * sum(map(abs, powers)))
        rows.append(tuple(pairs))
    rows.append((0.0,) * 8)
    return first, tuple(rows), stop


def _lerch_integral(z: complex, s: int, v: float) -> complex:
    """Integral form (1/Gamma(s)) int_0^inf t^(s-1) e^(-v t)/(1 - z e^(-t)) dt.

    Valid for z off the real ray [1, inf); the integrand's denominator
    never vanishes there.  Taken to _INTEGRAL_TOL relative to v^-s.
    """
    return gamma_average(lambda w, weight: (1.0 / (1.0 - z * w) * weight,), 1, s, v,
                         _INTEGRAL_TOL)[0].value


def lerch_phi(z: complex, s: int, v: float) -> complex:
    """Hurwitz-Lerch transcendent Phi(z, s, v) = sum_{n>=0} z^n/(v+n)^s.

    Parameters
    ----------
    z : complex, finite, not on the real ray [1, inf)
    s : int >= 1, not a bool, that converts to a double
    v : float > 0

    The series serves |z| <= 1/2; beyond it, integer v takes a closed
    form (v = 1, v = 2, or s = 1) and other v the integral
    representation.  The checks, then _route(s, v)(z).
    """
    z = _complex(z)
    if _on_cut(z):
        raise DomainError(f"z = {z!r} lies on the singular ray [1, inf)")
    _check_order(s)
    return _route(s, _real(v, "v", DomainError, True))(z)


@functools.lru_cache(maxsize=_SERIES_TABLES)
def _route(s: int, v: float):
    """Phi(., s, v) for an integer s >= 1 and a finite v > 0, with the
    dispatch on (s, v) made once: a function of a complex z off the ray
    [1, inf), which it does not check.

    |z| <= 1/2 takes the series, and a non-finite z off that disk is a
    DomainError.  Beyond the disk, Re z <= 0 up to _direct_radius(s, v)
    takes the defining sum; else v = 1 takes polylog(s, z)/z, through
    the module-global name, which a tracer may rebind, divided by z
    through _over; s = 1 _lerch_log;
    v = 2 _lerch_v2; and other v, or integer v past _CLOSED_FORM_MAX_V,
    the integral representation.  phi calls the branch it bound when the
    route was built, with no frame between.
    """
    direct = _direct_radius(s, v)
    k = int(v) if v == math.floor(v) and v <= _CLOSED_FORM_MAX_V else 0
    if k == 1:
        branch = None  # polylog, looked up at each call
    elif k and s == 1:
        branch, arg = _lerch_log, k
    elif k == 2:
        branch, arg = _lerch_v2, s
    else:
        branch, arg = functools.partial(_lerch_integral, v=v), s

    def phi(z: complex) -> complex:
        try:
            r = abs(z)
        except OverflowError:
            raise DomainError(f"|z| passes the largest double at z={z!r}") from None
        if r <= _SERIES_RADIUS:
            return _lerch_series(z, s, v)
        # off the disk only: abs() of an infinite or NaN z is never <= 1/2
        if not cmath.isfinite(z):
            raise DomainError(f"z must be finite, got {z!r}")
        if r <= direct and z.real <= 0.0:
            return _lerch_direct(z, s, v)
        if branch is None:
            return _over(polylog(s, z), z, r)
        return branch(z, arg)

    return phi


@functools.lru_cache(maxsize=_SERIES_TABLES)
def _direct_radius(s: int, v: float) -> float:
    """The largest |z| at which the tail bound |z|^n (v+n)^-s of the
    defining sum reaches _SUM_EPS v^-s by n = _DIRECT_TERMS, inf where that
    |z| passes the double range: about (1 + 4/v)^(s/4) / 10^4, which
    passes 1/2 from s = 22 on for v = 1 and from s = 31 on for v = 2."""
    log_r = (s * math.log1p(_DIRECT_TERMS / v) + math.log(_SUM_EPS)) / _DIRECT_TERMS
    return math.exp(log_r) if log_r < _LOG_DOUBLE_MAX else math.inf


def _lerch_direct(z: complex, s: int, v: float) -> complex:
    """Phi(z, s, v) = sum_{n>=0} z^n (v+n)^-s for Re z <= 0 off the disk,
    at the orders where its terms fall fast: v^-s times sum_n z^n
    (v/(v+n))^s, up to the first n whose bound |z|^n (v/(v+n))^s is at
    most _SUM_EPS, by n = _DIRECT_TERMS where |z| <= _direct_radius(s, v).

    The sum need not converge: its tail past n is z^n Phi(z, s, v+n), and
    for Re z <= 0 the integral representation bounds |Phi(z, s, v+n)| by
    (v+n)^-s, as |1 - z e^-t| >= 1 there.  Each bound is formed as the
    exp of its log, so neither |z|^n nor (v+n)^-s over- or underflows;
    its rounding is about (n log|z|) eps relative, on terms at most
    _SUM_EPS^(n/4) of the first.  v^-s is _series_powers(s, v)'s, which
    raises DomainError where it overflows.
    """
    first = _series_powers(s, v)[0]
    r = abs(z)
    log_r, unit = math.log(r), z / r
    acc = complex(1.0)
    turn = complex(1.0)  # (z/|z|)^n
    for n in range(1, _DIRECT_TERMS + 1):
        bound = math.exp(n * log_r - s * math.log1p(n / v))
        if bound <= _SUM_EPS:
            break
        turn *= unit
        acc += bound * turn
    return first * acc


def _lerch_log(z: complex, k: int) -> complex:
    """Phi(z, 1, k) = -z^-k log(1-z) - sum_{j=1}^{k-1} z^-j/(k-j).

    Summed in powers of w = 1/z, so no power overflows for large k.
    Inside the unit disk the two parts cancel down to the size of |z|^k,
    so the direct series takes over once |z|^k drops below _LOG_FORM_MIN.
    """
    r = abs(z)
    if r < 1.0 and r ** k < _LOG_FORM_MIN:
        return _lerch_series(z, 1, float(k))
    w = _over(1.0, z, r)
    acc = complex(0.0)
    power = complex(1.0)  # w^j
    for j in range(1, k):
        power *= w
        acc += power / (k - j)
    return -(power * w) * cmath.log(1.0 - z) - acc


def _lerch_v2(z: complex, s: int) -> complex:
    """Phi(z, s, 2) = (Li_s(z) - z)/z^2 for |z| > 1/2, divided by z twice.

    _li(s, z, r, 1) sums Li_s(z) - z with z subtracted term by term:
    inside |z| < 2 the log-series, with zeta(n) - 1 in place of zeta(n),
    and beyond the inversion formula in closed form.  Neither forms
    Li_s(z) and z separately, which would lose about 2^s/|z| relative to
    Phi.  But the shifted inversion rebuilds -z as a sum of about
    |log z|/2 terms in log(-z) and loses about |log z| eps, 8e-14 at
    |z| = 1e300, while far enough out Li_s(z) is small beside z and the
    difference loses nothing: from |z| = 4^s on, Phi is the unshifted
    Li_s(z) minus z.  (At 2^(s+2) that route still lost 8e-12 for
    s = 100.)  Dividing by z twice, never by z * z, leaves no square to
    overflow past |z| of about 1.34e154 or to underflow, and each
    division is _over's.
    """
    r = abs(z)
    # log2 takes any s, where 4.0 ** s overflows from s = 512 on; below
    # |z| = 2 the shift is always 1
    shift = 0 if math.log2(r) >= 2 * s else 1
    w = _li(s, z, r, shift)
    if not shift:
        w -= z
    return _over(_over(w, z, r), z, r)


# zeta at the integers -------------------------------------------------------

@functools.cache
def _bernoulli_even() -> tuple:
    """B_0, B_2, ..., B_{2 _BERNOULLI_HALF} from the integer tangent numbers
    T_j (Brent-Harvey recurrence): B_2j = (-1)^(j-1) 2j T_j/(4^j (4^j - 1)).
    Exact integer arithmetic, one rounding per value; built on first use."""
    n = _BERNOULLI_HALF
    tan = [0] * (n + 1)
    tan[1] = 1
    for k in range(2, n + 1):
        tan[k] = (k - 1) * tan[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            tan[j] = (j - k) * tan[j - 1] + (j - k + 2) * tan[j]
    values = [1.0]
    for j in range(1, n + 1):
        b = 2 * j * tan[j] / (4 ** j * (4 ** j - 1))
        values.append(b if j % 2 else -b)
    return tuple(values)


def _zeta_minus_one(n: int) -> float:
    """zeta(n) - 1 for integer n >= 2, to full relative precision: the
    terms 2 <= k < top summed directly, smallest first.  top is the first
    k whose whole tail, at most k^-n (1 + k/(n-1)), is below _TAIL_EPS of
    2^-n; where that k would pass n + _EM_CUT, the sum is cut there and
    the Euler-Maclaurin tail added."""
    top = 3
    while top < n + _EM_CUT and (2.0 / top) ** n * (1.0 + top / (n - 1)) >= _TAIL_EPS:
        top += 1
    acc = 0.0
    if top == n + _EM_CUT:
        bern = _bernoulli_even()
        cut = float(top)
        acc = cut ** (1 - n) / (n - 1) + 0.5 * cut ** -n
        # B_2j/(2j)! n (n+1) ... (n+2j-2) cut^(-n-2j+1), starting at j = 1
        coef = 0.5 * n * cut ** (-n - 1)
        for j in range(1, _BERNOULLI_HALF):
            term = bern[j] * coef
            acc += term
            if abs(term) <= _SUM_EPS * acc:
                break
            coef *= (n + 2 * j - 1) * (n + 2 * j) / (cut * cut * (2 * j + 1) * (2 * j + 2))
    for k in range(top - 1, 1, -1):
        acc += float(k) ** -n
    return acc


@functools.cache
def _zeta_table() -> tuple:
    """(zeta(n), zeta(n) - 1) for _ZETA_LOW <= n < _ZETA_TOP at index
    n - _ZETA_LOW, None at the pole n = 1; built on first use.  n >= 2
    sums zeta(n) - 1 directly, n = 0 is -1/2, and zeta(-q) =
    -B_{q+1}/(q+1), which vanishes at the negative even integers."""
    bern = _bernoulli_even()
    table = []
    for n in range(_ZETA_LOW, _ZETA_TOP):
        if n >= 2:
            m1 = _zeta_minus_one(n)
            table.append((1.0 + m1, m1))
        elif n == 1:
            table.append(None)
        else:
            val = (-0.5 if n == 0 else 0.0 if n % 2 == 0
                   else -bern[(1 - n) // 2] / (1 - n))
            table.append((val, val - 1.0))
    return tuple(table)


def _zeta_pair(n: int) -> tuple:
    """(zeta(n), zeta(n) - 1) for an integer n != 1: from the zeta table,
    and (1.0, 0.0) past it."""
    if n >= _ZETA_TOP:
        return (1.0, 0.0)
    if n < _ZETA_LOW:
        raise ConvergenceError(f"zeta({n}) lies beyond the Bernoulli table")
    return _zeta_table()[n - _ZETA_LOW]


@functools.cache
def _log_gamma2_coefficients() -> tuple:
    """(zeta(k) - 1)/k for 2 <= k < 2 + _LOG_GAMMA2_TERMS, each summed as
    the zeta table sums it, without building the whole table; built on
    first use."""
    return tuple(_zeta_minus_one(k) / k for k in range(2, 2 + _LOG_GAMMA2_TERMS))


def log_gamma2_slope(eps: float) -> float:
    """(log Gamma(2 + eps) - eps)/eps for -1 <= eps <= 1; -gamma at eps = 0.

    The power series -gamma + sum_{k>=2} (-1)^k (zeta(k) - 1) eps^(k-1)/k,
    stopped at the first term below _SUM_EPS of the sum.  Its terms fall
    like (|eps|/2)^k, so |eps| = 1 takes about 50 and |eps| = 1e-6 three.
    """
    if not -1.0 <= eps <= 1.0:
        raise DomainError(f"log_gamma2_slope requires |eps| <= 1, got {eps!r}")
    acc = -_EULER_GAMMA
    power = 1.0  # (-eps)^(k-1)
    for coef in _log_gamma2_coefficients():
        power *= -eps
        term = coef * power
        acc -= term
        if abs(term) <= _SUM_EPS * abs(acc):
            break
    return acc


# polylogarithm ---------------------------------------------------------------

@functools.lru_cache(maxsize=_SERIES_TABLES)
def _log_series_plan(s: int, shift: int) -> tuple:
    """(coefs, bounds): the coefficients and stop weights of _log_series'
    terms mu^m/m! for m = 0 to top - 1, top = min(s + 2 _BERNOULLI_HALF,
    _LOG_SERIES_TERMS).  coefs holds the zeta pair's entry [shift] of
    zeta(s - m), and H_{s-1} - shift at the log term m = s - 1, H_{s-1}
    the fsum of 1/j for j < s; bounds holds |zeta| + shift, and 0.0
    where zeta is 0 and at the log term, which marks a term that may not
    end the sum.
    """
    coefs, bounds = [], []
    for m in range(min(s + 2 * _BERNOULLI_HALF, _LOG_SERIES_TERMS)):
        if m == s - 1:
            coefs.append(math.fsum([1.0 / j for j in range(1, s)]) - shift)
            bounds.append(0.0)
            continue
        zeta = _zeta_pair(s - m)
        coefs.append(zeta[shift])
        bounds.append(abs(zeta[0]) + shift if zeta[0] else 0.0)
    return tuple(coefs), tuple(bounds)


def _log_series(s: int, z: complex, shift: int) -> complex:
    """Li_s(z) - shift * z by Crandall's expansion in mu = log z:

        Li_s(z) = sum_{m>=0, m != s-1} zeta(s-m) mu^m/m!
                  + mu^(s-1)/(s-1)! (H_{s-1} - log(-mu)),

    convergent for |mu| < 2 pi (|mu| < 3.3 on 1/2 < |z| < 2).  shift = 1
    subtracts z = exp(mu) term by term.  zeta vanishes at the negative
    even integers, so only a term with nonzero zeta may end the sum, and
    only once both its zeta part and its shift part are negligible: the
    sum stops at the first term whose stop weight times |mu^m/m!| is at
    most _SUM_EPS of it.  The coefficients and stop weights come from
    _log_series_plan(s, shift), built once per order; at zeta = 0, shift
    = 1 adds -1.0 times the power, which is subtracting it, and shift = 0
    adds 0.0 times it, which leaves the sum as it is: neither part of the
    sum is ever -0.0.
    """
    coefs, bounds = _log_series_plan(s, shift)
    mu = cmath.log(z)
    acc = complex(0.0)
    power = complex(1.0)  # mu^(m-1) / (m-1)!
    eps = _SUM_EPS
    for m, coef, bound in zip(range(1, len(coefs) + 1), coefs, bounds):
        if m == s:
            acc += (coef - cmath.log(-mu)) * power
        else:
            acc += power * coef
            if bound and bound * abs(power) <= eps * abs(acc):
                return acc
        power *= mu / m
    raise ConvergenceError(f"polylog log-series stalled at z={z!r}, s={s}")


@functools.lru_cache(maxsize=_SERIES_TABLES)
def _axis_log_plan(s: int, shift: int) -> tuple:
    """(re_coefs, im_coefs, log_scale): the log-series' regular part
    sum_m a_m mu^m/m!, re-expanded about mu = i pi/2 by _about_half_pi up
    to l^_AXIS_LOG_DEGREE, with a_m the coefs of _log_series_plan(s,
    shift) as they stand; they reach past m = s + 90 for s <=
    _AXIS_ORDERS, where a_m (pi/2)^m/m! falls like 4^-(m-s).  re_coefs
    and im_coefs hold the parts of c_k/k! from the top down, Horner
    coefficients in l, and log_scale is 1/(s-1)!.
    """
    re, im = _about_half_pi(_log_series_plan(s, shift)[0], _AXIS_LOG_DEGREE)
    return tuple(reversed(re)), tuple(reversed(im)), 1.0 / math.factorial(s - 1)


def _axis_log_series(s: int, z: complex, shift: int) -> complex:
    """_log_series(s, z, shift) for z = iy, 1/2 < |y| < 2, either sign of
    zero real part, and s <= _AXIS_ORDERS, in float arithmetic.  On the
    axis mu = log(iy) = l + i sgn(y) pi/2 with l = log|y|, so the regular
    part is two real polynomials in l, summed by Horner's rule from
    _axis_log_plan(s, shift), and the log term -mu^(s-1)/(s-1)! log(-mu)
    is formed once in complex arithmetic.  The value is worked out for
    y > 0 and conjugated for y < 0.
    """
    re_coefs, im_coefs, log_scale = _axis_log_plan(s, shift)
    y = z.imag
    ell = math.log(abs(y))
    re = im = 0.0
    for c in re_coefs:
        re = re * ell + c
    for c in im_coefs:
        im = im * ell + c
    mu = complex(ell, 0.5 * math.pi)
    log_term = mu ** (s - 1) * log_scale * cmath.log(-mu)
    re -= log_term.real
    im -= log_term.imag
    return complex(re, im if y > 0.0 else -im)


@functools.cache
def _eta_tables() -> tuple:
    """The inversion formula's coefficients of L^(s-2n)/(s-2n)! at index
    n - 1, for every order s: -2 eta(2n) for shift = 0, 2 - 2 eta(2n) for
    shift = 1, each table cut where it settles on its _ETA_TAIL constant."""
    tables = ([], [])
    for n in range(1, _ZETA_TOP // 2 + 1):
        zeta, zeta_m1 = _zeta_pair(2 * n)
        half = 2.0 ** (1 - 2 * n)
        tables[0].append(-2.0 * (1.0 - half) * zeta)
        tables[1].append(2.0 * (half * zeta - zeta_m1))
    for coefs, tail in zip(tables, _ETA_TAIL):
        while coefs[-1] == tail:
            coefs.pop()
    return tuple(map(tuple, tables))


def _inversion(s: int, z: complex, shift: int) -> complex:
    """Li_s(z) - shift * z for |z| >= 2 through the inversion formula

        Li_s(z) + (-1)^s Li_s(1/z) = -(2 pi i)^s/s! B_s(1/2 + L/(2 pi i))
                                   = -sum_{n=0}^{s//2} 2 eta(2n) L^(s-2n)/(s-2n)!,

    L = log(-z), with the Bernoulli polynomial expanded through Dirichlet
    eta(2n) = (1 - 2^(1-2n)) zeta(2n), 2 eta(0) = 1.  For shift = 1,
    z = -exp(L) and 1/z are subtracted in closed form, which leaves

        -(-1)^s (Li_s(1/z) - 1/z) + 2 sum_{j>s, j=s mod 2} L^j/j!
        + sum_{n=0}^{s//2} (2 - 2 eta(2n)) L^(s-2n)/(s-2n)!,

    free of the cancellation between Li_s(z) and z when |z| < 2^s.  The
    eta coefficients come from _eta_tables(), and past the end of the
    table are its _ETA_TAIL constant.

    One forward pass sums the terms from j = s mod 2 up, stepping
    L^j/j! by L^2/((j+1)(j+2)): the coefficient of L^j is the n-th, n =
    (s-j)/2, down to the -1 or +1 of L^s, after which the shifted tail
    runs on with coefficient 2 until its terms, past j = |L|, fall below
    _SUM_EPS of the sum.  Each divisor (j+1)(j+2) is formed as it is
    taken, from j held as a float: the float the integer product rounds
    to while j+2 <= 2^53, and the pass stops long before that.
    Once L^j/j! is exactly 0j every later term is an exact zero, and
    since neither part of the sum is ever -0.0, adding one leaves the sum
    as it is: the pass stops there and goes on to the series at 1/z, so
    its work is bounded at every order.  (The power reaches 0j only past
    its peak at j = |L|, where the shifted tail would stop at its first
    term.)
    """
    big_l = cmath.log(-z)
    l_squared = big_l * big_l
    coefs = _eta_tables()[shift]
    count, tail = len(coefs), _ETA_TAIL[shift]
    odd = s % 2
    power = big_l if odd else complex(1.0)  # L^j / j!, from j = s mod 2
    acc = complex(0.0)
    j = float(odd)
    for n in range(s // 2, 0, -1):
        acc += power * (coefs[n - 1] if n <= count else tail)
        power *= l_squared / ((j + 1.0) * (j + 2.0))
        j += 2.0
        if not power:
            break
    else:
        if shift:
            acc += power
            # the tail's terms 2 L^j/j!, doubled once: scaling by 2 is exact,
            # so each term and stop test is that of L^j/j! times 2
            power *= 2.0
            l_abs, eps = abs(big_l), 2.0 * _SUM_EPS
            while True:
                power *= l_squared / ((j + 1.0) * (j + 2.0))
                j += 2.0
                acc += power
                if abs(power) <= eps * abs(acc) and j > l_abs:
                    break
        else:
            acc -= power
    w = _over(1.0, z, abs(z))
    inner = (w * w if shift else w) * _lerch_series(w, s, 1.0 + shift)
    return acc + inner if odd else acc - inner


@functools.cache
def _half_pi_powers() -> tuple:
    """(pi/2)^m/m! for m = 0, 1, ... up to where it underflows, times the
    sign of Re i^m for even m and of Im i^m for odd m; built on first use."""
    powers = [1.0]
    while powers[-1]:
        powers.append(powers[-1] * (0.5 * math.pi) / len(powers))
    return tuple(p if m % 4 < 2 else -p for m, p in enumerate(powers))


def _about_half_pi(a: list, top: int) -> tuple:
    """(re, im): sum_j a_j mu^j/j! for real a_j, re-expanded about mu =
    i pi/2 as sum_k c_k l^k/k! in l = mu - i pi/2, with c_k = sum_m
    a_(k+m) (i pi/2)^m/m!; re and im hold Re c_k/k! and Im c_k/k! for k =
    0 to top.  Even m give the real part and odd m the imaginary one, each
    an fsum over the a_j given."""
    signed = _half_pi_powers()
    re, im = [], []
    for k in range(top + 1):
        scale = math.factorial(k)
        re.append(math.fsum([c * p for c, p in zip(a[k::2], signed[::2])]) / scale)
        im.append(math.fsum([c * p for c, p in zip(a[k + 1::2], signed[1::2])]) / scale)
    return re, im


@functools.lru_cache(maxsize=_SERIES_TABLES)
def _axis_plan(s: int, shift: int) -> tuple:
    """(re_coefs, im_coefs, tail_frac, tail_exp): _inversion's polynomial
    sum_j a_j L^j/j! at L = l + i pi/2, re-expanded in powers of l by
    _about_half_pi.  a_j is nonzero only for j = s mod 2, so c_k is real
    for k = s mod 2 and imaginary otherwise; re_coefs and im_coefs hold
    c_k/k! (its imaginary part for im_coefs) for k from the top down in
    steps of 2, Horner coefficients in l^2.  The a_j are -1 or +1 at j =
    s and the _eta_tables() coefficients below; for shift = 1 also 2 at
    every j > s, j = s mod 2, up to where (pi/2)^(j-s)/(j-s)! underflows,
    whose c_k with k > s is 2 cos(pi/2) = 0 or 2i sin(pi/2) = 2i, the
    tail _axis_inversion sums, with its first l^(s+1)/(s+1)! formed from
    frexp(1/(s+1)!) = (tail_frac, tail_exp).
    """
    coefs, tail = _eta_tables()[shift], _ETA_TAIL[shift]
    a = [0.0] * (s + 1 + (len(_half_pi_powers()) if shift else 0))
    a[s] = 1.0 if shift else -1.0
    for n in range(1, s // 2 + 1):
        a[s - 2 * n] = coefs[n - 1] if n <= len(coefs) else tail
    for j in range(s + 2, len(a), 2):
        a[j] = 2.0
    re, im = _about_half_pi(a, s)
    return tuple(re[s::-2]), tuple(im[s - 1::-2]), *math.frexp(1.0 / math.factorial(s + 1))


def _axis_inversion(s: int, z: complex, shift: int) -> complex:
    """_inversion(s, z, shift) for z = iy, |y| >= 2, either sign of zero
    real part, and s <= _AXIS_ORDERS, in float arithmetic.  On the axis
    L = log(-iy) = l - i sgn(y) pi/2 with l = log|y|, so the polynomial
    part is two real polynomials in l, summed by Horner's rule in l^2
    from _axis_plan(s, shift); odd powers of i pi/2 carry -sgn(y), so the
    value is worked out for y < 0 and conjugated for y > 0.  For shift =
    1 the tail 2 sum_{j>s} L^j/j! re-expands to 2i sum_{k>s, k-s odd}
    l^k/k! (for y < 0), a real series whose terms are all positive: it
    steps l^k/k! by l^2/((k+1)(k+2)) from l^(s+1)/(s+1)!, formed through
    frexp so that no power of l overflows, until its terms pass k = l
    and fall below _SUM_EPS of its sum.  The series at 1/z = i/|y| (for y < 0) is _axis_sum's on the
    (s, 1 + shift) table, which stops inside the table as 1/|y| <= 1/2.
    """
    re_coefs, im_coefs, tail_frac, tail_exp = _axis_plan(s, shift)
    y = z.imag
    r = abs(y)
    ell = math.log(r)
    x = ell * ell
    re = im = 0.0
    for c in re_coefs:
        re = re * x + c
    for c in im_coefs:
        im = im * x + c
    odd = s % 2
    if odd:
        re *= ell
    else:
        im *= ell
    if shift:
        frac, exp = math.frexp(ell)
        power = math.ldexp(frac ** (s + 1) * tail_frac, exp * (s + 1) + tail_exp)
        j = float(s + 1)
        acc = power
        while power:
            power *= x / ((j + 1.0) * (j + 2.0))
            j += 2.0
            acc += power
            if power <= _SUM_EPS * acc and j > ell:
                break
        im += 2.0 * acc
    u = 1.0 / r
    first, rows = _series_powers(s, 1.0 + shift)
    ser_re, ser_im = _axis_sum(rows, u, _SERIES_EPS * first, first)
    # w Phi(w, s, 1) or w^2 Phi(w, s, 2) at w = iu
    if shift:
        u *= u
        inner_re, inner_im = -u * ser_re, -u * ser_im
    else:
        inner_re, inner_im = -u * ser_im, u * ser_re
    if odd:
        re, im = re + inner_re, im + inner_im
    else:
        re, im = re - inner_re, im - inner_im
    return complex(re, im if y < 0.0 else -im)


def _li(s: int, z: complex, r: float, shift: int = 0) -> complex:
    """Li_s(z) - shift * z off the series disk, r = |z| > 1/2: the one
    choice among its sums.  At z = iy, either sign of zero real part, up
    to s = _AXIS_ORDERS, the float paths: _axis_log_series below |z| =
    _INVERSION_RADIUS and _axis_inversion from there on.  Off the axis,
    and past that order, the complex _log_series and _inversion.
    """
    if z.real == 0.0 and s <= _AXIS_ORDERS:
        if r < _INVERSION_RADIUS:
            return _axis_log_series(s, z, shift)
        return _axis_inversion(s, z, shift)
    if r < _INVERSION_RADIUS:
        return _log_series(s, z, shift)
    return _inversion(s, z, shift)


def polylog(s: int, z: complex) -> complex:
    """Polylogarithm Li_s(z) = sum_{n>=1} z^n / n^s for integer s >= 1.

    Branches: the power series for |z| <= 1/2, -log(1-z) for s = 1,
    z Phi(z, s, 1) by its defining sum for Re z <= 0 at the orders where
    it stops within _DIRECT_TERMS terms, Crandall's log-series for
    1/2 < |z| < 2, the inversion formula for |z| >= 2, each of the last
    two in float arithmetic on the imaginary axis up to s =
    _AXIS_ORDERS; _li chooses among the last two's sums.  z = 1
    diverges for s = 1 and is zeta(s) for s >= 2; an infinite or NaN z,
    and an s that is not an int >= 1 converting to a double, raise
    DomainError.
    """
    z = _complex(z)
    _check_order(s)
    if z == 1.0:
        if s == 1:
            raise DomainError("Li_1(1) diverges")
        return complex(_zeta_pair(s)[0])
    if _on_cut(z):
        raise DomainError(f"z = {z!r} lies on the singular ray [1, inf)")
    try:
        r = abs(z)
    except OverflowError:
        raise DomainError(f"|z| passes the largest double at z={z!r}") from None
    if r <= _SERIES_RADIUS:
        return z * _lerch_series(z, s, 1.0)
    if s == 1:
        return -cmath.log(1.0 - z)
    if z.real <= 0.0 and r <= _direct_radius(s, 1.0):
        return z * _lerch_direct(z, s, 1.0)
    return _li(s, z, r)

