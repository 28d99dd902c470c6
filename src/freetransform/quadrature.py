"""Adaptive complex-valued quadrature on finite and half-infinite intervals.

The core rule is the 15-point Kronrod extension of 7-point Gauss on each
panel.  All nodes are interior, so integrands may be singular (but
integrable) at the endpoints; they are simply never evaluated there.
Panels are split adaptively, worst error first, under a global budget.

Integrals over (0, inf) are reduced to (0, 1) with u = (1 - v)/v.  A
smooth integrand that decays exponentially, such as a u^k e^-u weight or
a Laplace tail, then vanishes smoothly at v = 0, and one with algebraic
decay like 1/u^2 stays bounded there.  The logarithmic map u = -log(v)
would turn u^k e^-u into (-log v)^k and a polynomially growing Laplace
tail into v^(t-1): endpoint singularities that adaptive bisection
resolves only by walking some 40 levels into v = 0, at 4 to 6 times the
evaluations on the package's kernel and Laplace oracles.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable

from ._records import record
from .errors import DomainError, InvalidInput, MaxSubdivisionError, NonFiniteError

# 7-point Gauss / 15-point Kronrod pair on [-1, 1].  Positive abscissae;
# even-index entries are Kronrod-only, odd-index entries (and 0) carry
# the embedded Gauss rule.
_XGK = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993944,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
    0.0,
)
_WGK = (
    0.02293532201052922,
    0.06309209262997855,
    0.1047900103222502,
    0.1406532597155259,
    0.1690047266392679,
    0.1903505780647854,
    0.2044329400752989,
    0.2094821410847278,
)
_WG = (
    0.1294849661688697,
    0.2797053914892767,
    0.3818300505051189,
    0.4179591836734694,
)

_MAX_PANELS = 10_000
_EPMACH = 2.220446049250313e-16
_UFLOW = 2.2250738585072014e-308
# gamma_average's highest order: beyond it the head's first panel can
# miss the mode and return half the mass (in a scan, from s = 5.5e5 at
# tol = 0.1, 1.05e6 at 1e-3 and 2.9e6 at 1e-10)
_GAMMA_MAX_ORDER = 500_000


@record
class IntegrationResult:
    """Value of an integral together with its error estimate."""

    value: complex
    error_estimate: float
    evaluations: int


def _kronrod_panel(f: Callable[[float], complex], lo: float, hi: float):
    """Apply the G7/K15 pair on [lo, hi].

    Returns (kronrod value, error estimate, evaluation count).
    """
    isfinite = math.isfinite
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    if not lo < center < hi:
        # thinner than one ulp; nothing representable left to sample
        return 0.0, 0.0, 0

    # Python float arithmetic raises where IEEE would give inf or NaN;
    # from the integrand either means the same as a non-finite sample
    try:
        fc = complex(f(center))
        if not (isfinite(fc.real) and isfinite(fc.imag)):
            raise NonFiniteError(f"integrand non-finite at {center!r}")
        resk = _WGK[7] * fc
        resg = _WG[3] * fc
        resabs = _WGK[7] * abs(fc)

        samples = [fc]
        for j in range(7):
            x = half * _XGK[j]
            # keep the rule strictly open: a node that rounds onto a panel
            # edge is pulled one step inward
            x1 = center - x
            if x1 <= lo:
                x1 = math.nextafter(lo, hi)
            x2 = center + x
            if x2 >= hi:
                x2 = math.nextafter(hi, lo)
            f1 = complex(f(x1))
            f2 = complex(f(x2))
            if not (isfinite(f1.real) and isfinite(f1.imag)
                    and isfinite(f2.real) and isfinite(f2.imag)):
                bad = x1 if not (isfinite(f1.real) and isfinite(f1.imag)) else x2
                raise NonFiniteError(f"integrand non-finite at {bad!r}")
            resk += _WGK[j] * (f1 + f2)
            resabs += _WGK[j] * (abs(f1) + abs(f2))
            if j % 2 == 1:
                resg += _WG[j // 2] * (f1 + f2)
            samples.append(f1)
            samples.append(f2)
    except (OverflowError, ZeroDivisionError) as exc:
        raise NonFiniteError(
            f"integrand raised {type(exc).__name__} on [{lo!r}, {hi!r}]") from exc

    # Scaled deviation of samples from the panel mean; this is what makes
    # the error estimate honest on nearly-singular panels.
    reskh = 0.5 * resk
    resasc = _WGK[7] * abs(fc - reskh)
    idx = 1
    for j in range(7):
        resasc += _WGK[j] * (abs(samples[idx] - reskh) + abs(samples[idx + 1] - reskh))
        idx += 2

    value = resk * half
    resabs *= abs(half)
    resasc *= abs(half)
    err = abs((resk - resg) * half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        err = max(_EPMACH * 50.0 * resabs, err)
    return value, err, 15


def integrate_finite(
    f: Callable[[float], complex],
    lo: float,
    hi: float,
    tol: float = 1e-10,
) -> IntegrationResult:
    """Integrate f over (lo, hi) to absolute tolerance tol.

    The rule never touches lo or hi, so integrable endpoint
    singularities are acceptable.  Raises MaxSubdivisionError when the
    panel budget is exhausted first, NonFiniteError if f produces a
    NaN/Inf anywhere it is sampled (or raises OverflowError or
    ZeroDivisionError there), or if the panel sums overflow.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)) or not lo < hi:
        raise InvalidInput(f"need finite lo < hi, got ({lo!r}, {hi!r})")
    if not (tol > 0.0 and math.isfinite(tol)):
        raise InvalidInput(f"tol must be positive and finite, got {tol!r}")

    evals = 0
    value, err, n = _kronrod_panel(f, lo, hi)
    evals += n
    # heap of (-error, insertion id, lo, hi, value, error)
    counter = 0
    panels = [(-err, counter, lo, hi, value, err)]
    total_err = err

    while total_err > tol and len(panels) < _MAX_PANELS:
        neg, _, a, b, v, e = heapq.heappop(panels)
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            # panel no longer splittable in floating point: keep as is
            counter += 1
            heapq.heappush(panels, (0.0, counter, a, b, v, e))
            continue
        v1, e1, n1 = _kronrod_panel(f, a, mid)
        v2, e2, n2 = _kronrod_panel(f, mid, b)
        evals += n1 + n2
        total_err += e1 + e2 - e
        counter += 1
        heapq.heappush(panels, (-e1, counter, a, mid, v1, e1))
        counter += 1
        heapq.heappush(panels, (-e2, counter, mid, b, v2, e2))

    if math.isnan(total_err):
        # a NaN estimate ends the loop above as if it had converged; it
        # comes from panel sums of finite samples that overflow
        raise NonFiniteError("error estimate is NaN: the integrand's panel sums overflow")
    if total_err > tol:
        raise MaxSubdivisionError(
            f"panel budget {_MAX_PANELS} exhausted: error {total_err:.3e} > tol {tol:.3e}"
        )

    # correctly rounded sums do not depend on the order of the panels
    value = complex(math.fsum(p[4].real for p in panels),
                    math.fsum(p[4].imag for p in panels))
    return IntegrationResult(value, math.fsum(p[5] for p in panels), evals)


def integrate_semi_infinite(
    f: Callable[[float], complex],
    tol: float = 1e-10,
    *,
    split: float = 0.0,
) -> IntegrationResult:
    """Integrate f over (0, inf) to absolute tolerance tol.

    Substitutes u = (1 - v)/v and integrates over v in (0, 1).  A smooth
    f that decays exponentially, like u^k e^-u, or algebraically, like
    1/u^2, becomes an integrand that vanishes smoothly or stays bounded
    at v = 0.

    With split > 0, (0, split) is integrated directly and (split, inf)
    through the substitution, each to tol/2.  Split at a sharp peak of
    f: a peak far out on the half line can otherwise fall between the
    nodes of the first panel, which then return about 0 with a tiny
    error estimate.
    """
    if not (split >= 0.0 and math.isfinite(split)):
        raise InvalidInput(f"split must be finite and >= 0, got {split!r}")
    if split > 0.0:
        head = integrate_finite(f, 0.0, split, 0.5 * tol)
        tail = integrate_semi_infinite(lambda w: f(split + w), 0.5 * tol)
        return IntegrationResult(
            value=head.value + tail.value,
            error_estimate=head.error_estimate + tail.error_estimate,
            evaluations=head.evaluations + tail.evaluations,
        )

    def g(v: float) -> complex:
        # two divisions: v * v underflows to 0 for v below 1e-162,
        # where a divergent f can drive bisection
        return f((1.0 - v) / v) / v / v

    return integrate_finite(g, 0.0, 1.0, tol)


def laplace_transform(
    g: Callable[[float], complex],
    t: float,
    tol: float = 1e-10,
) -> IntegrationResult:
    """Evaluate int_0^inf g(u) exp(-t u) du for t > 0.

    Split at u = 1: the head integrates directly, which puts any
    integrable singularity of g at u = 0 next to the origin where the
    float grid is dense; the tail goes through the substitution of
    integrate_semi_infinite, where it vanishes smoothly at v = 0.
    """
    if not (t > 0.0 and math.isfinite(t)):
        raise InvalidInput(f"t must be positive and finite, got {t!r}")

    def integrand(u: float) -> complex:
        damp = math.exp(-t * u)
        if damp == 0.0:
            return 0.0
        return g(u) * damp

    return integrate_semi_infinite(integrand, tol, split=1.0)


def gamma_average(q: Callable[[float], complex], s: float, v: float,
                  tol: float) -> IntegrationResult:
    """Evaluate int_0^inf q(e^-t) t^(s-1) e^(-v t)/Gamma(s) dt for s >= 1:
    the Lerch integral representation, and each built-in kernel's
    defining integral with h = e^-t.

    In tau = v t the weight is v^-s times the gamma density, of mass 1,
    formed in log space relative to its mode tau = s - 1.  The chart's
    unit is the density's width sqrt(s) and it splits at the mode; the
    integral is taken to tol relative to v^-s, then scaled by it.
    Raises DomainError above order _GAMMA_MAX_ORDER and where v^-s
    overflows.
    """
    if s > _GAMMA_MAX_ORDER:
        raise DomainError(f"gamma average of order {s!r} > {_GAMMA_MAX_ORDER}: "
                          f"the first panel of its head can miss the peak")
    try:
        mass = v ** -s
    except OverflowError:
        raise DomainError(f"gamma average of order {s!r} at v = {v!r}: "
                          f"v^-s overflows double precision")
    mode = s - 1.0
    width = math.sqrt(s)
    # log mode^mode e^-mode/mode!, the density at its mode: the direct form
    # keeps the rounding of its terms, 1e-12 by mode 2 000, so from mode
    # 100 on it takes Stirling's series, whose next term is below 1e-17
    if mode < 100.0:
        log_top = (mode * math.log(mode) if mode else 0.0) - mode - math.lgamma(s)
    else:
        w = 1.0 / (mode * mode)
        log_top = (-0.5 * math.log(2.0 * math.pi * mode)
                   - (1.0 / 12.0 - w * (1.0 / 360.0 - w / 1260.0)) / mode)

    def integrand(y: float) -> complex:
        tau = width * y
        x = tau - mode
        # mode log(tau/mode) - x; near the mode log1p rounds to about
        # eps sqrt(s) where log(tau) gives eps s log s
        log_rel = -x
        if mode:
            log_rel += mode * (math.log1p(x / mode) if 2.0 * x > -mode
                               else math.log(tau) - math.log(mode))
        return q(math.exp(-tau / v)) * math.exp(log_top + log_rel) * width

    res = integrate_semi_infinite(integrand, tol, split=mode / width)
    return IntegrationResult(res.value * mass, res.error_estimate * mass, res.evaluations)
