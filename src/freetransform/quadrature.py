"""Adaptive complex-valued quadrature on finite and half-infinite intervals.

The core rule is the 15-point Kronrod extension of 7-point Gauss on each
panel.  All nodes are interior, so integrands may be singular (but
integrable) at the endpoints; they are simply never evaluated there.
Panels are split adaptively, worst error first, under a global budget.

Every integrand is a vector integrand: it returns a sequence of m >= 1
values per node, all integrated on one mesh, so a weight that several
integrands share is evaluated once per node.  The loop splits the panel
with the largest component error while any component's total error
exceeds the tolerance.  integrate_finite, integrate_semi_infinite and
laplace_transform are its m = 1 calls.  gamma_average forms the shared
weight itself and passes it to its integrand f(h, weight) with the node's
h, and f returns its m values already weighted, so no second list is
built per node.  _worst is the package's one max that keeps a
NaN: it picks the panel to split here, and folds the deviations of
transforms' structural check and of verify.

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

import cmath
import heapq
import math
from collections.abc import Callable

from ._records import record
from .errors import (DomainError, InvalidInput, MaxSubdivisionError, NonFiniteError, _callable,
                     _real)

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
# a panel's error estimate is held to at least 50 eps times its weighted
# absolute sum, as in QUADPACK, where that sum exceeds _RESABS_FLOOR
_EPS50 = 50.0 * _EPMACH
_RESABS_FLOOR = _UFLOW / _EPS50
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


def _kronrod_panel(f, lo: float, hi: float, m: int):
    """Apply the G7/K15 pair on [lo, hi] to every component of f.

    f returns a sequence of m values per node, and the panel returns
    (kronrod values, error estimates, evaluation count) with one entry
    per component.  Samples may be float, int or complex; they are
    summed as returned, and only each panel value is made complex.
    InvalidInput names a node that returns other than m values.
    """
    isfinite = math.isfinite
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    if not lo < center < hi:
        # thinner than one ulp; nothing representable left to sample
        return [0.0] * m, [0.0] * m, 0
    abs_half = abs(half)

    nodes = [center]
    for x in _XGK[:7]:
        x *= half
        nodes += (center - x, center + x)
    if nodes[1] <= lo or nodes[2] >= hi:
        # keep the rule strictly open: a node that rounds onto a panel
        # edge is pulled one step inward.  Rounding is monotone in the
        # offset, so an inner node can reach an edge only where the
        # outermost pair does
        inner_lo, inner_hi = math.nextafter(lo, hi), math.nextafter(hi, lo)
        for i in range(1, 15, 2):
            if nodes[i] <= lo:
                nodes[i] = inner_lo
            if nodes[i + 1] >= hi:
                nodes[i + 1] = inner_hi

    w0, w1, w2, w3, w4, w5, w6, w7 = _WGK
    g0, g1, g2, g3 = _WG
    values, errs = [], []
    # Python float arithmetic raises where IEEE would give inf or NaN;
    # from the integrand either means the same as a non-finite sample
    try:
        rows = list(map(f, nodes))
        if list(map(len, rows)).count(m) != 15:
            for x, row in zip(nodes, rows):
                if len(row) != m:
                    raise InvalidInput(
                        f"integrand returned {len(row)} values at {x!r}, expected {m}")
        for col in zip(*rows):
            # the sums run left to right, in the order of QUADPACK's qk15
            fc, a0, b0, a1, b1, a2, b2, a3, b3, a4, b4, a5, b5, a6, b6 = col
            s1, s3, s5 = a1 + b1, a3 + b3, a5 + b5
            resk = (w7 * fc + w0 * (a0 + b0) + w1 * s1 + w2 * (a2 + b2) + w3 * s3
                    + w4 * (a4 + b4) + w5 * s5 + w6 * (a6 + b6))
            resg = g3 * fc + g0 * s1 + g1 * s3 + g2 * s5
            resabs = (w7 * abs(fc) + w0 * (abs(a0) + abs(b0)) + w1 * (abs(a1) + abs(b1))
                      + w2 * (abs(a2) + abs(b2)) + w3 * (abs(a3) + abs(b3))
                      + w4 * (abs(a4) + abs(b4)) + w5 * (abs(a5) + abs(b5))
                      + w6 * (abs(a6) + abs(b6)))
            if not isfinite(resabs):
                # a non-finite sample, or finite ones whose sum overflows
                for x, y in zip(nodes, col):
                    if not cmath.isfinite(y):
                        raise NonFiniteError(f"integrand non-finite at {x!r}")

            # Scaled deviation of samples from the panel mean; this is what
            # makes the error estimate honest on nearly-singular panels.
            h = 0.5 * resk
            resasc = (w7 * abs(fc - h) + w0 * (abs(a0 - h) + abs(b0 - h))
                      + w1 * (abs(a1 - h) + abs(b1 - h)) + w2 * (abs(a2 - h) + abs(b2 - h))
                      + w3 * (abs(a3 - h) + abs(b3 - h)) + w4 * (abs(a4 - h) + abs(b4 - h))
                      + w5 * (abs(a5 - h) + abs(b5 - h)) + w6 * (abs(a6 - h) + abs(b6 - h)))

            resabs *= abs_half
            resasc *= abs_half
            # min(1.0, r) and max(floor, err) as comparisons: each keeps
            # its first argument unless the second is strictly smaller or
            # larger, so a NaN r or err comes out as min and max give it
            err = abs((resk - resg) * half)
            if resasc != 0.0 and err != 0.0:
                r = (200.0 * err / resasc) ** 1.5
                err = resasc * (r if r < 1.0 else 1.0)
            if resabs > _RESABS_FLOOR:
                floor = _EPS50 * resabs
                if not err > floor:
                    err = floor
            values.append(complex(resk * half))
            errs.append(err)
    except (OverflowError, ZeroDivisionError) as exc:
        raise NonFiniteError(
            f"integrand raised {type(exc).__name__} on [{lo!r}, {hi!r}]") from exc
    return values, errs, 15


def _worst(*values: float) -> float:
    """The largest of values, or NaN if any of them is NaN.

    max() keeps its running value when compared against a NaN; a panel
    error, an error total or a verify deviation folded with this shows a
    NaN instead of losing it.
    """
    worst = -math.inf
    for v in values:
        if v != v:
            return v
        if v > worst:
            worst = v
    return worst


def _integrate(f, m: int, lo: float, hi: float,
               tol: float) -> list[IntegrationResult]:
    """Integrate the m components of f over (lo, hi) on one adaptive mesh.

    f returns a sequence of m values per node; a node that returns other
    than m values raises InvalidInput.  The panel with the largest
    component error is split while any component's total error exceeds
    tol, and all components share the panel budget; each result counts
    every node of the mesh.  Errors name the component only for m > 1.
    """
    lo, hi, tol = _real(lo, "lo"), _real(hi, "hi"), _real(tol, "tol", positive=True)
    if not lo < hi:
        raise InvalidInput(f"need lo < hi, got ({lo!r}, {hi!r})")

    values, errs, evals = _kronrod_panel(f, lo, hi, m)
    # heap of (-largest error, insertion id, lo, hi, values, errors)
    counter = 0
    panels = [(-_worst(*errs), counter, lo, hi, values, errs)]
    totals = list(errs)
    comps = range(m)

    # a NaN total ends the loop as if it had converged
    while _worst(*totals) > tol and len(panels) < _MAX_PANELS:
        neg, _, a, b, v, e = heapq.heappop(panels)
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            # panel no longer splittable in floating point: keep as is
            counter += 1
            heapq.heappush(panels, (0.0, counter, a, b, v, e))
            continue
        v1, e1, n1 = _kronrod_panel(f, a, mid, m)
        v2, e2, n2 = _kronrod_panel(f, mid, b, m)
        evals += n1 + n2
        totals = [t + (x + y - z) for t, x, y, z in zip(totals, e1, e2, e)]
        counter += 1
        heapq.heappush(panels, (-_worst(*e1), counter, a, mid, v1, e1))
        counter += 1
        heapq.heappush(panels, (-_worst(*e2), counter, mid, b, v2, e2))

    def where(i):
        return f" in component {i}" if m > 1 else ""

    for i in comps:
        if math.isnan(totals[i]):
            # a NaN estimate ends the loop above as if it had converged;
            # it comes from panel sums of finite samples that overflow
            raise NonFiniteError(
                f"error estimate is NaN{where(i)}: the integrand's panel sums overflow")
    for i in comps:
        if totals[i] > tol:
            raise MaxSubdivisionError(
                f"panel budget {_MAX_PANELS} exhausted{where(i)}: "
                f"error {totals[i]:.3e} > tol {tol:.3e}")

    # correctly rounded sums do not depend on the order of the panels
    return [IntegrationResult(complex(math.fsum(p[4][i].real for p in panels),
                                      math.fsum(p[4][i].imag for p in panels)),
                              math.fsum(p[5][i] for p in panels), evals)
            for i in comps]


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
    f = _callable(f, "f")
    return _integrate(lambda s: (f(s),), 1, lo, hi, tol)[0]


def integrate_semi_infinite(
    f: Callable[[float], complex],
    tol: float = 1e-10,
) -> IntegrationResult:
    """Integrate f over (0, inf) to absolute tolerance tol.

    Substitutes u = (1 - v)/v and integrates over v in (0, 1).  A smooth
    f that decays exponentially, like u^k e^-u, or algebraically, like
    1/u^2, becomes an integrand that vanishes smoothly or stays bounded
    at v = 0.
    """
    f = _callable(f, "f")
    return _integrate_half_line(lambda u, x: (f(u) / x / x,), 1, tol)[0]


def _integrate_half_line(f, m: int, tol: float,
                         split: float = 0.0) -> list[IntegrationResult]:
    """integrate_semi_infinite for the m components of f (as in
    _integrate), on one mesh.

    With split > 0, (0, split) is integrated directly and (split, inf)
    through the substitution, each to tol/2.  Split at a sharp peak of
    f: a peak far out on the half line can otherwise fall between the
    nodes of the first panel, which then return about 0 with a tiny
    error estimate.

    f(u, x) returns the m integrands at u divided twice by x: on the chart
    u = split + (1 - x)/x that is its Jacobian 1/x^2, and on the head
    (0, split) x = 1.0.  A weight that the m components share takes the
    Jacobian once per node; two divisions, because x * x underflows to
    0 for x below 1e-162, where a divergent integrand can drive
    bisection.
    """
    def chart(x: float):
        return f(split + (1.0 - x) / x, x)

    if split == 0.0:
        return _integrate(chart, m, 0.0, 1.0, tol)
    head = _integrate(lambda u: f(u, 1.0), m, 0.0, split, 0.5 * tol)
    tail = _integrate(chart, m, 0.0, 1.0, 0.5 * tol)
    return [IntegrationResult(h.value + t.value, h.error_estimate + t.error_estimate,
                              h.evaluations + t.evaluations)
            for h, t in zip(head, tail)]


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
    g = _callable(g, "g")
    t, tol = _real(t, "t", positive=True), _real(tol, "tol", positive=True)

    def integrand(u: float, x: float) -> tuple:
        damp = math.exp(-t * u)
        if damp == 0.0:
            return (0.0,)
        return (g(u) * damp / x / x,)

    return _integrate_half_line(integrand, 1, tol, 1.0)[0]


def gamma_average(f, m: int, s: float, v: float,
                  tol: float) -> list[IntegrationResult]:
    """Evaluate int_0^inf q(e^-t) t^(s-1) e^(-v t)/Gamma(s) dt for the m
    components of q, s >= 1: the Lerch integral representation, and each
    built-in kernel's defining integral with h = e^-t.  f(h, weight)
    returns the sequence of the m values q(h) * weight: the node's weight
    is f's to apply, as the last multiply of each value.

    In tau = v t the weight is v^-s times the gamma density, of mass 1,
    formed in log space relative to its mode tau = s - 1.  The chart's
    unit is the density's width sqrt(s) and it splits at the mode; the
    integrals are taken to tol relative to v^-s, then scaled by it.  All
    components share one mesh: per node, h and the real weight (density,
    width and the chart's Jacobian) are formed once and passed to f, and
    each component costs one multiply in f.  Raises DomainError above
    order _GAMMA_MAX_ORDER and where v^-s overflows.
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

    def integrand(y: float, x: float):
        tau = width * y
        dev = tau - mode
        # mode log(tau/mode) - dev; near the mode log1p rounds to about
        # eps sqrt(s) where log(tau) gives eps s log s
        log_rel = -dev
        if mode:
            log_rel += mode * (math.log1p(dev / mode) if 2.0 * dev > -mode
                               else math.log(tau) - math.log(mode))
        density = math.exp(log_top + log_rel)
        return f(math.exp(-tau / v), density * width / x / x)

    return [IntegrationResult(r.value * mass, r.error_estimate * mass, r.evaluations)
            for r in _integrate_half_line(integrand, m, tol, mode / width)]
