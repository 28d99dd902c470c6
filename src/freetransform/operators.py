"""Differential operators acting on transform evaluators.

Two first-order operators lower the class hierarchies by one level each:

    (2 - t d/dt)  V   one level down the iterated shrink-scaling classes,
    (1 - t d/dt)  V   one level down the selfdecomposable classes.

With u = log t, t d/dt = d/du, and a power is applied in one pass as
(a - d/du)^n V = sum_m C(n, m) a^(n-m) (-d/du)^m V.  Derivatives are
numerical, so the operators apply to arbitrary evaluators, including
quadrature-backed ones; no lowered evaluator is differentiated again.

derivative_t is the plain dV/dt of one point.  filtration_limit_check
gives the power-time-change classes' gap to their k -> infinity limit,
the plain transform, at k = 10, 100 and 1000; verify's limits suite
judges the gaps.
"""

from __future__ import annotations

import math
import sys

from ._records import record
from .errors import DomainError, InvalidInput, StepError, _callable, _real, _shown
from .measures import LevyTriple
from .transforms import Evaluator, transform_ubeta, voiculescu_id

_MAX_POWER = 6  # largest n of a lowering power; see _lowering


@record
class TransformEvaluator:
    """A transform as a function of t > 0, with a label for reports."""

    fn: Evaluator
    label: str = ""

    def _checked(self):
        _callable(self.fn, "fn")
        return self

    def __call__(self, t: float) -> complex:
        return self.fn(t)


def _as_fn(V) -> Evaluator:
    return V.fn if isinstance(V, TransformEvaluator) else _callable(V, "V")


def derivative_t(V, t: float, h: float) -> complex:
    """dV/dt at t by central differences with one Richardson step.

    Uses (4 D_{h/2} - D_h)/3, accurate to O(h^4).  Requires t - 2h > 0
    so every evaluation stays safely on the positive axis.
    """
    fn = _as_fn(V)
    t, h = _real(t, "t", DomainError), _real(h, "step", StepError, True)
    if t - 2.0 * h <= 0.0:
        raise StepError(f"step {h!r} too large for evaluation point {t!r}")
    d_full = (fn(t + h) - fn(t - h)) / (2.0 * h)
    d_half = (fn(t + 0.5 * h) - fn(t - 0.5 * h)) / h
    return (4.0 * d_half - d_full) / 3.0


def _lowering(a: float, V, n) -> TransformEvaluator:
    """Evaluator of (a - t d/dt)^n V, for 1 <= n <= _MAX_POWER.

    Each (d/du)^m V is the central m-th difference in u = log t with
    steps h and h/2, combined as (4 D_{h/2} - D_h)/3: its error is
    O(h^4) while rounding grows like eps/h^m, and h = 4 eps^(1/(m+4))
    balances the two.  n = 1, 2, 3 cost 5, 9 and 17 evaluations of V;
    the error grows with n (3e-8 at n = 4, 1e-6 at 6, 2e-5 at 8).
    DomainError names t and n where a difference node above t overflows.
    """
    if isinstance(n, bool) or not isinstance(n, int) or not 1 <= n <= _MAX_POWER:
        raise InvalidInput(f"n must be an integer in [1, {_MAX_POWER}], got {_shown(n)}")
    fn = _as_fn(V)

    def lowered(t: float) -> complex:
        t = _real(t, "t", DomainError, True)
        u, v0 = math.log(t), fn(t)  # v0 is the centre of each even-order difference

        def node(x: float) -> complex:
            try:
                tx = math.exp(x)
            except OverflowError:
                raise DomainError(f"lowered transform at t={t!r}, n={n}: the "
                                  f"difference node exp({x!r}) overflows") from None
            return fn(tx)

        def difference(m: int, step: float) -> complex:
            return sum((-1) ** j * math.comb(m, j)
                       * (v0 if 2 * j == m else node(u + (0.5 * m - j) * step))
                       for j in range(m + 1)) / step ** m

        acc = a ** n * v0
        for m in range(1, n + 1):
            h = 4.0 * sys.float_info.epsilon ** (1.0 / (m + 4))
            d_m = (4.0 * difference(m, 0.5 * h) - difference(m, h)) / 3.0
            acc += math.comb(n, m) * a ** (n - m) * (-1) ** m * d_m
        return acc

    power = "" if n == 1 else f"^{n}"
    label = f"({a:g} - t d/dt){power} {getattr(V, 'label', '')}"
    return TransformEvaluator(fn=lowered, label=label.strip())


def lower_shrink_class(V, n: int = 1) -> TransformEvaluator:
    """(2 - t d/dt)^n V: n levels down the shrink-scaling hierarchy."""
    return _lowering(2.0, V, n)


def lower_selfdec_class(V, n: int = 1) -> TransformEvaluator:
    """(1 - t d/dt)^n V: n levels down the selfdecomposable hierarchy."""
    return _lowering(1.0, V, n)


def filtration_limit_check(tr: LevyTriple, t: float) -> tuple[float, float, float]:
    """|transform_ubeta(k) - voiculescu_id| at k = 10, 100 and 1000.

    The gap shrinks like 1/k: each tenfold step in k divides it by about
    ten.  verify's limits suite holds the gaps to a strict decrease and
    the ratio of each to the next to a band around ten.
    """
    limit = voiculescu_id(tr, t)
    return tuple(abs(transform_ubeta(k, tr, t) - limit) for k in (10, 100, 1000))
