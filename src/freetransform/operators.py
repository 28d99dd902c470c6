"""Differential operators acting on transform evaluators.

Two first-order operators lower the class hierarchies by one level each:

    (2 - t d/dt)  V   peels one layer off the iterated shrink-scaling
                      classes,
    (1 - t d/dt)  V   peels one layer off the selfdecomposable classes.

Derivatives are numerical (Richardson-extrapolated central differences)
so the operators apply to arbitrary evaluators, including
quadrature-backed ones.  Repeated application amplifies evaluation
noise by roughly eps/h per level, so iterated powers must widen the
step as they go: operator_power multiplies the relative step by a
fixed factor per level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import InvalidInput, StepError
from .measures import LevyTriple
from .transforms import transform_ubeta, voiculescu_id

Evaluator = Callable[[float], complex]

_DEFAULT_REL_STEP = 1e-3
# growth of the relative step per nesting level; tuned so that three to
# four nested differentiations stay inside the accumulated tolerance
_POWER_STEP_GROWTH = 3.0


@dataclass(frozen=True)
class TransformEvaluator:
    """A transform as a function of t > 0, with a label for reports."""

    fn: Evaluator
    label: str = ""

    def __call__(self, t: float) -> complex:
        return self.fn(t)


def _as_fn(V) -> Evaluator:
    if isinstance(V, TransformEvaluator):
        return V.fn
    if callable(V):
        return V
    raise InvalidInput(f"expected an evaluator, got {V!r}")


def derivative_t(V, t: float, h: float) -> complex:
    """dV/dt at t by central differences with one Richardson step.

    Uses (4 D_{h/2} - D_h)/3, accurate to O(h^4).  Requires t - 2h > 0
    so every evaluation stays safely on the positive axis.
    """
    fn = _as_fn(V)
    if not (h > 0.0 and math.isfinite(h)):
        raise StepError(f"step must be positive and finite, got {h!r}")
    if t - 2.0 * h <= 0.0:
        raise StepError(f"step {h!r} too large for evaluation point {t!r}")
    d_full = (fn(t + h) - fn(t - h)) / (2.0 * h)
    d_half = (fn(t + 0.5 * h) - fn(t - 0.5 * h)) / h
    return (4.0 * d_half - d_full) / 3.0


def lower_shrink_class(V, rel_step: float = _DEFAULT_REL_STEP) -> TransformEvaluator:
    """Evaluator of (2 - t d/dt) V: one level down the shrink-scaling
    hierarchy.  The differentiation step is rel_step * t."""
    fn = _as_fn(V)
    label = getattr(V, "label", "")

    def lowered(t: float) -> complex:
        return 2.0 * fn(t) - t * derivative_t(fn, t, rel_step * t)

    return TransformEvaluator(fn=lowered, label=f"(2 - t d/dt) {label}".strip())


def lower_selfdec_class(V, rel_step: float = _DEFAULT_REL_STEP) -> TransformEvaluator:
    """Evaluator of (1 - t d/dt) V: one level down the selfdecomposable
    hierarchy.  The differentiation step is rel_step * t."""
    fn = _as_fn(V)
    label = getattr(V, "label", "")

    def lowered(t: float) -> complex:
        return fn(t) - t * derivative_t(fn, t, rel_step * t)

    return TransformEvaluator(fn=lowered, label=f"(1 - t d/dt) {label}".strip())


def operator_power(lower, V, n: int) -> TransformEvaluator:
    """Apply a lowering operator n times with per-level step widening.

    The innermost application differentiates the clean evaluator with
    the relative step _DEFAULT_REL_STEP; each further level multiplies
    it by _POWER_STEP_GROWTH, balancing noise amplification against
    truncation error.
    """
    if not (isinstance(n, int) and n >= 1):
        raise InvalidInput(f"n must be an integer >= 1, got {n!r}")
    out = V
    for level in range(n):
        out = lower(out, rel_step=_DEFAULT_REL_STEP * _POWER_STEP_GROWTH ** level)
    return out


@dataclass(frozen=True)
class FiltrationLimitReport:
    """Deviation table for the power-time-change classes against their
    k -> infinity limit (the plain ID transform)."""

    t: float
    ks: tuple[int, ...]
    deviations: tuple[float, ...]
    ratios: tuple[float, ...]  # deviation(k) / deviation(10k) per decade pair
    decreasing: bool
    rate_ok: bool  # every decade ratio within [5, 20], i.e. O(1/k)


def filtration_limit_check(tr: LevyTriple, t: float,
                           ks: Sequence[int] = (10, 100, 1000)) -> FiltrationLimitReport:
    """Measure |transform_ubeta(k) - voiculescu_id| for increasing k.

    The gap must shrink like 1/k: deviations decrease and each tenfold
    step in k divides the gap by roughly ten (accepted band [5, 20]).
    """
    ks = tuple(int(k) for k in ks)
    if any(k < 1 for k in ks) or list(ks) != sorted(set(ks)):
        raise InvalidInput(f"ks must be strictly increasing positive ints, got {ks!r}")
    limit = voiculescu_id(tr, t).value
    devs = tuple(abs(transform_ubeta(k, tr, t).value - limit) for k in ks)

    ratios = []
    for i, k in enumerate(ks):
        for j, kk in enumerate(ks):
            if kk == 10 * k and devs[j] > 0.0:
                ratios.append(devs[i] / devs[j])
    decreasing = all(devs[i] > devs[i + 1] for i in range(len(devs) - 1))
    rate_ok = all(5.0 <= r <= 20.0 for r in ratios)
    return FiltrationLimitReport(t=t, ks=ks, deviations=devs,
                                 ratios=tuple(ratios),
                                 decreasing=decreasing, rate_ok=rate_ok)
