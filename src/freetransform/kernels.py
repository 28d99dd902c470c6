"""Kernel families for random-integral maps of infinitely divisible laws.

A family pairs an integrand kernel h with a deterministic time change r
on an interval; the associated transform data are the moments

    c = int h dr,    d = int h^2 dr,

and the Pick function  g(z) = int h(s) / (z h(s) + 1) dr(s)  (sign +1
for non-decreasing r, -1 for non-increasing r, in which case the
denominator is z h - 1).

Built-in families, each with closed-form moments and a Pick function
that is one scaled Hurwitz-Lerch value, g(z) = scale * Phi(-z, s, v):

  SSELF(k)   h(s) = s on (0,1], dr = (-log s)^(k-1)/(k-1)! ds
             (iterated shrink-scaling; c = 2^-k, d = 3^-k,
              g(z) = Phi(-z, k, 2))
  UBETA(k)   h(s) = s on (0,1], dr = k s^(k-1) ds
             (power time change; c = k/(k+1), d = k/(k+2),
              g(z) = k Phi(-z, 1, k+1))
  LCLASS(k)  h(s) = e^-s on (0,inf), dr = s^k/k! ds
             (exponential kernel; c = 1, d = 2^-(k+1),
              g(z) = Phi(-z, k+1, 1) = -z^-1 Li_{k+1}(-z))

plus CUSTOM kernels given either by a density dr/ds or by the jumps of
a monotone step function r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from .errors import DomainError, InvalidInput
from .measures import FiniteMeasure
from .quadrature import IntegrationResult, integrate_finite, integrate_semi_infinite
from .specfun import lerch_phi

SSELF = "sself"
UBETA = "ubeta"
LCLASS = "lclass"
CUSTOM = "custom"


@dataclass(frozen=True)
class KernelFamily:
    """Descriptor of one (h, r) kernel pair.

    For CUSTOM kernels the time change is supplied either as a density
    (r_density = dr/ds, signed) or as a step function via jumps
    ((location, jump size) pairs, jumps all of one sign).  increasing
    declares the monotonicity of r and fixes the sign convention.
    """

    tag: str
    k: int = 0
    h: Optional[Callable[[float], float]] = None
    r_density: Optional[Callable[[float], float]] = None
    jumps: Optional[tuple[tuple[float, float], ...]] = None
    lo: float = 0.0
    hi: float = 1.0
    increasing: bool = True

    def __post_init__(self):
        if self.tag not in (SSELF, UBETA, LCLASS, CUSTOM):
            raise InvalidInput(f"unknown kernel tag {self.tag!r}")
        if self.tag in (SSELF, UBETA) and self.k < 1:
            raise InvalidInput(f"{self.tag} needs k >= 1, got {self.k!r}")
        if self.tag == LCLASS and self.k < 0:
            raise InvalidInput(f"lclass needs k >= 0, got {self.k!r}")
        if self.tag == CUSTOM:
            if self.h is None:
                raise InvalidInput("custom kernel needs h")
            if (self.r_density is None) == (self.jumps is None):
                raise InvalidInput(
                    "custom kernel needs exactly one of r_density or jumps")


def sself(k: int) -> KernelFamily:
    """Iterated shrink-scaling family of order k >= 1."""
    return KernelFamily(tag=SSELF, k=k, lo=0.0, hi=1.0)


def ubeta(k: int) -> KernelFamily:
    """Power-time-change family of order k >= 1."""
    return KernelFamily(tag=UBETA, k=k, lo=0.0, hi=1.0)


def lclass(k: int) -> KernelFamily:
    """Exponential-kernel family of order k >= 0 (half-line)."""
    return KernelFamily(tag=LCLASS, k=k, lo=0.0, hi=math.inf)


def custom_density(h, r_density, lo: float, hi: float,
                   increasing: bool = True) -> KernelFamily:
    """Custom kernel with absolutely continuous time change."""
    return KernelFamily(tag=CUSTOM, h=h, r_density=r_density,
                        lo=lo, hi=hi, increasing=increasing)


def custom_step(h, jumps, increasing: bool = True) -> KernelFamily:
    """Custom kernel whose time change is a monotone step function.

    jumps: sequence of (location, jump) pairs; jumps must be > 0 for an
    increasing r and < 0 for a decreasing one.
    """
    jumps = tuple((float(s), float(j)) for s, j in jumps)
    if not jumps:
        raise InvalidInput("custom step kernel needs at least one jump")
    for s, j in jumps:
        if not (math.isfinite(s) and math.isfinite(j)):
            raise InvalidInput(f"non-finite jump ({s!r}, {j!r})")
        if increasing and j <= 0.0:
            raise InvalidInput(f"increasing step function needs positive jumps, got {j!r}")
        if not increasing and j >= 0.0:
            raise InvalidInput(f"decreasing step function needs negative jumps, got {j!r}")
    lo = min(s for s, _ in jumps)
    hi = max(s for s, _ in jumps)
    return KernelFamily(tag=CUSTOM, h=h, jumps=jumps, lo=lo, hi=hi,
                        increasing=increasing)


# ---------------------------------------------------------------------------
# closed forms

# (c, d, scale, s, v) of each built-in family as a function of k:
# c = int h dr, d = int h^2 dr and g(z) = scale * Phi(-z, s, v)
_CLOSED_FORMS = {
    SSELF: lambda k: (2.0 ** -k, 3.0 ** -k, 1.0, k, 2.0),
    UBETA: lambda k: (k / (k + 1.0), k / (k + 2.0), float(k), 1, k + 1.0),
    LCLASS: lambda k: (1.0, 2.0 ** -(k + 1), 1.0, k + 1, 1.0),
}


def const_c(fam: KernelFamily) -> float:
    """First kernel moment c = int h dr (closed form for built-ins)."""
    if fam.tag == CUSTOM:
        return const_c_quad(fam).value.real
    return _CLOSED_FORMS[fam.tag](fam.k)[0]


def const_d(fam: KernelFamily) -> float:
    """Second kernel moment d = int h^2 dr (closed form for built-ins)."""
    if fam.tag == CUSTOM:
        return const_d_quad(fam).value.real
    return _CLOSED_FORMS[fam.tag](fam.k)[1]


def map_data(fam: KernelFamily, tol: float = 1e-10
             ) -> tuple[float, float, Callable[[complex], complex]]:
    """(c, d, g) that fix the family's random-integral map.

    Built-ins take the closed forms, g(z) = scale * Phi(-z, s, v), with
    no check of the singular ray; CUSTOM kernels integrate c, d and each
    value of g to tol.
    """
    if fam.tag == CUSTOM:
        return (const_c_quad(fam, tol).value.real,
                const_d_quad(fam, tol).value.real,
                lambda z: kernel_g_quad(fam, z, tol).value)
    c, d, scale, s, v = _CLOSED_FORMS[fam.tag](fam.k)
    return c, d, lambda z: scale * lerch_phi(-z, s, v)


def kernel_g(fam: KernelFamily, z: complex) -> complex:
    """Pick function g(z) of the family, closed form where available.

    Built-ins assume the + sign (their r is non-decreasing).  The value
    is analytic off the ray (-inf, -1] and satisfies g(0) = c.  CUSTOM
    kernels fall back to quadrature with the declared sign.
    """
    z = complex(z)
    if fam.tag == CUSTOM:
        return kernel_g_quad(fam, z).value
    if z.imag == 0.0 and z.real <= -1.0:
        raise DomainError(f"z = {z!r} lies on the singular ray (-inf, -1]")
    return map_data(fam)[2](z)


# ---------------------------------------------------------------------------
# quadrature paths (oracles for the closed forms; the only route for CUSTOM)

def _integrate_kernel(fam: KernelFamily, f, tol: float,
                      via: str = "auto") -> IntegrationResult:
    """Integrate f(h(s)) dr(s) over the family's interval.

    via selects the integration chart for SSELF: "interval" integrates
    the raw (0,1] form with its logarithmic weight at the nodes of
    (0, 1); "halfline" substitutes s = e^-w, which turns the weight into
    w^(k-1) e^-w, and integrates over w in (0, inf) on the algebraic
    chart w = (1-v)/v, so f sees s = e^-(1-v)/v at an unrelated set of
    nodes.  Both must agree.
    """
    if fam.tag == SSELF:
        k = fam.k
        fac = math.factorial(k - 1)
        if via == "interval":
            return integrate_finite(
                lambda s: f(s) * ((-math.log(s)) ** (k - 1) / fac), 0.0, 1.0, tol)
        return integrate_semi_infinite(
            lambda w: f(math.exp(-w)) * w ** (k - 1) * math.exp(-w) / fac, tol)
    if fam.tag == UBETA:
        k = fam.k
        return integrate_finite(lambda s: f(s) * k * s ** (k - 1), 0.0, 1.0, tol)
    if fam.tag == LCLASS:
        k = fam.k
        fac = math.factorial(k)
        # the weight s^k e^-s / k! peaks at s = k
        return integrate_semi_infinite(
            lambda s: f(math.exp(-s)) * s ** k / fac, tol, split=float(k))
    # CUSTOM with a density
    if fam.r_density is None:
        raise InvalidInput("step kernels are finite sums; no quadrature path")
    h = fam.h
    w = fam.r_density
    if math.isinf(fam.hi):
        return integrate_semi_infinite(lambda s: f(h(s)) * w(s), tol)
    lo, hi = fam.lo, fam.hi
    return integrate_finite(lambda s: f(h(s)) * w(s), lo, hi, tol)


def _step_sum(fam: KernelFamily, f) -> complex:
    return sum(j * f(fam.h(s)) for s, j in fam.jumps)


def const_c_quad(fam: KernelFamily, tol: float = 1e-10) -> IntegrationResult:
    """c = int h dr by direct integration (finite sum for step kernels)."""
    if fam.tag == CUSTOM and fam.jumps is not None:
        return IntegrationResult(_step_sum(fam, lambda hv: hv), 0.0, len(fam.jumps))
    return _integrate_kernel(fam, lambda hv: hv, tol, via="interval")


def const_d_quad(fam: KernelFamily, tol: float = 1e-10) -> IntegrationResult:
    """d = int h^2 dr by direct integration."""
    if fam.tag == CUSTOM and fam.jumps is not None:
        return IntegrationResult(_step_sum(fam, lambda hv: hv * hv), 0.0,
                                 len(fam.jumps))
    return _integrate_kernel(fam, lambda hv: hv * hv, tol, via="interval")


def kernel_g_quad(fam: KernelFamily, z: complex, tol: float = 1e-10,
                  via: str = "auto") -> IntegrationResult:
    """g(z) = int h/(z h +- 1) dr by direct integration.

    The sign in the denominator follows the declared monotonicity:
    +1 when r is non-decreasing, -1 when non-increasing.  For SSELF,
    via="interval" exercises the raw logarithmic-weight chart instead
    of the default half-line substitution; both must agree.
    """
    z = complex(z)
    sign = 1.0 if fam.increasing else -1.0
    if fam.tag == CUSTOM and fam.jumps is not None:
        val = _step_sum(fam, lambda hv: hv / (z * hv + sign))
        return IntegrationResult(val, 0.0, len(fam.jumps))
    return _integrate_kernel(fam, lambda hv: hv / (z * hv + sign), tol, via)


def kernel_g_derivative_quad(fam: KernelFamily, z: complex, n: int,
                             tol: float = 1e-10) -> IntegrationResult:
    """n-th derivative of g at z for a non-decreasing kernel:
    g^(n)(z) = (-1)^n n! int (h/(1+z h))^(n+1) dr."""
    if not fam.increasing:
        raise InvalidInput("derivative formula implemented for the + sign only")
    if not (isinstance(n, int) and n >= 1):
        raise InvalidInput(f"derivative order must be an integer >= 1, got {n!r}")
    z = complex(z)
    fac = (-1) ** n * math.factorial(n)

    def f(hv: float) -> complex:
        return fac * (hv / (1.0 + z * hv)) ** (n + 1)

    if fam.tag == CUSTOM and fam.jumps is not None:
        return IntegrationResult(_step_sum(fam, f), 0.0, len(fam.jumps))
    return _integrate_kernel(fam, f, tol)


# ---------------------------------------------------------------------------
# Pick-Nevanlinna representation of step-kernel g

@dataclass(frozen=True)
class PickRepresentation:
    """Data of the representation g(z) = shift + int (1+zx)/(z-x) m(dx)."""

    shift: float
    measure: FiniteMeasure = field(default_factory=FiniteMeasure)


def pick_representation(h_values, r_jumps) -> PickRepresentation:
    """Representation of g for a step kernel with the + sign.

    Each step contributes 1/(z + 1/h) = u_b + (1 + z x)/(z - x) weighted
    by its jump, where b = 1/h, u_b = b/(1+b^2), and the representing
    atom sits at x = -b with mass 1/(1+b^2).  Steps mapping to the same
    atom location are combined.
    """
    h_values = [float(h) for h in h_values]
    r_jumps = [float(j) for j in r_jumps]
    if len(h_values) != len(r_jumps):
        raise InvalidInput("h_values and r_jumps must have equal length")
    if not h_values:
        raise InvalidInput("need at least one step")
    for h in h_values:
        if not (h > 0.0 and math.isfinite(h)):
            raise InvalidInput(f"kernel values must be positive, got {h!r}")
    for j in r_jumps:
        if not (j > 0.0 and math.isfinite(j)):
            raise InvalidInput(f"jumps must be positive, got {j!r}")

    shift = 0.0
    masses: dict[float, float] = {}
    for h, j in zip(h_values, r_jumps):
        b = 1.0 / h
        denom = 1.0 + b * b
        shift += j * b / denom
        loc = -b
        masses[loc] = masses.get(loc, 0.0) + j / denom
    atoms = tuple(sorted(masses.items()))
    return PickRepresentation(shift=shift, measure=FiniteMeasure(atoms=atoms))


def pick_eval(rep: PickRepresentation, z: complex) -> complex:
    """Evaluate shift + sum (1+zx)/(z-x) m({x}) at z."""
    z = complex(z)
    acc = complex(rep.shift)
    for x, w in rep.measure.atoms:
        acc += w * (1.0 + z * x) / (z - x)
    return acc
