"""Kernel families for random-integral maps of infinitely divisible laws.

A family pairs an integrand kernel h with a deterministic time change r
on an interval; the associated transform data are the moments

    c = int h dr,    d = int h^2 dr,

and the Pick function  g(z) = int h(s) / (z h(s) + 1) dr(s)  (sign +1
for non-decreasing r, -1 for non-increasing r, in which case the
denominator is z h - 1).

Each built-in family is declared once, in FAMILIES: its lowest order k,
its closed form, in which g is one scaled Hurwitz-Lerch value,
g(z) = scale * Phi(-z, s, v), and its quadrature oracle, the defining
integral on the family's chart:

  sself(k)   h(s) = s on (0,1], dr = (-log s)^(k-1)/(k-1)! ds
             (iterated shrink-scaling; c = 2^-k, d = 3^-k,
              g(z) = Phi(-z, k, 2)); charted by s = e^-w as
             h = e^-w, dr = w^(k-1) e^-w/(k-1)! dw on (0, inf)
  ubeta(k)   h(s) = s on (0,1], dr = k s^(k-1) ds
             (power time change; c = k/(k+1), d = k/(k+2),
              g(z) = k Phi(-z, 1, k+1))
  lclass(k)  h(s) = e^-s on (0,inf), dr = s^k/k! ds
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

    A built-in family is fixed by its tag and order k; FAMILIES holds the
    rest.  For CUSTOM kernels on (lo, hi) the time change is supplied
    either as a density (r_density = dr/ds, signed) or as a step function
    via jumps ((location, jump size) pairs, jumps all of one sign).
    increasing declares the monotonicity of r and fixes the sign
    convention.
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
        if self.tag == CUSTOM:
            if self.h is None:
                raise InvalidInput("custom kernel needs h")
            if (self.r_density is None) == (self.jumps is None):
                raise InvalidInput(
                    "custom kernel needs exactly one of r_density or jumps")
            return
        if self.tag not in FAMILIES:
            raise InvalidInput(f"unknown kernel tag {self.tag!r}")
        lowest, k = FAMILIES[self.tag].lowest, self.k
        if isinstance(k, bool) or not isinstance(k, int) or k < lowest:
            raise InvalidInput(f"{self.tag} needs an integer k >= {lowest}, got {k!r}")


def sself(k: int) -> KernelFamily:
    """Iterated shrink-scaling family of order k."""
    return KernelFamily(tag=SSELF, k=k)


def ubeta(k: int) -> KernelFamily:
    """Power-time-change family of order k."""
    return KernelFamily(tag=UBETA, k=k)


def lclass(k: int) -> KernelFamily:
    """Exponential-kernel family of order k."""
    return KernelFamily(tag=LCLASS, k=k)


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
# the built-in families

# e^-u is 0.0 in double precision from u = 745.14 on
_EXP_UNDERFLOW = 745.2
# up to this order n, the gamma weight u^n e^-u/n! has all but 1e-21 of
# its mass below _EXP_UNDERFLOW, and (u/b)^n below stays finite
_HALF_LINE_MAX_ORDER = 500


def _factorial_root(n: int) -> float:
    """b = (n!)^(1/n), so that the weight u^n/n! = (u/b)^n stays finite
    with no log or exp per point.  Half-line weights are 0 where the
    kernel e^-u, and with it the integrand, has underflowed."""
    if n > _HALF_LINE_MAX_ORDER:
        raise DomainError(f"half-line oracle of order {n} > {_HALF_LINE_MAX_ORDER}: "
                          f"its weight peaks where e^-u underflows")
    return math.exp(math.lgamma(n + 1) / n) if n else 1.0


def _exp_kernel(u: float) -> float:
    return math.exp(-u)


def _sself_oracle(k: int):
    # s = e^-w: the log weight on (0, 1] becomes a gamma density.  Unsplit,
    # the oracle agrees with the closed forms to 6e-12 for k up to 200.
    n, b = k - 1, _factorial_root(k - 1)
    return (_exp_kernel,
            lambda w: (w / b) ** n * math.exp(-w) if w < _EXP_UNDERFLOW else 0.0,
            math.inf, 0.0)


def _lclass_oracle(k: int):
    # the integrand s^k e^-s/k! peaks at s = k
    b = _factorial_root(k)
    return (_exp_kernel, lambda s: (s / b) ** k if s < _EXP_UNDERFLOW else 0.0,
            math.inf, float(k))


@dataclass(frozen=True)
class _Family:
    """A built-in family of order k >= lowest.

    closed_form(k) = (c, d, scale, s, v), g(z) = scale * Phi(-z, s, v).
    oracle(k) = (h, weight, hi, split): int f(h) dr is the integral of
    f(h(u)) weight(u) over u in (0, hi), a half line split at split.
    """

    lowest: int
    closed_form: Callable[[int], tuple]
    oracle: Callable[[int], tuple]


FAMILIES = {
    SSELF: _Family(1, lambda k: (2.0 ** -k, 3.0 ** -k, 1.0, k, 2.0), _sself_oracle),
    UBETA: _Family(1, lambda k: (k / (k + 1.0), k / (k + 2.0), float(k), 1, k + 1.0),
                   lambda k: (lambda s: s, lambda s: k * s ** (k - 1), 1.0, 0.0)),
    LCLASS: _Family(0, lambda k: (1.0, 2.0 ** -(k + 1), 1.0, k + 1, 1.0), _lclass_oracle),
}


# ---------------------------------------------------------------------------
# closed forms

def const_c(fam: KernelFamily) -> float:
    """First kernel moment c = int h dr (closed form for built-ins)."""
    if fam.tag == CUSTOM:
        return const_c_quad(fam).value.real
    return FAMILIES[fam.tag].closed_form(fam.k)[0]


def const_d(fam: KernelFamily) -> float:
    """Second kernel moment d = int h^2 dr (closed form for built-ins)."""
    if fam.tag == CUSTOM:
        return const_d_quad(fam).value.real
    return FAMILIES[fam.tag].closed_form(fam.k)[1]


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
    c, d, scale, s, v = FAMILIES[fam.tag].closed_form(fam.k)
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

def _integrate_kernel(fam: KernelFamily, f, tol: float) -> IntegrationResult:
    """int f(h) dr over the family: a finite sum over the jumps of a step
    kernel, else the integral of f(h(u)) dr/du on the family's chart (a
    built-in's oracle, or a CUSTOM density as given)."""
    if fam.jumps is not None:
        return IntegrationResult(sum(j * f(fam.h(s)) for s, j in fam.jumps),
                                 0.0, len(fam.jumps))
    if fam.tag == CUSTOM:
        h, weight, lo, hi, split = fam.h, fam.r_density, fam.lo, fam.hi, 0.0
    else:
        h, weight, hi, split = FAMILIES[fam.tag].oracle(fam.k)
        lo = 0.0
    if math.isinf(hi):
        # integrate_semi_infinite starts at 0
        return integrate_semi_infinite(lambda w: f(h(lo + w)) * weight(lo + w),
                                       tol, split=split)
    return integrate_finite(lambda u: f(h(u)) * weight(u), lo, hi, tol)


def const_c_quad(fam: KernelFamily, tol: float = 1e-10) -> IntegrationResult:
    """c = int h dr by direct integration (finite sum for step kernels)."""
    return _integrate_kernel(fam, lambda hv: hv, tol)


def const_d_quad(fam: KernelFamily, tol: float = 1e-10) -> IntegrationResult:
    """d = int h^2 dr by direct integration."""
    return _integrate_kernel(fam, lambda hv: hv * hv, tol)


def kernel_g_quad(fam: KernelFamily, z: complex, tol: float = 1e-10) -> IntegrationResult:
    """g(z) = int h/(z h +- 1) dr by direct integration.

    The sign in the denominator follows the declared monotonicity:
    +1 when r is non-decreasing, -1 when non-increasing.
    """
    z = complex(z)
    sign = 1.0 if fam.increasing else -1.0
    return _integrate_kernel(fam, lambda hv: hv / (z * hv + sign), tol)


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
