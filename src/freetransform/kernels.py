"""Kernel families for random-integral maps of infinitely divisible laws.

A family pairs an integrand kernel h with a deterministic time change r
on an interval; the associated transform data are the moments

    c = int h dr,    d = int h^2 dr,

and the Pick function  g(z) = int h(s) / (z h(s) + 1) dr(s)  (sign +1
for non-decreasing r, -1 for non-increasing r, in which case the
denominator is z h - 1).

Each built-in family is declared once, in FAMILIES: its lowest order k
and its closed form, in which g is one scaled Hurwitz-Lerch value,
g(z) = scale * Phi(-z, s, v):

  sself(k)   h(s) = s on (0,1], dr = (-log s)^(k-1)/(k-1)! ds
             (iterated shrink-scaling; c = 2^-k, d = 3^-k,
              g(z) = Phi(-z, k, 2))
  ubeta(k)   h(s) = s on (0,1], dr = k s^(k-1) ds
             (power time change; c = k/(k+1), d = k/(k+2),
              g(z) = k Phi(-z, 1, k+1))
  lclass(k)  h(s) = e^-s on (0,inf), dr = s^k/k! ds
             (exponential kernel; c = 1, d = 2^-(k+1),
              g(z) = Phi(-z, k+1, 1) = -z^-1 Li_{k+1}(-z))

With h = e^-t each defining integral int h q(h) dr is the Lerch
integral representation, so the same (scale, s, v) give the quadrature
oracle: scale * quadrature.gamma_average(f, m, s, v), where
f(h, weight) returns the m values q(h) * weight.  kernel_quad_grid
integrates c, d and g over a grid of z on one adaptive mesh: one
function of h and the node's real weight, which is formed once per
node, returns the m integrands [1, h, 1/(z h +- 1) for each z], each
times the weight, so each integrand costs at most one multiply.
const_c_quad, const_d_quad and kernel_g_quad integrate one of them,
m = 1, each on a mesh of its own.

plus CUSTOM kernels given either by a density dr/ds or by the jumps of
a monotone step function r.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections.abc import Callable

from ._records import record
from .errors import (DomainError, InvalidInput, NonFiniteError, _callable, _complex,
                     _instance, _items, _real, _shown)
from .measures import FiniteMeasure
from .quadrature import (IntegrationResult, _integrate, _integrate_half_line,
                         gamma_average)
from .specfun import _over, _route

SSELF = "sself"
UBETA = "ubeta"
LCLASS = "lclass"
CUSTOM = "custom"


@record
class KernelFamily:
    """Descriptor of one (h, r) kernel pair.

    A built-in family is fixed by its tag and order k, the only fields
    it takes; FAMILIES holds the rest.  For CUSTOM kernels on (lo, hi)
    the time change is supplied either as a density (r_density = dr/ds,
    signed) or as a step function via jumps ((location, jump size)
    pairs, jumps all of one sign).  increasing, a bool, declares the
    monotonicity of r and fixes the sign convention.  A density's
    interval has a finite lo < hi, hi finite or +inf; a step function's
    is the span of its jump locations.
    """

    tag: str
    k: int = 0
    h: Callable[[float], float] | None = None
    r_density: Callable[[float], float] | None = None
    jumps: tuple[tuple[float, float], ...] | None = None
    lo: float = 0.0
    hi: float = 1.0
    increasing: bool = True

    def _checked(self):
        # before the tag is looked up: an unhashable one would raise TypeError
        _instance(self.tag, str, "tag")
        if not isinstance(self.increasing, bool):
            raise InvalidInput(f"increasing must be a bool, got {_shown(self.increasing)}")
        if self.tag == CUSTOM:
            _callable(self.h, "h")
            if (self.r_density is None) == (self.jumps is None):
                raise InvalidInput(
                    "custom kernel needs exactly one of r_density or jumps")
            jumps = self.jumps
            if jumps is None:
                _callable(self.r_density, "r_density")
                lo = _real(self.lo, "lo")
                hi = self.hi if self.hi == math.inf else _real(self.hi, "hi")
                if not lo < hi:
                    raise InvalidInput(f"custom kernel needs lo < hi, got ({lo!r}, {hi!r})")
            else:
                jumps = tuple((_real(s, "jump location"), _real(j, "jump"))
                              for s, j in _items(jumps, "jumps", pairs=True))
                if not jumps:
                    raise InvalidInput("custom step kernel needs at least one jump")
                way, sign = (("increasing", "positive") if self.increasing
                             else ("decreasing", "negative"))
                for _, j in jumps:
                    if not (j > 0.0 if self.increasing else j < 0.0):
                        raise InvalidInput(f"{way} step function needs {sign} jumps, got {j!r}")
                lo, hi = min(s for s, _ in jumps), max(s for s, _ in jumps)
            return tuple.__new__(type(self), (*self[:4], jumps, lo, hi, self.increasing))
        if self.tag not in FAMILIES:
            raise InvalidInput(f"unknown kernel tag {_shown(self.tag)}")
        # h, r and their direction are the tag's own
        if self[2:] != (None, None, None, 0.0, 1.0, True):
            raise InvalidInput(f"{self.tag} takes only tag and k: h, r_density, jumps, lo, "
                               f"hi and increasing are a custom kernel's")
        lowest, k = FAMILIES[self.tag].lowest, self.k
        if isinstance(k, bool) or not isinstance(k, int) or k < lowest:
            raise InvalidInput(f"{self.tag} needs an integer k >= {lowest}, got {_shown(k)}")
        if k > sys.float_info.max:  # the closed forms take k as a double
            raise InvalidInput(f"{self.tag} needs k <= {sys.float_info.max!r}")
        return self


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
    return KernelFamily(tag=CUSTOM, h=h, jumps=jumps, increasing=increasing)


# ---------------------------------------------------------------------------
# the built-in families

# ubeta below this order integrates on (0, 1]: 38 evaluations per g at
# k <= 5 against 136; from here on the weight crowds against s = 1, and
# from k of about 7 000 the first panel misses it
_UBETA_CHART_MAX_ORDER = 50


@record
class _Family:
    """A built-in family of order k >= lowest.

    closed_form(k) = (c, d, scale, s, v), g(z) = scale * Phi(-z, s, v);
    the oracle is scale * gamma_average(f, m, s, v).
    """

    lowest: int
    closed_form: Callable[[int], tuple]


FAMILIES = {
    SSELF: _Family(1, lambda k: (2.0 ** -k, 3.0 ** -k, 1.0, k, 2.0)),
    UBETA: _Family(1, lambda k: (k / (k + 1.0), k / (k + 2.0), float(k), 1, k + 1.0)),
    LCLASS: _Family(0, lambda k: (1.0, 2.0 ** -(k + 1), 1.0, k + 1, 1.0)),
}


# ---------------------------------------------------------------------------
# closed forms

def const_c(fam: KernelFamily) -> float:
    """First kernel moment c = int h dr (closed form for built-ins)."""
    if _instance(fam, KernelFamily, "fam").tag == CUSTOM:
        return const_c_quad(fam).value.real
    return FAMILIES[fam.tag].closed_form(fam.k)[0]


def const_d(fam: KernelFamily) -> float:
    """Second kernel moment d = int h^2 dr (closed form for built-ins)."""
    if _instance(fam, KernelFamily, "fam").tag == CUSTOM:
        return const_d_quad(fam).value.real
    return FAMILIES[fam.tag].closed_form(fam.k)[1]


def map_data(fam: KernelFamily) -> tuple[float, float, Callable[[complex], complex],
                                         tuple[float, int, float] | None]:
    """(c, d, g, lerch) that fix the family's random-integral map.

    Built-ins take the closed forms, g(z) = scale * Phi(-z, s, v), bound
    to specfun._route(s, v): no argument checks per point, and none of
    the singular ray; lerch is their (scale, s, v).  CUSTOM kernels
    integrate c, d and each value of g to 1e-10, and lerch is None.
    """
    if _instance(fam, KernelFamily, "fam").tag == CUSTOM:
        return (const_c_quad(fam).value.real,
                const_d_quad(fam).value.real,
                lambda z: kernel_g_quad(fam, z).value,
                None)
    c, d, scale, s, v = FAMILIES[fam.tag].closed_form(fam.k)
    phi = _route(s, v)
    return c, d, lambda z: scale * phi(-z), (scale, s, v)


def kernel_g(fam: KernelFamily, z: complex) -> complex:
    """Pick function g(z) of the family, closed form where available.

    Built-ins assume the + sign (their r is non-decreasing).  The value
    is analytic off the ray (-inf, -1] and satisfies g(0) = c.  CUSTOM
    kernels fall back to quadrature with the declared sign.  A built-in
    checks only z, against that ray, which is lerch_phi's cut at -z, and
    calls specfun._route(s, v) as map_data does: the family checked its
    order when it was built.
    """
    z = _complex(z)
    if _instance(fam, KernelFamily, "fam").tag == CUSTOM:
        return kernel_g_quad(fam, z).value
    if z.imag == 0.0 and z.real <= -1.0:
        raise DomainError(f"z = {z!r} lies on the singular ray (-inf, -1]")
    _, _, scale, s, v = FAMILIES[fam.tag].closed_form(fam.k)
    return scale * _route(s, v)(-z)


# ---------------------------------------------------------------------------
# quadrature paths (oracles for the closed forms; the only route for CUSTOM)

# the tolerance every kernel integral is taken to
_QUAD_TOL = 1e-10


def _integrate_kernel(fam: KernelFamily, f, m: int) -> list[IntegrationResult]:
    """int h q(h) dr over the family for the m components of q, all on
    one mesh, each to _QUAD_TOL: a step kernel's sum, a CUSTOM density as
    given, low ubeta orders on (0, 1], and else the gamma average, whose
    weight holds h = e^-t, so an h that has underflowed to 0 meets no
    division.  f(h, weight) returns the sequence of the m values
    q(h) * weight.  Per node, h and the real weight (h times dr/ds and
    the chart's Jacobian, or the gamma weight) are formed once and passed
    to f, and each component costs one multiply in f."""
    if fam.jumps is not None:
        return _step_sums(fam, f, m)
    k = fam.k
    if fam.tag == CUSTOM:
        h, scale, density, lo, hi = fam.h, 1.0, fam.r_density, fam.lo, fam.hi
    elif fam.tag == UBETA and k < _UBETA_CHART_MAX_ORDER:
        # h = s, dr = k s^(k-1) ds
        h, scale, density, lo, hi = (lambda s: s), k, (lambda s: s ** (k - 1)), 0.0, 1.0
    else:
        _, _, scale, s, v = FAMILIES[fam.tag].closed_form(k)
        return [IntegrationResult(scale * r.value, scale * r.error_estimate, r.evaluations)
                for r in gamma_average(f, m, s, v, _QUAD_TOL)]

    def node(u: float, x: float):
        # dr = scale * density ds; x as in quadrature._integrate_half_line,
        # 1.0 off its chart
        hv = h(u)
        return f(hv, hv * scale * density(u) / x / x)

    if math.isinf(hi):
        # the half line starts at lo
        return _integrate_half_line(lambda u, x: node(lo + u, x), m, _QUAD_TOL)
    return _integrate(lambda u: node(u, 1.0), m, lo, hi, _QUAD_TOL)


def _step_sums(fam: KernelFamily, f, m: int) -> list[IntegrationResult]:
    """A step kernel's sums of j * f(h, h) over its jumps (s, j), h = h(s):
    each value weighted by h at its jump, then by the jump, j * (h y) as
    the sums have always been formed.  A jump whose integrand raises
    OverflowError or ZeroDivisionError, whose term is not finite, or at
    which the running sum overflows raises NonFiniteError naming it."""
    rows = []
    for s, _ in fam.jumps:
        try:
            hv = fam.h(s)
            rows.append(f(hv, hv))
        except (OverflowError, ZeroDivisionError) as exc:
            raise NonFiniteError(
                f"integrand raised {type(exc).__name__} at jump {s!r}") from exc
    results = []
    for i, col in enumerate(zip(*rows)):
        terms = [j * y for (_, j), y in zip(fam.jumps, col)]
        total = sum(terms)
        if not cmath.isfinite(total):
            # only on failure: find the first term or partial sum that is
            # not finite
            where = f" in component {i}" if m > 1 else ""
            partial = 0.0
            for (s, _), term in zip(fam.jumps, terms):
                if not cmath.isfinite(term):
                    raise NonFiniteError(f"integrand non-finite at jump {s!r}{where}")
                partial += term
                if not cmath.isfinite(partial):
                    break
            raise NonFiniteError(f"step sum overflows at jump {s!r}{where}")
        results.append(IntegrationResult(total, 0.0, len(rows)))
    return results


def _g_sign(fam: KernelFamily) -> float:
    return 1.0 if fam.increasing else -1.0


def kernel_quad_grid(fam: KernelFamily, zs
                     ) -> tuple[IntegrationResult, IntegrationResult, list[IntegrationResult]]:
    """(c, d, [g(z) for z in zs]) by direct integration, every integral
    on one adaptive mesh and each to 1e-10: the oracle of const_c, const_d
    and kernel_g over a grid of z.  One function of h and the node's
    weight returns all of their integrands, each times the weight, and
    each result's evaluations count the nodes of the shared mesh."""
    zs = [_complex(z) for z in zs]
    sign = _g_sign(_instance(fam, KernelFamily, "fam"))
    res = _integrate_kernel(
        fam, lambda hv, w: [w, hv * w, *[1.0 / (z * hv + sign) * w for z in zs]],
        len(zs) + 2)
    return res[0], res[1], res[2:]


def const_c_quad(fam: KernelFamily) -> IntegrationResult:
    """c = int h dr by direct integration to 1e-10 (finite sum for step
    kernels)."""
    return _integrate_kernel(_instance(fam, KernelFamily, "fam"), lambda hv, w: (w,), 1)[0]


def const_d_quad(fam: KernelFamily) -> IntegrationResult:
    """d = int h^2 dr by direct integration to 1e-10."""
    return _integrate_kernel(_instance(fam, KernelFamily, "fam"), lambda hv, w: (hv * w,), 1)[0]


def kernel_g_quad(fam: KernelFamily, z: complex) -> IntegrationResult:
    """g(z) = int h/(z h +- 1) dr by direct integration to 1e-10.

    The sign in the denominator follows the declared monotonicity:
    +1 when r is non-decreasing, -1 when non-increasing.
    """
    z, sign = _complex(z), _g_sign(_instance(fam, KernelFamily, "fam"))
    return _integrate_kernel(fam, lambda hv, w: (1.0 / (z * hv + sign) * w,), 1)[0]


# ---------------------------------------------------------------------------
# Pick-Nevanlinna representation of step-kernel g

@record
class PickRepresentation:
    """Data of the representation g(z) = shift + int (1+zx)/(z-x) m(dx)."""

    shift: float
    measure: FiniteMeasure = FiniteMeasure()

    def _checked(self):
        _instance(self.measure, FiniteMeasure, "measure")
        return tuple.__new__(type(self), (_real(self.shift, "shift"), self.measure))


def pick_representation(h_values, r_jumps) -> PickRepresentation:
    """Representation of g for a step kernel with the + sign.

    Each step contributes 1/(z + 1/h) = u_b + (1 + z x)/(z - x) weighted
    by its jump, where b = 1/h, u_b = b/(1+b^2), and the representing
    atom sits at x = -b with mass 1/(1+b^2).  Where b^2 overflows, u_b
    and the mass are h and h^2 to double precision; where b itself is
    inf, the mass has underflowed to 0 and the atom is left out.  Steps
    mapping to the same atom location are combined.
    """
    h_values = [_real(h, "kernel value", positive=True) for h in _items(h_values, "h_values")]
    r_jumps = [_real(j, "jump", positive=True) for j in _items(r_jumps, "r_jumps")]
    if len(h_values) != len(r_jumps):
        raise InvalidInput("h_values and r_jumps must have equal length")
    if not h_values:
        raise InvalidInput("need at least one step")

    shift = 0.0
    masses: dict[float, float] = {}
    for h, j in zip(h_values, r_jumps):
        b = 1.0 / h
        denom = 1.0 + b * b
        if denom == math.inf:
            shift += j * h
            if b != math.inf:
                masses[-b] = masses.get(-b, 0.0) + j * h * h
            continue
        shift += j * b / denom
        loc = -b
        masses[loc] = masses.get(loc, 0.0) + j / denom
    atoms = tuple(sorted(masses.items()))
    return PickRepresentation(shift=shift, measure=FiniteMeasure(atoms=atoms))


def pick_eval(rep: PickRepresentation, z: complex) -> complex:
    """Evaluate shift + sum (1+zx)/(z-x) m({x}) at z.

    Where that sum is not finite, and only there, each term that is not
    finite is formed again dividing before weighting, and for |x| >= 1
    as w ((1/x + z)/(z/x - 1)), so neither z x nor w (1 + z x) overflows.
    """
    return _pick_sum(_instance(rep, PickRepresentation, "rep"), _complex(z))


def _pick_sum(rep: PickRepresentation, z: complex) -> complex:
    """pick_eval without its checks, for a caller that formed rep and z
    itself: transforms.id_evaluator, once per point."""
    acc = complex(rep.shift)
    for x, w in rep.measure.atoms:
        acc += w * (1.0 + z * x) / (z - x)
    if not cmath.isfinite(acc):
        acc = complex(rep.shift)
        for x, w in rep.measure.atoms:
            term = w * (1.0 + z * x) / (z - x)
            if not cmath.isfinite(term):
                num, den = ((1.0 / x + z, z / x - 1.0) if abs(x) >= 1.0
                            else (1.0 + z * x, z - x))
                term = w * _over(num, den, math.hypot(den.real, den.imag))
            acc += term
    return acc
