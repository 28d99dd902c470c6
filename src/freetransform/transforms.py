"""Free-probability counterparts of classical infinitely divisible laws,
evaluated through their Voiculescu transform on the imaginary axis.

For a classical law with triple [a, sigma^2, M] and companion measure m
the transform of the free counterpart is the finite sum

    V(it) = a + int (1 + itx)/(it - x) m(dx),          t > 0,

and the same V is reachable analytically from the characteristic
exponent:

    V(it) = i t^2 int_0^inf log phi(-u) e^{-tu} du.

Random-integral maps of the law multiply the drift and Gaussian parts
by the kernel moments c and d and replace the integrand kernel with the
family's Pick function g:

    V(it) = a c (+-) sigma^2 d/(it)
            + int (+-) x [g(ix/t) - (+-) c/(1+x^2)] M(dx),

upper signs for a non-decreasing time change.  The named classes
(iterated shrink-scaling, power time change, exponential kernel) are
this one formula with a built-in family, whose g is a scaled
Hurwitz-Lerch value, scale Phi(-z, s, v); the fully scale-invariant
limit class has its own closed form.

random_integral_evaluator has two t-bands for a built-in family.  Below
t = 2X, X = max|x| over the atoms, each point evaluates g once per atom.
On t >= 2X every argument ix/t lies on the Lerch series disk, and the
sum over the atoms is one power series in X/t,

    sum w x g(ix/t) = scale sum_n i^n (v+n)^-s M_n (X/t)^n,
    M_n = sum w x (-x/X)^n,

whose coefficients, moments of the jump measure, are the image's free
cumulants.  specfun._moment_rows builds their rows once, on the first t
of the band, in the row format of the Lerch series on the axis, and each
point is one specfun._axis_sum, the loop that sums that series too.
CUSTOM families and exp_map_convolution_check's oracle image keep the
per-atom sum at every t.

Every class is evaluated from the triple by one of three evaluators,
random_integral_evaluator, direct_evaluator (id_evaluator, on the
triple's companion measure) and linf_evaluator; each transform_*
function is one point of one of them and returns the complex V(it).
direct_evaluator's finite sum is the Pick sum of kernels.pick_eval at
z = it, without its argument checks (kernels._pick_sum): the
representation is built once and each t is checked.
exp_map_convolution_check returns the largest deviation of the
selfdecomposable split, which verify holds to its tolerance.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable, Sequence

from ._records import record
from .errors import (DomainError, FreeTransformError, InvalidInput, NonFiniteError, _callable,
                     _instance, _items, _real)
from .kernels import (KernelFamily, PickRepresentation, _pick_sum, custom_density,
                      kernel_quad_grid, lclass, map_data, sself, ubeta)
from .measures import FiniteMeasure, LevyTriple, triple_to_finite_measure
from .quadrature import _worst, integrate_semi_infinite, laplace_transform
from .specfun import _axis_sum, _moment_rows, log_gamma2_slope

Evaluator = Callable[[float], complex]

# absolute tolerance of the Laplace and Cauchy half-line oracles
_ORACLE_TOL = 1e-8


def _finite(v: complex, what: str, t: float) -> complex:
    if not (math.isfinite(v.real) and math.isfinite(v.imag)):
        raise NonFiniteError(f"{what} produced a non-finite value {v!r} at t={t!r}")
    return v


def logphi(tr: LevyTriple, t: float) -> complex:
    """Characteristic exponent log phi(t) of the classical law, real t."""
    _instance(tr, LevyTriple, "tr")
    t = _real(t, "t", DomainError)
    acc = 1j * t * tr.drift - 0.5 * tr.gauss_var * t * t
    for x, w in tr.levy_atoms:
        acc += w * (cmath.exp(1j * t * x) - 1.0 - 1j * t * x / (1.0 + x * x))
    return acc


def direct_evaluator(a: float, m: FiniteMeasure) -> Evaluator:
    """t -> V(it) = a + sum (1+itx)/(it-x) m({x}), pick_eval at z = it;
    an atom at 0 contributes m({0})/(it)."""
    rep = PickRepresentation(a, m)

    def V(t: float) -> complex:
        t = _real(t, "t", DomainError, True)
        return _finite(_pick_sum(rep, 1j * t), "voiculescu_id", t)

    return V


def id_evaluator(tr: LevyTriple) -> Evaluator:
    """t -> voiculescu_id(tr, t): direct_evaluator on the companion
    measure, built once."""
    m = triple_to_finite_measure(tr)  # which checks tr, before tr.drift is read
    return direct_evaluator(tr.drift, m)


def voiculescu_id(tr: LevyTriple, t: float) -> complex:
    """Transform of the free counterpart, straight from the triple: one
    point of id_evaluator(tr)."""
    return id_evaluator(tr)(t)


def voiculescu_via_laplace(tr: LevyTriple, t: float) -> complex:
    """Same value as voiculescu_id, but through the analytic route
    i t^2 * Laplace{log phi(-u)}(t).  Serves as the independent oracle
    for the finite-sum path."""
    t = _real(t, "t", DomainError, True)
    res = laplace_transform(lambda u: logphi(tr, -u), t, _ORACLE_TOL)
    return _finite(1j * t * t * res.value, "voiculescu_via_laplace", t)


# ---------------------------------------------------------------------------
# generic random-integral transform

def random_integral_evaluator(fam: KernelFamily, tr: LevyTriple) -> Evaluator:
    """t -> V(it) of the image of tr under the family's random-integral map.

    Takes the family's kernel moments, Pick function and closed form
    from map_data once, and with them each atom's weight w (+-) x and
    shift (+-) c/(1+x^2); each call then evaluates g once per atom, or,
    for a built-in family on t >= 2 max|x|, sums the atoms' moment series.
    The sign pattern follows the declared monotonicity of the time change.
    """
    c, d, g, lerch = map_data(fam)
    _instance(tr, LevyTriple, "tr")
    return _image_evaluator(c, d, g, 1.0 if fam.increasing else -1.0, tr, lerch)


def _image_evaluator(c: float, d: float, g: Callable[[complex], complex],
                     sign: float, tr: LevyTriple,
                     lerch: tuple[float, int, float] | None = None) -> Evaluator:
    """random_integral_evaluator from the kernel data (c, d, g) and the
    sign of the time change.  A package error raised by g is raised
    again with t and the atom's x added to its message.

    With lerch = (scale, s, v), g(z) = scale Phi(-z, s, v), and on
    t >= 2 max|x| the sum over the atoms is one power series in
    max|x|/t, whose rows specfun._moment_rows builds on the first such
    t, and whose t-free part is the compensators' sum
    sum weight (scale v^-s - shift).  Elsewhere, or where that series
    has no rows or is not finite, each call evaluates g once per atom;
    where the weighted sum is not finite, each term is formed again
    weighting last, w ((+-) x (g - shift)), so that an overflowing w x
    does not overflow a finite value.
    """
    drift = tr.drift * c
    gauss = sign * tr.gauss_var * d
    atoms = [(w * sign * x, x, sign * c / (1.0 + x * x)) for x, w in tr.levy_atoms]
    far = max((abs(x) for x, _ in tr.levy_atoms), default=0.0)
    # with no atom there is nothing to sum; LevyTriple puts none at 0
    reach = 2.0 * far if lerch is not None and far else math.inf
    series = None

    def V(t: float) -> complex:
        nonlocal series
        t = _real(t, "t", DomainError, True)
        if t >= reach:
            if series is None:
                # Phi(-ix/t, s, v) = Phi(iqr, s, v) with q = -x/far, r = far/t
                first, rows, stop = _moment_rows(
                    *lerch, [(weight, -x / far) for weight, x, _ in atoms])
                constant = sum(weight * (first - shift) for weight, _, shift in atoms)
                series = constant, rows, stop
            constant, rows, stop = series
            parts = _axis_sum(rows, far / t, stop, 0.0)
            if parts is not None:
                acc = complex(drift + constant + parts[0], parts[1] - gauss / t)
                if cmath.isfinite(acc):
                    return acc
        acc = drift + gauss / (1j * t)
        try:
            for weight, x, shift in atoms:
                acc += weight * (g(1j * x / t) - shift)
            if not cmath.isfinite(acc):
                acc = drift + gauss / (1j * t)
                for (_, x, shift), (_, w) in zip(atoms, tr.levy_atoms):
                    acc += w * (sign * x * (g(1j * x / t) - shift))
        except FreeTransformError as err:
            raise type(err)(f"{err} at t={t!r}, atom x={x!r}") from err
        return _finite(acc, "random_integral_transform", t)

    return V


def random_integral_transform(fam: KernelFamily, tr: LevyTriple, t: float) -> complex:
    """Transform of the image of tr under the family's random-integral map;
    one point of random_integral_evaluator(fam, tr)."""
    return random_integral_evaluator(fam, tr)(t)


# ---------------------------------------------------------------------------
# named classes: random_integral_transform with a built-in family

def transform_sself(k: int, tr: LevyTriple, t: float) -> complex:
    """Transform of the k-times shrink-selfdecomposable image of tr.

    V(it) = a/2^k + sigma^2/(3^k it)
            + sum w x [Phi(x/(it), k, 2) - 2^-k/(1+x^2)].

    k = 0 is the identity map: V is the plain ID transform.
    """
    if type(k) is int and k == 0:  # False and 0.0 go on to sself(), which rejects them
        return voiculescu_id(tr, t)
    return random_integral_transform(sself(k), tr, t)


def transform_ubeta(k: int, tr: LevyTriple, t: float) -> complex:
    """Transform of the image of tr under the power-time-change map.

    V(it) = k a/(k+1) + k sigma^2/((k+2) it)
            + sum w x [k Phi(x/(it), 1, k+1) - (k/(k+1))/(1+x^2)].
    """
    return random_integral_transform(ubeta(k), tr, t)


def transform_lclass(k: int, tr: LevyTriple, t: float) -> complex:
    """Transform of the image of tr under the order-k exponential-kernel
    map (the k-th selfdecomposable layer):

    V(it) = a + sigma^2/(2^(k+1) it)
            + sum w x [Phi(x/(it), k+1, 1) - 1/(1+x^2)],

    where x Phi(x/(it), k+1, 1) = it Li_{k+1}(x/(it)).  The class needs a
    finite (k+1)-st logarithmic moment of the jump measure, which atomic
    jump measures always have.
    """
    return random_integral_transform(lclass(k), tr, t)


# ---------------------------------------------------------------------------
# the scale-invariant limit class

@record
class LInfSpec:
    """Spectral data of a transform in the fully scale-invariant class:
    a real shift plus a finite measure on (-2, 0) u (0, 2] with strictly
    positive masses."""

    shift: float
    measure: FiniteMeasure = FiniteMeasure()

    def _checked(self):
        shift = _real(self.shift, "shift")
        _instance(self.measure, FiniteMeasure, "measure")
        for x, w in self.measure.atoms:
            if x == 0.0 or not (-2.0 < x <= 2.0):
                raise InvalidInput(f"support must lie in (-2,0) u (0,2], got {x!r}")
            if w <= 0.0:
                raise InvalidInput(f"masses must be positive, got {w!r} at {x!r}")
        return tuple.__new__(type(self), (shift, self.measure))


def _linf_factor(x: float) -> tuple[complex, float]:
    """(factor, eps) with linf_integrand(x, t) = factor * t ** -eps.

    With eps = |x| - 1 and sigma = sign(x) the factor is
    sigma (expm1(L + i sigma pi eps/2) - eps)/eps, where
    L = log Gamma(2+eps) = eps (1 + log_gamma2_slope(eps)), one series on
    the whole support.  x = +-1 exactly, a removable singularity, takes
    the series' constant term: -+gamma + i pi/2.  x is not checked:
    linf_integrand checks it, and LInfSpec its atoms.
    """
    sigma = 1.0 if x > 0.0 else -1.0
    eps = abs(x) - 1.0
    slope = log_gamma2_slope(eps)
    if eps == 0.0:
        return complex(sigma * slope, math.pi / 2.0), eps
    # expm1(a + ib) - eps; Re expm1 = expm1(a) cos b - 2 sin(b/2)^2 does
    # not cancel where cos b - 1 would
    a = eps + eps * slope
    b = sigma * math.pi * eps / 2.0
    half = math.sin(b / 2.0)
    num = complex(math.expm1(a) * math.cos(b) - 2.0 * half * half - eps,
                  math.exp(a) * math.sin(b))
    return sigma * num / eps, eps


def linf_integrand(x: float, t: float) -> complex:
    """(Gamma(|x|+1) i e^{i pi x/2} + x) t^(1-|x|) / (1-|x|), formed as
    in _linf_factor."""
    t, x = _real(t, "t", DomainError, True), _real(x, "x", DomainError)
    if x == 0.0 or not (-2.0 < x <= 2.0):
        raise DomainError(f"x must lie in (-2,0) u (0,2], got {x!r}")
    factor, eps = _linf_factor(x)
    try:
        return factor * t ** -eps
    except OverflowError:
        raise NonFiniteError(f"linf_integrand: t^(1-|x|) overflows at x={x!r}, t={t!r}")


def linf_evaluator(spec: LInfSpec) -> Evaluator:
    """t -> V(it) = shift - sum m({x}) * linf_integrand(x, t).

    Takes each atom's t-free factor once; each call then costs one power
    of t per atom.
    """
    shift = complex(_instance(spec, LInfSpec, "spec").shift)
    atoms = [(w, *_linf_factor(x)) for x, w in spec.measure.atoms]

    def V(t: float) -> complex:
        t = _real(t, "t", DomainError, True)
        acc = shift
        try:
            for w, factor, eps in atoms:
                acc -= w * (factor * t ** -eps)
        except OverflowError:
            raise NonFiniteError(f"transform_linf: t^(1-|x|) overflows at t={t!r}")
        return _finite(acc, "transform_linf", t)

    return V


def transform_linf(spec: LInfSpec, t: float) -> complex:
    """V(it) = shift - sum m({x}) * linf_integrand(x, t); one point of
    linf_evaluator(spec).

    Invariant under c V(t/c): the integrand scales with t^(1-|x|) and
    each atom's contribution picks up exactly the compensating factor.
    """
    return linf_evaluator(spec)(t)


# ---------------------------------------------------------------------------
# transform algebra

def scale_transform(c: float, V: Evaluator, t: float) -> complex:
    """Transform of the dilated law: (scale_c V)(it) = c V(it/c)."""
    V = _callable(V, "V")
    c, t = _real(c, "scale factor", positive=True), _real(t, "t", DomainError, True)
    return c * complex(V(t / c))


def add_transforms(V1: Evaluator, V2: Evaluator, t: float) -> complex:
    """Transform of the (free or classical) convolution: pointwise sum."""
    V1, V2 = _callable(V1, "V1"), _callable(V2, "V2")
    t = _real(t, "t", DomainError, True)
    return complex(V1(t)) + complex(V2(t))


# ---------------------------------------------------------------------------
# structural checks

def exp_map_convolution_check(omega: LevyTriple, t_grid: Sequence[float]) -> float:
    """Verify the additive split of the selfdecomposable decomposition.

    A law rho with background driving law omega decomposes as the
    convolution of omega's exponential-map image with omega itself, so
    at transform level V_rho = V[I omega] + V[omega].  The convolution
    rule (pointwise addition) applied to the closed forms must reproduce
    V_rho built independently: the image from its defining integral,
    with c, d and each g(ix/t) it needs of the kernel e^-s on (0, inf)
    by quadrature on one mesh, and V[omega] through the Laplace route.
    Returns the largest deviation over the grid, NaN if any deviation
    is NaN.
    """
    _instance(omega, LevyTriple, "omega")
    grid = tuple(_real(t, "t", DomainError, True) for t in _items(t_grid, "t_grid"))
    if not grid:
        raise InvalidInput("t_grid must be non-empty")

    v_image = random_integral_evaluator(lclass(0), omega)
    v_omega = id_evaluator(omega)
    exp_kernel = custom_density(lambda s: math.exp(-s), lambda s: 1.0, 0.0, math.inf)
    zs = [1j * x / t for t in grid for x, _ in omega.levy_atoms]
    c, d, gs = kernel_quad_grid(exp_kernel, zs)
    g = dict(zip(zs, (r.value for r in gs))).__getitem__
    v_image_direct = _image_evaluator(c.value.real, d.value.real, g, 1.0, omega)
    return _worst(*(abs(v_image_direct(t) + voiculescu_via_laplace(omega, t)
                        - add_transforms(v_image, v_omega, t))
                    for t in grid))


def cauchy_pick_integral(t: float) -> complex:
    """int over R of (1+itx)/((it-x)(1+x^2)) dx, evaluated numerically
    as two half-line integrals with an algebraic-decay substitution.
    Equals -i pi for every t > 0."""
    t = _real(t, "t", DomainError, True)
    it = 1j * t

    def f(x: float) -> complex:
        return (1.0 + it * x) / ((it - x) * (1.0 + x * x))

    res = integrate_semi_infinite(lambda u: f(u) + f(-u), _ORACLE_TOL)
    return res.value


def voiculescu_cauchy(a: float, t: float) -> complex:
    """Transform with the standard Cauchy companion measure
    m(dx) = dx/(2(1+x^2)): a + (1/2) * cauchy_pick_integral = a - i pi/2."""
    return _real(a, "a") + 0.5 * cauchy_pick_integral(t)
