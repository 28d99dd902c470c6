"""Named verification batteries behind the command-line ``verify`` command.

These suites are the one definition of the package's acceptance
guarantees; tests/test_acceptance.py asserts on their results.

Each suite returns a list of CheckResult records; a check passes when its
deviation does not exceed its tolerance.  Sign and band checks are folded
into the same shape by reporting the amount by which the constraint is
violated (0.0 when satisfied) against a tolerance of 0.0.  A strict
inequality reports its worst value against _BELOW_ZERO, so that 0 fails.
Deviations are folded with quadrature._worst, never with max(), so a
check whose computation goes NaN anywhere reports NaN and fails.

All sampling is seeded, so repeated runs produce identical tables.
"""

from __future__ import annotations

import cmath
import math
import random

from ._records import record
from .kernels import (
    FAMILIES,
    KernelFamily,
    SSELF,
    const_c,
    const_d,
    custom_density,
    custom_step,
    kernel_g,
    kernel_g_quad,
    kernel_quad_grid,
    lclass,
    map_data,
    pick_eval,
    pick_representation,
    sself,
)
from .measures import (
    LevyTriple,
    finite_measure_to_triple,
    scale_triple,
    triple_to_finite_measure,
)
from .operators import (
    filtration_limit_check,
    lower_selfdec_class,
    lower_shrink_class,
)
from .quadrature import _worst
from .specfun import euler_gamma, gamma_fn
from .transforms import (
    add_transforms,
    cauchy_pick_integral,
    exp_map_convolution_check,
    id_evaluator,
    linf_integrand,
    random_integral_evaluator,
    scale_transform,
    voiculescu_via_laplace,
)


@record
class CheckResult:
    name: str
    deviation: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tol

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name} {self.deviation!r} {self.tol!r}"


# the largest negative double: a value passes against it only when < 0
_BELOW_ZERO = -math.ulp(0.0)


# shared sample grids -----------------------------------------------------

_KS = (1, 2, 3, 4, 5)
_T_GRID = (0.5, 1.0, 2.0)


def _upper_grid():
    """5 x 5 grid of z over [-0.5, 2] x [0.1, 2]i."""
    res = [-0.5 + 2.5 * i / 4 for i in range(5)]
    ims = [0.1 + 1.9 * i / 4 for i in range(5)]
    return [complex(re, im) for re in res for im in ims]


def _families(ks=_KS):
    for k in ks:
        for tag in FAMILIES:
            yield KernelFamily(tag, k)


# suites ------------------------------------------------------------------

def suite_kernels() -> list[CheckResult]:
    """Closed-form kernel data against direct quadrature."""
    grid = _upper_grid()
    worst_g = dict.fromkeys(FAMILIES, 0.0)
    worst_cd = dict.fromkeys(FAMILIES, 0.0)
    sself_quad = {}
    for fam in _families():
        # c, d and g at every z of the grid on one mesh per family
        c, d, gs = kernel_quad_grid(fam, grid)
        for z, g in zip(grid, gs):
            worst_g[fam.tag] = _worst(worst_g[fam.tag], abs(kernel_g(fam, z) - g.value))
        dev_c = abs(const_c(fam) - c.value)
        dev_d = abs(const_d(fam) - d.value)
        worst_cd[fam.tag] = _worst(worst_cd[fam.tag], dev_c, dev_d)
        if fam.tag == SSELF:
            sself_quad[fam.k] = c, d, gs

    results = []
    for tag in FAMILIES:
        results.append(CheckResult(f"{tag}-g-oracle", worst_g[tag], 1e-8))
        results.append(CheckResult(f"{tag}-const-oracle", worst_cd[tag], 1e-10))

    # sself integrates on the half line s = e^-w; its raw (0, 1] form,
    # with the logarithmic weight, samples other nodes and must agree
    dev = 0.0
    for k in (1, 2, 3):
        raw = custom_density(lambda s: s,
                             lambda s, k=k, fac=math.factorial(k - 1):
                             (-math.log(s)) ** (k - 1) / fac,
                             0.0, 1.0)
        raw_c, raw_d, raw_gs = kernel_quad_grid(raw, grid[::5])
        c, d, gs = sself_quad[k]
        dev = _worst(dev,
                     abs(raw_c.value - c.value),
                     abs(raw_d.value - d.value),
                     *(abs(r.value - g.value) for r, g in zip(raw_gs, gs[::5])))
    results.append(CheckResult("sself-chart-agreement", dev, 1e-10))
    return results


def suite_nevanlinna() -> list[CheckResult]:
    """Im g(z) < 0 on the open upper half-plane, every family, strictly."""
    rng = random.Random(2024)
    samples = [complex(rng.uniform(-3.0, 3.0), rng.uniform(1e-3, 3.0))
               for _ in range(200)]
    worst = dict.fromkeys(FAMILIES, -math.inf)
    for fam in _families((1, 2, 3)):
        # kernel_g's g; the samples lie off its singular ray
        g = map_data(fam)[2]
        worst[fam.tag] = _worst(worst[fam.tag], *(g(z).imag for z in samples))
    results = [CheckResult(f"{tag}-upper-to-lower", w, _BELOW_ZERO)
               for tag, w in worst.items()]

    step = custom_step(lambda s: 1.0 / (1.0 + s), ((0.5, 0.7), (1.5, 0.3)))
    w = _worst(*(kernel_g_quad(step, z).value.imag for z in samples[::4]))
    results.append(CheckResult("custom-step-upper-to-lower", w, _BELOW_ZERO))
    return results


_OP_TRIPLES = (
    LevyTriple(0.4, 1.1, ((-1.5, 0.4), (0.7, 1.2), (2.0, 0.3))),
    LevyTriple(-0.8, 0.0, ((1.0, 2.0),)),
    LevyTriple(0.0, 2.5, ()),
)


def suite_operators() -> list[CheckResult]:
    """Differential lowering along both class hierarchies, and the exact
    transform algebra."""
    results = []

    dev_shrink = 0.0
    dev_selfdec = 0.0
    for tr in _OP_TRIPLES:
        # transform_sself(k, tr, .) and transform_lclass(k, tr, .) for
        # k = 0 to 3, each built once; sself at k = 0 is the identity map
        shrunk = [id_evaluator(tr)] + [random_integral_evaluator(sself(k), tr)
                                       for k in (1, 2, 3)]
        selfdec = [random_integral_evaluator(lclass(k), tr) for k in (0, 1, 2, 3)]
        for k in (1, 2, 3):
            upper = lower_shrink_class(shrunk[k])
            lower = lower_selfdec_class(selfdec[k])
            for t in _T_GRID:
                dev_shrink = _worst(dev_shrink, abs(upper(t) - shrunk[k - 1](t)))
                dev_selfdec = _worst(dev_selfdec, abs(lower(t) - selfdec[k - 1](t)))
    results.append(CheckResult("shrink-step", dev_shrink, 1e-6))
    results.append(CheckResult("selfdec-step", dev_selfdec, 1e-6))

    tr = _OP_TRIPLES[0]
    V = id_evaluator(tr)
    for k in (1, 2, 3):
        powered = lower_shrink_class(random_integral_evaluator(sself(k), tr), k)
        dev = _worst(*(abs(powered(t) - V(t)) for t in _T_GRID))
        results.append(CheckResult(f"shrink-power-{k}", dev, k / 1e7))
    for k in (0, 1, 2):
        powered = lower_selfdec_class(random_integral_evaluator(lclass(k), tr), k + 1)
        dev = _worst(*(abs(powered(t) - V(t)) for t in _T_GRID))
        results.append(CheckResult(f"selfdec-power-{k + 1}", dev, (k + 1) / 1e7))

    # exact transform algebra: dilation, convolution, measure round trip
    dev = 0.0
    for c in (0.3, 2.0, 7.5):
        scaled = id_evaluator(scale_triple(c, tr))
        for t in _T_GRID:
            rhs = scaled(t)
            dev = _worst(dev, abs(scale_transform(c, V, t) - rhs) / (1.0 + abs(rhs)))
    results.append(CheckResult("dilation-identity", dev, 1e-12))

    V1 = id_evaluator(LevyTriple(0.5, 1.0, ((1.0, 0.7),)))
    V2 = id_evaluator(LevyTriple(-0.2, 0.5, ((-2.0, 0.4),)))
    merged = id_evaluator(LevyTriple(0.3, 1.5, ((-2.0, 0.4), (1.0, 0.7))))
    dev = _worst(*(abs(add_transforms(V1, V2, t) - merged(t)) for t in _T_GRID))
    results.append(CheckResult("convolution-identity", dev, 1e-12))

    back = finite_measure_to_triple(tr.drift, triple_to_finite_measure(tr))
    dev = abs(back.gauss_var - tr.gauss_var)
    for (x1, w1), (x2, w2) in zip(back.levy_atoms, tr.levy_atoms):
        # locations must come back exactly
        dev = _worst(dev, abs(w1 - w2) / w2 if x1 == x2 else math.inf)
    results.append(CheckResult("measure-roundtrip", dev, 1e-12))

    dev = exp_map_convolution_check(tr, _T_GRID)
    results.append(CheckResult("exp-map-split", dev, 1e-12))

    # (2 - t d/dt) - (1 - t d/dt) is the identity, whatever the step noise
    dev = 0.0
    for tr in _OP_TRIPLES:
        V = id_evaluator(tr)
        big, small = lower_shrink_class(V), lower_selfdec_class(V)
        dev = _worst(dev, *(abs(big(t) - small(t) - V(t)) for t in _T_GRID))
    results.append(CheckResult("operator-difference-identity", dev, 1e-12))
    return results


def suite_limits() -> list[CheckResult]:
    """Large-k filtration limit, small-x slopes, removable singularities."""
    results = []

    mono_bad = -math.inf
    rate_bad = 0.0
    for tr in (_OP_TRIPLES[0], _OP_TRIPLES[2], LevyTriple(1.0, 2.0, ())):
        for t in _T_GRID:
            devs = filtration_limit_check(tr, t)
            mono_bad = _worst(mono_bad, *(b - a for a, b in zip(devs, devs[1:])))
            for a, b in zip(devs, devs[1:]):
                r = a / b if b else math.inf  # a gap of 0 is off the band
                rate_bad = _worst(rate_bad, 5.0 - r, r - 20.0)
    # the gap must fall strictly with every tenfold k
    results.append(CheckResult("ubeta-filtration-monotone", mono_bad, _BELOW_ZERO))
    results.append(CheckResult("ubeta-filtration-rate", _worst(0.0, rate_bad), 0.0))

    # (g(ix/t) - c)/x -> d/(it), Richardson-extrapolated from x = 1e-5, 1e-6
    for tag in FAMILIES:
        dev = 0.0
        for k in (1, 2, 3):
            fam = KernelFamily(tag, k)
            c, d = const_c(fam), const_d(fam)
            for t in _T_GRID:
                slope = lambda x: (kernel_g(fam, 1j * x / t) - c) / x
                extrap = (10.0 * slope(1e-6) - slope(1e-5)) / 9.0
                dev = _worst(dev, abs(extrap - d / (1j * t)))
        results.append(CheckResult(f"{tag}-small-x-slope", dev, 1e-5))

    mono_bad = 0.0
    for name, sign, lim in (
            ("linf-approach-pos", 1.0, complex(-euler_gamma(), math.pi / 2.0)),
            ("linf-approach-neg", -1.0, complex(euler_gamma(), math.pi / 2.0))):
        dev = 0.0
        for t in _T_GRID:
            for side in (-1.0, 1.0):  # from inside and outside |x| = 1
                xs = [sign * (1.0 + side * h) for h in (1e-3, 1e-4, 1e-5, 1e-6)]
                # t^(1-|x|) -> 1 in the limit; dividing it out isolates
                # the removable-singularity gap along the approach
                gaps = [abs(linf_integrand(x, t) / t ** (1.0 - abs(x)) - lim)
                        for x in xs]
                mono_bad = _worst(mono_bad, *(b - a for a, b in zip(gaps, gaps[1:])))
                # raw value at the closest approach against the bare limit
                dev = _worst(dev, abs(linf_integrand(xs[-1], t) - lim))
        results.append(CheckResult(name, dev, 1e-5))
    results.append(CheckResult("linf-approach-monotone", mono_bad, 0.0))

    # away from |x| = 1 the direct gamma form loses nothing to the
    # singularity and serves as the series' oracle
    mags = [j / 20.0 for j in range(1, 41) if j != 20]
    dev = 0.0
    for x in mags + [-m for m in mags if m < 2.0]:
        for t in _T_GRID:
            ax = abs(x)
            direct = ((gamma_fn(ax + 1.0) * 1j * cmath.exp(1j * math.pi * x / 2.0) + x)
                      * t ** (1.0 - ax) / (1.0 - ax))
            dev = _worst(dev, abs(linf_integrand(x, t) - direct) / abs(direct))
    results.append(CheckResult("linf-gamma-oracle", dev, 1e-13))
    return results


_GAUSS_PAIRS = ((0.0, 1.0), (1.0, 2.0), (-0.7, 0.3), (2.5, 4.0), (-2.0, 1.7))
_LAPLACE_T = (0.5, 0.8, 1.0, 1.6, 2.0)


def suite_laplace() -> list[CheckResult]:
    """Log-characteristic-function route against closed forms."""
    results = []

    dev = 0.0
    for a, var in _GAUSS_PAIRS:
        tr = LevyTriple(a, var, ())
        for t in _LAPLACE_T:
            closed = a + var / (1j * t)
            dev = _worst(dev, abs(voiculescu_via_laplace(tr, t) - closed))
    results.append(CheckResult("gaussian-laplace-roundtrip", dev, 1e-6))

    tr = LevyTriple(0.3, 0.0, ((1.0, 1.0), (-2.0, 0.5)))
    V = id_evaluator(tr)
    dev = _worst(*(abs(voiculescu_via_laplace(tr, t) - V(t)) for t in _T_GRID))
    results.append(CheckResult("atomic-laplace-roundtrip", dev, 1e-6))

    dev = _worst(*(abs(cauchy_pick_integral(t) - complex(0.0, -math.pi))
                   for t in _T_GRID))
    results.append(CheckResult("cauchy-integral-anchor", dev, 1e-6))
    return results


def suite_pick() -> list[CheckResult]:
    """Finite step kernels: integral form vs half-plane representation,
    at fresh z for each representation."""
    rng = random.Random(515)
    dev = 0.0
    for _ in range(20):
        n = rng.randint(5, 20)
        hs = [rng.uniform(0.05, 3.0) for _ in range(n)]
        ws = [rng.uniform(0.01, 1.0) for _ in range(n)]
        rep = pick_representation(hs, ws)
        for _ in range(5):
            z = complex(rng.uniform(-2.0, 2.0), rng.uniform(0.1, 2.0))
            direct = sum(w * h / (z * h + 1.0) for h, w in zip(hs, ws))
            dev = _worst(dev, abs(pick_eval(rep, z) - direct))
    return [CheckResult("pick-identity", dev, 1e-12)]


SUITES = {
    "kernels": suite_kernels,
    "nevanlinna": suite_nevanlinna,
    "operators": suite_operators,
    "limits": suite_limits,
    "laplace": suite_laplace,
    "pick": suite_pick,
}


def run_suite(name: str) -> list[CheckResult]:
    if name == "all":
        out = []
        for fn in SUITES.values():
            out.extend(fn())
        return out
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name]()
