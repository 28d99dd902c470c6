"""Per-layer counters and spans for the freetransform package, added from outside.

``Tracer.installed()`` rebinds the traced public functions, in every loaded
freetransform module that holds them and in the ``verify.SUITES`` table, to
wrappers that count calls and time spans.  Leaving the block puts every
original binding back.  The package source is never edited.

A span's self time is its duration minus the durations of the spans opened
directly inside it.  An inclusive time (``.s``) is added only when the last
open span of that name closes, so re-entrant calls are not counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict

TRANSFORMS = ("voiculescu_id", "transform_sself", "transform_ubeta",
              "transform_lclass", "transform_linf", "voiculescu_via_laplace")
OPERATORS = ("derivative_t", "filtration_limit_check", "lower_shrink_class",
             "lower_selfdec_class")
SUITES = ("kernels", "nevanlinna", "operators", "limits", "laplace", "pick")
# lower_* build evaluators; their span covers evaluating what they return
_EVALUATOR_FACTORIES = ("lower_shrink_class", "lower_selfdec_class")


def metric_names() -> list[str]:
    """Every metric ``Tracer.metrics`` reports, in report order."""
    names = ["cli.main.self_s", "cli.build_parser.s"]
    for fn in TRANSFORMS:
        names += [f"transforms.{fn}.calls", f"transforms.{fn}.self_s"]
    for branch in ("series", "integral"):
        names += [f"specfun.lerch_phi.{branch}.calls", f"specfun.lerch_phi.{branch}.s"]
    names += ["specfun.polylog.series.calls", "specfun.polylog.series.s",
              "specfun.polylog.lerch.calls", "specfun.gamma_fn.calls"]
    names += ["quadrature.integrals", "quadrature.evals",
              "quadrature.evals_per_integral", "quadrature.integrand_s",
              "quadrature.self_s", "quadrature.budget_exhausted",
              "quadrature.wasted_evals_frac"]
    names += ["kernels.kernel_g.calls", "kernels.kernel_g.s",
              "kernels.kernel_g_quad.calls", "kernels.kernel_g_quad.s",
              "kernels.const_quad.calls"]
    for fn in OPERATORS:
        names += [f"operators.{fn}.calls", f"operators.{fn}.s"]
    names.append("operators.transform_calls")
    names += [f"verify.{suite}.s" for suite in SUITES]
    return names


class Tracer:
    """Counters and span times of one traced pass."""

    def __init__(self):
        self.counts = defaultdict(int)
        self.seconds = defaultdict(float)
        self._stack = []  # seconds spent in child spans, per open span
        self._open = defaultdict(int)  # open spans per name
        self._operator_depth = 0

    # spans ---------------------------------------------------------------

    def _enter(self) -> float:
        self._stack.append(0.0)
        return time.perf_counter()

    def _exit(self, t0: float):
        dt = time.perf_counter() - t0
        child = self._stack.pop()
        if self._stack:
            self._stack[-1] += dt
        return dt, child

    def _span(self, fn, name, *, calls=True, self_time=False, operator=False,
              transform=False, branch=None):
        def wrapper(*args, **kwargs):
            key = name if branch is None else f"{name}.{branch(*args, **kwargs)}"
            if calls:
                self.counts[f"{key}.calls"] += 1
            if transform and self._operator_depth:
                self.counts["operators.transform_calls"] += 1
            self._operator_depth += operator
            self._open[key] += 1
            t0 = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt, child = self._exit(t0)
                self._open[key] -= 1
                self._operator_depth -= operator
                if self_time:
                    self.seconds[f"{key}.self_s"] += dt - child
                elif not self._open[key]:
                    self.seconds[f"{key}.s"] += dt

        return functools.wraps(fn)(wrapper)

    def _integral(self, fn, max_subdivision_error):
        """Wrap integrate_finite: every adaptive integral goes through it.
        The integrand handed in is wrapped to count and time evaluations."""

        def wrapper(f, *args, **kwargs):
            work = [0, 0.0]  # evaluations, seconds inside the integrand

            def integrand(x):
                work[0] += 1
                t0 = time.perf_counter()
                try:
                    return f(x)
                finally:
                    work[1] += time.perf_counter() - t0

            self.counts["quadrature.integrals"] += 1
            t0 = self._enter()
            try:
                return fn(integrand, *args, **kwargs)
            except max_subdivision_error:
                self.counts["quadrature.budget_exhausted"] += 1
                self.counts["quadrature.wasted_evals"] += work[0]
                raise
            finally:
                dt, _ = self._exit(t0)
                self.counts["quadrature.evals"] += work[0]
                self.seconds["quadrature.integrand_s"] += work[1]
                self.seconds["quadrature.self_s"] += dt - work[1]

        return functools.wraps(fn)(wrapper)

    def _evaluator_factory(self, fn, name):
        def wrapper(*args, **kwargs):
            ev = fn(*args, **kwargs)
            timed = self._span(ev.fn, name, operator=True)
            return type(ev)(fn=timed, label=ev.label)

        return functools.wraps(fn)(wrapper)

    # installation --------------------------------------------------------

    def _wrappers(self, pkg):
        """(original, wrapper) for every traced function of package ``pkg``."""
        from importlib import import_module

        mod = {name: import_module(f"{pkg.__name__}.{name}") for name in
               ("cli", "errors", "kernels", "operators", "quadrature",
                "specfun", "transforms")}
        radius = mod["specfun"]._SERIES_RADIUS

        def lerch_branch(z, s, v, *, method="auto"):
            if method == "auto":
                return "series" if abs(complex(z)) <= radius else "integral"
            return method

        def polylog_branch(s, z):
            return "series" if abs(complex(z)) <= radius else "lerch"

        cli, kernels, ops = mod["cli"], mod["kernels"], mod["operators"]
        specfun, tr = mod["specfun"], mod["transforms"]
        pairs = [
            (cli.main, self._span(cli.main, "cli.main", calls=False, self_time=True)),
            (cli.build_parser, self._span(cli.build_parser, "cli.build_parser",
                                          calls=False)),
            (specfun.lerch_phi, self._span(specfun.lerch_phi, "specfun.lerch_phi",
                                           branch=lerch_branch)),
            (specfun.polylog, self._span(specfun.polylog, "specfun.polylog",
                                         branch=polylog_branch)),
            (specfun.gamma_fn, self._span(specfun.gamma_fn, "specfun.gamma_fn")),
            (mod["quadrature"].integrate_finite,
             self._integral(mod["quadrature"].integrate_finite,
                            mod["errors"].MaxSubdivisionError)),
            (kernels.kernel_g, self._span(kernels.kernel_g, "kernels.kernel_g")),
            (kernels.kernel_g_quad, self._span(kernels.kernel_g_quad,
                                               "kernels.kernel_g_quad")),
        ]
        for fn in (kernels.const_c_quad, kernels.const_d_quad):
            pairs.append((fn, self._span(fn, "kernels.const_quad")))
        for name in TRANSFORMS:
            fn = getattr(tr, name)
            pairs.append((fn, self._span(fn, f"transforms.{name}", self_time=True,
                                         transform=True)))
        for name in OPERATORS:
            fn = getattr(ops, name)
            if name in _EVALUATOR_FACTORIES:
                pairs.append((fn, self._evaluator_factory(fn, f"operators.{name}")))
            else:
                pairs.append((fn, self._span(fn, f"operators.{name}", operator=True)))
        return pairs

    @contextlib.contextmanager
    def installed(self, pkg):
        """Trace package ``pkg`` (the imported ``freetransform``) inside the block."""
        suites = sys.modules[f"{pkg.__name__}.verify"].SUITES
        modules = [m for name, m in list(sys.modules.items())
                   if name == pkg.__name__ or name.startswith(pkg.__name__ + ".")]
        bindings = []  # (namespace, key, original)
        try:
            for original, wrapper in self._wrappers(pkg):
                for module in modules:
                    ns = vars(module)
                    for key, value in list(ns.items()):
                        if value is original:
                            bindings.append((ns, key, original))
                            ns[key] = wrapper
            for suite, fn in list(suites.items()):
                bindings.append((suites, suite, fn))
                suites[suite] = self._span(fn, f"verify.{suite}", calls=False)
            yield self
        finally:
            for ns, key, original in reversed(bindings):
                ns[key] = original

    # results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        values = {**self.counts, **self.seconds}
        integrals = self.counts["quadrature.integrals"]
        evals = self.counts["quadrature.evals"]
        values["quadrature.evals_per_integral"] = evals / integrals if integrals else 0.0
        values["quadrature.wasted_evals_frac"] = (
            self.counts["quadrature.wasted_evals"] / evals if evals else 0.0)
        return {name: values.get(name, 0) for name in metric_names()}


def is_time(name: str) -> bool:
    """Whether a metric of ``metric_names`` is a time (the rest are counts)."""
    return name.endswith((".s", "_s"))
