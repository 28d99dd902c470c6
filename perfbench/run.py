#!/usr/bin/env python3
"""Closed-loop benchmark of the freetransform command line.

    python3 perfbench/run.py --workload eval-series --seed 1 --seconds 25 --trace 0

One client calls ``freetransform.cli.main`` in-process, one invocation after
the other, over a seeded deck of invocations (see ``decks.py``) repeated as
whole decks until ``--seconds`` of loop time have passed.  The package is
imported from ``src/`` of the tree this file sits in, and nowhere else.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``, timed in
quiet-machine seconds (see ``Speed``).
``--trace 1`` alternates untraced and traced passes of one deck and reports
the per-layer metrics of the traced passes (``tracer.py``) and the tracing
overhead.  Both modes check outputs outside the timed intervals and print a
human-readable report followed by one JSON line with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import heapq
import inspect
import io
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import decks
import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
# Set-up is sampled this many times, spread over the loop; the median is reported.
SETUP_SAMPLES = 15
# A percentile above the median is reported only with this many samples beyond it.
TAIL_SAMPLES = 10
# Sampled rows per eval op checked against the mpmath reference.
REFERENCE_ROWS = 3
EXIT_OK, EXIT_DOMAIN = 0, 3


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_package(root: Path):
    """Import ``freetransform`` from ``root/src`` and refuse any other copy."""
    src = root / "src"
    sys.path.insert(0, str(src))
    try:
        import freetransform
        import freetransform.cli
    except ImportError as exc:
        raise BenchError(f"cannot import freetransform from {src}: {exc}")
    want = (src / "freetransform").resolve()
    got = Path(freetransform.__file__).resolve().parent
    if got != want:
        raise BenchError(f"freetransform was imported from {got}, not from the "
                         f"tree under test {want}")
    return freetransform


def load_spec(root: Path) -> dict:
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# invocations ----------------------------------------------------------------

@dataclass(frozen=True)
class Result:
    code: object  # exit code, or the repr of an exception that escaped main
    out: str
    err: str
    seconds: float


def invoke(cli, argv) -> Result:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
        except Exception as exc:  # an escaped non-package error is a failed op
            code = repr(exc)
        seconds = time.perf_counter() - t0
    return Result(code, out.getvalue(), err.getvalue(), seconds)


def run_deck(cli, deck):
    t0 = time.perf_counter()
    results = [invoke(cli, op.argv) for op in deck.ops]
    return results, time.perf_counter() - t0


def output_rows(result: Result) -> int:
    """CSV rows of an eval, or check lines of a verify, in one output."""
    lines = result.out.splitlines()
    return len(lines) - 1 if lines and lines[0].startswith("t,") else len(lines)


# machine speed ----------------------------------------------------------------

# Mean time of one speed probe inside a deck on the reference VM (2-core
# x86-64, Python 3.11.7) when no other tenant competes.
QUIET_PROBE_S = 0.3e-3
PROBE_EVERY_S = 0.01
# Decks are grouped into segments with at least this many probes; all the
# timings of a segment share one speed.
SEGMENT_PROBES = 50


def _speed_probe() -> int:
    """Fixed pure-Python work in the package's mix: complex arithmetic, exp,
    a small heap and float formatting.  It shares no code with the package."""
    heap, acc, out = [], 0j, []
    for i in range(1, 250):
        x = i * 1e-3
        z = complex(x, 1.0 / i)
        acc += z / (1.0 + z * z) * math.exp(-x)
        heapq.heappush(heap, (abs(acc), i, x))
        if len(heap) > 32:
            heapq.heappop(heap)
        if i % 10 == 0:
            out.append(f"{x!r},{acc.real!r},{acc.imag!r}")
    return len(out)


class Speed:
    """How fast the machine runs while the loop runs.

    Other tenants of the shared VM slow everything down by up to half, in
    bursts from milliseconds to tens of seconds long.  That moves a run's
    plain medians by up to a third.  While ``probing()`` is active, a timer
    runs a fixed probe every ``PROBE_EVERY_S`` inside whatever the loop is
    doing.  Probe time is taken out of the op latencies, and ``scale``
    turns a latency into quiet-machine seconds: the latency times
    ``QUIET_PROBE_S`` over the mean probe time of its segment.  The probe's
    time varies with the machine, never with the package under test.
    """

    def __init__(self):
        self.probes = []  # seconds of each probe
        self.probe_s = 0.0  # their sum

    def probe(self, *_signal) -> None:
        t0 = time.perf_counter()
        _speed_probe()
        dt = time.perf_counter() - t0
        self.probes.append(dt)
        self.probe_s += dt

    @contextlib.contextmanager
    def probing(self):
        old = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    def scale(self, first: int, stop: int) -> float:
        """Factor to quiet-machine seconds from probes ``first:stop``."""
        return QUIET_PROBE_S / statistics.fmean(self.probes[first:stop])


def segment_scales(spans, speed: Speed) -> list[float]:
    """One factor per span of probe indices (first, stop), taken over runs of
    consecutive spans that together hold at least ``SEGMENT_PROBES`` probes;
    a short tail joins the segment before it."""
    groups, current = [], []
    for span in spans:
        current.append(span)
        if current[-1][1] - current[0][0] >= SEGMENT_PROBES:
            groups.append(current)
            current = []
    if current:
        if groups:
            groups[-1] += current
        else:
            groups.append(current)
    scales = []
    for group in groups:
        factor = speed.scale(group[0][0], group[-1][1])
        scales += [factor] * len(group)
    return scales


# set-up ---------------------------------------------------------------------

# Run by the child interpreter: probe while ``freetransform.cli`` is imported,
# then a few more times, and print the probe total and every probe time.
_CHILD = """\
import heapq, math, signal, sys, time
{probe}
probes = []
def probe(*_signal):
    t0 = time.perf_counter()
    _speed_probe()
    probes.append(time.perf_counter() - t0)
signal.signal(signal.SIGALRM, probe)
signal.setitimer(signal.ITIMER_REAL, {every!r}, {every!r})
sys.path.insert(0, {src!r})
import freetransform.cli
signal.setitimer(signal.ITIMER_REAL, 0)
for _ in range({after}):
    probe()
print(sum(probes), *probes)
"""
CHILD_PROBE_EVERY_S = 0.005
CHILD_PROBES_AFTER = 5


class Setup:
    """Set-up time: a fresh interpreter importing ``freetransform.cli`` plus
    writing the deck's inputs.

    The child gets an explicit environment, skips ``site`` and keeps its
    bytecode under a run-private ``pycache_prefix`` that one unmeasured start
    has warmed, so no state outside the run changes what is measured.  The
    child probes the machine's speed while it imports; its probe time is
    taken out and the rest is scaled to quiet-machine seconds, as in
    ``Speed``.
    """

    def __init__(self, root: Path, work: Path, deck, input_dir: str):
        self.deck, self.input_dir = deck, input_dir
        code = _CHILD.format(probe=inspect.getsource(_speed_probe),
                             every=CHILD_PROBE_EVERY_S, after=CHILD_PROBES_AFTER,
                             src=str(root / "src"))
        self.cmd = [sys.executable, "-I", "-S", "-X",
                    f"pycache_prefix={work / 'pycache'}", "-c", code]
        self.env = {"PATH": os.defpath, "LC_ALL": "C"}
        self.raw, self.quiet = [], []
        self._start()

    def _start(self):
        t0 = time.perf_counter()
        proc = subprocess.run(self.cmd, env=self.env, capture_output=True, text=True)
        seconds = time.perf_counter() - t0
        if proc.returncode:
            raise BenchError(f"fresh import of freetransform.cli failed:\n{proc.stderr}")
        probe_s, *probes = map(float, proc.stdout.split())
        return seconds - probe_s, QUIET_PROBE_S / statistics.fmean(probes)

    def sample(self) -> None:
        seconds, scale = self._start()
        t0 = time.perf_counter()
        decks.write_inputs(self.deck, self.input_dir)
        seconds += time.perf_counter() - t0
        self.raw.append(seconds)
        self.quiet.append(seconds * scale)

    def sample_due(self, loop_seconds: float, run_seconds: float) -> None:
        """Take the samples scheduled up to ``loop_seconds`` of the loop."""
        while (len(self.raw) < SETUP_SAMPLES
               and len(self.raw) * run_seconds / SETUP_SAMPLES <= loop_seconds):
            self.sample()


# checks ---------------------------------------------------------------------

class Checks:
    """Output checks, made outside the timed intervals.

    An op fails when it exits 3 (a documented domain error) or when its
    output is wrong.  Wrong means: an exit code other than 0 or 3, bytes
    that differ from the first run of the same op, a ``verify`` that does
    not pass every check, or an ``eval`` row off its reference.
    """

    def __init__(self, deck, seed: int):
        self.deck, self.seed = deck, seed
        self.first = None
        self.passes = 0
        self.domain_errors = [0] * len(deck.ops)  # exit-3 runs per op
        self.wrong = set()  # op indices
        self.notes = []

    def add_pass(self, results) -> None:
        if self.first is None:
            self.first = results
            for i, (op, r) in enumerate(zip(self.deck.ops, results)):
                self._check_first(i, op, r)
        self.passes += 1
        for i, r in enumerate(results):
            first = self.first[i]
            if (r.code, r.out, r.err) != (first.code, first.out, first.err):
                self._wrong(i, "output bytes differ from its first run")
            if r.code == EXIT_DOMAIN:
                self.domain_errors[i] += 1

    def _wrong(self, i: int, why: str) -> None:
        if i not in self.wrong:
            self.wrong.add(i)
            self.notes.append(f"op {i} ({' '.join(self.deck.ops[i].argv[:4])}): {why}")

    def _check_first(self, i, op, r: Result) -> None:
        if r.code not in (EXIT_OK, EXIT_DOMAIN):
            self._wrong(i, f"exit code {r.code!r}: {r.err.strip()[:200]}")
        elif op.argv[0] == "verify":
            lines = r.out.splitlines()
            if r.code != EXIT_OK or not lines or not all(
                    line.startswith("PASS ") for line in lines):
                self._wrong(i, "verify did not pass every check")
        elif r.code == EXIT_OK:
            lines = r.out.splitlines()
            if lines[:1] != ["t,re_V,im_V"] or len(lines) != decks.STEPS + 1:
                self._wrong(i, "eval output is not a 50-row CSV")

    def reference(self) -> str:
        """Check sampled eval rows against mpmath; returns a report line."""
        import reference  # only now, so that mpmath is not in peak_rss_mb

        evals = [(i, op) for i, op in enumerate(self.deck.ops) if op.class_tag]
        if not evals:
            return "reference: not applicable (no eval rows)"
        if not reference.available():
            return "reference: SKIPPED (mpmath is not installed)"
        rng = random.Random(f"reference:{self.seed}")
        checked, worst = 0, 0.0
        for i, op in evals:
            r = self.first[i]
            if r.code != EXIT_OK or i in self.wrong:
                continue
            rows = r.out.splitlines()[1:]
            for line in rng.sample(rows, min(REFERENCE_ROWS, len(rows))):
                t, re_v, im_v = map(float, line.split(","))
                ref = reference.reference_value(op.class_tag, op.k, op.data, t)
                err = reference.relative_error(complex(re_v, im_v), ref)
                worst = max(worst, err)
                checked += 1
                if not err <= reference.RTOL:
                    self._wrong(i, f"row t={t!r} off its reference by {err:.3e}")
        return (f"reference: {checked} sampled rows against mpmath, worst relative "
                f"error {worst:.3e}, tolerance {reference.RTOL:g}")

    @property
    def attempted(self) -> int:
        return self.passes * len(self.deck.ops)

    @property
    def failed(self) -> int:
        return sum(self.passes if i in self.wrong else n
                   for i, n in enumerate(self.domain_errors))


# measurement ----------------------------------------------------------------

def percentile_line(name: str, latencies, q: int) -> str:
    """The q-th percentile, or why it is not reported."""
    n = len(latencies)
    if n >= 2:
        value = statistics.quantiles(latencies, n=100)[q - 1]
        beyond = sum(1 for x in latencies if x > value)
        if beyond >= TAIL_SAMPLES:
            return f"{name} {value * 1e3:.4f} ms (n={n}, {beyond} beyond)"
    return (f"{name} not reported: n={n}, fewer than {TAIL_SAMPLES} samples "
            "would lie beyond it")


def measure(cli, deck, args, setup: Setup, speed: Speed):
    """Run whole decks for ``args.seconds`` of loop time."""
    checks = Checks(deck, args.seed)
    passes, spans = [], []  # per deck: op latencies, probes first:stop
    loop_s = 0.0
    while loop_s < args.seconds:
        results, latencies = [], []
        first = len(speed.probes)
        with speed.probing():
            for op in deck.ops:
                probe_s = speed.probe_s
                r = invoke(cli, op.argv)
                results.append(r)
                latencies.append(r.seconds - (speed.probe_s - probe_s))
        loop_s += sum(latencies)
        passes.append(latencies)
        spans.append((first, len(speed.probes)))
        checks.add_pass(results)
        setup.sample_due(loop_s, args.seconds)
    setup.sample_due(float("inf"), args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    rows = sum(output_rows(r) for r in checks.first)
    quiet = [[t * k for t in latencies]
             for latencies, k in zip(passes, segment_scales(spans, speed))]
    rates = [rows / sum(q) for q in quiet]
    quiet = [t for q in quiet for t in q]
    raw = [t for latencies in passes for t in latencies]
    metrics = {
        "setup_s": statistics.median(setup.quiet),
        "points_per_s": statistics.median(rates),
        "op_p50_ms": statistics.median(quiet) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    n = len(passes)
    lines = [
        f"loop {loop_s:.3f} s over n={n} whole decks of {len(deck.ops)} ops, "
        f"{rows} rows per deck",
        f"speed probes n={len(speed.probes)}: mean {statistics.fmean(speed.probes) * 1e3:.4f} ms "
        f"(quiet {QUIET_PROBE_S * 1e3:g}); probe time is not in any latency",
        "quiet-machine values (gated):",
        f"setup_s {metrics['setup_s']:.6f} s (median of n={len(setup.quiet)})",
        f"points_per_s {metrics['points_per_s']:.3f} 1/s (median over n={n} decks)",
        f"op_p50_ms {metrics['op_p50_ms']:.4f} ms (n={len(quiet)})",
        percentile_line("op_p95_ms", quiet, 95),
        f"peak_rss_mb {peak_rss_mb:.3f} MB",
        "wall-clock values (not gated):",
        f"setup_s {statistics.median(setup.raw):.6f} s "
        f"(median of n={len(setup.raw)})",
        f"points_per_s {statistics.median(rows / sum(p) for p in passes):.3f} 1/s "
        f"(median over n={n} decks)",
        f"op_p50_ms {statistics.median(raw) * 1e3:.4f} ms (n={len(raw)})",
        percentile_line("op_p95_ms", raw, 95),
    ]
    return metrics, checks, lines


def measure_traced(pkg, deck, args):
    """Alternate untraced and traced passes of the deck."""
    checks = Checks(deck, args.seed)
    plain, traced, layers = [], [], []
    while sum(plain) + sum(traced) < args.seconds:
        results, seconds = run_deck(pkg.cli, deck)
        plain.append(seconds)
        checks.add_pass(results)
        tr = tracing.Tracer()
        with tr.installed(pkg):
            results, seconds = run_deck(pkg.cli, deck)
        traced.append(seconds)
        checks.add_pass(results)
        layers.append(tr.metrics())
    metrics = {name: statistics.median(m[name] for m in layers)
               for name in tracing.metric_names()}
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain)
    lines = [f"{len(layers)} untraced and {len(layers)} traced passes of "
             f"{len(deck.ops)} ops; traced/untraced wall time "
             f"{metrics['trace.overhead_frac']:.4f}"]
    counts = [{k: v for k, v in m.items() if not tracing.is_time(k)} for m in layers]
    if any(c != counts[0] for c in counts):
        lines.append("note: per-layer counts differ between traced passes")
    return metrics, checks, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=decks.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = load_spec(ROOT)
        pkg = load_package(ROOT)
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    # One CPU for the loop, the probes and the set-up children, so that a
    # probe sees the core the timed work ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    (BENCH_DIR / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=BENCH_DIR / ".work"))
    try:
        input_dir = str(work / "inputs")
        deck = decks.make_deck(args.workload, args.seed, input_dir)
        if args.trace:
            decks.write_inputs(deck, input_dir)
            metrics, checks, lines = measure_traced(pkg, deck, args)
            wanted = spec["per_layer"]
        else:
            speed = Speed()
            setup = Setup(ROOT, work, deck, input_dir)
            setup.sample()
            metrics, checks, lines = measure(pkg.cli, deck, args, setup, speed)
            wanted = spec["end_to_end"]
        lines.append(checks.reference())
        missing = [m["name"] for m in wanted if m["name"] not in metrics]
        if missing:
            raise BenchError(f"no value for metrics {missing}")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = checks.failed
    lines.append(f"failed {failed} of {checks.attempted} attempted "
                 f"({sum(checks.domain_errors)} exit 3, {len(checks.wrong)} ops wrong)")
    lines += [f"WRONG {note}" for note in checks.notes]
    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}")
    for line in lines:
        print(f"  {line}")
    result = {
        "correct": not checks.wrong,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
