"""Tests of the benchmark itself: inputs, tracer, checks and isolation.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import decks
import reference
import run
import tracer

PKG = run.load_package(run.ROOT)


def _deck(workload, tmp_path, seed=7, classes=None):
    deck = decks.make_deck(workload, seed, str(tmp_path))
    if classes is not None:
        deck = dataclasses.replace(
            deck, ops=tuple(op for op in deck.ops if op.class_tag in classes))
    decks.write_inputs(deck, str(tmp_path))
    return deck


def _traced(deck):
    tr = tracer.Tracer()
    with tr.installed(PKG):
        results, _ = run.run_deck(PKG.cli, deck)
    return results, tr.metrics()


@pytest.mark.parametrize("workload", decks.WORKLOADS)
def test_same_seed_gives_same_inputs(workload, tmp_path):
    a = decks.make_deck(workload, 3, str(tmp_path))
    assert a == decks.make_deck(workload, 3, str(tmp_path))
    if workload != "verify-all":
        assert a.inputs != decks.make_deck(workload, 4, str(tmp_path)).inputs


def test_series_deck_stays_inside_the_series_radius(tmp_path):
    deck = _deck("eval-series", tmp_path)
    results, metrics = _traced(deck)
    assert all(r.code == 0 for r in results)
    assert metrics["quadrature.evals"] == 0
    assert metrics["specfun.lerch_phi.integral.calls"] == 0
    assert metrics["specfun.lerch_phi.series.calls"] > 0


def test_wide_deck_keeps_the_orders_that_exhaust_the_panel_budget():
    deck = decks.make_deck("eval-wide", 1, "inputs")
    orders = {(op.class_tag, op.k) for op in deck.ops}
    assert {("uks", 11), ("lk", 7)} <= orders


def test_layer_counts_repeat_exactly(tmp_path):
    deck = _deck("eval-wide", tmp_path, classes={"ubk", "linf", "id"})
    _, first = _traced(deck)
    _, second = _traced(deck)
    counts = [{k: v for k, v in m.items() if not tracer.is_time(k)}
              for m in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["quadrature.evals"] > 0


def _bindings():
    names = [n for n in sys.modules if n == "freetransform" or n.startswith("freetransform.")]
    snap = {n: dict(vars(sys.modules[n])) for n in names}
    snap["SUITES"] = dict(PKG.verify.SUITES)
    return snap


def test_tracer_leaves_output_bytes_and_bindings_unchanged(tmp_path):
    deck = _deck("eval-wide", tmp_path, classes={"linf", "lk"})
    deck = dataclasses.replace(deck, ops=deck.ops[:2])
    before = _bindings()
    plain, _ = run.run_deck(PKG.cli, deck)
    traced, metrics = _traced(deck)
    after = _bindings()
    assert [(r.code, r.out, r.err) for r in plain] == \
        [(r.code, r.out, r.err) for r in traced]
    assert metrics["specfun.polylog.lerch.calls"] > 0
    assert before.keys() == after.keys()
    for name in before:
        assert before[name].keys() == after[name].keys()
        for key, value in before[name].items():
            assert after[name][key] is value, f"{name}.{key} not restored"


@pytest.mark.skipif(not reference.available(), reason="mpmath is not installed")
def test_reference_check_catches_a_nudged_value(tmp_path):
    deck = _deck("eval-series", tmp_path, classes={"ubk", "lk"})
    results, _ = run.run_deck(PKG.cli, deck)
    clean = run.Checks(deck, seed=1)
    clean.add_pass(results)
    clean.reference()
    assert not clean.wrong

    def nudge(out):
        lines = out.splitlines()
        rows = []
        for line in lines[1:]:
            t, re_v, im_v = line.split(",")
            rows.append(f"{t},{float(re_v) * (1 + 1e-8)!r},{im_v}")
        return "\n".join([lines[0]] + rows) + "\n"

    nudged = [dataclasses.replace(results[0], out=nudge(results[0].out))] + results[1:]
    checks = run.Checks(deck, seed=1)
    checks.add_pass(nudged)
    checks.reference()
    assert checks.wrong == {0}
    assert checks.failed == 1


def test_failed_counts_exit_3_and_wrong_bytes(tmp_path):
    deck = _deck("eval-series", tmp_path, classes={"id", "linf"})
    ok = run.Result(0, "t,re_V,im_V\n" + "1.0,0.0,0.0\n" * decks.STEPS, "", 0.0)
    domain = run.Result(3, "", "domain error: x\n", 0.0)
    checks = run.Checks(deck, seed=1)
    checks.add_pass([ok, domain])
    checks.add_pass([dataclasses.replace(ok, out=ok.out + "x"), domain])
    assert checks.attempted == 4
    assert checks.wrong == {0}
    assert checks.failed == 4


def test_refuses_a_package_from_outside_the_tree(tmp_path):
    with pytest.raises(run.BenchError):
        run.load_package(tmp_path)


def test_fails_without_the_tree_under_test(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval-series",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == \
        tracer.metric_names() + ["trace.overhead_frac"]
    assert [w["name"] for w in spec["workloads"]] == list(decks.WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_short_run_reports_every_metric(trace):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval-series",
         "--seed", "1", "--seconds", "0.1", "--trace", trace],
        cwd=run.ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = spec["per_layer" if trace == "1" else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in wanted}


def test_segments_hold_enough_probes_and_share_one_factor():
    speed = run.Speed()
    speed.probes = [run.QUIET_PROBE_S] * 60 + [2 * run.QUIET_PROBE_S] * 90
    spans = [(0, 30), (30, 60), (60, 100), (100, 140), (140, 150)]
    # 60 probes close the first segment and 80 the second; the 10-probe tail
    # joins the second
    assert run.segment_scales(spans, speed) == pytest.approx([1, 1, 0.5, 0.5, 0.5])


def test_probing_takes_probe_time_out_and_restores_the_timer(tmp_path):
    import signal

    deck = _deck("eval-wide", tmp_path, classes={"lk"})
    speed = run.Speed()
    before = signal.getsignal(signal.SIGALRM)
    with speed.probing():
        r = run.invoke(PKG.cli, deck.ops[1].argv)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert speed.probes and 0 < speed.probe_s < r.seconds
