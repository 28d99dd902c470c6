"""Golden corpus of the command line's output bytes.

The corpus (cli_corpus.json, next to this file) holds, for each op, its
argv, the sha256 of its stdout and of its stderr, and its exit code.  The
ops are both eval decks of perfbench/decks.py for seeds 1-5, ``verify
all``, ``info``, and ``kernels`` for each family at k = 1, 2 and 5 on the
default grid and on one imaginary-axis grid.  test_cli_corpus.py runs
them in-process and compares.

Compare this tree's output with a revision's:

    python tests/cli_corpus.py [--base REV] [--write]

It runs every op on this tree and on the ``git archive`` of REV (default
HEAD), and prints each op that moved with the number of rows that moved,
the columns they moved in, and the largest move relative to the largest
magnitude among the row's moved fields.  It exits 1 when any op moved
or is new, and 0 when none did.  Only with ``--write``, after a change
that moves output on purpose, does it rewrite the corpus from this
tree's output.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CORPUS = Path(__file__).resolve().parent / "cli_corpus.json"
SEEDS = (1, 2, 3, 4, 5)
KERNEL_ORDERS = (1, 2, 5)
# the default grid, then z = iy for y = -3, -2, ..., 3 with z = 0 among them
KERNEL_GRIDS = (None, "0:0:1,-3:3:7")


def _decks(root: Path):
    spec = importlib.util.spec_from_file_location(
        "perfbench_decks", root / "perfbench" / "decks.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolves the deck's string annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def ops(input_root: str | None = None, root: Path = ROOT) -> list[tuple[str, list[str]]]:
    """(id, argv) of every op, from the decks of the tree at root.  Eval
    inputs are named relative to the working directory; with input_root
    given they are written there."""
    decks = _decks(root)
    out = []
    for workload in ("eval-series", "eval-wide"):
        for seed in SEEDS:
            folder = f"{workload}-{seed}"
            deck = decks.make_deck(workload, seed, folder)
            if input_root is not None:
                decks.write_inputs(deck, os.path.join(input_root, folder))
            for i, op in enumerate(deck.ops):
                out.append((f"{folder}/op{i:02d}", list(op.argv)))
    out += [("verify-all", ["verify", "all"]), ("info", ["info"])]
    for family in ("sself", "ubeta", "lclass"):
        for k in KERNEL_ORDERS:
            for grid in KERNEL_GRIDS:
                argv = ["kernels", "--family", family, "--k", str(k)]
                name = f"kernels-{family}-{k}"
                if grid is not None:
                    argv += ["--grid", grid]
                    name += "-axis"
                out.append((name, argv))
    return out


def run_op(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of freetransform.cli.main(argv)."""
    from freetransform import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_all(workdir: str, root: Path = ROOT) -> dict[str, tuple[list[str], int, str, str]]:
    """Every op run in workdir, its inputs written there first."""
    here = os.getcwd()
    table = ops(workdir, root)
    os.chdir(workdir)
    try:
        return {name: (argv, *run_op(argv)) for name, argv in table}
    finally:
        os.chdir(here)


def _rows_moved(old: str, new: str):
    """(rows moved, columns moved, largest relative move) between two
    CSV outputs of one op, or None where they are not comparable."""
    old_rows, new_rows = old.splitlines(), new.splitlines()
    if len(old_rows) != len(new_rows) or not old_rows or old_rows[0] != new_rows[0]:
        return None
    header = old_rows[0].split(",")
    moved, columns, worst = 0, set(), 0.0
    for a, b in zip(old_rows[1:], new_rows[1:]):
        if a == b:
            continue
        moved += 1
        try:
            xs, ys = [float(v) for v in a.split(",")], [float(v) for v in b.split(",")]
        except ValueError:
            return None
        diff = [i for i, (x, y) in enumerate(zip(xs, ys)) if repr(x) != repr(y)]
        columns.update(header[i] for i in diff)
        scale = max(abs(xs[i]) for i in diff)
        if scale:
            worst = max(worst, max(abs(ys[i] - xs[i]) for i in diff) / scale)
        else:
            worst = float("inf")
    return moved, sorted(columns), worst


def _base_outputs(rev: str) -> dict:
    """Every op's (exit code, stdout, stderr) on the git archive of rev,
    run in a child interpreter that imports that tree's package."""
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src", "perfbench"],
                                 check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp)
        env = {**os.environ, "PYTHONPATH": os.path.join(tmp, "src")}
        proc = subprocess.run([sys.executable, __file__, "--dump", tmp],
                              check=True, capture_output=True, text=True, env=env)
    return json.loads(proc.stdout)


def main(args: list[str]) -> int:
    if args[:1] == ["--dump"]:
        # child side of _base_outputs: the package comes from PYTHONPATH
        with tempfile.TemporaryDirectory() as tmp:
            got = run_all(tmp, Path(args[1]))
        json.dump({name: [code, out, err] for name, (_, code, out, err) in got.items()},
                  sys.stdout)
        return 0
    rev = args[args.index("--base") + 1] if "--base" in args else "HEAD"
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        got = run_all(tmp)
    base = _base_outputs(rev)
    total = 0
    for name, (argv, code, out, err) in got.items():
        if name not in base:
            total += 1
            print(f"{name}: new op")
            continue
        old_code, old_out, old_err = base[name]
        if (old_code, old_out, old_err) == (code, out, err):
            continue
        total += 1
        rows = _rows_moved(old_out, out) if old_code == code and old_err == err else None
        if rows is None:
            print(f"{name}: exit {old_code} -> {code}, output not row-comparable")
        else:
            moved, columns, worst = rows
            print(f"{name}: {moved} of {len(out.splitlines()) - 1} rows moved, "
                  f"in {', '.join(columns)}; largest relative move {worst:.2e}")
    print(f"{total} of {len(got)} ops moved against {rev}")
    if "--write" in args:
        corpus = [{"id": name, "argv": argv, "stdout_sha256": sha256(out),
                   "stderr_sha256": sha256(err), "exit": code}
                  for name, (argv, code, out, err) in got.items()]
        # one op a line, so that a diff of the corpus names the ops that moved
        CORPUS.write_text("[\n" + ",\n".join(map(json.dumps, corpus)) + "\n]\n",
                          encoding="utf-8")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
