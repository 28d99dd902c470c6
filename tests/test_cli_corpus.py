"""The command line's output bytes against the golden corpus.

Each op of cli_corpus.py runs in-process; its stdout, stderr and exit
code must match the corpus.  An op that moves on purpose is re-recorded
with ``python tests/cli_corpus.py --write``, which prints what moved.
"""

import json

import cli_corpus

from freetransform import quadrature


def test_corpus_covers_the_ops():
    corpus = json.loads(cli_corpus.CORPUS.read_text(encoding="utf-8"))
    assert [(e["id"], e["argv"]) for e in corpus] == [
        (name, argv) for name, argv in cli_corpus.ops()]


def _moved(tmp_path, kind=None):
    """(ops run, ids of those that moved) among the ops whose argv starts
    with kind (every op for None), run in tmp_path."""
    corpus = {e["id"]: e for e in json.loads(cli_corpus.CORPUS.read_text(encoding="utf-8"))}
    ran, moved = 0, []
    for name, argv in cli_corpus.ops(str(tmp_path)):
        if kind is not None and argv[0] != kind:
            continue
        ran += 1
        code, out, err = cli_corpus.run_op(argv)
        entry = corpus[name]
        if (code, cli_corpus.sha256(out), cli_corpus.sha256(err)) != (
                entry["exit"], entry["stdout_sha256"], entry["stderr_sha256"]):
            moved.append(name)
    return ran, moved


def test_cli_output_matches_the_corpus(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _, moved = _moved(tmp_path)
    assert not moved, f"{len(moved)} ops moved: {moved}"


def test_no_eval_op_integrates(tmp_path, monkeypatch):
    # every eval op of both decks answers from closed forms and series:
    # with the G7/K15 panel made to raise, each op still matches the corpus
    def forbidden(*args):
        raise AssertionError("an eval op integrated")

    monkeypatch.setattr(quadrature, "_kronrod_panel", forbidden)
    monkeypatch.chdir(tmp_path)
    ran, moved = _moved(tmp_path, "eval")
    assert ran == 190
    assert not moved, f"{len(moved)} ops moved: {moved}"
