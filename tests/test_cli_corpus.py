"""The command line's output bytes against the golden corpus.

Each op of cli_corpus.py runs in-process; its stdout, stderr and exit
code must match the corpus.  An op that moves on purpose is re-recorded
with ``python tests/cli_corpus.py --write``, which prints what moved.
"""

import json

import cli_corpus


def test_corpus_covers_the_ops():
    corpus = json.loads(cli_corpus.CORPUS.read_text(encoding="utf-8"))
    assert [(e["id"], e["argv"]) for e in corpus] == [
        (name, argv) for name, argv in cli_corpus.ops()]


def test_cli_output_matches_the_corpus(tmp_path, monkeypatch):
    corpus = {e["id"]: e for e in json.loads(cli_corpus.CORPUS.read_text(encoding="utf-8"))}
    monkeypatch.chdir(tmp_path)
    moved = []
    for name, argv in cli_corpus.ops(str(tmp_path)):
        code, out, err = cli_corpus.run_op(argv)
        entry = corpus[name]
        if (code, cli_corpus.sha256(out), cli_corpus.sha256(err)) != (
                entry["exit"], entry["stdout_sha256"], entry["stderr_sha256"]):
            moved.append(name)
    assert not moved, f"{len(moved)} ops moved: {moved}"
