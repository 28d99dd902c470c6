"""Seeded decks of ``freetransform`` CLI invocations, one deck per workload.

A deck fixes the class, the order k and the atom count of every op, and
nearly fixes each |x|; the seed draws the atom signs and weights, a small
jitter of |x|, and the drift and Gaussian parts.  The work of every op
therefore barely depends on the seed, which keeps run-to-run spread down,
while each seed still gives new numbers.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

WORKLOADS = ("eval-series", "eval-wide", "verify-all")

STEPS = 50
# The atoms of an input with n atoms split log |x| over [X_MIN, X_MAX] into n
# equal strata, one atom each, placed at the stratum's centre moved by at most
# JITTER/2 of its width.  Quadrature work depends strongly on |x|, so this keeps
# the work of a deck nearly the same for every seed.
X_MIN, X_MAX = 0.05, 2.0
JITTER = 0.05
# eval-series starts its grid a little above t = 2 max|x|, so every Lerch and
# polylog argument x/(it) lies inside the series radius 1/2
SERIES_T_FACTOR = 2.02
SERIES_T_SPAN = 100.0
WIDE_T_MIN, WIDE_T_MAX = 1e-3, 1e3

_LOW_TO_HIGH = (
    (("id", None), ("linf", None))
    + tuple(("uks", k) for k in (0, 1, 2, 4, 8, 16))
    + tuple(("ubk", k) for k in (1, 2, 4, 8, 16))
    + tuple(("lk", k) for k in (0, 1, 2, 4, 8, 16))
)
# uks k=11 and lk k=7 exhaust the quadrature panel budget on the wide grid and
# exit 3; they stay in the deck and count as failed.
_WIDE = (
    (("id", None), ("linf", None))
    + tuple(("uks", k) for k in (0, 1, 2, 4, 8, 11))
    + tuple(("ubk", k) for k in (1, 2, 3, 4, 8, 16))
    + tuple(("lk", k) for k in (0, 1, 2, 4, 7))
)
# Both decks hold an odd number of ops, so the median latency is that of one
# op rather than the mean of two ops of different cost.  On eval-wide that op
# is uks k=1 for every seed: ubk k=4 does 0.8 times its quadrature work and
# lk k=0 1.8 times.
CLASS_ORDERS = {"eval-series": _LOW_TO_HIGH, "eval-wide": _WIDE}


@dataclass(frozen=True)
class Op:
    """One CLI invocation: its argv and, for ``eval``, what it evaluates."""

    argv: tuple[str, ...]
    class_tag: str | None = None
    k: int | None = None
    data: dict | None = None


@dataclass(frozen=True)
class Deck:
    workload: str
    ops: tuple[Op, ...]
    inputs: tuple[tuple[str, str], ...]  # (file name, JSON text)


def _atoms(rng: random.Random, n: int) -> list[dict]:
    span = X_MAX / X_MIN
    out = []
    for j in range(n):
        u = (j + 0.5 + JITTER * rng.uniform(-0.5, 0.5)) / n
        mag = X_MIN * span ** u
        out.append({"x": mag if rng.random() < 0.5 else -mag,
                    "w": rng.uniform(0.1, 1.5)})
    return out


def _input(rng: random.Random, class_tag: str, n_atoms: int) -> dict:
    atoms = _atoms(rng, n_atoms)
    if class_tag == "linf":
        return {"c": rng.uniform(-1.0, 1.0), "atoms": atoms}
    return {"a": rng.uniform(-1.0, 1.0), "sigma2": rng.uniform(0.0, 2.0),
            "atoms": atoms}


def make_deck(workload: str, seed: int, input_dir: str) -> Deck:
    """The deck of ``workload`` for ``seed``; ``eval`` ops read their JSON
    input from ``input_dir`` (see ``write_inputs``)."""
    if workload == "verify-all":
        return Deck(workload, (Op(("verify", "all")),), ())
    if workload not in CLASS_ORDERS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    ops, inputs = [], []
    for i, (class_tag, k) in enumerate(CLASS_ORDERS[workload]):
        data = _input(rng, class_tag, 1 + i % 8)
        if workload == "eval-series":
            t_min = SERIES_T_FACTOR * max(abs(a["x"]) for a in data["atoms"])
            t_max = SERIES_T_SPAN * t_min
        else:
            t_min, t_max = WIDE_T_MIN, WIDE_T_MAX
        name = f"op{i:02d}.json"
        argv = ["eval", "--class", class_tag, "--input",
                os.path.join(input_dir, name), "--t-min", repr(t_min),
                "--t-max", repr(t_max), "--steps", str(STEPS)]
        if k is not None:
            argv += ["--k", str(k)]
        ops.append(Op(tuple(argv), class_tag, k, data))
        inputs.append((name, json.dumps(data, sort_keys=True)))
    return Deck(workload, tuple(ops), tuple(inputs))


def write_inputs(deck: Deck, input_dir: str) -> None:
    os.makedirs(input_dir, exist_ok=True)
    for name, text in deck.inputs:
        with open(os.path.join(input_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
