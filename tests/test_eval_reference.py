"""eval rows of the image classes against perfbench/reference.py.

A sparse subset of the benchmark's series deck: every fifth row of each
uks, ubk and lk op of eval-series, seeds 1 and 2, held to the mpmath
reference of the class formula relative to the sum of absolute
contributions.  Skipped where mpmath is not installed.
"""

import importlib.util

import pytest

import cli_corpus
from freetransform import const_c, const_d, kernel_g, lclass, sself, ubeta

pytest.importorskip("mpmath")

_FAMILIES = {"uks": sself, "ubk": ubeta, "lk": lclass}
# fixed before measuring, in units of the sum of absolute contributions
# (worst measured 1.2e-16, and 2.5e-16 where g is summed atom by atom)
REFERENCE_BOUND = 1e-15


def _reference():
    spec = importlib.util.spec_from_file_location(
        "perfbench_reference", cli_corpus.ROOT / "perfbench" / "reference.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _absolute_contributions(fam, data, t):
    """|a c| + |sigma^2 d|/t + sum |w x| (|g(ix/t)| + c/(1+x^2))."""
    c, d = const_c(fam), const_d(fam)
    return (abs(data["a"] * c) + abs(data["sigma2"] * d) / t
            + sum(abs(a["w"] * a["x"]) * (abs(kernel_g(fam, 1j * a["x"] / t))
                                          + c / (1.0 + a["x"] ** 2))
                  for a in data["atoms"]))


@pytest.mark.parametrize("seed", [1, 2])
def test_series_deck_image_rows_against_the_reference(seed, tmp_path):
    decks, reference = cli_corpus._decks(cli_corpus.ROOT), _reference()
    deck = decks.make_deck("eval-series", seed, str(tmp_path))
    decks.write_inputs(deck, str(tmp_path))
    checked, worst = 0, 0.0
    for op in deck.ops:
        if op.class_tag not in _FAMILIES or (op.class_tag == "uks" and op.k == 0):
            continue
        fam = _FAMILIES[op.class_tag](op.k)
        code, out, err = cli_corpus.run_op(list(op.argv))
        assert (code, err) == (0, ""), op.argv
        for row in out.splitlines()[1::5]:
            t, re_v, im_v = map(float, row.split(","))
            ref = reference.reference_value(op.class_tag, op.k, op.data, t)
            dev = abs(complex(re_v, im_v) - ref) / _absolute_contributions(fam, op.data, t)
            worst = max(worst, dev)
            checked += 1
    assert checked == 16 * 10
    assert worst <= REFERENCE_BOUND, worst
