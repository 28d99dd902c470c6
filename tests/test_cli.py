"""Command-line interface: formats, grids, exit codes, determinism."""

import contextlib
import gc
import io
import json
import math
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest
from childproc import SRC, child_env
from hypothesis import given, settings
from hypothesis import strategies as st

CMD = [sys.executable, "-m", "freetransform.cli"]


def run(*args):
    return subprocess.run(CMD + list(args), capture_output=True, text=True,
                          env=child_env())


@pytest.fixture()
def gauss_json(tmp_path):
    path = tmp_path / "gauss.json"
    path.write_text(json.dumps({"a": 1, "sigma2": 2}))
    return str(path)


@pytest.fixture()
def rademacher_json(tmp_path):
    path = tmp_path / "rade.json"
    path.write_text(json.dumps(
        {"c": 0.4, "atoms": [{"x": 1, "w": 0.5}, {"x": -1, "w": 0.5}]}))
    return str(path)


# eval ----------------------------------------------------------------------

def test_eval_golden_row(gauss_json):
    res = run("eval", "--class", "lk", "--k", "0", "--input", gauss_json,
              "--t-min", "1", "--t-max", "1", "--steps", "1")
    assert res.returncode == 0
    assert res.stdout.splitlines() == ["t,re_V,im_V", "1.0,1.0,-1.0"]


def test_eval_pure_drift_rows(tmp_path):
    path = tmp_path / "drift.json"
    path.write_text('{"a": 5}')
    res = run("eval", "--class", "id", "--input", str(path), "--steps", "4")
    assert res.returncode == 0
    rows = res.stdout.splitlines()[1:]
    assert len(rows) == 4
    for row in rows:
        _, re_v, im_v = row.split(",")
        assert re_v == "5.0" and im_v == "0.0"


def test_eval_linf_rademacher(rademacher_json):
    res = run("eval", "--class", "linf", "--input", rademacher_json,
              "--steps", "3")
    assert res.returncode == 0
    for row in res.stdout.splitlines()[1:]:
        t, re_v, im_v = row.split(",")
        assert float(re_v) == 0.4
        assert abs(float(im_v) - (-math.pi / 2.0)) < 1e-15


def test_eval_geometric_grid(gauss_json):
    res = run("eval", "--class", "id", "--input", gauss_json,
              "--t-min", "0.5", "--t-max", "2", "--steps", "3")
    ts = [float(r.split(",")[0]) for r in res.stdout.splitlines()[1:]]
    assert ts[0] == 0.5 and ts[-1] == 2.0
    assert math.isclose(ts[1], 1.0, rel_tol=1e-15)  # log-spaced midpoint


def test_eval_deterministic_output(gauss_json, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        res = run("eval", "--class", "ubk", "--k", "2", "--input", gauss_json,
                  "--out", str(out))
        assert res.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes().endswith(b"\n")


def test_eval_holds_no_memory_between_calls(tmp_path):
    # the Lerch tables are bounded and keyed by (s, v) alone, and each
    # call's evaluator is dropped with it: repeated calls leave no blocks
    from freetransform import cli

    path = tmp_path / "three.json"
    path.write_text(json.dumps({"a": 0.3, "sigma2": 0.5, "atoms": [
        {"x": -1.2, "w": 0.4}, {"x": 0.6, "w": 1.0}, {"x": 2.5, "w": 0.2}]}))
    argv = ["eval", "--class", "uks", "--k", "4", "--input", str(path),
            "--t-min", "0.01", "--t-max", "100", "--steps", "50",
            "--out", str(tmp_path / "v.csv")]
    for _ in range(50):
        assert cli.main(argv) == 0
    gc.collect()
    before = sys.getallocatedblocks()
    for _ in range(600):
        cli.main(argv)
    gc.collect()
    assert sys.getallocatedblocks() - before < 200


def test_eval_k_validation(gauss_json):
    res = run("eval", "--class", "uks", "--input", gauss_json)
    assert res.returncode == 2
    assert "--k" in res.stderr
    res = run("eval", "--class", "ubk", "--k", "0", "--input", gauss_json)
    assert res.returncode == 2
    res = run("eval", "--class", "id", "--k", "1", "--input", gauss_json)
    assert res.returncode == 2


def test_eval_input_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"a": "zero"}')
    res = run("eval", "--class", "id", "--input", str(bad))
    assert res.returncode == 2
    assert "'a'" in res.stderr  # message names the offending field

    bad.write_text('{"a": 0, "atoms": [{"x": 1}]}')
    res = run("eval", "--class", "id", "--input", str(bad))
    assert res.returncode == 2
    assert "atoms[0].w" in res.stderr

    bad.write_text("{not json")
    res = run("eval", "--class", "id", "--input", str(bad))
    assert res.returncode == 2

    res = run("eval", "--class", "id", "--input", str(tmp_path / "missing.json"))
    assert res.returncode == 2


@pytest.mark.parametrize("value", [True, False, "1", None, [1], {}, 1e400])
def test_non_number_field_has_one_message(value):
    # JSON true and false are ints to Python but not numbers to the CLI;
    # they read as every other non-number does
    from freetransform import InvalidInput, cli
    with pytest.raises(InvalidInput) as info:
        cli.parse_triple({"a": value})
    assert str(info.value) == f"field 'a' must be a finite number, got {value!r}"


def test_eval_grid_validation(gauss_json):
    res = run("eval", "--class", "id", "--input", gauss_json, "--t-min", "0")
    assert res.returncode == 2
    res = run("eval", "--class", "id", "--input", gauss_json,
              "--t-min", "2", "--t-max", "1")
    assert res.returncode == 2
    res = run("eval", "--class", "id", "--input", gauss_json, "--steps", "0")
    assert res.returncode == 2


def test_eval_grid_limits(gauss_json, capsys):
    # a t ratio that overflows, or more points than MAX_STEPS, is an
    # input error, raised before any point is formed
    from freetransform import cli

    base = ["eval", "--class", "id", "--input", gauss_json]
    for extra in (["--t-min", "1e-200", "--t-max", "1e300"],
                  ["--steps", str(cli.MAX_STEPS + 1)],
                  ["--steps", "100000000000000000000"]):
        assert cli.main(base + extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
    # the largest finite ratio still gives a grid
    grid = cli.geometric_grid(1e-308, 1.0, 3)
    assert grid[0] == 1e-308 and math.isclose(grid[-1], 1.0, rel_tol=1e-14)
    assert str(cli.MAX_STEPS) in run("eval", "--help").stdout


def test_eval_overflowing_linf_power_is_a_domain_error(tmp_path, capsys):
    # t^(1-|x|) of an atom at x = 2 overflows below t of about 5.6e-309
    from freetransform import cli

    path = tmp_path / "linf.json"
    path.write_text(json.dumps({"c": 0.1, "atoms": [{"x": 2, "w": 1.0}]}))
    argv = ["eval", "--class", "linf", "--input", str(path),
            "--t-min", "1e-310", "--t-max", "1e-300", "--steps", "3"]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("domain error: ") and err.count("\n") == 1, err


def test_eval_non_finite_lerch_argument_ends(tmp_path):
    # x/t overflows to inf at a subnormal t; a child process with a
    # timeout turns a hang into a failure.  The message names t, and for
    # the Lerch classes the atom whose x/t overflowed (both do here); id
    # overflows in sigma2/(it)
    path = tmp_path / "tri.json"
    path.write_text(json.dumps({"a": 0.3, "sigma2": 1.0, "atoms": [
        {"x": 0.5, "w": 1.0}, {"x": -2.0, "w": 0.4}]}))
    for cls in (["uks", "--k", "2"], ["ubk", "--k", "3"], ["lk", "--k", "1"], ["id"]):
        res = subprocess.run(CMD + ["eval", "--class", *cls, "--input", str(path),
                                    "--t-min", "1e-320", "--t-max", "1e-310",
                                    "--steps", "3"],
                             capture_output=True, text=True, timeout=60,
                             env=child_env())
        assert res.returncode == 3, res.stderr
        assert res.stderr.startswith("domain error: ")
        assert res.stderr.count("\n") == 1, res.stderr
        assert "t=1e-320" in res.stderr, res.stderr
        if cls != ["id"]:
            assert "atom x=-2.0" in res.stderr or "atom x=0.5" in res.stderr, res.stderr


def test_eval_atom_beyond_the_square_root_of_the_double_range(tmp_path):
    # x*x overflows for |x| above about 1.34e154; the companion weight
    # x^2/(1+x^2) is 1.0 there, so every class gives rows
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"a": 0.3, "sigma2": 1.0, "atoms": [
        {"x": 1e200, "w": 1.0}, {"x": -0.5, "w": 0.4}]}))
    for cls in (["id"], ["uks", "--k", "0"], ["uks", "--k", "2"],
                ["ubk", "--k", "3"], ["lk", "--k", "1"]):
        res = run("eval", "--class", *cls, "--input", str(path), "--steps", "3")
        assert res.returncode == 0, (cls, res.stderr)
        assert res.stderr == "" and len(res.stdout.splitlines()) == 4


# |x|/t from 1e150 to 1e308: Phi(z, s, 2) divided by z * z, which
# overflows from |z| of about 1.34e154 on, and uks printed 0.0 there with
# exit 0; and t x, which overflows for id at x = 1e308, t = 10.  Far out
# V(it) is about -it; id and uks rows are held to it within FAR_BOUND,
# 2.8 times the worst measured, 1.8e-16 (it was 1.2e-13 at k = 2,
# x = 1e308, t = 1, while Phi(z, s, 2) took the shifted inversion there)
FAR_BOUND = 5e-16
_FAR_ATOMS = (1e152, -1e160, 1e200, -1e250, 1e300, 1e308, -1e308)
_FAR_CLASSES = (["id"], ["uks", "--k", "0"], ["uks", "--k", "1"], ["uks", "--k", "2"],
                ["uks", "--k", "5"], ["ubk", "--k", "1"], ["ubk", "--k", "3"],
                ["lk", "--k", "0"], ["lk", "--k", "2"])


def _eval_rows_or_domain_error(argv, steps):
    """The rows of an in-process eval, or None for a one-line domain
    error (exit 3)."""
    from freetransform import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--steps", str(steps)])
    if code == 3:
        assert err.getvalue().startswith("domain error: "), argv
        assert err.getvalue().count("\n") == 1, err.getvalue()
        return None
    assert (code, err.getvalue()) == (0, ""), argv
    rows = [tuple(map(float, row.split(","))) for row in out.getvalue().splitlines()[1:]]
    assert len(rows) == steps, argv
    assert all(math.isfinite(v) for row in rows for v in row), (argv, rows)
    return rows


def test_eval_atoms_far_beyond_t(tmp_path):
    path = tmp_path / "far.json"
    for x in _FAR_ATOMS:
        path.write_text(json.dumps({"atoms": [{"x": x, "w": 1.0}]}))
        for cls in _FAR_CLASSES:
            rows = _eval_rows_or_domain_error(
                ["eval", "--class", *cls, "--input", str(path),
                 "--t-min", "1", "--t-max", "100"], 3)
            if cls in (["id"], ["uks", "--k", "0"]):
                assert rows is not None, (x, cls)
            if cls[0] in ("id", "uks") and rows is not None:
                for t, re_v, im_v in rows:
                    assert abs(complex(re_v, im_v + t)) <= FAR_BOUND * t, (x, cls, t)
                if abs(x) == 1e308 and cls[0] == "id":
                    assert rows[1] == (10.0, math.copysign(9.899999999999998e-307, x),
                                       -10.0), (x, rows)
    # w (1 + i t x) overflows at t = 1, and so does the weight w x of the
    # other classes; V(i) is -i w x^2/(1+x^2), about -1e300 i, for id, and
    # the others' values come from perfbench/reference.py (mpmath)
    path.write_text(json.dumps({"atoms": [{"x": 1e10, "w": 1e300}]}))
    for cls, value in ((["id"], -1e300j), (["uks", "--k", "0"], -1e300j),
                       (["lk", "--k", "0"], 1.5707963265948967e+300 - 2.302585092994046e+301j),
                       (["uks", "--k", "1"], 2.2525850929940457e+291 - 9.999999998429204e+299j),
                       (["ubk", "--k", "1"], 2.2525850929940457e+291 - 9.999999998429204e+299j)):
        rows = _eval_rows_or_domain_error(
            ["eval", "--class", *cls, "--input", str(path), "--t-min", "1", "--t-max", "1"], 1)
        assert rows is not None, cls
        assert abs(complex(*rows[0][1:]) - value) <= FAR_BOUND * abs(value), (cls, rows)
    # linf atoms lie in (-2, 2], so t goes down to |x|/1e308
    for x in (2.0, -1.5, 0.5):
        path.write_text(json.dumps({"c": 0.3, "atoms": [{"x": x, "w": 1.0}]}))
        _eval_rows_or_domain_error(
            ["eval", "--class", "linf", "--input", str(path),
             "--t-min", repr(abs(x) / 1e308), "--t-max", repr(abs(x) / 1e150)], 5)


def test_eval_atom_whose_square_is_below_the_normal_range(tmp_path):
    # x*x underflows to 0 at x = 1e-170, while the companion mass w x^2 =
    # 1e-40 is a normal double: V(i) is about m/(i) = -1e-40 i, not 0
    path = tmp_path / "near.json"
    path.write_text(json.dumps({"atoms": [{"x": 1e-170, "w": 1e300}]}))
    for cls in (["id"], ["uks", "--k", "0"]):
        res = run("eval", "--class", *cls, "--input", str(path),
                  "--t-min", "1", "--t-max", "1", "--steps", "1")
        assert res.returncode == 0, (cls, res.stderr)
        t, re_v, im_v = map(float, res.stdout.splitlines()[1].split(","))
        assert (t, re_v) == (1.0, 0.0), cls
        assert math.isclose(im_v, -1e-40, rel_tol=1e-14), (cls, im_v)


def _log_uniform(lo=-300.0, hi=300.0):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


@st.composite
def _valid_eval_input(draw):
    """A valid eval invocation: class, k <= 20, 0-4 atoms with |x|,
    weights and sigma2 log-uniform on [1e-300, 1e300] (linf atoms on its
    support), and a finite t-grid of at most 3 steps."""
    from freetransform import cli

    class_tag = draw(st.sampled_from(cli._CLASS_TAGS))
    if class_tag == "linf":
        mags = _log_uniform(-300.0, math.log10(2.0)).map(lambda x: min(x, 2.0))
    else:
        mags = _log_uniform()
    atoms = draw(st.lists(st.tuples(mags, st.booleans()), max_size=4,
                          unique_by=lambda a: a[0]))
    atoms = [{"x": -x if negative and x < 2.0 else x, "w": draw(_log_uniform())}
             for x, negative in atoms]
    if class_tag == "linf":
        data = {"c": draw(st.floats(-1.0, 1.0)), "atoms": atoms}
    else:
        data = {"a": draw(st.floats(-1.0, 1.0)), "sigma2": draw(_log_uniform()),
                "atoms": atoms}
    t_min = draw(_log_uniform())
    t_max = t_min * draw(_log_uniform(0.0, 3.0))
    if math.isinf(t_max):
        t_max = t_min
    argv = ["eval", "--class", class_tag, "--t-min", repr(t_min),
            "--t-max", repr(t_max), "--steps", str(draw(st.integers(1, 3)))]
    if class_tag in cli._CLASS_FAMILIES or class_tag == "uks":
        argv += ["--k", str(draw(st.integers(cli._lowest_k(class_tag), 20)))]
    return argv, data


def _id_reference(data, t):
    """(Re V(it), Im V(it), sum of absolute contributions) of the identity
    map, exact in rationals: per atom, Re is w x^3 (t^2-1)/((1+x^2)(t^2+x^2))
    and Im is -w t x^2/(t^2+x^2); a and -sigma2/t are added."""
    t, a, var = Fraction(t), Fraction(data["a"]), Fraction(data["sigma2"])
    re, im, scale = a, -var / t, abs(a) + var / t
    for atom in data["atoms"]:
        x, w = Fraction(atom["x"]), Fraction(atom["w"])
        part_re = w * x ** 3 * (t * t - 1) / ((1 + x * x) * (t * t + x * x))
        part_im = -w * t * x * x / (t * t + x * x)
        re, im, scale = re + part_re, im + part_im, scale + abs(part_re) + abs(part_im)
    return re, im, scale


# id and uks --k 0 rows against _id_reference, relative to the sum of
# absolute contributions (absolute below the smallest normal double):
# 2.6 times the worst of 19 500 rows drawn as below, 3.9e-16
ID_BOUND = 1e-15


@settings(max_examples=80, deadline=None)
@given(_valid_eval_input())
def test_eval_exit_contract_on_valid_inputs(tmp_path_factory, case):
    # a valid input gives rows (exit 0) or a one-line domain error (exit
    # 3), never an input error and never an escaped exception.  The
    # identity map's rows are right, and it answers wherever the sum of
    # absolute contributions stays below 1e308
    from freetransform import cli

    argv, data = case
    path = tmp_path_factory.getbasetemp() / "contract.json"
    path.write_text(json.dumps(data))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--input", str(path)])
    identity = argv[2] == "id" or (argv[2] == "uks" and argv[-1] == "0")
    if code == 0:
        assert err.getvalue() == ""
        rows = out.getvalue().splitlines()[1:]
        assert len(rows) == int(argv[argv.index("--steps") + 1])
        for row in rows if identity else ():
            t, re_v, im_v = map(float, row.split(","))
            re, im, scale = _id_reference(data, t)
            dev = (abs(Fraction(re_v) - re) + abs(Fraction(im_v) - im)) / max(
                scale, Fraction(sys.float_info.min))
            assert dev <= ID_BOUND, (argv, data, row, float(dev))
    else:
        assert code == 3, (argv, data, err.getvalue())
        assert err.getvalue().startswith("domain error: ")
        assert err.getvalue().count("\n") == 1, err.getvalue()
        if identity:
            grid = cli.geometric_grid(*(float(argv[argv.index(flag) + 1])
                                        for flag in ("--t-min", "--t-max")),
                                      int(argv[argv.index("--steps") + 1]))
            assert max(_id_reference(data, t)[2] for t in grid) >= 1e308, (argv, data)


def test_eval_where_the_moment_series_has_no_bound(tmp_path, capsys):
    # the bound sum |w x| of the atoms' moment series overflows, so its
    # table is empty and every point sums g atom by atom.  First the
    # example of the contract above, where w x itself overflows and each
    # term is weighted last; then finite w x whose moment sums stay
    # finite, where the series would stop after one term
    from freetransform import cli

    path = tmp_path / "far.json"
    for atoms, t, row in (
            ([{"x": 1, "w": 1}, {"x": 10 ** 8.5, "w": 1e300}], "1e9",
             "1000000000.0,1.5069862619092399e+308,-3.1465917659610724e+307"),
            ([{"x": 1, "w": 1e308}, {"x": -0.5, "w": 1.6e308}], "10",
             "10.0,1.6801571088445236e+307,-4.6448119862113614e+306")):
        path.write_text(json.dumps({"atoms": atoms}))
        assert cli.main(["eval", "--class", "uks", "--k", "1", "--input", str(path),
                         "--t-min", t, "--t-max", t, "--steps", "1"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out.splitlines()[1:] == [row]


def test_output_file_that_cannot_be_written_is_an_input_error(gauss_json, tmp_path,
                                                             capsys):
    from freetransform import cli

    missing = str(tmp_path / "no_such_dir" / "x.csv")
    for argv in (["eval", "--class", "id", "--input", gauss_json, "--out", missing],
                 ["eval", "--class", "id", "--input", gauss_json, "--out", str(tmp_path)],
                 ["kernels", "--family", "sself", "--k", "1", "--out", missing]):
        assert cli.main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output file: "), err
        assert err.count("\n") == 1, err
    assert not (tmp_path / "no_such_dir").exists()


def test_eval_unknown_field(gauss_json, tmp_path):
    path = tmp_path / "extra.json"
    path.write_text('{"a": 1, "mu": 3}')
    res = run("eval", "--class", "id", "--input", str(path))
    assert res.returncode == 2
    assert "mu" in res.stderr


def _one_error_line(argv, capsys):
    from freetransform import cli

    assert cli.main(argv) == 2, argv
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    return err


def test_json_integers_beyond_the_double_range(tmp_path, capsys):
    # float() of such an integer raises OverflowError; the error names the field
    huge = "1" + "0" * 400
    path = tmp_path / "huge.json"
    for cls, text, field in (
            ("id", f'{{"a": {huge}}}', "'a'"),
            ("id", f'{{"sigma2": {huge}}}', "'sigma2'"),
            ("id", f'{{"atoms": [{{"x": {huge}, "w": 1}}]}}', "'atoms[0].x'"),
            ("id", f'{{"atoms": [{{"x": 1, "w": {huge}}}]}}', "'atoms[0].w'"),
            ("linf", f'{{"c": {huge}}}', "'c'"),
            # more digits than int() takes
            ("id", f'{{"a": 1{"0" * 5000}}}', "not valid JSON")):
        path.write_text(text)
        err = _one_error_line(["eval", "--class", cls, "--input", str(path)], capsys)
        assert field in err, (text[:20], err)


def test_k_beyond_the_double_range_is_an_input_error(gauss_json, capsys):
    # the closed forms take k as a double; float(k) would overflow
    huge = "1" + "0" * 400
    for cls in ("uks", "ubk", "lk"):
        _one_error_line(["eval", "--class", cls, "--k", huge, "--input", gauss_json],
                        capsys)
    for family in ("sself", "ubeta", "lclass"):
        err = _one_error_line(["kernels", "--family", family, "--k", huge], capsys)
        assert family in err, err


# kernels ----------------------------------------------------------------------

def test_kernels_default_grid_shape():
    res = run("kernels", "--family", "ubeta", "--k", "2")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert lines[0] == "re_z,im_z,re_g,im_g,re_g_quad,im_g_quad,abs_diff"
    assert len(lines) == 1 + 25
    for row in lines[1:]:
        parts = row.split(",")
        assert len(parts) == 7
        assert float(parts[6]) < 1e-8
        if float(parts[1]) > 0.0:
            assert float(parts[3]) < 0.0  # Im g < 0 off the real axis


def test_kernels_origin_value():
    res = run("kernels", "--family", "sself", "--k", "1",
              "--grid", "0:0:1,0:0:1")
    row = res.stdout.splitlines()[1].split(",")
    assert float(row[2]) == 0.5
    assert float(row[6]) < 1e-10


def test_kernels_far_out(capsys):
    # z * z overflows at z = 1e300 (1 + i), and g printed NaN with exit 0
    from freetransform import cli

    assert cli.main(["kernels", "--family", "sself", "--k", "3",
                     "--grid", "1e300:1e300:1,1e300:1e300:1"]) == 0
    row = list(map(float, capsys.readouterr().out.splitlines()[1].split(",")))
    assert all(map(math.isfinite, row)), row
    # g = Phi(-z, 3, 2) is 1/z = 5e-301 (1 - i) but for a term of relative
    # size 1e-295; the oracle holds an absolute 1e-10
    g = complex(row[2], row[3])
    assert abs(g - 1.0 / complex(1e300, 1e300)) <= FAR_BOUND * abs(g)
    assert row[6] <= 1e-10


def test_kernels_domain_exit(tmp_path):
    # on the cut, and where |z| passes the largest double
    for family, k, grid in (("lclass", "1", "-1.5:-1.5:1,0:0:1"),
                            ("sself", "3", "1.7e308:1.7e308:1,1.7e308:1.7e308:1")):
        res = run("kernels", "--family", family, "--k", k, f"--grid={grid}")
        assert res.returncode == 3, res.stderr
        assert "domain" in res.stderr.lower()
        assert res.stderr.count("\n") == 1, res.stderr


def test_kernels_orders_past_the_square_root_of_the_double_range(capsys):
    # the inversion formula's step divisors (j+1)(j+2) pass the double range
    # from j of about 1.34e154 on; g answers, and the quadrature column
    # meets the gamma average's order limit
    from freetransform import cli

    for family in ("lclass", "sself"):
        assert cli.main(["kernels", "--family", family, "--k", str(10 ** 160),
                         "--grid=-3:-3:1,0.1:0.1:1"]) == 3, family
        err = capsys.readouterr().err
        assert err.startswith("domain error: gamma average of order ") \
            and err.count("\n") == 1, (family, err)


def test_kernels_grid_validation():
    res = run("kernels", "--family", "sself", "--k", "1", "--grid", "0:1:3")
    assert res.returncode == 2
    res = run("kernels", "--family", "sself", "--k", "0",
              "--grid", "0:1:2,0:1:2")
    assert res.returncode == 2


def test_kernels_grid_limits(monkeypatch, capsys):
    # a non-finite bound or span, or more than MAX_STEPS points in all, is
    # an input error raised before any point is formed.  With the limit
    # at 100, a grid of 100 000 points that were built before the check
    # would show as MBs of traced memory.
    from freetransform import InvalidInput, cli

    monkeypatch.setattr(cli, "MAX_STEPS", 100)
    for grid in ("0:1:101,0.1:1:1", "0:1:11,0.1:1:10", "0:1:100000,0.1:1:1",
                 "0:1:1,0.1:1:100000"):
        tracemalloc.start()
        try:
            with pytest.raises(InvalidInput, match="at most 100 points"):
                cli.parse_grid(grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000, (grid, peak)
    assert len(cli.parse_grid("0:1:10,0.1:1:10")) == 100
    monkeypatch.undo()

    for grid in (f"0:1:{cli.MAX_STEPS + 1},0.1:1:1",
                 "0:1:100000000000000000000,0.1:1:1",
                 "0:1:2,nan:1:2", "0:inf:2,0.1:1:2", "-inf:0:2,0.1:1:2",
                 "-1e308:1e308:3,0.1:1:2"):
        assert cli.main(["kernels", "--family", "sself", "--k", "1",
                         f"--grid={grid}"]) == 2, grid
        err = capsys.readouterr().err
        assert err.startswith("error: --grid ") and err.count("\n") == 1, err
    assert str(cli.MAX_STEPS) in run("kernels", "--help").stdout


# verify -------------------------------------------------------------------------

def test_verify_pick_passes():
    res = run("verify", "pick")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert len(lines) == 1
    status, name, dev, tol = lines[0].split()
    assert status == "PASS" and name == "pick-identity"
    assert float(dev) <= float(tol) == 1e-12


def test_verify_failure_exits_1(monkeypatch, capsys):
    from freetransform import cli, verify

    failing = verify.CheckResult("pick-identity", 1.0, 1e-12)
    monkeypatch.setitem(verify.SUITES, "pick", lambda: [failing])
    assert cli.main(["verify", "pick"]) == 1
    assert capsys.readouterr().out == "FAIL pick-identity 1.0 1e-12\n"


def test_verify_fails_on_nan(monkeypatch, capsys):
    # one NaN among otherwise finite oracle values must not fold away
    from freetransform import cli, verify
    from freetransform.quadrature import IntegrationResult

    real = verify.kernel_quad_grid

    def kernel_quad_grid(fam, zs, *args, **kwargs):
        c, d, gs = real(fam, zs, *args, **kwargs)
        if fam.tag == "lclass":
            gs[3] = IntegrationResult(complex(math.nan, 0.0), 0.0, 0)
        return c, d, gs

    monkeypatch.setattr(verify, "kernel_quad_grid", kernel_quad_grid)
    assert cli.main(["verify", "kernels"]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("FAIL")]
    assert failed == ["FAIL lclass-g-oracle nan 1e-08"]


def test_verify_unknown_suite():
    res = run("verify", "everything")
    assert res.returncode == 2


# start-up ----------------------------------------------------------------------------

def test_cli_start_up_imports_no_dataclasses_or_typing():
    # dataclasses brings inspect, ast, dis and tokenize with it; a fresh
    # interpreter without site or environment shows what the CLI loads
    code = ("import sys; sys.path.insert(0, %r); import freetransform.cli; "
            "print(' '.join(sorted(sys.modules)))" % SRC)
    res = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    loaded = set(res.stdout.split())
    assert "freetransform.cli" in loaded
    heavy = {"dataclasses", "typing", "inspect", "ast", "dis", "tokenize"}
    assert not heavy & loaded, sorted(heavy & loaded)
    # the runtime is stdlib-only: every top-level module is the standard
    # library's or the package itself (__main__ is the -c script)
    tops = {name.partition(".")[0] for name in loaded}
    foreign = tops - set(sys.stdlib_module_names) - {"freetransform", "__main__"}
    assert not foreign, sorted(foreign)


# info and flags -------------------------------------------------------------------

def test_info(gauss_json):
    res = run("info")
    assert res.returncode == 0
    assert "freetransform" in res.stdout
    assert "uks" in res.stdout


def test_tolerance_flags_rejected(gauss_json):
    # kernels integrates at kernel_g_quad's default tolerance, and eval
    # evaluates closed forms only; neither takes a tolerance
    res = run("kernels", "--family", "sself", "--k", "1", "--tol", "1e-6")
    assert res.returncode == 2
    res = run("eval", "--class", "id", "--input", gauss_json, "--tol", "1e-6")
    assert res.returncode == 2
