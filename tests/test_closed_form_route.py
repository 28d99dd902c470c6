"""The closed-form Lerch/polylog route: no quadrature on the hot path,
agreement with the integral oracle, the gamma overflow, only package
errors escaping, the CLI on the wide t-grid, the per-process parser,
the branch each (s, v) and |z| band takes, and the large orders."""

import cmath
import functools
import itertools
import json
import math
import subprocess
import sys
import textwrap

import pytest
from childproc import child_env
from hypothesis import given, settings
from hypothesis import strategies as st

from freetransform import (DomainError, FiniteMeasure, FreeTransformError,
                           LevyTriple, LInfSpec, gamma_fn, lerch_phi, polylog,
                           transform_lclass, transform_linf, transform_sself,
                           transform_ubeta)
from freetransform import cli, kernels, specfun

WIDE_T = [1e-3 * 1e6 ** (i / 24) for i in range(25)]
TRIPLE = LevyTriple(0.3, 1.2, ((-1.7, 0.4), (0.05, 1.1), (0.6, 0.8)))


def test_integer_orders_never_integrate(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("quadrature on the closed-form route")

    monkeypatch.setattr(specfun, "gamma_average", forbidden)
    for z in (0.7j, -0.9, 1.5 + 0.5j, -3.0, 40j, 1e8j):
        for s in (1, 2, 5, 12):
            polylog(s, z)
            for v in (1.0, 2.0, 3.0, 16.0):
                if s == 1 or v <= 2.0:
                    lerch_phi(z, s, v)
    for t in WIDE_T:
        transform_sself(11, TRIPLE, t)
        transform_ubeta(16, TRIPLE, t)
        transform_lclass(7, TRIPLE, t)


def test_non_integer_v_keeps_the_integral():
    z, s, v = 0.9j, 2, 2.5
    assert lerch_phi(z, s, v) == specfun._lerch_integral(z, s, v)


def test_integral_oracle_agrees_up_to_order_12():
    # the log-space weight keeps t^(s-1) e^(-vt)/Gamma(s) of order one
    for s in range(1, 13):
        for z in (0.8j, -0.7 + 0.3j, 1.5j, -1.2, 3.0 + 1.0j, -5.0, 20j):
            for v in (1.0, 2.0):
                closed = lerch_phi(z, s, v)
                oracle = specfun._lerch_integral(z, s, v)
                assert abs(closed - oracle) <= 1e-10 * abs(closed), (s, z, v)


def test_integral_oracle_resolves_high_order_peaks():
    # the weight peaks at t = (s-1)/v; a first panel whose nodes straddle
    # that peak would return about 0 with a tiny error estimate
    for s in (60, 120, 200):
        for z in (0.8j, -0.7 + 0.3j, 1.5j, -1.2, 3.0 + 1.0j):
            closed = lerch_phi(z, s, 1.0)
            oracle = specfun._lerch_integral(z, s, 1.0)
            assert abs(closed - oracle) <= 1e-10 * abs(closed), (s, z)


def test_lerch_s1_large_k_stays_finite():
    # powers of 1/z: z^k would overflow long before k = 1000
    for z in (0.7, 0.995j, 1.0j, -1.5, 4.0 + 3.0j):
        val = lerch_phi(z, 1, 1000.0)
        assert cmath.isfinite(val)
        # Phi(z, 1, k) ~ 1/(k (1 - z)) for large k
        assert abs(val * 1000.0 * (1.0 - z) - 1.0) < 0.05, z


def test_orders_past_the_double_range_terminate():
    # Phi(z, s, 2) ~ 2^-s underflows to 0 here; the sums must still stop
    for z in (0.1j, 0.8j, 3j, 1e5j):
        assert lerch_phi(z, 1100, 2.0) == 0.0
        assert abs(polylog(1100, z) - z) <= 1e-15 * abs(z)


def test_gamma_near_the_top_of_the_double_range():
    # t^(x-1/2) of a Lanczos form overflows from x ~ 142 on
    for x in (142.5, 150.0, 171.0, 171.6):
        assert math.isclose(gamma_fn(x), math.gamma(x), rel_tol=1e-12)


@pytest.mark.parametrize("x", [171.7, 200.0, 1e6, 1e300])
def test_gamma_overflow_is_a_domain_error(x):
    with pytest.raises(DomainError):
        gamma_fn(x)


def _answers(call):
    """call() gives a finite value or raises a package error; any other
    exception fails the test."""
    try:
        value = call()
    except FreeTransformError:
        return
    assert cmath.isfinite(value), value


_Z = st.builds(lambda lg, angle: cmath.rect(10.0 ** lg, angle),
               st.floats(-3.0, 10.0), st.floats(-math.pi, math.pi))
_X = st.builds(lambda lg, neg: -(10.0 ** lg) if neg else 10.0 ** lg,
               st.floats(-3.0, 3.0), st.booleans())
_TRIPLES = st.builds(
    lambda a, var, atoms: LevyTriple(a, var, tuple(atoms)),
    st.floats(-5.0, 5.0), st.floats(0.0, 5.0),
    st.lists(st.tuples(_X, st.floats(1e-3, 10.0)), max_size=4,
             unique_by=lambda atom: atom[0]))


@settings(max_examples=300, deadline=None)
@given(s=st.integers(1, 200), z=_Z, k=st.integers(1, 1001))
def test_specfun_raises_only_package_errors(s, z, k):
    _answers(lambda: polylog(s, z))
    _answers(lambda: lerch_phi(z, s, 1.0))
    _answers(lambda: lerch_phi(z, s, 2.0))
    _answers(lambda: lerch_phi(z, 1, float(k)))


# the linf support (-2, 0) u (0, 2], with x = +-1 and points next to them
_LINF_X = st.one_of(
    st.sampled_from((1.0, -1.0, 2.0)),
    st.builds(lambda sign, side, lg: sign * (1.0 + side * 10.0 ** lg),
              st.sampled_from((1.0, -1.0)), st.sampled_from((1.0, -1.0)),
              st.floats(-16.0, -1.0)),
    st.floats(-2.0, 2.0, exclude_min=True).filter(bool))
_LINF_SPECS = st.builds(
    lambda c, atoms: LInfSpec(c, FiniteMeasure(tuple(atoms))),
    st.floats(-5.0, 5.0),
    st.lists(st.tuples(_LINF_X, st.floats(1e-3, 10.0)), max_size=4,
             unique_by=lambda atom: atom[0]))


@settings(max_examples=200, deadline=None)
@given(tr=_TRIPLES, spec=_LINF_SPECS, k=st.integers(0, 1000),
       lg_t=st.floats(-8.0, 12.0))
def test_class_transforms_raise_only_package_errors(tr, spec, k, lg_t):
    t = 10.0 ** lg_t
    _answers(lambda: transform_sself(k, tr, t))
    _answers(lambda: transform_ubeta(max(k, 1), tr, t))
    _answers(lambda: transform_lclass(k, tr, t))
    _answers(lambda: transform_linf(spec, t))


def _wide(class_tag, k, t_min="1e-8", t_max="1e12"):
    return pytest.param(class_tag, k, t_min, t_max, id=f"{class_tag}-{k}")


@pytest.mark.parametrize("class_tag,k,t_min,t_max", [
    _wide("lk", 7, "1e-3", "1e3"), _wide("uks", 11, "1e-3", "1e3"),
    _wide("ubk", 1), _wide("ubk", 1000), _wide("uks", 0), _wide("uks", 200),
    _wide("lk", 30)])
def test_cli_wide_grid_high_order(tmp_path, class_tag, k, t_min, t_max):
    path = tmp_path / "law.json"
    path.write_text(json.dumps({"a": 0.2, "sigma2": 0.7, "atoms": [
        {"x": 0.05, "w": 0.3}, {"x": -0.4, "w": 1.2}, {"x": 2.0, "w": 0.5}]}))
    res = subprocess.run(
        [sys.executable, "-m", "freetransform.cli", "eval", "--class", class_tag,
         "--k", str(k), "--input", str(path), "--t-min", t_min,
         "--t-max", t_max, "--steps", "50"],
        capture_output=True, text=True, env=child_env())
    assert res.returncode == 0, res.stderr
    rows = res.stdout.splitlines()[1:]
    assert len(rows) == 50
    for row in rows:
        assert all(math.isfinite(float(x)) for x in row.split(","))


def _main(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("argv", [
    ["eval", "--class", "nope", "--input", "x.json"],
    ["eval", "--class", "lk", "--k", "seven", "--input", "x.json"],
    ["frobnicate"],
    [],
])
def test_parser_built_once_gives_identical_errors(argv, capsys):
    first = _main(argv, capsys)
    assert first[0] == 2 and first[2].startswith("usage: freetransform")
    assert _main(argv, capsys) == first
    # and the same bytes as a freshly built parser
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    assert (exc.value.code, *capsys.readouterr()) == first


# one route per (s, v) ---------------------------------------------------------

_BRANCHES = ("_lerch_series", "_lerch_direct", "_lerch_log", "_lerch_v2",
             "_lerch_integral", "polylog", "_log_series", "_inversion")


def _count_branches(monkeypatch):
    """Wrap each private branch of specfun, and polylog, with a counter.
    A route binds its branch when it is built, so the routes are built
    afresh in a cache of their own, which the test's end discards."""
    counts = dict.fromkeys(_BRANCHES, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in _BRANCHES:
        monkeypatch.setattr(specfun, name, counted(name, getattr(specfun, name)))
    routes = functools.lru_cache(maxsize=specfun._SERIES_TABLES)(specfun._route.__wrapped__)
    monkeypatch.setattr(specfun, "_route", routes)
    monkeypatch.setattr(kernels, "_route", routes)
    return counts


# (s, v, z) -> the branches one lerch_phi call runs, polylog's own branch
# included: each (s, v) kind in each |z| band, and the large orders either
# side of Re z = 0
_DISPATCH = [
    ((3, 1.0, 0.3j), {"_lerch_series"}),
    ((3, 1.0, -1.2j), {"polylog", "_log_series"}),
    ((3, 1.0, 40j), {"polylog", "_inversion", "_lerch_series"}),
    ((1, 5.0, 0.4), {"_lerch_series"}),
    ((1, 5.0, -1.2j), {"_lerch_log"}),
    ((1, 5.0, 40j), {"_lerch_log"}),
    ((3, 2.0, -0.2), {"_lerch_series"}),
    ((3, 2.0, 1.2j), {"_lerch_v2", "_log_series"}),
    ((3, 2.0, -40j), {"_lerch_v2", "_inversion", "_lerch_series"}),
    ((2, 2.5, 0.3j), {"_lerch_series"}),
    ((2, 2.5, 1.2j), {"_lerch_integral"}),
    ((1, 100_001.0, 1.2j), {"_lerch_integral"}),
    ((40, 1.0, -30j), {"_lerch_direct"}),
    ((40, 2.0, complex(-3.0, 4.0)), {"_lerch_direct"}),
    ((40, 1.0, complex(3.0, 4.0)), {"polylog", "_inversion", "_lerch_series"}),
    ((10 ** 9, 2.0, -1e300j), {"_lerch_direct"}),
]


@pytest.mark.parametrize("args,branches", _DISPATCH)
def test_each_kind_and_band_takes_its_branch(monkeypatch, args, branches):
    s, v, z = args
    counts = _count_branches(monkeypatch)
    lerch_phi(z, s, v)
    assert {name for name, n in counts.items() if n} == branches
    # once each: no branch falls back on another
    assert all(counts[name] == 1 for name in branches), counts


def test_polylog_takes_the_direct_sum_from_its_lowest_order(monkeypatch):
    # below the lowest order whose radius passes the series disk no z off
    # the disk takes the direct sum
    radius = specfun._direct_radius
    low = next(s for s in itertools.count(1) if radius(s, 1.0) > specfun._SERIES_RADIUS)
    assert low == 22
    counts = _count_branches(monkeypatch)
    z = complex(0.0, -0.7)
    assert abs(z) <= radius(low, 1.0)
    assert polylog(low, z) == z * specfun._lerch_direct(z, low, 1.0)
    assert counts["_lerch_direct"] == 2 and counts["_log_series"] == 0


def test_eval_calls_no_checked_lerch_phi(monkeypatch, tmp_path, capsys):
    # an eval op checks (s, v) once, when it binds g to the route, and
    # no point calls the checked lerch_phi
    calls = []

    def forbidden(*args):
        calls.append(args)
        return lerch_phi(*args)

    monkeypatch.setattr(specfun, "lerch_phi", forbidden)
    monkeypatch.setattr(kernels, "lerch_phi", forbidden)
    counts = _count_branches(monkeypatch)
    path = tmp_path / "law.json"
    path.write_text(json.dumps({"a": 0.2, "sigma2": 0.7, "atoms": [
        {"x": 0.05, "w": 0.3}, {"x": -0.4, "w": 1.2}, {"x": 2.0, "w": 0.5}]}))
    for class_tag in ("uks", "ubk", "lk"):
        assert cli.main(["eval", "--class", class_tag, "--k", "4", "--input", str(path),
                         "--t-min", "1e-3", "--t-max", "1e3", "--steps", "50"]) == 0
    assert capsys.readouterr().out.count("\n") == 3 * 51
    assert calls == []
    assert counts["_inversion"] > 0 and counts["_lerch_log"] > 0


# orders past any deck: the defining sum, in bounded time and memory -----------

def test_cli_huge_orders_answer_in_bounded_time_and_memory(tmp_path):
    # in a child process under an address-space limit: lk and uks at
    # k = 10^6 and 10^9 on the wide grid, each within 0.1 s of in-process
    # time and within 5 MB of the peak RSS of a k = 16 op
    path = tmp_path / "law.json"
    path.write_text(json.dumps({"a": 0.2, "sigma2": 0.7, "atoms": [
        {"x": 0.05, "w": 0.3}, {"x": -0.4, "w": 1.2}, {"x": 2.0, "w": 0.5}]}))
    code = textwrap.dedent(f"""
        import contextlib, io, json, math, resource, sys, time
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
        from freetransform import cli

        def op(class_tag, k):
            out = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out):
                code = cli.main(["eval", "--class", class_tag, "--k", str(k),
                                 "--input", {str(path)!r}, "--t-min", "1e-3",
                                 "--t-max", "1e3", "--steps", "50"])
            seconds = time.perf_counter() - start
            rows = out.getvalue().splitlines()[1:]
            finite = len(rows) == 50 and all(
                math.isfinite(float(x)) for row in rows for x in row.split(","))
            return code, finite, seconds

        report = {{}}
        for class_tag in ("lk", "uks"):
            op(class_tag, 16)
        base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        for class_tag in ("lk", "uks"):
            for k in (10 ** 6, 10 ** 9):
                report[f"{{class_tag}} {{k}}"] = op(class_tag, k)
        grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base
        print(json.dumps({{"ops": report, "grown_kb": grown}}))
    """)
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120, env=child_env())
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout)
    for name, (code, finite, seconds) in report["ops"].items():
        assert code == 0 and finite, name
        assert seconds < 0.1, (name, seconds)
    assert report["grown_kb"] < 5 * 1024, report
