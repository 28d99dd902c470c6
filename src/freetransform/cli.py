"""Command-line front end.

Four commands: ``eval`` computes a class transform on a geometric t-grid
from a JSON input file, ``verify`` runs a named check suite, ``kernels``
tabulates a kernel's g both in closed form and by quadrature, ``info``
prints the built-in class/family table.

Exit codes are a stable contract: 0 success, 1 verification failure,
2 input error, 3 domain error.  CSV output uses repr() floats (shortest
round-trip form, '.' decimal) and LF newlines so identical inputs give
byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import __version__
from .errors import FreeTransformError, InvalidInput, _real
from .kernels import FAMILIES, LCLASS, SSELF, UBETA, KernelFamily, kernel_g, kernel_g_quad
from .measures import FiniteMeasure, LevyTriple
from .transforms import (
    LInfSpec,
    id_evaluator,
    linf_evaluator,
    random_integral_evaluator,
)
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT = 2
EXIT_DOMAIN = 3

# the most points an eval or kernels grid takes
MAX_STEPS = 1_000_000

_CLASS_TAGS = ("uks", "ubk", "lk", "linf", "id")
# kernel family of each class that takes a k; linf and id take none
_CLASS_FAMILIES = {"uks": SSELF, "ubk": UBETA, "lk": LCLASS}


# JSON parsing ------------------------------------------------------------

def _num(obj: dict, key: str, where: str, default=None) -> float:
    if key not in obj:
        if default is None:
            raise InvalidInput(f"missing field '{where}{key}'")
        return default
    val = obj[key]
    if isinstance(val, bool):
        raise InvalidInput(f"field '{where}{key}' must be a finite number, got {val!r}")
    return _real(val, f"field '{where}{key}'")


def _atom_list(obj: dict, where: str = ""):
    atoms = obj.get("atoms", [])
    if not isinstance(atoms, list):
        raise InvalidInput(f"field '{where}atoms' must be an array")
    out = []
    for i, entry in enumerate(atoms):
        if not isinstance(entry, dict):
            raise InvalidInput(f"field '{where}atoms[{i}]' must be an object")
        out.append((_num(entry, "x", f"{where}atoms[{i}]."),
                    _num(entry, "w", f"{where}atoms[{i}].")))
    return tuple(out)


def parse_triple(obj) -> LevyTriple:
    """{"a": real, "sigma2": real, "atoms": [{"x", "w"}, ...]}; a and
    sigma2 default to 0, atoms to none."""
    if not isinstance(obj, dict):
        raise InvalidInput("input JSON must be an object")
    known = {"a", "sigma2", "atoms"}
    for key in obj:
        if key not in known:
            raise InvalidInput(f"unknown field '{key}' in triple input")
    return LevyTriple(_num(obj, "a", "", default=0.0),
                      _num(obj, "sigma2", "", default=0.0),
                      _atom_list(obj))


def parse_linf_spec(obj) -> LInfSpec:
    """{"c": real, "atoms": [{"x": real in (-2,2], "w": real > 0}, ...]}."""
    if not isinstance(obj, dict):
        raise InvalidInput("input JSON must be an object")
    known = {"c", "atoms"}
    for key in obj:
        if key not in known:
            raise InvalidInput(f"unknown field '{key}' in linf input")
    return LInfSpec(_num(obj, "c", "", default=0.0),
                    FiniteMeasure(_atom_list(obj)))


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidInput(f"cannot read input file: {exc}")
    except ValueError as exc:
        # a JSONDecodeError, or an integer of more digits than int() takes
        raise InvalidInput(f"input file is not valid JSON: {exc}")


# grids and output --------------------------------------------------------

def geometric_grid(t_min: float, t_max: float, steps: int):
    t_min, t_max = _real(t_min, "--t-min", positive=True), _real(t_max, "--t-max")
    if not t_max >= t_min:
        raise InvalidInput(f"--t-max must be >= --t-min, got {t_max!r}")
    if not 1 <= steps <= MAX_STEPS:
        raise InvalidInput(f"--steps must be in [1, {MAX_STEPS}], got {steps!r}")
    if steps == 1:
        return [t_min]
    ratio = t_max / t_min
    if math.isinf(ratio):
        raise InvalidInput(f"--t-max / --t-min overflows double precision: "
                           f"{t_max!r} / {t_min!r}")
    return [t_min * ratio ** (i / (steps - 1)) for i in range(steps)]


def parse_grid(text: str):
    """'re0:re1:n,im0:im1:n' -> complex grid points, row-major over re.

    The bounds must be finite, with a finite span, and the grid may hold
    at most MAX_STEPS points; both are checked before any point is formed.
    """
    parts = text.split(",")
    if len(parts) != 2:
        raise InvalidInput(f"--grid must have two axes, got {text!r}")

    def axis(part: str, name: str):
        bits = part.split(":")
        if len(bits) != 3:
            raise InvalidInput(f"--grid {name} axis must be lo:hi:n, got {part!r}")
        try:
            lo, hi, n = float(bits[0]), float(bits[1]), int(bits[2])
        except ValueError:
            raise InvalidInput(f"--grid {name} axis must be numeric, got {part!r}")
        if not math.isfinite(hi - lo):
            raise InvalidInput(f"--grid {name} axis bounds must be finite with a "
                               f"finite span, got {part!r}")
        if n < 1 or hi < lo:
            raise InvalidInput(f"--grid {name} axis must have hi >= lo and n >= 1")
        return lo, hi, n

    def points(lo: float, hi: float, n: int):
        if n == 1:
            return [lo]
        return [lo + (hi - lo) * i / (n - 1) for i in range(n)]

    re_axis = axis(parts[0], "real")
    im_axis = axis(parts[1], "imaginary")
    if re_axis[2] * im_axis[2] > MAX_STEPS:
        raise InvalidInput(f"--grid may hold at most {MAX_STEPS} points, got "
                           f"{re_axis[2]} x {im_axis[2]}")
    ims = points(*im_axis)
    return [complex(re, im) for re in points(*re_axis) for im in ims]


def _write_rows(path, header: str, rows):
    text = header + "\n" + "".join(row + "\n" for row in rows)
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise InvalidInput(f"cannot write output file: {exc}")


# commands ----------------------------------------------------------------

def _evaluator(class_tag: str, k, data):
    if class_tag == "linf":
        return linf_evaluator(parse_linf_spec(data))
    tr = parse_triple(data)
    if class_tag == "id" or (class_tag == "uks" and k == 0):
        return id_evaluator(tr)
    return random_integral_evaluator(KernelFamily(_CLASS_FAMILIES[class_tag], k), tr)


def _lowest_k(class_tag: str) -> int:
    # uks k = 0 is the identity map, below the orders of its family
    return 0 if class_tag == "uks" else FAMILIES[_CLASS_FAMILIES[class_tag]].lowest


def _check_k(class_tag: str, k):
    if class_tag in _CLASS_FAMILIES:
        if k is None:
            raise InvalidInput(f"--class {class_tag} requires --k")
        lowest = _lowest_k(class_tag)
        if k < lowest:
            raise InvalidInput(f"--k must be >= {lowest} for class {class_tag}, got {k}")
    elif k is not None:
        raise InvalidInput(f"--class {class_tag} does not take --k")


def cmd_eval(args) -> int:
    _check_k(args.class_tag, args.k)
    grid = geometric_grid(args.t_min, args.t_max, args.steps)
    V = _evaluator(args.class_tag, args.k, _load_json(args.input))
    rows = []
    for t in grid:
        v = V(t)
        rows.append(f"{t!r},{v.real!r},{v.imag!r}")
    _write_rows(args.out, "t,re_V,im_V", rows)
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_suite(args.suite)
    for r in results:
        print(r.line())
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY_FAIL


def cmd_kernels(args) -> int:
    fam = KernelFamily(args.family, args.k)
    rows = []
    for z in parse_grid(args.grid):
        g = kernel_g(fam, z)
        gq = kernel_g_quad(fam, z).value
        rows.append(f"{z.real!r},{z.imag!r},{g.real!r},{g.imag!r},"
                    f"{gq.real!r},{gq.imag!r},{abs(g - gq)!r}")
    _write_rows(args.out, "re_z,im_z,re_g,im_g,re_g_quad,im_g_quad,abs_diff", rows)
    return EXIT_OK


def cmd_info(args) -> int:
    print(f"freetransform {__version__}")
    print()
    print("classes (eval --class):")
    print("  id    plain infinitely divisible transform (no k)")
    print(f"  uks   k-times shrink-refined class, k >= {_lowest_k('uks')} (k = 0 is id)")
    print(f"  ubk   power-time-change Bernstein class, k >= {_lowest_k('ubk')}")
    print(f"  lk    k-th selfdecomposable class, k >= {_lowest_k('lk')}")
    print("  linf  fully scale-invariant class (no k; own JSON input)")
    print()
    print(f"kernel families (kernels --family): {', '.join(FAMILIES)}")
    print(f"verify suites: {', '.join(list(SUITES) + ['all'])}")
    return EXIT_OK


# parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freetransform",
        description="Transforms of free counterparts of classical "
                    "infinitely divisible laws on the imaginary axis.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a class transform on a t-grid")
    p_eval.add_argument("--class", dest="class_tag", required=True,
                        choices=_CLASS_TAGS)
    p_eval.add_argument("--k", type=int, default=None)
    p_eval.add_argument("--input", required=True, help="JSON input file")
    p_eval.add_argument("--t-min", type=float, default=0.5)
    p_eval.add_argument("--t-max", type=float, default=2.0)
    p_eval.add_argument("--steps", type=int, default=9,
                        help=f"grid points, 1 to {MAX_STEPS}")
    p_eval.add_argument("--out", default="-", help="output CSV path, '-' = stdout")
    p_eval.set_defaults(fn=cmd_eval)

    p_verify = sub.add_parser("verify", help="run a named check suite")
    p_verify.add_argument("suite", choices=list(SUITES) + ["all"])
    p_verify.set_defaults(fn=cmd_verify)

    p_kern = sub.add_parser("kernels", help="tabulate g closed form vs quadrature")
    p_kern.add_argument("--family", required=True, choices=sorted(FAMILIES))
    p_kern.add_argument("--k", type=int, required=True)
    p_kern.add_argument("--grid", default="-0.5:2:5,0.1:2:5",
                        help="re0:re1:n,im0:im1:n with finite bounds, "
                             f"at most {MAX_STEPS} points in all")
    p_kern.add_argument("--out", default="-", help="output CSV path, '-' = stdout")
    p_kern.set_defaults(fn=cmd_kernels)

    p_info = sub.add_parser("info", help="list classes, kernel families and verify suites")
    p_info.set_defaults(fn=cmd_info)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser() once per process; parsing leaves the tree unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except FreeTransformError as exc:
        # DomainError, and the convergence and non-finite failures, which
        # are domain problems too
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
