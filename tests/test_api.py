"""The public API holds only what the package uses or documents a use for."""

import ast
import pathlib

import freetransform

SRC = pathlib.Path(freetransform.__file__).resolve().parent

# public names with no caller in the package, each with its reason
NO_CALLER = {
    "derivative_t": "perfbench/tracer.py wraps it by name",
    "integrate_finite": "perfbench/tracer.py wraps it by name; tests use it as the "
                        "one-integral oracle",
    "transform_linf": "perfbench/tracer.py wraps it by name; the one-point form "
                      "of linf_evaluator, as the other classes have",
    "voiculescu_cauchy": "the Cauchy anchor, kept as an oracle for the free laws "
                         "of the class images",
}


def _package_references() -> set:
    """Every name that package code outside __init__ reads, other than
    inside the top-level statement that defines it."""
    used = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(node, "name", None)
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    name = sub.id
                elif isinstance(sub, ast.Attribute):
                    name = sub.attr
                else:
                    continue
                if name != own:
                    used.add(name)
    return used


def test_every_public_name_has_a_caller_or_a_reason():
    used = _package_references()
    unused = sorted(set(freetransform.__all__) - used - NO_CALLER.keys())
    assert not unused, f"public names without a package caller: {unused}"


def test_no_caller_list_is_current():
    # an entry that gains a caller, or leaves __all__, leaves the list too
    used = _package_references()
    assert NO_CALLER.keys() <= set(freetransform.__all__)
    assert not NO_CALLER.keys() & used, sorted(NO_CALLER.keys() & used)

