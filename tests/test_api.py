"""The public API holds only what the package uses or documents a use for:
its names, and the methods and properties of its classes."""

import ast
import pathlib

import freetransform

SRC = pathlib.Path(freetransform.__file__).resolve().parent

# public names with no caller in the package, each with its reason
NO_CALLER = {
    "derivative_t": "perfbench/tracer.py wraps it by name",
    "integrate_finite": "perfbench/tracer.py wraps it by name; tests use it as the "
                        "one-integral oracle",
    "lerch_phi": "perfbench/tracer.py wraps it by name; the checked entry to "
                 "Phi(z, s, v), whose checked families reach it through the route",
    "transform_lclass": "perfbench/tracer.py wraps it by name; the one-point form "
                        "of random_integral_evaluator for the class",
    "transform_linf": "perfbench/tracer.py wraps it by name; the one-point form "
                      "of linf_evaluator, as the other classes have",
    "transform_sself": "perfbench/tracer.py wraps it by name; the one-point form "
                       "of random_integral_evaluator for the class",
    "voiculescu_cauchy": "the Cauchy anchor, kept as an oracle for the free laws "
                         "of the class images",
}

# defaulted parameters of public functions, each with the reason that
# more than one value is in use; a parameter that one value serves is
# a constant instead
OPTIONS = {
    "custom_density.increasing": "the model's time-change direction",
    "custom_step.increasing": "the model's time-change direction",
    "lower_shrink_class.n": "verify lowers by 1 to 3 levels",
    "lower_selfdec_class.n": "verify lowers by 1 to 3 levels",
    "integrate_finite.tol": "out of scope: the package passes 1e-8 where the "
                            "documented default is 1e-10",
    "integrate_semi_infinite.tol": "out of scope: the package passes 1e-8 where the "
                                   "documented default is 1e-10",
    "laplace_transform.tol": "out of scope: the package passes 1e-8 where the "
                             "documented default is 1e-10",
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


def _public_members() -> set:
    """'Class.name' for every public method and property of a class in
    __all__, read from the package source."""
    public = set(freetransform.__all__)
    found = set()
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef) and node.name in public:
                found.update(f"{node.name}.{sub.name}" for sub in node.body
                             if isinstance(sub, ast.FunctionDef)
                             and not sub.name.startswith("_"))
    return found


def test_every_public_member_has_a_caller():
    used = _package_references()
    unused = sorted(m for m in _public_members() if m.split(".")[1] not in used)
    assert not unused, f"public methods and properties without a package caller: {unused}"


def _public_defaults() -> set:
    """'function.parameter' for every defaulted parameter of a public
    function, read from the package source."""
    public = set(freetransform.__all__)
    found = set()
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, ast.FunctionDef) or node.name not in public:
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            found.update(f"{node.name}.{a.arg}" for a in defaulted)
    return found


def test_every_public_default_has_a_reason():
    missing = sorted(_public_defaults() - OPTIONS.keys())
    assert not missing, f"defaulted public parameters without a reason: {missing}"


def test_options_list_is_current():
    # an entry whose parameter loses its default, or leaves, leaves the list too
    assert OPTIONS.keys() <= _public_defaults(), sorted(OPTIONS.keys() - _public_defaults())
