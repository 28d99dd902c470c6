"""The benchmark's tracer still binds to the package's public functions.

perfbench/tracer.py rebinds functions it finds by name; a renamed or
removed function breaks only a traced benchmark run unless a test here
enters the tracer once.
"""

import importlib.util
import sys
from pathlib import Path

import freetransform
import freetransform.cli
from freetransform import operators, verify

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every global of every loaded package module, and the suite table."""
    modules = {name: dict(vars(m)) for name, m in list(sys.modules.items())
               if name == "freetransform" or name.startswith("freetransform.")}
    return modules, dict(verify.SUITES)


def test_tracer_installs_and_restores_every_binding():
    tracer = _load_tracer()
    assert tracer.SUITES == tuple(verify.SUITES)
    before_modules, before_suites = _bindings()
    original = operators.lower_shrink_class
    with tracer.Tracer().installed(freetransform):
        assert operators.lower_shrink_class is not original
    after_modules, after_suites = _bindings()
    assert after_modules.keys() == before_modules.keys()
    for name, namespace in before_modules.items():
        for key, value in namespace.items():
            assert after_modules[name][key] is value, f"{name}.{key}"
    assert after_suites.keys() == before_suites.keys()
    for key, fn in before_suites.items():
        assert after_suites[key] is fn, key
