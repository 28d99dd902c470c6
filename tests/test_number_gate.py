"""Every public numeric parameter passes the package's one number gate.

TABLE lists each public function and record with its numeric parameters
(record fields count as parameters), each with one valid call and the
FreeTransformError subclass the site raises.  Every value in REFUSED,
and 1j where the parameter is real, must raise that subclass and
nothing else, with the gate's message.  test_table_is_complete fails
when a float- or complex-annotated parameter of a function or record in
__all__ is missing from the table, as test_api does for names.
"""

import cmath
import inspect
import math
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freetransform as ft
from freetransform import (
    DomainError,
    FiniteMeasure,
    FreeTransformError,
    InvalidInput,
    KernelFamily,
    LevyTriple,
    LInfSpec,
    PickRepresentation,
    StepError,
    lclass,
    sself,
    ubeta,
)

TR = LevyTriple(0.3, 0.5, ((1.0, 0.5), (-2.0, 0.25)))
SPEC = LInfSpec(0.1, FiniteMeasure(((0.5, 1.0),)))
REP = PickRepresentation(0.2, FiniteMeasure(((-1.0, 0.5),)))


def V(t):
    return ft.voiculescu_id(TR, t)


def _h(s):
    return math.exp(-s)


def _density(s):
    return 1.0


# what the gate refuses for every parameter; a real one refuses 1j too
REFUSED = (10 ** 400, -10 ** 400, 10 ** 5000, math.inf, -math.inf, math.nan, None, "1",
           bytearray(b"1"))

# "name.parameter": (call of the value, a valid value, error class, real?,
# refused values the site accepts); a name.parameter.part entry covers one
# number inside a sequence parameter
TABLE = {
    "LevyTriple.drift": (lambda x: LevyTriple(x, 0.0), 0.3, InvalidInput, True, ()),
    "LevyTriple.gauss_var": (lambda x: LevyTriple(0.0, x), 0.5, InvalidInput, True, ()),
    "LevyTriple.levy_atoms.location": (lambda x: LevyTriple(0.0, 0.0, ((x, 1.0),)), 1.0,
                                       InvalidInput, True, ()),
    "LevyTriple.levy_atoms.mass": (lambda x: LevyTriple(0.0, 0.0, ((1.0, x),)), 1.0,
                                   InvalidInput, True, ()),
    "FiniteMeasure.atoms.location": (lambda x: FiniteMeasure(((x, 1.0),)), 1.0,
                                     InvalidInput, True, ()),
    "FiniteMeasure.atoms.mass": (lambda x: FiniteMeasure(((1.0, x),)), 1.0,
                                 InvalidInput, True, ()),
    "LInfSpec.shift": (lambda x: LInfSpec(x), 0.1, InvalidInput, True, ()),
    "PickRepresentation.shift": (lambda x: PickRepresentation(x), 0.2, InvalidInput, True, ()),
    "KernelFamily.lo": (lambda x: KernelFamily("custom", h=_h, r_density=_density, lo=x),
                        0.0, InvalidInput, True, ()),
    "KernelFamily.hi": (lambda x: KernelFamily("custom", h=_h, r_density=_density, hi=x),
                        1.0, InvalidInput, True, (math.inf,)),
    "custom_density.lo": (lambda x: ft.custom_density(_h, _density, x, 1.0), 0.0,
                          InvalidInput, True, ()),
    "custom_density.hi": (lambda x: ft.custom_density(_h, _density, 0.0, x), 1.0,
                          InvalidInput, True, (math.inf,)),
    "custom_step.jumps.location": (lambda x: ft.custom_step(_h, ((x, 1.0),)), 0.5,
                                   InvalidInput, True, ()),
    "custom_step.jumps.jump": (lambda x: ft.custom_step(_h, ((0.5, x),)), 1.0,
                               InvalidInput, True, ()),
    "pick_representation.h_values": (lambda x: ft.pick_representation([x], [1.0]), 0.5,
                                     InvalidInput, True, ()),
    "pick_representation.r_jumps": (lambda x: ft.pick_representation([0.5], [x]), 1.0,
                                    InvalidInput, True, ()),
    "pick_eval.z": (lambda z: ft.pick_eval(REP, z), 1j, DomainError, False, ()),
    "kernel_g.z": (lambda z: ft.kernel_g(sself(2), z), 0.5j, DomainError, False, ()),
    "kernel_g_quad.z": (lambda z: ft.kernel_g_quad(sself(1), z), 0.5j, DomainError,
                        False, ()),
    "kernel_quad_grid.zs": (lambda z: ft.kernel_quad_grid(sself(1), [z]), 0.5j,
                            DomainError, False, ()),
    "scale_triple.c": (lambda x: ft.scale_triple(x, TR), 2.0, InvalidInput, True, ()),
    "finite_measure_to_triple.a": (lambda x: ft.finite_measure_to_triple(x, FiniteMeasure()),
                                   0.3, InvalidInput, True, ()),
    "derivative_t.t": (lambda x: ft.derivative_t(V, x, 0.1), 1.0, DomainError, True, ()),
    "derivative_t.h": (lambda x: ft.derivative_t(V, 1.0, x), 0.1, StepError, True, ()),
    "lower_selfdec_class.evaluator.t": (lambda x: ft.lower_selfdec_class(V)(x), 1.0,
                                        DomainError, True, ()),
    "filtration_limit_check.t": (lambda x: ft.filtration_limit_check(TR, x), 1.0,
                                 DomainError, True, ()),
    "integrate_finite.lo": (lambda x: ft.integrate_finite(math.cos, x, 1.0), 0.0,
                            InvalidInput, True, ()),
    "integrate_finite.hi": (lambda x: ft.integrate_finite(math.cos, 0.0, x), 1.0,
                            InvalidInput, True, ()),
    "integrate_finite.tol": (lambda x: ft.integrate_finite(math.cos, 0.0, 1.0, x), 1e-8,
                             InvalidInput, True, ()),
    "integrate_semi_infinite.tol": (lambda x: ft.integrate_semi_infinite(_h, x), 1e-8,
                                    InvalidInput, True, ()),
    "laplace_transform.t": (lambda x: ft.laplace_transform(math.cos, x), 1.0,
                            InvalidInput, True, ()),
    "laplace_transform.tol": (lambda x: ft.laplace_transform(math.cos, 1.0, x), 1e-8,
                              InvalidInput, True, ()),
    "gamma_fn.x": (ft.gamma_fn, 2.5, DomainError, True, ()),
    "lerch_phi.z": (lambda z: ft.lerch_phi(z, 2, 1.0), 0.3j, DomainError, False, ()),
    "lerch_phi.v": (lambda x: ft.lerch_phi(0.3j, 2, x), 1.5, DomainError, True, ()),
    "polylog.z": (lambda z: ft.polylog(2, z), 0.3j, DomainError, False, ()),
    "logphi.t": (lambda x: ft.logphi(TR, x), 1.0, DomainError, True, ()),
    "voiculescu_id.t": (lambda x: ft.voiculescu_id(TR, x), 1.0, DomainError, True, ()),
    "voiculescu_via_laplace.t": (lambda x: ft.voiculescu_via_laplace(TR, x), 1.0,
                                 DomainError, True, ()),
    "random_integral_transform.t": (lambda x: ft.random_integral_transform(sself(2), TR, x),
                                    1.0, DomainError, True, ()),
    "transform_sself.t": (lambda x: ft.transform_sself(2, TR, x), 1.0, DomainError, True, ()),
    "transform_ubeta.t": (lambda x: ft.transform_ubeta(2, TR, x), 1.0, DomainError, True, ()),
    "transform_lclass.t": (lambda x: ft.transform_lclass(2, TR, x), 1.0, DomainError,
                           True, ()),
    "transform_linf.t": (lambda x: ft.transform_linf(SPEC, x), 1.0, DomainError, True, ()),
    "linf_integrand.x": (lambda x: ft.linf_integrand(x, 1.0), 0.5, DomainError, True, ()),
    "linf_integrand.t": (lambda x: ft.linf_integrand(0.5, x), 1.0, DomainError, True, ()),
    "scale_transform.c": (lambda x: ft.scale_transform(x, V, 1.0), 2.0, InvalidInput,
                          True, ()),
    "scale_transform.t": (lambda x: ft.scale_transform(2.0, V, x), 1.0, DomainError,
                          True, ()),
    "add_transforms.t": (lambda x: ft.add_transforms(V, V, x), 1.0, DomainError, True, ()),
    "exp_map_convolution_check.t_grid": (lambda x: ft.exp_map_convolution_check(TR, [x]),
                                         1.0, DomainError, True, ()),
    "cauchy_pick_integral.t": (ft.cauchy_pick_integral, 1.0, DomainError, True, ()),
}

# numeric fields of a result record, which the package fills and does not
# check: verify's tests build one holding NaN to show that a NaN oracle
# fails its check
RESULTS = {
    "IntegrationResult.value": "a quadrature result",
    "IntegrationResult.error_estimate": "a quadrature result",
}

GATE_MESSAGE = re.compile(r" must be a (positive )?finite number, got ")


def _numeric_parameters() -> set:
    """'name.parameter' for every float- or complex-annotated parameter of
    a function in __all__ and every such field of a record in __all__."""
    found = set()
    for name in ft.__all__:
        obj = getattr(ft, name)
        if isinstance(obj, type):
            hints = vars(obj).get("__annotations__", {})
        elif callable(obj):
            hints = {p.name: p.annotation
                     for p in inspect.signature(obj).parameters.values()}
        else:
            continue
        found.update(f"{name}.{p}" for p, a in hints.items() if a in ("float", "complex"))
    return found


def test_table_is_complete():
    covered = {".".join(key.split(".")[:2]) for key in TABLE} | RESULTS.keys()
    missing = sorted(_numeric_parameters() - covered)
    assert not missing, f"numeric parameters missing from TABLE: {missing}"


def test_results_list_is_current():
    assert RESULTS.keys() <= _numeric_parameters()


@pytest.mark.parametrize("site", sorted(TABLE))
def test_every_refused_value_raises_the_site_error(site):
    call, valid, error, real, accepted = TABLE[site]
    call(valid)
    refused = [x for x in REFUSED + ((1j,) if real else ()) if x not in accepted]
    for value in refused:
        with pytest.raises(error) as info:
            call(value)
        message = str(info.value)
        assert GATE_MESSAGE.search(message), (site, value, message)
        if value == 10 ** 5000:
            assert "an int of 16610 bits" in message, (site, message)


# sequence and measure parameters: a call whose container is malformed,
# each of which escaped as a bare ValueError, TypeError or AttributeError
# before the container had its own gate
CONTAINERS = {
    "LevyTriple.levy_atoms.short-pair": lambda: LevyTriple(0.0, 0.0, ((1.0,),)),
    "LevyTriple.levy_atoms.none": lambda: LevyTriple(0.0, 0.0, None),
    "FiniteMeasure.atoms": lambda: FiniteMeasure(5),
    "custom_step.jumps": lambda: ft.custom_step(math.exp, 5),
    "pick_representation.h_values": lambda: ft.pick_representation(None, [1.0]),
    "exp_map_convolution_check.t_grid": lambda: ft.exp_map_convolution_check(TR, 1.0),
    "LInfSpec.measure": lambda: LInfSpec(0.0, ((0.5, 1.0),)),
    "PickRepresentation.measure": lambda: PickRepresentation(0.0, 5),
    "FiniteMeasure.atoms.str": lambda: FiniteMeasure("ab"),
}

CONTAINER_MESSAGE = re.compile(r" must be a (sequence of (numbers|pairs)|FiniteMeasure), got ")


@pytest.mark.parametrize("site", sorted(CONTAINERS))
def test_malformed_container_is_invalid_input(site):
    with pytest.raises(InvalidInput) as info:
        CONTAINERS[site]()
    assert CONTAINER_MESSAGE.search(str(info.value)), (site, str(info.value))


# function parameters, and a record's stored function: a call whose
# function is not callable, each of which was accepted and escaped as a
# bare TypeError at its first call (lower_shrink_class's evaluator was
# refused with a message of its own)
CALLABLES = {
    "custom_density.h": lambda: ft.custom_density(5, _density, 0.0, 1.0),
    "custom_density.h.none": lambda: ft.custom_density(None, _density, 0.0, 1.0),
    "custom_density.r_density": lambda: ft.custom_density(_h, 5, 0.0, 1.0),
    "custom_step.h": lambda: ft.custom_step(5, ((0.5, 1.0),)),
    "TransformEvaluator.fn": lambda: ft.TransformEvaluator(5),
    "lower_shrink_class.V": lambda: ft.lower_shrink_class(5),
    "add_transforms.V1": lambda: ft.add_transforms(5, V, 1.0),
    "add_transforms.V2": lambda: ft.add_transforms(V, 5, 1.0),
    "scale_transform.V": lambda: ft.scale_transform(2.0, 5, 1.0),
    "integrate_finite.f": lambda: ft.integrate_finite(5, 0.0, 1.0),
    "integrate_semi_infinite.f": lambda: ft.integrate_semi_infinite(5),
    "laplace_transform.g": lambda: ft.laplace_transform(5, 1.0),
}

CALLABLE_MESSAGE = re.compile(r"^\w+ must be callable, got (5|None)$")


@pytest.mark.parametrize("site", sorted(CALLABLES))
def test_uncallable_function_is_invalid_input(site):
    with pytest.raises(InvalidInput) as info:
        CALLABLES[site]()
    assert CALLABLE_MESSAGE.search(str(info.value)), (site, str(info.value))


def test_sequence_parameters_take_any_iterable():
    # the gate turns an iterable into a tuple once, so a generator passes
    assert FiniteMeasure(iter([(1.0, 0.5)])) == FiniteMeasure(((1.0, 0.5),))
    assert ft.pick_representation(iter([2.0]), (3.0,)) == ft.pick_representation([2.0], [3.0])


# record parameters: a call with None where a record is expected, each of
# which escaped as a bare AttributeError from the first field it read
RECORDS = {
    "voiculescu_id.tr": lambda: ft.voiculescu_id(None, 1.0),
    "voiculescu_via_laplace.tr": lambda: ft.voiculescu_via_laplace(None, 1.0),
    "logphi.tr": lambda: ft.logphi(None, 1.0),
    "transform_sself.tr": lambda: ft.transform_sself(2, None, 1.0),
    "transform_ubeta.tr": lambda: ft.transform_ubeta(2, None, 1.0),
    "transform_lclass.tr": lambda: ft.transform_lclass(2, None, 1.0),
    "transform_linf.spec": lambda: ft.transform_linf(None, 1.0),
    "random_integral_transform.fam": lambda: ft.random_integral_transform(None, TR, 1.0),
    "random_integral_transform.tr": lambda: ft.random_integral_transform(sself(2), None, 1.0),
    "scale_triple.tr": lambda: ft.scale_triple(2.0, None),
    "triple_to_finite_measure.tr": lambda: ft.triple_to_finite_measure(None),
    "finite_measure_to_triple.m": lambda: ft.finite_measure_to_triple(0.0, None),
    "kernel_g.fam": lambda: ft.kernel_g(None, 1j),
    "kernel_g_quad.fam": lambda: ft.kernel_g_quad(None, 1j),
    "const_c.fam": lambda: ft.const_c(None),
    "const_d.fam": lambda: ft.const_d(None),
    "const_c_quad.fam": lambda: ft.const_c_quad(None),
    "const_d_quad.fam": lambda: ft.const_d_quad(None),
    "kernel_quad_grid.fam": lambda: ft.kernel_quad_grid(None, [1j]),
    "pick_eval.rep": lambda: ft.pick_eval(None, 1j),
    "filtration_limit_check.tr": lambda: ft.filtration_limit_check(None, 1.0),
    "exp_map_convolution_check.omega": lambda: ft.exp_map_convolution_check(None, [1.0]),
}

RECORD_MESSAGE = re.compile(r"^(\w+) must be a \w+, got None$")


@pytest.mark.parametrize("site", sorted(RECORDS))
def test_non_record_is_invalid_input(site):
    with pytest.raises(InvalidInput) as info:
        RECORDS[site]()
    match = RECORD_MESSAGE.search(str(info.value))
    assert match and match.group(1) == site.split(".")[1], (site, str(info.value))


# every accepted extreme gives a finite value or a package error ----------------

_EXTREMES = (0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, 1e-300, 1.0, -1.0,
             sys.float_info.max, -sys.float_info.max, 1e308, -1e308)
REALS = st.one_of(st.sampled_from(_EXTREMES), st.floats(allow_nan=False, allow_infinity=False),
                  st.floats(-1e3, 1e3))
ZS = st.builds(complex, REALS, REALS)
ORDERS = st.one_of(st.integers(1, 200), st.integers(1, 10 ** 9),
                   st.sampled_from((160, 161, 2 ** 62, 10 ** 400)))
# a family as (builder, order) and a law as (drift, gauss_var, atoms),
# built inside the call, where a refused order or law is a package error
FAMILIES = st.one_of(st.tuples(st.sampled_from((sself, lclass)), ORDERS),
                     st.tuples(st.sampled_from((ubeta, lclass)), st.integers(0, 16)))
SIZES = REALS.map(abs)
LAWS = st.tuples(REALS, SIZES, st.lists(st.tuples(REALS, SIZES), max_size=3))
FUZZ = settings(derandomize=True, max_examples=150, deadline=None)


def _finite_or_package_error(call):
    try:
        value = call()
    except FreeTransformError:
        return
    assert cmath.isfinite(value), value


@FUZZ
@given(ORDERS, ZS)
def test_polylog_at_extremes(s, z):
    _finite_or_package_error(lambda: ft.polylog(s, z))


@FUZZ
@given(ZS, st.one_of(st.tuples(ORDERS, st.sampled_from((1.0, 2.0))),
                     st.tuples(st.just(1), st.integers(1, 17).map(float))))
def test_lerch_phi_at_extremes(z, order):
    _finite_or_package_error(lambda: ft.lerch_phi(z, *order))


@FUZZ
@given(FAMILIES, ZS)
def test_kernel_g_at_extremes(fam, z):
    build, k = fam
    _finite_or_package_error(lambda: ft.kernel_g(build(k), z))


@FUZZ
@given(LAWS, FAMILIES, SIZES)
def test_transforms_at_extremes(law, fam, t):
    build, k = fam
    _finite_or_package_error(lambda: ft.voiculescu_id(LevyTriple(*law), t))
    _finite_or_package_error(
        lambda: ft.random_integral_transform(build(k), LevyTriple(*law), t))
