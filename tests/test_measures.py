"""Levy triples, companion measures, and the maps between them."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freetransform import (
    FiniteMeasure,
    InvalidInput,
    LevyTriple,
    NonFiniteError,
    finite_measure_to_triple,
    scale_triple,
    triple_to_finite_measure,
)

finite_reals = st.floats(min_value=-50.0, max_value=50.0,
                         allow_nan=False, allow_infinity=False)
locations = st.floats(min_value=-20.0, max_value=20.0).filter(
    lambda x: abs(x) > 1e-6)
weights = st.floats(min_value=1e-6, max_value=10.0)


def triples():
    atom = st.tuples(locations, weights)
    return st.builds(
        lambda a, var, atoms: LevyTriple(a, var, _dedupe(atoms)),
        finite_reals,
        st.floats(min_value=0.0, max_value=10.0),
        st.lists(atom, max_size=4),
    )


def _dedupe(atoms):
    seen = {}
    for x, w in atoms:
        seen[x] = w
    return tuple(seen.items())


# validation ---------------------------------------------------------------

def test_triple_validation():
    with pytest.raises(InvalidInput):
        LevyTriple(math.nan, 0.0, ())
    with pytest.raises(InvalidInput):
        LevyTriple(0.0, -0.1, ())
    with pytest.raises(InvalidInput):
        LevyTriple(0.0, 0.0, ((0.0, 1.0),))  # jump measure has no mass at 0
    with pytest.raises(InvalidInput):
        LevyTriple(0.0, 0.0, ((1.0, -0.5),))
    with pytest.raises(InvalidInput):
        LevyTriple(0.0, 0.0, ((1.0, 0.5), (1.0, 0.5)))


def test_atoms_sorted():
    tr = LevyTriple(0.0, 0.0, ((2.0, 1.0), (-1.0, 2.0), (0.5, 3.0)))
    assert [x for x, _ in tr.levy_atoms] == [-1.0, 0.5, 2.0]


def test_finite_measure_basics():
    m = FiniteMeasure(((0.0, 2.0), (1.0, 0.5)))
    masses = dict(m.atoms)
    assert masses[0.0] == 2.0
    assert 3.0 not in masses
    assert sum(masses.values()) == 2.5
    with pytest.raises(InvalidInput):
        FiniteMeasure(((1.0, 1.0), (1.0, 1.0)))


# the record contract ----------------------------------------------------------

def test_records_validate_on_every_construction_path():
    tr = LevyTriple(0.0, 1.0, ((1.0, 0.5),))
    with pytest.raises(InvalidInput):
        tr._replace(gauss_var=-1.0)
    with pytest.raises(InvalidInput):
        LevyTriple._make((0.0, -1.0, ()))
    with pytest.raises(InvalidInput):
        LevyTriple(drift=0.0, gauss_var=-1.0)
    m = FiniteMeasure(((1.0, 0.5),))
    with pytest.raises(InvalidInput):
        m._replace(atoms=((1.0, -0.5),))
    with pytest.raises(InvalidInput):
        FiniteMeasure._make((((1.0, -0.5),),))
    # every path sorts the atoms as the constructor does
    shuffled = ((2.0, 1.0), (-1.0, 2.0))
    assert LevyTriple._make((0.0, 0.0, shuffled)) == LevyTriple(0.0, 0.0, shuffled)
    assert tr._replace(levy_atoms=shuffled).levy_atoms == ((-1.0, 2.0), (2.0, 1.0))
    assert FiniteMeasure._make((shuffled,)).atoms == ((-1.0, 2.0), (2.0, 1.0))


def test_records_are_immutable():
    tr = LevyTriple(0.0, 1.0, ((1.0, 0.5),))
    with pytest.raises(AttributeError):
        tr.gauss_var = -1.0
    with pytest.raises(AttributeError):
        FiniteMeasure().atoms = ()
    with pytest.raises(AttributeError):
        tr.extra = 1.0
    assert tr.gauss_var == 1.0


def test_records_compare_within_their_class():
    tr = LevyTriple(0.0, 1.0, ((1.0, 0.5),))
    same = LevyTriple(0.0, 1.0, [(1.0, 0.5)])
    assert tr == same and not tr != same
    assert hash(tr) == hash(same)
    assert tr != (0.0, 1.0, ((1.0, 0.5),))
    assert (0.0, 1.0, ((1.0, 0.5),)) != tr
    assert FiniteMeasure() != ((),)
    assert tr != LevyTriple(0.0, 2.0, ((1.0, 0.5),))


def test_record_repr():
    assert (repr(LevyTriple(0.0, 1.0, ((1.0, 0.5),)))
            == "LevyTriple(drift=0.0, gauss_var=1.0, levy_atoms=((1.0, 0.5),))")
    assert repr(FiniteMeasure()) == "FiniteMeasure(atoms=())"


# companion measure ----------------------------------------------------------

def test_companion_measure_weights():
    tr = LevyTriple(0.3, 1.5, ((1.0, 1.0), (-2.0, 0.5)))
    masses = dict(triple_to_finite_measure(tr).atoms)
    assert masses[0.0] == 1.5  # the Gaussian part sits at the origin
    assert math.isclose(masses[1.0], 0.5)  # 1/(1+1)
    assert math.isclose(masses[-2.0], 0.5 * 4.0 / 5.0)


def test_companion_measure_no_zero_atom_without_variance():
    m = triple_to_finite_measure(LevyTriple(0.0, 0.0, ((1.0, 1.0),)))
    assert 0.0 not in dict(m.atoms)
    assert len(m.atoms) == 1


def test_measure_to_triple():
    tr = finite_measure_to_triple(0.7, FiniteMeasure(((0.0, 2.0), (3.0, 1.0))))
    assert tr.drift == 0.7
    assert tr.gauss_var == 2.0
    assert math.isclose(tr.levy_atoms[0][1], 1.0 * 10.0 / 9.0)


def test_companion_weights_where_x_squared_overflows():
    # x*x is inf from |x| of about 1.34e154; x^2/(1+x^2) rounds to 1.0 there
    tr = LevyTriple(0.0, 0.0, ((1e200, 2.0), (-1e300, 0.5), (1e154, 3.0)))
    m = triple_to_finite_measure(tr)
    masses = dict(m.atoms)
    assert masses[1e200] == 2.0 and masses[-1e300] == 0.5
    assert masses[1e154] == 3.0 * (1e308 / (1.0 + 1e308))
    back = finite_measure_to_triple(0.0, m)
    assert back.levy_atoms == ((-1e300, 0.5), (1e154, 3.0), (1e200, 2.0))


def test_companion_weights_where_x_squared_is_not_normal():
    # x*x is subnormal or 0 below |x| of about 1.5e-154; the mass is then
    # formed as (w x) x/(1+x^2), and w x^2 survives where it is normal
    tiny = 2.2250738585072014e-308
    for x, w in ((1e-170, 1e300), (-1e-170, 1e300), (1e-160, 3.0), (1e-200, 1e250)):
        m = triple_to_finite_measure(LevyTriple(0.0, 0.0, ((x, w),)))
        assert dict(m.atoms)[x] == w * x * x / (1.0 + x * x)
    assert math.isclose(
        dict(triple_to_finite_measure(LevyTriple(0.0, 0.0, ((1e-170, 1e300),))).atoms)[1e-170],
        1e-40, rel_tol=1e-15)
    # from the smallest normal x*x on, the mass is w (x^2/(1+x^2)) as before
    for x in (math.sqrt(tiny), 1.5e-154, 1e-100, 0.5, -3.0):
        assert x * x >= tiny
        m = triple_to_finite_measure(LevyTriple(0.0, 0.0, ((x, 0.7),)))
        assert dict(m.atoms)[x] == 0.7 * (x * x / (1.0 + x * x))


def test_measure_to_triple_names_an_unrepresentable_jump_weight():
    # w/x/x (x*x below the normal range) or w (1+x^2)/x^2 overflows
    for x, w in ((1e-200, 1.0), (-1e-170, 1.0), (1e-160, 1.0), (1e-150, 1e300)):
        with pytest.raises(NonFiniteError, match=f"x={x!r}"):
            finite_measure_to_triple(0.0, FiniteMeasure(((x, w), (1.0, 1.0))))
    # just inside the range, the weight is finite
    tr = finite_measure_to_triple(0.0, FiniteMeasure(((1e-150, 1e-10),)))
    assert tr.levy_atoms[0][1] == 1e-10 * ((1.0 + 1e-300) / 1e-300)


def test_measure_to_triple_inverts_masses_where_x_squared_is_not_normal():
    # the weight is w/x/x + w there, the inverse of (w x) x/(1+x^2); the
    # subnormal mass 1e-320 of (1e-160, 1) keeps about 11 bits
    for x, w, rel in ((1e-170, 1e300, 1e-12), (-1e-170, 1e300, 1e-12),
                      (1e-160, 1.0, 5e-4)):
        m = triple_to_finite_measure(LevyTriple(0.0, 0.0, ((x, w),)))
        (back_x, back_w), = finite_measure_to_triple(0.0, m).levy_atoms
        assert back_x == x and math.isclose(back_w, w, rel_tol=rel), (x, back_w)
    # from the smallest normal x*x on, the weight is w (1+x^2)/x^2 as before
    for x in (math.sqrt(2.2250738585072014e-308), 1.5e-154, 1e-100, 0.5, -3.0):
        tr = finite_measure_to_triple(0.0, FiniteMeasure(((x, 0.7),)))
        assert tr.levy_atoms[0][1] == 0.7 * ((1.0 + x * x) / (x * x))


@settings(max_examples=100, deadline=None)
@given(triples())
def test_round_trip(tr):
    back = finite_measure_to_triple(tr.drift, triple_to_finite_measure(tr))
    assert back.drift == tr.drift
    assert math.isclose(back.gauss_var, tr.gauss_var, rel_tol=1e-12,
                        abs_tol=1e-300)
    assert len(back.levy_atoms) == len(tr.levy_atoms)
    for (x1, w1), (x2, w2) in zip(back.levy_atoms, tr.levy_atoms):
        assert x1 == x2
        assert math.isclose(w1, w2, rel_tol=1e-12)


# dilation -------------------------------------------------------------------

def test_scale_triple_example():
    tr = LevyTriple(0.0, 0.0, ((1.0, 1.0),))
    out = scale_triple(2.0, tr)
    # drift correction: 2/(1+4) - 2/(1+1) = -0.6
    assert math.isclose(out.drift, -0.6, rel_tol=1e-15)
    assert out.levy_atoms == ((2.0, 1.0),)


def test_scale_triple_gaussian_variance():
    out = scale_triple(3.0, LevyTriple(1.0, 2.0, ()))
    assert out.gauss_var == 18.0
    assert out.drift == 3.0


def test_scale_triple_validation():
    with pytest.raises(InvalidInput):
        scale_triple(0.0, LevyTriple(0.0, 0.0, ()))
    with pytest.raises(InvalidInput):
        scale_triple(-1.0, LevyTriple(0.0, 0.0, ()))


@settings(max_examples=60, deadline=None)
@given(triples(),
       st.floats(min_value=0.1, max_value=10.0),
       st.floats(min_value=0.1, max_value=10.0))
def test_scale_composition(tr, c1, c2):
    once = scale_triple(c1 * c2, tr)
    twice = scale_triple(c1, scale_triple(c2, tr))
    assert math.isclose(once.drift, twice.drift, rel_tol=1e-10, abs_tol=1e-10)
    assert math.isclose(once.gauss_var, twice.gauss_var, rel_tol=1e-12,
                        abs_tol=1e-300)
    for (x1, w1), (x2, w2) in zip(once.levy_atoms, twice.levy_atoms):
        assert math.isclose(x1, x2, rel_tol=1e-12)
        assert w1 == w2

