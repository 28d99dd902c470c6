"""Levy-Khintchine triples and the finite spectral measures they map to.

A triple [a, sigma^2, M] describes an infinitely divisible law through
its characteristic exponent

    log phi(t) = i t a - sigma^2 t^2 / 2
                 + sum_x w_x (e^{itx} - 1 - itx/(1+x^2)).

Only purely atomic jump measures M are supported.  The companion
representation is a finite measure m with m({x}) = x^2/(1+x^2) * M({x})
for x != 0 and m({0}) = sigma^2; that m is what the transform formulas
integrate against.
"""

from __future__ import annotations

import math
import sys

from ._records import record
from .errors import InvalidInput, NonFiniteError, _real

Atom = tuple[float, float]  # (location, weight)
_MIN_NORMAL = sys.float_info.min


def _check_atoms(atoms, *, jumps: bool, what: str) -> tuple[Atom, ...]:
    """The atoms as float pairs sorted by location: finite and pairwise
    distinct; a jump measure's at x != 0 with w > 0, a finite measure's
    anywhere with w >= 0."""
    out = {}
    for x, w in atoms:
        x, w = _real(x, f"{what} location"), _real(w, f"{what} mass")
        if jumps:
            if x == 0.0:
                raise InvalidInput(f"{what}: atom at 0 not allowed")
            if w <= 0.0:
                raise InvalidInput(f"{what}: mass must be positive, got {w!r} at {x!r}")
        elif w < 0.0:
            raise InvalidInput(f"{what}: negative mass {w!r} at {x!r}")
        if x in out:
            raise InvalidInput(f"{what}: duplicate atom location {x!r}")
        out[x] = w
    return tuple(sorted(out.items()))


@record
class LevyTriple:
    """Generating triple [drift, gauss_var, levy_atoms] of an ID law.

    levy_atoms is the jump measure: atoms at nonzero locations with
    strictly positive weights, locations pairwise distinct.
    """

    drift: float
    gauss_var: float
    levy_atoms: tuple[Atom, ...] = ()

    def _checked(self):
        drift, gauss_var = _real(self.drift, "drift"), _real(self.gauss_var, "gauss_var")
        if gauss_var < 0.0:
            raise InvalidInput(f"gauss_var must be >= 0, got {gauss_var!r}")
        atoms = _check_atoms(self.levy_atoms, jumps=True, what="levy_atoms")
        return tuple.__new__(type(self), (drift, gauss_var, atoms))


@record
class FiniteMeasure:
    """Purely atomic finite measure on the real line.

    Atom locations are pairwise distinct (constructors reject duplicates
    rather than merging) and masses are >= 0; an atom at 0 is allowed.
    """

    atoms: tuple[Atom, ...] = ()

    def _checked(self):
        atoms = _check_atoms(self.atoms, jumps=False, what="atoms")
        return tuple.__new__(type(self), (atoms,))


def triple_to_finite_measure(tr: LevyTriple) -> FiniteMeasure:
    """Companion measure of a triple: jump atoms reweighted by
    x^2/(1+x^2), plus an atom of mass gauss_var at the origin.  Where x*x
    overflows the factor is 1.0, which is what x^2/(1+x^2) rounds to;
    where it is below the smallest normal double the mass is formed as
    (w x) x/(1+x^2), which keeps a w x^2 that x*x alone would lose."""
    atoms = []
    for x, w in tr.levy_atoms:
        xx = x * x
        if xx < _MIN_NORMAL:
            atoms.append((x, w * x * x / (1.0 + xx)))
        else:
            atoms.append((x, w * (xx / (1.0 + xx) if xx != math.inf else 1.0)))
    if tr.gauss_var > 0.0:
        atoms.append((0.0, tr.gauss_var))
    return FiniteMeasure(atoms=tuple(atoms))


def finite_measure_to_triple(a: float, m: FiniteMeasure) -> LevyTriple:
    """Inverse of triple_to_finite_measure; the drift passes through.

    The factor (1+x^2)/x^2 is 1.0 where x*x overflows; where x*x is below
    the smallest normal double the weight is formed as w/x/x + w, which
    inverts the companion mass (w x) x/(1+x^2).  NonFiniteError names x
    where the jump weight overflows.
    """
    gauss_var = 0.0
    jump = []
    for x, w in m.atoms:
        if x == 0.0:
            gauss_var = w
        elif w > 0.0:
            xx = x * x
            if xx < _MIN_NORMAL:
                weight = w / x / x + w
            else:
                weight = w * ((1.0 + xx) / xx if xx != math.inf else 1.0)
            if weight == math.inf:
                raise NonFiniteError(f"jump weight {w!r} * (1+x^2)/x^2 at "
                                     f"x={x!r} overflows double precision")
            jump.append((x, weight))
    return LevyTriple(drift=a, gauss_var=gauss_var, levy_atoms=tuple(jump))


def scale_triple(c: float, tr: LevyTriple) -> LevyTriple:
    """Triple of the dilated law (the law of c*X for X with triple tr).

    Jump atoms move to c*x with unchanged weights, the Gaussian variance
    picks up c^2, and the drift absorbs the compensator mismatch:
        a  ->  c a + sum_x w (cx/(1+(cx)^2) - cx/(1+x^2)).
    """
    c = _real(c, "scale factor", positive=True)
    corr = 0.0
    atoms = []
    for x, w in tr.levy_atoms:
        cx = c * x
        corr += w * (cx / (1.0 + cx * cx) - cx / (1.0 + x * x))
        atoms.append((cx, w))
    return LevyTriple(drift=c * tr.drift + corr,
                      gauss_var=c * c * tr.gauss_var,
                      levy_atoms=tuple(atoms))

