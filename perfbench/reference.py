"""High-precision reference values for sampled ``eval`` rows.

Every class except ``linf`` is evaluated from the random-integral formula

    V(it) = a c + sigma^2 d/(it) + sum_j w_j x_j [g(i x_j/t) - c/(1 + x_j^2)]

with the class's kernel moments (c, d) and Pick function g, the Lerch values
inside g taken from mpmath's polylogarithm and logarithm through

    Phi(w, s, 2) = (Li_s(w) - w)/w^2,
    Phi(w, 1, k) = w^-k (-log(1 - w) - sum_{m<k} w^m/m).

``linf`` uses its closed form.  None of this shares code with the package.
The working precision grows with the cancellation each identity suffers at
small |w|, so every reference keeps at least 30 correct digits.
"""

from __future__ import annotations

import math

try:
    import mpmath as mp
except ImportError:  # the check is then reported as skipped
    mp = None

# Relative tolerance of a sampled row against its reference.  The package
# documents agreement of its branches to about 1e-10; every row of both eval
# decks, checked for a few seeds, agreed to 1e-11 or better.
RTOL = 1e-9
_BASE_DPS = 30


def available() -> bool:
    return mp is not None


def _digits_lost(w_abs: float, power: int) -> int:
    if w_abs >= 1.0:
        return 0
    return math.ceil(power * -math.log10(w_abs)) + 2


def _g(class_tag: str, k, z):
    """Pick function g(z) of the class at the current mpmath precision."""
    w = -z
    if class_tag == "id" or (class_tag == "uks" and k == 0):
        return 1 / (1 + z)
    if class_tag == "uks":
        return (mp.polylog(k, w) - w) / (w * w)
    if class_tag == "ubk":
        partial = mp.fsum(w ** m / m for m in range(1, k))
        phi = (-mp.log(1 - w) - partial) / w ** k
        return k * (phi - mp.mpf(1) / k) / w
    if class_tag == "lk":
        return mp.polylog(k + 1, w) / w
    raise ValueError(f"no Pick function for class {class_tag!r}")


def _moments(class_tag: str, k):
    if class_tag == "id" or (class_tag == "uks" and k == 0):
        return mp.mpf(1), mp.mpf(1)
    if class_tag == "uks":
        return mp.mpf(2) ** -k, mp.mpf(3) ** -k
    if class_tag == "ubk":
        return mp.mpf(k) / (k + 1), mp.mpf(k) / (k + 2)
    return mp.mpf(1), mp.mpf(2) ** -(k + 1)


def _cancellation(class_tag: str, k, data: dict, t: float) -> int:
    w_min = min(abs(a["x"]) for a in data["atoms"]) / t
    if class_tag == "linf":
        return max(_digits_lost(abs(abs(a["x"]) - 1.0), 1) for a in data["atoms"])
    if class_tag == "uks" and k:
        return _digits_lost(w_min, 1)
    if class_tag == "ubk":
        return _digits_lost(w_min, k + 1)
    return 0


def reference_value(class_tag: str, k, data: dict, t: float) -> complex:
    """V(it) of the class for one parsed ``eval`` input."""
    with mp.workdps(_BASE_DPS + _cancellation(class_tag, k, data, t)):
        t = mp.mpf(t)
        it = mp.mpc(0, t)
        if class_tag == "linf":
            acc = mp.mpc(data["c"])
            for atom in data["atoms"]:
                x = mp.mpf(atom["x"])
                ax = abs(x)
                num = mp.gamma(ax + 1) * mp.j * mp.exp(mp.j * mp.pi * x / 2) + x
                acc -= atom["w"] * num * t ** (1 - ax) / (1 - ax)
            return complex(acc)
        c, d = _moments(class_tag, k)
        acc = data["a"] * c + data["sigma2"] * d / it
        for atom in data["atoms"]:
            x = mp.mpf(atom["x"])
            acc += atom["w"] * x * (_g(class_tag, k, mp.j * x / t) - c / (1 + x * x))
        return complex(acc)


def relative_error(value: complex, ref: complex) -> float:
    return abs(value - ref) / abs(ref)
