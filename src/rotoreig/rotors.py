"""Rotor construction, validation and application.

Sign convention: ``rotor_from_vectors(a, b)`` returns R = (1 + b a)/|a + b|,
which satisfies R a ~R = b under the two-sided rotation used throughout.
"""

from __future__ import annotations

import math

from .algebra import TOL, Multivector, _bits

__all__ = [
    "Rotor",
    "rotor_from_vectors",
    "rotate",
    "is_rotor",
]

#: unit vectors closer than this to antiparallel have no unique rotation plane
ANTIPARALLEL_TOL = 1e-10


class Rotor:
    """A validated rotor: even multivector R with R * reverse(R) = 1."""

    __slots__ = ("value",)

    def __init__(self, value: Multivector) -> None:
        if not is_rotor(value):
            raise ValueError(f"not a rotor: {value}")
        self.value = value

    def __repr__(self) -> str:
        return f"Rotor({self.value})"


def is_rotor(m: Multivector) -> bool:
    """True iff m is even-grade and m * reverse(m) = 1 componentwise."""
    if not m.is_even():
        return False
    n = m * ~m
    return (n - 1.0).norm() <= TOL * m.sig.dim


def _unit_square(v: Multivector) -> float:
    """v v = sum of c_m^2 e_m e_m over v's support: a metric-weighted dot, no
    product needed, summed from 0.0 in blade order, so its last bit (which
    the closed-form check near antiparallel resolves) is the same on every
    platform."""
    c, signs, square = v._c, v.sig._code.square_sign, 0.0
    for m in _bits(v._support):
        square += c[m] * c[m] * signs[m]
    return square


def _check_unit(square: float, name: str) -> float:
    """square, unless it is not 1 to TOL: written so that NaN fails it, as
    squares past the largest float, one of them e4's, sum to inf - inf."""
    if not abs(square - 1.0) <= TOL:
        raise ValueError(f"{name} must be a unit vector")
    return square


def _check_vector(v: Multivector, name: str) -> bool:
    """Reject v unless its parts outside grade 1 are all below TOL; return
    whether it has any that is not 0.0."""
    c, code = v._c, v.sig._code
    # the parts of its support outside grade 1
    outside = v._support & ~code.grade_bits[1]
    top = max(abs(c[m]) for m in _bits(outside)) if outside else 0.0
    if top > TOL:
        raise ValueError(f"{name} must be a pure vector")
    return top > 0.0


def _check_unit_vector(v: Multivector, name: str) -> tuple[float, bool]:
    """``_check_vector``, then reject v unless unit to TOL; return v v too."""
    spill = _check_vector(v, name)
    return _check_unit(_unit_square(v), name), spill


def _denominator(ba: Multivector, a2: float, b2: float) -> float:
    """sqrt(2 (1 + a.b)) of the rotor (1 + b a) / sqrt(2 (1 + a.b)), once
    b a, a a and b b pass the antiparallel and rotor checks; the rotor check
    reads only a.b, a a and b b, so it runs before the division, whose
    result only its message shows."""
    cos_theta = ba.scalar_part()
    if cos_theta < -1.0 + ANTIPARALLEL_TOL:
        raise ValueError("rotation plane undefined for antiparallel vectors")
    denominator = math.sqrt(2.0 * (1.0 + cos_theta))
    # written so that NaN fails it
    if not abs(a2 * b2 - 1.0) <= TOL * ba.sig.dim * 2.0 * (1.0 + cos_theta):
        raise ValueError(f"not a rotor: {(ba + 1.0) / denominator}")
    return denominator


def rotor_from_vectors(a: Multivector, b: Multivector) -> Rotor:
    """R = (1 + b a)/sqrt(2 (1 + a.b)), taking unit vector a to unit vector b.

    R ~R - 1 = (a^2 b^2 - 1)/(2 (1 + a.b)) is held to is_rotor's bound
    TOL * dim in that closed form; R's own rounding, which grows near
    antiparallel, is not checked.  Antiparallel inputs are rejected: no
    rotation plane is defined there."""
    a2, spill = _check_unit_vector(a, "a")
    # parts outside grade 1, all below TOL, would make R odd
    a1 = a.grade(1) if spill else a
    b2, spill = _check_unit_vector(b, "b")
    # a.b is the scalar part of b a: the same terms, summed in the same order
    # as in a | b
    ba = (b.grade(1) if spill else b) * a1
    denominator = _denominator(ba, a2, b2)
    rotor = object.__new__(Rotor)
    rotor.value = (ba + 1.0) / denominator
    return rotor


def rotate(r: Rotor, m: Multivector) -> Multivector:
    """Two-sided rotation R M reverse(R); grade- and norm-preserving."""
    return r.value * m * ~r.value
