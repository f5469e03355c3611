"""Rotor construction, validation, application and composition.

Sign convention: ``rotor_from_vectors(a, b)`` returns R = (1 + b a)/|a + b|,
which satisfies R a ~R = b under the two-sided rotation used throughout.
"""

from __future__ import annotations

import math

from .algebra import TOL, Multivector, Signature

__all__ = [
    "Rotor",
    "rotor_from_reflections",
    "rotor_exp",
    "rotor_from_vectors",
    "rotate",
    "compose",
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

    @property
    def sig(self) -> Signature:
        return self.value.sig

    def reverse(self) -> Multivector:
        return ~self.value

    def __repr__(self) -> str:
        return f"Rotor({self.value})"


def is_rotor(m: Multivector) -> bool:
    """True iff m is even-grade and m * reverse(m) = 1 componentwise."""
    if not m.is_even():
        return False
    n = m * ~m
    return (n - 1.0).norm() <= TOL * m.sig.dim


def _check_unit_vector(v: Multivector, name: str) -> None:
    if v.grades_present(TOL) - {1}:
        raise ValueError(f"{name} must be a pure vector")
    if abs((v * v).scalar_part() - 1.0) > TOL:
        raise ValueError(f"{name} must be a unit vector")


def rotor_from_reflections(m: Multivector, n: Multivector) -> Rotor:
    """Rotor from two reflections in planes perpendicular to unit m and n."""
    _check_unit_vector(m, "m")
    _check_unit_vector(n, "n")
    return Rotor(m * n)


def rotor_exp(b: Multivector, theta: float) -> Rotor:
    """cos(theta/2) + B sin(theta/2) for a unit bivector B (B*B = -1)."""
    if b.grades_present(TOL) - {2}:
        raise ValueError("rotation plane must be a pure bivector")
    sq = b * b
    if (sq + 1.0).norm() > TOL * b.sig.dim:
        raise ValueError("rotation plane must be a unit bivector (B*B = -1)")
    return Rotor(math.cos(theta / 2.0) + b * math.sin(theta / 2.0))


def rotor_from_vectors(a: Multivector, b: Multivector) -> Rotor:
    """The rotor taking unit vector a to unit vector b in the a,b plane.

    Antiparallel inputs are rejected: the caller must pick a plane explicitly
    via rotor_exp in that case.
    """
    _check_unit_vector(a, "a")
    _check_unit_vector(b, "b")
    cos_theta = (a | b).scalar_part()
    if cos_theta < -1.0 + ANTIPARALLEL_TOL:
        raise ValueError("rotation plane undefined for antiparallel vectors")
    denom = math.sqrt(2.0 * (1.0 + cos_theta))
    return Rotor((1.0 + b * a) / denom)


def rotate(r: Rotor, m: Multivector) -> Multivector:
    """Two-sided rotation R M reverse(R); grade- and norm-preserving."""
    return r.value * m * ~r.value


def compose(r2: Rotor, r1: Rotor) -> Multivector:
    """Composite transformation R2 R1.

    The result always satisfies V * reverse(V) = 1 but need not be a rotor
    (the factors may act in nonintersecting subspaces), so it is returned as
    a plain multivector; wrap in Rotor when validity is known.
    """
    return r2.value * r1.value
