"""Rotor construction, validation, application and composition.

Sign convention: ``rotor_from_vectors(a, b)`` returns R = (1 + b a)/|a + b|,
which satisfies R a ~R = b under the two-sided rotation used throughout.
"""

from __future__ import annotations

import math

from .algebra import TOL, Multivector

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

    def __repr__(self) -> str:
        return f"Rotor({self.value})"


def is_rotor(m: Multivector) -> bool:
    """True iff m is even-grade and m * reverse(m) = 1 componentwise."""
    if not m.is_even():
        return False
    n = m * ~m
    return (n - 1.0).norm() <= TOL * m.sig.dim


def _check_unit_vector(v: Multivector, name: str) -> bool:
    """Reject v unless unit to TOL; True if v is exactly a Euclidean vector."""
    grades = v.grades_present()
    if grades - {1} and v.grades_present(TOL) - {1}:
        raise ValueError(f"{name} must be a pure vector")
    # v v = sum of c_m^2 e_m e_m: a metric-weighted dot, no product needed
    if abs((v.coeffs * v.coeffs) @ v.sig.tables["square_sign"] - 1.0) > TOL:
        raise ValueError(f"{name} must be a unit vector")
    # no other grade, and nothing on the masks from 1 << p on, the vectors
    # e_i with e_i e_i = -1
    return grades <= {1} and not (v.sig.q and v.coeffs[1 << v.sig.p:].any())


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
    a_euclidean = _check_unit_vector(a, "a")
    b_euclidean = _check_unit_vector(b, "b")
    cos_theta = (a | b).scalar_part()
    if cos_theta < -1.0 + ANTIPARALLEL_TOL:
        raise ValueError("rotation plane undefined for antiparallel vectors")
    denom = math.sqrt(2.0 * (1.0 + cos_theta))
    value = (1.0 + b * a) / denom
    # R ~R - 1 = ((1 + b a)(1 + a b) - denom^2) / denom^2 = (a^2 b^2 - 1) /
    # (2 (1 + a.b)) for vectors: at a.b >= 0 at most about TOL, as a^2 and
    # b^2 are unit to TOL, and for Euclidean a, b of length 1 the rounding
    # of R is 1e-4 of is_rotor's bound TOL * dim, so R is a rotor by
    # construction.  Nearer antiparallel both grow (to 1e-2 and, as eps /
    # (1 + a.b), 1e-11 at 1 + a.b = 1e-9), and there the product decides.
    if a_euclidean and b_euclidean and cos_theta >= 0.0:
        rotor = object.__new__(Rotor)
        rotor.value = value
        return rotor
    return Rotor(value)


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
