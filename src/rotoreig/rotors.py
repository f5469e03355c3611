"""Rotor construction, validation and application.

Sign convention: ``rotor_from_vectors(a, b)`` returns R = (1 + b a)/|a + b|,
which satisfies R a ~R = b under the two-sided rotation used throughout.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import TOL, Multivector

__all__ = [
    "Rotor",
    "rotor_exp",
    "rotor_from_vectors",
    "rotate",
    "is_rotor",
]

#: unit vectors closer than this to antiparallel have no unique rotation plane
ANTIPARALLEL_TOL = 1e-10

#: the scalar 1 as coefficients, cut to each algebra's dim: 1 + b a with the
#: bits of ``Multivector.__add__``, which folds -0.0 in the same way
_ONE = np.eye(1, 256)[0]
_ONE.flags.writeable = False


class Rotor:
    """A validated rotor: even multivector R with R * reverse(R) = 1, or a
    stack of them from ``rotor_from_vectors``."""

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


def _check_unit_vector(v: Multivector, name: str) -> tuple[float, bool]:
    """Reject v unless it is a vector, unit to TOL; return v v and whether v
    has parts outside grade 1, all below TOL."""
    t, blade = v.sig.tables, v._blade
    if blade:  # +-e_m: the grade and the square of its mask m
        impure, spill = t["grades"][blade.mask] != 1, False
    else:
        outside = v.coeffs[t["not_vector"]]
        # fmax skips NaN, which a plain max returns, hiding a part above TOL
        top = np.fmax.reduce(np.abs(outside)) if np.count_nonzero(outside) else 0.0
        impure, spill = top > TOL, top > 0.0
    if impure:
        raise ValueError(f"{name} must be a pure vector")
    # v v = sum of c_m^2 e_m e_m: a metric-weighted dot, no product needed
    square = float(t["square_sign"][blade.mask] if blade
                   else (v.coeffs * v.coeffs) @ t["square_sign"])
    if abs(square - 1.0) > TOL:
        raise ValueError(f"{name} must be a unit vector")
    return square, spill


def rotor_exp(b: Multivector, theta: float) -> Rotor:
    """cos(theta/2) + B sin(theta/2) for a unit bivector B (B*B = -1)."""
    if b.grades_present(TOL) - {2}:
        raise ValueError("rotation plane must be a pure bivector")
    sq = b * b
    if (sq + 1.0).norm() > TOL * b.sig.dim:
        raise ValueError("rotation plane must be a unit bivector (B*B = -1)")
    return Rotor(math.cos(theta / 2.0) + b * math.sin(theta / 2.0))


def rotor_from_vectors(a: Multivector, b: Multivector) -> Rotor:
    """R = (1 + b a)/sqrt(2 (1 + a.b)), taking unit vector a to unit vector b.

    R ~R - 1 = (a^2 b^2 - 1)/(2 (1 + a.b)) is held to is_rotor's bound
    TOL * dim in that closed form; R's own rounding, which grows near
    antiparallel, is not checked.  Antiparallel inputs are rejected: pick
    the plane with rotor_exp instead.

    b may also be a stack of vectors (see ``algebra``); R is then the stack
    of their rotors, one numpy call per step for every row, row i with the
    bits and the checks of the call on row i alone.  The first row that
    fails a check raises that call's error."""
    a2, spill = _check_unit_vector(a, "a")
    # parts outside grade 1, all below TOL, would make R odd
    a1 = a.grade(1) if spill else a
    sig, rotor = a.sig, object.__new__(Rotor)
    if b.coeffs.ndim == 1:
        b2, spill = _check_unit_vector(b, "b")
        # a.b is the scalar part of b a: the same terms, summed in the same
        # order as in a | b
        ba = (b.grade(1) if spill else b) * a1
        cos_theta = ba.scalar_part()
        if cos_theta < -1.0 + ANTIPARALLEL_TOL:
            raise ValueError("rotation plane undefined for antiparallel vectors")
        rotor.value = Multivector._wrap(
            sig, (ba.coeffs + _ONE[:sig.dim]) / math.sqrt(2.0 * (1.0 + cos_theta)))
        # written so that NaN fails it
        if not abs(a2 * b2 - 1.0) <= TOL * sig.dim * 2.0 * (1.0 + cos_theta):
            raise ValueError(f"not a rotor: {rotor.value}")
        return rotor
    # a stack: each check as above, on the floats of each row, and each
    # step in one numpy call over every row
    rows = b.coeffs
    outside = np.abs(rows.take(sig.tables["not_vector"], axis=1))
    # every row projected onto grade 1: on a row that passes its checks this
    # drops parts below TOL, as the call on that row alone does, or zeros,
    # whose signs reach no product (its sums start at +0.0)
    ba = b.grade(1) * a1
    cos_theta = ba.coeffs[:, 0].tolist()
    # one dot per row: a matrix-vector product sums in another order
    checks = zip((outside > TOL).any(axis=1).tolist(), rows * rows, cos_theta)
    for i, (impure, square, cos) in enumerate(checks):
        b2 = float(square @ sig.tables["square_sign"])
        if (impure or abs(b2 - 1.0) > TOL or cos < -1.0 + ANTIPARALLEL_TOL
                or not abs(a2 * b2 - 1.0) <= TOL * sig.dim * 2.0 * (1.0 + cos)):
            # the call on this row alone raises its error
            rotor_from_vectors(a, Multivector._wrap(sig, rows[i]))
    denominator = np.array([math.sqrt(2.0 * (1.0 + cos)) for cos in cos_theta])
    rotor.value = Multivector._wrap(sig, (ba.coeffs + _ONE[:sig.dim]) / denominator[:, None])
    return rotor


def rotate(r: Rotor, m: Multivector) -> Multivector:
    """Two-sided rotation R M reverse(R); grade- and norm-preserving."""
    return r.value * m * ~r.value
