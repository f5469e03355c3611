"""Linear vector maps extended to blades: outermorphisms, determinants and
the scalar secular cubic for Cl(3,0).  Only the functions that read or
return numpy arrays, and the cubic's root formulas, import numpy."""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    CL30,
    Multivector,
    Signature,
    blade_indices,
    pseudoscalar,
)

__all__ = [
    "VectorMap",
    "apply_vector",
    "apply_outermorphism",
    "determinant",
    "secular_cubic",
    "real_cubic_roots",
]


@dataclass(frozen=True)
class VectorMap:
    """Linear vector-valued map stored as the images of the basis vectors."""

    sig: Signature
    images: tuple[Multivector, ...]

    def __post_init__(self) -> None:
        if len(self.images) != self.sig.n:
            raise ValueError(f"expected {self.sig.n} basis images")
        for i, img in enumerate(self.images):
            if img.sig != self.sig:
                raise ValueError("image signature mismatch")
            if img.grades_present(0.0) - {1}:
                raise ValueError(f"image of e{i + 1} is not a pure vector")

    @classmethod
    def from_matrix(cls, sig: Signature, mat) -> "VectorMap":
        """Column j of mat holds the coordinates of the image of e_{j+1}."""
        import numpy as np

        mat = np.asarray(mat, dtype=float)
        images = tuple(Multivector.vector(sig, mat[:, j]) for j in range(sig.n))
        return cls(sig, images)

    def matrix(self):
        """The map as a numpy array: column j holds the image of e_{j+1}."""
        import numpy as np

        return np.column_stack([img.vector_coords() for img in self.images])

    def compose(self, other: "VectorMap") -> "VectorMap":
        """self after other, as a vector map."""
        return VectorMap(self.sig, tuple(apply_vector(self, g) for g in other.images))


def apply_vector(f: VectorMap, x: Multivector) -> Multivector:
    """Evaluate the map on a grade-1 element."""
    if x.grades_present(0.0) - {1}:
        raise ValueError("apply_vector requires a pure vector")
    out = Multivector.zero(f.sig)
    for i, c in enumerate(x._vector()):
        if c != 0.0:
            out = out + c * f.images[i]
    return out


def apply_outermorphism(f: VectorMap, a: Multivector) -> Multivector:
    """Extend the map to blades: each basis blade maps to the wedge of the
    images of its factors; scalars pass through unchanged."""
    result = Multivector.zero(f.sig)
    for mask, c in enumerate(a._c):
        if c == 0.0:
            continue
        if mask == 0:
            result = result + Multivector.scalar(f.sig, c)
            continue
        term = None
        for i in blade_indices(mask):
            img = f.images[i - 1]
            term = img if term is None else term ^ img
        result = result + c * term
    return result


def determinant(f: VectorMap) -> float:
    """det(F), the pseudoscalar coefficient of F(I) = det(F) I; OverflowError
    where F(I) overflows, where ``np.linalg.det`` returns +-inf."""
    return apply_outermorphism(f, pseudoscalar(f.sig))._c[-1]


def secular_cubic(f: VectorMap) -> tuple[float, float, float]:
    """Coefficients (a2, a1, a0) of the eigenvalue cubic
    L^3 + a2 L^2 + a1 L + a0 = 0 for a vector map in Cl(3,0)."""
    if f.sig != CL30:
        raise ValueError("secular cubic is defined for Cl(3,0) maps only")
    i3 = pseudoscalar(f.sig)
    e = [Multivector.basis_vector(f.sig, k) for k in (1, 2, 3)]
    f1, f2, f3 = f.images
    a0 = ((f1 ^ f2 ^ f3) | i3).scalar_part()
    a1 = -(((f1 ^ f2 ^ e[2]) + (f1 ^ e[1] ^ f3) + (e[0] ^ f2 ^ f3)) | i3).scalar_part()
    a2 = (((f1 ^ e[1] ^ e[2]) + (e[0] ^ f2 ^ e[2]) + (e[0] ^ e[1] ^ f3)) | i3).scalar_part()
    return (a2, a1, a0)


def real_cubic_roots(a2: float, a1: float, a0: float) -> list[float]:
    """Real roots of x^3 + a2 x^2 + a1 x + a0, via the trigonometric method.

    Complex-conjugate root pairs are omitted; a map with such a spectrum has
    no real eigenvalue in those directions.
    """
    import numpy as np

    # depressed cubic t^3 + p t + q with x = t - a2/3
    p = a1 - a2 * a2 / 3.0
    q = 2.0 * a2 ** 3 / 27.0 - a2 * a1 / 3.0 + a0
    shift = -a2 / 3.0
    disc = -(4.0 * p ** 3 + 27.0 * q * q)
    scale = max(abs(p) ** 1.5, abs(q), 1.0)
    if abs(disc) <= 1e-9 * scale * scale:
        # multiple roots
        if abs(p) <= 1e-9 * scale:
            return [shift] * 3
        double = -3.0 * q / (2.0 * p)
        single = 3.0 * q / p
        return sorted([single + shift, double + shift, double + shift])
    if disc > 0.0:
        m = 2.0 * np.sqrt(-p / 3.0)
        phi = np.arccos(np.clip(3.0 * q / (p * m), -1.0, 1.0)) / 3.0
        roots = [m * np.cos(phi - 2.0 * np.pi * k / 3.0) + shift for k in range(3)]
        return sorted(float(r) for r in roots)
    # one real root (Cardano)
    u = np.cbrt(-q / 2.0 + np.sqrt(q * q / 4.0 + p ** 3 / 27.0))
    v = 0.0 if u == 0.0 else -p / (3.0 * u)
    return [float(u + v + shift)]
