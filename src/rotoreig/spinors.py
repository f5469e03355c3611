"""Bidirectional maps between Hilbert-space column spinors and GA spinors.

Cl(3,0) spinors live on grades {0, 2}; Cl(3,1) spinors on the 8-dimensional
span {1, e23, e31, e12, I, e14, e24, e34}.  The column correspondences are
real-linear bijections fixed so that every generator action commutes with
the mapping (matrix action then map == map then GA action).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .algebra import (
    TOL,
    CL30,
    CL31,
    Multivector,
    Signature,
    blade_indices,
    dagger,
    pseudoscalar,
    spatial_inversion,
)

__all__ = [
    "Spinor",
    "column_to_spinor_cl30",
    "spinor_to_column_cl30",
    "column_to_spinor_cl31",
    "spinor_to_column_cl31",
    "pauli_action_cl30",
    "imaginary_action_cl30",
    "ga_action_cl31",
    "cl31_matrix_rep",
    "pauli_matrix",
    "even_odd_split",
    "inner_product_bracket",
    "CL30_SPINOR_MASKS",
    "CL31_SPINOR_MASKS",
]

# masks: e23=6, e13=5, e12=3 (Cl(3,0) even part)
CL30_SPINOR_MASKS = (0, 6, 5, 3)
# Cl(3,1): 1, e23, e13, e12, e1234, e14, e24, e34
CL31_SPINOR_MASKS = (0, 6, 5, 3, 15, 9, 10, 12)


class _Layout(NamedTuple):
    """One algebra's spinor subspace: coefficient j is ``signs[j]`` times the
    coefficient of blade ``masks[j]``; the ``outside`` blades are zero."""

    sig: Signature
    tag: str
    masks: np.ndarray
    signs: np.ndarray
    outside: np.ndarray


def _layout(sig: Signature, tag: str, masks, signs) -> _Layout:
    outside = [m for m in range(sig.dim) if m not in masks]
    return _Layout(sig, tag, np.array(masks), np.array(signs), np.array(outside))


#: the spinor layout of each algebra, keyed by its tag and by its signature
_LAYOUTS = {key: layout for layout in (
    # a0 + a1 e23 + a2 e31 + a3 e12; canonical storage uses e13 = -e31,
    # hence the sign on a2
    _layout(CL30, "cl30", CL30_SPINOR_MASKS, [1.0, 1.0, -1.0, 1.0]),
    # a0 + a1 e23 - a2 e31 + a3 e12 - b0 I - b1 e14 + b2 e24 + b3 e34
    # (e31 = -e13 cancels the printed minus on a2)
    _layout(CL31, "cl31", CL31_SPINOR_MASKS, [1.0, 1.0, 1.0, 1.0, -1.0, -1.0, 1.0, 1.0]),
) for key in (layout.tag, layout.sig)}


def _layout_of(key: str | Signature) -> _Layout:
    """The spinor layout of an algebra tag ('cl30', 'cl31') or signature."""
    try:
        return _LAYOUTS[key]
    except KeyError:
        raise ValueError(f"no spinor subspace defined for {key!r}") from None


class Spinor:
    """GA spinor: a multivector confined to the algebra's spinor subspace."""

    __slots__ = ("algebra", "mv")

    def __init__(self, mv: Multivector) -> None:
        layout = _layout_of(mv.sig)
        outside = layout.outside
        leak = float(np.max(np.abs(mv.coeffs[outside])))
        if leak > TOL * max(1.0, mv.norm()):
            raise ValueError(f"multivector leaves the spinor subspace (leak {leak:.2e})")
        clean = mv.coeffs.copy()
        clean[outside] = 0.0
        self.algebra = layout.tag
        self.mv = Multivector._wrap(mv.sig, clean)

    # ---- coefficient views --------------------------------------------
    @classmethod
    def from_coeff_vector(cls, algebra: str, vec) -> "Spinor":
        layout = _layout_of(algebra)
        vec = np.asarray(vec, dtype=float)
        if vec.shape != layout.signs.shape:
            raise ValueError(f"{algebra} spinor needs {len(layout.signs)} real coefficients")
        c = np.zeros(layout.sig.dim)
        c[layout.masks] = layout.signs * vec
        return cls(Multivector(layout.sig, c))

    def coeff_vector(self) -> np.ndarray:
        """Real coefficients (a0..a3) or (a0..a3, b0..b3)."""
        layout = _LAYOUTS[self.algebra]
        return layout.signs * self.mv.coeffs[layout.masks]

    @property
    def a(self) -> np.ndarray:
        return self.coeff_vector()[:4]

    @property
    def b(self) -> np.ndarray:
        if self.algebra != "cl31":
            raise ValueError("b coefficients exist only for cl31 spinors")
        return self.coeff_vector()[4:]

    def __repr__(self) -> str:
        return f"Spinor[{self.algebra}]({self.mv})"

    def to_json_dict(self) -> dict:
        v = self.coeff_vector()
        d = {"algebra": self.algebra, "a": [float(x) + 0.0 for x in v[:4]]}
        if self.algebra == "cl31":
            d["b"] = [float(x) + 0.0 for x in v[4:]]
        return d


# ---- column maps ------------------------------------------------------


def column_to_spinor_cl30(col) -> Spinor:
    """Two complex components -> even Cl(3,0) multivector."""
    col = np.asarray(col, dtype=complex)
    if col.shape != (2,):
        raise ValueError("cl30 column spinor must have 2 complex entries")
    a0, a3 = col[0].real, col[0].imag
    a2, a1 = -col[1].real, col[1].imag
    return Spinor.from_coeff_vector("cl30", [a0, a1, a2, a3])


def spinor_to_column_cl30(psi: Spinor) -> np.ndarray:
    if psi.algebra != "cl30":
        raise ValueError("expected a cl30 spinor")
    a0, a1, a2, a3 = psi.coeff_vector()
    return np.array([a0 + 1j * a3, -a2 + 1j * a1])


def column_to_spinor_cl31(col) -> Spinor:
    """Four complex components -> even+odd Cl(3,1) spinor."""
    col = np.asarray(col, dtype=complex)
    if col.shape != (4,):
        raise ValueError("cl31 column spinor must have 4 complex entries")
    a0, a3 = col[0].real, col[0].imag
    b3, b0 = -col[1].real, col[1].imag
    b2, b1 = -col[2].real, -col[2].imag
    a1, a2 = -col[3].real, col[3].imag
    return Spinor.from_coeff_vector("cl31", [a0, a1, a2, a3, b0, b1, b2, b3])


def spinor_to_column_cl31(psi: Spinor) -> np.ndarray:
    if psi.algebra != "cl31":
        raise ValueError("expected a cl31 spinor")
    a0, a1, a2, a3, b0, b1, b2, b3 = psi.coeff_vector()
    return np.array(
        [a0 + 1j * a3, -b3 + 1j * b0, -b2 - 1j * b1, -a1 + 1j * a2]
    )


# ---- matrix representations ------------------------------------------

_SIGMA = {
    1: np.array([[0, 1], [1, 0]], dtype=complex),
    2: np.array([[0, -1j], [1j, 0]], dtype=complex),
    3: np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_matrix(i: int) -> np.ndarray:
    if i not in _SIGMA:
        raise ValueError("Pauli index must be 1, 2 or 3")
    return _SIGMA[i].copy()


def _cl31_generators() -> list[np.ndarray]:
    one = np.eye(2, dtype=complex)
    zero = np.zeros((2, 2), dtype=complex)
    e1 = np.block([[zero, one], [one, zero]])
    e2 = 1j * np.block([[zero, -one], [one, zero]])
    e3 = np.block([[_SIGMA[2], zero], [zero, -_SIGMA[2]]])
    e4 = 1j * np.block([[_SIGMA[3], zero], [zero, -_SIGMA[3]]])
    return [e1, e2, e3, e4]


def cl31_matrix_rep(mask: int) -> np.ndarray:
    """4x4 complex representation of a Cl(3,1) basis blade; composite blades
    are products of the generator matrices in ascending index order."""
    if not 0 <= mask < CL31.dim:
        raise ValueError(f"blade mask {mask} out of range for Cl(3,1)")
    gens = _cl31_generators()
    out = np.eye(4, dtype=complex)
    for i in blade_indices(mask):
        out = out @ gens[i - 1]
    return out


# ---- generator actions ------------------------------------------------


def pauli_action_cl30(i: int, psi: Spinor) -> Spinor:
    """GA image of the Pauli action: sigma_i |psi>  <->  e_i psi e3."""
    if psi.algebra != "cl30":
        raise ValueError("expected a cl30 spinor")
    if i not in (1, 2, 3):
        raise ValueError("Pauli index must be 1, 2 or 3")
    e_i = Multivector.basis_vector(CL30, i)
    e3 = Multivector.basis_vector(CL30, 3)
    return Spinor(e_i * psi.mv * e3)


def imaginary_action_cl30(psi: Spinor) -> Spinor:
    """GA image of multiplication by i: psi e12 (= psi I e3)."""
    if psi.algebra != "cl30":
        raise ValueError("expected a cl30 spinor")
    return Spinor(psi.mv * Multivector.blade(CL30, 0b011))


def ga_action_cl31(kind: str, psi: Spinor, i: int = 0, j: int = 0) -> Spinor:
    """GA image of a generator action on a Cl(3,1) spinor.

    kind: 'vector'       e_i |psi>    ->  e_i psi I e3
          'bivector'     e_ij |psi>   ->  e_ij psi
          'pseudovector' I e_i |psi>  ->  I e_i psi I e3
          'imaginary'    i |psi>      ->  I psi e34
    """
    if psi.algebra != "cl31":
        raise ValueError("expected a cl31 spinor")
    i_ps = pseudoscalar(CL31)
    e3 = Multivector.basis_vector(CL31, 3)
    ie3 = i_ps * e3
    if kind == "vector":
        if not 1 <= i <= 4:
            raise ValueError("vector index must be 1..4")
        return Spinor(Multivector.basis_vector(CL31, i) * psi.mv * ie3)
    if kind == "bivector":
        if not (1 <= i <= 4 and 1 <= j <= 4 and i != j):
            raise ValueError("bivector indices must be distinct, in 1..4")
        eij = Multivector.basis_vector(CL31, i) * Multivector.basis_vector(CL31, j)
        return Spinor(eij * psi.mv)
    if kind == "pseudovector":
        if not 1 <= i <= 4:
            raise ValueError("pseudovector index must be 1..4")
        iei = i_ps * Multivector.basis_vector(CL31, i)
        return Spinor(iei * psi.mv * ie3)
    if kind == "imaginary":
        e34 = Multivector.basis_vector(CL31, 3) * Multivector.basis_vector(CL31, 4)
        return Spinor(i_ps * psi.mv * e34)
    raise ValueError(f"unknown action kind {kind!r}")


# ---- splitting and brackets -------------------------------------------


def even_odd_split(psi: Spinor) -> tuple[Spinor, Spinor]:
    """Split a Cl(3,1) spinor into inversion-even and inversion-odd parts."""
    if psi.algebra != "cl31":
        raise ValueError("even/odd split is defined for cl31 spinors")
    inv = spatial_inversion(psi.mv)
    even = Spinor((psi.mv + inv) / 2.0)
    odd = Spinor((psi.mv - inv) / 2.0)
    return even, odd


def inner_product_bracket(phi: Spinor, psi: Spinor) -> tuple[float, float]:
    """(real, imaginary) parts of the Hilbert inner product <phi|psi>,
    computed as (<dagger(phi) psi>, -<dagger(phi) psi e12>)."""
    if phi.algebra != "cl31" or psi.algebra != "cl31":
        raise ValueError("bracket is defined for cl31 spinors")
    prod = dagger(phi.mv) * psi.mv
    e12 = Multivector.blade(CL31, 0b0011)
    return (prod.scalar_part(), -(prod * e12).scalar_part())
