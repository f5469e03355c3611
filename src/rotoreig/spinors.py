"""Bidirectional maps between Hilbert-space column spinors and GA spinors.

Cl(3,0) spinors live on grades {0, 2}; Cl(3,1) spinors on the 8-dimensional
span {1, e23, e31, e12, I, e14, e24, e34}.  The column correspondences are
real-linear bijections fixed so that every generator action commutes with
the mapping (matrix action then map == map then GA action).
"""

from __future__ import annotations

import math
import sys
from typing import Callable, NamedTuple

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
)

__all__ = [
    "Spinor",
    "column_to_spinor",
    "spinor_to_column",
    "pauli_action_cl30",
    "imaginary_action_cl30",
    "ga_action_cl31",
    "cl31_matrix_rep",
    "pauli_matrix",
]


class _Layout(NamedTuple):
    """One algebra's spinor subspace: coefficient j is ``signs[j]`` times the
    coefficient of blade ``masks[j]``; the ``outside`` blades are zero, and
    ``bound`` holds the largest float on the blades inside and 0 outside.  Part
    k of the column spinor (the real parts, then the imaginary parts) is
    ``col_signs[k]`` times coefficient ``col_order[k]``."""

    sig: Signature
    tag: str
    masks: np.ndarray
    signs: np.ndarray
    outside: np.ndarray
    bound: np.ndarray
    bra: Callable[[Multivector], Multivector]  # the Hilbert adjoint of a spinor
    col_order: np.ndarray
    col_signs: np.ndarray


def _layout(sig: Signature, tag: str, masks, signs, bra, col_order, col_signs) -> _Layout:
    outside = [m for m in range(sig.dim) if m not in masks]
    bound = np.where(np.isin(np.arange(sig.dim), masks), sys.float_info.max, 0.0)
    bound.flags.writeable = False
    return _Layout(sig, tag, np.array(masks), np.array(signs, float), np.array(outside),
                   bound, bra, np.array(col_order), np.array(col_signs, float))


#: the spinor layout of each algebra, keyed by its tag, by its signature and
#: by the shape of its column spinor
_LAYOUTS = {key: layout for layout in (
    # a0 + a1 e23 + a2 e31 + a3 e12 (masks 0, e23, e13, e12); canonical
    # storage uses e13 = -e31, hence the sign on a2.  Column
    # [a0 + i a3, -a2 + i a1]
    _layout(CL30, "cl30", (0, 6, 5, 3), [1, 1, -1, 1], Multivector.__invert__,
            (0, 2, 3, 1), (1, -1, 1, 1)),
    # a0 + a1 e23 - a2 e31 + a3 e12 - b0 I - b1 e14 + b2 e24 + b3 e34
    # (e31 = -e13 cancels the printed minus on a2).  Column
    # [a0 + i a3, -b3 + i b0, -b2 - i b1, -a1 + i a2]
    _layout(CL31, "cl31", (0, 6, 5, 3, 15, 9, 10, 12), [1, 1, 1, 1, -1, -1, 1, 1], dagger,
            (0, 7, 6, 1, 3, 4, 5, 2), (1, -1, -1, -1, 1, 1, -1, 1)),
) for key in (layout.tag, layout.sig, (len(layout.masks) // 2,))}


def _layout_of(key: str | Signature) -> _Layout:
    """The spinor layout of an algebra tag ('cl30', 'cl31') or signature."""
    try:
        return _LAYOUTS[key]
    except KeyError:
        raise ValueError(f"no spinor subspace defined for {key!r}") from None


def _check_leak(coeffs: np.ndarray, outside: np.ndarray) -> None:
    """Raise if a coefficient is not finite, or if the leak, the largest
    coefficient outside the spinor subspace, exceeds TOL of the
    multivector's scale |mv|."""
    leak = float(np.abs(coeffs[outside]).max())
    if leak == 0.0:
        if not all(map(math.isfinite, coeffs.tolist())):
            raise ValueError("spinor has a coefficient that is not finite")
        return
    # |mv| by hypot, which cannot overflow where mv.norm() does; past the
    # largest float, a quarter of |mv| against a quarter of the leak (exact)
    values = coeffs.tolist()
    scale, part = math.hypot(*values), leak
    if scale == math.inf and all(map(math.isfinite, values)):
        scale, part = math.hypot(*(v / 4.0 for v in values)), leak / 4.0
    # so |mv| is not finite only beside a NaN or infinite coefficient, where
    # it fails every comparison or passes any leak: that raises on its own
    if not math.isfinite(scale) or part > TOL * max(1.0, scale):
        raise ValueError(f"multivector leaves the spinor subspace (leak {leak:.2e})")


class Spinor:
    """GA spinor: a multivector confined to the algebra's spinor subspace.

    Inside the package it may hold a stack of spinors (see ``algebra``), each
    row checked on its own; ``_rows`` gives them back one by one."""

    __slots__ = ("algebra", "mv")

    def __init__(self, mv: Multivector) -> None:
        layout = _layout_of(mv.sig)
        outside = layout.outside
        clean = mv.coeffs.copy()
        # |c| <= bound fails only on a nonzero blade outside the subspace and
        # on NaN or inf, and raises no float flag; then a row at a time, the
        # first bad row raises
        if np.count_nonzero(np.abs(clean) <= layout.bound) != clean.size:
            for row in clean.reshape(-1, layout.sig.dim):
                _check_leak(row, outside)
        if clean.ndim == 1:
            clean[outside] = 0.0
        else:
            clean[:, outside] = 0.0
        self.algebra = layout.tag
        self.mv = Multivector._wrap(mv.sig, clean)

    def _rows(self) -> list["Spinor"]:
        """The spinors of a stack, each a Spinor of its own that the stack's
        check already covers."""
        out = []
        for row in self.mv.coeffs:
            spinor = object.__new__(Spinor)
            spinor.algebra = self.algebra
            spinor.mv = Multivector._wrap(self.mv.sig, row)
            out.append(spinor)
        return out

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

    def __repr__(self) -> str:
        return f"Spinor[{self.algebra}]({self.mv})"


# ---- column maps ------------------------------------------------------


def column_to_spinor(col) -> Spinor:
    """Complex column spinor -> GA spinor: two entries give a Cl(3,0)
    spinor, four a Cl(3,1) one."""
    col = np.asarray(col, dtype=complex)
    layout = _LAYOUTS.get(col.shape)
    if layout is None:
        raise ValueError(f"a column spinor has 2 or 4 complex entries, not shape {col.shape}")
    vec = np.empty(len(layout.masks))
    vec[layout.col_order] = layout.col_signs * np.concatenate([col.real, col.imag])
    return Spinor.from_coeff_vector(layout.tag, vec)


def spinor_to_column(psi: Spinor) -> np.ndarray:
    """GA spinor -> complex column spinor; inverse of ``column_to_spinor``."""
    layout = _LAYOUTS[psi.algebra]
    parts = layout.col_signs * psi.coeff_vector()[layout.col_order]
    n = len(parts) // 2
    return parts[:n] + 1j * parts[n:]


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
