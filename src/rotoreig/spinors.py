"""Bidirectional maps between Hilbert-space column spinors and GA spinors.

Cl(3,0) spinors live on grades {0, 2}; Cl(3,1) spinors on the 8-dimensional
span {1, e23, e31, e12, I, e14, e24, e34}.  The column correspondences are
real-linear bijections fixed so that every generator action commutes with
the mapping (matrix action then map == map then GA action).  Columns and
matrices are tuples of Python complex numbers, so no function here imports
numpy.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .algebra import (
    TOL,
    CL30,
    CL31,
    Multivector,
    Signature,
    _bits,
    _floats,
    blade_indices,
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
    coefficient of blade ``masks[j]``, and ``inside`` is the support of
    these blades; the blades outside are zero.  Part k of the column
    spinor (the real parts, then the imaginary parts) is ``col_signs[k]``
    times coefficient ``col_order[k]``."""

    sig: Signature
    tag: str
    masks: tuple[int, ...]
    signs: tuple[int, ...]  # +-1, exact: x * 1 is x, and x * -1 is -x
    inside: int
    col_order: tuple[int, ...]
    col_signs: tuple[int, ...]


def _layout(sig: Signature, tag: str, masks, signs, col_order, col_signs) -> _Layout:
    return _Layout(sig, tag, masks, signs, sum(1 << m for m in masks), col_order, col_signs)


#: the spinor layout of each algebra, keyed by its tag, by its signature, by
#: its signature's ``_Code`` (hashed by identity, which ``Spinor`` looks up
#: with no Python-level hash) and by the length of its column spinor
_LAYOUTS = {key: layout for layout in (
    # a0 + a1 e23 + a2 e31 + a3 e12 (masks 0, e23, e13, e12); canonical
    # storage uses e13 = -e31, hence the sign on a2.  Column
    # [a0 + i a3, -a2 + i a1]
    _layout(CL30, "cl30", (0, 6, 5, 3), (1, 1, -1, 1), (0, 2, 3, 1), (1, -1, 1, 1)),
    # a0 + a1 e23 - a2 e31 + a3 e12 - b0 I - b1 e14 + b2 e24 + b3 e34
    # (e31 = -e13 cancels the printed minus on a2).  Column
    # [a0 + i a3, -b3 + i b0, -b2 - i b1, -a1 + i a2]
    _layout(CL31, "cl31", (0, 6, 5, 3, 15, 9, 10, 12), (1, 1, 1, 1, -1, -1, 1, 1),
            (0, 7, 6, 1, 3, 4, 5, 2), (1, -1, -1, -1, 1, 1, -1, 1)),
) for key in (layout.tag, layout.sig, layout.sig._code, len(layout.masks) // 2)}


def _layout_of(key: str | Signature) -> _Layout:
    """The spinor layout of an algebra tag ('cl30', 'cl31') or signature."""
    try:
        return _LAYOUTS[key]
    except KeyError:
        raise ValueError(f"no spinor subspace defined for {key!r}") from None


def _check_leak(values: list[float], leak: float) -> None:
    """Raise if the leak, the largest coefficient outside the spinor
    subspace, exceeds TOL of the multivector's scale |mv|."""
    if leak == 0.0:
        return
    # |mv| by hypot, which cannot overflow where mv.norm() does; past the
    # largest float, a quarter of |mv| against a quarter of the leak (exact)
    scale, part = math.hypot(*values), leak
    if scale == math.inf:
        scale, part = math.hypot(*(v / 4.0 for v in values)), leak / 4.0
    if part > TOL * max(1.0, scale):
        raise ValueError(f"multivector leaves the spinor subspace (leak {leak:.2e})")


class Spinor:
    """GA spinor: a multivector confined to the algebra's spinor subspace."""

    __slots__ = ("algebra", "mv")

    def __init__(self, mv: Multivector) -> None:
        # an equal signature that is not CL30 or CL31 itself has its own code
        layout = _LAYOUTS.get(mv.sig._code) or _layout_of(mv.sig)
        self.algebra = layout.tag
        # only blades of its support outside the subspace can leak
        spill, c = mv._support & ~layout.inside, mv._c
        if spill:
            _check_leak(c, max(abs(c[m]) for m in _bits(spill)))
        self.mv = mv._project(layout.inside)

    # ---- coefficient views --------------------------------------------
    @classmethod
    def from_coeff_vector(cls, algebra: str, vec) -> "Spinor":
        layout = _layout_of(algebra)
        vec = _floats(vec)
        if vec is None or len(vec) != len(layout.signs):
            raise ValueError(f"{algebra} spinor needs {len(layout.signs)} real coefficients")
        c = [0.0] * layout.sig.dim
        for m, sign, x in zip(layout.masks, layout.signs, vec):
            c[m] = sign * x
        return cls(Multivector(layout.sig, c))

    def coeff_vector(self) -> tuple[float, ...]:
        """Real coefficients (a0..a3) or (a0..a3, b0..b3), as floats."""
        layout, c = _LAYOUTS[self.algebra], self.mv._c
        return tuple(sign * c[m] for m, sign in zip(layout.masks, layout.signs))

    def __repr__(self) -> str:
        return f"Spinor[{self.algebra}]({self.mv})"


# ---- column maps ------------------------------------------------------


def column_to_spinor(col) -> Spinor:
    """Complex column spinor -> GA spinor: two entries give a Cl(3,0)
    spinor, four a Cl(3,1) one."""
    # complex() parses a string's characters and reads a one-entry array row,
    # so a string and a 2-D array are refused before it sees them
    try:
        col = ([] if isinstance(col, (str, bytes)) or len(getattr(col, "shape", ())) > 1
               else [complex(x) for x in col])
    except TypeError:
        col = []
    layout = _LAYOUTS.get(len(col))
    if layout is None:
        raise ValueError("a column spinor is a sequence of 2 or 4 complex entries")
    parts = [x.real for x in col] + [x.imag for x in col]
    vec = [0.0] * len(parts)
    for j, sign, x in zip(layout.col_order, layout.col_signs, parts):
        vec[j] = sign * x
    return Spinor.from_coeff_vector(layout.tag, vec)


def spinor_to_column(psi: Spinor) -> tuple[complex, ...]:
    """GA spinor -> complex column; inverse of ``column_to_spinor``."""
    layout = _LAYOUTS[psi.algebra]
    c = psi.coeff_vector()
    parts = [sign * c[j] for j, sign in zip(layout.col_order, layout.col_signs)]
    n = len(parts) // 2
    return tuple(a + 1j * b for a, b in zip(parts[:n], parts[n:]))


# ---- matrix representations ------------------------------------------

def _complex_rows(rows) -> tuple[tuple[complex, ...], ...]:
    """A matrix of numbers as a tuple of rows of Python complex numbers."""
    return tuple(tuple(map(complex, row)) for row in rows)


_SIGMA = {1: _complex_rows(((0, 1), (1, 0))),
          2: _complex_rows(((0, -1j), (1j, 0))),
          3: _complex_rows(((1, 0), (0, -1)))}

#: the Cl(3,1) generators in 2x2 blocks: e1 = [[0, 1], [1, 0]],
#: e2 = i [[0, -1], [1, 0]], e3 = [[s2, 0], [0, -s2]], e4 = i [[s3, 0], [0, -s3]]
_GAMMA = tuple(map(_complex_rows, (
    ((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0)),
    ((0, 0, -1j, 0), (0, 0, 0, -1j), (1j, 0, 0, 0), (0, 1j, 0, 0)),
    ((0, -1j, 0, 0), (1j, 0, 0, 0), (0, 0, 0, 1j), (0, 0, -1j, 0)),
    ((1j, 0, 0, 0), (0, -1j, 0, 0), (0, 0, -1j, 0), (0, 0, 0, 1j)),
)))


def pauli_matrix(i: int) -> tuple[tuple[complex, ...], ...]:
    """Pauli matrix sigma_i as a 2x2 tuple of complex rows."""
    if i not in _SIGMA:
        raise ValueError("Pauli index must be 1, 2 or 3")
    return _SIGMA[i]


def cl31_matrix_rep(mask: int) -> tuple[tuple[complex, ...], ...]:
    """4x4 complex representation of a Cl(3,1) basis blade, a tuple of
    rows; composite blades are products of the generator matrices in
    ascending index order."""
    if not 0 <= mask < CL31.dim:
        raise ValueError(f"blade mask {mask} out of range for Cl(3,1)")
    out = _complex_rows([[i == j for j in range(4)] for i in range(4)])
    for i in blade_indices(mask):
        cols = tuple(zip(*_GAMMA[i - 1]))
        out = tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in out)
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
