"""Dense multivector arithmetic for small Clifford algebras Cl(p,q).

Basis blades are encoded as bitmasks: bit i set means the basis vector
``e_{i+1}`` is a factor of the blade, with factors kept in ascending index
order.  Coefficients are stored densely (2^n reals, indexed by mask), which
beats sparse maps for the n <= 4 algebras used in practice.

A product sums all 4^n signed coefficient pairs with one ``bincount``, but
a geometric product with a signed blade +-e_m (marked when built by ``blade``,
``basis_vector``, ``pseudoscalar``, negation or a product of such) gathers
x[k ^ m] times a sign row (Dorst, Fontijne & Mann, ch. 19): the same bits.

Inside the package a multivector may also hold a stack of n multivectors,
coefficients of shape (n, 2^n), built with ``Multivector._wrap``.  Products
(``*``, ``^``, ``|``), ``+``, ``-``, scalar ``*`` and ``/``, ``grade`` and
``spatial_parts`` take a stack, in one numpy call per product, and give row i
the bits of the same operation on row i alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

__all__ = [
    "Signature",
    "Multivector",
    "CL30",
    "CL31",
    "blade_grade",
    "blade_indices",
    "blade_str",
    "pseudoscalar",
    "spatial_inversion",
    "spatial_parts",
    "dagger",
    "canonical_order",
]

#: default comparison tolerance for unit-magnitude quantities
TOL = 1e-12

#: zeros, cut to each algebra's dim: a dot with them is 0 for finite
#: coefficients and NaN otherwise, and raises no float flag on finite ones
_ZERO = np.zeros(256)
_ZERO.flags.writeable = False


@dataclass(frozen=True)
class Signature:
    """Metric signature (p, q): p basis vectors square to +1, q to -1."""

    p: int
    q: int = 0

    def __post_init__(self) -> None:
        if self.p < 0 or self.q < 0 or not (1 <= self.p + self.q <= 8):
            raise ValueError(f"unsupported signature ({self.p}, {self.q})")

    @cached_property
    def n(self) -> int:
        return self.p + self.q

    @cached_property
    def dim(self) -> int:
        return 1 << self.n

    @cached_property
    def tables(self) -> dict:
        """Product tables, flattened over mask pairs, and blade index arrays."""
        p, q, n, dim = self.p, self.q, self.n, self.dim
        grades = np.array([blade_grade(m) for m in range(dim)], dtype=np.int64)

        # e_a e_b = +-e_{a^b}: sorting a's factors then b's, each factor of b
        # passes each greater factor of a, and each shared factor squaring to
        # -1 flips once more; grades counts the bits (Dorst, Fontijne & Mann,
        # ch. 19)
        a = np.arange(dim, dtype=np.int64)[:, None]
        b = np.arange(dim, dtype=np.int64)
        res = a ^ b
        flips = grades[(a & b) >> p] + sum(grades[(a >> s) & b] for s in range(1, n))
        sign = np.where(flips % 2 == 1, -1.0, 1.0)

        # outer product keeps only terms without contracted factors
        outer_sign = np.where((a & b) == 0, sign, 0.0)

        # inner product: grade |r-s| part for homogeneous r,s > 0; scalar
        # arguments act by plain scalar multiplication
        ga = grades[:, None]
        gb = grades[None, :]
        gres = grades[res]
        keep = (ga == 0) | (gb == 0) | (gres == np.abs(ga - gb))
        inner_sign = np.where(keep, sign, 0.0)

        rev_sign = np.where(grades * (grades - 1) // 2 % 2 == 1, -1.0, 1.0)
        tables = {
            "grades": grades,
            "grade_masks": grades == np.arange(n + 1)[:, None],  # row k: grade k
            "odd": np.flatnonzero(grades % 2 == 1),
            "not_vector": np.flatnonzero(grades != 1),
            "res": res.ravel(),
            "gp_sign": sign.ravel(),
            "outer_sign": outer_sign.ravel(),
            "inner_sign": inner_sign.ravel(),
            # e_m x and x e_m put sign[m, j ^ m] x[j ^ m] and sign[j ^ m, m]
            # x[j ^ m] at j: row m of each, with j ^ m row m of res
            "blade_left": np.take_along_axis(sign, res, axis=1),
            "blade_right": np.take_along_axis(sign.T, res, axis=1),
            "square_sign": sign.diagonal().copy(),  # e_m e_m
            "rev_sign": rev_sign,
            "order": np.lexsort((b, grades)),  # by grade, then by mask
        }
        # spatial inversion flips each spatial factor (indices 1..3 of Cl(3,1))
        if (p, q) == (3, 1):
            spatial = grades[b & 0b0111]
            tables["inv_sign"] = np.where(spatial % 2 == 1, -1.0, 1.0)
            # rows: 1 on the blades that inversion keeps, 1 on those it flips
            tables["inv_parts"] = np.array([spatial % 2 == 0, spatial % 2 == 1], dtype=float)
        for table in tables.values():
            table.flags.writeable = False  # shared by every multivector
        return tables

    def metric_sign(self, i: int) -> int:
        """Square of basis vector e_{i+1} (+1 or -1)."""
        if not 0 <= i < self.n:
            raise ValueError(f"basis index {i} out of range for n={self.n}")
        return 1 if i < self.p else -1


def blade_grade(mask: int) -> int:
    """Grade of a basis blade = number of vector factors."""
    return bin(mask).count("1")


def blade_indices(mask: int) -> list[int]:
    """1-based vector indices of a blade mask, ascending."""
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


def blade_str(mask: int) -> str:
    """Canonical name of a basis blade: '' for the scalar, else e.g. 'e134'."""
    if mask == 0:
        return ""
    return "e" + "".join(str(i) for i in blade_indices(mask))


class _Blade(NamedTuple):
    """Signed blade +-e_m: gather j ^ m, sign rows of e_m x and x e_m."""

    mask: int
    gather: np.ndarray
    on_left: np.ndarray
    on_right: np.ndarray


class Multivector:
    """Immutable-by-convention element of Cl(p,q) with dense coefficients.

    Supports ``+``, ``-``, scalar ``*``/``/``, geometric product ``*``,
    outer product ``^``, inner product ``|`` and reversion ``~``.
    """

    __slots__ = ("sig", "coeffs", "_blade")

    def __init__(self, sig: Signature, coeffs) -> None:
        coeffs = np.asarray(coeffs, dtype=np.float64)
        if coeffs.shape != (sig.dim,):
            raise ValueError(f"expected {sig.dim} coefficients, got {coeffs.shape}")
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_blade", None)

    @classmethod
    def _wrap(cls, sig: Signature, coeffs: np.ndarray, blade=None) -> "Multivector":
        """Internal constructor for float64 coefficients of shape (dim,), or
        (n, dim) for a stack, that the caller has already produced; skips
        ``__init__``'s checks.  A stack carries no blade mark."""
        mv = object.__new__(cls)
        mv.sig = sig
        mv.coeffs = coeffs
        mv._blade = blade
        return mv

    # ---- constructors -------------------------------------------------
    @classmethod
    def zero(cls, sig: Signature) -> "Multivector":
        return cls(sig, np.zeros(sig.dim))

    @classmethod
    def scalar(cls, sig: Signature, value: float) -> "Multivector":
        c = np.zeros(sig.dim)
        c[0] = value
        return cls(sig, c)

    @classmethod
    def blade(cls, sig: Signature, mask: int) -> "Multivector":
        if not 0 <= mask < sig.dim:
            raise ValueError(f"blade mask {mask} out of range")
        c = np.zeros(sig.dim)
        c[mask] = 1.0
        return _signed_blade(sig, c, mask)

    @classmethod
    def basis_vector(cls, sig: Signature, i: int) -> "Multivector":
        """Basis vector e_i, 1-based index."""
        if not 1 <= i <= sig.n:
            raise ValueError(f"basis vector index {i} out of range")
        return cls.blade(sig, 1 << (i - 1))

    @classmethod
    def vector(cls, sig: Signature, coords) -> "Multivector":
        """Grade-1 element from a coordinate sequence (padded with zeros)."""
        if len(coords) > sig.n:
            raise ValueError(f"{len(coords)} vector coordinates out of range for n={sig.n}")
        c = np.zeros(sig.dim)
        for i, x in enumerate(coords):
            c[1 << i] = x
        return cls(sig, c)

    # ---- helpers ------------------------------------------------------
    def _check_sig(self, other: "Multivector") -> None:
        if self.sig != other.sig:
            raise ValueError(f"signature mismatch: {self.sig} vs {other.sig}")

    def _product(self, other: "Multivector", sign_key: str) -> "Multivector":
        sig = self.sig
        if other.sig is not sig:
            self._check_sig(other)
        if self.coeffs.ndim + other.coeffs.ndim > 2:
            return _stacked_product(self, other, sign_key)
        left, right = self._blade, other._blade
        if sign_key == "gp_sign" and (left or right):
            # a signed permutation; + 0.0 as in the dense sum, which starts
            # at +0.0 and so never returns -0.0
            if right:
                out = self.coeffs[right.gather] * right.on_right + 0.0
            else:
                out = other.coeffs[left.gather] * left.on_left + 0.0
            # the dense sum's inf * 0 terms put NaN where the gather has none;
            # 0 times each coefficient sums to 0 unless one is NaN or inf
            if out.dot(_ZERO[:sig.dim]) == 0.0:
                if left and right:
                    return _signed_blade(sig, out, left.mask ^ right.mask)
                return Multivector._wrap(sig, out)
        t = sig.tables
        # a[:, None] * b is np.outer's own computation, so the bits match
        w = t[sign_key] * (self.coeffs[:, None] * other.coeffs).ravel()
        out = np.bincount(t["res"], weights=w, minlength=sig.dim)
        return Multivector._wrap(sig, out)

    # ---- arithmetic ---------------------------------------------------
    def __add__(self, other):
        if isinstance(other, Multivector):
            if other.sig is not self.sig:
                self._check_sig(other)
            return Multivector._wrap(self.sig, self.coeffs + other.coeffs)
        # Multivector.scalar's coefficients, without building the Multivector
        c = np.zeros(self.sig.dim)
        c[0] = other
        return Multivector._wrap(self.sig, self.coeffs + c)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, Multivector) else -float(other))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        if self._blade:
            return _signed_blade(self.sig, -self.coeffs, self._blade.mask)
        return Multivector._wrap(self.sig, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, Multivector):
            return self._product(other, "gp_sign")
        return Multivector._wrap(self.sig, self.coeffs * float(other))

    def __rmul__(self, other):
        return Multivector._wrap(self.sig, self.coeffs * float(other))

    def __truediv__(self, other):
        return Multivector._wrap(self.sig, self.coeffs / float(other))

    def __xor__(self, other):
        return self._product(other, "outer_sign")

    def __or__(self, other):
        return self._product(other, "inner_sign")

    def __invert__(self):
        return Multivector._wrap(self.sig, self.coeffs * self.sig.tables["rev_sign"])

    # ---- queries ------------------------------------------------------
    def scalar_part(self) -> float:
        return float(self.coeffs[0])

    def grade(self, k: int) -> "Multivector":
        if not 0 <= k <= self.sig.n:
            raise ValueError(f"grade {k} out of range for n={self.sig.n}")
        mask = self.sig.tables["grade_masks"][k]
        return Multivector._wrap(self.sig, np.where(mask, self.coeffs, 0.0))

    def grades_present(self, tol: float = 0.0) -> set[int]:
        return set(self.sig.tables["grades"][np.abs(self.coeffs) > tol].tolist())

    def norm(self) -> float:
        """Euclidean norm of the coefficient vector."""
        return float(np.sqrt(np.dot(self.coeffs, self.coeffs)))

    def is_even(self) -> bool:
        return bool((np.abs(self.coeffs[self.sig.tables["odd"]]) <= TOL).all())

    def vector_coords(self) -> np.ndarray:
        """Coordinates of the grade-1 part."""
        return self.coeffs[self.sig.tables["grade_masks"][1]]

    def approx_eq(self, other: "Multivector", tol: float = TOL) -> bool:
        self._check_sig(other)
        return bool(np.all(np.abs(self.coeffs - other.coeffs) <= tol))

    def __eq__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.sig == other.sig and bool(np.array_equal(self.coeffs, other.coeffs))

    # ---- serialization ------------------------------------------------
    def __repr__(self) -> str:
        return f"Multivector({self.sig.p},{self.sig.q}; {self})"

    def __str__(self) -> str:
        terms = []
        for mask in canonical_order(self.sig):
            c = self.coeffs[mask]
            if c == 0.0:
                continue
            mag = _fmt_float(abs(c))
            # "nan*e1", not "nane1"; finite coefficients abut their blade
            sep = "" if np.isfinite(c) else "*"
            body = mag + sep + blade_str(mask) if mask else mag
            if not terms:
                terms.append(("-" if c < 0 else "") + body)
            else:
                terms.append(("- " if c < 0 else "+ ") + body)
        return " ".join(terms) if terms else "0"


def _signed_blade(sig: Signature, coeffs: np.ndarray, mask: int) -> Multivector:
    """The multivector coeffs = +-e_mask, marked as that signed blade."""
    t, dim = sig.tables, sig.dim
    scale = coeffs[mask]
    return Multivector._wrap(sig, coeffs, _Blade(
        mask, t["res"][mask * dim:(mask + 1) * dim],
        scale * t["blade_left"][mask], scale * t["blade_right"][mask]))


def _stacked_product(a: Multivector, b: Multivector, sign_key: str) -> Multivector:
    """``_product`` where a or b is a stack: the same gather or dense sum,
    one numpy call over every row instead of one per row."""
    sig, left, right = a.sig, a._blade, b._blade
    if sign_key == "gp_sign" and (left or right):
        # a blade is a single multivector, so the other factor is the stack;
        # take(axis=1) gathers the same values as [:, gather], in a third
        # of the time
        if right:
            out = a.coeffs.take(right.gather, axis=1) * right.on_right + 0.0
        else:
            out = b.coeffs.take(left.gather, axis=1) * left.on_left + 0.0
        # one non-finite row sends the whole stack to the dense sum, which
        # keeps that row's NaN bits; on a finite row the gather equals it
        if out.ravel().dot(np.zeros(out.size)) == 0.0:
            return Multivector._wrap(sig, out)
    dim = sig.dim
    w = sig.tables[sign_key] * (a.coeffs[..., :, None] * b.coeffs[..., None, :]).reshape(
        -1, dim * dim)
    rows = len(w)
    out = np.bincount(_stacked_res(sig, rows), weights=w.ravel(), minlength=rows * dim)
    return Multivector._wrap(sig, out.reshape(rows, dim))


@cache
def _stacked_res(sig: Signature, rows: int) -> np.ndarray:
    """The product's target blades, offset by dim * i on row i: bincount then
    sums each row's terms in their own bins, in the order of one product."""
    res = (sig.tables["res"] + sig.dim * np.arange(rows)[:, None]).ravel()
    res.flags.writeable = False
    return res


def _fmt_float(x: float) -> str:
    x = float(x)
    if x.is_integer() and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def canonical_order(sig: Signature) -> list[int]:
    """Blade masks sorted by (grade, mask); the stable file/CLI order."""
    return sig.tables["order"].tolist()


# ---- module-level operations -----------------------------------------


def pseudoscalar(sig: Signature) -> Multivector:
    return Multivector.blade(sig, sig.dim - 1)


def spatial_inversion(m: Multivector) -> Multivector:
    """Flip all spatial basis vectors, leaving e4 fixed (Cl(3,1) only)."""
    inv_sign = m.sig.tables.get("inv_sign")
    if inv_sign is None:
        raise ValueError("spatial inversion requires signature (3, 1)")
    return Multivector._wrap(m.sig, m.coeffs * inv_sign)


def spatial_parts(m: Multivector) -> tuple[Multivector, Multivector]:
    """The parts (m + mbar)/2 and (m - mbar)/2 that spatial inversion mbar
    keeps and flips, taken blade by blade so neither overflows (Cl(3,1) only)."""
    inv_parts = m.sig.tables.get("inv_parts")
    if inv_parts is None:
        raise ValueError("spatial inversion requires signature (3, 1)")
    # a stack multiplies each row by both parts: shape (2, n, dim)
    even, odd = m.coeffs * (inv_parts if m.coeffs.ndim == 1 else inv_parts[:, None])
    return Multivector._wrap(m.sig, even), Multivector._wrap(m.sig, odd)


def dagger(m: Multivector) -> Multivector:
    """Combined reversion and spatial inversion (Cl(3,1) only)."""
    return spatial_inversion(~m)


CL30 = Signature(3, 0)
CL31 = Signature(3, 1)
