"""Dense multivector arithmetic for small Clifford algebras Cl(p,q).

Basis blades are encoded as bitmasks: bit i set means the basis vector
``e_{i+1}`` is a factor of the blade, with factors kept in ascending index
order.  Coefficients are stored densely (2^n reals, indexed by mask), which
beats sparse maps for the n <= 4 algebras used in practice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "Signature",
    "Multivector",
    "CL30",
    "CL31",
    "blade_grade",
    "blade_indices",
    "blade_str",
    "geometric_product",
    "outer_product",
    "inner_product",
    "reverse",
    "grade_project",
    "pseudoscalar",
    "spatial_inversion",
    "dagger",
    "versor_inverse",
    "canonical_order",
]

#: default comparison tolerance for unit-magnitude quantities
TOL = 1e-12

#: relative threshold below which a versor norm counts as degenerate
VERSOR_NORM_EPS = 1e-14


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


def _reorder_sign(a: int, b: int) -> int:
    """Sign from sorting the factors of blade a followed by blade b."""
    a >>= 1
    swaps = 0
    while a:
        swaps += bin(a & b).count("1")
        a >>= 1
    return -1 if swaps & 1 else 1


@lru_cache(maxsize=None)
def _tables(p: int, q: int):
    """Precomputed product tables for Cl(p,q), flattened over mask pairs."""
    n = p + q
    dim = 1 << n
    grades = np.array([blade_grade(m) for m in range(dim)], dtype=np.int64)

    res = np.empty((dim, dim), dtype=np.int64)
    sign = np.empty((dim, dim), dtype=np.float64)
    for a in range(dim):
        for b in range(dim):
            s = _reorder_sign(a, b)
            common = a & b
            for i in range(n):
                if common >> i & 1 and i >= p:
                    s = -s
            res[a, b] = a ^ b
            sign[a, b] = s

    # outer product keeps only terms without contracted factors
    outer_sign = np.where((np.arange(dim)[:, None] & np.arange(dim)[None, :]) == 0,
                          sign, 0.0)

    # inner product: grade |r-s| part for homogeneous r,s > 0; scalar
    # arguments act by plain scalar multiplication
    ga = grades[:, None]
    gb = grades[None, :]
    gres = grades[res]
    keep = (ga == 0) | (gb == 0) | (gres == np.abs(ga - gb))
    inner_sign = np.where(keep, sign, 0.0)

    rev_sign = np.where(grades * (grades - 1) // 2 % 2 == 1, -1.0, 1.0)
    # spatial inversion flips each spatial factor (indices 1..3 of Cl(3,1))
    if (p, q) == (3, 1):
        spatial = np.array([blade_grade(m & 0b0111) for m in range(dim)])
        inv_sign = np.where(spatial % 2 == 1, -1.0, 1.0)
    else:
        inv_sign = None

    order = sorted(range(dim), key=lambda m: (blade_grade(m), m))
    return {
        "grades": grades,
        "res": res.ravel(),
        "gp_sign": sign.ravel(),
        "outer_sign": outer_sign.ravel(),
        "inner_sign": inner_sign.ravel(),
        "rev_sign": rev_sign,
        "inv_sign": inv_sign,
        "order": np.array(order, dtype=np.int64),
    }


class Multivector:
    """Immutable-by-convention element of Cl(p,q) with dense coefficients.

    Supports ``+``, ``-``, scalar ``*``/``/``, geometric product ``*``,
    outer product ``^``, inner product ``|`` and reversion ``~``.
    """

    __slots__ = ("sig", "coeffs")

    def __init__(self, sig: Signature, coeffs) -> None:
        coeffs = np.asarray(coeffs, dtype=np.float64)
        if coeffs.shape != (sig.dim,):
            raise ValueError(f"expected {sig.dim} coefficients, got {coeffs.shape}")
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def _wrap(cls, sig: Signature, coeffs: np.ndarray) -> "Multivector":
        """Internal constructor for float64 coefficients of shape (dim,)
        that the caller has already produced; skips ``__init__``'s checks."""
        mv = object.__new__(cls)
        mv.sig = sig
        mv.coeffs = coeffs
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
        return cls(sig, c)

    @classmethod
    def basis_vector(cls, sig: Signature, i: int) -> "Multivector":
        """Basis vector e_i, 1-based index."""
        if not 1 <= i <= sig.n:
            raise ValueError(f"basis vector index {i} out of range")
        return cls.blade(sig, 1 << (i - 1))

    @classmethod
    def vector(cls, sig: Signature, coords) -> "Multivector":
        """Grade-1 element from a coordinate sequence (padded with zeros)."""
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
        t = _tables(sig.p, sig.q)
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
        return Multivector._wrap(self.sig, self.coeffs + Multivector.scalar(self.sig, other).coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, Multivector) else -float(other))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
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
        t = _tables(self.sig.p, self.sig.q)
        return Multivector._wrap(self.sig, self.coeffs * t["rev_sign"])

    # ---- queries ------------------------------------------------------
    def scalar_part(self) -> float:
        return float(self.coeffs[0])

    def grade(self, k: int) -> "Multivector":
        if not 0 <= k <= self.sig.n:
            raise ValueError(f"grade {k} out of range for n={self.sig.n}")
        t = _tables(self.sig.p, self.sig.q)
        return Multivector._wrap(self.sig, np.where(t["grades"] == k, self.coeffs, 0.0))

    def grades_present(self, tol: float = 0.0) -> set[int]:
        t = _tables(self.sig.p, self.sig.q)
        return {int(g) for g, c in zip(t["grades"], self.coeffs) if abs(c) > tol}

    def norm(self) -> float:
        """Euclidean norm of the coefficient vector."""
        return float(np.sqrt(np.dot(self.coeffs, self.coeffs)))

    def is_even(self) -> bool:
        t = _tables(self.sig.p, self.sig.q)
        return bool(np.all(np.abs(self.coeffs[t["grades"] % 2 == 1]) <= TOL))

    def vector_coords(self) -> np.ndarray:
        """Coordinates of the grade-1 part."""
        return np.array([self.coeffs[1 << i] for i in range(self.sig.n)])

    def approx_eq(self, other: "Multivector", tol: float = TOL) -> bool:
        self._check_sig(other)
        return bool(np.all(np.abs(self.coeffs - other.coeffs) <= tol))

    def __eq__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.sig == other.sig and bool(np.array_equal(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash((self.sig, self.coeffs.tobytes()))

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

    def to_json_dict(self) -> dict:
        order = canonical_order(self.sig)
        return {
            "signature": [self.sig.p, self.sig.q],
            "coeffs": [float(self.coeffs[m]) for m in order],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "Multivector":
        sig = Signature(int(d["signature"][0]), int(d["signature"][1]))
        order = canonical_order(sig)
        vals = d["coeffs"]
        if len(vals) != sig.dim:
            raise ValueError("coefficient count does not match signature")
        c = np.zeros(sig.dim)
        for m, v in zip(order, vals):
            c[m] = float(v)
        return cls(sig, c)


def _fmt_float(x: float) -> str:
    x = float(x)
    if x.is_integer() and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def canonical_order(sig: Signature) -> list[int]:
    """Blade masks sorted by (grade, mask); the stable file/CLI order."""
    return [int(m) for m in _tables(sig.p, sig.q)["order"]]


# ---- module-level operations -----------------------------------------


def geometric_product(a: Multivector, b: Multivector) -> Multivector:
    return a * b


def outer_product(a: Multivector, b: Multivector) -> Multivector:
    return a ^ b


def inner_product(a: Multivector, b: Multivector) -> Multivector:
    return a | b


def reverse(m: Multivector) -> Multivector:
    return ~m


def grade_project(m: Multivector, k: int) -> Multivector:
    return m.grade(k)


def pseudoscalar(sig: Signature) -> Multivector:
    return Multivector.blade(sig, sig.dim - 1)


def spatial_inversion(m: Multivector) -> Multivector:
    """Flip all spatial basis vectors, leaving e4 fixed (Cl(3,1) only)."""
    t = _tables(m.sig.p, m.sig.q)
    if t["inv_sign"] is None:
        raise ValueError("spatial inversion requires signature (3, 1)")
    return Multivector._wrap(m.sig, m.coeffs * t["inv_sign"])


def dagger(m: Multivector) -> Multivector:
    """Combined reversion and spatial inversion (Cl(3,1) only)."""
    return spatial_inversion(~m)


def versor_inverse(v: Multivector) -> Multivector:
    """Inverse of a versor via its reverse; rejects null or non-versor input."""
    vt = ~v
    n = v * vt
    n0 = n.scalar_part()
    scale = max(v.norm() ** 2, 1.0)
    nonscalar = (n - Multivector.scalar(v.sig, n0)).norm()
    if nonscalar > TOL * max(abs(n0), 1.0):
        raise ValueError("input is not a versor: V*reverse(V) is not scalar")
    if abs(n0) < VERSOR_NORM_EPS * scale:
        raise ValueError("degenerate (null) versor has no inverse")
    return vt / n0


CL30 = Signature(3, 0)
CL31 = Signature(3, 1)
