"""Multivector arithmetic for small Clifford algebras Cl(p,q).

Basis blades are encoded as bitmasks: bit i set means the basis vector
``e_{i+1}`` is a factor of the blade, with factors kept in ascending index
order.  A multivector has 2^n coefficients, indexed by mask.

A multivector holds them as a tuple of finite Python floats, with its
support: an int whose bit m is set where blade m may be nonzero, a superset
of the nonzero blades that each step carries statically (a product's is its
kernel's, ``+`` takes the union, ``grade``, ``spatial_parts`` and ``Spinor``
intersect).  Each product runs a straight-line kernel, generated at first
use per signature, kind and pair of supports (Fontijne, *Efficient
Implementation of Geometric Algebra*, 2007).  It sums each target blade's
terms from 0.0 in the order of the dense sum over all 4^n signed
coefficient pairs (ascending i, j = i ^ k), so the bits are the dense sum's:
the terms it drops hold a zero coefficient, and a sum that starts at +0.0
does not change by adding +-0.  A ``Stage`` runs a stretch of such steps
as one generated float function with the same bits (``codegen``).

The constructor refuses NaN and +-inf with ValueError.  A step whose result
has a coefficient that is not finite, which with finite operands is an
overflow, raises OverflowError; a division by 0.0 raises ZeroDivisionError.
Every step and query reads the tuple alone, so no result depends on the
platform's BLAS.  The tables are tuples of Python ints and floats, so the
module loads no numpy; only ``coeffs`` and ``vector_coords``, which return
numpy arrays, import it.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

__all__ = [
    "Signature",
    "Multivector",
    "CL30",
    "CL31",
    "blade_indices",
    "pseudoscalar",
    "spatial_parts",
]

#: default comparison tolerance for unit-magnitude quantities
TOL = 1e-12

#: generated product kernels (and projections) kept per
#: signature, and generated functions per ``Stage``; past this many, the
#: oldest is dropped, and generated again if it is needed again
KERNEL_CACHE_SIZE = 256

_NOT_FINITE = "a multivector coefficient is not finite"

#: the calls per support pattern that run a ``Stage``'s body on multivectors
#: before its function is generated: more than one solve makes, so that a
#: one-point command generates none
STAGE_RUNS = 8


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
        """Product tables, flattened over mask pairs, and blade index tuples."""
        p, n, dim = self.p, self.n, self.dim
        grades = tuple(bin(m).count("1") for m in range(dim))

        # e_a e_b = +-e_{a^b}: sorting a's factors then b's, each factor of b
        # passes each greater factor of a, and each shared factor squaring to
        # -1 flips once more; grades counts the bits (Dorst, Fontijne & Mann,
        # ch. 19)
        pairs = [(a, b) for a in range(dim) for b in range(dim)]
        flips = (grades[(a & b) >> p] + sum(grades[(a >> s) & b] for s in range(1, n))
                 for a, b in pairs)
        sign = tuple(-1.0 if f % 2 else 1.0 for f in flips)
        # the inner product keeps the grade |r-s| part for homogeneous r,s > 0;
        # scalar arguments act by plain scalar multiplication
        inner = (not grades[a] or not grades[b] or grades[a ^ b] == abs(grades[a] - grades[b])
                 for a, b in pairs)
        tables = {
            "grades": grades,
            # grade k's blades, as a support
            "grade_supports": tuple(sum(1 << m for m in range(dim) if grades[m] == k)
                                    for k in range(n + 1)),
            "odd": tuple(m for m in range(dim) if grades[m] % 2),
            "gp_sign": sign,
            # the outer product keeps only terms without contracted factors
            "outer_sign": tuple(s if not a & b else 0.0 for s, (a, b) in zip(sign, pairs)),
            "inner_sign": tuple(s if keep else 0.0 for s, keep in zip(sign, inner)),
            "square_sign": sign[::dim + 1],  # e_m e_m
            "rev_sign": tuple(-1.0 if g * (g - 1) // 2 % 2 else 1.0 for g in grades),
            # by grade, then by mask: str's order
            "order": tuple(sorted(range(dim), key=lambda m: (grades[m], m))),
        }
        # rows: 1.0 on the blades that spatial inversion (indices 1..3 of
        # Cl(3,1) flipped) keeps, 1.0 on those it flips
        if (self.p, self.q) == (3, 1):
            tables["inv_parts"] = tuple(tuple(float(grades[m & 0b0111] % 2 == odd)
                                              for m in range(dim)) for odd in (0, 1))
        return tables

    @cached_property
    def _code(self) -> "_Code":
        """The generated float code of its multivectors (see ``algebra``)."""
        return _Code(self)

    def metric_sign(self, i: int) -> int:
        """Square of basis vector e_{i+1} (+1 or -1)."""
        if not 0 <= i < self.n:
            raise ValueError(f"basis index {i} out of range for n={self.n}")
        return 1 if i < self.p else -1


def blade_indices(mask: int) -> list[int]:
    """1-based vector indices of a blade mask, ascending."""
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


def _floats(values) -> tuple | None:
    """A flat sequence of reals (a 1-D array too) as a tuple of floats, else None."""
    # a bare number, or a sequence of sequences, raises TypeError; a string
    # is a sequence of digits, and an array's shape, read without numpy,
    # refuses a 2-D one
    with suppress(TypeError):
        if not isinstance(values, (str, bytes)) and len(getattr(values, "shape", ())) < 2:
            return tuple(map(float, values))
    return None


@lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _bits(support: int) -> tuple[int, ...]:
    """The blade masks whose bits are set in a support, ascending."""
    return tuple(m for m in range(support.bit_length()) if support >> m & 1)


def _compile(dim: int, params: str, exprs: list[str]):
    """A function of params returning the tuple of exprs, in which ai (and
    bi) name coefficient i of the tuple a (and b)."""
    unpack = "".join(f"    {', '.join(f'{x}{i}' for i in range(dim))}, = {x}\n"
                     for x in ("a", "b") if x in params.split(", "))
    src = f"def f({params}):\n{unpack}    return ({', '.join(exprs)},)\n"
    namespace: dict = {}
    exec(compile(src, "<rotoreig generated>", "exec"), namespace)
    return namespace["f"]


class _Code:
    """One signature's straight-line float code, each function generated at
    first use: the elementwise steps, and the projections and product
    kernels, keyed by the supports they were made for."""

    def __init__(self, sig: Signature) -> None:
        t = self.tables = sig.tables
        self.dim, self.n, self.grades, self.odd = sig.dim, sig.n, t["grades"], t["odd"]
        self.grade_bits, self.square_sign = t["grade_supports"], t["square_sign"]
        self.projections: dict = {}
        self.kernels: dict = {}

    def _each(self, params: str, term) -> Callable:
        return _compile(self.dim, params, [term(i) for i in range(self.dim)])

    add = cached_property(lambda self: self._each("a, b", lambda i: f"a{i} + b{i}"))
    sub = cached_property(lambda self: self._each("a, b", lambda i: f"a{i} - b{i}"))
    # Multivector.scalar's zeros added as well, which fold -0.0
    add_scalar = cached_property(lambda self: self._each(
        "a, s", lambda i: f"a{i} + 0.0" if i else "a0 + s"))
    neg = cached_property(lambda self: self._each("a", lambda i: f"-a{i}"))
    scale = cached_property(lambda self: self._each("a, s", lambda i: f"a{i} * s"))
    div = cached_property(lambda self: self._each("a, s", lambda i: f"a{i} / s"))
    # x * -1.0 is -x, and x * 1.0 is x, signed zeros too
    rev = cached_property(lambda self: self._each(
        "a", lambda i: f"-a{i}" if self.tables["rev_sign"][i] < 0 else f"a{i}"))
    vector = cached_property(lambda self: _compile(
        self.dim, "a", [f"a{1 << i}" for i in range(self.n)]))

    # spatial_parts' two halves with their supports: c times a row of
    # inv_parts, x * 1.0 = x and x * 0.0 = +-0.0
    spatial = cached_property(lambda self: [
        (self._each("a", lambda i: f"a{i}" if row[i] else f"a{i} * 0.0"),
         sum(1 << i for i, keep in enumerate(row) if keep))
        for row in self.tables["inv_parts"]])

    def projection(self, support: int):
        """c on the blades of support, 0.0 elsewhere."""
        projections = self.projections
        f = projections.get(support)
        if f is None:
            if len(projections) >= KERNEL_CACHE_SIZE:
                del projections[next(iter(projections))]
            f = projections[support] = _compile(
                self.dim, "a", [f"a{m}" if support >> m & 1 else "0.0" for m in range(self.dim)])
        return f

    def terms(self, sign_key: str, sa: int, sb: int) -> tuple[list, int]:
        """Per target blade k, the signed pairs (s, i, j) of the product a b of
        sign table sign_key for supports sa and sb, in the dense sum's order
        (ascending i, j = i ^ k); and the support of the result."""
        sign, dim = self.tables[sign_key], self.dim
        left, rows, support = _bits(sa), [], 0
        for k in range(dim):
            row = []
            for i in left:
                j = i ^ k
                if sb >> j & 1:
                    s = sign[i * dim + j]
                    row.append((s, i, j))
                    support |= (s != 0) << k
            rows.append(row)
        return rows, support

    def kernel(self, sign_key: str, sa: int, sb: int) -> tuple:
        """The product of ``terms``, with the support of its result.  Target
        k sums, from 0.0, sign * (a_i * b_j) for each of its terms: a term of
        sign 0 stays as 0.0 * (a_i * b_j), which is NaN, and so an
        OverflowError, where a_i * b_j overflows, as the dense sum is not
        finite there."""
        kernels = self.kernels
        if len(kernels) >= KERNEL_CACHE_SIZE:
            del kernels[next(iter(kernels))]
        rows, support = self.terms(sign_key, sa, sb)
        exprs = []
        for row in rows:
            expr = "0.0"
            for s, i, j in row:
                expr += (f" + a{i} * b{j}" if s > 0 else f" - a{i} * b{j}" if s < 0
                         else f" + 0.0 * (a{i} * b{j})")
            exprs.append(expr)
        entry = kernels[sign_key, sa, sb] = (_compile(self.dim, "a, b", exprs), support)
        return entry


class Multivector:
    """Immutable element of Cl(p,q).

    Supports ``+``, ``-``, scalar ``*``/``/``, geometric product ``*``,
    outer product ``^``, inner product ``|`` and reversion ``~``.
    """

    __slots__ = ("sig", "_c", "_support")

    def __init__(self, sig: Signature, coeffs) -> None:
        c = _floats(coeffs)
        if c is None or len(c) != sig.dim:
            raise ValueError(f"expected a sequence of {sig.dim} real coefficients")
        if not (math.isfinite(sum(c)) or all(map(math.isfinite, c))):
            raise ValueError("multivector coefficients must be finite")
        self.sig, self._c = sig, c
        self._support = sum(1 << m for m, x in enumerate(c) if x)

    @classmethod
    def _of(cls, sig: Signature, c: tuple, support: int) -> "Multivector":
        """Internal constructor for a tuple of dim finite floats, zero outside
        support; skips every check."""
        mv = object.__new__(cls)
        mv.sig = sig
        mv._c = c
        mv._support = support
        return mv

    @classmethod
    def _of_floats(cls, sig: Signature, c: tuple, support: int) -> "Multivector":
        """``_of`` for a tuple of dim floats, zero outside support, that may
        not be finite: OverflowError then.  A step tests ``sum(c)`` inline
        and calls this only where that sum is not finite."""
        if math.isfinite(sum(c)) or all(map(math.isfinite, c)):
            return cls._of(sig, c, support)
        raise OverflowError(_NOT_FINITE)

    @property
    def coeffs(self):
        """The coefficients as a new numpy float64 array."""
        import numpy as np

        return np.array(self._c)

    # ---- constructors -------------------------------------------------
    @classmethod
    def zero(cls, sig: Signature) -> "Multivector":
        return cls(sig, (0.0,) * sig.dim)

    @classmethod
    def scalar(cls, sig: Signature, value: float) -> "Multivector":
        return cls(sig, (value,) + (0.0,) * (sig.dim - 1))

    @classmethod
    def blade(cls, sig: Signature, mask: int) -> "Multivector":
        if not 0 <= mask < sig.dim:
            raise ValueError(f"blade mask {mask} out of range")
        return cls(sig, tuple(float(m == mask) for m in range(sig.dim)))

    @classmethod
    def basis_vector(cls, sig: Signature, i: int) -> "Multivector":
        """Basis vector e_i, 1-based index."""
        if not 1 <= i <= sig.n:
            raise ValueError(f"basis vector index {i} out of range")
        return cls.blade(sig, 1 << (i - 1))

    @classmethod
    def vector(cls, sig: Signature, coords) -> "Multivector":
        """Grade-1 element from a coordinate sequence (padded with zeros)."""
        coords = _floats(coords)
        if coords is None or len(coords) > sig.n:
            raise ValueError(f"expected a sequence of at most n={sig.n} real vector coordinates")
        c = [0.0] * sig.dim
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
        entry = sig._code.kernels.get((sign_key, self._support, other._support))
        if entry is None:
            entry = sig._code.kernel(sign_key, self._support, other._support)
        c = entry[0](self._c, other._c)
        # every step tests its result so, inline: a sum past the largest
        # float reads as not finite too, and _of_floats keeps its floats
        if math.isfinite(sum(c)):
            return Multivector._of(sig, c, entry[1])
        return Multivector._of_floats(sig, c, entry[1])

    # ---- arithmetic ---------------------------------------------------
    def __add__(self, other):
        sig = self.sig
        if isinstance(other, Multivector):
            if other.sig is not sig:
                self._check_sig(other)
            c, support = sig._code.add(self._c, other._c), self._support | other._support
        else:
            c, support = sig._code.add_scalar(self._c, float(other)), self._support | 1
        if math.isfinite(sum(c)):
            return Multivector._of(sig, c, support)
        return Multivector._of_floats(sig, c, support)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, Multivector):
            return self + -float(other)
        if other.sig is not self.sig:
            self._check_sig(other)
        # x - y is x + (-y), signed zeros too
        c, support = self.sig._code.sub(self._c, other._c), self._support | other._support
        if math.isfinite(sum(c)):
            return Multivector._of(self.sig, c, support)
        return Multivector._of_floats(self.sig, c, support)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return self._of(self.sig, self.sig._code.neg(self._c), self._support)

    def __mul__(self, other):
        if isinstance(other, Multivector):
            return self._product(other, "gp_sign")
        return self.__rmul__(other)

    def __rmul__(self, other):
        c = self.sig._code.scale(self._c, float(other))
        if math.isfinite(sum(c)):
            return Multivector._of(self.sig, c, self._support)
        return Multivector._of_floats(self.sig, c, self._support)

    def __truediv__(self, other):
        c = self.sig._code.div(self._c, float(other))  # ZeroDivisionError at 0.0
        if math.isfinite(sum(c)):
            return Multivector._of(self.sig, c, self._support)
        return Multivector._of_floats(self.sig, c, self._support)

    def __xor__(self, other):
        return self._product(other, "outer_sign")

    def __or__(self, other):
        return self._product(other, "inner_sign")

    def __invert__(self):
        return self._of(self.sig, self.sig._code.rev(self._c), self._support)

    # ---- queries ------------------------------------------------------
    def scalar_part(self) -> float:
        return self._c[0]

    def _project(self, support: int) -> "Multivector":
        """The coefficients on the blades of support, 0.0 elsewhere."""
        c = self.sig._code.projection(support)(self._c)
        return self._of(self.sig, c, self._support & support)

    def _without(self, mask: int) -> "Multivector":
        """This multivector with the coefficient of blade mask set to 0.0."""
        return self._project((1 << self.sig.dim) - 1 & ~(1 << mask))

    def grade(self, k: int) -> "Multivector":
        if not 0 <= k <= self.sig.n:
            raise ValueError(f"grade {k} out of range for n={self.sig.n}")
        return self._project(self.sig._code.grade_bits[k])

    def grades_present(self, tol: float = 0.0) -> set[int]:
        grades = self.sig._code.grades
        return {grades[m] for m, x in enumerate(self._c) if abs(x) > tol}

    def norm(self) -> float:
        """Euclidean norm of the coefficient vector: the squares summed from
        0.0 in blade order, the same bits on every platform."""
        total = 0.0
        for x in self._c:
            total += x * x
        return math.sqrt(total)

    def is_even(self) -> bool:
        c = self._c
        return all(abs(c[m]) <= TOL for m in self.sig._code.odd)

    def _vector(self) -> tuple:
        """The grade-1 coordinates as Python floats."""
        return self.sig._code.vector(self._c)

    def vector_coords(self):
        """Coordinates of the grade-1 part, as a new numpy float64 array."""
        import numpy as np

        return np.array(self.sig._code.vector(self._c))

    def approx_eq(self, other: "Multivector", tol: float = TOL) -> bool:
        self._check_sig(other)
        return all(abs(x - y) <= tol for x, y in zip(self._c, other._c))

    def __eq__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.sig == other.sig and self._c == other._c

    # ---- serialization ------------------------------------------------
    def __repr__(self) -> str:
        return f"Multivector({self.sig.p},{self.sig.q}; {self})"

    def __str__(self) -> str:
        terms = []
        for mask in self.sig.tables["order"]:
            c = self._c[mask]
            if c == 0.0:
                continue
            mag = _fmt_float(abs(c))
            body = mag + "e" + "".join(map(str, blade_indices(mask))) if mask else mag
            if not terms:
                terms.append(("-" if c < 0 else "") + body)
            else:
                terms.append(("- " if c < 0 else "+ ") + body)
        return " ".join(terms) if terms else "0"


def _fmt_float(x: float) -> str:
    x = float(x)
    if x.is_integer() and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


# ---- module-level operations -----------------------------------------


def pseudoscalar(sig: Signature) -> Multivector:
    return Multivector.blade(sig, sig.dim - 1)


def spatial_parts(m: Multivector) -> tuple[Multivector, Multivector]:
    """The parts (m + mbar)/2 and (m - mbar)/2 that spatial inversion mbar
    (each spatial factor e1, e2, e3 flipped, e4 kept) keeps and flips, taken
    blade by blade so neither overflows (Cl(3,1) only)."""
    if "inv_parts" not in m.sig.tables:
        raise ValueError("spatial inversion requires signature (3, 1)")
    return tuple(m._of(m.sig, part(m._c), m._support & support)
                 for part, support in m.sig._code.spatial)


# ---- generated stage functions ---------------------------------------

def _largest_abs(values: list) -> float:
    """max(map(abs, values)) of finite values, also in a stage body, where
    a value may be traced (``codegen.largest_abs``)."""
    try:
        return max(map(abs, values))
    except TypeError:  # a traced value has no abs()
        from .codegen import largest_abs

        return largest_abs(values)


class Stage:
    """A branch-free stretch of multivector steps, ``body(*args)``: its
    first n_mv arguments are Multivectors, the rest floats, and it returns a
    tuple of Multivectors and floats.  The first ``STAGE_RUNS`` calls per
    pattern of the multivectors' algebras and supports run body; the next
    generate, by running body once on traced floats (``codegen``), one
    straight-line float function that later calls run.  Each of its
    temporaries is the operation that body's step makes, on the same
    operands and in the same order (only x * 1.0 -> x and x * -1.0 -> -x
    fold, and an operation on constants runs once, at generation), and the
    step results that can overflow are tested together, before the first
    division by a traced float and at the end: the OverflowError of the
    first step that overflows.  ``KERNEL_CACHE_SIZE`` functions, and as
    many counts, are kept per stage."""

    #: the key of a call: the algebra, by its ``_Code`` (hashed by identity,
    #: not by Signature's Python-level hash), and the support of each of its
    #: first 1, 2 or 3 arguments
    _KEYS = (None, lambda a: (a[0].sig._code, a[0]._support),
             lambda a: (a[0].sig._code, a[0]._support, a[1].sig._code, a[1]._support),
             lambda a: (a[0].sig._code, a[0]._support, a[1].sig._code, a[1]._support,
                        a[2].sig._code, a[2]._support))

    def __init__(self, body: Callable, n_mv: int) -> None:
        self.body, self.n_mv, self.functions, self.runs = body, n_mv, {}, {}
        self._key = self._KEYS[n_mv]

    def __call__(self, *args) -> tuple:
        key = self._key(args)
        f = self.functions.get(key)
        if f is None:
            runs = self.runs.pop(key, 0)
            if runs < STAGE_RUNS:
                _bounded(self.runs)[key] = runs + 1
                return self.body(*args)
            from .codegen import generate

            f = _bounded(self.functions)[key] = generate(self.body, self.n_mv, args)
        return f(*args)


def _bounded(cache: dict) -> dict:
    """The cache, with its oldest entry dropped if it holds KERNEL_CACHE_SIZE."""
    if len(cache) >= KERNEL_CACHE_SIZE:
        del cache[next(iter(cache))]
    return cache


CL30 = Signature(3, 0)
CL31 = Signature(3, 1)
