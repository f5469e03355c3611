"""Core multivector arithmetic: products, involutions, projections."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rotoreig import algebra
from rotoreig.algebra import (
    CL30,
    CL31,
    KERNEL_CACHE_SIZE,
    Multivector,
    Signature,
    Stage,
    _largest_abs,
    pseudoscalar,
    spatial_parts,
)


def spatial_inversion(m):
    """m with each spatial factor e1, e2, e3 flipped and e4 kept (Cl(3,1))."""
    sign = [(-1.0) ** bin(mask & 0b0111).count("1") for mask in range(m.sig.dim)]
    return Multivector(m.sig, m.coeffs * sign)


def e(sig, *indices):
    out = Multivector.scalar(sig, 1.0)
    for i in indices:
        out = out * Multivector.basis_vector(sig, i)
    return out


coeff = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


def mv_strategy(sig):
    return st.lists(coeff, min_size=sig.dim, max_size=sig.dim).map(
        lambda c: Multivector(sig, np.array(c))
    )


class TestSignature:
    def test_basic_counts(self):
        assert CL30 == Signature(3, 0)
        assert CL31.n == 4 and CL31.dim == 16

    def test_metric_signs(self):
        assert [CL31.metric_sign(i) for i in range(4)] == [1, 1, 1, -1]

    def test_rejects_empty_and_oversized(self):
        with pytest.raises(ValueError):
            Signature(0, 0)
        with pytest.raises(ValueError):
            Signature(7, 2)


class TestVectorConstructor:
    def test_short_coordinates_are_padded_with_zeros(self):
        expected = np.zeros(CL31.dim)
        expected[[1, 2]] = [1.0, 2.0]
        assert Multivector.vector(CL31, [1.0, 2.0]).coeffs.tolist() == expected.tolist()

    @pytest.mark.parametrize("sig", [CL30, CL31])
    def test_too_many_coordinates_raise(self, sig):
        with pytest.raises(ValueError, match=f"n={sig.n}"):
            Multivector.vector(sig, list(range(1, sig.n + 2)))

    @pytest.mark.parametrize("sig", [CL30, CL31])
    @pytest.mark.parametrize("shape", ["wrong length", "row", "column", "bare float", "text"])
    def test_anything_but_a_flat_sequence_of_the_length_is_refused(self, sig, shape):
        # a (1, n) or an (n, 1) array, a bare float or a string of digits is
        # no coefficient sequence, though it holds the right number of reals
        for wrong, right, build, match in (
                (sig.dim - 1, sig.dim, lambda c: Multivector(sig, c),
                 f"expected a sequence of {sig.dim} real"),
                (sig.n + 1, sig.n, lambda c: Multivector.vector(sig, c), f"n={sig.n} real vector")):
            bad = {"wrong length": np.ones(wrong), "row": np.ones((1, right)),
                   "column": np.ones((right, 1)), "bare float": 1.0, "text": "1" * right}[shape]
            with pytest.raises(ValueError, match=match):
                build(bad)

    @pytest.mark.parametrize("sig", [CL30, CL31])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_is_refused(self, sig, bad):
        # on each blade, by the constructor and the two that build on it
        for mask in range(sig.dim):
            c = np.zeros(sig.dim)
            c[mask] = bad
            with pytest.raises(ValueError, match="must be finite"):
                Multivector(sig, c)
        with pytest.raises(ValueError, match="must be finite"):
            Multivector.scalar(sig, bad)
        for i in range(sig.n):
            coords = [1.0] * sig.n
            coords[i] = bad
            with pytest.raises(ValueError, match="must be finite"):
                Multivector.vector(sig, coords)


def reference_product(p, a, b):
    """(sign, mask) of e_a e_b in Cl(p, q), counted by hand: sort a's factors
    followed by b's by adjacent swaps, one sign flip per swap, then contract
    each pair of equal factors, one more flip per factor with index >= p."""
    factors = [i for i in range(8) if a >> i & 1] + [i for i in range(8) if b >> i & 1]
    swaps = 0
    for end in range(len(factors) - 1, 0, -1):
        for j in range(end):
            if factors[j] > factors[j + 1]:
                factors[j], factors[j + 1] = factors[j + 1], factors[j]
                swaps += 1
    sign, mask = (-1.0 if swaps % 2 else 1.0), 0
    for i in factors:  # sorted, so equal factors are neighbours
        if mask >> i & 1 and i >= p:
            sign = -sign
        mask ^= 1 << i
    return sign, mask


def numpy_tables(p, q):
    """``Signature.tables`` as numpy arrays, as they were built before the
    tables became tuples, with ``grade_masks`` (row k: grade k's blades)
    read off as the grade supports."""
    n = p + q
    dim = 1 << n
    grades = np.array([bin(m).count("1") for m in range(dim)], dtype=np.int64)
    a = np.arange(dim, dtype=np.int64)[:, None]
    b = np.arange(dim, dtype=np.int64)
    flips = grades[(a & b) >> p] + sum(grades[(a >> s) & b] for s in range(1, n))
    sign = np.where(flips % 2 == 1, -1.0, 1.0)
    outer_sign = np.where((a & b) == 0, sign, 0.0)
    ga, gb, gres = grades[:, None], grades[None, :], grades[a ^ b]
    keep = (ga == 0) | (gb == 0) | (gres == np.abs(ga - gb))
    grade_masks = grades == np.arange(n + 1)[:, None]
    tables = {
        "grades": grades,
        "grade_supports": [sum(1 << int(m) for m in np.flatnonzero(row)) for row in grade_masks],
        "odd": np.flatnonzero(grades % 2 == 1),
        "gp_sign": sign.ravel(),
        "outer_sign": outer_sign.ravel(),
        "inner_sign": np.where(keep, sign, 0.0).ravel(),
        "square_sign": sign.diagonal().copy(),
        "rev_sign": np.where(grades * (grades - 1) // 2 % 2 == 1, -1.0, 1.0),
        "order": np.lexsort((b, grades)),
    }
    if (p, q) == (3, 1):
        spatial = grades[b & 0b0111]
        tables["inv_parts"] = np.array([spatial % 2 == 0, spatial % 2 == 1], dtype=float)
    return tables


class TestSignTables:
    @pytest.mark.parametrize("p, q", [(p, n - p) for n in range(1, 7) for p in range(n + 1)])
    def test_equal_the_numpy_construction(self, p, q):
        # the same keys, and in each the same numbers of the same types:
        # ints for masks and grades, floats for signs and inv_parts' rows
        ref, tables = numpy_tables(p, q), Signature(p, q).tables
        assert tables.keys() == ref.keys()
        for name, table in tables.items():
            expected = np.asarray(ref[name]).tolist()
            assert table == (tuple(map(tuple, expected)) if name == "inv_parts"
                             else tuple(expected)), name
            kind = float if "sign" in name or name == "inv_parts" else int
            flat = [x for row in table for x in row] if name == "inv_parts" else table
            assert {type(x) for x in flat} == {kind}, name

    @pytest.mark.parametrize("p, q", [(p, n - p) for n in range(1, 7) for p in range(n + 1)])
    def test_equal_the_swap_count(self, p, q):
        sig = Signature(p, q)
        signs, masks = zip(*(reference_product(p, a, b)
                             for a in range(sig.dim) for b in range(sig.dim)))
        assert sig.tables["gp_sign"] == signs
        # the kernels sum e_a e_b into blade a ^ b
        assert list(masks) == [a ^ b for a in range(sig.dim) for b in range(sig.dim)]


class TestGeometricProduct:
    def test_euclidean_square(self):
        assert (e(CL30, 1) * e(CL30, 1)).approx_eq(Multivector.scalar(CL30, 1.0))

    def test_timelike_square(self):
        assert (e(CL31, 4) * e(CL31, 4)).approx_eq(Multivector.scalar(CL31, -1.0))

    def test_bilinear_expansion(self):
        a = e(CL30, 1) + e(CL30, 2)
        b = e(CL30, 1) - e(CL30, 2)
        assert (a * b).approx_eq(-2.0 * e(CL30, 1, 2))

    def test_anticommutation(self):
        for sig in (CL30, CL31):
            for i in range(1, sig.n + 1):
                for j in range(1, sig.n + 1):
                    anti = e(sig, i) * e(sig, j) + e(sig, j) * e(sig, i)
                    expected = 2.0 * sig.metric_sign(i - 1) if i == j else 0.0
                    assert anti.approx_eq(Multivector.scalar(sig, expected))

    def test_signature_mismatch(self):
        with pytest.raises(ValueError):
            e(CL30, 1) * e(CL31, 1)
        for op in (lambda a, b: a ^ b, lambda a, b: a | b, lambda a, b: a + b):
            with pytest.raises(ValueError):
                op(e(CL30, 1), e(CL31, 1))

    def test_equal_distinct_signatures_combine(self):
        # products skip the signature comparison only for the same object;
        # an equal signature built separately must still be accepted
        other = Signature(3, 0)
        assert other == CL30 and other is not CL30
        rng = np.random.default_rng(9)
        a = Multivector(CL30, rng.standard_normal(8))
        b_coeffs = rng.standard_normal(8)
        b_same, b_other = Multivector(CL30, b_coeffs), Multivector(other, b_coeffs)
        for op in (lambda x, y: x * y, lambda x, y: x ^ y, lambda x, y: x | y,
                   lambda x, y: x + y):
            assert op(a, b_other) == op(a, b_same)

    @settings(max_examples=60, deadline=None)
    @given(mv_strategy(CL31), mv_strategy(CL31), mv_strategy(CL31))
    def test_associativity(self, a, b, c):
        lhs = (a * b) * c
        rhs = a * (b * c)
        assert np.max(np.abs((lhs - rhs).coeffs)) <= 1e-9 * max(
            1.0, a.norm() * b.norm() * c.norm()
        )


class TestOuterInner:
    def test_outer_basis(self):
        assert (e(CL30, 1) ^ e(CL30, 2)).approx_eq(e(CL30, 1, 2))

    def test_outer_self_vanishes(self):
        assert (e(CL30, 1) ^ e(CL30, 1)).norm() == 0.0

    def test_outer_bilinear(self):
        lhs = (e(CL30, 1) + e(CL30, 2)) ^ (e(CL30, 2) + e(CL30, 3))
        rhs = e(CL30, 1, 2) + e(CL30, 1, 3) + e(CL30, 2, 3)
        assert lhs.approx_eq(rhs)

    def test_inner_vectors(self):
        assert (e(CL30, 1) | e(CL30, 1)).approx_eq(
            Multivector.scalar(CL30, 1.0)
        )

    def test_inner_vector_bivector(self):
        assert (e(CL30, 1) | e(CL30, 1, 2)).approx_eq(e(CL30, 2))

    def test_inner_k_with_e12(self):
        # (kx e1 + ky e2) . e12 = kx e2 - ky e1
        kx, ky = 0.7, -1.3
        k = kx * e(CL30, 1) + ky * e(CL30, 2)
        assert (k | e(CL30, 1, 2)).approx_eq(kx * e(CL30, 2) - ky * e(CL30, 1))

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(coeff, min_size=3, max_size=3),
        st.lists(coeff, min_size=3, max_size=3),
    )
    def test_vector_product_split(self, ac, bc):
        a = Multivector.vector(CL30, ac)
        b = Multivector.vector(CL30, bc)
        assert (a * b).approx_eq((a | b) + (a ^ b), tol=1e-9)


class TestInvolutions:
    def test_reverse_bivector(self):
        m = Multivector.scalar(CL30, 1.0) + e(CL30, 1, 2)
        assert (~m).approx_eq(Multivector.scalar(CL30, 1.0) - e(CL30, 1, 2))

    def test_reverse_trivector(self):
        assert (~e(CL30, 1, 2, 3)).approx_eq(-1.0 * e(CL30, 1, 2, 3))

    def test_reverse_grade4(self):
        assert (~e(CL31, 1, 2, 3, 4)).approx_eq(e(CL31, 1, 2, 3, 4))

    @settings(max_examples=60, deadline=None)
    @given(mv_strategy(CL31), mv_strategy(CL31))
    def test_reverse_antiautomorphism(self, a, b):
        lhs = ~(a * b)
        rhs = ~b * ~a
        assert np.max(np.abs((lhs - rhs).coeffs)) <= 1e-9 * max(
            1.0, a.norm() * b.norm()
        )

    @settings(max_examples=100, deadline=None)
    @given(mv_strategy(CL31))
    def test_spatial_parts_are_the_inversion_halves(self, m):
        even, odd = spatial_parts(m)
        inv = spatial_inversion(m)
        # each coefficient lands whole in one part: no rounding, no zero's sign
        assert np.array_equal(even.coeffs, ((m + inv) / 2.0).coeffs)
        assert np.array_equal(odd.coeffs, ((m - inv) / 2.0).coeffs)
        assert np.array_equal(even.coeffs + odd.coeffs, m.coeffs)

    def test_spatial_parts_do_not_overflow(self):
        m = Multivector(CL31, np.full(16, 1.7e308))
        with np.errstate(over="raise"):
            even, odd = spatial_parts(m)
        assert np.all(np.isin(even.coeffs, (0.0, 1.7e308)))
        assert np.array_equal(even.coeffs + odd.coeffs, m.coeffs)

    def test_spatial_parts_need_cl31(self):
        with pytest.raises(ValueError):
            spatial_parts(e(CL30, 1))

    @settings(max_examples=40, deadline=None)
    @given(mv_strategy(CL31), mv_strategy(CL31))
    def test_spatial_inversion_multiplicative(self, a, b):
        lhs = spatial_inversion(a * b)
        rhs = spatial_inversion(a) * spatial_inversion(b)
        assert np.max(np.abs((lhs - rhs).coeffs)) <= 1e-9 * max(
            1.0, a.norm() * b.norm()
        )


class TestGradesAndPseudoscalar:
    def test_grade_project_examples(self):
        m = Multivector.scalar(CL30, 1.0) + e(CL30, 1) + e(CL30, 1, 2)
        assert m.grade(1).approx_eq(e(CL30, 1))
        assert m.grade(0).scalar_part() == 1.0

    def test_grade_out_of_range(self):
        with pytest.raises(ValueError):
            e(CL30, 1).grade(4)

    def test_grade_decomposition_sums(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = Multivector(CL31, rng.standard_normal(16))
            total = Multivector.zero(CL31)
            for k in range(5):
                total = total + m.grade(k)
            assert total.approx_eq(m, tol=0.0)

    def test_pseudoscalar_squares(self):
        for sig in (CL30, CL31):
            i = pseudoscalar(sig)
            assert (i * i).approx_eq(Multivector.scalar(sig, -1.0))


class TestSerialization:
    def test_text_form(self):
        m = Multivector.scalar(CL30, 1.0) - 0.5 * e(CL30, 1, 2)
        assert str(m) == "1 - 0.5e12"
        assert str(2.0 * e(CL31, 1, 3, 4)) == "2e134"
        assert str(Multivector.zero(CL30)) == "0"

    def test_text_form_of_non_finite_coefficients(self):
        # there is none: the constructor refuses them
        with pytest.raises(ValueError, match="must be finite"):
            Multivector(CL30, [math.nan, math.inf, -math.inf, 0.0, 0.0, 0.0, 0.0, 2.0])
        c = np.zeros(CL31.dim)
        c[[3, 9, 15]] = [2.5, -math.inf, math.nan]
        with pytest.raises(ValueError, match="must be finite"):
            Multivector(CL31, c)
        # finite values keep their form
        assert str(Multivector.scalar(CL30, 1e16)) == "1e+16"
        assert str(Multivector.scalar(CL30, -3.0)) == "-3"

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=CL31.dim, max_size=CL31.dim))
    def test_finite_coefficients_abut_their_blades(self, c):
        assert "*" not in str(Multivector(CL31, np.array(c)))

    def test_text_order_sorted_by_grade_then_mask(self):
        order = CL31.tables["order"]
        keys = [(bin(m).count("1"), m) for m in order]
        assert keys == sorted(keys)


# ---- the primitives against their earlier formulas ---------------------
# Each reference below is the formula the primitive used before its per-call
# constant work moved into ``Signature.tables``; the bytes must not change,
# signed zeros included.

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300]
any_coeff = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False))


def raw_mv(sig):
    return st.lists(any_coeff, min_size=sig.dim, max_size=sig.dim).map(
        lambda c: Multivector(sig, np.array(c)))


raw_any = st.one_of(raw_mv(CL30), raw_mv(CL31))


def grades_of(sig):
    return np.array([bin(m).count("1") for m in range(sig.dim)])


class TestReferenceFormulas:
    @settings(max_examples=200, deadline=None)
    @given(raw_any)
    def test_is_even(self, m):
        odd = grades_of(m.sig) % 2 == 1
        assert m.is_even() is bool(np.all(np.abs(m.coeffs[odd]) <= 1e-12))

    @settings(max_examples=200, deadline=None)
    @given(raw_any, st.sampled_from([0.0, 1e-12, 5e-324, 1e300]))
    def test_grades_present(self, m, tol):
        ref = {int(g) for g, c in zip(grades_of(m.sig), m.coeffs) if abs(c) > tol}
        assert m.grades_present(tol) == ref

    @settings(max_examples=100, deadline=None)
    @given(raw_any)
    def test_grade_and_vector_coords(self, m):
        grades = grades_of(m.sig)
        for k in range(m.sig.n + 1):
            ref = np.where(grades == k, m.coeffs, 0.0)
            assert m.grade(k).coeffs.tobytes() == ref.tobytes()
        ref = np.array([m.coeffs[1 << i] for i in range(m.sig.n)])
        assert m.vector_coords().tobytes() == ref.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(raw_any, any_coeff)
    def test_scalar_add_and_subtract(self, m, x):
        def scalar(value):
            c = np.zeros(m.sig.dim)
            c[0] = value
            return c

        with np.errstate(all="ignore"):
            cases = [(lambda: m + x, m.coeffs + scalar(x)), (lambda: x + m, m.coeffs + scalar(x)),
                     (lambda: m - x, m.coeffs + scalar(-float(x))),
                     (lambda: x - m, (-m.coeffs) + scalar(x))]
        for op, ref in cases:
            assert_step(op, ref)

    def test_scalar_add_raises_on_overflow_under_errstate(self):
        # and without it: the check is the step's own, not numpy's
        m = Multivector.scalar(CL30, 1e308)
        for over in ("raise", "ignore"):
            with np.errstate(over=over), pytest.raises(OverflowError):
                m + 1e308
            with np.errstate(over=over), pytest.raises(OverflowError):
                m - (-1e308)

    @settings(max_examples=200, deadline=None)
    @given(raw_any)
    # a BLAS that sums np.dot in lanes (OpenBLAS on x86-64) rounds these to
    # other last bits than the sum in blade order
    @example(Multivector(CL31, [-0.6, 0.1, 0.7, 0.4, 0.7, -0.3, 0.0, 0.0,
                                0.9, 0.6, 0.7, 0.3, 0.9, -0.8, 0.6, -0.2]))
    @example(Multivector(CL31, [0.9, -0.1, -0.5, -0.9, 0.8, -0.8, 0.9, -0.3,
                                0.9, 0.5, -0.4, 0.7, -0.8, 0.3, -0.3, 0.2]))
    @example(Multivector(CL31, [-0.6, -0.3, 0.9, 0.4, 0.9, -0.3, 0.6, -0.6,
                                0.3, 0.0, 0.7, 0.6, -0.9, 0.1, 0.3, 0.0]))
    def test_norm(self, m):
        # the squares summed from 0.0 in blade order: the same bits on every
        # platform, where np.dot's order is its BLAS's
        total = 0.0
        for x in m.coeffs.tolist():
            total += x * x
        assert np.float64(m.norm()).tobytes() == np.float64(math.sqrt(total)).tobytes()

    @pytest.mark.parametrize("sig", [CL30, CL31, Signature(2, 0)])
    def test_shared_tables_are_read_only(self, sig):
        # tuples of numbers (inv_parts of tuples), so no caller can change a
        # table every multivector reads: hash fails on anything mutable inside
        for table in sig.tables.values():
            assert type(table) is tuple
            hash(table)


# ---- products with a basis blade ---------------------------------------
# A single multivector carries its support, a superset of its nonzero blades:
# blade, basis_vector, pseudoscalar, and negations and products of their
# results have a one-blade support.  Each product of finite multivectors runs
# a kernel generated for the two supports, which must give the dense kernel's
# bytes.


def dense_product(a, b, sign_key="gp_sign"):
    """The dense kernel: every signed coefficient pair, e_i e_j summed into
    blade i ^ j, in ascending pair order."""
    blades = np.arange(a.sig.dim)
    with np.errstate(all="ignore"):
        w = a.sig.tables[sign_key] * (a.coeffs[:, None] * b.coeffs).ravel()
        return np.bincount((blades[:, None] ^ blades).ravel(), weights=w, minlength=a.sig.dim)


PRODUCTS = [("gp_sign", lambda a, b: a * b), ("outer_sign", lambda a, b: a ^ b),
            ("inner_sign", lambda a, b: a | b)]


def assert_step(op, ref):
    """op() raises OverflowError exactly where the reference coefficients ref
    are not all finite, and gives their bytes elsewhere."""
    if np.isfinite(ref).all():
        assert op().coeffs.tobytes() == ref.tobytes()
    else:
        with pytest.raises(OverflowError):
            op()


def coefficient_rows(sig):
    """Random rows, and rows of -0.0, subnormals and +-1e300 among them."""
    rng = np.random.default_rng(19)
    rows = [rng.standard_normal(sig.dim) for _ in range(3)]
    rows += [np.zeros(sig.dim), -np.zeros(sig.dim)]
    for special in SPECIAL:
        for _ in range(3):
            row = rng.standard_normal(sig.dim)
            row[rng.choice(sig.dim, 3, replace=False)] = special
            rows.append(row)
    rows.append(rng.choice(SPECIAL, sig.dim))
    return rows


class TestBladeProducts:
    @pytest.mark.parametrize("sig", [CL30, CL31])
    def test_every_signed_blade_matches_the_dense_kernel(self, sig):
        for mask in range(sig.dim):
            for blade in (Multivector.blade(sig, mask), -Multivector.blade(sig, mask)):
                assert blade._support == 1 << mask
                for row in coefficient_rows(sig):
                    x = Multivector(sig, row)
                    for sign_key, op in PRODUCTS:
                        for a, b in ((x, blade), (blade, x)):
                            assert_step(lambda: op(a, b), dense_product(a, b, sign_key))

    @pytest.mark.parametrize("sig", [CL30, CL31])
    def test_blade_products_and_negations_stay_marked(self, sig):
        vectors = [Multivector.basis_vector(sig, i) for i in range(1, sig.n + 1)]
        ps = pseudoscalar(sig)
        for a in vectors + [ps, -ps]:
            for b in vectors + [ps, -vectors[0]]:
                product = a * b
                # the support of e_m is bit m: e_a e_b = +-e_(a ^ b)
                mask = (a._support.bit_length() - 1) ^ (b._support.bit_length() - 1)
                assert product._support == 1 << mask
                assert product.coeffs.tobytes() == dense_product(a, b).tobytes()
                assert (-product)._support == product._support

    @pytest.mark.parametrize("sig", [CL30, CL31])
    def test_finiteness_check_raises_no_flag_on_huge_coefficients(self, sig):
        # a product with a blade must neither overflow nor underflow where
        # its terms do not, rows whose sum overflows included: a sum of
        # squares would
        rows = np.array([np.full(sig.dim, 1e200), np.full(sig.dim, -1e308),
                         np.linspace(1e300, 1.7e308, sig.dim),
                         np.where(np.arange(sig.dim) % 2 == 0, 1e308, 5e-324)])
        for mask in range(sig.dim):
            for blade in (Multivector.blade(sig, mask), -Multivector.blade(sig, mask)):
                for row in rows:
                    x = Multivector(sig, row)
                    with np.errstate(all="raise"):
                        cases = [(x * blade, dense_product(x, blade)),
                                 (blade * x, dense_product(blade, x))]
                    for got, ref in cases:
                        assert got.coeffs.tobytes() == ref.tobytes(), (mask, row)

    def test_supports_are_carried_statically(self):
        # scaled, summed and reversed blades keep their one-blade support;
        # a product's support is its kernel's, blind to the values
        e1 = Multivector.basis_vector(CL31, 1)
        for m in (2.0 * e1, e1 / 1.0, e1 + e1, ~e1, Multivector(CL31, e1.coeffs), 0.0 * e1):
            assert m._support == 0b10
        assert Multivector.scalar(CL31, 1.0)._support == 1
        assert (e1 ^ e1)._support == 0 and (e1 | e1)._support == 1
        assert (e1 - e1)._support == 0b10 and (e1 - e1).coeffs.tolist() == [0.0] * 16

    def test_equal_multivectors_hash_equal(self):
        zero = Multivector.zero(CL30)
        assert -zero == zero
        blade = Multivector.basis_vector(CL31, 2)
        plain = Multivector(CL31, blade.coeffs.copy())
        assert blade == plain
        # -blade holds -0.0 off its blade, the plain one 0.0
        negated = Multivector(CL31, np.where(blade.coeffs == 1.0, -1.0, 0.0))
        assert -blade == negated


# ---- generated kernels against the dense kernel -------------------------
# Each product runs a generated kernel; it must give the dense kernel's bytes
# for any supports, and raise OverflowError exactly where the dense kernel's
# result is not finite, as every other step does against its numpy
# reference.

# finite coefficients over 1e+-30, exact zeros and -0.0 among them
scaled_coeff = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(lambda m, k: m * 10.0 ** k, st.floats(-10.0, 10.0, allow_nan=False),
              st.integers(-30, 30)))


def scaled_mv(sig):
    return st.lists(scaled_coeff, min_size=sig.dim, max_size=sig.dim).map(
        lambda c: Multivector(sig, np.array(c)))


def covered(m):
    """Whether m's support covers its nonzero blades."""
    return all(m._support >> int(k) & 1 for k in np.flatnonzero(m.coeffs))


class TestKernels:
    @pytest.mark.parametrize("sig", [CL30, CL31])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_kernels_give_the_dense_bits(self, sig, data):
        x, y = data.draw(scaled_mv(sig)), data.draw(scaled_mv(sig))
        blade = data.draw(st.sampled_from([1.0, -1.0, 2.5e-7])) * Multivector.blade(
            sig, data.draw(st.integers(0, sig.dim - 1)))
        # products of products, sums and the other steps run kernels of
        # supports that no scan made
        xy, k = x * y, data.draw(st.integers(0, sig.n))
        for sign_key, op in PRODUCTS:
            for a, b in ((x, y), (x, blade), (blade, x), (blade, blade), (xy, blade),
                         (blade.grade(k), xy), (xy, x), (x + blade, y), (blade - xy, blade),
                         (2.0 * ~x, y / 3.0), (-xy.grade(k), blade + 1.0)):
                got = op(a, b)
                assert covered(got)
                assert got.coeffs.tobytes() == dense_product(a, b, sign_key).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(scaled_mv(CL31), raw_mv(CL31)))
    def test_spatial_parts_keep_numpy_bits(self, m):
        # x * 1.0 and x * 0.0 blade by blade, as numpy multiplies by the
        # rows of inv_parts: -0.0 where x < 0, not a projection's +0.0; on
        # floats each part's support is m's on the part's blades
        inv_parts = CL31.tables["inv_parts"]
        with np.errstate(all="ignore"):
            refs, parts = m.coeffs * inv_parts, spatial_parts(m)
        for got, ref, row in zip(parts, refs, inv_parts):
            assert got.coeffs.tobytes() == ref.tobytes()
            blades = sum(1 << int(i) for i in np.flatnonzero(row))
            assert got._support == m._support & blades

    @pytest.mark.parametrize("sig", [CL30, CL31])
    def test_each_step_raises_exactly_where_its_reference_overflows(self, sig):
        # products, sums and scalar steps of rows from 1e154 to 1e300, and
        # rows whose sum passes the largest float while each coefficient and
        # the step's result stay finite: those keep their bits, on floats
        rng = np.random.default_rng(23)
        blade = Multivector.blade(sig, sig.dim - 1)
        rows = [scale * rng.standard_normal(sig.dim) for scale in (1e154, 1e160, 1e200, 1e300)]
        rows += [np.full(sig.dim, 1e308), np.linspace(1e300, 1.7e308, sig.dim)]
        for x in (Multivector(sig, row) for row in rows):
            for y in (Multivector(sig, rng.choice(rows)), blade, 1e-300 * blade):
                for sign_key, op in PRODUCTS:
                    assert_step(lambda: op(x, y), dense_product(x, y, sign_key))
                    assert_step(lambda: op(y, x), dense_product(y, x, sign_key))
                with np.errstate(all="ignore"):
                    sums = [(lambda: x + y, x.coeffs + y.coeffs),
                            (lambda: x - y, x.coeffs - y.coeffs)]
                for op, ref in sums:
                    assert_step(op, ref)
            for s in (1e300, -1e308, 0.5, -2.0, 1e-300):
                scalar = np.zeros(sig.dim)
                scalar[0] = s
                with np.errstate(all="ignore"):
                    steps = [(lambda: x + s, x.coeffs + scalar),
                             (lambda: x - s, x.coeffs - scalar),
                             (lambda: s * x, x.coeffs * s), (lambda: x * s, x.coeffs * s),
                             (lambda: x / s, x.coeffs / s)]
                for op, ref in steps:
                    assert_step(op, ref)

    @pytest.mark.parametrize("sig", [CL30, CL31])
    def test_division_by_zero_is_numpy_s(self, sig):
        # Python's ZeroDivisionError, where numpy's division raises under
        # errstate
        for row in coefficient_rows(sig)[:5]:
            x = Multivector(sig, row)
            for zero in (0.0, -0.0):
                with np.errstate(divide="raise", invalid="raise"), pytest.raises(
                        FloatingPointError):
                    x.coeffs / zero
                with pytest.raises(ZeroDivisionError):
                    x / zero

    def test_kernel_cache_stays_bounded(self):
        # more support pairs than the cache holds: the oldest kernels are
        # dropped, and one made again after its eviction gives the same bits
        code, rng = CL31._code, np.random.default_rng(27)
        xs = []
        for _ in range(40):
            c = rng.standard_normal(CL31.dim)
            c[rng.random(CL31.dim) < 0.5] = 0.0
            xs.append(Multivector(CL31, c))
        keys = set()
        for a in xs:
            for b in xs:
                assert (a * b).coeffs.tobytes() == dense_product(a, b).tobytes()
                keys.add(("gp_sign", a._support, b._support))
                assert len(code.kernels) <= KERNEL_CACHE_SIZE
        assert len(keys) > KERNEL_CACHE_SIZE
        assert ("gp_sign", xs[0]._support, xs[0]._support) not in code.kernels
        assert (xs[0] * xs[0]).coeffs.tobytes() == dense_product(xs[0], xs[0]).tobytes()

    def test_projection_cache_stays_bounded(self):
        # a projection per support, past the cache size: the cache keeps at
        # most that many
        code, rng = CL31._code, np.random.default_rng(28)
        x = Multivector(CL31, rng.standard_normal(CL31.dim))
        for _ in range(KERNEL_CACHE_SIZE + 40):
            support = int(rng.integers(1, 1 << CL31.dim))
            mask = np.array([support >> m & 1 for m in range(CL31.dim)], dtype=bool)
            got = x._project(support)
            assert got.coeffs.tobytes() == np.where(mask, x.coeffs, 0.0).tobytes()
            assert len(code.projections) <= KERNEL_CACHE_SIZE


# ---- generated stage functions ------------------------------------------

E2_31, E3_31, I_31 = e(CL31, 2), e(CL31, 3), pseudoscalar(CL31)


def every_step(x, y, s, t):
    """A stage body that takes every step a stage may: products of each
    kind, with constants on either side, sums, differences and scalings,
    the involutions, projections, a scalar sum, a division by a traced
    float and a largest magnitude."""
    even, odd = spatial_parts(x)
    u = (x * y - (x ^ y) * s + (y | x)) * E3_31 + E2_31 * odd - (s * t) * even
    v = (~u + 2.0 - y * I_31) / t - (u.grade(1) + s) + (1.0 - x) * (s - t)
    w = -(spatial_parts(v)[1] * 3.0) + x._project(0b1111) - 0.5
    return u, v, w, _largest_abs(list(w._c) + [s - t])


def outcome(call):
    """A call's result as bits (coefficients, supports and floats), or its
    exception's class and message."""
    try:
        out = call()
    except ArithmeticError as exc:
        return type(exc).__name__, str(exc)
    return [(m._support, [x.hex() for x in m._c]) if isinstance(m, Multivector) else m.hex()
            for m in out]


def mv31(rng, scale):
    c = rng.uniform(-1.0, 1.0, CL31.dim) * scale
    c[rng.random(CL31.dim) < 0.4] = 0.0
    c[rng.random(CL31.dim) < 0.1] *= -0.0
    return Multivector(CL31, c)


class TestStage:
    def test_generated_function_keeps_the_bits_and_errors_of_the_body(self, monkeypatch):
        # each call against the body run on multivectors: the same bits, or
        # the same OverflowError or ZeroDivisionError, also where a step
        # overflows before the division by 0.0 and where only a scaled
        # zero overflows (0.0 * inf)
        monkeypatch.setattr(algebra, "STAGE_RUNS", 0)
        stage, rng = Stage(every_step, 2), np.random.default_rng(34)
        for i in range(200):
            scale = 10.0 ** rng.choice([0, 100, 154, 200, 308])
            x, y = mv31(rng, scale), mv31(rng, rng.choice([1.0, scale]))
            s = float(rng.choice([0.0, -0.0, 1.0, -2.5, 1e300, 1e308, math.inf]))
            t = float(rng.choice([0.0, -0.0, 0.5, -3.0, 1e-300, 1e308]))
            expect = outcome(lambda: every_step(x, y, s, t))
            assert outcome(lambda: stage(x, y, s, t)) == expect
        assert len(stage.functions) > 1
        # a step that scales zeros alone, which inf makes NaN
        zeros = Stage(lambda x, s: ((x * 0.0) * s + x,), 1)
        for s in (math.inf, -math.inf, 1e300):
            assert outcome(lambda: zeros(x, s)) == outcome(lambda: ((x * 0.0) * s + x,))
        assert outcome(lambda: zeros(x, math.inf))[0] == "OverflowError"
        x, y = mv31(rng, 1.0), mv31(rng, 1.0)
        assert outcome(lambda: stage(x, y, 1.0, 0.0)) == ("ZeroDivisionError",
                                                          "float division by zero")

    def test_calls_run_the_body_until_the_function_is_generated(self):
        body_calls = []
        stage = Stage(lambda x, s: body_calls.append(s) or (x * s,), 1)
        x = e(CL31, 1, 2)
        for i in range(algebra.STAGE_RUNS + 3):
            assert stage(x, float(i))[0] == x * float(i)
        assert len(body_calls) == algebra.STAGE_RUNS + 1  # the last, traced
        assert list(stage.functions) == [(CL31._code, x._support)] and not stage.runs

    def test_each_algebra_runs_its_own_function(self):
        # a residual body on Cl(3,1) inputs of support 97 (1, e13, e23) until
        # its function is generated, then on Cl(3,0) inputs of the same
        # support, which run the body and then their own function
        stage = Stage(lambda h_psi, psi, energy: (
            _largest_abs(list((h_psi - energy * psi)._c)),), 2)

        def inputs(sig):
            return [Multivector(sig, [c.get(m, 0.0) for m in range(sig.dim)])
                    for c in ({0: 1.5, 5: 1.0, 6: 0.5}, {0: 1.0, 5: 1.0, 6: 0.5})]

        (h31, psi31), (h30, psi30) = inputs(CL31), inputs(CL30)
        assert h31._support == psi31._support == h30._support == psi30._support == 97
        for h, psi in ((h31, psi31), (h30, psi30)):
            for _ in range(algebra.STAGE_RUNS + 2):
                assert stage(h, psi, 1.0) == (0.5,)
        assert set(stage.functions) == {(sig._code, 97, sig._code, 97) for sig in (CL30, CL31)}
        # a call that mixes the algebras runs the body, which refuses it
        with pytest.raises(ValueError, match="signature mismatch"):
            stage(h31, psi30, 1.0)

    def test_function_and_count_caches_stay_bounded(self, monkeypatch):
        # more support patterns than the caches hold: the oldest are
        # dropped, and a function generated again gives the same bits
        stage, rng = Stage(lambda x, y: (x * y + x,), 2), np.random.default_rng(35)
        y = mv31(rng, 1.0)
        xs = [Multivector(CL31, [float(m >> b & 1) for b in range(CL31.dim)])
              for m in range(1, KERNEL_CACHE_SIZE + 40)]
        for x in xs:
            stage(x, y)
            assert len(stage.runs) <= KERNEL_CACHE_SIZE
        monkeypatch.setattr(algebra, "STAGE_RUNS", 0)
        for x in xs:
            assert outcome(lambda: stage(x, y)) == outcome(lambda: (x * y + x,))
            assert len(stage.functions) <= KERNEL_CACHE_SIZE
        assert (CL31._code, xs[0]._support, CL31._code, y._support) not in stage.functions
        assert outcome(lambda: stage(xs[0], y)) == outcome(lambda: (xs[0] * y + xs[0],))
