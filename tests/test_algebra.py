"""Core multivector arithmetic: products, involutions, projections."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotoreig.algebra import (
    CL30,
    CL31,
    Multivector,
    Signature,
    canonical_order,
    dagger,
    pseudoscalar,
    spatial_inversion,
    spatial_parts,
)


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


class TestSignTables:
    @pytest.mark.parametrize("p, q", [(p, n - p) for n in range(1, 7) for p in range(n + 1)])
    def test_equal_the_swap_count(self, p, q):
        sig = Signature(p, q)
        signs, masks = zip(*(reference_product(p, a, b)
                             for a in range(sig.dim) for b in range(sig.dim)))
        assert sig.tables["gp_sign"].tolist() == list(signs)
        assert sig.tables["res"].tolist() == list(masks)


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

    def test_spatial_inversion_generators(self):
        assert spatial_inversion(e(CL31, 1)).approx_eq(-1.0 * e(CL31, 1))
        assert spatial_inversion(e(CL31, 4)).approx_eq(e(CL31, 4))
        assert spatial_inversion(e(CL31, 3, 4)).approx_eq(-1.0 * e(CL31, 3, 4))

    def test_spatial_inversion_needs_cl31(self):
        with pytest.raises(ValueError):
            spatial_inversion(e(CL30, 1))

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

    def test_dagger_module_square(self):
        a0, b3 = 0.8, -1.7
        psi = Multivector.scalar(CL31, a0) + b3 * e(CL31, 3, 4)
        assert (dagger(psi) * psi).scalar_part() == pytest.approx(a0**2 + b3**2)

    @settings(max_examples=40, deadline=None)
    @given(mv_strategy(CL31))
    def test_dagger_involution(self, m):
        assert dagger(dagger(m)).approx_eq(m, tol=1e-10)


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
        m = Multivector(CL30, [math.nan, math.inf, -math.inf, 0.0, 0.0, 0.0, 0.0, 2.0])
        assert str(m) == "nan + inf*e1 - inf*e2 + 2e123"
        c = np.zeros(CL31.dim)
        c[[3, 9, 15]] = [2.5, -math.inf, math.nan]
        assert str(Multivector(CL31, c)) == "2.5e12 - inf*e14 + nan*e1234"
        # finite values keep their form
        assert str(Multivector.scalar(CL30, 1e16)) == "1e+16"
        assert str(Multivector.scalar(CL30, -3.0)) == "-3"

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=CL31.dim, max_size=CL31.dim))
    def test_finite_coefficients_abut_their_blades(self, c):
        assert "*" not in str(Multivector(CL31, np.array(c)))

    def test_canonical_order_sorted_by_grade_then_mask(self):
        order = canonical_order(CL31)
        keys = [(bin(m).count("1"), m) for m in order]
        assert keys == sorted(keys)


# ---- the primitives against their earlier formulas ---------------------
# Each reference below is the formula the primitive used before its per-call
# constant work moved into ``Signature.tables``; the bytes must not change,
# signed zeros and NaN included.

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, math.nan, math.inf, -math.inf]
any_coeff = st.one_of(st.sampled_from(SPECIAL), st.floats())


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
            cases = [(m + x, m.coeffs + scalar(x)), (x + m, m.coeffs + scalar(x)),
                     (m - x, m.coeffs + scalar(-float(x))),
                     (x - m, (-m.coeffs) + scalar(x))]
            for got, ref in cases:
                assert got.coeffs.tobytes() == ref.tobytes()

    def test_scalar_add_raises_on_overflow_under_errstate(self):
        m = Multivector.scalar(CL30, 1e308)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            m + 1e308
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            m - (-1e308)

    @settings(max_examples=200, deadline=None)
    @given(raw_any)
    def test_norm(self, m):
        with np.errstate(all="ignore"):
            ref = float(np.sqrt(np.dot(m.coeffs, m.coeffs)))
            assert np.float64(m.norm()).tobytes() == np.float64(ref).tobytes()

    @pytest.mark.parametrize("sig", [CL30, CL31, Signature(2, 0)])
    def test_shared_tables_are_read_only(self, sig):
        for name, table in sig.tables.items():
            with pytest.raises(ValueError, match="read-only"):
                table[(0,) * table.ndim] = table[(0,) * table.ndim]


# ---- products with a marked basis blade ---------------------------------
# Blade, basis_vector, pseudoscalar, and negations and geometric products of
# their results are marked as signed blades; a geometric product with one
# takes a signed-permutation gather that must give the dense kernel's bytes.


def dense_product(a, b, sign_key="gp_sign"):
    """The dense kernel: every signed coefficient pair, summed by blade."""
    t = a.sig.tables
    with np.errstate(all="ignore"):
        w = t[sign_key] * (a.coeffs[:, None] * b.coeffs).ravel()
    return np.bincount(t["res"], weights=w, minlength=a.sig.dim)


def coefficient_rows(sig):
    """Random rows, and rows of -0.0, subnormals, +-inf and NaN among them."""
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
                assert blade._blade is not None
                for row in coefficient_rows(sig):
                    x = Multivector(sig, row)
                    with np.errstate(all="ignore"):
                        cases = [(x * blade, dense_product(x, blade)),
                                 (blade * x, dense_product(blade, x)),
                                 (x ^ blade, dense_product(x, blade, "outer_sign")),
                                 (blade ^ x, dense_product(blade, x, "outer_sign")),
                                 (x | blade, dense_product(x, blade, "inner_sign")),
                                 (blade | x, dense_product(blade, x, "inner_sign"))]
                    for got, ref in cases:
                        assert got.coeffs.tobytes() == ref.tobytes(), (mask, row)

    @pytest.mark.parametrize("sig", [CL30, CL31])
    def test_blade_products_and_negations_stay_marked(self, sig):
        vectors = [Multivector.basis_vector(sig, i) for i in range(1, sig.n + 1)]
        ps = pseudoscalar(sig)
        for a in vectors + [ps, -ps]:
            for b in vectors + [ps, -vectors[0]]:
                product = a * b
                assert product._blade is not None
                assert product._blade.mask == a._blade.mask ^ b._blade.mask
                assert product.coeffs.tobytes() == dense_product(a, b).tobytes()
                assert (-product)._blade is not None

    @pytest.mark.parametrize("sig", [CL30, CL31])
    def test_finiteness_check_raises_no_flag_on_huge_coefficients(self, sig):
        # the gather's check must neither overflow nor underflow where the
        # gather itself does not, 1-D and stacked: a sum of squares would
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
                with np.errstate(all="raise"):
                    right, left = stack(sig, rows) * blade, blade * stack(sig, rows)
                singles = [Multivector(sig, row) for row in rows]
                assert right.coeffs.tobytes() == b"".join(
                    dense_product(x, blade).tobytes() for x in singles), mask
                assert left.coeffs.tobytes() == b"".join(
                    dense_product(blade, x).tobytes() for x in singles), mask

    def test_dense_and_scaled_multivectors_are_not_marked(self):
        e1 = Multivector.basis_vector(CL31, 1)
        for m in (2.0 * e1, e1 / 1.0, e1 + e1, ~e1, Multivector(CL31, e1.coeffs),
                  Multivector.scalar(CL31, 1.0), e1 ^ e1, e1 | e1):
            assert m._blade is None

    def test_equal_multivectors_hash_equal(self):
        zero = Multivector.zero(CL30)
        assert -zero == zero
        blade = Multivector.basis_vector(CL31, 2)
        plain = Multivector(CL31, blade.coeffs.copy())
        assert blade == plain
        # -blade holds -0.0 off its blade, the plain one 0.0
        negated = Multivector(CL31, np.where(blade.coeffs == 1.0, -1.0, 0.0))
        assert -blade == negated


# ---- stacks of multivectors ---------------------------------------------
# A multivector may hold a stack of n multivectors (coefficients (n, dim)),
# built inside the package with ``Multivector._wrap``; every operation on a
# stack must give row i the bytes of the same operation on row i alone.


@st.composite
def stacks(draw, sig):
    """Two stacks of one height, rows drawn from ``coefficient_rows`` (random,
    +-0.0, subnormal, +-inf and NaN entries) and from any floats."""
    row = st.one_of(st.sampled_from(coefficient_rows(sig)),
                    st.lists(any_coeff, min_size=sig.dim, max_size=sig.dim))
    n = draw(st.integers(1, 4))
    return [np.array(draw(st.lists(row, min_size=n, max_size=n))) for _ in range(2)]


def stack(sig, rows):
    return Multivector._wrap(sig, rows)


def row_by_row(sig, op, *operands):
    """op on each row alone: a stack's row i, or a single multivector, per operand."""
    height = max(len(x) for x in operands if isinstance(x, np.ndarray))
    return [op(*(Multivector(sig, x[i]) if isinstance(x, np.ndarray) else x
                 for x in operands)) for i in range(height)]


class TestStacks:
    @pytest.mark.parametrize("sig", [CL30, CL31])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_each_row_has_the_bits_of_its_own_operation(self, sig, data):
        rows, others = data.draw(stacks(sig))
        single = Multivector(sig, data.draw(st.sampled_from(coefficient_rows(sig))))
        blade = Multivector.blade(sig, data.draw(st.integers(0, sig.dim - 1)))
        if data.draw(st.booleans()):
            blade = -blade
        assert blade._blade is not None
        ops = [lambda a, b: a * b, lambda a, b: a ^ b, lambda a, b: a | b,
               lambda a, b: a + b, lambda a, b: a - b]
        pairs = [(rows, others), (rows, single), (single, rows), (rows, blade),
                 (blade, rows)]
        with np.errstate(all="ignore"):
            for op in ops:
                for x, y in pairs:
                    got = op(*(stack(sig, v) if isinstance(v, np.ndarray) else v
                               for v in (x, y)))
                    ref = row_by_row(sig, op, x, y)
                    assert got.coeffs.shape == (len(ref), sig.dim)
                    for got_row, ref_row in zip(got.coeffs, ref):
                        assert got_row.tobytes() == ref_row.coeffs.tobytes()
            unary = [lambda a: -a, lambda a: 2.5 * a, lambda a: a * 1e300,
                     lambda a: a / 3.0, lambda a: a + 1.0, lambda a: ~a,
                     lambda a: a.grade(2)]
            for op in unary:
                got = op(stack(sig, rows))
                for got_row, ref in zip(got.coeffs, row_by_row(sig, op, rows)):
                    assert got_row.tobytes() == ref.coeffs.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(stacks(CL31))
    def test_spatial_parts_row_by_row(self, pair):
        rows = pair[0]
        with np.errstate(all="ignore"):
            parts = spatial_parts(stack(CL31, rows))
            for i, row in enumerate(rows):
                for got, ref in zip(parts, spatial_parts(Multivector(CL31, row))):
                    assert got.coeffs[i].tobytes() == ref.coeffs.tobytes()

    def test_a_stack_carries_no_blade_mark(self):
        e3 = Multivector.basis_vector(CL31, 3)
        rows = stack(CL31, np.array([e3.coeffs, e3.coeffs]))
        for m in (rows * e3, e3 * rows, -rows, rows * rows):
            assert m._blade is None and m.coeffs.shape == (2, CL31.dim)
