"""Column-spinor / GA-spinor bridge and matrix representations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotoreig.algebra import CL30, CL31, TOL, Multivector, Signature, pseudoscalar
from rotoreig.spinors import (
    CL30_SPINOR_MASKS,
    CL31_SPINOR_MASKS,
    Spinor,
    cl31_matrix_rep,
    column_to_spinor_cl30,
    column_to_spinor_cl31,
    even_odd_split,
    ga_action_cl31,
    imaginary_action_cl30,
    inner_product_bracket,
    pauli_action_cl30,
    pauli_matrix,
    spinor_to_column_cl30,
    spinor_to_column_cl31,
)


def random_column(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def blade31(*indices):
    out = Multivector.scalar(CL31, 1.0)
    for i in indices:
        out = out * Multivector.basis_vector(CL31, i)
    return out


class TestSpinorType:
    def test_leak_detection(self):
        bad = Multivector.basis_vector(CL30, 1)  # odd grade, outside subspace
        with pytest.raises(ValueError):
            Spinor(bad)
        # a leak in the Cl(3,1) odd-grade blades is caught as well
        with pytest.raises(ValueError):
            Spinor(Multivector.basis_vector(CL31, 4) + blade31(1, 2))

    @pytest.mark.parametrize("scale, raises", [(2.0, True), (0.5, False)])
    def test_leak_bound_is_tol_on_a_unit_spinor(self, scale, raises):
        # the bound is TOL of |mv| = 1: twice that leaks, half of it is rounding
        leak = scale * TOL
        mv = Multivector.scalar(CL30, 1.0) + leak * Multivector.basis_vector(CL30, 1)
        if raises:
            with pytest.raises(ValueError, match="leaves the spinor subspace"):
                Spinor(mv)
        else:
            assert Spinor(mv).mv.coeffs.tolist() == [1.0] + [0.0] * 7

    def test_no_spinor_subspace_outside_cl30_cl31(self):
        with pytest.raises(ValueError):
            Spinor(Multivector.scalar(Signature(2, 0), 1.0))

    def test_coeff_vector_round_trip(self):
        rng = np.random.default_rng(31)
        for algebra, n in (("cl30", 4), ("cl31", 8)):
            v = rng.standard_normal(n)
            s = Spinor.from_coeff_vector(algebra, v)
            assert np.allclose(s.coeff_vector(), v, atol=0.0)

    @pytest.mark.parametrize("algebra, n", [("cl30", 4), ("cl31", 8)])
    def test_wrong_length_coefficient_vector(self, algebra, n):
        for bad in (np.zeros(n - 1), np.zeros(n + 1), np.zeros((1, n)), 1.0):
            with pytest.raises(ValueError, match=f"{algebra} spinor needs {n}"):
                Spinor.from_coeff_vector(algebra, bad)

    def test_unknown_algebra_tag(self):
        with pytest.raises(ValueError, match="cl20"):
            Spinor.from_coeff_vector("cl20", np.zeros(4))

    def test_ab_accessors(self):
        s = Spinor.from_coeff_vector("cl31", np.arange(8.0))
        assert np.allclose(s.a, [0, 1, 2, 3])
        assert np.allclose(s.b, [4, 5, 6, 7])

    def test_json_form(self):
        s = Spinor.from_coeff_vector("cl31", np.arange(8.0))
        d = s.to_json_dict()
        assert d["algebra"] == "cl31"
        assert d["a"] == [0.0, 1.0, 2.0, 3.0] and d["b"] == [4.0, 5.0, 6.0, 7.0]

    @pytest.mark.parametrize("sig", [CL30, CL31])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_stack_checks_each_row_as_its_own_spinor(self, sig, data):
        # rows of random, +-0.0, subnormal, huge, +-inf and NaN coefficients,
        # with the blades outside the subspace scaled from 0 to a full leak
        special = [0.0, -0.0, 5e-324, 1e300, -1e300, math.nan, math.inf, -math.inf]
        coeff = st.one_of(st.sampled_from(special), st.floats(-10.0, 10.0))
        inside = np.isin(np.arange(sig.dim), CL30_SPINOR_MASKS if sig == CL30
                         else CL31_SPINOR_MASKS)
        rows = []
        for _ in range(data.draw(st.integers(1, 4))):
            row = np.array(data.draw(st.lists(coeff, min_size=sig.dim, max_size=sig.dim)))
            leak = data.draw(st.sampled_from([0.0, -0.0, 1e-300, 1e-14, 1e-11, 1.0]))
            with np.errstate(all="ignore"):
                rows.append(np.where(inside, row, row * leak))
        singles = []
        for row in rows:
            try:
                singles.append(Spinor(Multivector(sig, row)))
            except ValueError as exc:
                singles.append(str(exc))
        errors = [x for x in singles if isinstance(x, str)]
        if errors:  # the first leaking row raises, with its own message
            with pytest.raises(ValueError) as info:
                Spinor(Multivector._wrap(sig, np.array(rows)))
            assert str(info.value) == errors[0]
            return
        stacked = Spinor(Multivector._wrap(sig, np.array(rows)))
        assert len(stacked._rows()) == len(rows)
        for got, ref in zip(stacked._rows(), singles):
            assert type(got) is Spinor and got.algebra == ref.algebra
            assert got.mv.coeffs.tobytes() == ref.mv.coeffs.tobytes()

    def test_subspace_masks(self):
        assert set(CL30_SPINOR_MASKS) == {0b000, 0b110, 0b101, 0b011}
        # Cl(3,1): even bivectors e23,e13,e12 plus I, e14, e24, e34
        assert set(CL31_SPINOR_MASKS) == {0, 6, 5, 3, 15, 9, 10, 12}


class TestColumnMapsCl30:
    def test_basis_columns(self):
        assert column_to_spinor_cl30([1, 0]).mv.approx_eq(
            Multivector.scalar(CL30, 1.0)
        )
        assert column_to_spinor_cl30([0, 0]).mv.norm() == 0.0

    def test_round_trip(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            col = random_column(rng, 2)
            back = spinor_to_column_cl30(column_to_spinor_cl30(col))
            assert np.max(np.abs(back - col)) <= 1e-15 * max(1.0, np.abs(col).max())

    def test_action_equivalence(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            col = random_column(rng, 2)
            psi = column_to_spinor_cl30(col)
            for i in (1, 2, 3):
                lhs = spinor_to_column_cl30(pauli_action_cl30(i, psi))
                rhs = pauli_matrix(i) @ col
                assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.abs(col).max())
            lhs = spinor_to_column_cl30(imaginary_action_cl30(psi))
            assert np.max(np.abs(lhs - 1j * col)) <= 1e-12 * max(1.0, np.abs(col).max())

    def test_sigma3_on_identity(self):
        psi = column_to_spinor_cl30([1, 0])
        assert pauli_action_cl30(3, psi).mv.approx_eq(Multivector.scalar(CL30, 1.0))


class TestColumnMapsCl31:
    def test_basis_columns(self):
        assert column_to_spinor_cl31([1, 0, 0, 0]).mv.approx_eq(
            Multivector.scalar(CL31, 1.0)
        )
        assert column_to_spinor_cl31([1j, 0, 0, 0]).mv.approx_eq(blade31(1, 2))
        assert column_to_spinor_cl31([0, 1j, 0, 0]).mv.approx_eq(
            -1.0 * pseudoscalar(CL31)
        )

    def test_round_trip(self):
        rng = np.random.default_rng(34)
        for _ in range(50):
            col = random_column(rng, 4)
            back = spinor_to_column_cl31(column_to_spinor_cl31(col))
            assert np.max(np.abs(back - col)) <= 1e-15 * max(1.0, np.abs(col).max())

    def test_generator_matrices(self):
        e1 = cl31_matrix_rep(0b0001)
        assert np.allclose(e1, np.block([[np.zeros((2, 2)), np.eye(2)],
                                         [np.eye(2), np.zeros((2, 2))]]))
        e4 = cl31_matrix_rep(0b1000)
        assert np.allclose(e4 @ e4, -np.eye(4))

    def test_representation_anticommutation(self):
        metric = [1.0, 1.0, 1.0, -1.0]
        for i in range(4):
            for j in range(4):
                a = cl31_matrix_rep(1 << i)
                b = cl31_matrix_rep(1 << j)
                expected = 2.0 * metric[i] * np.eye(4) if i == j else np.zeros((4, 4))
                assert np.allclose(a @ b + b @ a, expected)

    def test_composite_blade_is_product(self):
        e12 = cl31_matrix_rep(0b0011)
        assert np.allclose(e12, cl31_matrix_rep(1) @ cl31_matrix_rep(2))

    def test_action_equivalence(self):
        rng = np.random.default_rng(35)
        i_ps = pseudoscalar(CL31)
        for _ in range(100):
            col = random_column(rng, 4)
            psi = column_to_spinor_cl31(col)
            scale = max(1.0, np.abs(col).max())
            for i in range(1, 5):
                lhs = spinor_to_column_cl31(ga_action_cl31("vector", psi, i))
                assert np.max(np.abs(lhs - cl31_matrix_rep(1 << (i - 1)) @ col)) <= 1e-12 * scale
                lhs = spinor_to_column_cl31(ga_action_cl31("pseudovector", psi, i))
                rep = (i_ps.coeffs[15] * cl31_matrix_rep(0b1111)) @ cl31_matrix_rep(1 << (i - 1))
                assert np.max(np.abs(lhs - rep @ col)) <= 1e-12 * scale
            for i in range(1, 5):
                for j in range(1, 5):
                    if i == j:
                        continue
                    lhs = spinor_to_column_cl31(ga_action_cl31("bivector", psi, i, j))
                    rep = cl31_matrix_rep(1 << (i - 1)) @ cl31_matrix_rep(1 << (j - 1))
                    assert np.max(np.abs(lhs - rep @ col)) <= 1e-12 * scale
            lhs = spinor_to_column_cl31(ga_action_cl31("imaginary", psi))
            assert np.max(np.abs(lhs - 1j * col)) <= 1e-12 * scale

    def test_imaginary_unit_on_identity(self):
        psi = column_to_spinor_cl31([1, 0, 0, 0])
        assert ga_action_cl31("imaginary", psi).mv.approx_eq(blade31(1, 2))

    def test_invalid_action_arguments(self):
        psi = column_to_spinor_cl31([1, 0, 0, 0])
        with pytest.raises(ValueError):
            ga_action_cl31("vector", psi, 5)
        with pytest.raises(ValueError):
            ga_action_cl31("bivector", psi, 2, 2)
        with pytest.raises(ValueError):
            ga_action_cl31("nope", psi)


class TestEvenOddSplit:
    def test_examples(self):
        psi = Spinor(Multivector.scalar(CL31, 1.0) + blade31(3, 4))
        even, odd = even_odd_split(psi)
        assert even.mv.approx_eq(Multivector.scalar(CL31, 1.0))
        assert odd.mv.approx_eq(blade31(3, 4))
        even2, odd2 = even_odd_split(Spinor(blade31(2, 3)))
        assert even2.mv.approx_eq(blade31(2, 3)) and odd2.mv.norm() == 0.0

    def test_inversion_parity(self):
        from rotoreig.algebra import spatial_inversion

        rng = np.random.default_rng(36)
        for _ in range(30):
            psi = Spinor.from_coeff_vector("cl31", rng.standard_normal(8))
            even, odd = even_odd_split(psi)
            assert spatial_inversion(even.mv).approx_eq(even.mv)
            assert spatial_inversion(odd.mv).approx_eq(-1.0 * odd.mv)
            assert (even.mv + odd.mv).approx_eq(psi.mv)


class TestBracket:
    def test_normalized_identity(self):
        one = Spinor(Multivector.scalar(CL31, 1.0))
        assert inner_product_bracket(one, one) == pytest.approx((1.0, 0.0))

    def test_imaginary_direction(self):
        one = Spinor(Multivector.scalar(CL31, 1.0))
        e12 = Spinor(blade31(1, 2))
        # columns [1,0,0,0] and [i,0,0,0] have inner product i
        assert inner_product_bracket(one, e12) == pytest.approx((0.0, 1.0))

    def test_zero(self):
        one = Spinor(Multivector.scalar(CL31, 1.0))
        zero = Spinor(Multivector.zero(CL31))
        assert inner_product_bracket(one, zero) == (0.0, 0.0)

    def test_module_square(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            v = rng.standard_normal(8)
            s = Spinor.from_coeff_vector("cl31", v)
            re, im = inner_product_bracket(s, s)
            assert re == pytest.approx(float(np.sum(v * v)))
            assert abs(im) <= 1e-12 * max(1.0, re)

    def test_matches_complex_inner_product(self):
        rng = np.random.default_rng(38)
        for _ in range(50):
            c1, c2 = random_column(rng, 4), random_column(rng, 4)
            phi = column_to_spinor_cl31(c1)
            psi = column_to_spinor_cl31(c2)
            re, im = inner_product_bracket(phi, psi)
            expected = np.vdot(c1, c2)
            assert complex(re, im) == pytest.approx(expected)
