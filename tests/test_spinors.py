"""Column-spinor / GA-spinor bridge and matrix representations."""

import math
import sys

import numpy as np
import pytest

from rotoreig import oracle
from rotoreig.algebra import (
    CL30,
    CL31,
    TOL,
    Multivector,
    Signature,
    pseudoscalar,
    spatial_parts,
)
from rotoreig.spinors import (
    _LAYOUTS,
    Spinor,
    cl31_matrix_rep,
    column_to_spinor,
    ga_action_cl31,
    imaginary_action_cl30,
    pauli_action_cl30,
    pauli_matrix,
    spinor_to_column,
)


def spatial_inversion(m):
    """m with each spatial factor e1, e2, e3 flipped and e4 kept (Cl(3,1))."""
    sign = [(-1.0) ** bin(mask & 0b0111).count("1") for mask in range(m.sig.dim)]
    return Multivector(m.sig, m.coeffs * sign)


def rep31(mask):
    """``cl31_matrix_rep`` as a numpy array, for matrix arithmetic."""
    return np.array(cl31_matrix_rep(mask))


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

    @pytest.mark.parametrize("sig", [CL30, CL31])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_leak_raises(self, sig, bad):
        # as not finite, not as a leak: the multivector is refused when built
        masks = _LAYOUTS[sig].masks
        unit = np.zeros(sig.dim)
        unit[0] = 1.0
        for blade in np.setdiff1d(np.arange(sig.dim), masks):
            row = unit.copy()
            row[blade] = bad
            with pytest.raises(ValueError, match="must be finite"):
                Spinor(Multivector(sig, row))

    @pytest.mark.parametrize("sig", [CL30, CL31])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("leak", [1.0, 5e-324])
    def test_finite_leak_beside_a_non_finite_coefficient_raises(self, sig, bad, leak):
        # the scale |mv| would not be finite, so TOL of it would pass any
        # leak: the multivector is refused when built
        masks = _LAYOUTS[sig].masks
        unit = np.zeros(sig.dim)
        unit[0] = 1.0
        for inside in masks:
            for outside in np.setdiff1d(np.arange(sig.dim), masks):
                row = unit.copy()
                row[inside], row[outside] = bad, leak
                with pytest.raises(ValueError, match="must be finite"):
                    Spinor(Multivector(sig, row))

    @pytest.mark.parametrize("sig", [CL30, CL31])
    @pytest.mark.parametrize("fraction, raises", [(2.0, True), (0.5, False), (1e-600, False)])
    def test_leak_bound_is_tol_where_the_norm_overflows(self, sig, fraction, raises):
        # |mv| = 1.5e308 sqrt(2) is past the largest float, but the bound is
        # still TOL of it: twice that leaks, half of it (or 5e-324) is rounding
        masks = _LAYOUTS[sig].masks
        outside = np.setdiff1d(np.arange(sig.dim), masks)
        row = np.zeros(sig.dim)
        row[list(masks[:2])] = 1.5e308
        row[outside[-1]] = max(5e-324, fraction * TOL * 1.5e308 * math.sqrt(2.0))
        kept = np.where(np.isin(np.arange(sig.dim), masks), row, 0.0)
        if raises:
            with pytest.raises(ValueError, match="leaves the spinor subspace"):
                Spinor(Multivector(sig, row))
        else:
            assert Spinor(Multivector(sig, row)).mv.coeffs.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("sig", [CL30, CL31])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficient_without_a_leak_raises(self, sig, bad):
        # on each coefficient of the subspace and each part of a column, by
        # the two constructors that take them, with no float warning
        layout = _LAYOUTS[sig]
        n = len(layout.masks)
        for j in range(n):
            vec = [1.0] + [-0.0] * (n - 1)
            vec[j] = bad
            with np.errstate(all="raise"), pytest.raises(ValueError, match="must be finite"):
                Spinor.from_coeff_vector(layout.tag, vec)
            col = np.zeros(n // 2, dtype=complex)
            col[j % (n // 2)] = complex(bad, 0.0) if j < n // 2 else complex(0.0, bad)
            with np.errstate(all="raise"), pytest.raises(ValueError, match="must be finite"):
                column_to_spinor(col)

    @pytest.mark.parametrize("sig", [CL30, CL31])
    def test_finite_spinors_pass_without_a_float_flag(self, sig):
        # no float flag at the extremes, and the bits pass through
        masks = list(_LAYOUTS[sig].masks)
        for value in (sys.float_info.max, -sys.float_info.max, 5e-324, -0.0, 1e-300):
            row = np.zeros(sig.dim)
            row[masks] = value
            mv = Multivector(sig, row)
            with np.errstate(all="raise"):
                assert Spinor(mv).mv.coeffs.tobytes() == mv.coeffs.tobytes()

    def test_no_spinor_subspace_outside_cl30_cl31(self):
        with pytest.raises(ValueError):
            Spinor(Multivector.scalar(Signature(2, 0), 1.0))

    def test_coeff_vector_round_trip(self):
        rng = np.random.default_rng(31)
        for algebra, n in (("cl30", 4), ("cl31", 8)):
            v = rng.standard_normal(n)
            s = Spinor.from_coeff_vector(algebra, v)
            # a tuple of floats, each the one put in: the signs are +-1.0
            assert s.coeff_vector() == tuple(v.tolist())
            assert {type(x) for x in s.coeff_vector()} == {float}

    @pytest.mark.parametrize("algebra, n", [("cl30", 4), ("cl31", 8)])
    def test_wrong_length_coefficient_vector(self, algebra, n):
        for bad in (np.zeros(n - 1), np.zeros(n + 1), np.zeros((1, n)), np.zeros((n, 1)), 1.0):
            with pytest.raises(ValueError, match=f"{algebra} spinor needs {n}"):
                Spinor.from_coeff_vector(algebra, bad)

    def test_unknown_algebra_tag(self):
        with pytest.raises(ValueError, match="cl20"):
            Spinor.from_coeff_vector("cl20", np.zeros(4))

    def test_ab_accessors(self):
        s = Spinor.from_coeff_vector("cl31", np.arange(8.0))
        assert np.allclose(s.coeff_vector()[:4], [0, 1, 2, 3])
        assert np.allclose(s.coeff_vector()[4:], [4, 5, 6, 7])

    def test_subspace_masks(self):
        assert set(_LAYOUTS["cl30"].masks) == {0b000, 0b110, 0b101, 0b011}
        # Cl(3,1): even bivectors e23,e13,e12 plus I, e14, e24, e34
        assert set(_LAYOUTS["cl31"].masks) == {0, 6, 5, 3, 15, 9, 10, 12}


def reference_coeffs(col):
    """The spinor coefficients (a0..a3) or (a0..a3, b0..b3) of a column,
    written out by hand: the reference for ``column_to_spinor``."""
    if len(col) == 2:
        return [col[0].real, col[1].imag, -col[1].real, col[0].imag]
    return [col[0].real, -col[3].real, col[3].imag, col[0].imag,
            col[1].imag, -col[2].imag, -col[2].real, -col[1].real]


def reference_column(psi):
    """The column of a spinor, written out by hand: the reference for
    ``spinor_to_column``."""
    if psi.algebra == "cl30":
        a0, a1, a2, a3 = psi.coeff_vector()
        return np.array([a0 + 1j * a3, -a2 + 1j * a1])
    a0, a1, a2, a3, b0, b1, b2, b3 = psi.coeff_vector()
    return np.array([a0 + 1j * a3, -b3 + 1j * b0, -b2 - 1j * b1, -a1 + 1j * a2])


def spot_and_random_columns():
    """The oracle's spot-check columns, then random ones of both lengths."""
    rng = np.random.default_rng(37)
    return [*oracle._SPOT_COLS_2, *oracle._SPOT_COLS_4] + [
        random_column(rng, n) for n in (2, 4) for _ in range(25)]


class TestColumnMaps:
    def test_round_trip_is_exact(self):
        for col in spot_and_random_columns():
            assert np.array_equal(spinor_to_column(column_to_spinor(col)), col)

    def test_maps_agree_with_the_hand_formulas(self):
        for col in spot_and_random_columns():
            psi = column_to_spinor(col)
            assert psi.algebra == ("cl30" if len(col) == 2 else "cl31")
            assert list(psi.coeff_vector()) == reference_coeffs(col)
            assert np.array_equal(spinor_to_column(psi), reference_column(psi))
        # spinors built from coefficients, not from a column
        rng = np.random.default_rng(38)
        for algebra, n in (("cl30", 4), ("cl31", 8)):
            for _ in range(25):
                psi = Spinor.from_coeff_vector(algebra, rng.standard_normal(n))
                assert np.array_equal(spinor_to_column(psi), reference_column(psi))

    @pytest.mark.parametrize("shape", [(3,), (2, 2), (8,)])
    def test_other_shapes_raise(self, shape):
        with pytest.raises(ValueError, match="2 or 4 complex entries"):
            column_to_spinor(np.ones(shape, dtype=complex))

    @pytest.mark.parametrize("col", ["12", b"12", 1.0, [[1.0], [0.0]], np.ones((2, 1))])
    def test_non_columns_raise(self, col):
        with pytest.raises(ValueError, match="2 or 4 complex entries"):
            column_to_spinor(col)


class TestColumnMapsCl30:
    def test_basis_columns(self):
        assert column_to_spinor([1, 0]).mv.approx_eq(
            Multivector.scalar(CL30, 1.0)
        )
        assert column_to_spinor([0, 0]).mv.norm() == 0.0

    def test_round_trip(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            col = random_column(rng, 2)
            back = spinor_to_column(column_to_spinor(col))
            assert np.max(np.abs(back - col)) <= 1e-15 * max(1.0, np.abs(col).max())

    def test_action_equivalence(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            col = random_column(rng, 2)
            psi = column_to_spinor(col)
            for i in (1, 2, 3):
                lhs = spinor_to_column(pauli_action_cl30(i, psi))
                rhs = pauli_matrix(i) @ col
                assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.abs(col).max())
            lhs = spinor_to_column(imaginary_action_cl30(psi))
            assert np.max(np.abs(lhs - 1j * col)) <= 1e-12 * max(1.0, np.abs(col).max())

    def test_sigma3_on_identity(self):
        psi = column_to_spinor([1, 0])
        assert pauli_action_cl30(3, psi).mv.approx_eq(Multivector.scalar(CL30, 1.0))


class TestColumnMapsCl31:
    def test_basis_columns(self):
        assert column_to_spinor([1, 0, 0, 0]).mv.approx_eq(
            Multivector.scalar(CL31, 1.0)
        )
        assert column_to_spinor([1j, 0, 0, 0]).mv.approx_eq(blade31(1, 2))
        assert column_to_spinor([0, 1j, 0, 0]).mv.approx_eq(
            -1.0 * pseudoscalar(CL31)
        )

    def test_round_trip(self):
        rng = np.random.default_rng(34)
        for _ in range(50):
            col = random_column(rng, 4)
            back = spinor_to_column(column_to_spinor(col))
            assert np.max(np.abs(back - col)) <= 1e-15 * max(1.0, np.abs(col).max())

    def test_generator_matrices(self):
        e1 = cl31_matrix_rep(0b0001)
        assert np.allclose(e1, np.block([[np.zeros((2, 2)), np.eye(2)],
                                         [np.eye(2), np.zeros((2, 2))]]))
        e4 = rep31(0b1000)
        assert np.allclose(e4 @ e4, -np.eye(4))

    def test_representation_anticommutation(self):
        metric = [1.0, 1.0, 1.0, -1.0]
        for i in range(4):
            for j in range(4):
                a = rep31(1 << i)
                b = rep31(1 << j)
                expected = 2.0 * metric[i] * np.eye(4) if i == j else np.zeros((4, 4))
                assert np.allclose(a @ b + b @ a, expected)

    def test_composite_blade_is_product(self):
        e12 = cl31_matrix_rep(0b0011)
        assert np.allclose(e12, rep31(1) @ rep31(2))

    def test_action_equivalence(self):
        rng = np.random.default_rng(35)
        i_ps = pseudoscalar(CL31)
        for _ in range(100):
            col = random_column(rng, 4)
            psi = column_to_spinor(col)
            scale = max(1.0, np.abs(col).max())
            for i in range(1, 5):
                lhs = spinor_to_column(ga_action_cl31("vector", psi, i))
                assert np.max(np.abs(lhs - rep31(1 << (i - 1)) @ col)) <= 1e-12 * scale
                lhs = spinor_to_column(ga_action_cl31("pseudovector", psi, i))
                rep = (i_ps.coeffs[15] * rep31(0b1111)) @ rep31(1 << (i - 1))
                assert np.max(np.abs(lhs - rep @ col)) <= 1e-12 * scale
            for i in range(1, 5):
                for j in range(1, 5):
                    if i == j:
                        continue
                    lhs = spinor_to_column(ga_action_cl31("bivector", psi, i, j))
                    rep = rep31(1 << (i - 1)) @ rep31(1 << (j - 1))
                    assert np.max(np.abs(lhs - rep @ col)) <= 1e-12 * scale
            lhs = spinor_to_column(ga_action_cl31("imaginary", psi))
            assert np.max(np.abs(lhs - 1j * col)) <= 1e-12 * scale

    def test_imaginary_unit_on_identity(self):
        psi = column_to_spinor([1, 0, 0, 0])
        assert ga_action_cl31("imaginary", psi).mv.approx_eq(blade31(1, 2))

    def test_invalid_action_arguments(self):
        psi = column_to_spinor([1, 0, 0, 0])
        with pytest.raises(ValueError):
            ga_action_cl31("vector", psi, 5)
        with pytest.raises(ValueError):
            ga_action_cl31("bivector", psi, 2, 2)
        with pytest.raises(ValueError):
            ga_action_cl31("nope", psi)


class TestEvenOddSplit:
    def test_examples(self):
        psi = Spinor(Multivector.scalar(CL31, 1.0) + blade31(3, 4))
        even, odd = spatial_parts(psi.mv)
        assert even.approx_eq(Multivector.scalar(CL31, 1.0))
        assert odd.approx_eq(blade31(3, 4))
        even2, odd2 = spatial_parts(Spinor(blade31(2, 3)).mv)
        assert even2.approx_eq(blade31(2, 3)) and odd2.norm() == 0.0

    def test_inversion_parity(self):
        rng = np.random.default_rng(36)
        for _ in range(30):
            psi = Spinor.from_coeff_vector("cl31", rng.standard_normal(8))
            even, odd = spatial_parts(psi.mv)
            assert spatial_inversion(even).approx_eq(even)
            assert spatial_inversion(odd).approx_eq(-1.0 * odd)
            assert (even + odd).approx_eq(psi.mv)

