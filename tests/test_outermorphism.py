"""Outermorphisms, determinants, and the secular cubic."""

import math

import numpy as np
import pytest

from rotoreig.algebra import CL30, CL31, Multivector, pseudoscalar
from rotoreig.outermorphism import (
    VectorMap,
    apply_outermorphism,
    apply_vector,
    determinant,
    real_cubic_roots,
    secular_cubic,
)
from rotoreig.rotors import rotate, rotor_from_vectors


def e(*indices):
    out = Multivector.scalar(CL30, 1.0)
    for i in indices:
        out = out * Multivector.basis_vector(CL30, i)
    return out


IDENTITY = VectorMap.from_matrix(CL30, np.eye(3))
DIAG231 = VectorMap.from_matrix(CL30, np.diag([2.0, 3.0, 1.0]))
SWAP12 = VectorMap.from_matrix(CL30, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])


def dense(sig, sign_key, a, b):
    """The product of sign table sign_key on numpy coefficients: every signed
    pair, e_i e_j summed into blade i ^ j, with inf * 0 = NaN where a term
    overflows."""
    blades = np.arange(sig.dim)
    w = sig.tables[sign_key] * (a[:, None] * b).ravel()
    return np.bincount((blades[:, None] ^ blades).ravel(), weights=w, minlength=sig.dim)


def char_poly_eigenvalues(mat):
    """Independent 3x3 eigenvalue oracle: characteristic polynomial roots."""
    mat = np.asarray(mat, dtype=float)
    tr = np.trace(mat)
    minors = sum(
        mat[i, i] * mat[j, j] - mat[i, j] * mat[j, i]
        for i in range(3)
        for j in range(i + 1, 3)
    )
    det = np.linalg.det(mat)
    roots = np.roots([1.0, -tr, minors, -det])
    return np.sort(roots.real[np.abs(roots.imag) < 1e-9])


class TestVectorMap:
    def test_matrix_round_trip(self):
        rng = np.random.default_rng(21)
        mat = rng.standard_normal((3, 3))
        assert np.allclose(VectorMap.from_matrix(CL30, mat).matrix(), mat)

    def test_rejects_a_matrix_with_too_many_rows(self):
        with pytest.raises(ValueError, match="n=3"):
            VectorMap.from_matrix(CL30, np.ones((4, 3)))

    def test_rejects_non_vector_image(self):
        with pytest.raises(ValueError):
            VectorMap(CL30, (e(1), e(2), e(1, 2)))

    def test_apply_vector_examples(self):
        assert apply_vector(IDENTITY, e(1)).approx_eq(e(1))
        assert apply_vector(DIAG231, e(2)).approx_eq(3.0 * e(2))
        assert apply_vector(SWAP12, e(1) + e(2)).approx_eq(e(1) + e(2))

    def test_apply_vector_rejects_mixed_grade(self):
        with pytest.raises(ValueError):
            apply_vector(IDENTITY, Multivector.scalar(CL30, 1.0) + e(1))


class TestOutermorphism:
    def test_identity_on_bivector(self):
        assert apply_outermorphism(IDENTITY, e(1, 2)).approx_eq(e(1, 2))

    def test_swap_eigenbivector(self):
        assert apply_outermorphism(SWAP12, e(1, 2)).approx_eq(-1.0 * e(1, 2))
        assert (apply_outermorphism(SWAP12, e(1, 2)) + e(1, 2)).norm() <= 1e-15

    def test_diagonal_trivector_scale(self):
        assert apply_outermorphism(DIAG231, e(1, 2, 3)).approx_eq(6.0 * e(1, 2, 3))
        assert (apply_outermorphism(DIAG231, e(1, 2)) - 6.0 * e(1, 2)).norm() <= 1e-15

    def test_scalar_passthrough(self):
        m = Multivector.scalar(CL30, 2.5)
        assert apply_outermorphism(DIAG231, m).approx_eq(m)

    def test_composition(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            f = VectorMap.from_matrix(CL30, rng.standard_normal((3, 3)))
            g = VectorMap.from_matrix(CL30, rng.standard_normal((3, 3)))
            a = Multivector(CL30, rng.standard_normal(8))
            lhs = apply_outermorphism(f.compose(g), a)
            rhs = apply_outermorphism(f, apply_outermorphism(g, a))
            assert lhs.approx_eq(rhs, tol=1e-10)

    def test_cl31_supported(self):
        f = VectorMap.from_matrix(CL31, np.diag([1.0, 2.0, 3.0, 4.0]))
        i = pseudoscalar(CL31)
        assert apply_outermorphism(f, i).approx_eq(24.0 * i)


class TestDeterminant:
    def test_identity(self):
        assert determinant(IDENTITY) == pytest.approx(1.0)

    def test_diagonal(self):
        assert determinant(DIAG231) == pytest.approx(6.0)

    def test_rotation_map(self):
        r = rotor_from_vectors(e(1), (e(2) + e(3)) / math.sqrt(2.0))
        images = tuple(rotate(r, e(i)) for i in (1, 2, 3))
        assert determinant(VectorMap(CL30, images)) == pytest.approx(1.0)

    def test_multiplicative(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            f = VectorMap.from_matrix(CL30, rng.standard_normal((3, 3)))
            g = VectorMap.from_matrix(CL30, rng.standard_normal((3, 3)))
            lhs = determinant(f.compose(g))
            rhs = determinant(f) * determinant(g)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_matches_matrix_determinant(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            mat = rng.standard_normal((3, 3))
            f = VectorMap.from_matrix(CL30, mat)
            assert determinant(f) == pytest.approx(np.linalg.det(mat), abs=1e-10)

    def test_overflowing_image_is_infinite(self):
        # F(I) = det(F) I overflows where np.linalg.det is +-inf: the wedge
        # of the images raises
        for diag, expected in (([1e200] * 3, math.inf), ([1e200, -1e200, 1e200], -math.inf)):
            f = VectorMap.from_matrix(CL30, np.diag(diag))
            with pytest.raises(OverflowError):
                determinant(f)
            with np.errstate(over="ignore"):
                assert np.linalg.det(np.diag(diag)) == expected

    def test_bits_of_the_product_with_the_inverse_pseudoscalar(self):
        # F(I) I^-1 with I^-1 = ~I / (I ~I), the earlier formula, taken on
        # numpy's dense products: where it is finite, the pseudoscalar
        # coefficient of F(I) has the same bits; elsewhere determinant raises
        rng = np.random.default_rng(25)
        outcomes = set()
        for sig in (CL30, CL31):
            i = pseudoscalar(sig)
            i_inv = (~i / (i * ~i).scalar_part()).coeffs
            for _ in range(500):
                mat = rng.standard_normal((sig.n, sig.n)) * 10.0 ** rng.uniform(
                    -100, 100, (sig.n, sig.n))
                f = VectorMap.from_matrix(sig, mat)
                with np.errstate(all="ignore"):
                    image = f.images[0].coeffs
                    for g in f.images[1:]:
                        image = dense(sig, "outer_sign", image, g.coeffs)
                    product = dense(sig, "gp_sign", image, i_inv)[0]
                try:
                    det = determinant(f)
                except OverflowError:
                    assert not math.isfinite(product)
                    outcomes.add("raised")
                    continue
                assert np.float64(det).tobytes() == np.float64(product).tobytes()
                outcomes.add("finite")
        assert outcomes == {"raised", "finite"}


class TestSecularCubic:
    def test_identity_coefficients(self):
        assert secular_cubic(IDENTITY) == pytest.approx((-3.0, 3.0, -1.0))
        assert real_cubic_roots(-3.0, 3.0, -1.0) == pytest.approx([1.0, 1.0, 1.0])

    def test_diag_coefficients(self):
        assert secular_cubic(DIAG231) == pytest.approx((-6.0, 11.0, -6.0))
        assert real_cubic_roots(-6.0, 11.0, -6.0) == pytest.approx([1.0, 2.0, 3.0])

    def test_swap_roots(self):
        roots = real_cubic_roots(*secular_cubic(SWAP12))
        assert roots == pytest.approx([-1.0, 1.0, 1.0])

    def test_cl31_rejected(self):
        f = VectorMap.from_matrix(CL31, np.eye(4))
        with pytest.raises(ValueError):
            secular_cubic(f)

    def test_roots_match_char_poly_oracle_symmetric(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            m = rng.standard_normal((3, 3))
            mat = (m + m.T) / 2.0  # real spectrum guaranteed
            f = VectorMap.from_matrix(CL30, mat)
            mine = np.array(real_cubic_roots(*secular_cubic(f)))
            oracle = char_poly_eigenvalues(mat)
            assert len(mine) == 3
            assert np.max(np.abs(mine - oracle)) <= 1e-8 * max(
                1.0, np.max(np.abs(oracle))
            )

    def test_single_real_root(self):
        # rotation by 90 degrees about e3: eigenvalues 1, +-i
        rot = [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
        roots = real_cubic_roots(*secular_cubic(VectorMap.from_matrix(CL30, rot)))
        assert roots == pytest.approx([1.0])
