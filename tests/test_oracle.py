"""Matrix oracle: hand-rolled eigensolvers and rotor cross-checks."""

import hashlib
import json
import math
import random
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotoreig import algebra, cli, models, oracle
from rotoreig.algebra import Multivector, Stage
from rotoreig.spectra import MODELS, ModelParams
from rotoreig.oracle import (
    cross_check,
    ga_operator_matrix,
    jacobi_eigh,
    matrix_bilayer,
    matrix_monolayer,
    matrix_qw,
    matrix_two_atoms,
)
from rotoreig.spinors import Spinor, column_to_spinor, spinor_to_column


class TestModelMatrices:
    def test_monolayer_entries(self):
        assert np.allclose(matrix_monolayer(1.0, 0.0), [[0, 1], [1, 0]])
        m = matrix_monolayer(0.0, 1.0)
        assert np.allclose(m, [[0, -1j], [1j, 0]])
        assert np.allclose(matrix_monolayer(0.0, 0.0), np.zeros((2, 2)))

    def test_qw_limits(self):
        assert np.allclose(matrix_qw(1.0, 1.0, 0.0), np.eye(2))
        vals = jacobi_eigh(matrix_qw(1.0, 0.0, 0.5))
        assert vals == pytest.approx([0.0, 1.0])

    def test_two_atoms_eigenvalues(self):
        vals = jacobi_eigh(matrix_two_atoms(3.0, 4.0))
        assert vals == pytest.approx([-5.0, -4.0, 4.0, 5.0])

    def test_two_atoms_uncoupled_diagonal(self):
        m = matrix_two_atoms(1.0, 0.0)
        assert np.allclose(m, np.diag([1.0, 0.0, 0.0, -1.0]))

    def test_bilayer_entries(self):
        # basis (A1, B1, A2, B2), pi = eta kx + i ky
        m = matrix_bilayer(0.3, 0.4, 0.2, 0.5, -1)
        pi = -0.3 + 0.4j
        assert np.array_equal(m, [[-0.2, pi.conjugate(), 0, 0],
                                  [pi, -0.2, 0.5, 0],
                                  [0, 0.5, 0.2, pi.conjugate()],
                                  [0, 0, pi, 0.2]])

    def test_bilayer_eigenvalues_at_k0(self):
        # the dimer B1, A2 at +-sqrt(U^2 + gamma1^2), A1 at -U and B2 at U
        vals = jacobi_eigh(matrix_bilayer(0.0, 0.0, 0.3, 0.4, 1))
        assert vals == pytest.approx([-0.5, -0.3, 0.3, 0.5], abs=1e-15)

    @pytest.mark.parametrize("eta", [1, -1])
    def test_ga_bilayer_is_the_mirrored_matrix(self, eta):
        # no constant basis change takes h_bilayer to matrix_bilayer at the
        # same k; h_bilayer is matrix_bilayer at ky -> -ky, its complex
        # conjugate, with two basis entries swapped: 0 and 3 for eta = 1,
        # 1 and 2 for eta = -1
        swap = np.eye(4)[[3, 1, 2, 0] if eta == 1 else [0, 2, 1, 3]]
        rng = np.random.default_rng(61)
        for _ in range(50):
            kx, ky, u, g1 = rng.uniform(-2.0, 2.0, 4)
            params = ModelParams("bilayer", kx=kx, ky=ky, U=u, gamma1=g1, eta=eta)
            m = swap @ matrix_bilayer(kx, -ky, u, g1, eta) @ swap
            col = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            got = spinor_to_column(
                models.h_bilayer(column_to_spinor(col), params))
            assert np.max(np.abs(got - m @ col)) <= 1e-15 * np.max(np.abs(col))

    def test_ga_two_atoms_is_the_permuted_matrix(self):
        # h_two_atoms is matrix_two_atoms in a permuted basis: its matrix G
        # under the column map has G[perm][:, perm] = M, with no error
        perm = [2, 0, 3, 1]
        rng = np.random.default_rng(63)
        for omega, gamma in [(0.7, 1.3), *rng.uniform(-2.0, 2.0, (20, 2))]:
            g = np.column_stack([
                spinor_to_column(models.h_two_atoms(column_to_spinor(col), omega, gamma))
                for col in np.eye(4, dtype=complex)])
            assert np.array_equal(g[perm][:, perm], matrix_two_atoms(omega, gamma))


def numpy_jacobi_eigh(a, vectors=False, tol=1e-14, max_sweeps=100):
    """Reference: cyclic Jacobi with every rotation done on numpy arrays.

    ``jacobi_eigh`` must return exactly these bits."""
    a = np.array(a, dtype=float)
    n = a.shape[0]
    a = (a + a.T) / 2.0
    v = np.eye(n)
    scale = max(1.0, float(np.max(np.abs(a))))
    offdiag = ~np.eye(n, dtype=bool)
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(a[offdiag] ** 2))
        if off <= tol * scale * n:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= tol * scale / n:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                ap, aq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * ap - s * aq
                a[:, q] = s * ap + c * aq
                ap, aq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * ap - s * aq
                a[q, :] = s * ap + c * aq
                vp, vq = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
    else:
        raise RuntimeError("Jacobi iteration failed to converge")
    vals = np.diag(a).copy()
    # stable, as ``jacobi_eigh`` sorts: equal values keep their diagonal order
    order = np.argsort(vals, kind="stable")
    if vectors:
        return vals[order], v[:, order]
    return vals[order]


def assert_bit_identical(m):
    assert np.array_equal(jacobi_eigh(m), numpy_jacobi_eigh(m))
    vals, vecs = jacobi_eigh(m, vectors=True)
    ref_vals, ref_vecs = numpy_jacobi_eigh(m, vectors=True)
    assert np.array_equal(vals, ref_vals) and np.array_equal(vecs, ref_vecs)


def random_hermitian(rnd, n):
    """An n x n complex matrix, hermitian up to a relative 1e-14 on each lower
    entry so that the Jacobi's averaging step changes bits; drawn with the
    stdlib so the draws do not depend on numpy's generators."""
    scale = 10.0 ** rnd.uniform(-3, 3)
    m = [[0j] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = complex(rnd.gauss(0.0, scale), 0.0)
        for j in range(i + 1, n):
            m[i][j] = complex(rnd.gauss(0.0, scale), rnd.gauss(0.0, scale))
            m[j][i] = m[i][j].conjugate() * (1.0 + 1e-14 * rnd.gauss(0.0, 1.0))
    return m


#: the complex Jacobi's inputs, grouped; their bits are pinned in
#: JACOBI_DIGESTS
JACOBI_CASES = {
    "models": lambda: [
        matrix_monolayer(0.3, -1.2), matrix_monolayer(1.7, 0.0), matrix_monolayer(1e-8, 3e5),
        matrix_qw(0.4, 0.9, 0.6), matrix_qw(-2.5, 0.01, 1.9), matrix_qw(3.0, -4.0, 1e-9),
        matrix_bilayer(0.3, 0.7, 0.2, 0.4, 1), matrix_bilayer(1.1, -0.2, -0.5, 1.3, -1),
        matrix_bilayer(0.02, 0.0, 0.0, 1.0, 1), matrix_bilayer(4.0, 2.0, 1e-3, 1e3, -1)],
    "random 2x2": lambda: [random_hermitian(rnd, 2) for rnd in [random.Random(61)]
                           for _ in range(200)],
    "random 4x4": lambda: [random_hermitian(rnd, 4) for rnd in [random.Random(62)]
                           for _ in range(100)],
    "signed zeros": lambda: [
        matrix_monolayer(-0.0, 0.0), matrix_monolayer(0.0, -0.0), matrix_monolayer(-0.0, -0.0),
        matrix_monolayer(-0.5, -0.0), matrix_qw(-0.0, -0.0, 1.0), matrix_qw(-0.0, 0.7, -0.3),
        matrix_bilayer(-0.0, -0.0, -0.0, 0.4, 1), matrix_bilayer(0.6, -0.0, -0.0, -0.0, -1),
        [[complex(-0.0, -0.0), complex(-0.0, 1.0)], [complex(-0.0, -1.0), complex(0.0, -0.0)]],
        [[-0.0, complex(2.0, -0.0)], [complex(2.0, 0.0), -0.0]],
        [[complex(1.0, -0.0), complex(-0.0, -0.0)], [complex(-0.0, 0.0), complex(-1.0, 0.0)]]],
}

#: sha256 of the values' then the vectors' bytes of every matrix in a group,
#: recorded from the Jacobi before its set-up moved from numpy to lists
JACOBI_DIGESTS = {
    "models":
        "9492f5e1f1c46e9d95ac63297098301c30436a69a1f3ee173d88d351ed802b7f",
    "random 2x2":
        "459192ed59b4d76a2d5cf6956b676a8a312a5360be42e6ae3a33c55c8590af24",
    "random 4x4":
        "76ca7c314f22c26da71688b8706a3e74485850fbfe948317591a7375a8694f05",
    "signed zeros":
        "f2e50b8cd2e47b9a8c017e1e247fc419f78c42f739cc6b572a7486a4a64f9604",
}


def jacobi_digest(mats) -> str:
    digest = hashlib.sha256()
    for m in mats:
        vals, vecs = jacobi_eigh(m, vectors=True)
        assert np.array_equal(jacobi_eigh(m), vals)
        digest.update(np.array(vals).tobytes() + np.array(vecs).tobytes())
    return digest.hexdigest()


class TestJacobi:
    def test_bit_identical_to_numpy_reference(self):
        rng = np.random.default_rng(55)
        for n in range(2, 9):
            for _ in range(25):
                m = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-3, 3)
                assert_bit_identical((m + m.T) / 2.0)
        # exact ties and zero rotation angles (theta == 0)
        assert_bit_identical(np.ones((4, 4)))
        assert_bit_identical([[1.0, 2.0], [2.0, 1.0]])

    @pytest.mark.parametrize("group", JACOBI_CASES)
    def test_complex_bits_are_stored(self, group):
        assert jacobi_digest(JACOBI_CASES[group]()) == JACOBI_DIGESTS[group]

    def test_entries_past_half_the_largest_float(self):
        # a/2 + a^H/2 does not overflow where (a + a^H)/2 did: the Jacobi
        # and the monolayer cross check at kx = ky = 1e308 give an answer
        assert jacobi_eigh([[0.0, 1.2e308], [1.2e308, 0.0]]) == pytest.approx(
            [-1.2e308, 1.2e308], rel=1e-15)
        report = cross_check(ModelParams("monolayer", kx=1e308, ky=1e308))
        assert report.passed and report.oracle_energies[1] > 1.4e308

    def test_bit_identical_on_hermitian_embeddings(self):
        # the real embedding [[re, -im], [im, re]] doubles every eigenvalue:
        # a real symmetric matrix with exact pairs, which must still come out
        # bit for bit, and pair by pair the hermitian spectrum
        rng = np.random.default_rng(56)
        mats = [matrix_monolayer(0.3, -1.2), matrix_qw(0.4, 0.9, 0.6),
                matrix_bilayer(0.3, 0.7, 0.2, 0.4, 1), matrix_monolayer(-0.0, 0.0)]
        for n in (2, 4):
            for _ in range(25):
                m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                mats.append((m + m.conj().T) / 2.0)
        for m in map(np.array, mats):
            block = np.block([[m.real, -m.imag], [m.imag, m.real]])
            assert_bit_identical(block)
            doubled = jacobi_eigh(block)
            assert np.max(np.abs(np.repeat(jacobi_eigh(m), 2) - doubled)) <= 1e-13 * max(
                1.0, np.max(np.abs(m)))

    def test_stop_sum_runs_left_to_right(self):
        # the stop test's squares are x^2, y^2, x^2, y^2, y^2, y^2: left to
        # right from 0.0 each y^2 is lost and the norm is 3e-14 = 1e-14 n,
        # so no sweep runs; a compensated sum (builtin sum from Python 3.12
        # on) keeps the y^2, passes the bound and rotates x out
        x, y = 2.1213203435596414e-14, 5e-22
        squares = [x * x, y * y, x * x, y * y, y * y, y * y]
        assert math.sqrt(math.fsum(squares)) > 3e-14
        assert jacobi_eigh([[0.5, x, y], [x, 0.5, y], [y, y, 0.25]]) == [0.25, 0.5, 0.5]

    @pytest.mark.parametrize("m, supports", [
        # no rotation: the eigenvectors are basis vectors, and equal values
        # keep their diagonal order
        (np.eye(4), [[0], [1], [2], [3]]),
        ([[0.5, 2.1213203435596414e-14, 5e-22], [2.1213203435596414e-14, 0.5, 5e-22],
          [5e-22, 5e-22, 0.25]], [[2], [0], [1]]),
        (np.diag([0.25, 0.5, 0.0, 0.0]), [[2], [3], [0], [1]]),
        # a doubled block, eigenvalues -1, -1, 3, 3: in each equal pair the
        # vector of the first block comes first
        (np.kron(np.eye(2), [[1.0, 2.0], [2.0, 1.0]]), [[0, 1], [2, 3], [0, 1], [2, 3]]),
    ], ids=["identity", "stop-sum", "diagonal", "doubled-block"])
    def test_equal_eigenvalues_keep_their_diagonal_order(self, m, supports):
        # the sort is stable; the rows an eigenvector column is nonzero on
        # name the diagonal position it comes from
        vals, vecs = jacobi_eigh(m, vectors=True)
        assert vals == sorted(vals) == jacobi_eigh(m)
        assert [np.flatnonzero(col).tolist() for col in np.array(vecs).T] == supports

    def test_rejects_zero_dimensional(self):
        with pytest.raises(ValueError):
            jacobi_eigh(np.float64(1.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        m = np.eye(4)
        m[1, 2] = m[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            jacobi_eigh(m)
        for dense in (m, m.astype(complex)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(ValueError, match="non-finite"):
                    jacobi_eigh(dense)
            assert caught == []

    def test_identity(self):
        assert jacobi_eigh(np.eye(4)) == pytest.approx([1.0] * 4)

    def test_exchange(self):
        assert jacobi_eigh([[0.0, 1.0], [1.0, 0.0]]) == pytest.approx([-1.0, 1.0])

    def test_eigenvector_residuals(self):
        rng = np.random.default_rng(51)
        for _ in range(30):
            n = rng.integers(2, 9)
            m = rng.standard_normal((n, n))
            m = (m + m.T) / 2.0
            vals, vecs = jacobi_eigh(m, vectors=True)
            for lam, v in zip(vals, np.array(vecs).T):
                assert np.linalg.norm(m @ v - lam * v) <= 1e-10 * max(
                    1.0, np.max(np.abs(m))
                )

    def test_matches_numpy_on_random_symmetric(self):
        rng = np.random.default_rng(52)
        for _ in range(50):
            m = rng.standard_normal((6, 6))
            m = (m + m.T) / 2.0
            assert np.max(np.abs(jacobi_eigh(m) - np.linalg.eigvalsh(m))) <= 1e-10

    def test_matches_numpy_on_random_hermitian(self):
        rng = np.random.default_rng(58)
        for n in range(1, 9):
            for _ in range(25):
                m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                m = (m + m.conj().T) / 2.0 * 10.0 ** rng.uniform(-3, 3)
                err = np.max(np.abs(jacobi_eigh(m) - np.linalg.eigvalsh(m)))
                assert err <= 1e-13 * max(1.0, np.max(np.abs(m)))

    def test_hermitian_eigenvectors(self):
        rng = np.random.default_rng(59)
        for n in range(1, 9):
            for _ in range(25):
                m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                m = (m + m.conj().T) / 2.0
                vals, vecs = map(np.array, jacobi_eigh(m, vectors=True))
                scale = max(1.0, np.max(np.abs(m)))
                assert np.linalg.norm(m @ vecs - vecs * vals, 2) <= 1e-13 * scale
                assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(n), 2) <= 1e-13

    def test_complex_input_keeps_its_imaginary_part(self):
        # sigma_y: cast to real it would read as the zero matrix
        assert jacobi_eigh([[0, -1j], [1j, 0]]) == pytest.approx([-1.0, 1.0], abs=1e-15)

    @pytest.mark.parametrize("bad", [[[0.0, 1j], [1j, 0.0]], [[1.0, 1j], [-1j, 1.0 + 1j]],
                                     [[0.0, complex(math.nan, 0.0)], [0.0, 0.0]],
                                     [[1.0, complex(0.0, math.inf)], [0.0, 1.0]]])
    def test_rejects_nonhermitian_or_non_finite_complex(self, bad):
        with pytest.raises(ValueError, match="hermitian|non-finite"):
            jacobi_eigh(bad)

    @pytest.mark.parametrize("bad", [[[0.0, 1.0], [0.0, 0.0]], [[1.0, 1e-9], [0.0, 1.0]]])
    def test_rejects_nonsymmetric(self, bad):
        # 1e-9 is far above the check's 1e-12 of max|a|
        with pytest.raises(ValueError, match="not hermitian"):
            jacobi_eigh(bad)

    def test_rejects_large(self):
        with pytest.raises(ValueError):
            jacobi_eigh(np.eye(32))

    @pytest.mark.parametrize("bad", [[["1", "2"], ["2", "1"]], [[b"1", b"2"], [b"2", b"1"]],
                                     [[1j, "2"], ["2", 1j]], [[1.0, "nan"], ["nan", 1.0]]])
    def test_rejects_text(self, bad):
        # float("1") parses, so text must be turned away before conversion
        with pytest.raises(ValueError, match="expected a small square matrix"):
            jacobi_eigh(bad)

    @pytest.mark.parametrize("m", [
        [[True, False], [False, True]], list(np.eye(2, dtype=bool)),
        list(np.eye(2, dtype=np.float32)), list(np.eye(2, dtype=np.int8)),
        [[np.complex128(1.0), 0], [0, np.float64(1.0)]]],
        ids=["bool", "numpy-bool", "float32", "int8", "numpy-complex"])
    def test_accepts_numpy_scalars_and_bools(self, m):
        assert jacobi_eigh(m) == [1.0, 1.0]

    @pytest.mark.parametrize("x", [-2.5, 0.0, 1e300, complex(3.0, 0.0)])
    def test_one_by_one_has_no_pivot(self, x):
        assert jacobi_eigh([[x]]) == [complex(x).real]
        assert jacobi_eigh([[x]], vectors=True) == ([complex(x).real], [[1.0]])
        if not isinstance(x, complex):
            assert_bit_identical([[x]])

    def test_largest_size_bit_identical_to_numpy_reference(self):
        rng = np.random.default_rng(64)
        for _ in range(2):
            m = rng.standard_normal((16, 16)) * 10.0 ** rng.uniform(-3, 3)
            assert_bit_identical((m + m.T) / 2.0)

    def test_largest_hermitian_values_agree_with_and_without_vectors(self):
        rnd = random.Random(65)
        m = np.array(random_hermitian(rnd, 16))
        vals, vecs = jacobi_eigh(m, vectors=True)
        assert [x.hex() for x in jacobi_eigh(m)] == [x.hex() for x in vals]
        vecs = np.array(vecs)
        scale = max(1.0, np.max(np.abs(m)))
        assert np.linalg.norm(m @ vecs - vecs * vals, 2) <= 1e-12 * scale
        assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(16), 2) <= 1e-13

    def test_one_generated_function_per_size_and_flag(self):
        # at most 2 per size, so at most 32 for 1 <= n <= 16
        oracle._sweeps.cache_clear()
        for n in range(1, 5):
            for vectors in (False, True, 0, 1, False):
                jacobi_eigh(np.eye(n), vectors=vectors)
        assert oracle._sweeps.cache_info().currsize == 8


class TestEigDense:
    def test_hermitian_embedding(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            m = (m + m.conj().T) / 2.0
            assert np.max(np.abs(jacobi_eigh(m) - np.linalg.eigvalsh(m))) <= 1e-10

    def test_two_atoms_symmetric_limit(self):
        assert jacobi_eigh(matrix_two_atoms(1.0, 1.0)) == pytest.approx(
            [-math.sqrt(2.0), -1.0, 1.0, math.sqrt(2.0)]
        )

    def test_rejects_nonhermitian_complex(self):
        with pytest.raises(ValueError):
            jacobi_eigh(np.array([[0.0, 1j], [1j, 0.0]]))

    @pytest.mark.parametrize("bad", [np.array(2.0 + 0j), np.array([1.0 + 0j, 2.0])])
    def test_rejects_complex_non_matrix(self, bad):
        with pytest.raises(ValueError, match="square matrix"):
            jacobi_eigh(bad)


class TestGaOperatorMatrix:
    def test_unknown_algebra_tag(self):
        with pytest.raises(ValueError, match="cl20"):
            ga_operator_matrix(lambda s: s, "cl20")

    def test_identity_hamiltonian(self):
        op = ga_operator_matrix(lambda s: s, "cl30")
        assert np.allclose(op, np.eye(4))

    def test_monolayer_operator_spectrum(self):
        from rotoreig.models import h_monolayer

        op = ga_operator_matrix(lambda s: h_monolayer(s, 1.0, 0.0), "cl30")
        assert jacobi_eigh(op) == pytest.approx([-1.0, -1.0, 1.0, 1.0])

    def test_faithfulness(self):
        from rotoreig.models import h_bilayer

        params = ModelParams("bilayer", kx=0.9, ky=-0.4, gamma1=0.5, U=0.2, eta=-1)
        op = ga_operator_matrix(lambda s: h_bilayer(s, params), "cl31")
        rng = np.random.default_rng(54)
        for _ in range(100):
            v = rng.standard_normal(8)
            psi = Spinor.from_coeff_vector("cl31", v)
            direct = h_bilayer(psi, params).coeff_vector()
            assert np.max(np.abs(op @ v - direct)) <= 1e-13 * max(
                1.0, np.max(np.abs(v))
            )

    def test_leak_detector(self):
        from rotoreig.algebra import CL30, Multivector

        def bad(s):
            return Spinor(Multivector.basis_vector(CL30, 1))

        with pytest.raises(ValueError):
            ga_operator_matrix(bad, "cl30")


class TestCrossCheck:
    def test_monolayer(self):
        report = cross_check(ModelParams("monolayer", kx=3.0, ky=4.0))
        assert report.passed and report.max_delta <= 1e-12

    def test_qw(self):
        report = cross_check(ModelParams("qw", kx=0.3, ky=1.1, alphaR=0.7))
        assert report.passed

    def test_atoms(self):
        report = cross_check(ModelParams("atoms", omega=3.0, Gamma=4.0))
        assert report.passed
        assert report.oracle_energies == pytest.approx([-5.0, -4.0, 4.0, 5.0])

    def test_bilayer_multiplicity_two(self):
        report = cross_check(
            ModelParams("bilayer", kx=1.0, ky=0.0, gamma1=0.5, U=0.2, eta=1)
        )
        assert report.passed
        assert len(report.oracle_energies) == 4

    @pytest.mark.parametrize("shift, passed", [(1e-8, False), (1e-11, True)])
    def test_match_tolerance_is_1e_10(self, monkeypatch, shift, passed):
        # the rotor energies at k = 1 are exactly -1 and 1; an oracle off by
        # 1e-8 fails, one off by 1e-11 passes
        monkeypatch.setitem(oracle._ORACLES, "monolayer", lambda p: [-1.0 + shift, 1.0])
        assert cross_check(ModelParams("monolayer", kx=1.0)).passed is passed

    def test_unsatisfiable_tolerance(self):
        report = cross_check(ModelParams("monolayer", kx=3.0, ky=4.0), tol=1e-30)
        assert not report.passed

    @pytest.mark.parametrize("model, fields", [
        ("monolayer", {"kx": 1e200, "ky": 1e200}),
        ("monolayer", {"kx": 1e200, "ky": 0.0}),
        ("atoms", {"omega": 1e200, "Gamma": 1e200}),
        ("bilayer", {"kx": 1e200, "gamma1": 1.0}),
        ("bilayer", {"kx": 1e160, "U": 1e160, "gamma1": 1e160}),
    ], ids=lambda x: x if isinstance(x, str) else "-".join(f"{k}={v:g}" for k, v in x.items()))
    def test_far_points(self, model, fields):
        # the off-diagonal entries square past the float range; the stop
        # test divides them by the scale first, so no warning and no stall
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cross_check(ModelParams(model, **fields)).passed

    def test_report_serializes(self):
        report = cross_check(ModelParams("qw", kx=0.5, ky=0.5, alphaR=0.3))
        doc = json.loads(json.dumps(report.to_json_dict()))
        assert doc["pass"] is True
        assert doc["model"] == "qw"
        assert len(doc["rotor_energies"]) == len(doc["oracle_energies"]) == 2


#: the oracle's textbook matrix of each 4-band model, at a parameter point
_MATRICES_4 = {
    "atoms": lambda p: matrix_two_atoms(p.omega, p.Gamma),
    "bilayer": lambda p: matrix_bilayer(p.kx, p.ky, p.U, p.gamma1, p.eta),
}


class TestMatrixInvariants:
    """The rotor solver's quartic E^4 - B E^2 + C = 0 is det(M - E) = 0: its
    roots +-E+, +-E- meet the invariants of the oracle's matrix M, which the
    test takes with numpy, sharing no code with the solver."""

    @pytest.mark.parametrize("model", list(_MATRICES_4))
    def test_verify_draws_meet_trace_and_determinant(self, model):
        # verify's draws: one generator over the models, in MODELS' order
        rng = random.Random(42)
        draws = {name: [cli._draw_params(name, rng) for _ in range(1000)] for name in MODELS}
        for params in draws[model]:
            low_minus, high_minus, high_plus, low_plus = sorted(
                s.energy for s in models.solve(params))
            assert (low_minus, high_minus) == (-low_plus, -high_plus)
            m = np.array(_MATRICES_4[model](params))
            b = np.trace(m @ m).real / 2.0  # sum of the squared levels over 2
            # bounds relative to B and B^2: both hold to 1e-15 on these draws
            assert abs(low_plus ** 2 + high_plus ** 2 - b) <= 1e-14 * b
            assert abs(low_plus ** 2 * high_plus ** 2 - np.linalg.det(m).real) <= 1e-14 * b * b


class TestReportSignedZeros:
    @pytest.mark.parametrize("gamma", [0.0, -0.0])
    def test_energies_fold_negative_zero(self, gamma):
        report = cross_check(ModelParams("atoms", omega=1.0, Gamma=gamma))
        # the degenerate even pair (-Gamma, Gamma) holds a -0.0
        assert "-0.0" in repr(report.rotor_energies)
        doc = report.to_json_dict()
        assert doc["rotor_energies"] == doc["oracle_energies"] == [-1.0, 0.0, 0.0, 1.0]
        folded = {k: doc[k] for k in ("rotor_energies", "oracle_energies",
                                      "residuals", "max_delta")}
        assert "-0.0" not in json.dumps(folded)
        # the parameters are reported as given
        assert math.copysign(1.0, doc["params"]["Gamma"]) == math.copysign(1.0, gamma)


@pytest.fixture
def fresh_action_check():
    """Clear the per-process action-check result before and after a test."""
    oracle._action_equivalence_ok.cache_clear()
    yield
    oracle._action_equivalence_ok.cache_clear()


class TestActionCheckOncePerAlgebra:
    def test_broken_action_fails_the_report(self, monkeypatch, fresh_action_check):
        real = oracle.pauli_action_cl30

        def broken(i, psi):
            out = real(i, psi)
            return out if i != 2 else oracle.Spinor(-out.mv)

        monkeypatch.setattr(oracle, "pauli_action_cl30", broken)
        report = cross_check(ModelParams("monolayer", kx=3.0, ky=4.0))
        assert report.max_delta <= 1e-12
        assert report.action_equivalence is False
        assert report.passed is False
        assert report.to_json_dict()["action_equivalence"] is False

    @pytest.mark.parametrize("shift, ok", [(1e-9, False), (1e-14, True)])
    def test_a_shifted_coefficient_is_caught(self, monkeypatch, fresh_action_check, shift, ok):
        # the action check's bound is 1e-12: a GA action off by 1e-9 in one
        # coefficient fails it, and one off by rounding-sized 1e-14 passes
        real = oracle.pauli_action_cl30

        def shifted(i, psi):
            out = real(i, psi)
            return out if i != 2 else oracle.Spinor(out.mv + shift)

        monkeypatch.setattr(oracle, "pauli_action_cl30", shifted)
        report = cross_check(ModelParams("monolayer", kx=3.0, ky=4.0))
        assert report.action_equivalence is ok
        assert report.passed is ok

    def test_broken_cl31_action_fails_the_report(self, monkeypatch, fresh_action_check):
        real = oracle.ga_action_cl31

        def broken(kind, psi, *idx):
            out = real(kind, psi, *idx)
            return out if kind != "imaginary" else psi

        monkeypatch.setattr(oracle, "ga_action_cl31", broken)
        report = cross_check(ModelParams("atoms", omega=3.0, Gamma=4.0))
        assert not report.action_equivalence and not report.passed

    def test_runs_once_per_algebra(self, monkeypatch, fresh_action_check):
        calls = {"cl30": 0, "cl31": 0}

        def counting(name, algebra):
            real = getattr(oracle, name)

            def wrapper(*args):
                calls[algebra] += 1
                return real(*args)

            monkeypatch.setattr(oracle, name, wrapper)

        counting("pauli_action_cl30", "cl30")
        counting("ga_action_cl31", "cl31")
        rng = random.Random(3)
        for model in MODELS:
            for _ in range(50):
                report = cross_check(cli._draw_params(model, rng))
                assert report.action_equivalence and report.passed
        # one spot check: 3 Pauli actions per cl30 column, 4 vector actions
        # and the imaginary unit per cl31 column
        assert calls == {"cl30": 3 * len(oracle._SPOT_COLS_2),
                         "cl31": 5 * len(oracle._SPOT_COLS_4)}

    def test_spot_columns_are_the_seeded_draws(self):
        # written out so that importing the oracle does not load numpy.random,
        # the columns stay bit for bit the RandomState(20140) draws
        rng = np.random.RandomState(20140)
        for cols, shape in ((oracle._SPOT_COLS_2, (2, 2)), (oracle._SPOT_COLS_4, (2, 4))):
            ref = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            assert all(type(x) is complex for col in cols for x in col)
            assert np.array(cols).shape == shape
            assert np.array(cols).tobytes() == ref.tobytes()


class TestProductCounts:
    """Exact geometric-product counts per cross_check, one fixed point per
    model, each a product of two multivectors of floats (a generated
    kernel): with every ``algebra.Stage`` running its body, the Multivector
    program, and with each running its generated function, in which no
    product is a call; a change to a count must be deliberate."""

    POINTS = {
        ModelParams("monolayer", kx=0.3, ky=-1.2): {"program": 9, "generated": 0},
        ModelParams("qw", kx=0.3, ky=1.1, alphaR=0.7): {"program": 12, "generated": 0},
        # atoms: the two sectors' rotors and b e3, I R and R e23 stay steps
        ModelParams("atoms", omega=3.0, Gamma=4.0): {"program": 28, "generated": 6},
        ModelParams("bilayer", kx=0.5, ky=0.1, gamma1=0.4, U=0.2): {"program": 52,
                                                                     "generated": 0},
    }

    @pytest.mark.parametrize("params", list(POINTS), ids=lambda p: p.model)
    @pytest.mark.parametrize("mode", ["program", "generated"])
    def test_products_per_cross_check(self, monkeypatch, params, mode):
        if mode == "program":
            monkeypatch.setattr(Stage, "__call__", lambda stage, *args: stage.body(*args))
        else:
            monkeypatch.setattr(algebra, "STAGE_RUNS", 0)
        real = Multivector._product
        counts = {}

        def counting(self, other, sign_key):
            kind = "kernel" if self._c is not None and other._c is not None else "numpy"
            counts[kind] = counts.get(kind, 0) + 1
            return real(self, other, sign_key)

        cross_check(params)  # the action spot check runs once per process
        monkeypatch.setattr(Multivector, "_product", counting)
        assert cross_check(params).passed
        assert counts.get("kernel", 0) == self.POINTS[params][mode] and "numpy" not in counts


# ---- constant work against the formulas it replaced --------------------

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, math.nan, math.inf, -math.inf]
any_float = st.one_of(st.sampled_from(SPECIAL), st.floats())

#: the Pauli matrices as numpy built them, for the reference expressions
SIGMA_X = np.array(((0, 1), (1, 0)), dtype=complex)
SIGMA_Y = np.array(((0, -1j), (1j, 0)), dtype=complex)
SIGMA_Z = np.array(((1, 0), (0, -1)), dtype=complex)


def entry_bits(x) -> tuple[bytes, bytes]:
    """The bits of an entry's real and imaginary parts, signed zeros and NaN
    payloads included."""
    z = complex(x)
    return struct.pack("<d", z.real), struct.pack("<d", z.imag)


def assert_same_bits(got, ref):
    """A tuple-of-rows matrix holds, entry for entry, the bits of a numpy one."""
    assert len(got) == len(ref) and all(len(row) == len(ref) for row in got)
    assert [[entry_bits(x) for x in row] for row in got] == [
        [entry_bits(x) for x in row] for row in ref.tolist()]


def nans_as_one(rows):
    """A complex matrix with each NaN part replaced by ``math.nan``."""
    def part(v):
        return math.nan if math.isnan(v) else v
    return [[complex(part(z.real), part(z.imag)) for z in row] for row in rows]


class TestReferenceFormulas:
    """Each oracle matrix against the numpy expression it was written as."""

    @settings(max_examples=200, deadline=None)
    @given(any_float, any_float)
    def test_matrix_monolayer(self, kx, ky):
        got = matrix_monolayer(kx, ky)
        assert all(type(x) is complex for row in got for x in row)
        assert_same_bits(got, np.array([[0.0, kx - 1j * ky], [kx + 1j * ky, 0.0]]))

    @settings(max_examples=300, deadline=None)
    @given(any_float, any_float, any_float)
    def test_matrix_qw(self, kx, ky, alpha):
        k2 = kx * kx + ky * ky
        with np.errstate(all="ignore"):
            ref = (k2 / 2.0) * np.eye(2) + alpha * (ky * SIGMA_X - kx * SIGMA_Y)
        got = matrix_qw(kx, ky, alpha)
        assert all(type(x) is complex for row in got for x in row)
        # the sign and payload of a NaN follow the order in which numpy's
        # vectorized complex product meets its operands; the Jacobi refuses
        # every NaN, so for a NaN part only the NaN is pinned
        assert_same_bits(nans_as_one(got), np.array(nans_as_one(ref.tolist())))

    @settings(max_examples=200, deadline=None)
    @given(any_float, any_float)
    def test_matrix_two_atoms(self, omega, gamma):
        one = np.eye(2)
        with np.errstate(all="ignore"):
            ref = (omega / 2.0) * (np.kron(SIGMA_Z, one) + np.kron(one, SIGMA_Z)) + gamma * np.kron(
                SIGMA_X, SIGMA_X)
        # every entry is real, so the oracle builds the matrix real
        got = matrix_two_atoms(omega, gamma)
        assert all(type(x) is float for row in got for x in row)
        assert_same_bits(got, ref.real)

    @settings(max_examples=300, deadline=None)
    @given(any_float, any_float, any_float, any_float, st.sampled_from([1, -1]))
    def test_matrix_bilayer(self, kx, ky, u, gamma1, eta):
        pi = eta * kx + 1j * ky
        got = matrix_bilayer(kx, ky, u, gamma1, eta)
        assert all(type(x) is complex for row in got for x in row)
        assert_same_bits(got, np.array([[-u, pi.conjugate(), 0.0, 0.0],
                                        [pi, -u, gamma1, 0.0],
                                        [0.0, gamma1, u, pi.conjugate()],
                                        [0.0, 0.0, pi, u]]))

    @pytest.mark.parametrize("algebra, h", [
        ("cl30", lambda s: models.h_monolayer(s, 0.3, -1.2)),
        ("cl31", lambda s: models.h_bilayer(s, ModelParams(
            "bilayer", kx=0.9, ky=-0.4, gamma1=0.5, U=0.2, eta=-1))),
    ])
    def test_ga_operator_matrix(self, algebra, h):
        n = {"cl30": 4, "cl31": 8}[algebra]
        ref = np.column_stack([
            h(Spinor.from_coeff_vector(algebra, v)).coeff_vector() for v in np.eye(n)])
        got = ga_operator_matrix(h, algebra)
        assert all(type(x) is float for row in got for x in row)
        assert_same_bits(got, ref)


@pytest.mark.parametrize("name, table, ref", [
    ("oracle._SZ_SUM", oracle._SZ_SUM,
     np.kron(SIGMA_Z.real, np.eye(2)) + np.kron(np.eye(2), SIGMA_Z.real)),
    ("oracle._SX_SX", oracle._SX_SX, np.kron(SIGMA_X.real, SIGMA_X.real)),
])
def test_shared_constant_tables_are_immutable(name, table, ref):
    # a tuple of tuples hashes only if nothing in it can change, and it
    # holds numpy's kron bits, the -0.0 of -1 x 0 included
    hash(table)
    assert_same_bits(table, ref)
