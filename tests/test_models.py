"""Model Hamiltonians and their rotor-equation eigensolvers."""

import dataclasses
import math
import random
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rotoreig import cli, models, spectra
from rotoreig.algebra import (
    CL30,
    CL31,
    Multivector,
    pseudoscalar,
    spatial_inversion,
    spatial_parts,
)
from rotoreig.models import (
    HAMILTONIANS,
    DegenerateError,
    EigenSolution,
    expectation_energy,
    h_bilayer,
    h_monolayer,
    h_qw,
    h_two_atoms,
    pseudospin_average,
    solve_cl30,
)
from rotoreig.rotors import rotor_from_vectors
from rotoreig.spectra import (
    DEGENERACY_TOL,
    MODELS,
    ModelParams,
    bilayer_mexican_hat_k,
    bilayer_quantization_residual,
    bilayer_spectrum,
)
from rotoreig.spinors import Spinor


def mv30(coeffs_by_mask):
    c = np.zeros(8)
    for mask, v in coeffs_by_mask.items():
        c[mask] = v
    return Multivector(CL30, c)


E13_MASK = 0b101
E23_MASK = 0b110


class TestModelParams:
    def test_k_magnitude(self):
        assert ModelParams("monolayer", kx=3.0, ky=4.0).k == pytest.approx(5.0)

    def test_rejects_unknown_model(self):
        with pytest.raises(ValueError):
            ModelParams("trilayer")

    def test_rejects_bad_eta(self):
        with pytest.raises(ValueError):
            ModelParams("bilayer", eta=0)

    @pytest.mark.parametrize("model", list(MODELS))
    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(ModelParams)
                                       if isinstance(f.default, float)])
    def test_rejects_non_finite_fields(self, model, field):
        # named as the field, not reported as an overflow by the solver
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"^{field} must be a finite float"):
                ModelParams(model, **{field: bad})

    def test_json_lists_model_fields_only(self):
        d = ModelParams("qw", kx=1.0, ky=0.0, alphaR=0.3).to_json_dict()
        assert set(d) == {"model", "kx", "ky", "alphaR"}


class TestMonolayer:
    def test_h_on_identity(self):
        psi = Spinor(Multivector.scalar(CL30, 1.0))
        out = h_monolayer(psi, 1.0, 0.0)
        assert out.mv.approx_eq(Multivector.blade(CL30, E13_MASK))

    def test_unit_k_eigenspinors(self):
        sols = models.solve(ModelParams("monolayer", kx=1.0, ky=0.0))
        assert [s.energy for s in sols] == pytest.approx([-1.0, 1.0])
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        plus = mv30({0: inv_sqrt2, E13_MASK: inv_sqrt2})
        minus = mv30({0: inv_sqrt2, E13_MASK: -inv_sqrt2})
        assert sols[1].spinor.mv.approx_eq(plus)
        assert sols[0].spinor.mv.approx_eq(minus)

    def test_345_triangle(self):
        sols = models.solve(ModelParams("monolayer", kx=3.0, ky=4.0))
        assert [s.energy for s in sols] == pytest.approx([-5.0, 5.0])
        assert sols[1].target_vector == pytest.approx([0.6, 0.8, 0.0])
        assert all(s.residual <= 1e-12 for s in sols)
        assert [s.band_label for s in sols] == ["valence", "conduction"]

    def test_dirac_point_rejected(self):
        with pytest.raises(DegenerateError):
            models.solve(ModelParams("monolayer", kx=0.0, ky=0.0))

    def test_pseudospin_of_bands(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            kx, ky = rng.standard_normal(2)
            k = math.hypot(kx, ky)
            if k < 1e-3:
                continue
            valence, conduction = models.solve(ModelParams("monolayer", kx=kx, ky=ky))
            assert pseudospin_average(conduction.spinor) == pytest.approx(
                [kx / k, ky / k, 0.0]
            )
            assert pseudospin_average(valence.spinor) == pytest.approx(
                [-kx / k, -ky / k, 0.0]
            )

    @pytest.mark.parametrize("norm", [4.0, 1.0 + 1e-6])
    def test_pseudospin_requires_normalization(self, norm):
        # psi ~psi = norm: 1 + 1e-6 is far outside the check's 1e-10
        with pytest.raises(ValueError):
            pseudospin_average(Spinor(Multivector.scalar(CL30, math.sqrt(norm))))

    def test_pseudospin_rejects_a_nan_spinor(self):
        # NaN fails every comparison, so the norm check must be one it fails;
        # Spinor refuses NaN, so the spinor is built past its check
        nan = Multivector(CL30, [math.nan] + [0.0] * 7)
        with pytest.raises(ValueError, match="not finite"):
            Spinor(nan)
        psi = object.__new__(Spinor)
        psi.algebra, psi.mv = "cl30", nan
        with pytest.raises(ValueError, match="psi ~psi = 1"):
            pseudospin_average(psi)

    def test_pseudospin_identity(self):
        psi = Spinor(Multivector.scalar(CL30, 1.0))
        assert pseudospin_average(psi) == pytest.approx([0.0, 0.0, 1.0])


class TestQuantumWell:
    def test_energies_k10(self):
        sols = models.solve(ModelParams("qw", kx=1.0, ky=0.0, alphaR=0.5))
        assert [s.energy for s in sols] == pytest.approx([0.0, 1.0])

    def test_energies_k01(self):
        sols = models.solve(ModelParams("qw", kx=0.0, ky=1.0, alphaR=0.1))
        assert [s.energy for s in sols] == pytest.approx([0.4, 0.6])

    def test_residuals_and_rotors(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            kx, ky = rng.standard_normal(2)
            alpha = rng.uniform(0.05, 2.0)
            if math.hypot(kx, ky) < 1e-3:
                continue
            for s in models.solve(ModelParams("qw", kx=kx, ky=ky, alphaR=alpha)):
                assert s.residual <= 1e-12
                assert (s.spinor.mv * ~s.spinor.mv).scalar_part() == pytest.approx(1.0)

    def test_spin_perpendicular_to_k(self):
        kx, ky, alpha = 0.8, -0.6, 0.3
        for s in models.solve(ModelParams("qw", kx=kx, ky=ky, alphaR=alpha)):
            avg = pseudospin_average(s.spinor)
            assert abs(kx * avg[0] + ky * avg[1]) <= 1e-12
            assert abs(avg[2]) <= 1e-12

    def test_spin_directions(self):
        # at k along e2 (phi = pi/2): <s+-> = +-(sin(phi) e1 - cos(phi) e2) = +-e1
        lower, upper = models.solve(ModelParams("qw", kx=0.0, ky=1.0, alphaR=0.1))
        assert pseudospin_average(upper.spinor) == pytest.approx([1.0, 0.0, 0.0], abs=1e-12)
        assert pseudospin_average(lower.spinor) == pytest.approx([-1.0, 0.0, 0.0], abs=1e-12)

    def test_zero_coupling_degenerate(self):
        sols = models.solve(ModelParams("qw", kx=1.0, ky=0.0, alphaR=0.0))
        assert all(s.degenerate and s.spinor is None for s in sols)
        assert [s.energy for s in sols] == pytest.approx([0.5, 0.5])

    def test_near_zero_coupling_keeps_the_split_energies(self):
        # degenerate to the rotor map, but the energies and band order are
        # those of the split bands, k^2/2 -+ k alphaR
        sols = models.solve(ModelParams("qw", kx=1.0, ky=0.0, alphaR=-1e-13))
        assert all(s.degenerate and s.spinor is None for s in sols)
        assert [s.energy for s in sols] == [0.5 - 1e-13, 0.5 + 1e-13]
        assert [s.band_label for s in sols] == [
            s.band_label for s in models.solve(ModelParams("qw", kx=1.0, ky=0.0, alphaR=-0.5))]

    def test_zero_k_rejected(self):
        with pytest.raises(DegenerateError):
            models.solve(ModelParams("qw", kx=0.0, ky=0.0, alphaR=0.5))

    def test_large_k_sweep_solves_every_point(self):
        # a target built from (k^2/2 - E)/(alphaR k^2) cancels k^2/2 against E
        # and fails the unit-vector check from k ~ 1e2 on; h/|h| does not
        rng = random.Random(23)
        for decade in range(6):
            for _ in range(400):
                k = 10.0 ** (decade + rng.random())
                phi = rng.uniform(0.0, 2.0 * math.pi)
                alpha = rng.uniform(0.01, 2.0)
                for s in models.solve(ModelParams("qw", kx=k * math.cos(phi),
                                                  ky=k * math.sin(phi), alphaR=alpha)):
                    assert abs(math.hypot(*s.target_vector) - 1.0) <= 4 * math.ulp(1.0)
                    assert s.residual <= 1e-10 * max(1.0, abs(s.energy))

    @pytest.mark.parametrize("alpha", [-0.7, -1e-3, 0.7])
    def test_labels_follow_energy_and_spinors_match_the_hand_formula(self, alpha):
        rng = random.Random(29)
        for _ in range(20):
            kx, ky = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
            k = math.hypot(kx, ky)
            sols = models.solve(ModelParams("qw", kx=kx, ky=ky, alphaR=alpha))
            assert [s.band_label for s in sols] == ["valence", "conduction"]
            assert sols[0].energy < sols[1].energy
            for sign in (-1.0, 1.0):
                # the hand-derived rotor target -sign/k (kx e2 - ky e1)
                energy = k * k / 2.0 + sign * k * alpha
                target = Multivector.vector(CL30, [sign * ky / k, -sign * kx / k])
                psi = rotor_from_vectors(Multivector.basis_vector(CL30, 3), target).value
                (s,) = [s for s in sols if s.energy == energy]
                assert s.spinor.mv.approx_eq(psi, tol=1e-15)


def cl30_h(h0, hx, hy, hz=0.0):
    """H(psi) = h0 psi + h psi e3, the Cl(3,0) form of h0 + h.sigma."""
    h = Multivector.vector(CL30, [hx, hy, hz])
    e3 = Multivector.basis_vector(CL30, 3)
    return lambda psi: Spinor(h0 * psi.mv + h * psi.mv * e3)


class TestSolveCl30:
    def test_any_two_band_hamiltonian(self):
        # a model without a hand-written solver: an h and its closed form
        h0, hx, hy = 0.3, 0.4, -1.2
        hnorm = math.hypot(hx, hy)
        sols = solve_cl30(cl30_h(h0, hx, hy), [h0 - hnorm, h0 + hnorm])
        assert [s.band_label for s in sols] == ["valence", "conduction"]
        for sign, s in zip((-1.0, 1.0), sols):
            assert not s.degenerate and s.residual <= 1e-15
            assert s.target_vector == pytest.approx([sign * hx / hnorm,
                                                     sign * hy / hnorm, 0.0])

    def test_sigma_z_mass_fails_the_quantization_check(self):
        kx, ky, m = 0.6, 0.8, 0.5
        root = math.sqrt(kx * kx + ky * ky + m * m)
        with pytest.raises(ValueError, match="quantization condition"):
            solve_cl30(cl30_h(0.0, kx, ky, m), [-root, root])

    def test_energies_off_the_closed_form_fail_the_check(self):
        with pytest.raises(ValueError, match="quantization condition"):
            solve_cl30(cl30_h(0.0, 0.6, 0.8), [-1.0, 1.0 + 1e-9])

    def test_non_finite_energies_overflow_before_h_is_applied(self):
        def h(psi):
            raise AssertionError("H applied")

        with pytest.raises(OverflowError):
            solve_cl30(h, [0.0, math.inf])

    @pytest.mark.parametrize("h0, hnorm", [
        (0.0, 0.0), (-0.0, 0.0), (DEGENERACY_TOL, DEGENERACY_TOL), (0.0, DEGENERACY_TOL)])
    def test_vanishing_h_is_a_singular_point(self, h0, hnorm):
        with pytest.raises(DegenerateError, match="H = 0"):
            solve_cl30(cl30_h(h0, hnorm, 0.0), [h0 - hnorm, h0 + hnorm])

    @pytest.mark.parametrize("h0, hnorm", [
        (2.0, 1e-11), (-5.0, 4.9e-10), (1e6, 1e-5), (2.0 * DEGENERACY_TOL, DEGENERACY_TOL)])
    def test_tiny_h_gives_two_degenerate_solutions(self, h0, hnorm):
        energies = [h0 - hnorm, h0 + hnorm]
        sols = solve_cl30(cl30_h(h0, 0.0, hnorm), energies)
        assert [(s.energy, s.band_label, s.degenerate, s.spinor) for s in sols] == [
            (energies[0], "valence", True, None), (energies[1], "conduction", True, None)]

    @pytest.mark.parametrize("params", [ModelParams("monolayer", kx=1e-9),
                                        ModelParams("qw", kx=1e-9, alphaR=1.0)],
                             ids=["monolayer", "qw"])
    def test_h_ten_times_the_tolerance_gets_rotors(self, params):
        # |h| = 1e-9 is a regular point: two bands, each with its rotor
        sols = models.solve(params)
        assert len(sols) == 2
        assert not any(s.degenerate or s.spinor is None for s in sols)

    def test_h_just_above_the_tolerance_gets_rotors(self):
        hnorm = 2.0 * DEGENERACY_TOL
        sols = solve_cl30(cl30_h(0.5, hnorm, 0.0), [0.5 - hnorm, 0.5 + hnorm])
        assert not any(s.degenerate for s in sols)
        assert sols[1].target_vector == pytest.approx([1.0, 0.0, 0.0])


_E3_31 = Multivector.basis_vector(CL31, 3)
_I_31 = pseudoscalar(CL31)
_SIGMA = [np.array(m) for m in ([[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]])]


def cl31_h(a, c, d, c_odd=None, shift=0.0):
    """The Pauli-block H(psi) = a phi+ e3 + I c phi+ e3 + c phi- e3 + I d phi- e3
    (+ shift psi) on psi = phi+ + I phi-; c_odd replaces c in H(I phi-)."""
    va, vc, vd = (Multivector.vector(CL31, v) for v in (a, c, d))
    vc_odd = vc if c_odd is None else Multivector.vector(CL31, c_odd)

    def h(psi):
        even, odd = spatial_parts(psi.mv)
        minus = -(_I_31 * odd)  # phi-, as I^2 = -1
        return Spinor(va * even * _E3_31 + _I_31 * (vc * even * _E3_31)
                      + vc_odd * minus * _E3_31 + _I_31 * (vd * minus * _E3_31)
                      + shift * psi.mv)
    return h


def pauli_blocks(a, c, d):
    """The 4x4 matrix [[a.sigma, c.sigma], [c.sigma, d.sigma]]."""
    dot = lambda v: sum(x * m for x, m in zip(v, _SIGMA))
    return np.block([[dot(a), dot(c)], [dot(c), dot(d)]])


class TestSolveCl31:
    def test_generic_blocks_match_the_matrix_eigenvalues(self):
        # c.a != 0 and c.d != 0: the 4 (c.a)(c.d) term of C matters here
        rng = np.random.default_rng(31)
        for _ in range(200):
            a, c, d = (rng.standard_normal(3) * 10.0 ** rng.uniform(-2, 2)
                       for _ in range(3))
            assert abs(c @ a) > 0.0 and abs(c @ d) > 0.0
            sols = models.solve_cl31(cl31_h(a, c, d))
            expect = np.linalg.eigvalsh(pauli_blocks(a, c, d))
            scale = np.abs(expect).max()
            assert np.abs(np.array([s.energy for s in sols]) - expect).max() <= 1e-12 * scale
            for s in sols:
                assert not s.degenerate and s.residual <= 1e-12 * scale
                assert np.linalg.norm(s.target_vector) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("eta", [1, -1])
    def test_bilayer_is_its_read_off_blocks(self, eta):
        # h_bilayer has a = eta U e3, c = -eta k and d = gamma1 e2 - eta U e3
        sols = models.solve(ModelParams("bilayer", kx=0.3, ky=-0.7, U=0.2,
                                         gamma1=0.4, eta=eta))
        blocks = models.solve_cl31(cl31_h([0.0, 0.0, eta * 0.2], [-eta * 0.3, eta * 0.7, 0.0],
                                          [0.0, 0.4, -eta * 0.2]))
        assert [s.energy for s in sols] == [s.energy for s in blocks]
        assert all(s.spinor.mv == b.spinor.mv for s, b in zip(sols, blocks))

    def test_two_atoms_is_its_read_off_blocks(self):
        # h_two_atoms has a = -Gamma e2, c = 0 and d = Gamma e2 - omega e3
        sols = models.solve(ModelParams("atoms", omega=0.7, Gamma=1.3))
        blocks = models.solve_cl31(cl31_h([0.0, -1.3, 0.0], [0.0, 0.0, 0.0], [0.0, 1.3, -0.7]))
        assert [(s.energy, s.band_label) for s in sols] == [
            (b.energy, b.band_label) for b in blocks]
        assert all(s.spinor.mv == b.spinor.mv for s, b in zip(sols, blocks))

    def test_unequal_couplings_raise(self):
        h = cl31_h([0.1, 0.2, 0.3], [0.5, 0.0, 0.1], [0.0, 0.4, -0.2],
                   c_odd=[0.5, 0.0, 0.2])
        with pytest.raises(ValueError, match="different couplings"):
            models.solve_cl31(h)

    @pytest.mark.parametrize("c", [[0.0, 0.0, 0.0], [0.5, -0.1, 0.2]])
    def test_scalar_block_part_raises(self, c):
        # H + 0.3: on 1 and I the shift reads as an e3 component of a and d
        h = cl31_h([0.1, 0.2, 0.3], c, [0.0, 0.4, -0.2], shift=0.3)
        with pytest.raises(ValueError, match="Pauli-block form"):
            models.solve_cl31(h)

    @pytest.mark.parametrize("c", [[0.0, 0.0, 0.0], [0.5, -0.1, 0.2]])
    def test_scalar_block_part_near_the_gate_raises(self, c):
        # a shift of 1e-8 leaves residuals of about 1e-8, past the gate at
        # 1e-10 of the largest |E|
        h = cl31_h([0.1, 0.2, 0.3], c, [0.0, 0.4, -0.2], shift=1e-8)
        with pytest.raises(ValueError, match="Pauli-block form"):
            models.solve_cl31(h)

    def test_outer_bands_near_c_zero_take_the_odd_sector(self):
        # at k = 1e-4 phi+ all but vanishes on the outer bands: their even
        # sector's t is below _SINGULAR_TOL of the odd one's, so their psi
        # is I R + phi+, whose b block is the unit rotor R; the inner bands
        # stay even, so the stack holds both sectors
        params = ModelParams("bilayer", kx=1e-4, ky=0.0, gamma1=1.0, U=0.2)
        sols = models.solve(params)
        for s in (sols[0], sols[3]):
            assert s.residual <= 1e-15
            assert abs(np.linalg.norm(s.spinor.coeff_vector()[4:]) - 1.0) <= 1e-12
        for s in (sols[1], sols[2]):
            assert abs(np.linalg.norm(s.spinor.coeff_vector()[:4]) - 1.0) <= 1e-12

    def test_stacked_rotor_to_is_the_single_call(self):
        # the half turn below the e1e2 plane is a per-row mask on a stack
        rng = np.random.default_rng(8)
        rows = rng.standard_normal((40, 3))
        rows[::2, 2] = -np.abs(rows[::2, 2])
        rows[-1] = [0.0, 0.0, -1.0]
        rows[-2] = [1e-6, 0.0, -1.0]
        targets = np.array([Multivector.vector(CL31, v / np.linalg.norm(v)).coeffs
                            for v in rows])
        stack = models._rotor_to(Multivector._wrap(CL31, targets)).coeffs
        for target, rotor in zip(targets, stack):
            single = models._rotor_to(Multivector(CL31, target)).coeffs
            assert rotor.tobytes() == single.tobytes()

    def test_higher_grade_block_part_raises(self):
        # psi e12 is i psi: H(1) gains e12, so <H(1)>_+ e3 gains e123
        base = cl31_h([0.1, 0.2, 0.3], [0.5, 0.0, 0.1], [0.0, 0.4, -0.2])
        e12 = Multivector.blade(CL31, 0b0011)
        h = lambda psi: Spinor(base(psi).mv + 0.3 * (psi.mv * e12))
        with pytest.raises(ValueError, match="scalar, e4 or higher-grade"):
            models.solve_cl31(h)

    @pytest.mark.parametrize("j", [-300, -200, 200, 300, 600])
    def test_power_of_two_scaling_leaves_the_bits(self, j):
        # past 2**250 the levels run on inputs scaled by a power of two, which
        # is exact: the energies are those of the unscaled point, times 2**j
        rng = random.Random(j)
        for _ in range(50):
            k, u, g1 = (rng.uniform(0.01, 5.0) for _ in range(3))
            scaled = bilayer_spectrum(math.ldexp(k, j), math.ldexp(u, j), math.ldexp(g1, j))
            assert scaled == [math.ldexp(e, j) for e in bilayer_spectrum(k, u, g1)]


class TestTwoAtoms:
    def test_level_structure_345(self):
        sols = models.solve(ModelParams("atoms", omega=3.0, Gamma=4.0))
        assert [s.energy for s in sols] == pytest.approx([-5.0, -4.0, 4.0, 5.0])
        assert all(s.residual <= 1e-12 for s in sols)

    def test_even_rotors(self):
        sols = models.solve(ModelParams("atoms", omega=3.0, Gamma=4.0))
        by_label = {s.band_label: s for s in sols}
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        plus = Multivector.scalar(CL31, inv_sqrt2) + inv_sqrt2 * Multivector.blade(
            CL31, E23_MASK
        )
        minus = Multivector.scalar(CL31, inv_sqrt2) - inv_sqrt2 * Multivector.blade(
            CL31, E23_MASK
        )
        # (1 + e23)/sqrt2 carries E = -Gamma, its partner E = +Gamma
        assert by_label["even-1"].energy == pytest.approx(-4.0)
        assert by_label["even-1"].spinor.mv.approx_eq(plus)
        assert by_label["even-2"].spinor.mv.approx_eq(minus)
        assert by_label["even-1"].target_vector == pytest.approx([0.0, 1.0, 0.0, 0.0])

    def test_odd_spinors_are_pseudoscalar_carried(self):
        omega, gamma = 3.0, 4.0
        root = 5.0
        ahat = np.array([0.0, -gamma / root, omega / root, 0.0])
        for s in models.solve(ModelParams("atoms", omega=omega, Gamma=gamma)):
            if not s.band_label.startswith("odd"):
                continue
            even, odd = spatial_parts(s.spinor.mv)
            assert even.norm() <= 1e-14
            # carrier target flips against the energy sign
            expected = -np.sign(s.energy) * ahat
            assert s.target_vector == pytest.approx(list(expected))

    def test_symmetric_limit(self):
        sols = models.solve(ModelParams("atoms", omega=0.0, Gamma=1.0))
        assert [s.energy for s in sols] == pytest.approx([-1.0, -1.0, 1.0, 1.0])

    def test_uncoupled_limit(self):
        sols = models.solve(ModelParams("atoms", omega=1.0, Gamma=0.0))
        evens = [s for s in sols if s.band_label.startswith("even")]
        odds = [s for s in sols if s.band_label.startswith("odd")]
        assert all(s.degenerate for s in evens)
        assert [s.energy for s in evens] == pytest.approx([0.0, 0.0])
        assert sorted(s.energy for s in odds) == pytest.approx([-1.0, 1.0])

    def test_near_uncoupled_keeps_the_split_energies(self):
        sols = models.solve(ModelParams("atoms", omega=1.0, Gamma=1e-11))
        assert [s.energy for s in sols] == [-1.0, -1e-11, 1e-11, 1.0]
        assert [s.band_label for s in sols] == ["odd-1", "even-1", "even-2", "odd-2"]
        assert [s.degenerate for s in sols] == [False, True, True, False]

    def test_fully_degenerate_rejected(self):
        with pytest.raises(DegenerateError):
            models.solve(ModelParams("atoms", omega=0.0, Gamma=0.0))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-10.0, 10.0, allow_nan=False), min_size=8, max_size=8),
           st.floats(-3.0, 3.0, allow_nan=False), st.floats(-3.0, 3.0, allow_nan=False))
    def test_e34_conjugation_is_conjugated_inversion(self, coeffs, omega, gamma):
        # e34 psi e34 == e3 psibar e3 on every Cl(3,1) spinor, which makes
        # h_two_atoms the e34 form of its docstring
        psi = Spinor.from_coeff_vector("cl31", coeffs).mv
        e2, e3, e4 = (Multivector.basis_vector(CL31, i) for i in (2, 3, 4))
        e34 = e3 * e4
        lhs = e34 * psi * e34
        assert (lhs - e3 * spatial_inversion(psi) * e3).norm() <= 1e-12 * max(
            1.0, psi.norm())
        e34_form = (-(omega / 2.0) * lhs + (omega / 2.0) * (e3 * psi * e3)
                    - gamma * (e2 * psi * e3))
        h = h_two_atoms(Spinor(psi), omega, gamma).mv
        assert (h - e34_form).norm() <= 1e-12 * max(1.0, psi.norm())

    def test_h_even_sector_eigenvalue(self):
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        plus = Spinor(
            Multivector.scalar(CL31, inv_sqrt2)
            + inv_sqrt2 * Multivector.blade(CL31, E23_MASK)
        )
        out = h_two_atoms(plus, 2.0, 0.7)
        assert out.mv.approx_eq(-0.7 * plus.mv)


#: bilayer parameters, with signed zeros, subnormal, tiny and large values
bilayer_value = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e6, -1e6]),
    st.floats(-1e12, 1e12, allow_nan=False),
)



def even_target(psi: Spinor) -> np.ndarray:
    """psi+ e3 ~psi+ / |psi+|^2 of the inversion-even part psi+."""
    even = spatial_parts(psi.mv)[0]
    return (even * _E3_31 * ~even).vector_coords() / (even * ~even).scalar_part()


class TestBilayer:
    def test_leaking_hamiltonian_raises_on_first_use(self, monkeypatch):
        real = models.h_bilayer

        def leaky(psi, params):
            out = real(psi, params).mv
            return Spinor(out + params.U * Multivector.basis_vector(CL31, 1))

        monkeypatch.setattr(models, "h_bilayer", leaky)
        with pytest.raises(ValueError, match="leaves the spinor subspace"):
            models.solve(ModelParams("bilayer", kx=0.5, gamma1=0.4, U=0.2))

    def test_gamma_term_vanishes_on_even(self):
        params = ModelParams("bilayer", kx=0.4, ky=0.1, gamma1=0.9, U=0.0)
        psi = Spinor.from_coeff_vector("cl31", [1.0, 0.2, -0.1, 0.3, 0, 0, 0, 0])
        no_coupling = ModelParams("bilayer", kx=0.4, ky=0.1, gamma1=0.0, U=0.0)
        assert h_bilayer(psi, params).mv.approx_eq(h_bilayer(psi, no_coupling).mv)

    def test_bias_on_identity(self):
        params = ModelParams("bilayer", kx=0.0, ky=0.0, gamma1=0.0, U=1.0, eta=1)
        psi = Spinor(Multivector.scalar(CL31, 1.0))
        assert h_bilayer(psi, params).mv.approx_eq(Multivector.scalar(CL31, 1.0))

    def test_spectrum_at_k0(self):
        u, g1 = 0.1, 0.4
        expect = sorted(
            [-math.sqrt(u * u + g1 * g1), -u, u, math.sqrt(u * u + g1 * g1)]
        )
        assert bilayer_spectrum(0.0, u, g1) == pytest.approx(expect)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, 6.0).map(lambda e: 10.0 ** e))
    def test_low_band_at_origin_for_any_coupling(self, gamma1):
        # the low-band radicand gamma1**2/2 - 0.5*sqrt(gamma1**4) is 0 up to a
        # rounding error of a few ulp(gamma1**2): no negative radicand
        energies = bilayer_spectrum(0.0, 0.0, gamma1)
        assert energies[3] == -energies[0] == pytest.approx(gamma1, rel=1e-15)
        assert max(-energies[1], energies[2]) <= 1e-7 * gamma1

    @pytest.mark.parametrize("k, u, g1", [
        (1e-4, 0.0, 0.4), (1e-5, 1e-6, 1.0), (1e-3, 1e-4, 0.4), (1e-6, 0.0, 1e3)])
    def test_low_band_to_the_last_digit(self, k, u, g1):
        # sqrt(B/2 - R) lost up to all of these digits; E-^2 = C / E+^2 keeps them
        with localcontext() as ctx:
            ctx.prec = 60
            k2, u2, g2 = (Decimal(x) ** 2 for x in (k, u, g1))
            half_b = k2 + u2 + g2 / 2
            low = (half_b - (half_b ** 2 - (k2 - u2) ** 2 - u2 * g2).sqrt()).sqrt()
        energies = bilayer_spectrum(k, u, g1)
        assert energies[2] == -energies[1]
        assert abs(Decimal(energies[2]) - low) <= Decimal(1e-15) * low
        sols = models.solve(ModelParams("bilayer", kx=k, U=u, gamma1=g1))
        assert [s.energy for s in sols] == energies

    def test_spectrum_even_in_energy(self):
        es = bilayer_spectrum(1.3, 0.25, 0.6)
        assert es[0] == pytest.approx(-es[3]) and es[1] == pytest.approx(-es[2])

    def test_quantization_residual_at_roots(self):
        k, u, g1 = 1.0, 0.2, 0.5
        for energy in bilayer_spectrum(k, u, g1):
            assert abs(bilayer_quantization_residual(energy, k, u, g1)) <= 1e-10

    def test_quantization_residual_indeterminate(self):
        with pytest.raises(ValueError):
            bilayer_quantization_residual(0.0, 1.0, 0.2, 0.5)
        for args in ((0.7, 1.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0), (1e-9, 1e-8, 0.0, 0.0)):
            with pytest.raises(ValueError, match="indeterminate"):
                bilayer_quantization_residual(*args)

    def test_quantization_residual_at_small_energy_is_determinate(self):
        # denom / s^2 = 4e-10, far above the 1e-14 bound: ahat^2 ~ 0
        assert bilayer_quantization_residual(1e-5, 1.0, 1.0, 0.0) == pytest.approx(-1.0)

    def test_quantization_residual_does_not_depend_on_units(self):
        # the indeterminate test is relative to the point's energy^4 scale,
        # so a regular point scaled down keeps its residuals
        k, u, g1 = 0.5, 0.2, 0.4
        unit = [bilayer_quantization_residual(e, k, u, g1)
                for e in bilayer_spectrum(k, u, g1)]
        assert max(map(abs, unit)) <= 2.3e-16
        for c in (1e-6, 1e-8):
            scaled = [bilayer_quantization_residual(e, c * k, c * u, c * g1)
                      for e in bilayer_spectrum(c * k, c * u, c * g1)]
            assert scaled == pytest.approx(unit, abs=1e-15)

    def test_mexican_hat_location(self):
        u, g1 = 0.3, 0.4
        kstar = bilayer_mexican_hat_k(u, g1)
        assert kstar > 0.0
        band = lambda k: bilayer_spectrum(k, u, g1)[2]
        eps = 1e-5
        assert band(kstar) < band(kstar + eps)
        assert band(kstar) < band(kstar - eps)
        assert band(kstar) < band(0.0)

    def test_mexican_hat_undefined_flat_case(self):
        with pytest.raises(ValueError):
            bilayer_mexican_hat_k(0.0, 0.0)

    def test_solver_contracts(self):
        params = ModelParams("bilayer", kx=0.5, ky=0.0, gamma1=0.4, U=0.0, eta=1)
        sols = models.solve(params)
        assert [s.energy for s in sols] == pytest.approx(
            bilayer_spectrum(0.5, 0.0, 0.4)
        )
        for s in sols:
            assert s.residual <= 1e-10
            if not s.degenerate:
                assert np.linalg.norm(s.target_vector) == pytest.approx(1.0)

    def test_valley_symmetry(self):
        base = dict(kx=0.7, ky=-0.2, gamma1=0.5, U=0.3)
        plus = models.solve(ModelParams("bilayer", eta=1, **base))
        minus = models.solve(ModelParams("bilayer", eta=-1, **base))
        assert [s.energy for s in plus] == pytest.approx([s.energy for s in minus])

    def test_even_part_target_satisfies_quantization(self):
        params = ModelParams("bilayer", kx=1.0, ky=0.3, gamma1=0.5, U=0.2, eta=1)
        k = params.k
        for s in models.solve(params):
            if s.degenerate:
                continue
            assert abs(bilayer_quantization_residual(s.energy, k, 0.2, 0.5)) <= 1e-10

    def test_verify_draws_meet_the_eigenspinor_contracts(self):
        rng = random.Random(42)
        for _ in range(1000):
            params = cli._draw_params("bilayer", rng)
            sols = models.solve(params)
            assert [s.energy.hex() for s in sols] == [
                e.hex() for e in bilayer_spectrum(params.k, params.U, params.gamma1)]
            for s in sols:
                assert not s.degenerate
                assert s.residual <= 1e-10 * max(1.0, abs(s.energy))
                # the rotor is the even part: its target is psi+ e3 ~psi+
                assert np.max(np.abs(s.target_vector - even_target(s.spinor))) <= 1e-12
                assert np.linalg.norm(s.target_vector) == pytest.approx(1.0, abs=1e-15)

    def test_float_k_gives_floats_with_the_bits_of_the_array_call(self):
        rng = random.Random(23)
        for _ in range(200):
            params = cli._draw_params("bilayer", rng)
            ks = [params.k, -params.k, 0.0, math.ldexp(params.k, 260),
                  math.ldexp(params.k, -260)]
            bands = bilayer_spectrum(np.array(ks), params.U, params.gamma1)
            for row, k in enumerate(ks):
                energies = bilayer_spectrum(k, params.U, params.gamma1)
                assert all(type(e) is float for e in energies)
                assert [e.hex() for e in energies] == [band[row].hex() for band in bands]

    @pytest.mark.parametrize("value", [0.0, -0.0, 5e-324, 1e-300, 1e-11])
    def test_vanishing_hamiltonian_is_a_singular_point(self, value):
        with pytest.raises(DegenerateError, match="H = 0"):
            models.solve(ModelParams("bilayer", kx=value, ky=value, gamma1=value,
                                      U=value))

    @pytest.mark.parametrize("eta", [1, -1])
    def test_k0_dimer_bands_take_their_rotor_in_the_odd_sector(self, eta):
        u, g1 = 0.2, 0.4
        sols = models.solve(ModelParams("bilayer", gamma1=g1, U=u, eta=eta))
        root = math.hypot(u, g1)
        for s in (sols[0], sols[3]):
            assert not s.degenerate and abs(s.energy) == pytest.approx(root, rel=1e-15)
            assert np.all(s.spinor.coeff_vector()[:4] == 0.0)
            # psi = I R with R a rotor; its target is R e3 ~R = sign(E) d/|d|
            carrier = -(pseudoscalar(CL31) * s.spinor.mv)
            assert (carrier * ~carrier).approx_eq(Multivector.scalar(CL31, 1.0), 1e-15)
            target = (carrier * _E3_31 * ~carrier).vector_coords()
            assert np.max(np.abs(s.target_vector - target)) <= 1e-15
            d = np.array([0.0, g1, -eta * u, 0.0]) / root
            assert np.max(np.abs(s.target_vector - math.copysign(1.0, s.energy) * d)) <= 1e-15
            assert s.residual <= 1e-15

    @pytest.mark.parametrize("kx", [0.0, 1e-9, 1e-5])
    def test_targets_at_or_near_minus_e3_use_a_half_turn(self, kx):
        # at k = 0 the bands E = -+U have targets eta U e3 / E = -+e3, and
        # rotor_from_vectors rejects e3 -> -e3
        sols = models.solve(ModelParams("bilayer", kx=kx, gamma1=0.4, U=0.2))
        for s in sols[1:3]:
            assert s.target_vector[2] == pytest.approx(math.copysign(1.0, s.energy),
                                                       abs=1e-8)
            assert np.max(np.abs(s.target_vector - even_target(s.spinor))) <= 1e-15
            assert s.residual <= 1e-15

    @pytest.mark.parametrize("params, crossing", [
        # k = gamma1 = 0: the layers' Dirac points at -U and U; at k = 0 the
        # sectors decouple, and each carries its own rotor pair at -+|U|
        (dict(U=1.0), [False] * 4),
        (dict(U=-0.3, eta=-1), [False] * 4),
        # k = U = 0: the even block a = eta U e3 vanishes, the pair A1, B2 at E = 0
        (dict(gamma1=0.4), [False, True, True, False]),
        (dict(gamma1=128.74039035465384), [False, True, True, False]),
    ])
    def test_crossings_are_degenerate_bands_without_spinor(self, params, crossing):
        sols = models.solve(ModelParams("bilayer", **params))
        assert [s.degenerate for s in sols] == crossing
        for s in sols:
            if s.degenerate:
                assert s.spinor is None and s.target_vector is None
            else:
                assert s.residual <= 1e-15

    @pytest.mark.parametrize("gamma1", [0.0, 5e-4, 1e-3, 2e-3, 0.1])
    def test_simple_levels_on_the_line_k_2u(self, gamma1):
        # k^2 = 4 U^2 + 2 gamma1^2: the even complement E^2 - |d|^2 vanishes on
        # the inner bands, and for gamma1 -> 0 the odd one E^2 - U^2 as well
        u = 1.0
        kx = math.sqrt(4.0 * u * u + 2.0 * gamma1 * gamma1)
        sols = models.solve(ModelParams("bilayer", kx=kx, ky=0.0, gamma1=gamma1, U=u))
        for s in sols:
            assert not s.degenerate
            assert s.residual <= 1e-15 * max(1.0, abs(s.energy))
            assert np.max(np.abs(s.target_vector - even_target(s.spinor))) <= 1e-15

    @pytest.mark.parametrize("kx", [1e-12, 1e-9, 1e-6])
    def test_near_crossing_is_solved_to_rounding(self, kx):
        # k = gamma1 = 0 is a crossing; a little off it the levels are simple
        # and the complements, taken from the closed form, keep full accuracy
        sols = models.solve(ModelParams("bilayer", kx=kx, gamma1=1e-4, U=1.0))
        assert [s.degenerate for s in sols] == [False] * 4
        assert all(s.residual <= 1e-15 for s in sols)

    @pytest.mark.parametrize("kx", [1e6, 1e60, 1e76])
    def test_scale_free(self, kx):
        # the reduction runs on H / span: no power of the scale overflows
        sols = models.solve(ModelParams("bilayer", kx=kx, ky=0.3 * kx,
                                         gamma1=0.4 * kx, U=0.2 * kx))
        for s in sols:
            assert not s.degenerate
            assert s.residual <= 1e-15 * abs(s.energy)

    def test_energy_off_the_closed_form_fails_the_quantization_check(self, monkeypatch):
        real = models._cl31_levels

        def shifted(*invariants):
            lo, hi, t_even, t_odd = real(*invariants)
            return lo + 1e-6, hi, t_even, t_odd

        monkeypatch.setattr(models, "_cl31_levels", shifted)
        with pytest.raises(ValueError, match="quantization condition"):
            models.solve(ModelParams("bilayer", kx=0.5, gamma1=0.4, U=0.2))

    @settings(max_examples=300, deadline=None)
    @given(bilayer_value, bilayer_value, bilayer_value, bilayer_value,
           st.sampled_from([1, -1]))
    # |c| below H's resolution: the reduction's t underflowed, 1 / t overflowed
    @example(0.0, 5e-324, 3.218819426733157e-148, 3051683.0, 1)
    @example(0.0, 1e-300, 1e-160, 1.0, -1)
    def test_any_point_solves_or_is_singular(self, kx, ky, gamma1, u, eta):
        params = ModelParams("bilayer", kx=kx, ky=ky, gamma1=gamma1, U=u, eta=eta)
        try:
            sols = models.solve(params)
        except DegenerateError:
            assert max(params.k, abs(u), abs(gamma1)) <= DEGENERACY_TOL
            return
        scale = max(1.0, max(abs(s.energy) for s in sols))
        for s in sols:
            assert math.isfinite(s.energy) and s.residual <= 1e-12 * scale
            if not s.degenerate:
                assert np.linalg.norm(s.target_vector) == pytest.approx(1.0, abs=1e-15)
                assert np.all(np.isfinite(s.spinor.coeff_vector()))


#: k components: signed zeros, subnormal, tiny and huge values
k_value = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300]),
    st.floats(-1e6, 1e6, allow_nan=False),
)
spinor_coeffs = st.lists(st.floats(-10.0, 10.0, allow_nan=False), min_size=16, max_size=16)


def h_outcome(build):
    """The bytes of the spinor build() returns, or its ValueError's message."""
    try:
        with np.errstate(all="ignore"):  # k^2 overflows at k = 1e300
            return build().mv.coeffs.tobytes()
    except ValueError as err:
        return str(err)


class TestKVectorInOneCall:
    """k is built in one numpy call, not as kx e1 + ky e2 from blades, whose
    zeros may be -0.0: the sign of a zero reaches no product, so every
    Hamiltonian k enters keeps its bytes."""

    @staticmethod
    def blade_k(kx, ky):
        e1, e2 = (Multivector.basis_vector(CL30, i) for i in (1, 2))
        return kx * e1 + ky * e2

    def test_only_the_signs_of_zeros_differ(self):
        old, new = self.blade_k(-1.0, -2.0).coeffs, models._k_vector(-1.0, -2.0).coeffs
        assert np.array_equal(old, new) and old.tobytes() != new.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(k_value, k_value, st.floats(-3.0, 3.0, allow_nan=False), spinor_coeffs)
    def test_cl30_hamiltonians_keep_their_bytes(self, kx, ky, alphaR, coeffs):
        e3, e12 = Multivector.basis_vector(CL30, 3), Multivector.blade(CL30, 0b011)
        k = self.blade_k(kx, ky)
        rows = [Spinor.from_coeff_vector("cl30", coeffs[i:i + 4]).mv.coeffs for i in (0, 4)]
        for psi in (Spinor(Multivector.scalar(CL30, 1.0)), Spinor(Multivector(CL30, rows[0])),
                    Spinor(Multivector._wrap(CL30, np.array(rows)))):
            assert h_outcome(lambda: h_monolayer(psi, kx, ky)) == h_outcome(
                lambda: Spinor(k * psi.mv * e3))
            assert h_outcome(lambda: h_qw(psi, kx, ky, alphaR)) == h_outcome(
                lambda: Spinor(((kx * kx + ky * ky) / 2.0) * psi.mv
                               + alphaR * (e12 * k * psi.mv * e3)))

    @settings(max_examples=200, deadline=None)
    @given(k_value, k_value, bilayer_value, bilayer_value, st.sampled_from([1, -1]),
           spinor_coeffs)
    def test_h_bilayer_keeps_its_bytes(self, kx, ky, gamma1, U, eta, coeffs):
        params = ModelParams("bilayer", kx=kx, ky=ky, gamma1=gamma1, U=U, eta=eta)
        e2, e3, i31 = Multivector.basis_vector(CL31, 2), _E3_31, pseudoscalar(CL31)
        k = Multivector.vector(CL31, [kx, ky, 0.0, 0.0])
        rows = [Spinor.from_coeff_vector("cl31", coeffs[i:i + 8]).mv.coeffs for i in (0, 8)]
        for psi in (Spinor(Multivector.scalar(CL31, 1.0)), Spinor(Multivector(CL31, rows[0])),
                    Spinor(Multivector._wrap(CL31, np.array(rows)))):
            odd = spatial_parts(psi.mv)[1]
            assert h_outcome(lambda: h_bilayer(psi, params)) == h_outcome(lambda: Spinor(
                (float(eta) * (k * psi.mv * i31) + -gamma1 * (e2 * odd)
                 + float(eta) * U * (e3 * psi.mv)) * e3))


class TestExpectationEnergy:
    def test_eigenspinors_give_eigenvalues(self):
        cases = [
            (ModelParams("monolayer", kx=1.2, ky=-0.7),
             models.solve(ModelParams("monolayer", kx=1.2, ky=-0.7))),
            (ModelParams("qw", kx=0.3, ky=0.9, alphaR=0.4),
             models.solve(ModelParams("qw", kx=0.3, ky=0.9, alphaR=0.4))),
            (ModelParams("atoms", omega=1.1, Gamma=0.6),
             models.solve(ModelParams("atoms", omega=1.1, Gamma=0.6))),
        ]
        bparams = ModelParams("bilayer", kx=0.8, ky=0.2, gamma1=0.4, U=0.15, eta=1)
        cases.append((bparams, models.solve(bparams)))
        for params, sols in cases:
            for s in sols:
                if s.spinor is None:
                    continue
                assert expectation_energy(s.spinor, params) == pytest.approx(
                    s.energy, abs=1e-10
                )

    def test_value_does_not_depend_on_the_spinor_scale(self):
        cases = [ModelParams("monolayer", kx=1.2, ky=-0.7),
                 ModelParams("bilayer", kx=0.8, ky=0.2, gamma1=0.4, U=0.15, eta=1)]
        for params in cases:
            for s in models.solve(params):
                values = [expectation_energy(Spinor(c * s.spinor.mv), params)
                          for c in (1.0, 1e-8, 1e8, 1e-7)]
                assert values == pytest.approx([s.energy] * 4, rel=1e-14, abs=0.0)

    def test_null_spinor_rejected(self):
        with pytest.raises(ValueError):
            expectation_energy(
                Spinor(Multivector.zero(CL30)), ModelParams("monolayer", kx=1.0)
            )


def _spectrum_at(spec, x, params):
    """The spectrum's energies at the single sweep value x, as floats."""
    return [band.item() for band in spec.spectrum(np.array([x]), params)]


def _check_array_rows(spec, params, x):
    """The array call on the sweep values x, -x and 0 gives, row by row, the
    bits of the call at that value alone and, where the point is not
    singular, of solve."""
    xs = [x, -x, 0.0]
    bands = spec.spectrum(np.array(xs), params)
    assert all(band.shape == (3,) for band in bands)
    for row, value in enumerate(xs):
        point = dataclasses.replace(params, **(
            {"kx": value, "ky": 0.0} if spec.sweep == "k" else {spec.sweep: value}))
        energies = [band[row].hex() for band in bands]
        assert energies == [e.hex() for e in _spectrum_at(spec, value, point)]
        try:
            solved = sorted(s.energy for s in models.solve(point))
        except DegenerateError:
            continue
        assert energies == [e.hex() for e in solved]


class TestModelRegistry:
    def test_paper_order_and_algebras(self):
        assert list(MODELS) == ["monolayer", "qw", "atoms", "bilayer"]
        assert list(HAMILTONIANS) == list(MODELS)
        assert [spec.algebra for spec in MODELS.values()] == [
            "cl30", "cl30", "cl31", "cl31"]

    @pytest.mark.parametrize("model", list(MODELS))
    def test_spectrum_is_the_solver_spectrum_bit_for_bit(self, model):
        # the float call at verify's draws; the array call at every tenth
        # draw, also with each coupling 0 and with all fields scaled by
        # 2**j on both sides of the bilayer levels' 2**+-250 rescaling
        spec, rng = MODELS[model], random.Random(17)
        for i in range(200):
            params = cli._draw_params(model, rng)
            x = getattr(params, spec.sweep)
            solved = sorted(s.energy for s in models.solve(params))
            assert [e.hex() for e in _spectrum_at(spec, x, params)] == [
                e.hex() for e in solved]
            if i % 10:
                continue
            for zero in (None, *spec.couplings):
                point = params if zero is None else dataclasses.replace(params, **{zero: 0.0})
                for j in (0, 240, 260, -240, -260):
                    scaled = dataclasses.replace(point, **{
                        name: math.ldexp(getattr(point, name), j)
                        for name in spec.fields if name != "eta"})
                    _check_array_rows(spec, scaled, math.ldexp(x, j))

    @pytest.mark.parametrize("model, coupling, bound", [
        ("qw", "alphaR", 1e-12), ("atoms", "Gamma", DEGENERACY_TOL)])
    def test_spectrum_is_the_solver_spectrum_on_degenerate_lines(
            self, model, coupling, bound):
        spec, rng = MODELS[model], random.Random(18)
        for i in range(200):
            value = ([0.0, -0.0, bound, -bound][i] if i < 4
                     else rng.uniform(-bound, bound))
            params = dataclasses.replace(cli._draw_params(model, rng),
                                         **{coupling: value})
            x = getattr(params, spec.sweep)
            sols = models.solve(params)
            assert sum(s.degenerate for s in sols) == 2
            assert [e.hex() for e in _spectrum_at(spec, x, params)] == [
                s.energy.hex() for s in sols]

    @pytest.mark.parametrize("model", list(MODELS))
    def test_spectrum_is_ascending_for_negative_sweep_values(self, model):
        spec, rng = MODELS[model], random.Random(19)
        for x in [-0.0, -1e-12, -1.0] + [-rng.uniform(0.01, 5.0) for _ in range(50)]:
            energies = _spectrum_at(spec, x, cli._draw_params(model, rng))
            assert energies == sorted(energies)

    @pytest.mark.parametrize("model", list(MODELS))
    def test_each_eigenspinor_is_built_once(self, monkeypatch, model):
        # Cl(3,0): H(1), from which solve_cl30 reads h0 and h, then per band
        # one Spinor for the rotor eigenspinor and one for H applied to it.
        # Cl(3,1): H applied to the stack [1, I], from which solve_cl31 reads
        # a, c and d, then one Spinor for the stack of eigenspinors and one
        # for H applied to it
        builds = []
        monkeypatch.setattr(models, "Spinor",
                            lambda mv: builds.append(mv) or Spinor(mv))
        sols = models.solve(cli._draw_params(model, random.Random(20)))
        assert len(builds) == (2 * len(sols) + 1 if MODELS[model].algebra == "cl30" else 3)
        assert all(type(s.spinor) is Spinor for s in sols)

    @pytest.mark.parametrize("model", list(MODELS))
    def test_h_applications_per_solve(self, monkeypatch, model):
        # Cl(3,0): the read-off and one residual per band; Cl(3,1): the
        # read-off on [1, I] and all four residuals on one stack
        spec, h = MODELS[model], HAMILTONIANS[model]
        calls = []
        monkeypatch.setitem(HAMILTONIANS, model,
                            lambda psi, p: calls.append(psi) or h(psi, p))
        sols = models.solve(cli._draw_params(model, random.Random(20)))
        assert all(s.spinor is not None for s in sols)
        assert len(calls) == (3 if spec.algebra == "cl30" else 2)

    def test_entries_call_the_module_functions(self, monkeypatch):
        # patching a module attribute (as the benchmark tracer does) must
        # reach the registry and solve, which picks the solver by algebra
        monkeypatch.setattr(models, "solve_cl30", lambda h, energies: ("cl30", energies))
        monkeypatch.setattr(models, "solve_cl31", lambda h: ("cl31", h(None)))
        monkeypatch.setattr(models, "h_two_atoms", lambda psi, w, g: ("h", w, g))
        assert models.solve(ModelParams("qw", kx=3.0, ky=4.0, alphaR=0.5)) == (
            "cl30", [10.0, 15.0])
        assert models.solve(ModelParams("atoms", omega=4.0, Gamma=5.0)) == (
            "cl31", ("h", 4.0, 5.0))
        assert HAMILTONIANS["atoms"](None, ModelParams("atoms", omega=4.0, Gamma=5.0)) == (
            "h", 4.0, 5.0)
        # and patching a spectra attribute must reach its registry entry
        monkeypatch.setattr(spectra, "bilayer_spectrum", lambda k, u, g1: ("bands", k, u, g1))
        assert MODELS["bilayer"].spectrum(2.0, ModelParams("bilayer", U=0.5, gamma1=0.25)) == (
            "bands", 2.0, 0.5, 0.25)
