"""Model Hamiltonians and their rotor-equation eigensolvers."""

import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotoreig import cli, models
from rotoreig.algebra import CL30, CL31, Multivector, pseudoscalar, spatial_inversion
from rotoreig.models import (
    DEGENERACY_TOL,
    MODELS,
    DegenerateError,
    EigenSolution,
    ModelParams,
    bilayer_mexican_hat_k,
    bilayer_operator,
    bilayer_quantization_residual,
    bilayer_spectrum,
    expectation_energy,
    h_bilayer,
    h_monolayer,
    h_qw,
    h_two_atoms,
    pseudospin_average,
    solve_bilayer,
    solve_monolayer,
    solve_qw,
    solve_two_atoms,
    spin_average,
)
from rotoreig.oracle import ga_operator_matrix
from rotoreig.spinors import Spinor, even_odd_split


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

    def test_json_lists_model_fields_only(self):
        d = ModelParams("qw", kx=1.0, ky=0.0, alphaR=0.3).to_json_dict()
        assert set(d) == {"model", "kx", "ky", "alphaR"}


class TestMonolayer:
    def test_h_on_identity(self):
        psi = Spinor(Multivector.scalar(CL30, 1.0))
        out = h_monolayer(psi, 1.0, 0.0)
        assert out.mv.approx_eq(Multivector.blade(CL30, E13_MASK))

    def test_unit_k_eigenspinors(self):
        sols = solve_monolayer(1.0, 0.0)
        assert [s.energy for s in sols] == pytest.approx([-1.0, 1.0])
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        plus = mv30({0: inv_sqrt2, E13_MASK: inv_sqrt2})
        minus = mv30({0: inv_sqrt2, E13_MASK: -inv_sqrt2})
        assert sols[1].spinor.mv.approx_eq(plus)
        assert sols[0].spinor.mv.approx_eq(minus)

    def test_345_triangle(self):
        sols = solve_monolayer(3.0, 4.0)
        assert [s.energy for s in sols] == pytest.approx([-5.0, 5.0])
        assert sols[1].target_vector == pytest.approx([0.6, 0.8, 0.0])
        assert all(s.residual <= 1e-12 for s in sols)
        assert [s.band_label for s in sols] == ["valence", "conduction"]

    def test_dirac_point_rejected(self):
        with pytest.raises(DegenerateError):
            solve_monolayer(0.0, 0.0)

    def test_pseudospin_of_bands(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            kx, ky = rng.standard_normal(2)
            k = math.hypot(kx, ky)
            if k < 1e-3:
                continue
            valence, conduction = solve_monolayer(kx, ky)
            assert pseudospin_average(conduction.spinor) == pytest.approx(
                [kx / k, ky / k, 0.0]
            )
            assert pseudospin_average(valence.spinor) == pytest.approx(
                [-kx / k, -ky / k, 0.0]
            )

    def test_pseudospin_requires_normalization(self):
        with pytest.raises(ValueError):
            pseudospin_average(Spinor(Multivector.scalar(CL30, 2.0)))

    def test_pseudospin_identity(self):
        psi = Spinor(Multivector.scalar(CL30, 1.0))
        assert pseudospin_average(psi) == pytest.approx([0.0, 0.0, 1.0])


class TestQuantumWell:
    def test_energies_k10(self):
        sols = solve_qw(1.0, 0.0, 0.5)
        assert [s.energy for s in sols] == pytest.approx([0.0, 1.0])

    def test_energies_k01(self):
        sols = solve_qw(0.0, 1.0, 0.1)
        assert [s.energy for s in sols] == pytest.approx([0.4, 0.6])

    def test_residuals_and_rotors(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            kx, ky = rng.standard_normal(2)
            alpha = rng.uniform(0.05, 2.0)
            if math.hypot(kx, ky) < 1e-3:
                continue
            for s in solve_qw(kx, ky, alpha):
                assert s.residual <= 1e-12
                assert (s.spinor.mv * ~s.spinor.mv).scalar_part() == pytest.approx(1.0)

    def test_spin_perpendicular_to_k(self):
        kx, ky, alpha = 0.8, -0.6, 0.3
        for s in solve_qw(kx, ky, alpha):
            avg = spin_average(s.spinor)
            assert abs(kx * avg[0] + ky * avg[1]) <= 1e-12
            assert abs(avg[2]) <= 1e-12

    def test_spin_directions(self):
        # at k along e2 (phi = pi/2): <s+-> = +-(sin(phi) e1 - cos(phi) e2) = +-e1
        lower, upper = solve_qw(0.0, 1.0, 0.1)
        assert spin_average(upper.spinor) == pytest.approx([1.0, 0.0, 0.0], abs=1e-12)
        assert spin_average(lower.spinor) == pytest.approx([-1.0, 0.0, 0.0], abs=1e-12)

    def test_zero_coupling_degenerate(self):
        sols = solve_qw(1.0, 0.0, 0.0)
        assert all(s.degenerate and s.spinor is None for s in sols)
        assert [s.energy for s in sols] == pytest.approx([0.5, 0.5])

    def test_near_zero_coupling_keeps_the_split_energies(self):
        # degenerate to the rotor map, but the energies and band order are
        # those of the split bands, k^2/2 -+ k alphaR
        sols = solve_qw(1.0, 0.0, -1e-13)
        assert all(s.degenerate and s.spinor is None for s in sols)
        assert [s.energy for s in sols] == [0.5 - 1e-13, 0.5 + 1e-13]
        assert [s.band_label for s in sols] == [
            s.band_label for s in solve_qw(1.0, 0.0, -0.5)]

    def test_zero_k_rejected(self):
        with pytest.raises(DegenerateError):
            solve_qw(0.0, 0.0, 0.5)


class TestTwoAtoms:
    def test_level_structure_345(self):
        sols = solve_two_atoms(3.0, 4.0)
        assert [s.energy for s in sols] == pytest.approx([-5.0, -4.0, 4.0, 5.0])
        assert all(s.residual <= 1e-12 for s in sols)

    def test_even_rotors(self):
        sols = solve_two_atoms(3.0, 4.0)
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
        for s in solve_two_atoms(omega, gamma):
            if not s.band_label.startswith("odd"):
                continue
            even, odd = even_odd_split(s.spinor)
            assert even.mv.norm() <= 1e-14
            # carrier target flips against the energy sign
            expected = -np.sign(s.energy) * ahat
            assert s.target_vector == pytest.approx(list(expected))

    def test_symmetric_limit(self):
        sols = solve_two_atoms(0.0, 1.0)
        assert [s.energy for s in sols] == pytest.approx([-1.0, -1.0, 1.0, 1.0])

    def test_uncoupled_limit(self):
        sols = solve_two_atoms(1.0, 0.0)
        evens = [s for s in sols if s.band_label.startswith("even")]
        odds = [s for s in sols if s.band_label.startswith("odd")]
        assert all(s.degenerate for s in evens)
        assert [s.energy for s in evens] == pytest.approx([0.0, 0.0])
        assert sorted(s.energy for s in odds) == pytest.approx([-1.0, 1.0])

    def test_near_uncoupled_keeps_the_split_energies(self):
        sols = solve_two_atoms(1.0, 1e-11)
        assert [s.energy for s in sols] == [-1.0, -1e-11, 1e-11, 1.0]
        assert [s.band_label for s in sols] == ["odd-1", "even-1", "even-2", "odd-2"]
        assert [s.degenerate for s in sols] == [False, True, True, False]

    def test_fully_degenerate_rejected(self):
        with pytest.raises(DegenerateError):
            solve_two_atoms(0.0, 0.0)

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


@pytest.fixture
def fresh_bilayer_terms():
    """Clear the per-process bilayer term matrices before and after a test."""
    models._bilayer_terms.cache_clear()
    yield
    models._bilayer_terms.cache_clear()


#: bilayer parameters, with signed zeros, subnormal, tiny and large values
bilayer_value = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e6, -1e6]),
    st.floats(-1e12, 1e12, allow_nan=False),
)


class TestBilayer:
    @settings(max_examples=300, deadline=None)
    @given(bilayer_value, bilayer_value, bilayer_value, bilayer_value,
           st.sampled_from([1, -1]))
    def test_operator_bytes_are_the_ga_operator_matrix(self, kx, ky, gamma1, u, eta):
        # signed zeros included: they reach the solver's SVDs
        params = ModelParams("bilayer", kx=kx, ky=ky, gamma1=gamma1, U=u, eta=eta)
        ref = ga_operator_matrix(lambda s: h_bilayer(s, params), "cl31")
        assert bilayer_operator(params).tobytes() == ref.tobytes()

    def test_leaking_hamiltonian_raises_on_first_use(self, monkeypatch,
                                                     fresh_bilayer_terms):
        real = models.h_bilayer

        def leaky(psi, params):
            out = real(psi, params).mv
            return Spinor(out + params.U * Multivector.basis_vector(CL31, 1))

        monkeypatch.setattr(models, "h_bilayer", leaky)
        with pytest.raises(ValueError, match="leaves the spinor subspace"):
            solve_bilayer(ModelParams("bilayer", kx=0.5, gamma1=0.4, U=0.2))

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
        sols = solve_bilayer(params)
        assert [s.energy for s in sols] == pytest.approx(
            bilayer_spectrum(0.5, 0.0, 0.4)
        )
        for s in sols:
            assert s.residual <= 1e-10
            if not s.degenerate:
                assert np.linalg.norm(s.target_vector) == pytest.approx(1.0)

    def test_valley_symmetry(self):
        base = dict(kx=0.7, ky=-0.2, gamma1=0.5, U=0.3)
        plus = solve_bilayer(ModelParams("bilayer", eta=1, **base))
        minus = solve_bilayer(ModelParams("bilayer", eta=-1, **base))
        assert [s.energy for s in plus] == pytest.approx([s.energy for s in minus])

    def test_even_part_target_satisfies_quantization(self):
        params = ModelParams("bilayer", kx=1.0, ky=0.3, gamma1=0.5, U=0.2, eta=1)
        k = params.k
        for s in solve_bilayer(params):
            if s.degenerate:
                continue
            assert abs(bilayer_quantization_residual(s.energy, k, 0.2, 0.5)) <= 1e-10


class TestExpectationEnergy:
    def test_eigenspinors_give_eigenvalues(self):
        cases = [
            (ModelParams("monolayer", kx=1.2, ky=-0.7), solve_monolayer(1.2, -0.7)),
            (ModelParams("qw", kx=0.3, ky=0.9, alphaR=0.4), solve_qw(0.3, 0.9, 0.4)),
            (ModelParams("atoms", omega=1.1, Gamma=0.6), solve_two_atoms(1.1, 0.6)),
        ]
        bparams = ModelParams("bilayer", kx=0.8, ky=0.2, gamma1=0.4, U=0.15, eta=1)
        cases.append((bparams, solve_bilayer(bparams)))
        for params, sols in cases:
            for s in sols:
                if s.spinor is None:
                    continue
                assert expectation_energy(s.spinor, params) == pytest.approx(
                    s.energy, abs=1e-10
                )

    def test_null_spinor_rejected(self):
        with pytest.raises(ValueError):
            expectation_energy(
                Spinor(Multivector.zero(CL30)), ModelParams("monolayer", kx=1.0)
            )


class TestModelRegistry:
    def test_paper_order_and_algebras(self):
        assert list(MODELS) == ["monolayer", "qw", "atoms", "bilayer"]
        assert [spec.algebra for spec in MODELS.values()] == [
            "cl30", "cl30", "cl31", "cl31"]

    @pytest.mark.parametrize("model", list(MODELS))
    def test_spectrum_is_the_solver_spectrum_bit_for_bit(self, model):
        spec, rng = MODELS[model], random.Random(17)
        for _ in range(200):
            params = cli._draw_params(model, rng)
            x = getattr(params, spec.sweep)
            solved = sorted(s.energy for s in spec.solve(params))
            assert [e.hex() for e in spec.spectrum(x, params)] == [
                e.hex() for e in solved]

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
            sols = spec.solve(params)
            assert sum(s.degenerate for s in sols) == 2
            assert [e.hex() for e in spec.spectrum(x, params)] == [
                s.energy.hex() for s in sols]

    @pytest.mark.parametrize("model", list(MODELS))
    def test_spectrum_is_ascending_for_negative_sweep_values(self, model):
        spec, rng = MODELS[model], random.Random(19)
        for x in [-0.0, -1e-12, -1.0] + [-rng.uniform(0.01, 5.0) for _ in range(50)]:
            energies = spec.spectrum(x, cli._draw_params(model, rng))
            assert energies == sorted(energies)

    @pytest.mark.parametrize("model", ["monolayer", "qw", "atoms"])
    def test_each_eigenspinor_is_built_once(self, monkeypatch, model):
        # one Spinor for the rotor eigenspinor and one for H applied to it
        builds = []
        monkeypatch.setattr(models, "Spinor",
                            lambda mv: builds.append(mv) or Spinor(mv))
        sols = MODELS[model].solve(cli._draw_params(model, random.Random(20)))
        assert len(builds) == 2 * len(sols)
        assert all(type(s.spinor) is Spinor for s in sols)

    def test_entries_call_the_module_functions(self, monkeypatch):
        # patching a module attribute (as the benchmark tracer does) must
        # reach the registry
        monkeypatch.setattr(models, "solve_qw", lambda kx, ky, a: ("solve", kx, ky, a))
        monkeypatch.setattr(models, "h_two_atoms", lambda psi, w, g: ("h", w, g))
        assert MODELS["qw"].solve(ModelParams("qw", kx=1.0, ky=2.0, alphaR=3.0)) == (
            "solve", 1.0, 2.0, 3.0)
        assert MODELS["atoms"].h(None, ModelParams("atoms", omega=4.0, Gamma=5.0)) == (
            "h", 4.0, 5.0)
