"""Acceptance suite: nine numbered criteria, one printed pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the summary lines.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from rotoreig import cli
from rotoreig.algebra import CL30, CL31, Multivector, pseudoscalar
from rotoreig.models import h_bilayer, solve
from rotoreig.oracle import (
    cross_check,
    ga_operator_matrix,
    jacobi_eigh,
    matrix_monolayer,
    matrix_qw,
    matrix_two_atoms,
)
from rotoreig.outermorphism import (
    VectorMap,
    apply_outermorphism,
    determinant,
    real_cubic_roots,
    secular_cubic,
)
from rotoreig.rotors import rotate, rotor_from_vectors
from rotoreig.spectra import (
    ModelParams,
    bilayer_mexican_hat_k,
    bilayer_quantization_residual,
    bilayer_spectrum,
)
from rotoreig.spinors import (
    cl31_matrix_rep,
    column_to_spinor,
    ga_action_cl31,
    imaginary_action_cl30,
    pauli_action_cl30,
    pauli_matrix,
    spinor_to_column,
)
from test_golden import GOLDEN


def report(number, title, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number} ({title}): {status} [{detail}]")
    assert ok, f"criterion {number} failed: {detail}"


def random_k(rng):
    k = 10.0 ** rng.uniform(math.log10(0.01), math.log10(5.0))
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return k * math.cos(phi), k * math.sin(phi)


def energy_delta(rotor, oracle):
    return max(
        abs(r - o) / max(1.0, abs(o))
        for r, o in zip(sorted(rotor), sorted(oracle))
    )


def test_criterion_1_monolayer_spectrum_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        kx, ky = random_k(rng)
        rotor = [s.energy for s in solve(ModelParams("monolayer", kx=kx, ky=ky))]
        oracle = jacobi_eigh(matrix_monolayer(kx, ky))
        worst = max(worst, energy_delta(rotor, oracle))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed <= 1.0
    report(1, "monolayer spectrum equivalence",
           ok, f"max delta {worst:.2e}, {elapsed:.2f} s for 1000 points")


def test_criterion_2_quantum_well_spectrum_equivalence():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(1000):
        kx, ky = random_k(rng)
        alpha = rng.uniform(0.01, 2.0)
        rotor = [s.energy for s in solve(ModelParams("qw", kx=kx, ky=ky, alphaR=alpha))]
        oracle = jacobi_eigh(matrix_qw(kx, ky, alpha))
        worst = max(worst, energy_delta(rotor, oracle))
    report(2, "quantum well spectrum equivalence", worst <= 1e-12,
           f"max delta {worst:.2e} over 1000 draws")


def test_criterion_3_two_atoms_spectrum_equivalence():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(1000):
        omega = rng.uniform(0.01, 2.0)
        gamma = rng.uniform(0.01, 2.0)
        rotor = [s.energy for s in solve(ModelParams("atoms", omega=omega, Gamma=gamma))]
        oracle = jacobi_eigh(matrix_two_atoms(omega, gamma))
        worst = max(worst, energy_delta(rotor, oracle))
    report(3, "two-atom spectrum equivalence", worst <= 1e-12,
           f"max delta {worst:.2e} over 1000 draws")


def test_criterion_4_bilayer_spectrum_and_quantization():
    rng = np.random.default_rng(104)
    worst_delta = 0.0
    worst_residual = 0.0
    for _ in range(500):
        kx, ky = random_k(rng)
        u = rng.uniform(0.01, 2.0)
        g1 = rng.uniform(0.01, 2.0)
        eta = int(rng.choice([1, -1]))
        params = ModelParams("bilayer", kx=kx, ky=ky, gamma1=g1, U=u, eta=eta)
        roots = bilayer_spectrum(params.k, u, g1)
        op = ga_operator_matrix(lambda s, p=params: h_bilayer(s, p), "cl31")
        doubled = np.array(jacobi_eigh(op))
        oracle = (doubled[0::2] + doubled[1::2]) / 2.0
        worst_delta = max(worst_delta, energy_delta(roots, list(oracle)))
        for energy in roots:
            if abs(energy) <= 1e-10:
                continue
            res = abs(bilayer_quantization_residual(energy, params.k, u, g1))
            worst_residual = max(worst_residual, res)
    ok = worst_delta <= 1e-10 and worst_residual <= 1e-10
    report(4, "bilayer spectrum equivalence + quantization condition", ok,
           f"max delta {worst_delta:.2e}, max |ahat^2 - 1| {worst_residual:.2e}")


def test_criterion_5_eigenspinor_contracts():
    rng = np.random.default_rng(105)
    e1 = Multivector.basis_vector(CL30, 1)
    e2 = Multivector.basis_vector(CL30, 2)
    e3 = Multivector.basis_vector(CL30, 3)
    worst_res = 0.0
    worst_norm = 0.0
    worst_target = 0.0
    for _ in range(200):
        kx, ky = random_k(rng)
        k = math.hypot(kx, ky)
        alpha = rng.uniform(0.01, 2.0)
        omega = rng.uniform(0.01, 2.0)
        gamma = rng.uniform(0.01, 2.0)

        for sign, s in zip((-1.0, 1.0), solve(ModelParams("monolayer", kx=kx, ky=ky))):
            worst_res = max(worst_res, s.residual)
            psi = s.spinor.mv
            worst_norm = max(worst_norm, abs((psi * ~psi).scalar_part() - 1.0))
            doc = sign * (kx * e1 + ky * e2) / k
            worst_target = max(
                worst_target, (psi * e3 * ~psi - doc).norm()
            )
        for sign, s in zip((-1.0, 1.0), solve(ModelParams("qw", kx=kx, ky=ky, alphaR=alpha))):
            worst_res = max(worst_res, s.residual)
            psi = s.spinor.mv
            worst_norm = max(worst_norm, abs((psi * ~psi).scalar_part() - 1.0))
            doc = sign * (ky * e1 - kx * e2) / k
            worst_target = max(worst_target, (psi * e3 * ~psi - doc).norm())

        root = math.hypot(omega, gamma)
        for s in solve(ModelParams("atoms", omega=omega, Gamma=gamma)):
            worst_res = max(worst_res, s.residual)
            sign = 1.0 if s.energy > 0 else -1.0
            if s.band_label.startswith("even"):
                doc = np.array([0.0, -sign, 0.0, 0.0])  # -+e2 for E = +-Gamma
            else:
                # odd carrier normalization flips the documented +-ahat pairing
                doc = -sign * np.array([0.0, -gamma / root, omega / root, 0.0])
            worst_target = max(
                worst_target, float(np.max(np.abs(s.target_vector - doc)))
            )
    bparams = ModelParams("bilayer", kx=0.9, ky=0.4, gamma1=0.5, U=0.25, eta=1)
    for s in solve(bparams):
        worst_res = max(worst_res, s.residual)
    ok = worst_res <= 1e-10 and worst_norm <= 1e-12 and worst_target <= 1e-12
    report(5, "eigenspinor residual/normalization/target contracts", ok,
           f"max residual {worst_res:.2e}, norm err {worst_norm:.2e}, "
           f"target err {worst_target:.2e}")


def test_criterion_6_mapping_rule_equivalence():
    rng = np.random.default_rng(106)
    i_ps = pseudoscalar(CL31)

    def rep31(mask):
        return np.array(cl31_matrix_rep(mask))

    worst = 0.0
    for _ in range(100):
        col = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        psi = column_to_spinor(col)
        scale = max(1.0, float(np.abs(col).max()))
        for i in (1, 2, 3):
            lhs = spinor_to_column(pauli_action_cl30(i, psi))
            worst = max(worst, float(np.max(np.abs(lhs - pauli_matrix(i) @ col))) / scale)
        lhs = spinor_to_column(imaginary_action_cl30(psi))
        worst = max(worst, float(np.max(np.abs(lhs - 1j * col))) / scale)
    for _ in range(100):
        col = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi = column_to_spinor(col)
        scale = max(1.0, float(np.abs(col).max()))
        for i in range(1, 5):
            lhs = spinor_to_column(ga_action_cl31("vector", psi, i))
            rhs = rep31(1 << (i - 1)) @ col
            worst = max(worst, float(np.max(np.abs(lhs - rhs))) / scale)
            lhs = spinor_to_column(ga_action_cl31("pseudovector", psi, i))
            rep = i_ps.coeffs[15] * rep31(0b1111) @ rep31(1 << (i - 1))
            worst = max(worst, float(np.max(np.abs(lhs - rep @ col))) / scale)
            for j in range(1, 5):
                if i == j:
                    continue
                lhs = spinor_to_column(ga_action_cl31("bivector", psi, i, j))
                rep = rep31(1 << (i - 1)) @ rep31(1 << (j - 1))
                worst = max(worst, float(np.max(np.abs(lhs - rep @ col))) / scale)
        lhs = spinor_to_column(ga_action_cl31("imaginary", psi))
        worst = max(worst, float(np.max(np.abs(lhs - 1j * col))) / scale)
    report(6, "generator action equivalence, 100 spinors per action",
           worst <= 1e-12, f"max mismatch {worst:.2e}")


def test_criterion_7_ga_core_property_suite():
    rng = np.random.default_rng(107)

    def unit_mv(sig):
        c = rng.standard_normal(sig.dim)
        return Multivector(sig, c / np.linalg.norm(c))

    def unit_vec():
        v = rng.standard_normal(3)
        return Multivector.vector(CL30, v / np.linalg.norm(v))

    worst = 0.0
    for _ in range(1000):
        sig = CL31 if rng.random() < 0.5 else CL30
        a, b, c = unit_mv(sig), unit_mv(sig), unit_mv(sig)
        worst = max(worst, ((a * b) * c - a * (b * c)).norm())
        worst = max(worst, (~(a * b) - ~b * ~a).norm())
        total = Multivector.zero(sig)
        for k in range(sig.n + 1):
            total = total + a.grade(k)
        worst = max(worst, (total - a).norm())
    for sig in (CL30, CL31):
        for i in range(1, sig.n + 1):
            for j in range(1, sig.n + 1):
                ei = Multivector.basis_vector(sig, i)
                ej = Multivector.basis_vector(sig, j)
                anti = ei * ej + ej * ei
                expected = 2.0 * sig.metric_sign(i - 1) if i == j else 0.0
                worst = max(worst, (anti - Multivector.scalar(sig, expected)).norm())

    for _ in range(1000):
        r = rotor_from_vectors(unit_vec(), unit_vec())
        m, n = unit_mv(CL30), unit_mv(CL30)
        lam = rng.standard_normal()
        worst = max(worst, (rotate(r, lam * m + n) - lam * rotate(r, m) - rotate(r, n)).norm())
        worst = max(worst, (rotate(r, m * n) - rotate(r, m) * rotate(r, n)).norm())
        worst = max(worst, (rotate(r, m ^ n) - (rotate(r, m) ^ rotate(r, n))).norm())
        for k in range(4):
            worst = max(worst, (rotate(r, m.grade(k)).grade(k) - rotate(r, m.grade(k))).norm())

    worst_det = 0.0
    for _ in range(1000):
        f = VectorMap.from_matrix(CL30, rng.standard_normal((3, 3)))
        g = VectorMap.from_matrix(CL30, rng.standard_normal((3, 3)))
        a = unit_mv(CL30)
        comp = (
            apply_outermorphism(f.compose(g), a)
            - apply_outermorphism(f, apply_outermorphism(g, a))
        ).norm()
        worst = max(worst, comp / max(1.0, np.abs(f.matrix()).max() * np.abs(g.matrix()).max()) ** 2)
        dfg = determinant(f.compose(g))
        dprod = determinant(f) * determinant(g)
        worst_det = max(worst_det, abs(dfg - dprod) / max(1.0, abs(dprod)))

    worst_secular = 0.0
    for _ in range(300):
        m = rng.standard_normal((3, 3))
        mat = (m + m.T) / 2.0
        mine = np.array(real_cubic_roots(*secular_cubic(VectorMap.from_matrix(CL30, mat))))
        tr = np.trace(mat)
        minors = sum(
            mat[i, i] * mat[j, j] - mat[i, j] * mat[j, i]
            for i in range(3)
            for j in range(i + 1, 3)
        )
        det = float(np.linalg.det(mat))
        roots = np.sort(np.roots([1.0, -tr, minors, -det]).real)
        if len(mine) == 3:
            worst_secular = max(
                worst_secular,
                float(np.max(np.abs(mine - roots))) / max(1.0, float(np.max(np.abs(roots)))),
            )
    ok = worst <= 1e-12 and worst_det <= 1e-12 and worst_secular <= 1e-10
    report(7, "GA core property suite, 1000 randomized cases per law", ok,
           f"max property err {worst:.2e}, det err {worst_det:.2e}, "
           f"secular root err {worst_secular:.2e}")


def golden_minimize(f, lo, hi, tol=1e-9):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    while b - a > tol:
        if f(c) < f(d):
            b = d
        else:
            a = c
        c = b - invphi * (b - a)
        d = a + invphi * (b - a)
    return (a + b) / 2.0


def run_cli(*argv):
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def test_criterion_8_figure_level_reproduction():
    problems = []

    # panel a: linear cones
    _, out = run_cli("spectrum", "--model", "monolayer", "--kmin", "0",
                     "--kmax", "2", "--samples", "21")
    for row in out.strip().split("\n")[1:]:
        k, e1, e2 = map(float, row.split(","))
        if abs(e1 + k) > 1e-12 or abs(e2 - k) > 1e-12:
            problems.append("monolayer cone mismatch")

    # panel b: split parabolas crossing at k = 0
    alpha = 0.25
    _, out = run_cli("spectrum", "--model", "qw", "--alpha", str(alpha),
                     "--kmin", "0", "--kmax", "2", "--samples", "21")
    rows = [list(map(float, r.split(","))) for r in out.strip().split("\n")[1:]]
    for k, e1, e2 in rows:
        lo, hi = sorted([k * k / 2 - k * alpha, k * k / 2 + k * alpha])
        if abs(e1 - lo) > 1e-12 or abs(e2 - hi) > 1e-12:
            problems.append("qw parabola mismatch")
    if abs(rows[0][1] - rows[0][2]) > 1e-15:
        problems.append("qw bands do not cross at k=0")

    # panel c: four branches over the coupling sweep
    omega = 1.0
    _, out = run_cli("spectrum", "--model", "atoms", "--omega", str(omega),
                     "--kmin", "0", "--kmax", "2", "--samples", "21")
    for row in out.strip().split("\n")[1:]:
        g, *es = map(float, row.split(","))
        root = math.hypot(g, omega)
        expected = sorted([-g, g, -root, root])
        if max(abs(a - b) for a, b in zip(es, expected)) > 1e-12:
            problems.append("atoms branch mismatch")

    # panel d: biased-bilayer conduction-band minimum away from k = 0
    u, g1 = 0.3, 0.4
    _, out = run_cli("spectrum", "--model", "bilayer", "--bias-u", str(u),
                     "--gamma1", str(g1), "--kmin", "0", "--kmax", "1.5",
                     "--samples", "301")
    rows = [list(map(float, r.split(","))) for r in out.strip().split("\n")[1:]]
    conduction = [r[3] for r in rows]
    imin = conduction.index(min(conduction))
    k_grid = rows[imin][0]
    if not 0 < imin < len(rows) - 1:
        problems.append("bilayer sweep minimum not interior")
    spacing = rows[1][0] - rows[0][0]
    k_refined = golden_minimize(
        lambda k: bilayer_spectrum(k, u, g1)[2],
        rows[imin - 1][0], rows[imin + 1][0],
    )
    k_analytic = bilayer_mexican_hat_k(u, g1)
    if abs(k_refined - k_analytic) > 1e-6:
        problems.append(f"minimum location off by {abs(k_refined - k_analytic):.2e}")
    if abs(k_grid - k_analytic) > spacing:
        problems.append("sweep argmin disagrees with analytic minimum")

    report(8, "figure-level sweep reproduction, panels a-d", not problems,
           "; ".join(problems) if problems else
           f"bilayer minimum at k*={k_analytic:.6f}, refined {k_refined:.6f}")


def test_criterion_9_determinism_and_runtime():
    start = time.perf_counter()
    args = [sys.executable, "-m", "rotoreig.cli", "verify",
            "--trials", "1000", "--seed", "42"]
    first = subprocess.run(args, capture_output=True)
    second = subprocess.run(args, capture_output=True)
    sweep_args = [sys.executable, "-m", "rotoreig.cli", "spectrum", "--model",
                  "bilayer", "--bias-u", "0.3", "--gamma1", "0.4",
                  "--kmin", "0", "--kmax", "2", "--samples", "101"]
    sweep_a = subprocess.run(sweep_args, capture_output=True)
    sweep_b = subprocess.run(sweep_args, capture_output=True)
    elapsed = time.perf_counter() - start
    golden = GOLDEN / "verify_trials1000_seed42.txt"
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and first.stdout == golden.read_bytes()
        and sweep_a.stdout == sweep_b.stdout
        and elapsed <= 60.0
    )
    report(9, "byte determinism of verify/sweep reruns", ok,
           f"verify exit {first.returncode}, reruns identical "
           f"{first.stdout == second.stdout}, matches {golden.name} "
           f"{first.stdout == golden.read_bytes()}, {elapsed:.1f} s")
