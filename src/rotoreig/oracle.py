"""Matrix-representation oracle: independent eigenvalues for every model.

The dense eigensolver here is hand-rolled (cyclic Jacobi, with complex
rotations for hermitian matrices) so the oracle shares no code path with the
rotor method it checks.  Jacobi rotates, and tests for convergence on,
Python float (or complex) lists but, on real input, keeps the arithmetic,
and so the bits, of the same algorithm on numpy arrays.

Every ``cross_check`` report carries the spot check that the GA generator
actions match the matrix actions.  Its inputs are constant, so it runs once
per algebra per process and its result is copied into each report.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import models
from .spectra import MODELS, ModelParams
from .spinors import (
    Spinor,
    _layout_of,
    column_to_spinor,
    spinor_to_column,
    pauli_matrix,
    pauli_action_cl30,
    ga_action_cl31,
    cl31_matrix_rep,
)

__all__ = [
    "matrix_monolayer",
    "matrix_qw",
    "matrix_two_atoms",
    "matrix_bilayer",
    "ga_operator_matrix",
    "jacobi_eigh",
    "CrossCheckReport",
    "cross_check",
]

#: energy-matching tolerance: absolute for |E| <= 1, relative above
MATCH_TOL = 1e-10


def matrix_monolayer(kx: float, ky: float) -> np.ndarray:
    """2x2 massless Hamiltonian [[0, kx - i ky], [kx + i ky, 0]]."""
    return np.array([[0.0, kx - 1j * ky], [kx + 1j * ky, 0.0]])


def matrix_qw(kx: float, ky: float, alphaR: float) -> np.ndarray:
    """(k^2/2) 1 + alphaR (ky sigma_x - kx sigma_y)."""
    k2 = kx * kx + ky * ky
    return (k2 / 2.0) * np.eye(2) + alphaR * (
        ky * pauli_matrix(1) - kx * pauli_matrix(2)
    )


#: the constant matrices of the two-atom Hamiltonian, built once and shared;
#: sigma_z and sigma_x are real, so they are built real and the oracle runs
#: the Jacobi in float arithmetic
_SZ, _SX = pauli_matrix(3).real, pauli_matrix(1).real
_SZ_SUM = np.kron(_SZ, np.eye(2)) + np.kron(np.eye(2), _SZ)
_SX_SX = np.kron(_SX, _SX)
_SZ_SUM.flags.writeable = _SX_SX.flags.writeable = False


def matrix_two_atoms(omega: float, Gamma: float) -> np.ndarray:
    """(omega/2)(sigma_z x 1 + 1 x sigma_z) + Gamma sigma_x x sigma_x."""
    return (omega / 2.0) * _SZ_SUM + Gamma * _SX_SX


def matrix_bilayer(kx: float, ky: float, U: float, gamma1: float, eta: int) -> np.ndarray:
    """Biased bilayer graphene in the basis (A1, B1, A2, B2), gamma3 = gamma4 = 0
    (McCann & Koshino, Rep. Prog. Phys. 76, 056503, 2013): layers at -+U,
    gamma1 between B1 and A2, and pi = eta kx + i ky coupling A and B in each."""
    pi = eta * kx + 1j * ky
    return np.array([[-U, pi.conjugate(), 0.0, 0.0],
                     [pi, -U, gamma1, 0.0],
                     [0.0, gamma1, U, pi.conjugate()],
                     [0.0, 0.0, pi, U]])


def ga_operator_matrix(h, algebra: str) -> np.ndarray:
    """Real matrix of a real-linear GA Hamiltonian on spinor coefficients.

    Column j holds the coefficients of h applied to the j-th basis spinor;
    an output leaving the spinor subspace raises (model implementation bug).
    """
    n = len(_layout_of(algebra).signs)
    cols = [h(Spinor.from_coeff_vector(algebra, v)).coeff_vector() for v in np.eye(n)]
    return np.column_stack(cols)


def jacobi_eigh(a, vectors: bool = False):
    """Eigen-decomposition of a real symmetric or complex hermitian matrix by
    cyclic Jacobi (Golub & Van Loan, *Matrix Computations*, section 8.5).

    Returns sorted real eigenvalues (and, optionally, the matching
    eigenvector columns).  Each pivot a_pq = |a_pq| ph is rotated out by
    the real rotation of |a_pq| and the real diagonal, with the phase ph
    put back on its sines.  On real input ph is +-1, so the rotation is
    the textbook real one.  The rotations run on Python float (or complex)
    lists in a fixed order (columns, then rows, then eigenvectors), so on
    real input the results are bit for bit those of the same algorithm on
    numpy arrays.  A sweep starts unless the off-diagonal norm is at most
    1e-14 n max(1, max|a|); it is summed over the entries divided by that
    scale, so no square overflows."""
    a = np.asarray(a)
    a = np.array(a, dtype=complex if np.iscomplexobj(a) else float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] > 16:
        raise ValueError("expected a small square matrix")
    n = a.shape[0]
    # the checks and (a + a^H)/2 on flat lists in row order: Python's
    # complex +, -, / 2.0 and abs (libm hypot) are numpy's formulas, so they
    # give numpy's bits
    rows = a.tolist()
    flat = list(itertools.chain.from_iterable(rows))
    if not all(map(cmath.isfinite, flat)):
        raise ValueError("matrix has non-finite entries")
    adjoint = [x.conjugate() for x in itertools.chain.from_iterable(zip(*rows))]
    if max(map(abs, map(operator.sub, flat, adjoint))) > 1e-12 * max(1.0, max(map(abs, flat))):
        raise ValueError("matrix is not hermitian")
    half = [(x + y) / 2.0 for x, y in zip(flat, adjoint)]
    scale = max(1.0, max(map(abs, half)))
    negligible = 1e-14 * scale / n
    rows = [half[i:i + n] for i in range(0, n * n, n)]
    # eigenvector columns, stored as rows of v^T
    vt = np.eye(n).tolist() if vectors else None
    for _ in range(100):
        # summed left to right from 0.0: builtin sum compensates from
        # Python 3.12 on, and the stop, so the bits, would follow it
        off = 0.0
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                if i != j:
                    off += (abs(x) / scale) ** 2
        if math.sqrt(off) <= 1e-14 * n:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = rows[p][q]
                r = abs(apq)
                if r <= negligible:
                    continue
                ph = apq / r
                theta = (rows[q][q].real - rows[p][p].real) / (2.0 * r)
                if theta == 0.0:
                    # t = +-1 both zero the pivot; on real input this
                    # choice is the textbook rotation with t = 1
                    t = math.copysign(1.0, ph.real)
                else:
                    t = math.copysign(1.0, theta) / (
                        abs(theta) + math.sqrt(theta * theta + 1.0)
                    )
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                # the rotation's two sines: s ph on (p, q), s conj(ph) on (q, p)
                sp, sq = s * ph, s * ph.conjugate()
                for row in rows:
                    ap, aq = row[p], row[q]
                    row[p] = c * ap - sq * aq
                    row[q] = sp * ap + c * aq
                rp, rq = rows[p], rows[q]
                rows[p] = [c * x - sp * y for x, y in zip(rp, rq)]
                rows[q] = [sq * x + c * y for x, y in zip(rp, rq)]
                if vectors:
                    vp, vq = vt[p], vt[q]
                    vt[p] = [c * x - sq * y for x, y in zip(vp, vq)]
                    vt[q] = [sp * x + c * y for x, y in zip(vp, vq)]
    else:
        raise RuntimeError("Jacobi iteration failed to converge")
    vals = np.array([rows[i][i].real for i in range(n)])
    order = np.argsort(vals)
    if vectors:
        return vals[order], np.array(vt).T[:, order]
    return vals[order]


# ---------------------------------------------------------------------
# cross checks
# ---------------------------------------------------------------------


@dataclass
class CrossCheckReport:
    params: ModelParams
    rotor_energies: list[float]
    oracle_energies: list[float]
    max_delta: float
    residuals: list[float]
    action_equivalence: bool
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "model": self.params.model,
            "params": self.params.to_json_dict(),
            # adding 0.0 folds -0.0 into 0.0, as in `eigens` JSON
            "rotor_energies": [float(e) + 0.0 for e in self.rotor_energies],
            "oracle_energies": [float(e) + 0.0 for e in self.oracle_energies],
            "max_delta": float(self.max_delta) + 0.0,
            "residuals": [float(r) + 0.0 for r in self.residuals],
            "action_equivalence": bool(self.action_equivalence),
            "pass": bool(self.passed),
        }


def _energy_delta(rotor: list[float], oracle: list[float]) -> float:
    if len(rotor) != len(oracle):
        raise ValueError("eigenvalue count mismatch")
    deltas = [
        abs(r - o) / max(1.0, abs(o)) for r, o in zip(sorted(rotor), sorted(oracle))
    ]
    return max(deltas)


#: the oracle's sorted energies per model: Hilbert-space matrices, each
#: written from its textbook form and sharing no code with ``models`` or
#: ``spectra``, which only supplies the ``ModelParams`` fields
_ORACLES = {
    "monolayer": lambda p: jacobi_eigh(matrix_monolayer(p.kx, p.ky)).tolist(),
    "qw": lambda p: jacobi_eigh(matrix_qw(p.kx, p.ky, p.alphaR)).tolist(),
    "atoms": lambda p: jacobi_eigh(matrix_two_atoms(p.omega, p.Gamma)).tolist(),
    "bilayer": lambda p: jacobi_eigh(matrix_bilayer(p.kx, p.ky, p.U, p.gamma1, p.eta)).tolist(),
}


#: fixed spinors used for the action-equivalence spot check: the draws
#: ``r.standard_normal(shape) + 1j * r.standard_normal(shape)`` of
#: ``r = np.random.RandomState(20140)``, (2, 2) then (2, 4), written out so
#: that importing the oracle does not load numpy.random
_SPOT_COLS_2 = np.array([
    [0.12947947708929156-1.2174530570227722j, -0.9545009606972663-1.3635394857005236j],
    [1.0989738001531568-0.706403679018367j, -0.1450316418275147-1.2753134695706685j],
])
_SPOT_COLS_4 = np.array([
    [-0.17155494701521318-1.3834193303238678j, 0.08576137274152959-0.5180466174144859j,
     -0.8803824485197445-0.10071687966479977j, 0.6485243158336147+0.27306036898638925j],
    [0.1342348044079797+1.1365474446775672j, -2.3513317158104052-1.6370271312347773j,
     -0.4745413316514824+1.0195825662399558j, 2.0947056434108866-0.9672011459616802j],
])


#: per algebra: the spot-check columns and the (GA action, matrix) pairs
#: that must agree on each of them.  The lambdas look the actions up as
#: module attributes when called, so a patched ``oracle.pauli_action_cl30``
#: is what the check runs.
_ACTION_PAIRS = {
    "cl30": (
        _SPOT_COLS_2,
        [(lambda psi, i=i: pauli_action_cl30(i, psi), pauli_matrix(i)) for i in (1, 2, 3)],
    ),
    "cl31": (
        _SPOT_COLS_4,
        [(lambda psi, i=i: ga_action_cl31("vector", psi, i), cl31_matrix_rep(1 << (i - 1)))
         for i in (1, 2, 3, 4)]
        + [(lambda psi: ga_action_cl31("imaginary", psi), 1j * np.eye(4))],
    ),
}


@functools.cache
def _action_equivalence_ok(algebra: str) -> bool:
    """Spot-check that the GA generator actions match the matrix actions.

    The inputs are constant, so the answer is computed once per algebra per
    process and reused by every ``cross_check``."""
    cols, pairs = _ACTION_PAIRS[algebra]
    try:
        for col in cols:
            psi = column_to_spinor(col)
            for action, matrix in pairs:
                if np.max(np.abs(spinor_to_column(action(psi)) - matrix @ col)) > 1e-12:
                    return False
    except ValueError:
        return False
    return True


def cross_check(params: ModelParams, tol: float = MATCH_TOL) -> CrossCheckReport:
    """Compare rotor-method energies against the matrix oracle for one
    parameter point.

    The report also carries the algebra's action-equivalence result, which
    ``passed`` requires; that check runs once per algebra per process (see
    ``_action_equivalence_ok``) and its result is copied into every report."""
    spec = MODELS[params.model]
    sols = models.solve(params)
    oracle = _ORACLES[params.model](params)
    rotor = [s.energy for s in sols]
    residuals = [s.residual for s in sols]
    max_delta = _energy_delta(rotor, oracle)
    action_ok = _action_equivalence_ok(spec.algebra)
    passed = max_delta <= tol and action_ok
    return CrossCheckReport(
        params=params,
        rotor_energies=sorted(rotor),
        oracle_energies=sorted(oracle),
        max_delta=max_delta,
        residuals=residuals,
        action_equivalence=action_ok,
        passed=passed,
    )
