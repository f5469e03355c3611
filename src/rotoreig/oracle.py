"""Matrix-representation oracle: independent eigenvalues for every model.

The dense eigensolver here is hand-rolled (cyclic Jacobi, with complex
rotations for hermitian matrices) so the oracle shares no code path with the
rotor method it checks.  Its matrices are tuples of rows of Python floats
(or complex numbers), each entry built in the order of operations of the
numpy expression for the matrix, so with its bits.  Jacobi rotates, and
tests for convergence on, Python float (or complex) lists but, on real
input, keeps the arithmetic, and so the bits, of the same algorithm on
numpy arrays.  The oracle imports no numpy.

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


def matrix_monolayer(kx: float, ky: float) -> tuple[tuple[complex, ...], ...]:
    """2x2 massless Hamiltonian [[0, kx - i ky], [kx + i ky, 0]]."""
    return ((0j, kx - 1j * ky), (kx + 1j * ky, 0j))


_S1, _S2 = pauli_matrix(1), pauli_matrix(2)
_EYE2 = ((1.0, 0.0), (0.0, 1.0))


def matrix_qw(kx: float, ky: float, alphaR: float) -> tuple[tuple[complex, ...], ...]:
    """(k^2/2) 1 + alphaR (ky sigma_x - kx sigma_y).

    Entry by entry in numpy's order: the real scalars times the complex
    Pauli matrices as full complex products, and the real (k^2/2) 1 added
    to the complex sum as a complex with imaginary part 0.0."""
    k2 = kx * kx + ky * ky
    h, x, y, a = k2 / 2.0, complex(kx, 0.0), complex(ky, 0.0), complex(alphaR, 0.0)
    return tuple(
        tuple(complex(h * e, 0.0) + a * (y * s1 - x * s2) for e, s1, s2 in zip(*rows))
        for rows in zip(_EYE2, _S1, _S2))


def _kron(a, b) -> tuple[tuple[float, ...], ...]:
    """The Kronecker product of two real matrices, as rows."""
    return tuple(tuple(x * y for x in ra for y in rb) for ra in a for rb in b)


#: the constant matrices of the two-atom Hamiltonian, built once and shared;
#: sigma_z and sigma_x are real, so they are built real and the oracle runs
#: the Jacobi in float arithmetic
_SZ, _SX = ((1.0, 0.0), (0.0, -1.0)), ((0.0, 1.0), (1.0, 0.0))
_SZ_SUM = tuple(tuple(map(operator.add, r1, r2))
                for r1, r2 in zip(_kron(_SZ, _EYE2), _kron(_EYE2, _SZ)))
_SX_SX = _kron(_SX, _SX)


def matrix_two_atoms(omega: float, Gamma: float) -> tuple[tuple[float, ...], ...]:
    """(omega/2)(sigma_z x 1 + 1 x sigma_z) + Gamma sigma_x x sigma_x."""
    h = omega / 2.0
    return tuple(tuple(h * z + Gamma * x for z, x in zip(rz, rx))
                 for rz, rx in zip(_SZ_SUM, _SX_SX))


def matrix_bilayer(kx: float, ky: float, U: float, gamma1: float,
                   eta: int) -> tuple[tuple[complex, ...], ...]:
    """Biased bilayer graphene in the basis (A1, B1, A2, B2), gamma3 = gamma4 = 0
    (McCann & Koshino, Rep. Prog. Phys. 76, 056503, 2013): layers at -+U,
    gamma1 between B1 and A2, and pi = eta kx + i ky coupling A and B in each."""
    pi = eta * kx + 1j * ky
    pi_bar, minus_u, u, g = pi.conjugate(), complex(-U), complex(U), complex(gamma1)
    return ((minus_u, pi_bar, 0j, 0j),
            (pi, minus_u, g, 0j),
            (0j, g, u, pi_bar),
            (0j, 0j, pi, u))


def ga_operator_matrix(h, algebra: str) -> tuple[tuple[float, ...], ...]:
    """Real matrix of a real-linear GA Hamiltonian on spinor coefficients,
    as rows.

    Column j holds the coefficients of h applied to the j-th basis spinor;
    an output leaving the spinor subspace raises (model implementation bug).
    """
    n = len(_layout_of(algebra).signs)
    cols = [h(Spinor.from_coeff_vector(algebra, [float(i == j) for i in range(n)])).coeff_vector()
            for j in range(n)]
    return tuple(zip(*cols))


def jacobi_eigh(a, vectors: bool = False):
    """Eigen-decomposition of a real symmetric or complex hermitian matrix by
    cyclic Jacobi (Golub & Van Loan, *Matrix Computations*, section 8.5).

    ``a`` is a nested sequence of numbers, or an array (read through
    ``tolist``); the arithmetic is complex when any entry is a complex.
    Returns the real eigenvalues as a sorted list of floats and, with
    ``vectors``, the matrix of the matching eigenvector columns as a list of
    rows; the sort is stable, so equal eigenvalues keep the order in which
    the rotations leave them on the diagonal.  Each pivot a_pq = |a_pq| ph
    is rotated out by the real rotation of |a_pq| and the real diagonal,
    with the phase ph put back on its sines.  On real input ph is +-1, so
    the rotation is the textbook real one.  The rotations run on Python float (or complex)
    lists in a fixed order (columns, then rows, then eigenvectors), so on
    real input the results are bit for bit those of the same algorithm on
    numpy arrays.  A sweep starts unless the off-diagonal norm is at most
    1e-14 n max(1, max|a|); it is summed over the entries divided by that
    scale, so no square overflows."""
    # the checks and (a + a^H)/2 on flat lists in row order: Python's
    # complex +, -, / 2.0 and abs (libm hypot) are numpy's formulas, so they
    # give numpy's bits
    try:
        rows = [list(row) for row in (a.tolist() if hasattr(a, "tolist") else a)]
        flat = list(itertools.chain.from_iterable(rows))
        kind = complex if any(isinstance(x, complex) for x in flat) else float
        flat = [kind(x) for x in flat]
    except TypeError:  # a number, a vector or a nest deeper than rows
        rows = []
    n = len(rows)
    if not 0 < n <= 16 or any(len(row) != n for row in rows):
        raise ValueError("expected a small square matrix")
    if not all(map(cmath.isfinite, flat)):
        raise ValueError("matrix has non-finite entries")
    adjoint = [flat[j * n + i].conjugate() for i in range(n) for j in range(n)]
    if max(map(abs, map(operator.sub, flat, adjoint))) > 1e-12 * max(1.0, max(map(abs, flat))):
        raise ValueError("matrix is not hermitian")
    half = [(x + y) / 2.0 for x, y in zip(flat, adjoint)]
    if not all(map(cmath.isfinite, half)):
        # a sum past the largest float: halved first there, which cannot
        # overflow.  Only there, as a/2 + a^H/2 loses the last bit of a
        # subnormal half and, under complex / 2.0, may fold a zero's sign
        half = [h if cmath.isfinite(h) else x / 2.0 + y / 2.0
                for h, x, y in zip(half, flat, adjoint)]
    scale = max(1.0, max(map(abs, half)))
    negligible = 1e-14 * scale / n
    rows = [half[i:i + n] for i in range(0, n * n, n)]
    # eigenvector columns, stored as rows of v^T
    vt = [[float(i == j) for j in range(n)] for i in range(n)] if vectors else None
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
    vals = [rows[i][i].real for i in range(n)]
    if not vectors:
        return sorted(vals)
    # a stable sort: equal eigenvalues keep their diagonal order
    order = sorted(range(n), key=vals.__getitem__)
    return [vals[k] for k in order], [[vt[k][i] for k in order] for i in range(n)]


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
    "monolayer": lambda p: jacobi_eigh(matrix_monolayer(p.kx, p.ky)),
    "qw": lambda p: jacobi_eigh(matrix_qw(p.kx, p.ky, p.alphaR)),
    "atoms": lambda p: jacobi_eigh(matrix_two_atoms(p.omega, p.Gamma)),
    "bilayer": lambda p: jacobi_eigh(matrix_bilayer(p.kx, p.ky, p.U, p.gamma1, p.eta)),
}


#: fixed spinors used for the action-equivalence spot check: the draws
#: ``r.standard_normal(shape) + 1j * r.standard_normal(shape)`` of
#: ``r = np.random.RandomState(20140)``, (2, 2) then (2, 4), written out as
#: rows of Python complex numbers so that the oracle needs no numpy
_SPOT_COLS_2 = (
    (0.12947947708929156-1.2174530570227722j, -0.9545009606972663-1.3635394857005236j),
    (1.0989738001531568-0.706403679018367j, -0.1450316418275147-1.2753134695706685j),
)
_SPOT_COLS_4 = (
    (-0.17155494701521318-1.3834193303238678j, 0.08576137274152959-0.5180466174144859j,
     -0.8803824485197445-0.10071687966479977j, 0.6485243158336147+0.27306036898638925j),
    (0.1342348044079797+1.1365474446775672j, -2.3513317158104052-1.6370271312347773j,
     -0.4745413316514824+1.0195825662399558j, 2.0947056434108866-0.9672011459616802j),
)


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
        + [(lambda psi: ga_action_cl31("imaginary", psi),
            tuple(tuple(1j if i == j else 0j for j in range(4)) for i in range(4)))],
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
                want = [sum(x * y for x, y in zip(row, col)) for row in matrix]
                got = spinor_to_column(action(psi))
                if max(abs(g - w) for g, w in zip(got, want)) > 1e-12:
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
