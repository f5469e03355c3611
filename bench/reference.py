"""The benchmark's own answers: Hilbert-space matrices diagonalized with
``numpy.linalg.eigvalsh``, and the checks that hold each op's output to them.

Nothing here imports rotoreig.  The bilayer matrix is the standard 4x4
biased-bilayer Hamiltonian (McCann & Koshino, Rep. Prog. Phys. 76, 056503,
2013), not the GA operator matrix that rotoreig's own bilayer oracle and
solver both use.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

#: cross_check's scale-relative gate: |E - E_ref| <= GATE * max(1, |E_ref|)
GATE = 1e-10
#: rows of a JSON sweep with |x| at most this carry "degenerate": true
DEGENERACY_TOL = 1e-10

_S0 = np.eye(2, dtype=complex)
_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def _monolayer(kx, ky):
    m = np.zeros(np.shape(kx) + (2, 2), dtype=complex)
    m[..., 0, 1] = kx - 1j * ky
    m[..., 1, 0] = kx + 1j * ky
    return m


def _qw(kx, ky, alpha):
    kx, ky = np.asarray(kx, float)[..., None, None], np.asarray(ky, float)[..., None, None]
    return (kx ** 2 + ky ** 2) / 2.0 * _S0 + alpha * (ky * _SX - kx * _SY)


def _atoms(omega, gamma):
    gamma = np.asarray(gamma, float)[..., None, None]
    return (omega / 2.0) * (np.kron(_SZ, _S0) + np.kron(_S0, _SZ)) + gamma * np.kron(_SX, _SX)


def _bilayer(kx, ky, u, gamma1, xi=1):
    """Basis (A1, B1, A2, B2); ``u`` is half the interlayer asymmetry, so the
    layers sit at -u and +u; pi = xi kx + i ky; gamma3 = gamma4 = 0."""
    pi = xi * np.asarray(kx, float) + 1j * np.asarray(ky, float)
    m = np.zeros(pi.shape + (4, 4), dtype=complex)
    m[..., 0, 0] = m[..., 1, 1] = -u
    m[..., 2, 2] = m[..., 3, 3] = u
    m[..., 1, 2] = m[..., 2, 1] = gamma1
    for a, b in ((0, 1), (2, 3)):
        m[..., a, b] = pi.conj()
        m[..., b, a] = pi
    return m


def point_energies(model: str, point: dict) -> np.ndarray:
    """Sorted eigenvalues at one parameter point."""
    if model == "monolayer":
        m = _monolayer(point["kx"], point["ky"])
    elif model == "qw":
        m = _qw(point["kx"], point["ky"], point["alphaR"])
    elif model == "atoms":
        m = _atoms(point["omega"], point["Gamma"])
    else:
        m = _bilayer(point["kx"], point["ky"], point["U"], point["gamma1"],
                     point["eta"])
    return np.linalg.eigvalsh(m)


def sweep_energies(model: str, point: dict, xs: np.ndarray) -> np.ndarray:
    """Sorted eigenvalues for each sweep value (k, or Gamma for atoms)."""
    zero = np.zeros_like(xs)
    if model == "monolayer":
        m = _monolayer(xs, zero)
    elif model == "qw":
        m = _qw(xs, zero, point["alphaR"])
    elif model == "atoms":
        m = _atoms(point["omega"], xs)
    else:
        m = _bilayer(xs, zero, point["U"], point["gamma1"])
    return np.linalg.eigvalsh(m)


def _mismatch(got, ref) -> float:
    """Largest scale-relative energy error; inf on a shape mismatch."""
    got = np.asarray(got, dtype=float)
    if got.shape != ref.shape:
        return float("inf")
    return float(np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))))


def check_verify(op, report) -> str | None:
    """None if a ``cross_check`` report is right, else why not."""
    if not report.passed:
        return f"cross_check failed (max_delta {report.max_delta:.3e})"
    ref = point_energies(op.model, op.point)
    err = _mismatch(sorted(report.rotor_energies), ref)
    if not err <= GATE:
        return f"energies off the reference by {err:.3e}"
    scale = max(1.0, float(np.max(np.abs(ref))))
    worst = max(report.residuals)
    if not worst <= GATE * scale:
        return f"residual {worst:.3e} above the gate"
    return None


def check_eigens(op, code: int, text: str) -> str | None:
    """None if an ``eigens`` run printed the right solutions, else why not."""
    if code != 0:
        return f"exit code {code}"
    doc = json.loads(text)
    if doc.get("model") != op.model or doc.get("degenerate"):
        return "wrong model or unexpected degeneracy"
    sols = doc["solutions"]
    ref = point_energies(op.model, op.point)
    err = _mismatch(sorted(s["energy"] for s in sols), ref)
    if not err <= GATE:
        return f"energies off the reference by {err:.3e}"
    for s in sols:
        if not s["residual"] <= GATE * max(1.0, abs(s["energy"])):
            return f"residual {s['residual']:.3e} above the gate"
    return None


def _grid_ok(xs: np.ndarray, op) -> bool:
    grid = op.kmax * np.arange(op.samples) / (op.samples - 1)
    return xs.shape == grid.shape and bool(
        np.all(np.abs(xs - grid) <= 1e-12 * np.maximum(1.0, grid)))


def check_sweep(op, code: int, text: str) -> str | None:
    """None if a ``spectrum`` run printed the right rows, else why not."""
    if code != 0:
        return f"exit code {code}"
    sweep_name = "Gamma" if op.model == "atoms" else "k"
    bands = 4 if op.model in ("atoms", "bilayer") else 2
    if op.fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        if rows[0] != [sweep_name] + [f"E{j + 1}" for j in range(bands)]:
            return f"bad CSV header {rows[0]}"
        table = np.array(rows[1:], dtype=float)
        xs, got = table[:, 0], table[:, 1:]
    else:
        doc = json.loads(text)
        if doc["model"] != op.model or doc["sweep"] != sweep_name:
            return "wrong model or sweep name"
        xs = np.array([r[sweep_name] for r in doc["rows"]], dtype=float)
        got = np.array([r["energies"] for r in doc["rows"]], dtype=float)
        flags = [r.get("degenerate", False) for r in doc["rows"]]
        if flags != list(np.abs(xs) <= DEGENERACY_TOL):
            return "degenerate flags do not mark exactly the k = 0 row"
    if not _grid_ok(xs, op):
        return "sweep values are not the requested grid"
    err = _mismatch(got, sweep_energies(op.model, op.point, xs))
    if not err <= GATE:
        return f"energies off the reference by {err:.3e}"
    return None
