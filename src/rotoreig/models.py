"""GA Hamiltonian functions for the four physical models and their
rotor-equation eigensolvers.

Natural units throughout (hbar = v_F = m* = 1).  The quantization axis is e3
in every model; eigenspinors are rotors (or pseudoscalar-carried rotors in
the Cl(3,1) odd sector) taking e3 to a model-specific target direction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import (
    CL30,
    CL31,
    Multivector,
    pseudoscalar,
    spatial_inversion,
    dagger,
)
from .rotors import rotor_exp, rotor_from_vectors
from .spinors import Spinor, _layout_of

__all__ = [
    "MODELS",
    "ModelSpec",
    "ModelParams",
    "DegenerateError",
    "EigenSolution",
    "DEGENERACY_TOL",
    "h_monolayer",
    "solve_monolayer",
    "pseudospin_average",
    "spin_average",
    "h_qw",
    "solve_qw",
    "h_two_atoms",
    "solve_two_atoms",
    "h_bilayer",
    "bilayer_operator",
    "bilayer_spectrum",
    "bilayer_mexican_hat_k",
    "bilayer_quantization_residual",
    "solve_bilayer",
    "expectation_energy",
]

#: |k| (or coupling) below this counts as a degenerate point of the rotor map
DEGENERACY_TOL = 1e-10

_E1_30 = Multivector.basis_vector(CL30, 1)
_E2_30 = Multivector.basis_vector(CL30, 2)
_E3_30 = Multivector.basis_vector(CL30, 3)
_E12_30 = _E1_30 * _E2_30

_E2_31 = Multivector.basis_vector(CL31, 2)
_E3_31 = Multivector.basis_vector(CL31, 3)
_E23_31 = _E2_31 * _E3_31
_I31 = pseudoscalar(CL31)
_IE3_31 = _I31 * _E3_31


@dataclass(frozen=True)
class ModelParams:
    """Parameter bundle for one model at one evaluation point."""

    model: str
    kx: float = 0.0
    ky: float = 0.0
    alphaR: float = 0.0
    omega: float = 0.0
    Gamma: float = 0.0
    gamma1: float = 0.0
    U: float = 0.0
    eta: int = 1

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        if self.eta not in (1, -1):
            raise ValueError("eta must be +1 or -1")

    @property
    def k(self) -> float:
        return math.hypot(self.kx, self.ky)

    def to_json_dict(self) -> dict:
        return {"model": self.model,
                **{name: getattr(self, name) for name in MODELS[self.model].fields}}


@dataclass(frozen=True)
class ModelSpec:
    """One model: its algebra, parameters, Hamiltonian, solver and spectrum.

    The callables take a ``ModelParams`` and call the module functions by
    name, so a patched module attribute (``models.solve_qw``) reaches them."""

    algebra: str
    fields: tuple[str, ...]     # the model's ModelParams fields, in JSON order
    couplings: tuple[str, ...]  # the couplings `verify` draws, in draw order
    sweep: str                  # the ModelParams attribute `spectrum` sweeps
    h: Callable[[Spinor, ModelParams], Spinor]
    solve: Callable[[ModelParams], list[EigenSolution]]
    spectrum: Callable[[float, ModelParams], list[float]]  # sorted energies
    average: str | None         # JSON key of the eigenspinors' e3 average


class DegenerateError(ValueError):
    """A singular point of the model, where the rotor map is undefined."""


@dataclass
class EigenSolution:
    """One eigenpair with its rotor diagnostics."""

    energy: float
    spinor: Spinor | None
    target_vector: np.ndarray | None
    band_label: str
    residual: float
    degenerate: bool = False

    def to_json_dict(self) -> dict:
        d = {
            "energy": float(self.energy) + 0.0,
            "band": self.band_label,
            "residual": float(self.residual),
            "degenerate": bool(self.degenerate),
        }
        d["spinor"] = None if self.spinor is None else self.spinor.to_json_dict()
        if self.target_vector is not None:
            d["target"] = [float(x) + 0.0 for x in self.target_vector]
        return d


def _k_vector(kx: float, ky: float) -> Multivector:
    return kx * _E1_30 + ky * _E2_30


def _residual(h_of_psi: Multivector, energy: float, psi: Multivector) -> float:
    return float(np.max(np.abs((h_of_psi - energy * psi).coeffs)))


def _eigenpair(h, energy: float, psi: Multivector, target, label: str) -> EigenSolution:
    """The eigenpair (energy, psi), with the residual of the Hamiltonian h."""
    spinor = Spinor(psi)
    return EigenSolution(energy, spinor, target, label,
                         _residual(h(spinor).mv, energy, psi))


# ---------------------------------------------------------------------
# monolayer graphene
# ---------------------------------------------------------------------


def h_monolayer(psi: Spinor, kx: float, ky: float) -> Spinor:
    """Massless-band Hamiltonian: H(psi) = k psi e3 in Cl(3,0)."""
    if psi.algebra != "cl30":
        raise ValueError("monolayer model lives in Cl(3,0)")
    return Spinor(_k_vector(kx, ky) * psi.mv * _E3_30)


def solve_monolayer(kx: float, ky: float) -> list[EigenSolution]:
    """Both bands E = -|k|, +|k| with rotor eigenspinors (1 +- khat e3)/sqrt2."""
    k = math.hypot(kx, ky)
    if k <= DEGENERACY_TOL:
        raise DegenerateError("degenerate Dirac point: rotor undefined at k = 0")
    khat = _k_vector(kx / k, ky / k)
    out = []
    for sign, label in ((-1.0, "valence"), (1.0, "conduction")):
        energy = sign * k
        target = sign * khat
        psi = rotor_from_vectors(_E3_30, target).value
        out.append(_eigenpair(lambda s: h_monolayer(s, kx, ky), energy, psi,
                              target.vector_coords(), label))
    return out


def pseudospin_average(psi: Spinor) -> np.ndarray:
    """Pseudospin direction psi e3 ~psi of a normalized Cl(3,0) spinor."""
    if psi.algebra != "cl30":
        raise ValueError("pseudospin average is defined for cl30 spinors")
    norm = (psi.mv * ~psi.mv).scalar_part()
    if abs(norm - 1.0) > 1e-10:
        raise ValueError("spinor must satisfy psi ~psi = 1")
    return (psi.mv * _E3_30 * ~psi.mv).grade(1).vector_coords()


#: spin average of the quantum-well model; same construction as pseudospin
spin_average = pseudospin_average


# ---------------------------------------------------------------------
# electron in a quantum well with Rashba coupling
# ---------------------------------------------------------------------


def h_qw(psi: Spinor, kx: float, ky: float, alphaR: float) -> Spinor:
    """H(psi) = (k^2/2) psi + alphaR e12 k psi e3 in Cl(3,0)."""
    if psi.algebra != "cl30":
        raise ValueError("quantum-well model lives in Cl(3,0)")
    k2 = kx * kx + ky * ky
    kin = (k2 / 2.0) * psi.mv
    so = alphaR * (_E12_30 * _k_vector(kx, ky) * psi.mv * _E3_30)
    return Spinor(kin + so)


def solve_qw(kx: float, ky: float, alphaR: float) -> list[EigenSolution]:
    """Spin-split bands E = k^2/2 -+ k alphaR with in-plane rotor targets."""
    k = math.hypot(kx, ky)
    if k <= DEGENERACY_TOL:
        raise DegenerateError("degenerate point: rotor undetermined at k = 0")
    out = []
    k_dot_e12 = (_k_vector(kx, ky) | _E12_30)  # = kx e2 - ky e1
    for sign, label in ((-1.0, "valence"), (1.0, "conduction")):
        energy = k * k / 2.0 + sign * k * alphaR
        if abs(alphaR) <= 1e-12:
            # spin degenerate to within the rotor map's resolution
            out.append(EigenSolution(energy, None, None, label, 0.0, degenerate=True))
            continue
        coeff = (k * k / 2.0 - energy) / (alphaR * k * k)
        target = coeff * k_dot_e12
        psi = rotor_from_vectors(_E3_30, target).value
        out.append(_eigenpair(lambda s: h_qw(s, kx, ky, alphaR), energy, psi,
                              target.vector_coords(), label))
    out.sort(key=lambda s: s.energy)
    return out


# ---------------------------------------------------------------------
# two coupled two-level atoms
# ---------------------------------------------------------------------


def h_two_atoms(psi: Spinor, omega: float, Gamma: float) -> Spinor:
    """Coupled-pair Hamiltonian in Cl(3,1).

    Implemented in the decoupled-consistent form
        H(psi) = (omega/2) e3 (psi - psibar) e3 - Gamma e2 psi e3,
    equivalently -(omega/2) e34 psi e34 + (omega/2) e3 psi e3 - Gamma e2 psi e3,
    whose even/odd sectors carry -+Gamma and -+sqrt(omega^2 + Gamma^2).
    """
    if psi.algebra != "cl31":
        raise ValueError("two-atom model lives in Cl(3,1)")
    odd_part = (psi.mv - spatial_inversion(psi.mv)) / 2.0
    return Spinor(
        omega * (_E3_31 * odd_part * _E3_31) - Gamma * (_E2_31 * psi.mv * _E3_31)
    )


def solve_two_atoms(omega: float, Gamma: float) -> list[EigenSolution]:
    """Four levels: even sector -+Gamma, odd sector -+sqrt(omega^2+Gamma^2).

    Odd eigenspinors are returned as psi = I C with rotor carrier C; the
    stored target vector is C e3 ~C.  The carrier normalization psi ~psi = -1
    makes the odd carrier target -sign(E) * (omega e3 - Gamma e2)/|..|.
    """
    root = math.hypot(omega, Gamma)
    if root <= DEGENERACY_TOL:
        raise DegenerateError("fully degenerate: omega = Gamma = 0")
    h = lambda s: h_two_atoms(s, omega, Gamma)
    out = []
    # even sector
    for i, energy in enumerate((-Gamma, Gamma), start=1):
        if abs(Gamma) <= DEGENERACY_TOL:
            out.append(EigenSolution(energy, None, None, f"even-{i}", 0.0,
                                     degenerate=True))
            continue
        target = -(energy / Gamma) * _E2_31
        phi = math.atan2(target.vector_coords()[1], 0.0)
        psi = rotor_exp(_E23_31, phi).value
        out.append(_eigenpair(h, energy, psi, target.vector_coords(), f"even-{i}"))
    # odd sector
    for i, energy in enumerate((-root, root), start=1):
        # carrier target in the e2,e3 plane: -(E/root) * (omega e3 - Gamma e2)/root
        alpha = -(energy / root) * (omega / root)   # e3 component
        beta = (energy / root) * (Gamma / root)     # e2 component
        carrier = rotor_exp(_E23_31, math.atan2(beta, alpha)).value
        target = (carrier * _E3_31 * ~carrier).vector_coords()
        out.append(_eigenpair(h, energy, _I31 * carrier, target, f"odd-{i}"))
    out.sort(key=lambda s: s.energy)
    return out


# ---------------------------------------------------------------------
# bilayer graphene
# ---------------------------------------------------------------------


def h_bilayer(psi: Spinor, params: ModelParams) -> Spinor:
    """H(psi) = eta k psi I e3 - (gamma1/2) e2 (psi - psibar) e3
    + eta U e3 psi e3 in Cl(3,1)."""
    if psi.algebra != "cl31":
        raise ValueError("bilayer model lives in Cl(3,1)")
    k = Multivector.vector(CL31, [params.kx, params.ky, 0.0, 0.0])
    eta = float(params.eta)
    kin = eta * (k * psi.mv * _IE3_31)
    coupling = -(params.gamma1 / 2.0) * (
        _E2_31 * (psi.mv - spatial_inversion(psi.mv)) * _E3_31
    )
    bias = eta * params.U * (_E3_31 * psi.mv * _E3_31)
    return Spinor(kin + coupling + bias)


#: the coefficient-map signs of Cl(3,1) spinors, one per operator row
_CL31_ROW_SIGNS = _layout_of("cl31").signs[:, None]


@functools.cache
def _bilayer_terms() -> tuple[np.ndarray, ...]:
    """Term matrices (kx, ky, gamma1, U) of ``h_bilayer`` on spinor coefficients,
    without the coefficient-map row signs.

    Each is ``h_bilayer``'s operator matrix at one unit parameter (kx = 1,
    ky = 1, gamma1 = -2 so that -(gamma1/2) = 1, U = 1), so the spinor
    subspace check runs on every term column once per process."""
    from .oracle import ga_operator_matrix  # deferred: oracle imports models

    terms = []
    for unit in ({"kx": 1.0}, {"ky": 1.0}, {"gamma1": -2.0}, {"U": 1.0}):
        p = ModelParams("bilayer", **unit)
        term = _CL31_ROW_SIGNS * ga_operator_matrix(
            lambda s: h_bilayer(s, p), "cl31") + 0.0
        term.flags.writeable = False  # shared by every caller
        terms.append(term)
    return tuple(terms)


def bilayer_operator(params: ModelParams) -> np.ndarray:
    """The 8x8 real matrix of ``h_bilayer`` on spinor coefficients.

    Assembled from ``_bilayer_terms`` in ``h_bilayer``'s own order of float
    operations, so its bytes, signed zeros included, are those of
    ``oracle.ga_operator_matrix`` applied to ``h_bilayer``."""
    m_kx, m_ky, m_gamma1, m_u = _bilayer_terms()
    eta = float(params.eta)
    return _CL31_ROW_SIGNS * (
        eta * (params.kx * m_kx + params.ky * m_ky + 0.0)
        + (-(params.gamma1 / 2.0)) * m_gamma1
        + (eta * params.U) * m_u
    )


def bilayer_spectrum(k: float, U: float, gamma1: float) -> list[float]:
    """The four band energies at wave-vector magnitude k, sorted ascending."""
    base = k * k + U * U + gamma1 * gamma1 / 2.0
    inner = 0.5 * math.sqrt(
        gamma1 ** 4 + 4.0 * k * k * (4.0 * U * U + gamma1 * gamma1)
    )
    energies = []
    for s_in in (1.0, -1.0):
        radicand = base + s_in * inner
        if radicand < -1e-12:
            raise ArithmeticError("negative radicand in bilayer spectrum")
        e = math.sqrt(max(radicand, 0.0))
        energies.extend([-e, e])
    return sorted(energies)


def bilayer_mexican_hat_k(U: float, gamma1: float) -> float:
    """Wave vector of the conduction-band minimum for a biased bilayer.

    Closed form from d(E^2)/d(k^2) = 0 of the lower conduction band:
    k*^2 = 2 U^2 (2 U^2 + gamma1^2) / (4 U^2 + gamma1^2).
    """
    denom = 4.0 * U * U + gamma1 * gamma1
    if denom <= 0.0:
        raise ValueError("minimum undefined for U = gamma1 = 0")
    return math.sqrt(2.0 * U * U * (2.0 * U * U + gamma1 * gamma1) / denom)


def bilayer_quantization_residual(
    energy: float, k: float, U: float, gamma1: float
) -> float:
    """ahat^2 - 1 at the candidate energy; zero exactly at spectrum roots."""
    denom = energy * energy * (4.0 * U * U + gamma1 * gamma1)
    if denom <= 1e-14:
        raise ValueError(
            "quantization condition indeterminate (E ~ 0 or U = gamma1 = 0)"
        )
    num = (energy * energy - k * k + U * U) ** 2 + U * U * gamma1 * gamma1
    return num / denom - 1.0


def solve_bilayer(params: ModelParams) -> list[EigenSolution]:
    """Spectrum from the closed form; eigenspinors from the null space of the
    8x8 real coefficient operator, then validated against the rotor picture
    (psi+ e3 ~psi+ must be a unit vector and satisfy the quantization
    condition)."""
    if params.model != "bilayer":
        raise ValueError("expected bilayer parameters")
    energies = bilayer_spectrum(params.k, params.U, params.gamma1)
    hop = bilayer_operator(params)
    out = []
    for i, energy in enumerate(energies, start=1):
        label = f"band-{i}"
        # 2-dim null space of (H - E); pick the combination with the largest
        # even part so the rotor diagnostics are well conditioned
        _, svals, vt = np.linalg.svd(hop - energy * np.eye(8))
        basis = vt[-2:]
        even_block = basis[:, :4].T  # maps combo coeffs -> a coefficients
        _, _, wt = np.linalg.svd(even_block)
        combo = wt[0]
        vec = combo @ basis
        even_norm = float(np.linalg.norm(vec[:4]))
        degenerate = (
            abs(energy) <= DEGENERACY_TOL
            or even_norm <= 1e-8
            or svals[-3] <= 1e-8  # null space larger than the complex pair
        )
        if even_norm > 1e-12:
            vec = vec / even_norm
        psi = Spinor.from_coeff_vector("cl31", vec)
        res = _residual(h_bilayer(psi, params).mv, energy, psi.mv)
        target = None
        if not degenerate:
            even = (psi.mv + spatial_inversion(psi.mv)) / 2.0
            ahat = (even * _E3_31 * ~even).grade(1)
            target = ahat.vector_coords()
        out.append(EigenSolution(energy, psi, target, label, res, degenerate))
    return out


# ---------------------------------------------------------------------
# expectation value
# ---------------------------------------------------------------------


def expectation_energy(psi: Spinor, params: ModelParams) -> float:
    """Rayleigh value <psi~ H(psi)> / <psi~ psi> (dagger in Cl(3,1));
    equals the eigenenergy on eigenspinors."""
    h_psi = MODELS[params.model].h(psi, params)
    bra = ~psi.mv if psi.algebra == "cl30" else dagger(psi.mv)
    norm = (bra * psi.mv).scalar_part()
    if abs(norm) < 1e-14:
        raise ValueError("cannot normalize a null spinor")
    return (bra * h_psi.mv).scalar_part() / norm


# ---------------------------------------------------------------------
# the model registry, in the paper's order
# ---------------------------------------------------------------------


MODELS: dict[str, ModelSpec] = {
    "monolayer": ModelSpec(
        "cl30", ("kx", "ky"), (), "k",
        h=lambda psi, p: h_monolayer(psi, p.kx, p.ky),
        solve=lambda p: solve_monolayer(p.kx, p.ky),
        spectrum=lambda k, p: sorted([-k, k]),
        average="pseudospin",
    ),
    "qw": ModelSpec(
        "cl30", ("kx", "ky", "alphaR"), ("alphaR",), "k",
        h=lambda psi, p: h_qw(psi, p.kx, p.ky, p.alphaR),
        solve=lambda p: solve_qw(p.kx, p.ky, p.alphaR),
        spectrum=lambda k, p: sorted([k * k / 2.0 - k * p.alphaR,
                                      k * k / 2.0 + k * p.alphaR]),
        average="spin",
    ),
    "atoms": ModelSpec(
        # the sweep variable is the coupling Gamma; omega splits the levels
        "cl31", ("omega", "Gamma"), ("omega", "Gamma"), "Gamma",
        h=lambda psi, p: h_two_atoms(psi, p.omega, p.Gamma),
        solve=lambda p: solve_two_atoms(p.omega, p.Gamma),
        spectrum=lambda g, p: sorted([-g, g, -math.hypot(p.omega, g),
                                      math.hypot(p.omega, g)]),
        average=None,
    ),
    "bilayer": ModelSpec(
        "cl31", ("kx", "ky", "U", "gamma1", "eta"), ("gamma1", "U"), "k",
        h=lambda psi, p: h_bilayer(psi, p),
        solve=lambda p: solve_bilayer(p),
        spectrum=lambda k, p: bilayer_spectrum(k, p.U, p.gamma1),
        average=None,
    ),
}
