"""GA Hamiltonian functions for the four physical models and their
rotor-equation eigensolvers; no solver builds or factorizes a matrix.

Natural units throughout (hbar = v_F = m* = 1).  The quantization axis is e3
in every model; eigenspinors are rotors (or pseudoscalar-carried rotors in
the Cl(3,1) odd sector) taking e3 to a model-specific target direction.
Bilayer graphene reaches that form by eliminating one inversion sector.
"""

from __future__ import annotations

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
    "solve_cl30",
    "h_monolayer",
    "solve_monolayer",
    "pseudospin_average",
    "spin_average",
    "h_qw",
    "solve_qw",
    "h_two_atoms",
    "solve_two_atoms",
    "h_bilayer",
    "bilayer_spectrum",
    "bilayer_mexican_hat_k",
    "bilayer_quantization_residual",
    "solve_bilayer",
    "expectation_energy",
]

#: the rotor map's degeneracy rule.  In Cl(3,0), H = h0 + h.sigma with
#: max(|h0|, |h|) at most this is H = 0, a singular point (DegenerateError),
#: and |h| at most this times max(1, |h0|) is a spin-degenerate pair with no
#: rotor.  In Cl(3,1) it bounds |k| or the coupling the same way.
DEGENERACY_TOL = 1e-10

_E1_30 = Multivector.basis_vector(CL30, 1)
_E2_30 = Multivector.basis_vector(CL30, 2)
_E3_30 = Multivector.basis_vector(CL30, 3)
_E12_30 = _E1_30 * _E2_30

_E2_31 = Multivector.basis_vector(CL31, 2)
_E3_31 = Multivector.basis_vector(CL31, 3)
_E31_31 = _E3_31 * Multivector.basis_vector(CL31, 1)
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


def _eigenpair(h, energy: float, psi: Multivector, target, label: str) -> EigenSolution:
    """The eigenpair (energy, psi), with the residual of the Hamiltonian h."""
    spinor = Spinor(psi)
    residual = float(np.abs((h(spinor).mv - energy * psi).coeffs).max())
    return EigenSolution(energy, spinor, target, label, residual)


#: the scalar spinor 1, on which ``solve_cl30`` reads a Hamiltonian off
_ONE_30 = Spinor(Multivector.scalar(CL30, 1.0))


def solve_cl30(h, energies: list[float]) -> list[EigenSolution]:
    """Both bands of a Cl(3,0) Hamiltonian h with closed-form energies E- <= E+.

    On Pauli spinors H = h0 + h.sigma acts as H(psi) = h0 psi + h psi e3
    (Doran & Lasenby, ch. 8), so h0 = <H(1)>_0 and h = <(H(1) - h0) e3>_1.
    Quantization: E-+ = h0 -+ |h|, with eigenspinors the rotors e3 -> -+h/|h|.
    This assumes h perpendicular to e3: a sigma_z mass term puts h.e3 into the
    scalar part of H(1), and the quantization check raises ValueError."""
    # refused before H is applied, where an overflow reads as a NaN rotor
    if not all(map(math.isfinite, energies)):
        raise OverflowError("the energies overflow a float")
    h_of_one = h(_ONE_30).mv
    h0 = h_of_one.scalar_part()
    hvec = (h_of_one - h0) * _E3_30
    hnorm = math.hypot(*hvec.vector_coords())
    if max(abs(h0), hnorm) <= DEGENERACY_TOL:
        raise DegenerateError("degenerate point: H = 0, rotor undefined")
    out = []
    for sign, energy, label in zip((-1.0, 1.0), energies, ("valence", "conduction")):
        if abs(energy - (h0 + sign * hnorm)) > 1e-10 * max(1.0, abs(h0) + hnorm):
            raise ValueError(f"E = {energy!r} fails the quantization condition "
                             f"E = h0 -+ |h| = {h0 + sign * hnorm!r}")
        # spin degenerate to within the rotor map's resolution: no rotor
        if hnorm <= DEGENERACY_TOL * max(1.0, abs(h0)):
            out.append(EigenSolution(energy, None, None, label, 0.0, degenerate=True))
            continue
        target = sign * (hvec / hnorm)
        psi = rotor_from_vectors(_E3_30, target).value
        out.append(_eigenpair(h, energy, psi, target.vector_coords(), label))
    return out


def _solve_cl30_model(p: ModelParams) -> list[EigenSolution]:
    spec = MODELS[p.model]  # the model's own h and closed-form spectrum
    return solve_cl30(lambda psi: spec.h(psi, p), spec.spectrum(p.k, p))


# ---------------------------------------------------------------------
# monolayer graphene
# ---------------------------------------------------------------------


def h_monolayer(psi: Spinor, kx: float, ky: float) -> Spinor:
    """Massless-band Hamiltonian: H(psi) = k psi e3 in Cl(3,0)."""
    if psi.algebra != "cl30":
        raise ValueError("monolayer model lives in Cl(3,0)")
    return Spinor(_k_vector(kx, ky) * psi.mv * _E3_30)


def solve_monolayer(kx: float, ky: float) -> list[EigenSolution]:
    """Both bands E = -|k|, +|k| with rotor eigenspinors (1 -+ khat e3)/sqrt2."""
    return _solve_cl30_model(ModelParams("monolayer", kx=kx, ky=ky))


def pseudospin_average(psi: Spinor) -> np.ndarray:
    """Pseudospin direction psi e3 ~psi of a normalized Cl(3,0) spinor."""
    if psi.algebra != "cl30":
        raise ValueError("pseudospin average is defined for cl30 spinors")
    norm = (psi.mv * ~psi.mv).scalar_part()
    if abs(norm - 1.0) > 1e-10:
        raise ValueError("spinor must satisfy psi ~psi = 1")
    return (psi.mv * _E3_30 * ~psi.mv).vector_coords()


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
    return _solve_cl30_model(ModelParams("qw", kx=kx, ky=ky, alphaR=alphaR))


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


def bilayer_spectrum(k: float, U: float, gamma1: float) -> list[float]:
    """The four band energies at wave-vector magnitude k, sorted ascending."""
    base = k * k + U * U + gamma1 * gamma1 / 2.0
    inner = 0.5 * math.sqrt(
        gamma1 ** 4 + 4.0 * k * k * (4.0 * U * U + gamma1 * gamma1)
    )
    energies = []
    for s_in in (1.0, -1.0):
        radicand = base + s_in * inner
        # the radicand's rounding error is a few ulp of base, so the bound scales
        if radicand < 0.0 and radicand < -1e-12 * max(1.0, base):
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


#: an outer band whose even-sector t = s - k^2 is at most this fraction of
#: the odd sector's (near k = 0, where phi+ vanishes) takes its rotor in the
#: odd sector
_SINGULAR_TOL = 1e-6


def solve_bilayer(params: ModelParams) -> list[EigenSolution]:
    """Four bands from the closed form, eigenspinors from the rotor equation.

    With psi = phi+ + I phi- (phi+- even in the spatial algebra), H has blocks
    a = eta U e3 (even), d = gamma1 e2 - eta U e3 (odd) and -eta k (couplings),
    each acting as phi -> P phi + Q phi e3.  Eliminating phi- (Loewdin) leaves
    phi+ the rotor R: e3 -> h / (E - h0) of M(E) = a + k (E + d) k / s = h0 + h
    with s = E^2 - |d|^2, quantized by |h| = |E - h0|.  Through s and t = s -
    k^2, the target is (s a + k d k) / (E t) and phi- = -eta (k a + d k) R / t:
    a singular s does no harm.  Where phi+ vanishes (outer bands near k = 0) a
    and d swap roles, psi = I R + phi+; where h vanishes, a crossing."""
    if params.model != "bilayer":
        raise ValueError("expected bilayer parameters")
    energies = bilayer_spectrum(params.k, params.U, params.gamma1)
    # refused before the rotor step, where an overflow reads as a NaN rotor
    if not all(map(math.isfinite, energies)):
        raise OverflowError("the energies overflow a float")
    if max(params.k, abs(params.U), abs(params.gamma1)) <= DEGENERACY_TOL:
        raise DegenerateError("degenerate point: H = 0, rotor undefined")
    # eigenspinors do not change when H is scaled: reduce H / span, where the
    # largest |E|, span, bounds k, |U| and |gamma1|
    span = energies[-1]
    u, g1 = params.U / span, params.gamma1 / span
    k2 = (params.k / span) ** 2
    k = Multivector.vector(CL31, [params.kx / span, params.ky / span])
    a = (params.eta * u) * _E3_31
    d = g1 * _E2_31 - a
    # per sector, with e the eliminated block: the kept block, k keep + e k
    # (phi-'s numerator) and k e k
    even = (a, k * a + d * k, (k * d * k).grade(1))
    odd = (d, k * d + a * k, (k * a * k).grade(1))
    # t = s - k^2 from the closed form's E^2 = base -+ inner, free of the
    # cancellation in E^2 - |e|^2: on the outer bands q in the even sector and
    # p in the odd, on the inner -p and -q, where p q = m = k^2 (4 U^2 + gamma1^2)
    m = k2 * (4.0 * u * u + g1 * g1)
    p = 0.5 * g1 * g1 + math.sqrt(0.25 * g1 ** 4 + m)
    q = m / p if p > 0.0 else 0.0
    h = lambda s: h_bilayer(s, params)
    out = []
    for i, energy in enumerate(energies, start=1):
        outer = i in (1, 4)
        is_odd = outer and q <= _SINGULAR_TOL * p
        keep, numerator, kek = odd if is_odd else even
        t = p if is_odd else q if outer else -p
        s = k2 + t
        hs = s * keep + kek  # s h
        hnorm = math.hypot(*hs.vector_coords())
        # |h| at most DEGENERACY_TOL of H's scale: M(E) = h0 on the whole
        # sector, and a neighbouring band lies within 2 |h| (a crossing)
        if hnorm <= DEGENERACY_TOL * abs(s):
            out.append(EigenSolution(energy, None, None, f"band-{i}", 0.0, True))
            continue
        # |h| = |E - h0| is |s h| = |E t|, compared on squares to 1e-10 of H's
        # scale: E^2 carries the closed form's rounding, E itself up to its root
        if abs((energy / span) ** 2 - (hnorm / t) ** 2) > 1e-10:
            raise ValueError(f"E = {energy!r} fails the quantization condition")
        target = math.copysign(1.0 / hnorm, energy * t) * hs  # h / (E - h0)
        # rotor_from_vectors rejects e3 -> -e3 and loses accuracy near it, so
        # below the e1e2 plane a half turn e31 takes e3 to -e3 first
        below = target.coeffs[4] < 0.0
        rotor = rotor_from_vectors(_E3_31, -target if below else target).value
        rotor = rotor * _E31_31 if below else rotor
        rest = (-params.eta / t) * (numerator * rotor)
        psi = _I31 * rotor + rest if is_odd else rotor + _I31 * rest
        out.append(_eigenpair(h, energy, psi, target.vector_coords(), f"band-{i}"))
    return out


# ---------------------------------------------------------------------
# expectation value
# ---------------------------------------------------------------------


def expectation_energy(psi: Spinor, params: ModelParams) -> float:
    """Rayleigh value <psi~ H(psi)> / <psi~ psi> (dagger in Cl(3,1));
    equals the eigenenergy on eigenspinors."""
    h_psi = MODELS[params.model].h(psi, params)
    bra = _layout_of(psi.algebra).bra(psi.mv)
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
