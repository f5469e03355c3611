"""GA Hamiltonians of the four models (hbar = v_F = m* = 1) and one rotor
solver per algebra, which reads the model's blocks off H applied to fixed
spinors and builds no matrix; eigenspinors are rotors taking e3 to a target.
The models' parameters and closed-form energies are in ``spectra``."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import (
    CL30,
    CL31,
    TOL,
    Multivector,
    pseudoscalar,
    spatial_parts,
)
from .rotors import rotor_from_vectors
from .spectra import DEGENERACY_TOL, MODELS, ModelParams, _cl31_levels, _unit_scale
from .spinors import Spinor, _layout_of

__all__ = [
    "HAMILTONIANS",
    "DegenerateError",
    "EigenSolution",
    "solve",
    "solve_cl30",
    "solve_cl31",
    "h_monolayer",
    "pseudospin_average",
    "h_qw",
    "h_two_atoms",
    "h_bilayer",
    "expectation_energy",
]

_E3_30 = Multivector.basis_vector(CL30, 3)
_E12_30 = Multivector.blade(CL30, 0b011)

_E2_31 = Multivector.basis_vector(CL31, 2)
_E3_31 = Multivector.basis_vector(CL31, 3)
_E31_31 = _E3_31 * Multivector.basis_vector(CL31, 1)
_E23_31 = _E2_31 * _E3_31
_I31 = pseudoscalar(CL31)


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


def _k_vector(kx: float, ky: float) -> Multivector:
    # kx e1 + ky e2 in one numpy call.  The signs of k's zero coefficients
    # reach no result: every product k enters sums its terms from +0.0, or
    # adds + 0.0 to a gather
    return Multivector._wrap(CL30, np.array([0.0, kx, ky, 0.0, 0.0, 0.0, 0.0, 0.0]))


def _stacked_eigenpairs(h, bands: list, psi: np.ndarray, targets) -> list[EigenSolution]:
    """bands, with each (energy, label) made its eigenpair with the next row
    of the stack psi, the next target and the residual max|H psi - E psi| of
    the Hamiltonian h: one Spinor check and one application of h for them
    all; the EigenSolutions among them (degenerate bands) stay where they are."""
    pending = [band for band in bands if isinstance(band, tuple)]
    if not pending:
        return bands
    energies, labels = zip(*pending)
    spinor = Spinor(Multivector._wrap(CL31, psi))
    gap = np.abs(h(spinor).mv.coeffs - np.array(energies)[:, None] * psi)
    solved = map(EigenSolution, energies, spinor._rows(), targets, labels,
                 gap.max(axis=1).tolist())
    return [next(solved) if isinstance(band, tuple) else band for band in bands]


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
    # (H(1) - h0) e3 in one gather: H(1) - h0 is exactly 0.0 on the scalar,
    # which e3 takes to e3 (blade 0b100)
    hvec = h_of_one * _E3_30
    hvec.coeffs[0b100] = 0.0
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
        target = hvec / (sign * hnorm)  # -(x / y) = x / -y, signed zeros too
        psi = rotor_from_vectors(_E3_30, target).value
        # one band at a time: a stack of two costs Cl(3,0) more than it saves
        spinor = Spinor(psi)
        residual = float(np.abs(h(spinor).mv.coeffs - energy * psi.coeffs).max())
        out.append(EigenSolution(energy, spinor, target.vector_coords(), label, residual))
    return out


# ---------------------------------------------------------------------
# the Cl(3,1) rotor solver
# ---------------------------------------------------------------------


#: the spinors 1 and I as one stack, on which ``solve_cl31`` reads a
#: Hamiltonian off
_ONE_AND_I_31 = Spinor(Multivector._wrap(
    CL31, np.array([Multivector.scalar(CL31, 1.0).coeffs, _I31.coeffs])))
#: -I e3: -I X e3 = X (-I e3) for X = <H>_-, which commutes with I
_MIE3_31 = -(_I31 * _E3_31)
#: 1 on the blades of a block vector (e1, e2, e3), 0 elsewhere
_IN_BLOCK_31 = Multivector.vector(CL31, [1.0, 1.0, 1.0]).coeffs
#: a coupled band whose even-sector t is at most this fraction of the odd
#: sector's (outer bands near c = 0, where phi+ vanishes) takes its rotor
#: in the odd sector
_SINGULAR_TOL = 1e-6


def _read_off(h) -> list[Multivector]:
    """The vector blocks a, c, d of h: H(1) = a e3 + I c e3, H(I) = c e3 + I d e3."""
    plus, minus = spatial_parts(h(_ONE_AND_I_31).mv)
    # <H(1)>_+ e3, <H(I)>_+ e3, -I <H(1)>_- e3 and -I <H(I)>_- e3: a, c, c, d
    read = np.concatenate([(plus * _E3_31).coeffs, (minus * _MIE3_31).coeffs])
    blocks = read * _IN_BLOCK_31
    # a part below TOL of H's largest is rounding; c is read off H(1)
    if np.abs(read - blocks[[0, 2, 2, 3]]).max() > TOL * np.abs(read).max():
        raise ValueError("H is not in Pauli-block form: a block has a scalar, e4 or "
                         "higher-grade part, or H(1) and H(I) give different couplings c")
    return [Multivector._wrap(CL31, row) for row in blocks[[0, 2, 3]]]


def _rotor_to(target: Multivector) -> Multivector:
    """The rotor taking e3 to the unit vector target, or the stack of rotors
    taking e3 to each row of a stack of targets."""
    # rotor_from_vectors rejects e3 -> -e3 and loses accuracy near it, so
    # below the e1e2 plane a half turn e31 takes e3 to -e3 first
    if target.coeffs.ndim == 1:
        below = target.coeffs[4] < 0.0
        rotor = rotor_from_vectors(_E3_31, -target if below else target).value
        return rotor * _E31_31 if below else rotor
    below = target.coeffs[:, 4:5] < 0.0
    rotor = rotor_from_vectors(_E3_31, Multivector._wrap(
        CL31, np.where(below, -target.coeffs, target.coeffs))).value
    return Multivector._wrap(CL31, np.where(below, (rotor * _E31_31).coeffs, rotor.coeffs))


def solve_cl31(h) -> list[EigenSolution]:
    """The four levels of a Cl(3,1) Hamiltonian h in Pauli-block form: on
    psi = phi+ + I phi- (phi+- spatially even) blocks a (even), d (odd) and
    c (coupling) act as phi -> v phi e3.  The energies are -+E+, -+E- of
    ``_cl31_levels``.  Uncoupled (c = 0) the eigenspinors are the rotor e3 ->
    a/E (even-i) and I times e3 -> d/E (odd-i).  Coupled, eliminating phi-
    (Loewdin) leaves phi+ the rotor R: e3 -> h / (E - h0) of M(E) = a + c (E +
    d) c / s = h0 + h, s = E^2 - |d|^2, |h| = |E - h0|: with t = s - |c|^2 the
    target is (s a + c d c) / (E t) and phi- = (c a + d c) R / t.

    The coupled bands are built as one stack.  A loop over the bands picks
    each band's sector, t and s, and, on the stack of s h, |h| (math.hypot
    per band), the crossings and the quantization check; every other step
    is one numpy call over the bands that get a rotor, each branch a per-row
    mask: the sector's rows of a, d and the numerators, the half turn below
    the e1e2 plane and psi = R + I phi- or I R + phi+."""
    a, c, d = _read_off(h)
    coords = [v.vector_coords()[:3].tolist() for v in (a, c, d)]
    na, nc, nd = (math.hypot(*x) for x in coords)
    if max(na, nc, nd) <= DEGENERACY_TOL:
        raise DegenerateError("degenerate point: H = 0, rotor undefined")
    # the invariants as sums of products; bilayer_spectrum computes the same
    f = _unit_scale(max(na, nc, nd))
    (a1, a2, a3), (c1, c2, c3), (d1, d2, d3) = ([x * f for x in v] for v in coords)
    cc = (nc * f) * (nc * f)
    cross = 4.0 * (c1 * a1 + c2 * a2 + c3 * a3) * (c1 * d1 + c2 * d2 + c3 * d3)
    gap = ((d1 - a1) * (d1 + a1) + (d2 - a2) * (d2 + a2) + (d3 - a3) * (d3 + a3)) / 2.0
    amd = (a1 - d1) * (a1 - d1) + (a2 - d2) * (a2 - d2) + (a3 - d3) * (a3 - d3)
    ad_plus = cc + (a1 * d1 + a2 * d2 + a3 * d3)  # |c|^2 + a.d
    w1, w2, w3 = a2 * d3 - a3 * d2, a3 * d1 - a1 * d3, a1 * d2 - a2 * d1  # a^d
    lo, hi, t_even, t_odd = _cl31_levels(
        na * f, nc * f, nd * f, gap, cc * amd + cross,
        ad_plus * ad_plus + (w1 * w1 + w2 * w2 + w3 * w3) - cross)
    energies = [-hi / f, -lo / f, lo / f, hi / f]
    # refused before the rotor step, where an overflow reads as a NaN rotor
    if not all(map(math.isfinite, energies)):
        raise OverflowError("the energies overflow a float")
    if cc == 0.0:  # |c| below H's resolution, where t can underflow
        out = _uncoupled(h, a, na, d, nd)
    else:
        out = _coupled(h, energies, a, c, d, nc, t_even / (hi * hi), t_odd / (hi * hi))
    # a scalar term in a block reads as an e3 component on 1 and I, so the
    # read-off cannot see it; the residuals do
    if any(s.residual > 1e-10 * energies[-1] for s in out):
        raise ValueError("H is not in Pauli-block form: a residual exceeds 1e-10 of H")
    return out


#: the blades of a Cl(3,1) vector, in the order of ``vector_coords``
_VECTOR_31 = CL31.tables["grade_masks"][1]


def _coupled(h, energies, a, c, d, nc: float, t_even: float, t_odd: float) -> list:
    """The four bands of ``solve_cl31`` at |c| > 0, with t_even and t_odd
    already divided by E+^2."""
    # eigenspinors do not change when H is scaled: reduce H / span, span
    # the largest |E|, in which t is t / E+^2
    span = energies[-1]
    a, c, d, cc = a / span, c / span, d / span, (nc / span) ** 2
    # each sector's t = E^2 - |c|^2 - |e|^2, e the eliminated block: on the
    # inner bands the even sector's is minus the odd one's on the outer,
    # and vice versa
    is_odd, ts = [], []
    for te, to in ((t_even, t_odd), (-t_odd, -t_even), (-t_odd, -t_even), (t_even, t_odd)):
        is_odd.append(abs(te) <= _SINGULAR_TOL * abs(to))
        ts.append(to if is_odd[-1] else te)
    # each band's kept block, c keep + e c (phi-'s numerator) and c e c, per
    # sector; the odd one only if a band uses it
    odd = np.array(is_odd)[:, None]
    even = (a, c * a + d * c, (c * d * c).grade(1))
    if odd.any():
        swapped = (d, c * d + a * c, (c * a * c).grade(1))
        keep, numerator, cec = (np.where(odd, o.coeffs, e.coeffs) for e, o in zip(even, swapped))
    else:  # one row for every band
        keep, numerator, cec = (v.coeffs for v in even)
    hs = keep * np.array([cc + t for t in ts])[:, None] + cec  # s h
    bands, live, scale = [], [], []
    for i, (energy, t, h_coords) in enumerate(zip(energies, ts, hs[:, _VECTOR_31].tolist())):
        hnorm = math.hypot(*h_coords)
        # |h| at most DEGENERACY_TOL of H's scale: M(E) = h0 on the whole
        # sector, and a neighbouring band lies within 2 |h| (a crossing, no
        # spinor); where phi+ vanishes, is_odd swaps a and d (psi = I R + phi+)
        if hnorm <= DEGENERACY_TOL * abs(cc + t):
            bands.append(EigenSolution(energy, None, None, f"band-{i + 1}", 0.0, True))
            continue
        # |h| = |E - h0| is |s h| = |E t|, compared on squares to 1e-10 of
        # H's scale: E^2 carries the levels' rounding, E up to its root
        if abs((energy / span) ** 2 - (hnorm / t) ** 2) > 1e-10:
            raise ValueError(f"E = {energy!r} fails the quantization condition")
        bands.append((energy, f"band-{i + 1}"))
        live.append(i)
        scale.append((math.copysign(1.0 / hnorm, energy * t), 1.0 / t))
    if not live:
        return bands
    if len(live) < len(bands):  # the crossings get no rotor
        hs, odd = hs[live], odd[live]
        numerator = numerator[live] if numerator.ndim == 2 else numerator
    scale = np.array(scale)
    targets = hs * scale[:, :1]  # h / (E - h0)
    rotor = _rotor_to(Multivector._wrap(CL31, targets))
    rest = (Multivector._wrap(CL31, numerator) * rotor).coeffs * scale[:, 1:]  # phi- / t
    psi = np.where(odd, (_I31 * rotor).coeffs + rest,
                   rotor.coeffs + (_I31 * Multivector._wrap(CL31, rest)).coeffs)
    return _stacked_eigenpairs(h, bands, psi, targets[:, _VECTOR_31])


def _uncoupled(h, a: Multivector, na: float, d: Multivector, nd: float) -> list[EigenSolution]:
    """Levels -+|a| (even-i), -+|d| (odd-i); a block <= DEGENERACY_TOL: no rotors."""
    out, psis, targets = [], [], []
    # one rotor per sector: a stack of two costs more than it saves
    for sector, block, norm, carrier in (("even", a, na, 1.0), ("odd", d, nd, _I31)):
        if norm <= DEGENERACY_TOL:
            out += [EigenSolution(e, None, None, f"{sector}-{i}", 0.0, True)
                    for e, i in ((-norm, 1), (norm, 2))]
            continue
        # the level +|block|: the rotor e3 -> block/|block| (times I if odd);
        # e23 anticommutes with e3, so upper e23 takes e3 to -block/|block|
        upper = carrier * _rotor_to(block / norm)
        for energy, i, psi in ((-norm, 1, upper * _E23_31), (norm, 2, upper)):
            out.append((energy, f"{sector}-{i}"))
            psis.append(psi.coeffs)
            targets.append((block / energy).vector_coords())
    return sorted(_stacked_eigenpairs(h, out, np.array(psis), targets),
                  key=lambda s: s.energy)


def solve(params: ModelParams) -> list[EigenSolution]:
    """Every eigenpair of the model at params, by its algebra's rotor solver."""
    spec, model_h = MODELS[params.model], HAMILTONIANS[params.model]
    h = lambda psi: model_h(psi, params)
    if spec.algebra == "cl30":
        return solve_cl30(h, spec.spectrum(params.k, params))
    return solve_cl31(h)


# ---------------------------------------------------------------------
# monolayer graphene
# ---------------------------------------------------------------------


def h_monolayer(psi: Spinor, kx: float, ky: float) -> Spinor:
    """Massless-band Hamiltonian: H(psi) = k psi e3 in Cl(3,0)."""
    if psi.algebra != "cl30":
        raise ValueError("monolayer model lives in Cl(3,0)")
    return Spinor(_k_vector(kx, ky) * psi.mv * _E3_30)


def pseudospin_average(psi: Spinor) -> np.ndarray:
    """Pseudospin direction psi e3 ~psi of a normalized Cl(3,0) spinor."""
    if psi.algebra != "cl30":
        raise ValueError("pseudospin average is defined for cl30 spinors")
    # <psi ~psi>_0 is the sum of the coefficients' squares; only compared
    coeffs = psi.mv.coeffs
    norm = float(coeffs.dot(coeffs))
    # written so that a NaN norm fails it too
    if not abs(norm - 1.0) <= 1e-10:
        raise ValueError("spinor must satisfy psi ~psi = 1")
    return (psi.mv * _E3_30 * ~psi.mv).vector_coords()


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


# ---------------------------------------------------------------------
# two coupled two-level atoms
# ---------------------------------------------------------------------


def h_two_atoms(psi: Spinor, omega: float, Gamma: float) -> Spinor:
    """Coupled-pair Hamiltonian H(psi) = (omega/2) e3 (psi - psibar) e3 -
    Gamma e2 psi e3 in Cl(3,1), equivalently -(omega/2) e34 psi e34 +
    (omega/2) e3 psi e3 - Gamma e2 psi e3: blocks a = -Gamma e2, c = 0 and
    d = Gamma e2 - omega e3, with levels -+Gamma and -+sqrt(omega^2 + Gamma^2)."""
    if psi.algebra != "cl31":
        raise ValueError("two-atom model lives in Cl(3,1)")
    odd_part = spatial_parts(psi.mv)[1]
    return Spinor((omega * (_E3_31 * odd_part) - Gamma * (_E2_31 * psi.mv)) * _E3_31)


# ---------------------------------------------------------------------
# bilayer graphene
# ---------------------------------------------------------------------


def h_bilayer(psi: Spinor, params: ModelParams) -> Spinor:
    """H(psi) = eta k psi I e3 - (gamma1/2) e2 (psi - psibar) e3
    + eta U e3 psi e3 in Cl(3,1)."""
    if psi.algebra != "cl31":
        raise ValueError("bilayer model lives in Cl(3,1)")
    k = Multivector._wrap(CL31, np.array([0.0, params.kx, params.ky] + [0.0] * 13))
    eta = float(params.eta)
    kin = eta * (k * psi.mv * _I31)
    coupling = -params.gamma1 * (_E2_31 * spatial_parts(psi.mv)[1])
    bias = eta * params.U * (_E3_31 * psi.mv)
    # the three terms share the right factor e3
    return Spinor((kin + coupling + bias) * _E3_31)


# ---------------------------------------------------------------------
# expectation value
# ---------------------------------------------------------------------


def expectation_energy(psi: Spinor, params: ModelParams) -> float:
    """Rayleigh value <psi~ H(psi)> / <psi~ psi> (dagger in Cl(3,1));
    equals the eigenenergy on eigenspinors."""
    h_psi = HAMILTONIANS[params.model](psi, params)
    bra = _layout_of(psi.algebra).bra(psi.mv)
    norm = (bra * psi.mv).scalar_part()
    # relative to the spinor's own scale m^2, m its largest coefficient: the
    # quotient does not depend on the spinor's scale
    top = float(np.abs(psi.mv.coeffs).max())
    if top == 0.0 or abs(norm) / top <= 1e-14 * top:
        raise ValueError("cannot normalize a null spinor")
    return (bra * h_psi.mv).scalar_part() / norm


# ---------------------------------------------------------------------
# the Hamiltonians, in ``spectra.MODELS``' order
# ---------------------------------------------------------------------


#: each model's H(psi) at a ModelParams; the entries look the module
#: functions up when called, so a patched ``models.h_qw`` is what they run
HAMILTONIANS: dict[str, Callable[[Spinor, ModelParams], Spinor]] = {
    "monolayer": lambda psi, p: h_monolayer(psi, p.kx, p.ky),
    "qw": lambda psi, p: h_qw(psi, p.kx, p.ky, p.alphaR),
    "atoms": lambda psi, p: h_two_atoms(psi, p.omega, p.Gamma),
    "bilayer": lambda psi, p: h_bilayer(psi, p),
}
