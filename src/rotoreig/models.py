"""GA Hamiltonians of the four models (hbar = v_F = m* = 1) and one rotor
solver per algebra, which reads the model's blocks off H applied to fixed
spinors and builds no matrix; eigenspinors are rotors taking e3 to a target."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
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
from .spinors import Spinor, _layout_of

__all__ = [
    "MODELS",
    "ModelSpec",
    "ModelParams",
    "DegenerateError",
    "EigenSolution",
    "DEGENERACY_TOL",
    "solve",
    "solve_cl30",
    "solve_cl31",
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
#: rotor.  In Cl(3,1) max(|a|, |c|, |d|) at most this is H = 0, an uncoupled
#: block |a| or |d| at most this is a degenerate sector, and a coupled band
#: whose reduced |h| is at most this fraction of H's scale is a crossing.
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
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be a finite float, got {value!r}")

    @property
    def k(self) -> float:
        return math.hypot(self.kx, self.ky)

    def to_json_dict(self) -> dict:
        return {"model": self.model,
                **{name: getattr(self, name) for name in MODELS[self.model].fields}}


#: the ModelParams fields that hold a float, each of which must be finite
_FLOAT_FIELDS = tuple(field.name for field in fields(ModelParams)
                      if isinstance(field.default, float))


@dataclass(frozen=True)
class ModelSpec:
    """One model: its algebra, which picks the solver, parameters, Hamiltonian
    and spectrum; the callables look module functions up when called."""

    algebra: str                # "cl30" or "cl31": the rotor solver
    fields: tuple[str, ...]     # the model's ModelParams fields, in JSON order
    couplings: tuple[str, ...]  # the couplings `verify` draws, in draw order
    sweep: str                  # the ModelParams attribute `spectrum` sweeps
    h: Callable[[Spinor, ModelParams], Spinor]
    # the ascending bands at each value of a 1-D array of sweep values, one
    # array per band, bit for bit the energies `solve` gives there; the
    # Cl(3,0) ones are plain arithmetic, which `solve` runs on a float
    spectrum: Callable[[np.ndarray, ModelParams], list[np.ndarray]]
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


def _eigenpair(h, energies, psi: Multivector, targets, labels) -> list[EigenSolution]:
    """The eigenpairs (energies[i], row i of psi), psi one spinor or a stack
    of them, with the residuals max|H psi - E psi| of the Hamiltonian h: one
    Spinor check and one application of h for them all."""
    spinor = Spinor(psi)
    if psi.coeffs.ndim == 1:
        residual = float(np.abs(h(spinor).mv.coeffs - energies[0] * psi.coeffs).max())
        return [EigenSolution(energies[0], spinor, targets[0], labels[0], residual)]
    gap = np.abs(h(spinor).mv.coeffs - np.array(energies)[:, None] * psi.coeffs)
    return list(map(EigenSolution, energies, spinor._rows(), targets, labels,
                    gap.max(axis=1).tolist()))


def _stacked_eigenpairs(h, bands: list) -> list[EigenSolution]:
    """bands, with each (energy, psi, target, label) made its eigenpair by one
    ``_eigenpair`` call on the stack of their psi; the EigenSolutions among
    them (degenerate bands) stay where they are."""
    pending = [band for band in bands if isinstance(band, tuple)]
    if not pending:
        return bands
    energies, psis, targets, labels = zip(*pending)
    stack = Multivector._wrap(CL31, np.array([psi.coeffs for psi in psis]))
    solved = iter(_eigenpair(h, energies, stack, targets, labels))
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
        # one band at a time: a stack of two costs Cl(3,0) more than it saves
        out += _eigenpair(h, (energy,), psi, (target.vector_coords(),), (label,))
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


# _unit_scale keeps _cl31_levels' inputs within 2**+-250, where no fourth power
# leaves the floats; scaling by a power of two is exact, so the bits do not
# depend on it
def _unit_scale(top: float) -> float:
    """1.0, or past 2**+-250 the power of two taking top into [0.5, 1)."""
    if 2.0 ** -250 < top < 2.0 ** 250:
        return 1.0
    return math.ldexp(1.0, min(1000, -math.frexp(top)[1]))


def _cl31_levels(na: float, nc: float, nd: float, gap: float, m: float,
                 const: float) -> tuple[float, float, float, float]:
    """Levels 0 <= E- <= E+ of blocks a, d and coupling c, and the outer bands'
    t = E+^2 - |c|^2 - |d|^2 (even), - |a|^2 (odd): E^4 - B E^2 + C = 0 with
    B/2 = (|a|^2 + |d|^2)/2 + |c|^2, gap = (|d|^2 - |a|^2)/2, m = |c|^2 |a-d|^2
    + 4 (c.a)(c.d), const = C = (|c|^2 + a.d)^2 + |a^d|^2 - 4 (c.a)(c.d).
    E+^2 = B/2 + R, R = sqrt(gap^2 + m); E-^2 = C / E+^2 (Vieta) keeps the
    digits B/2 - R cancels (Higham, Accuracy and Stability, ch. 1)."""
    root = math.sqrt(gap * gap + m) if gap * gap + m > 0.0 else 0.0
    big = abs(gap) + root
    small = m / big if big > 0.0 else 0.0
    t_even, t_odd = (small, big) if gap >= 0.0 else (big, small)
    if nc * nc == 0.0:  # uncoupled to within H's resolution: the blocks' levels
        return min(na, nd), max(na, nd), t_even, t_odd
    upper = (na * na + nd * nd) / 2.0 + nc * nc + root
    return math.sqrt(const / upper) if const > 0.0 else 0.0, math.sqrt(upper), t_even, t_odd


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
    """The rotor taking e3 to the unit vector target."""
    # rotor_from_vectors rejects e3 -> -e3 and loses accuracy near it, so
    # below the e1e2 plane a half turn e31 takes e3 to -e3 first
    below = target.coeffs[4] < 0.0
    rotor = rotor_from_vectors(_E3_31, -target if below else target).value
    return rotor * _E31_31 if below else rotor


def solve_cl31(h) -> list[EigenSolution]:
    """The four levels of a Cl(3,1) Hamiltonian h in Pauli-block form: on
    psi = phi+ + I phi- (phi+- spatially even) blocks a (even), d (odd) and
    c (coupling) act as phi -> v phi e3.  The energies are -+E+, -+E- of
    ``_cl31_levels``.  Uncoupled (c = 0) the eigenspinors are the rotor e3 ->
    a/E (even-i) and I times e3 -> d/E (odd-i).  Coupled, eliminating phi-
    (Loewdin) leaves phi+ the rotor R: e3 -> h / (E - h0) of M(E) = a + c (E +
    d) c / s = h0 + h, s = E^2 - |d|^2, |h| = |E - h0|: with t = s - |c|^2 the
    target is (s a + c d c) / (E t) and phi- = (c a + d c) R / t."""
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
        # eigenspinors do not change when H is scaled: reduce H / span, span
        # the largest |E|, in which t is t / E+^2
        span, t_even, t_odd = energies[-1], t_even / (hi * hi), t_odd / (hi * hi)
        a, c, d, cc = a / span, c / span, d / span, (nc / span) ** 2
        # per sector, with e the eliminated block: the kept block, c keep +
        # e c (phi-'s numerator) and c e c; the odd one only if a band uses it
        even, odd = (a, c * a + d * c, (c * d * c).grade(1)), None
        out = []
        for i, energy in enumerate(energies, start=1):
            # each sector's t = E^2 - |c|^2 - |e|^2: on the inner bands the
            # even sector's is minus the odd one's on the outer, and vice versa
            te, to = (t_even, t_odd) if i in (1, 4) else (-t_odd, -t_even)
            is_odd = abs(te) <= _SINGULAR_TOL * abs(to)
            if is_odd and odd is None:
                odd = (d, c * d + a * c, (c * a * c).grade(1))
            keep, numerator, cec = odd if is_odd else even
            t = to if is_odd else te
            s = cc + t
            hs = s * keep + cec  # s h
            hnorm = math.hypot(*hs.vector_coords())
            # |h| at most DEGENERACY_TOL of H's scale: M(E) = h0 on the whole
            # sector, and a neighbouring band lies within 2 |h| (a crossing,
            # no spinor); where phi+ vanishes, is_odd swaps a and d (psi =
            # I R + phi+)
            if hnorm <= DEGENERACY_TOL * abs(s):
                out.append(EigenSolution(energy, None, None, f"band-{i}", 0.0, True))
                continue
            # |h| = |E - h0| is |s h| = |E t|, compared on squares to 1e-10 of
            # H's scale: E^2 carries the levels' rounding, E up to its root
            if abs((energy / span) ** 2 - (hnorm / t) ** 2) > 1e-10:
                raise ValueError(f"E = {energy!r} fails the quantization condition")
            target = math.copysign(1.0 / hnorm, energy * t) * hs  # h / (E - h0)
            rotor = _rotor_to(target)
            rest = (1.0 / t) * (numerator * rotor)
            psi = _I31 * rotor + rest if is_odd else rotor + _I31 * rest
            out.append((energy, psi, target.vector_coords(), f"band-{i}"))
        out = _stacked_eigenpairs(h, out)
    # a scalar term in a block reads as an e3 component on 1 and I, so the
    # read-off cannot see it; the residuals do
    if any(s.residual > 1e-10 * energies[-1] for s in out):
        raise ValueError("H is not in Pauli-block form: a residual exceeds 1e-10 of H")
    return out


def _uncoupled(h, a: Multivector, na: float, d: Multivector, nd: float) -> list[EigenSolution]:
    """Levels -+|a| (even-i), -+|d| (odd-i); a block <= DEGENERACY_TOL: no rotors."""
    out = []
    for sector, block, norm, carrier in (("even", a, na, 1.0), ("odd", d, nd, _I31)):
        if norm <= DEGENERACY_TOL:
            out += [EigenSolution(e, None, None, f"{sector}-{i}", 0.0, True)
                    for e, i in ((-norm, 1), (norm, 2))]
            continue
        # the level +|block|: the rotor e3 -> block/|block| (times I if odd);
        # e23 anticommutes with e3, so upper e23 takes e3 to -block/|block|
        upper = carrier * _rotor_to(block / norm)
        for energy, i, psi in ((-norm, 1, upper * _E23_31), (norm, 2, upper)):
            out.append((energy, psi, (block / energy).vector_coords(), f"{sector}-{i}"))
    return sorted(_stacked_eigenpairs(h, out), key=lambda s: s.energy)


def solve(params: ModelParams) -> list[EigenSolution]:
    """Every eigenpair of the model at params, by its algebra's rotor solver."""
    spec = MODELS[params.model]
    h = lambda psi: spec.h(psi, params)
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


def solve_monolayer(kx: float, ky: float) -> list[EigenSolution]:
    """Both bands E = -|k|, +|k| with rotor eigenspinors (1 -+ khat e3)/sqrt2."""
    return solve(ModelParams("monolayer", kx=kx, ky=ky))


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
    return solve(ModelParams("qw", kx=kx, ky=ky, alphaR=alphaR))


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


def solve_two_atoms(omega: float, Gamma: float) -> list[EigenSolution]:
    """Four levels: even sector -+Gamma, odd sector -+sqrt(omega^2+Gamma^2)."""
    return solve(ModelParams("atoms", omega=omega, Gamma=Gamma))


def _two_atoms_spectrum(omega: float, Gamma: np.ndarray) -> list[np.ndarray]:
    """The levels -+sqrt(omega^2 + Gamma^2), -+|Gamma|, ascending, at each
    value of a 1-D array of Gamma; math.hypot per element, because np.hypot
    differs from it in the last bit."""
    root = np.array([math.hypot(omega, g) for g in Gamma.tolist()])
    return [-root, -abs(Gamma), abs(Gamma), root]


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
    kin = eta * (k * psi.mv * _I31)
    coupling = -params.gamma1 * (_E2_31 * spatial_parts(psi.mv)[1])
    bias = eta * params.U * (_E3_31 * psi.mv)
    # the three terms share the right factor e3
    return Spinor((kin + coupling + bias) * _E3_31)


@np.errstate(all="ignore")  # non-finite k gives non-finite bands, not warnings
def bilayer_spectrum(k, U: float, gamma1: float) -> list:
    """The four bands at wave-vector magnitude k, ascending: four floats at a
    float k, four arrays at a 1-D array of k.  They are ``_cl31_levels`` of
    a = eta U e3, c = -eta k, d = gamma1 e2 - eta U e3, computed per element
    in the same order and scaled by the same power of two, each branch an
    ``np.where``: bit for bit the solver's.  ``solve_cl31`` keeps the scalar
    functions: on its floats this array form costs about 43 us a solve."""
    ks = np.asarray(k, dtype=float)
    na, nc, nd = abs(U), np.abs(ks), math.hypot(gamma1, U)
    # _unit_scale per element; frexp and ldexp are exact
    top = np.maximum(nc, max(na, nd))
    f = np.where((2.0 ** -250 < top) & (top < 2.0 ** 250), 1.0,
                 np.ldexp(1.0, np.minimum(1000, -np.frexp(top)[1])))
    k, U, g1 = ks * f, U * f, gamma1 * f
    na, nc, nd = na * f, nc * f, nd * f
    kk, gu = k * k, U * g1
    gap, m = g1 * g1 / 2.0, kk * (g1 * g1 + (2.0 * U) * (2.0 * U))
    const = (kk - U * U) * (kk - U * U) + gu * gu
    root = np.where(gap * gap + m > 0.0, np.sqrt(gap * gap + m), 0.0)
    upper = (na * na + nd * nd) / 2.0 + nc * nc + root
    coupled = nc * nc != 0.0
    lo = np.where(coupled, np.where(const > 0.0, np.sqrt(const / upper), 0.0),
                  np.minimum(na, nd))
    hi = np.where(coupled, np.sqrt(upper), np.maximum(na, nd))
    bands = [-hi / f, -lo / f, lo / f, hi / f]
    return bands if ks.ndim else [float(band) for band in bands]


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
    # indeterminate below 1e-14 of the point's own energy^4 scale s^2, so the
    # test does not depend on units; compared as denom / s, which cannot
    # overflow where s^2 does
    scale = max(energy * energy, k * k, U * U, gamma1 * gamma1)
    if scale == 0.0 or denom / scale <= 1e-14 * scale:
        raise ValueError(
            "quantization condition indeterminate (E ~ 0 or U = gamma1 = 0)"
        )
    num = (energy * energy - k * k + U * U) ** 2 + U * U * gamma1 * gamma1
    return num / denom - 1.0


def solve_bilayer(params: ModelParams) -> list[EigenSolution]:
    """Four bands from ``solve_cl31`` on h_bilayer."""
    return solve(params)


# ---------------------------------------------------------------------
# expectation value
# ---------------------------------------------------------------------


def expectation_energy(psi: Spinor, params: ModelParams) -> float:
    """Rayleigh value <psi~ H(psi)> / <psi~ psi> (dagger in Cl(3,1));
    equals the eigenenergy on eigenspinors."""
    h_psi = MODELS[params.model].h(psi, params)
    bra = _layout_of(psi.algebra).bra(psi.mv)
    norm = (bra * psi.mv).scalar_part()
    # relative to the spinor's own scale m^2, m its largest coefficient: the
    # quotient does not depend on the spinor's scale
    top = float(np.abs(psi.mv.coeffs).max())
    if top == 0.0 or abs(norm) / top <= 1e-14 * top:
        raise ValueError("cannot normalize a null spinor")
    return (bra * h_psi.mv).scalar_part() / norm


# ---------------------------------------------------------------------
# the model registry, in the paper's order
# ---------------------------------------------------------------------


MODELS: dict[str, ModelSpec] = {
    "monolayer": ModelSpec(
        "cl30", ("kx", "ky"), (), "k",
        h=lambda psi, p: h_monolayer(psi, p.kx, p.ky),
        spectrum=lambda k, p: [-abs(k), abs(k)],
        average="pseudospin",
    ),
    "qw": ModelSpec(
        "cl30", ("kx", "ky", "alphaR"), ("alphaR",), "k",
        h=lambda psi, p: h_qw(psi, p.kx, p.ky, p.alphaR),
        spectrum=lambda k, p: [k * k / 2.0 - abs(k * p.alphaR),
                               k * k / 2.0 + abs(k * p.alphaR)],
        average="spin",
    ),
    "atoms": ModelSpec(
        # the sweep variable is the coupling Gamma; omega splits the levels
        "cl31", ("omega", "Gamma"), ("omega", "Gamma"), "Gamma",
        h=lambda psi, p: h_two_atoms(psi, p.omega, p.Gamma),
        spectrum=lambda g, p: _two_atoms_spectrum(p.omega, g),
        average=None,
    ),
    "bilayer": ModelSpec(
        "cl31", ("kx", "ky", "U", "gamma1", "eta"), ("gamma1", "U"), "k",
        h=lambda psi, p: h_bilayer(psi, p),
        spectrum=lambda k, p: bilayer_spectrum(k, p.U, p.gamma1),
        average=None,
    ),
}
