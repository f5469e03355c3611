"""GA Hamiltonians of the four models (hbar = v_F = m* = 1) and one rotor
solver per algebra, which reads the model's blocks off H applied to fixed
spinors and builds no matrix; eigenspinors are rotors taking e3 to a target.
The models' parameters and closed-form energies are in ``spectra``.

Each solver runs in stages, the Cl(3,0) one in three (read-off, per-band
target, eigenpairs) and the Cl(3,1) one in four (read-off, levels, per-band
reduction, eigenpairs), whose branches and checks sit between
straight-line stretches of multivector steps; each stretch, and each
model's H, is an ``algebra.Stage``: a body written with Multivector
operators, which after its first calls runs as one generated float
function with the body's bits and errors."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .algebra import (
    CL30,
    CL31,
    TOL,
    Multivector,
    Stage,
    _bits,
    _largest_abs,
    pseudoscalar,
    spatial_parts,
)
from .rotors import _check_unit, _check_vector, _denominator, _unit_square, rotor_from_vectors
from .spectra import DEGENERACY_TOL, MODELS, ModelParams, _check_finite, _cl31_levels, _unit_scale
from .spinors import Spinor

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
    target_vector: tuple[float, ...] | None
    band_label: str
    residual: float
    degenerate: bool = False


def _k_vector(psi: Multivector, kx: float, ky: float) -> Multivector:
    # kx e1 + ky e2 in one step, in psi's algebra and of psi's class (traced
    # where a stage is generated).  The signs of k's zero coefficients reach
    # no result: every product k enters sums its terms from +0.0
    sig = psi.sig
    return type(psi)._of_floats(sig, (0.0, kx, ky) + (0.0,) * (sig.dim - 3), 0b110)


#: max|H psi - E psi|, one generated function per algebra and supports
_RESIDUAL = Stage(lambda h_psi, psi, energy: (_largest_abs(list((h_psi - energy * psi)._c)),), 2)


def _eigenpair(h, energy: float, label: str, psi: Multivector,
               target: Multivector) -> EigenSolution:
    """The eigenpair (energy, psi) of the Hamiltonian h, with the vector
    coordinates of its rotor's target and the residual max|H psi - E psi|."""
    spinor = Spinor(psi)
    (residual,) = _RESIDUAL(h(spinor).mv, psi, energy)
    return EigenSolution(energy, spinor, target._vector(), label, residual)


#: the scalar spinor 1, on which ``solve_cl30`` reads a Hamiltonian off
_ONE_30 = Spinor(Multivector.scalar(CL30, 1.0))


def _read_off_30_steps(h_one: Multivector) -> tuple:
    """h0 and h of H(1) = h0 + h e3, and h's coordinates."""
    # (H(1) - h0) e3 in one product: H(1) - h0 is exactly 0.0 on the
    # scalar, which e3 takes to e3 (blade 0b100)
    hvec = (h_one * _E3_30)._without(0b100)
    return (h_one.scalar_part(), hvec, *hvec._vector())


def _aim_30_steps(hvec: Multivector, divisor: float) -> tuple:
    """The target h / (-+|h|) = b, and b e3 and b b of rotor_from_vectors(e3, b)."""
    target = hvec / divisor
    return target, target * _E3_30, _unit_square(target)


#: the straight-line stretches of ``solve_cl30``, each one generated function
#: per support pattern; the branches and checks run between them
_READ_OFF_30 = Stage(_read_off_30_steps, 1)
_AIM_30 = Stage(_aim_30_steps, 1)
_ROTOR_30 = Stage(lambda ba, denominator: ((ba + 1.0) / denominator,), 1)


def solve_cl30(h, energies: list[float]) -> list[EigenSolution]:
    """Both bands of a Cl(3,0) Hamiltonian h with closed-form energies E- <= E+.

    On Pauli spinors H = h0 + h.sigma acts as H(psi) = h0 psi + h psi e3
    (Doran & Lasenby, ch. 8), so h0 = <H(1)>_0 and h = <(H(1) - h0) e3>_1.
    Quantization: E-+ = h0 -+ |h|, with eigenspinors the rotors e3 -> -+h/|h|.
    This assumes h perpendicular to e3: a sigma_z mass term puts h.e3 into the
    scalar part of H(1), and the quantization check raises ValueError.
    Three stages, generated functions (``algebra.Stage``) between the checks:
    the read-off (h0, h); per band its target, with b e3 and b b of its rotor
    (``rotor_from_vectors``' checks); then its rotor, eigenspinor, residual."""
    # refused before H is applied, where an overflow reads as a NaN rotor
    if not all(map(math.isfinite, energies)):
        raise OverflowError("the energies overflow a float")
    h0, hvec, *coords = _READ_OFF_30(h(_ONE_30).mv)
    hnorm = math.hypot(*coords)
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
        # -(x / y) = x / -y, signed zeros too
        target, ba, square = _AIM_30(hvec, sign * hnorm)
        # the rotor e3 -> target, by rotor_from_vectors' checks (e3 e3 is
        # 1.0); a part of b outside grade 1, all below TOL, would make it odd
        spill = _check_vector(target, "b")
        _check_unit(square, "b")
        if spill:
            ba = target.grade(1) * _E3_30
        (psi,) = _ROTOR_30(ba, _denominator(ba, 1.0, square))
        out.append(_eigenpair(h, energy, label, psi, target))
    return out


# ---------------------------------------------------------------------
# the Cl(3,1) rotor solver
# ---------------------------------------------------------------------


#: the spinors 1 and I, on which ``solve_cl31`` reads a Hamiltonian off
_ONE_31, _I_31 = Spinor(Multivector.scalar(CL31, 1.0)), Spinor(_I31)
#: -I e3: -I X e3 = X (-I e3) for X = <H>_-, which commutes with I
_MIE3_31 = -(_I31 * _E3_31)
#: the support of a block vector (e1, e2, e3), and the blades outside it
_VECTOR_BITS_31 = 0b10110
_OFF_BLOCK_31 = [m for m in range(CL31.dim) if not _VECTOR_BITS_31 >> m & 1]
#: a coupled band whose even-sector t is at most this fraction of the odd
#: sector's (outer bands near c = 0, where phi+ vanishes) takes its rotor
#: in the odd sector
_SINGULAR_TOL = 1e-6


def _read_off_steps(h_one: Multivector, h_i: Multivector) -> tuple:
    """The blocks a, c, d of <H(1)>_+ e3, -I <H(1)>_- e3, <H(I)>_+ e3 and
    -I <H(I)>_- e3 (a, c, c again and d), whose blades off the block keep
    x * 0.0, the signed zero of their rounding; then the largest part of
    them that is not in a block (off the block blades, or in the second
    c's difference from the first, which is the one kept), and their largest."""
    rows = []
    for mv in (h_one, h_i):
        plus, minus = spatial_parts(mv)
        rows += [plus * _E3_31, minus * _MIE3_31]
    a, c, c_again, d = (row._c for row in rows)
    apart = _largest_abs([row[m] for row in (a, c, c_again, d) for m in _OFF_BLOCK_31]
                         + [c_again[m] - c[m] for m in _bits(_VECTOR_BITS_31)])
    blocks = (type(h_one)._of(CL31, tuple(x if _VECTOR_BITS_31 >> m & 1 else x * 0.0
                                          for m, x in enumerate(row)), _VECTOR_BITS_31)
              for row in (a, c, d))
    return (*blocks, apart, _largest_abs([x for row in rows for x in row._c]))


def _sector_steps(keep: Multivector, c: Multivector, other: Multivector, span: float) -> tuple:
    """A sector of H / span: its kept block, c keep + e c (phi-'s numerator)
    and c e c, e the other block."""
    keep, c, other = keep / span, c / span, other / span
    return keep, c * keep + other * c, (c * other * c).grade(1)


#: the straight-line stretches of ``solve_cl31``, each one generated function
#: per support pattern; the branches and checks run between them
_READ_OFF = Stage(_read_off_steps, 2)
_SECTOR = Stage(_sector_steps, 3)
_REDUCED = Stage(lambda keep, cec, cc, t: (keep * (cc + t) + cec,), 2)  # s h


def _aim(below: bool) -> Stage:
    """The band's target hs * scale, and b e3 and b b of rotor_from_vectors(e3,
    b), b the target, or below the e1e2 plane minus the target (``_rotor_to``)."""
    def steps(hs: Multivector, scale: float) -> tuple:
        target = hs * scale
        b = -target if below else target
        return target, b * _E3_31, _unit_square(b)
    return Stage(steps, 1)


def _eigenspinor(odd: bool, below: bool) -> Stage:
    """The rotor (1 + b e3) / denominator, turned by e31 below the e1e2 plane,
    and psi = R + I phi- (I R + phi+ if odd), phi-+ = numerator R / t."""
    def steps(ba: Multivector, numerator: Multivector, denominator: float,
              inverse_t: float) -> tuple:
        rotor = (ba + 1.0) / denominator
        if below:
            rotor = rotor * _E31_31
        rest = (numerator * rotor) * inverse_t
        return (_I31 * rotor + rest if odd else rotor + _I31 * rest,)
    return Stage(steps, 2)


_AIM = (_aim(False), _aim(True))
_EIGENSPINOR = {(odd, below): _eigenspinor(odd, below) for odd in (0, 1) for below in (0, 1)}


def _read_off(h) -> tuple:
    """The vector blocks a, c, d of h: H(1) = a e3 + I c e3, H(I) = c e3 + I d e3."""
    a, c, d, apart, largest = _READ_OFF(h(_ONE_31).mv, h(_I_31).mv)
    # a part below TOL of H's largest is rounding
    if apart > TOL * largest:
        raise ValueError("H is not in Pauli-block form: a block has a scalar, e4 or "
                         "higher-grade part, or H(1) and H(I) give different couplings c")
    return a, c, d


def _rotor_to(target: Multivector) -> Multivector:
    """The rotor taking e3 to the unit vector target."""
    # rotor_from_vectors rejects e3 -> -e3 and loses accuracy near it, so
    # below the e1e2 plane a half turn e31 takes e3 to -e3 first
    below = target._c[4] < 0.0
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
    target is (s a + c d c) / (E t) and phi- = (c a + d c) R / t.

    Four stages, each band solved on its own on single multivectors: the
    read-off (blocks a, c, d); the levels (energies, t_even and t_odd); the
    per-band reduction (sector, s, s h, |h|, the crossings and the
    quantization check) for every band; then, band by band, the eigenpair
    (rotor, psi = R + I phi- or I R + phi+, residual).  Their straight-line
    stretches run as generated functions (``algebra.Stage``)."""
    a, c, d = _read_off(h)
    coords = [v._vector()[:3] for v in (a, c, d)]
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


def _coupled(h, energies, a, c, d, nc: float, t_even: float, t_odd: float) -> list:
    """The four bands of ``solve_cl31`` at |c| > 0, with t_even and t_odd
    already divided by E+^2."""
    # eigenspinors do not change when H is scaled: reduce H / span, span
    # the largest |E|, in which t is t / E+^2
    span = energies[-1]
    cc = (nc / span) ** 2
    # each sector's t = E^2 - |c|^2 - |e|^2, e the eliminated block: on the
    # inner bands the even sector's is minus the odd one's on the outer,
    # and vice versa
    is_odd, ts = [], []
    for te, to in ((t_even, t_odd), (-t_odd, -t_even), (-t_odd, -t_even), (t_even, t_odd)):
        is_odd.append(abs(te) <= _SINGULAR_TOL * abs(to))
        ts.append(to if is_odd[-1] else te)
    # each sector's kept block, c keep + e c (phi-'s numerator) and c e c;
    # the odd one only if a band uses it
    sectors = [_SECTOR(a, c, d, span)]
    if any(is_odd):
        sectors.append(_SECTOR(d, c, a, span))
    bands = []
    for i, (energy, t, odd) in enumerate(zip(energies, ts, is_odd)):
        keep, numerator, cec = sectors[odd]
        (hs,) = _REDUCED(keep, cec, cc, t)
        hnorm = math.hypot(*hs._vector())
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
        # the target h / (E - h0) = s h / (E t), a unit vector; its e3
        # coefficient is hs_e3 * scale
        scale = math.copysign(1.0 / hnorm, energy * t)
        below = hs._c[4] * scale < 0.0
        bands.append((energy, f"band-{i + 1}", *_AIM[below](hs, scale), numerator,
                      1.0 / t, odd, below))
    # once every band has passed: each rotor R: e3 -> h / (E - h0), by
    # rotor_from_vectors' checks (b has no part outside grade 1, and e3 e3
    # is 1.0), and psi = R + I phi- or I R + phi+
    out = []
    for band in bands:
        if isinstance(band, tuple):
            energy, label, target, ba, square, numerator, inverse_t, odd, below = band
            _check_unit(square, "b")
            (psi,) = _EIGENSPINOR[odd, below](ba, numerator, _denominator(ba, 1.0, square),
                                              inverse_t)
            band = _eigenpair(h, energy, label, psi, target)
        out.append(band)
    return out


def _uncoupled(h, a: Multivector, na: float, d: Multivector, nd: float) -> list[EigenSolution]:
    """Levels -+|a| (even-i), -+|d| (odd-i); a block <= DEGENERACY_TOL: no rotors."""
    out = []
    for sector, block, norm in (("even", a, na), ("odd", d, nd)):
        if norm <= DEGENERACY_TOL:
            out += [EigenSolution(e, None, None, f"{sector}-{i}", 0.0, True)
                    for e, i in ((-norm, 1), (norm, 2))]
            continue
        # the level +|block|: the rotor e3 -> block/|block| (times I if odd);
        # e23 anticommutes with e3, so upper e23 takes e3 to -block/|block|
        upper = _rotor_to(block / norm)
        if sector == "odd":
            upper = _I31 * upper
        # each target is block / energy: |block| = |energy|, so no quotient
        # overflows
        out += [(energy, f"{sector}-{i}", psi, block / energy)
                for energy, i, psi in ((-norm, 1, upper * _E23_31), (norm, 2, upper))]
    return sorted([_eigenpair(h, *band) if isinstance(band, tuple) else band for band in out],
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
    _check_finite(kx=kx, ky=ky)
    return Spinor(_H_MONOLAYER(psi.mv, float(kx), float(ky))[0])


#: H(psi) of ``h_monolayer``, one generated function per support of psi
_H_MONOLAYER = Stage(lambda psi, kx, ky: (_k_vector(psi, kx, ky) * psi * _E3_30,), 1)


def pseudospin_average(psi: Spinor) -> tuple[float, ...]:
    """The coordinates of psi e3 ~psi, the pseudospin of a unit Cl(3,0) spinor."""
    if psi.algebra != "cl30":
        raise ValueError("pseudospin average is defined for cl30 spinors")
    # <psi ~psi>_0 is the sum of the coefficients' squares; only compared
    norm = 0.0
    for x in psi.mv._c:
        norm += x * x
    if abs(norm - 1.0) > 1e-10:
        raise ValueError("spinor must satisfy psi ~psi = 1")
    return (psi.mv * _E3_30 * ~psi.mv)._vector()


# ---------------------------------------------------------------------
# electron in a quantum well with Rashba coupling
# ---------------------------------------------------------------------


def h_qw(psi: Spinor, kx: float, ky: float, alphaR: float) -> Spinor:
    """H(psi) = (k^2/2) psi + alphaR e12 k psi e3 in Cl(3,0)."""
    if psi.algebra != "cl30":
        raise ValueError("quantum-well model lives in Cl(3,0)")
    _check_finite(kx=kx, ky=ky, alphaR=alphaR)
    k2 = kx * kx + ky * ky
    return Spinor(_H_QW(psi.mv, float(k2 / 2.0), float(kx), float(ky), float(alphaR))[0])


#: H(psi) of ``h_qw``, one generated function per support of psi
_H_QW = Stage(lambda psi, kin, kx, ky, alphaR: (
    kin * psi + alphaR * (_E12_30 * _k_vector(psi, kx, ky) * psi * _E3_30),), 1)


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
    _check_finite(omega=omega, Gamma=Gamma)
    return Spinor(_H_TWO_ATOMS(psi.mv, omega, Gamma)[0])


#: H(psi) of ``h_two_atoms``, one generated function per support of psi
_H_TWO_ATOMS = Stage(lambda psi, omega, Gamma: (
    (omega * (_E3_31 * spatial_parts(psi)[1]) - Gamma * (_E2_31 * psi)) * _E3_31,), 1)


# ---------------------------------------------------------------------
# bilayer graphene
# ---------------------------------------------------------------------


def h_bilayer(psi: Spinor, params: ModelParams) -> Spinor:
    """H(psi) = eta k psi I e3 - (gamma1/2) e2 (psi - psibar) e3
    + eta U e3 psi e3 in Cl(3,1)."""
    if psi.algebra != "cl31":
        raise ValueError("bilayer model lives in Cl(3,1)")
    return Spinor(_H_BILAYER(psi.mv, float(params.kx), float(params.ky), float(params.eta),
                             params.gamma1, params.U)[0])


def _h_bilayer_steps(psi: Multivector, kx: float, ky: float, eta: float, gamma1: float,
                     U: float) -> tuple:
    kin = eta * (_k_vector(psi, kx, ky) * psi * _I31)
    coupling = -gamma1 * (_E2_31 * spatial_parts(psi)[1])
    bias = eta * U * (_E3_31 * psi)
    # the three terms share the right factor e3
    return ((kin + coupling + bias) * _E3_31,)


#: H(psi) of ``h_bilayer``, one generated function per support of psi
_H_BILAYER = Stage(_h_bilayer_steps, 1)


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
