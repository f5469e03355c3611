"""The four models' parameters and closed-form bands (hbar = v_F = m* = 1).

Numpy only: a band sweep needs no geometric algebra, so it loads none.  Each
spectrum gives, bit for bit, the energies the rotor solvers in ``models``
give; ``solve_cl31`` reads its levels off ``_cl31_levels`` here."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

__all__ = [
    "MODELS",
    "ModelSpec",
    "ModelParams",
    "DEGENERACY_TOL",
    "bilayer_spectrum",
    "bilayer_mexican_hat_k",
    "bilayer_quantization_residual",
]

#: the rotor map's degeneracy rule.  In Cl(3,0), H = h0 + h.sigma with
#: max(|h0|, |h|) at most this is H = 0, a singular point (DegenerateError),
#: and |h| at most this times max(1, |h0|) is a spin-degenerate pair with no
#: rotor.  In Cl(3,1) max(|a|, |c|, |d|) at most this is H = 0, an uncoupled
#: block |a| or |d| at most this is a degenerate sector, and a coupled band
#: whose reduced |h| is at most this fraction of H's scale is a crossing.
DEGENERACY_TOL = 1e-10


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
    """One model: its algebra, which picks the rotor solver, its parameters
    and its spectrum; the spectrum looks module functions up when called."""

    algebra: str                # "cl30" or "cl31": the rotor solver
    fields: tuple[str, ...]     # the model's ModelParams fields, in JSON order
    couplings: tuple[str, ...]  # the couplings `verify` draws, in draw order
    sweep: str                  # the ModelParams attribute `spectrum` sweeps
    # the ascending bands at each value of a 1-D array of sweep values, one
    # array per band, bit for bit the energies `solve` gives there; the
    # Cl(3,0) ones are plain arithmetic, which `solve` runs on a float
    spectrum: Callable[[np.ndarray, ModelParams], list[np.ndarray]]
    average: str | None         # JSON key of the eigenspinors' e3 average


# ---------------------------------------------------------------------
# the Cl(3,1) levels
# ---------------------------------------------------------------------


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


# ---------------------------------------------------------------------
# two coupled two-level atoms
# ---------------------------------------------------------------------


def _two_atoms_spectrum(omega: float, Gamma: np.ndarray) -> list[np.ndarray]:
    """The levels -+sqrt(omega^2 + Gamma^2), -+|Gamma|, ascending, at each
    value of a 1-D array of Gamma; math.hypot per element, because np.hypot
    differs from it in the last bit."""
    root = np.array([math.hypot(omega, g) for g in Gamma.tolist()])
    return [-root, -abs(Gamma), abs(Gamma), root]


# ---------------------------------------------------------------------
# bilayer graphene
# ---------------------------------------------------------------------


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


# ---------------------------------------------------------------------
# the model registry, in the paper's order
# ---------------------------------------------------------------------


MODELS: dict[str, ModelSpec] = {
    "monolayer": ModelSpec(
        "cl30", ("kx", "ky"), (), "k",
        spectrum=lambda k, p: [-abs(k), abs(k)],
        average="pseudospin",
    ),
    "qw": ModelSpec(
        "cl30", ("kx", "ky", "alphaR"), ("alphaR",), "k",
        spectrum=lambda k, p: [k * k / 2.0 - abs(k * p.alphaR),
                               k * k / 2.0 + abs(k * p.alphaR)],
        average="spin",
    ),
    "atoms": ModelSpec(
        # the sweep variable is the coupling Gamma; omega splits the levels
        "cl31", ("omega", "Gamma"), ("omega", "Gamma"), "Gamma",
        spectrum=lambda g, p: _two_atoms_spectrum(p.omega, g),
        average=None,
    ),
    "bilayer": ModelSpec(
        "cl31", ("kx", "ky", "U", "gamma1", "eta"), ("gamma1", "U"), "k",
        spectrum=lambda k, p: bilayer_spectrum(k, p.U, p.gamma1),
        average=None,
    ),
}
