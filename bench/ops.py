"""Seeded inputs for the three benchmark workloads.

Stdlib only: the set-up probe imports this module before it starts its
clock, so importing it must pull in neither numpy nor rotoreig.

Ops cycle through the models round-robin (monolayer, qw, atoms, bilayer,
and repeat), so every model sees the same host-speed phases.  Op ``i`` of a
workload depends only on the seed and ``i``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

MODELS = ("monolayer", "qw", "atoms", "bilayer")
WORKLOADS = ("verify", "eigens", "sweep")

# the parameter ranges of `rotoreig verify`
K_RANGE = (0.01, 5.0)
COUPLING_RANGE = (0.01, 2.0)
# sweep ops follow the documented sweeps (README "CLI"): 101 samples over
# [0, 2] for monolayer, qw and atoms, 301 over [0, 1.5] for bilayer.  kmax
# is drawn around them; the sample count stays fixed per model, so each
# model's latency stays one-moded.
KMAX_RANGE = (1.5, 2.0)
SAMPLES = {"monolayer": 101, "qw": 101, "atoms": 101, "bilayer": 301}


@dataclass(frozen=True)
class Op:
    """One benchmark operation.

    ``point`` holds ``ModelParams`` fields (verify, eigens) or the sweep's
    fixed parameters (sweep); ``argv`` is the CLI argument list for eigens
    and sweep ops and empty for verify ops.
    """

    index: int
    model: str
    point: dict
    argv: tuple = ()
    kmax: float = 0.0
    samples: int = 0
    fmt: str = ""


def _coupling(rng: random.Random) -> float:
    return rng.uniform(*COUPLING_RANGE)


def _draw_point(model: str, rng: random.Random) -> dict:
    lo, hi = K_RANGE
    k = 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))
    phi = rng.uniform(0.0, 2.0 * math.pi)
    kx, ky = k * math.cos(phi), k * math.sin(phi)
    if model == "monolayer":
        return {"kx": kx, "ky": ky}
    if model == "qw":
        return {"kx": kx, "ky": ky, "alphaR": _coupling(rng)}
    if model == "atoms":
        return {"omega": _coupling(rng), "Gamma": _coupling(rng)}
    return {"kx": kx, "ky": ky, "gamma1": _coupling(rng), "U": _coupling(rng),
            "eta": rng.choice([1, -1])}


def _model_flags(point: dict) -> list[str]:
    flags = {"alphaR": "--alpha", "omega": "--omega", "Gamma": "--gamma",
             "gamma1": "--gamma1", "U": "--bias-u"}
    out = []
    for name, flag in flags.items():
        if name in point:
            out.append(f"{flag}={point[name]!r}")
    if "eta" in point:
        out.append(f"--eta={point['eta']}")
    return out


def _eigens_op(index: int, model: str, rng: random.Random) -> Op:
    point = _draw_point(model, rng)
    argv = ["eigens", "--model", model]
    if "kx" in point:
        argv += [f"--kx={point['kx']!r}", f"--ky={point['ky']!r}"]
    return Op(index, model, point, tuple(argv + _model_flags(point)))


def _sweep_op(index: int, model: str, rng: random.Random) -> Op:
    kmax = rng.uniform(*KMAX_RANGE)
    samples = SAMPLES[model]
    if model == "qw":
        point = {"alphaR": _coupling(rng)}
    elif model == "atoms":
        point = {"omega": _coupling(rng)}
    elif model == "bilayer":
        point = {"U": _coupling(rng), "gamma1": _coupling(rng)}
    else:
        point = {}
    # by op index; with four models this gives monolayer and atoms CSV and
    # qw and bilayer JSON, so each model's latency stays one-moded
    fmt = "csv" if index % 2 == 0 else "json"
    argv = ["spectrum", "--model", model, "--kmin=0", f"--kmax={kmax!r}",
            f"--samples={samples}", f"--format={fmt}"] + _model_flags(point)
    return Op(index, model, point, tuple(argv), kmax, samples, fmt)


def op_stream(workload: str, seed: int):
    """Endless, seed-determined sequence of ops for one workload."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"rotoreig-bench/{workload}/{seed}")
    index = 0
    while True:
        model = MODELS[index % len(MODELS)]
        if workload == "verify":
            yield Op(index, model, _draw_point(model, rng))
        elif workload == "eigens":
            yield _eigens_op(index, model, rng)
        else:
            yield _sweep_op(index, model, rng)
        index += 1
