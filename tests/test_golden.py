"""Byte-identity guards: CLI output must match files recorded from an
earlier, slower implementation of the same arithmetic.

Regenerate a file only for a deliberate change of output, e.g.
``rotoreig verify --trials 100 --seed 42 > tests/golden/verify_trials100_seed42.txt``.
"""

import contextlib
import functools
import io
import json
import random
from pathlib import Path

import pytest

from rotoreig import cli, oracle, spectra

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "verify_trials100_seed42.txt": ["verify", "--trials", "100", "--seed", "42"],
    # the three README examples plus one quantum-well point
    "eigens_monolayer.json": ["eigens", "--model", "monolayer", "--kx", "1", "--ky", "0"],
    "eigens_atoms.json": ["eigens", "--model", "atoms", "--omega", "3", "--gamma", "4"],
    "eigens_bilayer.json": ["eigens", "--model", "bilayer", "--kx", "0.5",
                            "--gamma1", "0.4", "--bias-u", "0.2", "--eta", "1"],
    "eigens_qw.json": ["eigens", "--model", "qw", "--kx", "0.3", "--ky", "1.1",
                       "--alpha", "0.7"],
    # degenerate points: the three singular points and two degenerate sectors
    "eigens_monolayer_k0.json": ["eigens", "--model", "monolayer", "--kx", "0", "--ky", "0"],
    "eigens_qw_k0.json": ["eigens", "--model", "qw", "--alpha", "0.5"],
    "eigens_qw_alpha0.json": ["eigens", "--model", "qw", "--kx", "0.6", "--ky", "0.8",
                              "--alpha", "0"],
    "eigens_atoms_gamma0.json": ["eigens", "--model", "atoms", "--omega", "1.5",
                                 "--gamma", "0"],
    "eigens_atoms_origin.json": ["eigens", "--model", "atoms"],
    # bilayer points with signed zeros and other sectors: the other valley,
    # no bias, k = 0 (the dimer bands' rotors in the odd sector), negative
    # couplings and kx = -0.0
    "eigens_bilayer_valley_minus.json": ["eigens", "--model", "bilayer", "--kx", "0.3",
                                         "--ky", "0.4", "--gamma1", "0.4",
                                         "--bias-u", "0.2", "--eta", "-1"],
    "eigens_bilayer_unbiased.json": ["eigens", "--model", "bilayer", "--kx", "0.5",
                                     "--ky", "0.2", "--gamma1", "0.4", "--bias-u", "0"],
    "eigens_bilayer_k0.json": ["eigens", "--model", "bilayer", "--kx", "0", "--ky", "0",
                               "--gamma1", "0.4", "--bias-u", "0.2"],
    "eigens_bilayer_negative.json": ["eigens", "--model", "bilayer", "--kx", "0.5",
                                     "--ky", "0.1", "--gamma1=-0.4", "--bias-u=-0.2"],
    "eigens_bilayer_kx_negzero.json": ["eigens", "--model", "bilayer", "--kx=-0.0",
                                       "--ky", "0.5", "--gamma1", "0.4",
                                       "--bias-u", "0.2"],
    # the four README sweeps
    "spectrum_monolayer.csv": ["spectrum", "--model", "monolayer", "--kmin", "0",
                               "--kmax", "2", "--samples", "101"],
    "spectrum_qw.csv": ["spectrum", "--model", "qw", "--alpha", "0.25", "--kmin", "0",
                        "--kmax", "2", "--samples", "101"],
    "spectrum_atoms.csv": ["spectrum", "--model", "atoms", "--omega", "1", "--kmin", "0",
                           "--kmax", "2", "--samples", "101"],
    "spectrum_bilayer.csv": ["spectrum", "--model", "bilayer", "--bias-u", "0.3",
                             "--gamma1", "0.4", "--kmin", "0", "--kmax", "1.5",
                             "--samples", "301"],
    # JSON sweeps through a degenerate row, and over negative sweep values
    "spectrum_monolayer_k0.json": ["spectrum", "--model", "monolayer", "--kmin", "0",
                                   "--kmax", "2", "--samples", "5", "--format", "json"],
    "spectrum_bilayer_k0.json": ["spectrum", "--model", "bilayer", "--bias-u", "0.3",
                                 "--gamma1", "0.4", "--kmin", "0", "--kmax", "1.5",
                                 "--samples", "7", "--format", "json"],
    "spectrum_monolayer_negative.json": ["spectrum", "--model", "monolayer", "--kmin=-1",
                                         "--kmax", "1", "--samples", "5",
                                         "--format", "json"],
    "spectrum_qw_negative.json": ["spectrum", "--model", "qw", "--alpha=-0.25",
                                  "--kmin=-1", "--kmax", "1", "--samples", "9",
                                  "--format", "json"],
    "spectrum_atoms_negative.json": ["spectrum", "--model", "atoms", "--omega", "1",
                                     "--kmin=-2", "--kmax", "2", "--samples", "9",
                                     "--format", "json"],
    # the README bilayer and qw sweeps as JSON, the benchmark's JSON shapes
    "spectrum_bilayer.json": ["spectrum", "--model", "bilayer", "--bias-u", "0.3",
                              "--gamma1", "0.4", "--kmin", "0", "--kmax", "1.5",
                              "--samples", "301", "--format", "json"],
    "spectrum_qw.json": ["spectrum", "--model", "qw", "--alpha", "0.25", "--kmin", "0",
                         "--kmax", "2", "--samples", "101", "--format", "json"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_bytes(name):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(CASES[name])
    assert code == 0
    assert buf.getvalue().encode() == (GOLDEN / name).read_bytes()


# ---- report-level goldens ----------------------------------------------
# `verify` prints only per-model maxima, so a kernel change could move bits
# that it never shows. These files hold every cross-check report, and the
# `eigens` output, over `verify`'s own draws and a set of edge points.
# Regenerate both with ``PYTHONPATH=src python tests/test_golden.py``.

REPORTS = "cross_check_draws.jsonl"
EIGENS = "eigens_draws.txt"

#: each edge value replaces one field of a drawn point, then all of them
EDGE_VALUES = (0.0, -0.0, 5e-324, 1e-300, 1e6)

_FLAGS = {"kx": "kx", "ky": "ky", "alphaR": "alpha", "omega": "omega",
          "Gamma": "gamma", "gamma1": "gamma1", "U": "bias-u", "eta": "eta"}


def golden_points() -> list[spectra.ModelParams]:
    """50 `verify` draws per model from seed 7, then the edge points."""
    rng = random.Random(7)
    draws = {name: [cli._draw_params(name, rng) for _ in range(50)]
             for name in spectra.MODELS}
    points = [p for model_draws in draws.values() for p in model_draws]
    for name, spec in spectra.MODELS.items():
        base = {field: getattr(draws[name][0], field) for field in spec.fields}
        names = [field for field in spec.fields if field != "eta"]
        for eta in ((1, -1) if "eta" in spec.fields else (None,)):
            if eta is not None:
                base["eta"] = eta
            for value in EDGE_VALUES:
                for changed in [[field] for field in names] + [names]:
                    point = {**base, **{field: value for field in changed}}
                    points.append(spectra.ModelParams(name, **point))
    return points


def _report_line(params: spectra.ModelParams) -> str:
    try:
        doc = oracle.cross_check(params).to_json_dict()
    except (ValueError, ArithmeticError) as exc:
        doc = {"model": params.model, "params": params.to_json_dict(),
               "error": f"{type(exc).__name__}: {exc}"}
    return json.dumps(doc) + "\n"


def _eigens_record(params: spectra.ModelParams) -> str:
    argv = ["eigens", f"--model={params.model}"] + [
        f"--{_FLAGS[name]}={value!r}"
        for name, value in params.to_json_dict().items() if name != "model"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return f"$ rotoreig {' '.join(argv)}  # exit {code}\n{out.getvalue()}{err.getvalue()}"


@functools.cache
def report_goldens() -> dict[str, str]:
    points = golden_points()
    return {REPORTS: "".join(map(_report_line, points)),
            EIGENS: "".join(map(_eigens_record, points))}


@pytest.mark.parametrize("name", [REPORTS, EIGENS])
def test_reports_match_golden_bytes(name):
    assert report_goldens()[name].encode() == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    for name, text in report_goldens().items():
        (GOLDEN / name).write_bytes(text.encode())
