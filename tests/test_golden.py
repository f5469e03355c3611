"""Byte-identity guards: CLI output must match files recorded from an
earlier, slower implementation of the same arithmetic.

Regenerate a file only for a deliberate change of output, e.g.
``rotoreig verify --trials 100 --seed 42 > tests/golden/verify_trials100_seed42.txt``.
"""

import contextlib
import io

import pytest
from goldens import EIGENS, GOLDEN, REPORTS, report_goldens

from rotoreig import cli

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
# that it never shows; ``goldens.py`` builds every cross-check report, and
# the `eigens` output, over `verify`'s own draws and a set of edge points.


@pytest.mark.parametrize("name", [REPORTS, EIGENS])
def test_reports_match_golden_bytes(name):
    assert report_goldens()[name].encode() == (GOLDEN / name).read_bytes()
