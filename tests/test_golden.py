"""Byte-identity guards: CLI output must match files recorded from an
earlier, slower implementation of the same arithmetic.

Regenerate a file only for a deliberate change of output, e.g.
``rotoreig verify --trials 100 --seed 42 > tests/golden/verify_trials100_seed42.txt``.
"""

import contextlib
import io
from pathlib import Path

import pytest

from rotoreig import cli

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
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_bytes(name):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(CASES[name])
    assert code == 0
    assert buf.getvalue().encode() == (GOLDEN / name).read_bytes()
