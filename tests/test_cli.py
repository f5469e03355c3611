"""Command-line interface: sweeps, point solutions, verification, exit codes."""

import json
import math
import subprocess
import sys

import pytest

from rotoreig import cli


def run_cli(*argv):
    """Invoke the CLI in-process, returning (exit code, stdout text)."""
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def run_subprocess(*argv):
    return subprocess.run(
        [sys.executable, "-m", "rotoreig.cli", *argv],
        capture_output=True,
    )


class TestSpectrum:
    def test_monolayer_csv(self):
        code, out = run_cli(
            "spectrum", "--model", "monolayer", "--kmin", "0", "--kmax", "1",
            "--samples", "3",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "k,E1,E2"
        assert lines[1] == "0.0,0.0,0.0"
        assert lines[2] == "0.5,-0.5,0.5"
        assert lines[3] == "1.0,-1.0,1.0"

    def test_atoms_sweep_columns(self):
        code, out = run_cli(
            "spectrum", "--model", "atoms", "--omega", "1", "--kmin", "0",
            "--kmax", "2", "--samples", "5",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "Gamma,E1,E2,E3,E4"
        for line in lines[1:]:
            g, *es = map(float, line.split(","))
            root = math.hypot(g, 1.0)
            assert es == pytest.approx(sorted([-g, g, -root, root]))

    def test_bilayer_minimum_off_origin(self):
        code, out = run_cli(
            "spectrum", "--model", "bilayer", "--bias-u", "0.3", "--gamma1", "0.4",
            "--kmin", "0", "--kmax", "1", "--samples", "201",
        )
        assert code == 0
        rows = [list(map(float, r.split(","))) for r in out.strip().split("\n")[1:]]
        conduction = [r[3] for r in rows]  # lower positive band
        k_at_min = rows[conduction.index(min(conduction))][0]
        assert k_at_min > 0.0

    def test_json_degenerate_flag(self):
        code, out = run_cli(
            "spectrum", "--model", "qw", "--alpha", "0.1", "--kmin", "0",
            "--kmax", "1", "--samples", "2", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["rows"][0]["degenerate"] is True
        assert "degenerate" not in doc["rows"][1]

    def test_out_file(self, tmp_path):
        path = tmp_path / "sweep.csv"
        code, out = run_cli(
            "spectrum", "--model", "monolayer", "--kmin", "0", "--kmax", "1",
            "--samples", "2", "--out", str(path),
        )
        assert code == 0 and out == ""
        assert path.read_text().startswith("k,E1,E2\n")

    def test_bad_sample_count(self):
        code, _ = run_cli(
            "spectrum", "--model", "monolayer", "--kmin", "0", "--kmax", "1",
            "--samples", "1",
        )
        assert code == 2

    def test_reversed_range(self):
        code, _ = run_cli(
            "spectrum", "--model", "monolayer", "--kmin", "1", "--kmax", "0",
        )
        assert code == 2


class TestEigens:
    def test_monolayer_point(self):
        code, out = run_cli("eigens", "--model", "monolayer", "--kx", "1", "--ky", "0")
        assert code == 0
        doc = json.loads(out)
        energies = [s["energy"] for s in doc["solutions"]]
        assert energies == pytest.approx([-1.0, 1.0])
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        plus = doc["solutions"][1]
        assert plus["spinor"]["a"] == pytest.approx([inv_sqrt2, 0.0, -inv_sqrt2, 0.0])
        assert plus["pseudospin"] == pytest.approx([1.0, 0.0, 0.0])

    def test_qw_point(self):
        code, out = run_cli(
            "eigens", "--model", "qw", "--kx", "0", "--ky", "1", "--alpha", "0.1",
        )
        doc = json.loads(out)
        assert code == 0
        assert [s["energy"] for s in doc["solutions"]] == pytest.approx([0.4, 0.6])
        assert all("spin" in s for s in doc["solutions"])

    def test_atoms_point(self):
        code, out = run_cli("eigens", "--model", "atoms", "--omega", "3", "--gamma", "4")
        doc = json.loads(out)
        assert code == 0
        assert [s["energy"] for s in doc["solutions"]] == pytest.approx(
            [-5.0, -4.0, 4.0, 5.0]
        )

    def test_degenerate_point_exits_zero(self):
        code, out = run_cli("eigens", "--model", "monolayer", "--kx", "0", "--ky", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["degenerate"] is True and "solutions" not in doc


    def test_nan_rotor_is_an_error_not_a_degeneracy(self, capsys):
        # k = 1e200 overflows k^2 in the qw rotor target, so the rotor is NaN
        code = cli.main(["eigens", "--model", "qw", "--kx", "1e200", "--alpha", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: not a rotor: nan + nan*e1 + nan*e2")

    def test_solver_value_error_exits_one(self, monkeypatch, capsys):
        def leak(kx, ky):
            raise ValueError("spinor leaves the spinor subspace")

        monkeypatch.setattr(cli.models, "solve_monolayer", leak)
        code = cli.main(["eigens", "--model", "monolayer", "--kx", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "leaves the spinor subspace" in captured.err


class TestVerify:
    def test_small_run_passes(self):
        code, out = run_cli("verify", "--trials", "3", "--seed", "7")
        assert code == 0
        assert out.strip().split("\n")[-1].startswith("verify: PASS")

    def test_unsatisfiable_tolerance_fails(self):
        code, out = run_cli("verify", "--trials", "1", "--seed", "7", "--tol", "1e-30")
        assert code == 1
        assert "verify: FAIL" in out
        # the first failing report is dumped as JSON
        report = json.loads(out[out.index("{"):])
        assert report["pass"] is False

    def test_bad_trial_count(self):
        code, _ = run_cli("verify", "--trials", "0")
        assert code == 2

    def test_byte_determinism(self):
        a = run_subprocess("verify", "--trials", "2", "--seed", "11")
        b = run_subprocess("verify", "--trials", "2", "--seed", "11")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout


class TestUsageErrors:
    def test_unknown_model(self):
        r = run_subprocess("spectrum", "--model", "nosuch", "--kmin", "0", "--kmax", "1")
        assert r.returncode == 2

    def test_missing_command(self):
        r = run_subprocess()
        assert r.returncode == 2

    def test_bad_eta(self):
        r = run_subprocess(
            "eigens", "--model", "bilayer", "--kx", "1", "--eta", "3",
        )
        assert r.returncode == 2


class TestNonFiniteInput:
    @pytest.mark.parametrize("argv", [
        ("eigens", "--model", "monolayer", "--kx", "nan"),
        ("eigens", "--model", "qw", "--kx", "1", "--alpha", "inf"),
        ("eigens", "--model", "bilayer", "--kx", "1", "--bias-u=-inf"),
        ("eigens", "--model", "atoms", "--omega", "1", "--gamma", "NaN"),
        ("spectrum", "--model", "monolayer", "--kmin", "0", "--kmax", "nan"),
        ("spectrum", "--model", "bilayer", "--kmin=-inf", "--kmax", "1"),
        ("verify", "--trials", "1", "--tol", "inf"),
    ])
    def test_rejected_as_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be finite" in captured.err

    def test_non_number_keeps_float_message(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["eigens", "--model", "monolayer", "--kx", "one"])
        assert exc.value.code == 2
        assert "invalid float value: 'one'" in capsys.readouterr().err


class TestBrokenPipe:
    def test_closed_reader_exits_one_without_traceback(self):
        # far more output than a pipe buffers, so the writer must hit the
        # closed pipe whatever the timing
        proc = subprocess.Popen(
            [sys.executable, "-m", "rotoreig.cli", "spectrum", "--model",
             "monolayer", "--kmin", "0", "--kmax", "1", "--samples", "20000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline() == b"k,E1,E2\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert b"Traceback" not in err and b"BrokenPipeError" not in err
