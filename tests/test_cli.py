"""Command-line interface: sweeps, point solutions, verification, exit codes."""

import argparse
import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotoreig import cli, models, spectra
from goldens import _FLAGS
from test_golden import CASES, GOLDEN


def run_cli(*argv):
    """Invoke the CLI in-process, returning (exit code, stdout text)."""
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

    @pytest.mark.parametrize("argv", [
        # exit 2: the bilayer spectrum overflows
        ("spectrum", "--model", "bilayer", "--gamma1", "1.7e308", "--bias-u", "1.7e308",
         "--kmin", "0", "--kmax", "1"),
        ("spectrum", "--model", "monolayer", "--kmin", "0", "--kmax", "1",
         "--samples", "1"),
        ("verify", "--trials", "0"),
    ])
    def test_usage_error_leaves_an_existing_out_file_unchanged(self, tmp_path, argv):
        path = tmp_path / "kept.txt"
        path.write_bytes(b"earlier output\n")
        code, out = run_cli(*argv, "--out", str(path))
        assert (code, out) == (2, "")
        assert path.read_bytes() == b"earlier output\n"

    def test_failing_verify_still_writes_its_report(self, tmp_path):
        path = tmp_path / "report.txt"
        path.write_bytes(b"earlier output\n")
        code, out = run_cli("verify", "--trials", "1", "--tol", "1e-30",
                            "--out", str(path))
        assert (code, out) == (1, "")
        assert "verify: FAIL" in path.read_text()

    @pytest.mark.parametrize("argv", [
        ("spectrum", "--model", "monolayer", "--kmin", "0", "--kmax", "1"),
        ("eigens", "--model", "monolayer", "--kx", "1"),
        ("verify", "--trials", "1"),
    ])
    @pytest.mark.parametrize("where", ["directory", "missing directory"])
    def test_unwritable_out_is_a_usage_error(self, tmp_path, argv, where, capsys):
        path = tmp_path if where == "directory" else tmp_path / "missing" / "out.txt"
        assert cli.main([*argv, "--out", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {path}: ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

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


def reference_sweep(model, fmt, kmin, kmax, samples, params):
    """A sweep's text as `spectrum` wrote it row by row, from the spectrum at
    each sweep value alone, through `json.dumps(doc, indent=2)` and one CSV
    join per row: the byte reference for its column formatting and row
    templates.  Raises what the spectrum raises."""
    spec = spectra.MODELS[model]
    rows = []
    for i in range(samples):
        x = kmin + (kmax - kmin) * i / (samples - 1)
        energies = [band.item() + 0.0 for band in spec.spectrum(np.array([x]), params)]
        rows.append((x + 0.0, energies))
    if fmt == "csv":
        bands = ",".join(f"E{j + 1}" for j in range(len(rows[0][1])))
        lines = [f"{spec.sweep},{bands}\n"]
        for x, energies in rows:
            lines.append(",".join(repr(float(v) + 0.0) for v in [x, *energies]) + "\n")
        return "".join(lines)
    json_rows = []
    for x, energies in rows:
        row = {spec.sweep: x, "energies": energies}
        if abs(x) <= spectra.DEGENERACY_TOL:
            row["degenerate"] = True
        json_rows.append(row)
    doc = {"model": model, "sweep": spec.sweep, "rows": json_rows}
    return json.dumps(doc, indent=2) + "\n"


# signed zeros, subnormals and magnitudes from 1e-300 to 1e6
sweep_value = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-318]),
    st.builds(lambda m, e, s: s * m * 10.0 ** e,
              st.floats(1.0, 9.999), st.integers(-300, 5), st.sampled_from([1.0, -1.0])),
)


finite_entry = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-318, -1e-310]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def sweep_tables(draw):
    """Tables of finite floats in which a column may have the magnitudes of
    an earlier one, under any signs, or differ from them in one entry."""
    rows = draw(st.integers(1, 12))
    columns = []
    for _ in range(draw(st.integers(1, 6))):
        if columns and draw(st.booleans()):
            signs = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=rows,
                                  max_size=rows))
            column = np.array(draw(st.sampled_from(columns))) * signs
            if draw(st.booleans()):
                column[draw(st.integers(0, rows - 1))] = draw(finite_entry)
            columns.append(column.tolist())
        else:
            columns.append(draw(st.lists(finite_entry, min_size=rows, max_size=rows)))
    return np.array(columns)


class TestSweepWriter:
    @settings(max_examples=300, deadline=None)
    @given(sweep_tables())
    def test_column_text_is_the_repr_of_each_entry(self, table):
        # adding 0.0 folds -0.0 into 0.0
        assert cli._column_texts(table) == [[repr(v + 0.0) for v in column]
                                            for column in table.tolist()]

    @settings(max_examples=300, deadline=None)
    @given(
        model=st.sampled_from(list(spectra.MODELS)),
        fmt=st.sampled_from(["csv", "json"]),
        samples=st.integers(2, 400),
        ends=st.one_of(
            st.tuples(sweep_value, sweep_value).map(sorted),
            # symmetric about 0, so an odd sample count lands on x = 0
            sweep_value.map(lambda v: sorted([-v, v])),
        ),
        couplings=st.tuples(sweep_value, sweep_value, sweep_value, sweep_value),
        eta=st.sampled_from([1, -1]),
    )
    def test_bytes_equal_the_json_dumps_reference(self, model, fmt, samples, ends,
                                                  couplings, eta):
        kmin, kmax = ends
        alpha, omega, gamma1, bias_u = couplings
        params = spectra.ModelParams(model, alphaR=alpha, omega=omega, gamma1=gamma1,
                                    U=bias_u, eta=eta)
        argv = ["spectrum", "--model", model, f"--kmin={kmin!r}", f"--kmax={kmax!r}",
                f"--samples={samples}", f"--format={fmt}", f"--alpha={alpha!r}",
                f"--omega={omega!r}", f"--gamma1={gamma1!r}", f"--bias-u={bias_u!r}",
                f"--eta={eta}"]
        try:
            expected = reference_sweep(model, fmt, kmin, kmax, samples, params)
        except ArithmeticError:
            # e.g. bilayer's negative-radicand guard: an error, and no output
            assert run_cli(*argv) == (1, "")
            return
        assert run_cli(*argv) == (0, expected)

    @pytest.mark.parametrize("kmin, kmax, flagged", [
        # both ends sit on the tolerance
        (-spectra.DEGENERACY_TOL, spectra.DEGENERACY_TOL, 2),
        # the next float above it is not degenerate
        (spectra.DEGENERACY_TOL, math.nextafter(spectra.DEGENERACY_TOL, 1.0), 1),
    ])
    def test_degenerate_flag_includes_the_tolerance(self, kmin, kmax, flagged):
        params = spectra.ModelParams("qw", alphaR=0.5)
        expected = reference_sweep("qw", "json", kmin, kmax, 2, params)
        argv = ["spectrum", "--model", "qw", f"--kmin={kmin!r}", f"--kmax={kmax!r}",
                "--samples=2", "--format=json", "--alpha=0.5"]
        assert run_cli(*argv) == (0, expected)
        assert expected.count('"degenerate": true') == flagged

    def test_written_in_pipe_buf_pieces(self):
        # one write per PIPE_BUF-sized piece of the text, none per row
        calls = []

        class Recorder(io.StringIO):
            def write(self, text):
                calls.append(len(text))
                return super().write(text)

        args = cli.build_parser().parse_args(
            ["spectrum", "--model", "monolayer", "--kmin=0", "--kmax=1",
             "--samples=2000"])
        out = Recorder()
        assert cli.cmd_spectrum(args, out) == 0
        assert sum(calls) == len(out.getvalue())
        assert len(calls) == -(-sum(calls) // 4096)
        assert max(calls) <= 4096


class TestOverflowingSweep:
    """A sweep whose values or energies are not finite floats is a usage
    error: exit 2 and nothing on stdout."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv", [
        # k^2 overflows: the qw energies are +inf
        ("--model", "qw", "--alpha", "0.5", "--kmin", "0", "--kmax", "1e200"),
        # the bilayer upper band passes the largest float at the last row
        ("--model", "bilayer", "--gamma1", "1e308", "--bias-u", "0.3", "--kmin", "0",
         "--kmax", "1.7e308"),
        # k alphaR overflows at finite sweep values: the qw energies are -inf and +inf
        ("--model", "qw", "--alpha", "1e300", "--kmin", "0", "--kmax", "1e10"),
        # the atoms bands pass the largest float at a finite Gamma
        ("--model", "atoms", "--omega", "1.7e308", "--kmin", "0", "--kmax", "1.7e308"),
        # |d| = hypot(gamma1, U) overflows in the bilayer spectrum
        ("--model", "bilayer", "--gamma1", "1.7e308", "--bias-u", "1.7e308", "--kmin", "0",
         "--kmax", "1"),
    ])
    def test_usage_error_with_empty_stdout(self, argv, fmt, capsys):
        code = cli.main(["spectrum", *argv, "--samples", "3", "--format", fmt])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: the sweep overflows at ")

    @pytest.mark.parametrize("argv", [
        # these exited 2 while the spectrum took k^2 and gamma1^4
        ("--gamma1", "0.4", "--bias-u", "0.3", "--kmin", "0", "--kmax", "1e200"),
        ("--gamma1", "1e100", "--kmin", "0", "--kmax", "1"),
    ])
    def test_finite_bilayer_bands_far_from_one(self, argv):
        code, out = run_cli("spectrum", "--model", "bilayer", *argv, "--samples", "3")
        assert code == 0
        rows = [[float(x) for x in line.split(",")] for line in out.splitlines()[1:]]
        assert all(map(math.isfinite, sum(rows, [])))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv, values", [
        # kmax - kmin, or (kmax - kmin) i, passes the largest float
        (("--model", "monolayer", "--kmin=-1e308", "--kmax", "1e308"), [-1e308, 0.0, 1e308]),
        (("--model", "atoms", "--omega", "1", "--kmin", "0", "--kmax", "1e308"),
         [0.0, 5e307, 1e308]),
    ], ids=["monolayer", "atoms"])
    def test_sweep_values_past_the_largest_difference(self, argv, values, fmt):
        code, out = run_cli("spectrum", *argv, "--samples", "3", "--format", fmt)
        assert code == 0
        if fmt == "csv":
            rows = [[float(x) for x in line.split(",")] for line in out.splitlines()[1:]]
        else:
            # each row's first key is the sweep value
            rows = [[next(iter(row.values())), *row["energies"]]
                    for row in json.loads(out)["rows"]]
        assert [row[0] for row in rows] == values
        assert all(map(math.isfinite, sum(rows, [])))

    def test_last_finite_sweep_value_still_written(self):
        code, out = run_cli("spectrum", "--model", "atoms", "--omega", "1",
                            "--kmin", "0", "--kmax", "1e307", "--samples", "2")
        assert code == 0
        assert out.splitlines()[-1] == "1e+307,-1e+307,-1e+307,1e+307,1e+307"

    def test_error_mid_sweep_writes_nothing(self, monkeypatch, capsys):
        # the whole column is one call; it fails at its fifth value, k = 0.5
        calls, real = [], spectra.bilayer_spectrum

        def failing(k, U, gamma1):
            calls.append(k)
            bands = real(k, U, gamma1)
            if np.any(k == 0.5):
                raise ArithmeticError("negative radicand in bilayer spectrum")
            return bands

        monkeypatch.setattr(spectra, "bilayer_spectrum", failing)
        code = cli.main(["spectrum", "--model", "bilayer", "--kmin", "0", "--kmax",
                         "1", "--samples", "9", "--format", "json"])
        captured = capsys.readouterr()
        assert (code, captured.out, len(calls)) == (1, "", 1)
        assert calls[0].tolist() == [i / 8 for i in range(9)]
        assert captured.err == "error: negative radicand in bilayer spectrum\n"


class TestEigens:
    @pytest.mark.parametrize("name", [name for name, argv in CASES.items()
                                      if argv[0] == "eigens"])
    def test_golden_points_never_leave_float_storage(self, name):
        # the singular points and signed zeros too: each eigenspinor holds a
        # tuple of finite Python floats, zero outside its support (the bytes
        # are test_golden.py's)
        params = cli._point_params(cli._parser().parse_args(CASES[name]))
        try:
            solutions = models.solve(params)
        except models.DegenerateError:
            solutions = []
        for mv in (s.spinor.mv for s in solutions if s.spinor is not None):
            assert type(mv._c) is tuple
            assert all(type(x) is float and math.isfinite(x) for x in mv._c)
            assert all(mv._support >> m & 1 for m, x in enumerate(mv._c) if x)

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

    def test_qw_point_at_large_k(self):
        # exited 1 with "b must be a unit vector" while the rotor target
        # cancelled k^2/2 against the energy
        code, out = run_cli("eigens", "--model", "qw", "--kx", "1e6", "--ky", "0.03",
                            "--alpha", "0.4743388065249136")
        assert code == 0
        sols = json.loads(out)["solutions"]
        assert [s["band"] for s in sols] == ["valence", "conduction"]
        assert all(s["residual"] <= 1e-10 * abs(s["energy"]) for s in sols)

    @pytest.mark.parametrize("gamma1", ["0", "0.002"])
    def test_bilayer_simple_levels_where_both_complements_vanish(self, gamma1):
        # on k = 2|U| with gamma1 = 0 both E^2 - |d|^2 and E^2 - U^2 vanish at
        # E = -+U, yet those levels are simple (the layers' bands U - k, k - U)
        code, out = run_cli("eigens", "--model", "bilayer", "--kx", "2",
                            "--bias-u", "1", "--gamma1", gamma1)
        assert code == 0
        sols = json.loads(out)["solutions"]
        assert [s["degenerate"] for s in sols] == [False] * 4
        assert all(s["spinor"] is not None for s in sols)
        assert all(s["residual"] <= 1e-10 * max(1.0, abs(s["energy"])) for s in sols)

    def test_bilayer_at_large_k(self):
        # exited 2 (overflow) from |E| ~ 5e102 on while the solve cubed H's scale
        code, out = run_cli("eigens", "--model", "bilayer", "--kx", "1e120",
                            "--gamma1", "0.4", "--bias-u", "0.2")
        assert code == 0
        sols = json.loads(out)["solutions"]
        assert [s["energy"] for s in sols] == [-1e120, -1e120, 1e120, 1e120]
        # the pairs U and gamma1 split are one float apart: crossings
        assert all(s["degenerate"] for s in sols)

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
        # k = 1e200 overflows k^2 in the qw energies, which would make the
        # rotor target NaN; the solve refuses the point before the rotor step
        code = cli.main(["eigens", "--model", "qw", "--kx", "1e200", "--alpha", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: the solve overflows at kx=1e+200")

    def test_solver_value_error_exits_one(self, monkeypatch, capsys):
        def leak(params):
            raise ValueError("spinor leaves the spinor subspace")

        monkeypatch.setattr(models, "solve", leak)
        code = cli.main(["eigens", "--model", "monolayer", "--kx", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "leaves the spinor subspace" in captured.err


def reference_eigens(argv):
    """`eigens` output by json.dumps, each solution's dict built here from
    its EigenSolution, as cmd_eigens wrote it before it formatted each
    solution from templates."""
    args = cli.build_parser().parse_args(argv)
    spec, params = spectra.MODELS[args.model], cli._point_params(args)
    doc = {"model": params.model, "params": params.to_json_dict()}
    try:
        sols = models.solve(params)
    except models.DegenerateError as exc:
        doc.update(degenerate=True, reason=str(exc))
        return json.dumps(doc, indent=2) + "\n"
    records = []
    for s in sols:
        # -0.0 folds into 0.0 in the energy, the spinor and the target only
        rec = {"energy": float(s.energy) + 0.0, "band": s.band_label,
               "residual": float(s.residual), "degenerate": bool(s.degenerate),
               "spinor": None}
        if s.spinor is not None:
            blocks = np.reshape(s.spinor.coeff_vector(), (-1, 4))
            rec["spinor"] = {"algebra": s.spinor.algebra}
            rec["spinor"].update((name, [float(x) + 0.0 for x in block])
                                 for name, block in zip("ab", blocks))
        if s.target_vector is not None:
            rec["target"] = [float(x) + 0.0 for x in s.target_vector]
        if s.spinor is not None and spec.average:
            rec[spec.average] = [float(v) for v in models.pseudospin_average(s.spinor)]
        records.append(rec)
    doc["solutions"] = records
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


class TestEigensWriter:
    @pytest.mark.parametrize("name", sorted(n for n, argv in CASES.items()
                                            if argv[0] == "eigens"))
    def test_golden_commands_equal_the_json_dumps_reference(self, name):
        assert run_cli(*CASES[name]) == (0, reference_eigens(CASES[name]))

    @settings(max_examples=200, deadline=None)
    @given(model=st.sampled_from(list(spectra.MODELS)), seed=st.integers(0, 2 ** 32),
           zeroed=st.sets(st.sampled_from(["kx", "ky", "alphaR", "omega", "Gamma", "U"])))
    def test_drawn_points_equal_the_json_dumps_reference(self, model, seed, zeroed):
        # zeroing couplings reaches degenerate bands ("spinor": null), zeroing
        # both kx and ky of monolayer the degenerate point
        point = cli._draw_params(model, random.Random(seed)).to_json_dict()
        argv = ["eigens", f"--model={model}"] + [
            f"--{_FLAGS[name]}={0.0 if name in zeroed else value!r}"
            for name, value in point.items() if name != "model"]
        assert run_cli(*argv) == (0, reference_eigens(argv))


class TestOverflowingPoint:
    """An `eigens` point whose solve overflows a float is a usage error: exit
    2, nothing on stdout and no numpy warning."""

    @pytest.mark.parametrize("argv", [
        # |k| overflows
        ("--model", "monolayer", "--kx", "1.3e308", "--ky=-1.3e308"),
        # every block is finite, the upper band is not
        ("--model", "bilayer", "--kx", "1.7e308", "--gamma1", "1.7e308"),
        # |d| = hypot(omega, Gamma) overflows
        ("--model", "atoms", "--omega", "1.7e308", "--gamma", "1.7e308"),
        ("--model", "bilayer", "--gamma1", "1.7e308", "--bias-u", "1.7e308"),
        # overflow in Python floats: an infinite |k| failed as "b must be a
        # unit vector", an infinite qw energy as a NaN rotor; both exited 1
        ("--model", "monolayer", "--kx", "1.7e308", "--ky", "1.7e308"),
        ("--model", "qw", "--kx", "1e200", "--alpha", "1"),
    ])
    def test_usage_error_with_empty_stdout(self, argv):
        r = run_subprocess("eigens", *argv)
        assert (r.returncode, r.stdout) == (2, b"")
        assert r.stderr.startswith(b"error: the solve overflows at ")
        assert r.stderr.count(b"\n") == 1 and b"Warning" not in r.stderr

    @pytest.mark.parametrize("argv", [
        # finite energies: these exited 2 while the Spinor leak check took
        # Multivector.norm, which overflows above 1.3e154, and the bilayer
        # spectrum took k^2 and gamma1^4
        ("--model", "monolayer", "--kx", "1e160"),
        ("--model", "qw", "--kx", "1e80", "--alpha", "1"),
        ("--model", "atoms", "--omega", "1e160", "--gamma", "1"),
        ("--model", "monolayer", "--kx", "1e200"),
        ("--model", "bilayer", "--kx", "1e200", "--gamma1", "1"),
        ("--model", "atoms", "--omega", "1e200", "--gamma", "1e200"),
        ("--model", "bilayer", "--gamma1", "1e100"),
    ])
    def test_finite_points_far_from_one_solve(self, argv):
        r = run_subprocess("eigens", *argv)
        assert (r.returncode, r.stderr) == (0, b"")
        for s in json.loads(r.stdout)["solutions"]:
            assert s["residual"] <= 1e-15 * abs(s["energy"])

    def test_non_finite_solution_is_a_usage_error(self, monkeypatch, capsys):
        def infinite(params):
            return [models.EigenSolution(math.inf, None, None, "valence", 0.0)]

        monkeypatch.setattr(models, "solve", infinite)
        code = cli.main(["eigens", "--model", "monolayer", "--kx", "1"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == ("error: the solve overflows at kx=1.0, ky=0.0; its "
                                "energies and eigenspinors must be finite floats\n")

    @pytest.mark.parametrize("solution", [
        models.EigenSolution(1.0, None, None, "valence", math.nan),
        models.EigenSolution(1.0, None, [0.0, -math.inf, 0.0], "valence", 0.0),
    ], ids=["residual", "target"])
    def test_non_finite_value_in_any_template_field(self, monkeypatch, capsys, solution):
        monkeypatch.setattr(models, "solve", lambda params: [solution])
        code = cli.main(["eigens", "--model", "monolayer", "--kx", "1"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("error: the solve overflows at kx=1.0, ky=0.0")


class TestLargeInterlayerCoupling:
    """At k = U = 0 the bilayer low band is 0 for any gamma1; its radicand's
    rounding error grows with gamma1 and is no negative radicand."""

    POINT = ("--model", "bilayer", "--gamma1", "128.74039035465384")

    def test_spectrum(self):
        code, out = run_cli("spectrum", *self.POINT, "--kmin", "0", "--kmax", "1",
                            "--samples", "2")
        assert code == 0
        assert out.splitlines()[1] == "0.0,-128.74039035465384,0.0,0.0,128.74039035465384"

    def test_eigens(self):
        code, out = run_cli("eigens", *self.POINT)
        assert code == 0
        energies = [s["energy"] for s in json.loads(out)["solutions"]]
        assert energies == [-128.74039035465384, 0.0, 0.0, 128.74039035465384]


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

    def test_negative_tolerance_is_a_usage_error(self, capsys):
        # it failed every model as physics, with a report whose max_delta was 2e-16
        code = cli.main(["verify", "--trials", "2", "--tol", "-1"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: --tol must not be negative\n"

    def test_zero_tolerance_is_allowed(self):
        code, out = run_cli("verify", "--trials", "1", "--tol", "0")
        assert code in (0, 1) and out.startswith("model=monolayer")

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


class TestNegativeExponentValues:
    # argparse's own pattern takes -1e-5 for an option, so `--kx -1e-5` was a
    # missing argument; each float flag now reads it as `--kx=-1e-5` does
    @pytest.mark.parametrize("argv", [
        ["eigens", "--model", "monolayer", "--kx", "-1e-5", "--ky", "0.5"],
        ["spectrum", "--model", "bilayer", "--kmin", "-1e-5", "--kmax", "1",
         "--samples", "3", "--gamma1", "0.4"],
    ])
    def test_same_bytes_as_the_joined_form(self, argv):
        i = argv.index("-1e-5")
        joined = argv[:i - 1] + [f"{argv[i - 1]}=-1e-5"] + argv[i + 1:]
        got = run_cli(*argv)
        assert got[0] == 0 and got == run_cli(*joined)

    @pytest.mark.parametrize("command, flag", [
        *(("eigens", flag) for flag in ("--kx", "--ky", "--alpha", "--omega", "--gamma",
                                        "--gamma1", "--bias-u")),
        ("spectrum", "--kmin"), ("spectrum", "--kmax"), ("verify", "--tol"),
    ])
    @pytest.mark.parametrize("value", ["-1e-5", "-2.5E+3", "-.5e1", "-1.", "-3"])
    def test_every_float_flag_takes_a_negative_value(self, command, flag, value):
        base = [command] + (["--model", "qw"] if command != "verify" else [])
        if command == "spectrum":
            base += ["--kmin", "-9", "--kmax", "9"]
        parse = cli.build_parser().parse_args
        assert parse(base + [flag, value]) == parse(base + [f"{flag}={value}"])


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

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_closed_reader_with_either_stdout_buffering(self, unbuffered):
        # an unbuffered stdout hands each write to the OS as is
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        proc = subprocess.Popen(
            [sys.executable, *(["-u"] if unbuffered else []), "-m", "rotoreig.cli",
             "spectrum", "--model", "bilayer", "--gamma1", "0.4", "--kmin", "0",
             "--kmax", "1", "--samples", "20000", "--format", "json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.read(1) == b"{"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert b"Traceback" not in err and b"BrokenPipeError" not in err


def _subparser(parser, command):
    sub, = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices[command]


class TestParserReuse:
    """`main` builds its parser once per process and reuses it, so every call
    must still see only its own command line."""

    def test_omitted_option_takes_its_default_again(self):
        argv = ["eigens", "--model", "qw", "--kx", "1"]
        assert run_cli(*argv, "--alpha", "0.5")[0] == 0
        code, out = run_cli(*argv)
        fresh = run_subprocess(*argv)
        assert (code, out.encode()) == (fresh.returncode, fresh.stdout)
        assert json.loads(out)["params"]["alphaR"] == 0.0

    def test_omitted_format_is_csv_again(self):
        argv = ["spectrum", "--model", "monolayer", "--kmin", "0", "--kmax", "1",
                "--samples", "3"]
        assert run_cli(*argv, "--format", "json")[1].startswith("{")
        assert run_cli(*argv) == (0, "k,E1,E2\n0.0,0.0,0.0\n0.5,-0.5,0.5\n1.0,-1.0,1.0\n")

    @pytest.mark.parametrize("bad", [
        ["eigens", "--model", "nosuch"],
        ["eigens", "--model", "qw", "--kx", "nan"],
    ])
    def test_usage_error_leaves_the_parser_intact(self, bad, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(bad)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
        code, out = run_cli(*CASES["eigens_qw.json"])
        assert (code, out.encode()) == (0, (GOLDEN / "eigens_qw.json").read_bytes())

    @pytest.mark.parametrize("command", ["spectrum", "eigens", "verify"])
    def test_help_is_a_fresh_parsers_help_every_time(self, command):
        fresh = _subparser(cli.build_parser(), command).format_help()
        for _ in range(2):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), pytest.raises(SystemExit) as exc:
                cli.main([command, "--help"])
            assert exc.value.code == 0
            assert buf.getvalue() == fresh

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.sampled_from(sorted(CASES)), min_size=2, max_size=10))
    def test_golden_commands_in_any_order(self, names):
        for name in names:
            code, out = run_cli(*CASES[name])
            assert (code, out.encode()) == (0, (GOLDEN / name).read_bytes()), name

    def test_parser_is_built_once_over_many_calls(self, monkeypatch):
        built = []

        def counting(real=cli.build_parser):
            built.append(1)
            return real()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        try:
            for i in range(50):
                code, _ = run_cli("eigens", "--model", "monolayer", f"--kx={i + 1}")
                assert code == 0
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1

    def test_import_builds_no_parser(self):
        r = subprocess.run(
            [sys.executable, "-c", "import rotoreig.cli as c; "
             "print(c._parser.cache_info().currsize)"],
            capture_output=True, check=True,
        )
        assert r.stdout == b"0\n"
