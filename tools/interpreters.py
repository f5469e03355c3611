#!/usr/bin/env python3
"""Check that other Python interpreters print the golden bytes.

    python3 tools/interpreters.py PYTHON [PYTHON ...]

Under each interpreter, with ``PYTHONPATH=src``, runs ``python -m
rotoreig.cli`` on every ``eigens`` and ``verify`` case of
``tests/test_golden.CASES``, on ``verify --trials 1000 --seed 42`` and on
``eigens --model monolayer --kx -1e-5`` (a negative exponent-form value as a
separate argument).  Each output is compared byte for byte with its golden
file; the last case has none, so its reference is ``--kx=-1e-5`` run by the
interpreter running this script.  It also evaluates the pinned values of
``tests/test_primitives.py`` that need no numpy (``math.hypot`` and float
``repr``), so that a mismatch can name the primitive that moved.  Prints one
line per (interpreter, case) and per (interpreter, primitive), and exits 1
if any output differs, any pinned value moved or any run fails.

Only the standard library is used, and ``spectrum`` (which needs numpy) is
not run, so the interpreters need nothing installed.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
NEGATIVE_EXPONENT = ["eigens", "--model", "monolayer", "--kx", "-1e-5"]
#: per parametrized test of tests/test_primitives.py that needs no numpy:
#: the primitive it pins and the expression each case must make true
PRIMITIVES = {
    "test_math_hypot": ("math.hypot", "math.hypot(*{0!r}).hex() == {1!r}"),
    "test_shortest_round_trip": ("float repr", "repr(float.fromhex({0!r})) == {1!r}"),
}


def golden_cases() -> dict[str, list[str]]:
    """``CASES`` of tests/test_golden.py, read without importing it."""
    tree = ast.parse((ROOT / "tests" / "test_golden.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "CASES" for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError("no CASES in tests/test_golden.py")


def primitive_checks() -> dict[str, list[str]]:
    """Per primitive, one expression per pinned case of tests/test_primitives.py,
    read from its ``pytest.mark.parametrize`` lists without importing it."""
    tree = ast.parse((ROOT / "tests" / "test_primitives.py").read_text())
    checks = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in PRIMITIVES:
            name, template = PRIMITIVES[node.name]
            (cases,) = [ast.literal_eval(d.args[1]) for d in node.decorator_list
                        if isinstance(d, ast.Call) and getattr(d.func, "attr", "") == "parametrize"]
            checks[name] = [template.format(*case) for case in cases]
    return checks


def run(python: str, argv: list[str]) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([python, "-m", "rotoreig.cli", *argv], capture_output=True,
                          env=env, cwd=ROOT, timeout=600)


def version(python: str) -> str:
    return subprocess.run([python, "-c", "import platform; print(platform.python_version())"],
                          capture_output=True, text=True, check=True).stdout.strip()


def main(pythons: list[str]) -> int:
    if not pythons:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    cases = {name: (argv, (GOLDEN / name).read_bytes())
             for name, argv in golden_cases().items() if argv[0] in ("eigens", "verify")}
    cases["verify_trials1000_seed42.txt"] = (
        ["verify", "--trials", "1000", "--seed", "42"],
        (GOLDEN / "verify_trials1000_seed42.txt").read_bytes())
    reference = run(sys.executable, [*NEGATIVE_EXPONENT[:-2], "--kx=-1e-5"])
    if reference.returncode != 0:
        print(f"reference run failed: {reference.stderr.decode().strip()}", file=sys.stderr)
        return 2
    cases["--kx -1e-5"] = (NEGATIVE_EXPONENT, reference.stdout)
    checks = primitive_checks()
    failed = 0
    for python in pythons:
        tag = f"Python {version(python)} ({python})"
        for name, exprs in checks.items():
            proc = subprocess.run([python, "-c", f"import math; print([{', '.join(exprs)}])"],
                                  capture_output=True, text=True, check=True)
            moved = [e for e, ok in zip(exprs, ast.literal_eval(proc.stdout)) if not ok]
            failed += bool(moved)
            verdict = f"MOVED: {'; '.join(moved)}" if moved else "every pinned value holds"
            print(f"{tag}  {name}: {verdict} ({len(exprs)} pinned)", flush=True)
        for name, (argv, expected) in cases.items():
            proc = run(python, argv)
            if proc.returncode != 0:
                last = (proc.stderr.decode().strip().splitlines() or [""])[-1]
                verdict = f"FAILED: exit {proc.returncode}: {last}"
            elif proc.stdout == expected:
                verdict = "same bytes"
            else:
                at = next((i for i, (a, b) in enumerate(zip(proc.stdout, expected)) if a != b),
                          min(len(proc.stdout), len(expected)))
                verdict = f"DIFFERS from byte {at}"
            failed += verdict != "same bytes"
            print(f"{tag}  {name}: {verdict}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
