"""The package's module surface: every public name is real and its own."""

import importlib
import pkgutil
import subprocess
import sys
import textwrap
import types
import typing

import pytest
from test_golden import CASES, GOLDEN

import rotoreig

MODULES = sorted(info.name for info in pkgutil.iter_modules(rotoreig.__path__))
#: the geometric-algebra side, which only the rotor solves load
GA_MODULES = {"rotoreig.models", "rotoreig.algebra", "rotoreig.rotors", "rotoreig.spinors"}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_to_objects_of_the_module(name):
    # the benchmark tracer wraps each layer by getattr over __all__, so a
    # stale entry breaks every traced run
    mod = importlib.import_module(f"rotoreig.{name}")
    public = getattr(mod, "__all__", [])
    assert len(public) == len(set(public))
    for attr in public:
        obj = getattr(mod, attr)
        # functions and classes carry their defining module; a constant
        # carries its class's (CL30 a Signature) or none (a float, a dict)
        assert getattr(obj, "__module__", mod.__name__) == mod.__name__, attr


def run_fresh(script: str, *argv) -> list[str]:
    """The lines a script prints in a fresh interpreter, which must exit 0."""
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script), *map(str, argv)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_imports_load_only_what_each_command_runs(tmp_path):
    # in a fresh interpreter: no command draws from numpy.random, `eigens`
    # and `spectrum` call neither the oracle nor json, and only `spectrum`'s
    # sweep and the oracle need numpy, so importing the CLI loads none of
    # them.  `eigens` imports the rotor solvers when it runs, and still no
    # numpy, also at a degenerate point, which is written from the same
    # template without json.  In another fresh interpreter `spectrum` runs
    # on the closed forms alone, so it loads no geometric algebra, and
    # `verify` imports the oracle; each output is unchanged
    spectrum, eigens = "spectrum_bilayer_k0.json", "eigens_bilayer.json"
    degenerate = "eigens_monolayer_k0.json"
    outs = [tmp_path / spectrum, tmp_path / eigens, tmp_path / degenerate]
    ga = sorted(GA_MODULES)
    assert run_fresh(f"""
        import sys
        before = set(sys.modules)
        import rotoreig.cli
        print(sorted({{"numpy", "numpy.random", "rotoreig.oracle", "json"}}
                     & (set(sys.modules) - before)))
        code = rotoreig.cli.main({CASES[eigens]!r} + ["--out", sys.argv[1]])
        print(code, [name for name in {ga!r} if name not in sys.modules], "numpy" in sys.modules)
        code = rotoreig.cli.main({CASES[degenerate]!r} + ["--out", sys.argv[2]])
        print(code, "json" in sys.modules, "numpy" in sys.modules)
    """, outs[1], outs[2]) == ["[]", "0 [] False", "0 False False"]
    lines = run_fresh(f"""
        import sys
        import rotoreig.cli
        code = rotoreig.cli.main({CASES[spectrum]!r} + ["--out", sys.argv[1]])
        print(code, [name for name in {ga!r} if name in sys.modules])
        import rotoreig.oracle
        print("numpy.random" in sys.modules)
        print(rotoreig.cli.main(["verify", "--trials", "1"]))
    """, outs[0])
    assert lines[:2] == ["0 []", "False"]
    assert lines[-2].startswith("verify: PASS (seed=0, trials=1,") and lines[-1] == "0"
    for out in outs:
        assert out.read_bytes() == (GOLDEN / out.name).read_bytes()


def test_every_annotation_resolves_at_run_time():
    # a lazily imported module named in an annotation makes get_type_hints
    # raise NameError
    for name in MODULES:
        mod = importlib.import_module(f"rotoreig.{name}")
        for obj in vars(mod).values():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            members = vars(obj).values() if isinstance(obj, type) else []
            for fn in [obj, *(getattr(m, "__func__", m) for m in members)]:
                if isinstance(fn, (type, types.FunctionType)):
                    typing.get_type_hints(fn)
