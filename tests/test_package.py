"""The package's module surface: every public name is real and its own."""

import importlib
import pkgutil
import subprocess
import sys
import textwrap

import pytest

import rotoreig

MODULES = sorted(info.name for info in pkgutil.iter_modules(rotoreig.__path__))


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


def test_imports_load_only_what_each_command_runs():
    # in a fresh interpreter: `eigens` and `spectrum` call neither the oracle
    # nor json, and no command draws from numpy.random, so importing the CLI
    # loads none of them; `verify` imports the oracle when it runs
    script = textwrap.dedent("""
        import sys
        before = set(sys.modules)
        import rotoreig.cli
        print(sorted({"numpy.random", "rotoreig.oracle", "json"} & (set(sys.modules) - before)))
        import rotoreig.oracle
        print("numpy.random" in sys.modules)
        print(rotoreig.cli.main(["verify", "--trials", "1"]))
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:2] == ["[]", "False"]
    assert lines[-2].startswith("verify: PASS (seed=0, trials=1,") and lines[-1] == "0"
