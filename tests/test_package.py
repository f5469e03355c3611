"""The package's module surface: every public name is real and its own."""

import importlib
import pkgutil

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
