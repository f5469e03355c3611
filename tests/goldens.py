"""The report-level goldens: every cross-check report, and the `eigens`
output, over `verify`'s own draws and a set of edge points.

`verify` prints only per-model maxima, so a kernel change could move bits
that it never shows; ``tests/test_golden.py`` holds these two files to the
bytes this module builds.  It imports no pytest and no numpy, so
``tools/interpreters.py`` rebuilds both files under interpreters that have
neither.  Regenerate them with ``PYTHONPATH=src python tests/goldens.py``.
"""

import contextlib
import functools
import io
import json
import random
from pathlib import Path

from rotoreig import cli, oracle, spectra

GOLDEN = Path(__file__).parent / "golden"

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


if __name__ == "__main__":
    for name, text in report_goldens().items():
        (GOLDEN / name).write_bytes(text.encode())
