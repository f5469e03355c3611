"""Batch command-line interface: spectrum sweeps, point eigensolutions and
randomized rotor-vs-oracle verification.

Output is byte-deterministic for a fixed command line (and seed): floats are
printed in shortest round-trip form, samples are emitted in index order.
"""

from __future__ import annotations

import argparse
import functools
import io
import math
import os
import sys

import numpy as np

from . import spectra
from .spectra import ModelParams

__all__ = ["main", "build_parser"]


def _fmt(x: float) -> str:
    # adding 0.0 folds -0.0 into 0.0 for stable output
    return repr(float(x) + 0.0)


_DEGENERATE = ',\n      "degenerate": true'
_PIPE_BUF = 4096  # Linux's PIPE_BUF


def cmd_spectrum(args, out) -> int:
    """Write a band sweep: the model's spectrum on the array of sweep values,
    then the text column by column, each row filled into one fixed template.

    The JSON bytes equal those of ``json.dumps(doc, indent=2)``, which is
    slow because the stdlib's indenting encoder is pure Python; like json,
    the templates write each float with ``repr``.
    """
    if args.samples < 2:
        raise SystemExit2("--samples must be at least 2")
    if args.kmin > args.kmax:
        raise SystemExit2("--kmin must not exceed --kmax")
    spec, params = spectra.MODELS[args.model], _point_params(args)
    n = args.samples
    # a value or energy past the largest float is caught by the check below
    with np.errstate(all="ignore"):
        xs = args.kmin + (args.kmax - args.kmin) * np.arange(n) / (n - 1)
        table = np.array([xs, *spec.spectrum(xs, params)])
        finite = np.isfinite(table).all(axis=0)
        if not finite.all():
            # kmax - kmin, or its product with i, can pass the largest float
            # where the value does not: those values again from the halved
            # endpoints, dividing first, which cannot overflow
            lost = np.flatnonzero(~np.isfinite(xs))
            if len(lost):
                xs[lost] = 2.0 * (args.kmin / 2.0 + (args.kmax / 2.0 - args.kmin / 2.0)
                                  * (lost / (n - 1)))
                table = np.array([xs, *spec.spectrum(xs, params)])
                finite = np.isfinite(table).all(axis=0)
            if not finite.all():
                raise _overflow(spec.sweep, xs[finite.argmin()].item())
    columns = _column_texts(table)
    if args.format == "csv":
        bands = ",".join(f"E{j}" for j in range(1, len(table)))
        text = (f"{spec.sweep},{bands}\n" + "\n".join(map(",".join, zip(*columns)))
                + "\n")
    else:
        # each sweep value with |x| <= DEGENERACY_TOL, whatever the bands
        # there: `eigens` may still build some or all of their rotors
        flags = np.where(np.abs(xs) <= spectra.DEGENERACY_TOL, _DEGENERATE, "")
        template = (f'    {{\n      "{spec.sweep}": %s,\n      "energies": [\n        '
                    + ",\n        ".join(["%s"] * (len(table) - 1)) + "\n      ]%s\n    }")
        rows = [template % row for row in zip(*columns, flags.tolist())]
        text = (f'{{\n  "model": "{args.model}",\n  "sweep": "{spec.sweep}",\n'
                '  "rows": [\n' + ",\n".join(rows) + "\n  ]\n}\n")
    # Unbuffered stdout (`python -u`) hands each write to the OS as is, and
    # Linux cuts a large pipe write short without an error when the reader
    # leaves; a write of at most PIPE_BUF bytes is whole or fails with EPIPE.
    for start in range(0, len(text), _PIPE_BUF):
        out.write(text[start:start + _PIPE_BUF])
    return 0


def _column_texts(table: np.ndarray) -> list[list[str]]:
    """The texts ``repr(v + 0.0)`` of the finite entries v of each row of
    table, a sweep column.

    ``repr(-a)`` is ``"-" + repr(a)``, so a column whose magnitudes equal an
    earlier column's reuses that column's reprs and signs them: repr runs
    once per entry of each column of new magnitudes (half the bands are
    another band negated)."""
    texts, reprs = [], {}
    for column in table:
        magnitudes = np.abs(column)  # + 0.0 folds -0.0: abs does too
        key = magnitudes.tobytes()
        if key not in reprs:
            reprs[key] = list(map(repr, magnitudes.tolist()))
        text = reprs[key]
        negative = column < 0.0
        if negative.any():
            text = ["-" + t if neg else t for t, neg in zip(text, negative.tolist())]
        texts.append(text)
    return texts


def _overflow(sweep: str, x: float) -> SystemExit2:
    return SystemExit2(f"the sweep overflows at {sweep}={x!r}; "
                       "its values and energies must be finite floats")


#: the coupling flags: (flag, argparse attribute, ModelParams field, help)
_COUPLINGS = (
    ("--alpha", "alpha", "alphaR", "Rashba coupling (qw)"),
    ("--omega", "omega", "omega", "level splitting (atoms)"),
    ("--gamma", "gamma", "Gamma", "dipole coupling (atoms)"),
    ("--gamma1", "gamma1", "gamma1", "interlayer coupling (bilayer)"),
    ("--bias-u", "bias_u", "U", "half interlayer bias U (bilayer)"),
)


def _point_params(args) -> ModelParams:
    return ModelParams(args.model, args.kx, args.ky, eta=args.eta,
                       **{field: getattr(args, attr) for _, attr, field, _ in _COUPLINGS})


def cmd_eigens(args, out) -> int:
    """Write the eigensolutions at one point, each straight from its
    ``EigenSolution`` into fixed templates.

    As in ``cmd_spectrum``, the bytes equal those of ``json.dumps(doc,
    indent=2, allow_nan=False)``."""
    # imported here, not at the top: only `eigens` and `verify` run a rotor
    # solve, so `spectrum` starts without the geometric algebra
    from . import models

    spec, params = spectra.MODELS[args.model], _point_params(args)
    try:
        # a float that overflows anywhere in the solve raises, not warns;
        # so does writing a solution value that is not a finite float
        with np.errstate(over="raise", invalid="raise"):
            solutions = []
            for s in models.solve(params):
                average = None
                if s.spinor is not None and spec.average:
                    average = models.pseudospin_average(s.spinor).tolist()
                solutions.append(_solution_json(s, spec.average, average))
        body = '"solutions": [\n' + ",\n".join(solutions) + "\n  ]"
    except models.DegenerateError as exc:
        # its one message, "degenerate point: H = 0, rotor undefined", needs
        # no JSON escape
        body = f'"degenerate": true,\n  "reason": "{exc}"'
    except (FloatingPointError, OverflowError):
        raise _point_overflow(params) from None
    # argparse took only finite floats, so the params need no check
    fields = "".join(f',\n    "{name}": {value!r}'
                     for name, value in params.to_json_dict().items() if name != "model")
    out.write(f'{{\n  "model": "{params.model}",\n  "params": {{\n'
              f'    "model": "{params.model}"{fields}\n  }},\n  {body}\n}}\n')
    return 0


def _json_float(x: float) -> str:
    """x as json.dumps writes a float; OverflowError, which ``cmd_eigens``
    reports as an overflowing point, if x is not finite."""
    if not math.isfinite(x):
        raise OverflowError("out of range float value")
    return repr(x)


def _json_floats(values: list[float], depth: int) -> str:
    """A list of finite floats as json.dumps(indent=2) writes it at depth."""
    pad = "\n" + "  " * depth
    return f"[{pad}  " + ("," + pad + "  ").join(map(_json_float, values)) + f"{pad}]"


def _solution_json(s, average_key: str | None, average: list[float] | None) -> str:
    """One EigenSolution s, then its spinor's e3 average under average_key
    when there is one, as json.dumps(indent=2) writes it in the solutions
    list. The energy, the spinor coefficients and the target fold -0.0 into
    0.0; the residual and the average do not."""
    # s is unannotated: `models` is imported only by `eigens` and `verify`
    spinor = "null"
    if s.spinor is not None:
        blocks = (s.spinor.coeff_vector() + 0.0).reshape(-1, 4).tolist()
        spinor = ('{\n        "algebra": "' + s.spinor.algebra + '"'
                  + "".join(f',\n        "{name}": {_json_floats(block, 4)}'
                            for name, block in zip("ab", blocks)) + "\n      }")
    tail = ""
    if s.target_vector is not None:
        target = [float(x) + 0.0 for x in s.target_vector]
        tail += f',\n      "target": {_json_floats(target, 3)}'
    if average is not None:
        tail += f',\n      "{average_key}": {_json_floats(average, 3)}'
    return (f'    {{\n      "energy": {_json_float(float(s.energy) + 0.0)},\n'
            f'      "band": "{s.band_label}",\n'
            f'      "residual": {_json_float(float(s.residual))},\n'
            f'      "degenerate": {"true" if s.degenerate else "false"},\n'
            f'      "spinor": {spinor}{tail}\n    }}')


def _point_overflow(params: ModelParams) -> SystemExit2:
    point = ", ".join(f"{name}={value!r}" for name, value in
                      params.to_json_dict().items() if name != "model")
    return SystemExit2(f"the solve overflows at {point}; "
                       "its energies and eigenspinors must be finite floats")


def _draw_params(model: str, rng) -> ModelParams:
    # rng is a random.Random, unannotated: `random` is imported only by
    # `verify`, so an annotation naming it would not resolve.  The draw
    # order fixes `verify`'s output per seed: k and phi for every model,
    # then the model's couplings in order, then eta
    spec = spectra.MODELS[model]
    k = 10.0 ** rng.uniform(math.log10(0.01), math.log10(5.0))
    phi = rng.uniform(0.0, 2.0 * math.pi)
    drawn = {"kx": k * math.cos(phi), "ky": k * math.sin(phi)}
    drawn.update((name, rng.uniform(0.01, 2.0)) for name in spec.couplings)
    if "eta" in spec.fields:
        drawn["eta"] = rng.choice([1, -1])
    return ModelParams(model, **{name: drawn[name] for name in spec.fields})


def cmd_verify(args, out) -> int:
    # imported here, not at the top: `eigens` and `spectrum` never call the
    # oracle, so their start-up does not load it
    import random

    from . import oracle

    if args.trials < 1:
        raise SystemExit2("--trials must be at least 1")
    if args.tol < 0.0:
        raise SystemExit2("--tol must not be negative")
    rng = random.Random(args.seed)
    all_pass = True
    first_failure = None
    for name in spectra.MODELS:
        max_delta = 0.0
        max_residual = 0.0
        ok = True
        for _ in range(args.trials):
            report = oracle.cross_check(_draw_params(name, rng), tol=args.tol)
            max_delta = max(max_delta, report.max_delta)
            max_residual = max(max_residual, max(report.residuals))
            if not report.passed:
                ok = False
                if first_failure is None:
                    first_failure = report
        all_pass = all_pass and ok
        out.write(
            f"model={name} trials={args.trials} max_delta={_fmt(max_delta)} "
            f"max_residual={_fmt(max_residual)} "
            f"status={'pass' if ok else 'FAIL'}\n"
        )
    if all_pass:
        out.write(
            f"verify: PASS (seed={args.seed}, trials={args.trials}, "
            f"tol={_fmt(args.tol)})\n"
        )
        return 0
    import json

    out.write("verify: FAIL; first failing report:\n")
    out.write(json.dumps(first_failure.to_json_dict(), indent=2) + "\n")
    return 1


class SystemExit2(Exception):
    """Usage error surfaced with exit code 2."""


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither NaN nor infinite."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotoreig",
        description="Rotor-equation quantum eigensolvers with matrix-oracle "
        "verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model(p):
        p.add_argument("--model", required=True, choices=spectra.MODELS)
        for flag, attr, _, text in _COUPLINGS:
            p.add_argument(flag, dest=attr, type=_finite_float, default=0.0, help=text)
        p.add_argument("--eta", type=int, default=1, choices=[1, -1],
                       help="valley index (bilayer)")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p_spec = sub.add_parser("spectrum", help="band-energy sweep (CSV or JSON)")
    add_model(p_spec)
    p_spec.add_argument("--kmin", type=_finite_float, required=True,
                        help="sweep start (Gamma start for atoms)")
    p_spec.add_argument("--kmax", type=_finite_float, required=True,
                        help="sweep end (Gamma end for atoms)")
    p_spec.add_argument("--samples", type=int, default=101)
    p_spec.add_argument("--format", choices=["csv", "json"], default="csv")
    # a sweep's parameters hold no wave vector; it is the sweep variable
    p_spec.set_defaults(func=cmd_spectrum, kx=0.0, ky=0.0)

    p_eig = sub.add_parser("eigens", help="eigensolutions at one point (JSON)")
    add_model(p_eig)
    p_eig.add_argument("--kx", type=_finite_float, default=0.0)
    p_eig.add_argument("--ky", type=_finite_float, default=0.0)
    p_eig.set_defaults(func=cmd_eigens)

    p_ver = sub.add_parser("verify", help="randomized rotor-vs-oracle check")
    p_ver.add_argument("--trials", type=int, default=100)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--tol", type=_finite_float, default=1e-10)
    p_ver.add_argument("--out", default=None)
    p_ver.set_defaults(func=cmd_verify)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built on first use and shared by every ``main`` call.

    Only a process that calls ``main`` repeatedly gains; the console script
    calls it once. Reuse is safe: ``parse_args`` writes only into a fresh
    Namespace, no default is a mutable object and no action appends."""
    # set_defaults binds cmd_* once; nothing patches them (__all__ is main, build_parser)
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        out = io.StringIO() if args.out else sys.stdout
        code = args.func(args, out)
        # opened only once the command has its output, so a failing command
        # leaves an existing file as it was
        if args.out:
            try:
                with open(args.out, "w", newline="") as fh:
                    fh.write(out.getvalue())
            except OSError as exc:
                raise SystemExit2(f"cannot write {args.out}: {exc.strerror}") from None
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader went away (e.g. `| head`); point stdout at devnull so
        # the flush at interpreter exit cannot raise again, and exit 1
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
