#!/usr/bin/env python3
"""rotoreig benchmark: one workload, one process, one thread.

    python3 bench/run.py --workload {verify,eigens,sweep} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root; rotoreig is imported from ``src/`` of the
checkout this file sits in.  Every op's output is checked against the
benchmark's own reference (``reference.py``).  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``.  ``NOTES.md`` defines every metric.
"""

from __future__ import annotations

import os

# one thread: a BLAS thread pool would compete with the measured loop
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402

import ops  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_out"

#: the seed to tune on, and the seed a gain claim is re-checked on
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

WARMUP_OPS = 32          # untimed ops before measuring (lazy tables, caches)
MIN_OPS = 1100           # ops per k90 block; >= 11 samples beyond the pooled p99
SETUP_PROBES = 24        # fresh interpreters per run; setup_s is their median
PROBE_KERNELS = 7        # start-up kernel calls timed in each probe
COUNT_ROUNDS = 16        # traced rounds (of 4 ops) whose calls are counted
TRACE_WARMUP_OPS = 8
CAL_SPAN = 8             # host speed: kernel median over CAL_SPAN + 1 rounds
CAL_REF_MS = 1.0         # calibration kernel time at the reference host speed
STARTUP_REF_MS = 5.0     # start-up kernel time at the reference host speed

# per-layer counts: metric -> the counters summed into it
COUNTS = {
    "algebra.products_per_op": ["algebra.Multivector products"],
    "rotors.calls_per_op": ["rotors.entries"],
    "spinors.spinor_builds_per_op": ["spinors.Spinor.__init__"],
    "spinors.generator_actions_per_op": [
        "spinors.pauli_action_cl30", "spinors.imaginary_action_cl30",
        "spinors.ga_action_cl31"],
    "models.h_applications_per_op": [
        "models.h_monolayer", "models.h_qw", "models.h_two_atoms",
        "models.h_bilayer"],
    "oracle.operator_matrices_per_op": ["oracle.ga_operator_matrix"],
    "oracle.jacobi_calls_per_op": ["oracle.jacobi_eigh"],
}
JACOBI = "oracle.jacobi_eigh"


def end_to_end_units() -> dict:
    units = {"setup_s": "s", "ops_per_s": "1/s"}
    units.update({f"op_ms_p50.{m}": "ms" for m in ops.MODELS})
    units.update({"op_ms_p99": "ms", "pass_ratio": "ratio", "peak_rss_mb": "MB"})
    return units


def per_layer_units() -> dict:
    units = {}
    for base in COUNTS:
        for suffix in [""] + [f".{m}" for m in ops.MODELS]:
            units[base + suffix] = "count"
    for base in [f"{layer}.self_ms_per_op" for layer in LAYERS] + ["oracle.jacobi_ms_per_op"]:
        for suffix in [""] + [f".{m}" for m in ops.MODELS]:
            units[base + suffix] = "ms"
    units["trace.overhead_ratio"] = "ratio"
    return units


def use_checkout_source() -> None:
    """Import rotoreig from this checkout's ``src/``, or exit with code 2."""
    if not (SRC / "rotoreig" / "__init__.py").is_file():
        print(f"error: no rotoreig sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def timed(call):
    """Run ``call()``; return its time in ns and its result.

    The time is the thread's CPU time, so time the host spends on other
    processes or guests (preemption, steal) does not count: on a shared
    host those stalls set the tail, not the program.  If the call blocked
    (made a voluntary context switch), the time is wall time instead, so
    waiting the program does itself still counts."""
    switches = resource.getrusage(resource.RUSAGE_THREAD).ru_nvcsw
    w0, c0 = time.perf_counter_ns(), time.thread_time_ns()
    result = call()
    c1, w1 = time.thread_time_ns(), time.perf_counter_ns()
    if resource.getrusage(resource.RUSAGE_THREAD).ru_nvcsw != switches:
        return w1 - w0, result
    return c1 - c0, result


def make_executor(workload: str):
    """Import rotoreig and return ``execute(op) -> (op_ns, output)``.

    Only the program's call is timed (``timed``).  Module attributes are
    looked up on every call, so a tracer's patches take effect."""
    import rotoreig  # noqa: F401

    if workload == "verify":
        from rotoreig import models, oracle

        def execute(op):
            return timed(lambda: oracle.cross_check(
                models.ModelParams(op.model, **op.point)))

        return execute

    from rotoreig import cli

    def execute(op):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            took, code = timed(lambda: cli.main(list(op.argv)))
        return took, (code, buf.getvalue())

    return execute


def check(workload: str, op, output) -> str | None:
    import reference

    if workload == "verify":
        return reference.check_verify(op, output)
    if workload == "eigens":
        return reference.check_eigens(op, *output)
    return reference.check_sweep(op, *output)


class Tally:
    """Attempted and failed ops, with the first few failures kept."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def run(self, execute, op, runner=None):
        """Run and check one op; returns its time in ns, or None if it failed."""
        self.attempted += 1
        try:
            took, output = runner(execute, op) if runner else execute(op)
            why = check(self.workload, op, output)
        except Exception as exc:  # any error is a failed op, not a crash
            took, why = None, f"{type(exc).__name__}: {exc}"
        if why is None:
            return took
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(f"op {op.index} ({op.model}): {why}")
        return None


# ---- set-up probe ------------------------------------------------------


def probe(workload: str, seed: int) -> dict:
    """In this fresh interpreter: import rotoreig and run the first op."""
    op = next(ops.op_stream(workload, seed))
    t0 = time.perf_counter()
    execute = make_executor(workload)
    _, output = execute(op)
    setup = time.perf_counter() - t0
    # the host's start-up speed right after set-up; calibrate is imported
    # only now, so that its import is not timed
    import calibrate

    kernel_s = []
    for _ in range(PROBE_KERNELS):
        t0 = time.perf_counter()
        calibrate.startup_kernel()
        kernel_s.append(time.perf_counter() - t0)
    return {"setup_s": setup, "kernel_ms": statistics.median(kernel_s) * 1e3,
            "error": check(workload, op, output)}


def run_probe(workload: str, seed: int, tally: Tally) -> tuple[float, float]:
    """Set up once in a fresh interpreter; returns its set-up time in s and
    that time scaled to the reference host speed."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=60, cwd=ROOT)
    if proc.returncode != 0:
        sys.exit(f"error: set-up probe failed:\n{proc.stderr}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    tally.attempted += 1
    if doc["error"] is not None:
        tally.failed += 1
        tally.reasons.append(f"set-up probe: {doc['error']}")
    return doc["setup_s"], doc["setup_s"] * STARTUP_REF_MS / doc["kernel_ms"]


# ---- untraced run: end-to-end metrics ------------------------------------


def host_scale(cal) -> list[float]:
    """Per round: CAL_REF_MS over the median kernel time of the
    CAL_SPAN + 1 rounds centred on it, so each op is scaled by the host
    speed of its own 0.1-0.2 s."""
    half = CAL_SPAN // 2
    return [CAL_REF_MS / statistics.median(cal[max(0, r - half):r + half + 1])
            for r in range(len(cal))]


def tail_p99(op_ms, op_round, cal) -> float:
    """Pooled p99 over all ops, each op scaled by the 90th-percentile
    kernel time of its block of MIN_OPS ops.  The tail is set by the host's
    slow phases, which the kernel's upper decile measures; per-block
    scaling follows host drift within the run."""
    block_rounds = MIN_OPS // len(ops.MODELS)
    n_blocks = max(1, len(cal) // block_rounds)
    k90 = []
    for b in range(n_blocks):
        lo = b * block_rounds
        hi = len(cal) if b == n_blocks - 1 else lo + block_rounds
        k90 += [statistics.quantiles(cal[lo:hi], n=10)[8]] * (hi - lo)
    return statistics.quantiles(
        [ms * CAL_REF_MS / k90[r] for ms, r in zip(op_ms, op_round)], n=100)[98]


def run_untraced(workload: str, seed: int, seconds: float) -> tuple[Tally, dict]:
    """Rounds of one op per model, each followed by one timed calibration
    kernel.  Latency medians and throughput use op times scaled to the
    reference host speed (``host_scale``)."""
    import calibrate

    tally = Tally(workload)
    execute = make_executor(workload)
    stream = ops.op_stream(workload, seed)
    for _ in range(WARMUP_OPS):
        tally.run(execute, next(stream))
    for _ in range(CAL_SPAN):
        calibrate.kernel()
    # flat arrays, not lists of tuples: objects the collector tracks would
    # make its full passes, which land inside ops, grow with the run
    op_model, op_round, op_ms, cal = array("b"), array("l"), array("d"), array("d")
    setups = []
    measured = 0.0
    while len(op_ms) < MIN_OPS or measured < seconds:
        # set-up probes are spread evenly over the measured time; the probe
        # and the untimed round after it are not measured time
        if len(setups) < SETUP_PROBES and measured >= len(setups) * seconds / SETUP_PROBES:
            setups.append(run_probe(workload, seed, tally))
            for _ in ops.MODELS:
                tally.run(execute, next(stream))
        t_round = time.perf_counter()
        for model_i in range(len(ops.MODELS)):
            op = next(stream)
            took = tally.run(execute, op)
            if took is not None:
                op_model.append(model_i)
                op_round.append(len(cal))
                op_ms.append(took / 1e6)
        cal.append(timed(calibrate.kernel)[0] / 1e6)
        measured += time.perf_counter() - t_round
    while len(setups) < SETUP_PROBES:
        setups.append(run_probe(workload, seed, tally))
    setup_s = statistics.median(scaled for _, scaled in setups)
    scale = host_scale(cal)
    scaled = [ms * scale[r] for ms, r in zip(op_ms, op_round)]
    metrics = {"setup_s": setup_s, "ops_per_s": len(scaled) / (sum(scaled) / 1e3)}
    for model_i, model in enumerate(ops.MODELS):
        metrics[f"op_ms_p50.{model}"] = statistics.median(
            ms for ms, m in zip(scaled, op_model) if m == model_i)
    metrics["op_ms_p99"] = tail_p99(op_ms, op_round, cal)
    metrics["pass_ratio"] = 1.0 - tally.failed / tally.attempted
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"workload={workload} seed={seed} timed_ops={len(op_ms)} "
          f"p99_samples_beyond={len(op_ms) // 100} setup_probes={len(setups)} "
          f"setup_s_raw_median={statistics.median(raw for raw, _ in setups):.4f} "
          f"host_speed_median={statistics.median(scale):.4f}")
    return tally, metrics


# ---- traced run: per-layer metrics ---------------------------------------


def run_traced(workload: str, seed: int, seconds: float,
               save: bool = True) -> tuple[Tally, dict]:
    """Rounds of four ops, each run untraced and traced (alternating which
    goes first) and followed by one calibration kernel.  Calls are counted
    over the first COUNT_ROUNDS rounds only, so counts depend on the seed
    alone; times use every round and are scaled to the reference host
    speed by the run's median kernel time."""
    import calibrate

    tally = Tally(workload)
    execute = make_executor(workload)
    tracer = Tracer(always_span=(JACOBI,))
    stream = ops.op_stream(workload, seed)
    for _ in range(TRACE_WARMUP_OPS):
        tally.run(execute, next(stream))
    for _ in range(CAL_SPAN):
        calibrate.kernel()
    cal = []
    plain_ns = traced_ns = 0
    rounds = 0
    start = time.perf_counter()
    while rounds < COUNT_ROUNDS or time.perf_counter() - start < seconds:
        batch = [next(stream) for _ in ops.MODELS]
        counted = rounds < COUNT_ROUNDS
        for traced in ((False, True) if rounds % 2 == 0 else (True, False)):
            for op in batch:
                if traced:
                    took = tally.run(execute, op, lambda ex, o: tracer.run_op(
                        o.model, counted, ex, o))
                    traced_ns += took or 0
                else:
                    plain_ns += tally.run(execute, op) or 0
        t0 = time.perf_counter_ns()
        calibrate.kernel()
        cal.append((time.perf_counter_ns() - t0) / 1e6)
        rounds += 1
    scale = CAL_REF_MS / statistics.median(cal)
    units = per_layer_units()
    metrics = {k: v * scale if units[k] == "ms" else v
               for k, v in layer_metrics(tracer).items()}
    metrics["trace.overhead_ratio"] = traced_ns / plain_ns
    if save:
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.save(TRACE_DIR / f"spans-{workload}.npz")
    print(f"workload={workload} seed={seed} traced_rounds={rounds} "
          f"counted_ops={COUNT_ROUNDS * len(ops.MODELS)} spans={len(tracer.span_name)} "
          f"host_speed={scale:.4f}")
    return tally, metrics


def layer_metrics(tracer) -> dict:
    import numpy as np

    out = {}
    # counts, from the counted ops
    for metric, counters in COUNTS.items():
        fids = [tracer.fid(c) for c in counters]
        total_ops = total = 0
        for model in ops.MODELS:
            n, calls = tracer.counted[model]
            value = sum(calls[f] for f in fids)
            out[f"{metric}.{model}"] = value / n
            total_ops += n
            total += value
        out[metric] = total / total_ops
    # times, from every traced op
    spans = tracer.spans()
    model_idx = {m: i for i, m in enumerate(ops.MODELS)}
    op_model = np.array([model_idx[m] for m, _, _ in tracer.ops], dtype=np.int64)
    ops_per_model = np.bincount(op_model, minlength=len(ops.MODELS))
    span_model = op_model[spans["op"]]
    span_layer = np.array(tracer.layer_of, dtype=np.int64)[spans["name"]]
    jacobi = spans["name"] == tracer.fid(JACOBI)

    def per_op(base: str, ns_by_model) -> None:
        for model, i in model_idx.items():
            out[f"{base}.{model}"] = ns_by_model[i] / 1e6 / ops_per_model[i]
        out[base] = ns_by_model.sum() / 1e6 / ops_per_model.sum()

    for layer_i, layer in enumerate(LAYERS):
        sel = span_layer == layer_i
        per_op(f"{layer}.self_ms_per_op",
               np.bincount(span_model[sel], weights=spans["self_ns"][sel],
                           minlength=len(ops.MODELS)))
    dur = spans["end"] - spans["start"]
    per_op("oracle.jacobi_ms_per_op",
           np.bincount(span_model[jacobi], weights=dur[jacobi],
                       minlength=len(ops.MODELS)))
    return out


# ---- entry point ---------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=ops.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=json.loads(
        (ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    use_checkout_source()
    if args.probe:
        print(json.dumps(probe(args.workload, args.seed)))
        return 0
    run = run_traced if args.trace else run_untraced
    tally, values = run(args.workload, args.seed, args.seconds)
    units = per_layer_units() if args.trace else end_to_end_units()
    for reason in tally.reasons:
        print(f"FAILED {reason}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
