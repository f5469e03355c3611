"""Regression guards for the benchmark itself.

    python3 -m pytest bench/test_bench.py -q
"""

import json

import pytest

import ops
import run

run.use_checkout_source()

COUNT_METRICS = [k for k, unit in run.per_layer_units().items() if unit == "count"]


@pytest.fixture(scope="module")
def traced_twice():
    """Each workload's traced metrics from two runs on one seed."""
    out = {}
    for workload in ops.WORKLOADS:
        pair = []
        for _ in range(2):
            tally, metrics = run.run_traced(workload, run.DEFAULT_SEED, 0.0, save=False)
            assert tally.failed == 0, tally.reasons
            pair.append(metrics)
        out[workload] = pair
    return out


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_counts_repeat_exactly(traced_twice, workload):
    first, second = traced_twice[workload]
    assert set(first) == set(run.per_layer_units())
    assert {k: first[k] for k in COUNT_METRICS} == {k: second[k] for k in COUNT_METRICS}


def test_sweep_never_enters_the_rotor_layers(traced_twice):
    for metrics in traced_twice["sweep"]:
        for layer in ("algebra", "rotors", "spinors", "oracle"):
            assert metrics[f"{layer}.self_ms_per_op"] == 0.0, layer
        assert all(metrics[k] == 0 for k in COUNT_METRICS
                   if k.split(".")[0] != "models")


def test_known_waste_is_counted(traced_twice):
    verify = traced_twice["verify"][0]
    assert verify["oracle.operator_matrices_per_op.bilayer"] == 2
    assert verify["models.h_applications_per_op.bilayer"] == 20
    assert verify["spinors.generator_actions_per_op.monolayer"] == 6
    assert verify["spinors.generator_actions_per_op.bilayer"] == 10


def test_benchmark_json_lists_every_metric():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.end_to_end_units()
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in bench["workloads"]] == list(ops.WORKLOADS)


def test_ops_depend_only_on_the_seed():
    def first(seed):
        stream = ops.op_stream("sweep", seed)
        return [next(stream) for _ in range(8)]

    assert first(3) == first(3) != first(4)


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_checks_catch_a_wrong_energy(workload):
    op = next(ops.op_stream(workload, run.DEFAULT_SEED))
    _, output = run.make_executor(workload)(op)
    assert run.check(workload, op, output) is None
    if workload == "verify":
        output.rotor_energies[0] += 1e-8
    elif workload == "eigens":
        doc = json.loads(output[1])
        doc["solutions"][0]["energy"] += 1e-8
        output = (0, json.dumps(doc))
    else:  # op 0 is a monolayer CSV sweep; nudge its last energy
        *rows, last = output[1].splitlines()
        cells = last.split(",")
        cells[-1] = repr(float(cells[-1]) * (1 + 1e-8))
        output = (0, "\n".join(rows + [",".join(cells)]) + "\n")
    assert run.check(workload, op, output) is not None
