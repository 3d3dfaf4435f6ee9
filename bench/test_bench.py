"""Tests of the benchmark harness itself.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import TARGETS, Tracer, summarize  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
CLI = run.import_cli()
MODULES = {layer: sys.modules[f"polylab.{layer}"] for layer in run.LAYERS}


def small_ops(reference):
    """Cheap one-call ops that touch every layer: simulate on 2 threads, overlap, count."""
    calls = [
        workloads.Call(("simulate", "--n", "6", "--trials", "3", "--seed", "1", "--parallelism", "2"),
                       lambda out: workloads._check_simulate(6, 1, 3, reference, out)),
        workloads.Call(("overlap", "--l", "3", "--k", "1", "--x", "1.0", "--mc-trials", "10000", "--seed", "5"),
                       lambda out: None),
        workloads.Call(("identity", "--n", "4", "--d", "2", "--x", "0.5", "--lmax", "60"), lambda out: None),
        workloads.Call(("count", "--n", "3", "--l", "3", "--d", "1"), lambda out: None),
    ]
    return [(c,) for c in calls]


@pytest.fixture(scope="module")
def reference():
    return workloads.load_reference()


def test_traced_run_restores_every_wrapped_attribute(reference):
    originals = {(layer, name): getattr(MODULES[layer], name) for layer, names in TARGETS.items() for name in names}
    with Tracer(MODULES) as tracer:
        assert all(getattr(MODULES[l], n) is not f for (l, n), f in originals.items())
        records, _ = run.run_ops(CLI, small_ops(reference), tracer=tracer)
    assert all(getattr(MODULES[l], n) is f for (l, n), f in originals.items())
    assert [run.failure(r) for r in records] == [None] * len(records)
    # an exception inside the traced block restores the originals too
    with pytest.raises(RuntimeError):
        with Tracer(MODULES):
            raise RuntimeError("op crashed")
    assert all(getattr(MODULES[l], n) is f for (l, n), f in originals.items())


def test_worker_thread_spans_hang_under_run_trials(reference):
    with Tracer(MODULES) as tracer:
        run.run_ops(CLI, small_ops(reference)[:1], tracer=tracer)
    names = {span[0]: span[1] for span in tracer.spans}
    parents = {names[span[4]] for span in tracer.spans if span[1] == "simulator.ground_state"}
    assert parents == {"simulator.run_trials"}
    assert {span[5] for span in tracer.spans} == {0}


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (1, "a", 0.0, 10.0, None, 0, 0),
        (2, "b", 1.0, 4.0, 1, 0, 0),  # b and c overlap on [3, 4] (two threads)
        (3, "c", 3.0, 6.0, 1, 0, 5),
        (4, "c", 5.0, 5.5, 3, 0, 7),
    ]
    rows = summarize(spans)
    assert rows["a"] == {"calls": 1, "s": 10.0, "self_s": 5.0, "work": 0}
    assert rows["c"]["calls"] == 2 and rows["c"]["work"] == 12
    assert rows["c"]["self_s"] == pytest.approx(3.0)


def test_every_metric_in_benchmark_json_is_emitted_with_its_unit():
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "exact_checks", "--seed", "3",
             "--seconds", "0.5", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {name: m["unit"] for name, m in result["metrics"].items()} == want
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_layer_metrics_cover_per_layer_names_on_any_workload(reference):
    with Tracer(MODULES) as tracer:
        run.run_ops(CLI, small_ops(reference), tracer=tracer)
    names = [m["name"] for m in SPEC["per_layer"]]
    metrics = run.layer_metrics(summarize(tracer.spans), 100, 1.5, names)
    assert list(metrics) == names
    assert metrics["simulator.vertices"] == 3 * 2**6
    assert metrics["stochastics.mc_samples"] == 10000
    assert metrics["prng.exponential_array.draws"] == 10000 * (2 * 3 - 1) + 3 * 6 * 2**6


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_corrupted_reference_registers_as_a_failed_op(name, reference):
    records, _ = run.run_ops(CLI, workloads.trace_ops(name, 7, reference))
    assert [run.failure(r) for r in records] == [None] * len(records)
    corrupt = json.loads(json.dumps(reference))
    for table in ("simulate", "overlap"):
        for key, (value, other) in corrupt[table].items():
            corrupt[table][key] = [value + 1e-12, other]
    count_key = "%d:%d:%d" % workloads.COUNT_ARGS
    corrupt["count"][count_key] = str(int(corrupt["count"][count_key]) + 1)
    bad_ops = workloads.trace_ops(name, 7, corrupt)
    assert all(run.failure((op, *r[1:])) is not None for op, r in zip(bad_ops, records))


def test_a_call_that_exits_nonzero_or_raises_is_a_failed_op():
    ops = [(workloads.Call(("count", "--n", "2", "--l", "2", "--d", "3"), lambda out: None),),
           (workloads.Call(("no-such-subcommand",), lambda out: None),)]
    records, _ = run.run_ops(CLI, ops)
    assert [r[1][0][0] for r in records] == [2, 2]
    assert all(run.failure(r) is not None for r in records)

    def crash(argv):
        raise KeyError("engine bug")

    rc, out, _ = run.call(types.SimpleNamespace(main=crash), ["count"])
    assert rc == "KeyError('engine bug')" and out == ""


def test_same_seed_gives_same_ops(reference):
    for name in workloads.WORKLOADS:
        first = [[c.argv for c in op] for op in workloads.trace_ops(name, 11, reference)]
        assert first == [[c.argv for c in op] for op in workloads.trace_ops(name, 11, reference)]


def test_e_argument_is_the_package_constant():
    from polylab.constants import E

    assert workloads.E_ARG == repr(E)


def test_exits_nonzero_without_a_result_when_the_program_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "overlap_grid", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert done.stdout == ""
