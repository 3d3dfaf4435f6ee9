"""The benchmark's traced run wraps functions by name; each name must exist.

`bench/tracer.py` imports only the standard library, so it loads here
without running the benchmark.  A refactor that deletes or renames a traced
function, or changes the argument types a `WORK` count reads, fails these
tests instead of failing `bench/run.py --trace 1`.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from polylab import simulator, stochastics

TRACER_PATH = Path(__file__).parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


TRACER = _load_tracer()
TARGETS = TRACER.TARGETS

# Per WORK entry: positional arguments of a real call, and the work it counts.
WORK_CALLS = {
    "prng.exponential_array": ((0, np.arange(5, dtype=np.uint64), 0), 5),
    "prng.exponential": ((0, 3, 1), 1),
    "simulator.ground_state": ((simulator.HypercubeInstance(n=6, seed=0),), 64),
    "stochastics.overlap_probability_mc": ((stochastics.OverlapSpec(l=3, k=1, x=1.0), 10**4, 0), 10**4),
}


@pytest.mark.parametrize("layer", sorted(TARGETS))
def test_traced_names_are_module_attributes(layer):
    module = importlib.import_module(f"polylab.{layer}")
    missing = [name for name in TARGETS[layer] if not callable(getattr(module, name, None))]
    assert not missing, f"polylab.{layer} lacks traced functions {missing}"


def test_every_work_count_has_a_real_call():
    assert sorted(TRACER.WORK) == sorted(WORK_CALLS)


@pytest.mark.parametrize("name", sorted(WORK_CALLS))
def test_work_count_reads_real_arguments(name):
    args, work = WORK_CALLS[name]
    layer, function = name.split(".")
    assert function in TARGETS[layer]
    getattr(importlib.import_module(f"polylab.{layer}"), function)(*args)  # a valid call
    assert TRACER.WORK[name](args) == work
