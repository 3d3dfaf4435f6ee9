"""The benchmark's traced run wraps functions by name; each name must exist.

`bench/tracer.py` imports only the standard library, so it loads here
without running the benchmark.  A refactor that deletes or renames a traced
function fails this test instead of failing `bench/run.py --trace 1`.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


TARGETS = _load_tracer().TARGETS


@pytest.mark.parametrize("layer", sorted(TARGETS))
def test_traced_names_are_module_attributes(layer):
    module = importlib.import_module(f"polylab.{layer}")
    missing = [name for name in TARGETS[layer] if not callable(getattr(module, name, None))]
    assert not missing, f"polylab.{layer} lacks traced functions {missing}"
