"""Span tracer for the traced benchmark run.

`Tracer` replaces layer-boundary functions of the polylab modules with
timing wrappers and puts the originals back on exit.  Each call becomes a
span (id, name, start, end, parent, op id, work) kept in memory; per-layer
counts, inclusive times and self times are derived from the spans after the
run.  The untraced run never constructs a Tracer, so it runs the original
functions.

Intra-module calls go through module globals and cross-module calls through
module attributes (`prng.exponential_array`), so replacing the module
attribute is enough to see every call.
"""

import functools
import itertools
import json
import math
import threading
import time
from collections import defaultdict

# Layer-boundary functions: every engine function `polylab.cli` calls, plus
# the inner functions that the per-layer metrics name.  Serialization helpers
# (`simulator.trial_record_json_dict`, ...) stay unwrapped so that they count
# as `cli.main` self time.  `prng.mix64*`/`uniform01*` stay unwrapped so that
# they count in the self time of the exponential draw that called them.
TARGETS = {
    "prng": ("exponential_array", "exponential"),
    "simulator": (
        "run_trials",
        "ground_state",
        "weight_table",
        "path_statistics",
        "aggregate_records",
        "edge_weight",
        "brute_force_ground_state",
        "directed_overlap_envelopes",
    ),
    "stochastics": (
        "overlap_probability_mc",
        "overlap_probability_exact",
        "overlap_probability_leading",
        "erlang_cdf",
        "erlang_tail_ratio",
        "overlap_g",
    ),
    "pathcount": (
        "stanley_count",
        "brute_force_walk_count",
        "identity_residual",
        "identity_remainder_bound",
        "log_m_bound",
        "solve_length_ratio",
    ),
    "geometry": (
        "solve_coarse_graining",
        "build_optimal_profile",
        "g_factor",
        "evolution_product",
        "evolution_closed_form",
        "optimal_d_closed_form",
        "f_function",
        "verify_scalar_claims",
    ),
    "cli": ("main",),
}

# Work units recorded on a span, from the call's positional arguments.
WORK = {
    "prng.exponential_array": lambda args: len(args[1]),
    "prng.exponential": lambda args: 1,
    "simulator.ground_state": lambda args: args[0].num_vertices,
    "stochastics.overlap_probability_mc": lambda args: args[1],
}

SPAN_FIELDS = ("id", "name", "start", "end", "parent", "op", "work")


class Tracer:
    """Context manager that installs the wrappers on enter and restores on exit."""

    def __init__(self, modules: dict):
        self._modules = modules  # layer name -> imported module
        self._originals: list[tuple[object, str, object]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op_stack: list[int] = []
        self.op_id = 0
        self.spans: list[tuple] = []

    def __enter__(self):
        try:
            for layer, names in TARGETS.items():
                module = self._modules[layer]
                for name in names:
                    original = getattr(module, name)
                    self._originals.append((module, name, original))
                    setattr(module, name, self._wrap(f"{layer}.{name}", original))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self) -> None:
        while self._originals:
            module, name, original = self._originals.pop()
            setattr(module, name, original)

    def begin_op(self, op_id: int) -> None:
        """Mark the calling thread as the one that runs op `op_id`."""
        self.op_id = op_id
        self._op_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        work_of = WORK.get(name)
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = self._stack()
            # a worker thread's first span hangs under the span that is open
            # on the op's own thread (run_trials waiting on its pool)
            if stack:
                parent = stack[-1]
            else:
                parent = self._op_stack[-1] if self._op_stack else None
            span_id = next(self._ids)
            work = work_of(args) if work_of else 0
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, name, start, end, parent, self.op_id, work))

        return functools.wraps(fn)(traced)

    def write(self, path) -> None:
        """Write the spans as JSON lines, a header of field names first."""
        with open(path, "w") as fh:
            fh.write(json.dumps(SPAN_FIELDS) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per function name: calls, inclusive seconds, self seconds and work.

    Self time is a span's duration minus the part of it that its child spans
    cover; children on other threads can overlap, so their union is taken.
    """
    children = defaultdict(list)
    for span_id, _, start, end, parent, _, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0}
    )
    for span_id, name, start, end, _, _, work in spans:
        row = out[name]
        row["calls"] += 1
        row["s"] += end - start
        kids = [(max(s, start), min(e, end)) for s, e in children.get(span_id, ()) if e > start and s < end]
        row["self_s"] += (end - start) - _covered(kids)
        row["work"] += work
    return out
