"""polylab benchmark: one command, one workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a polylab checkout; the package is imported from its
`src/`.  One client calls `polylab.cli.main(argv)` in a closed loop, in
process, with stdout captured, and checks every op's output afterwards
(see workloads.py).

--trace 0 measures the end-to-end metrics: ops_per_s over `--seconds` of
ops, peak_rss_mib of this process (which runs only this workload), and
setup_s, the median over fresh interpreters of the time from launch until
`polylab.cli` is imported and the first op could start.  The median op
latency is printed and recorded too, but is not a listed metric: it follows
the shared host's speed more than the program's (see README.md).
--trace 1 ignores `--seconds`: it runs a fixed op list three times (warm-up,
untraced, then with the span tracer of tracer.py installed), so that its
counts repeat exactly, and reports the per-layer metrics.

The last stdout line is the JSON result; failed_op_ratio is failed/attempted
in it.  The two lines before it are the environment record and a summary by
metric name.  `.bench_out/` gets both with the full result, and the traced
run's spans.
"""

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import workloads
from tracer import Tracer, summarize

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_LAUNCHES = 9
PROBE = "import time\nfrom polylab import cli\nprint(time.monotonic())"
LAYERS = ("prng", "simulator", "stochastics", "pathcount", "geometry", "cli")


def measure_setup(launches: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to `polylab.cli` imported."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    samples = []
    for _ in range(launches):
        start = time.monotonic()
        done = subprocess.run([sys.executable, "-c", PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(done.stdout.split()[-1]) - start)
    return samples


def call(cli, argv) -> tuple[object, str, str]:
    """One call: (exit code, stdout, stderr) of `cli.main(argv)`.

    A call that raises gets the exception's repr as its exit code: it is a
    failed op, not a crashed run.
    """
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:
            rc = repr(exc)
    return rc, out.getvalue(), err.getvalue()


def run_ops(cli, ops, seconds=None, tracer=None):
    """Run ops in a closed loop; stop after the op that passes `seconds`.

    Returns (records, wall seconds) with a record (op, [(rc, stdout,
    stderr) per call], latency) per op.
    """
    records = []
    start = end = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.begin_op(i)
        t0 = time.perf_counter()
        results = [call(cli, c.argv) for c in op]
        end = time.perf_counter()
        records.append((op, results, end - t0))
        if seconds is not None and end - start >= seconds:
            break
    return records, end - start


def failure(record) -> str | None:
    """Why the op's output is wrong, or None if every call passed its check."""
    op, results, _ = record
    for c, (rc, out, err) in zip(op, results):
        if rc != 0:
            return f"{' '.join(c.argv)}: exit {rc} {err.strip()[-200:]}"
        try:
            reason = c.check(out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            reason = f"unreadable output: {exc!r}"
        if reason is not None:
            return f"{' '.join(c.argv)}: {reason}"
    return None


def layer_metrics(summary, output_bytes: int, overhead_ratio: float, names) -> dict:
    """Per-layer metrics by BENCHMARK.json name, from `tracer.summarize` rows."""
    def row(name):
        return summary.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0})

    draws = row("prng.exponential_array")["work"] + row("prng.exponential")["work"]
    draw_s = row("prng.exponential_array")["self_s"] + row("prng.exponential")["self_s"]
    special = {
        "prng.exponential_array.draws": row("prng.exponential_array")["work"],
        "prng.draws_per_s": draws / draw_s if draw_s else 0.0,
        "simulator.vertices": row("simulator.ground_state")["work"],
        "stochastics.mc_samples": row("stochastics.overlap_probability_mc")["work"],
        "cli.output_bytes": output_bytes,
        "trace.overhead_ratio": overhead_ratio,
    }
    metrics = {}
    for name in names:
        if name in special:
            metrics[name] = special[name]
        else:
            function, field = name.rsplit(".", 1)
            metrics[name] = row(function)[field]
    return metrics


def git_commit() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.split()
    if done.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None  # not a git checkout of its own (an exported tree)
    return lines[1]


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "workload": workload,
        "seed": seed,
    }


def import_cli():
    """Import polylab from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    from polylab import cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        sys.exit(f"bench: imported polylab from {cli.__file__}, not from {SRC}")
    return cli


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "polylab" / "cli.py").is_file():
        sys.exit(f"bench: no polylab sources under {SRC}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = workloads.load_reference()
    # launches run before this process imports numpy, so they do not count
    # in its peak RSS and do not compete with the timed ops
    setup = [] if args.trace else measure_setup(SETUP_LAUNCHES)
    cli = import_cli()
    name, seed = args.workload, args.seed

    if args.trace:
        ops = workloads.trace_ops(name, seed, reference)
        warm, _ = run_ops(cli, ops)  # first calls pay for lazy imports and allocator growth
        plain, plain_s = run_ops(cli, ops)
        modules = {layer: sys.modules[f"polylab.{layer}"] for layer in LAYERS}
        with Tracer(modules) as tracer:
            traced, traced_s = run_ops(cli, ops, tracer=tracer)
        records = warm + plain + traced
        output_bytes = sum(len(out.encode()) for _, results, _ in traced for _, out, _ in results)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = layer_metrics(summarize(tracer.spans), output_bytes, traced_s / plain_s, units)
        summary_line = f"{name} seed={seed} traced: {len(ops)} ops, {len(tracer.spans)} spans, overhead x{traced_s / plain_s:.3f}"
    else:
        records, wall = run_ops(cli, workloads.ops(name, seed, reference), seconds=args.seconds)
        latencies = [r[2] for r in records]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {
            "ops_per_s": len(records) / wall,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup),
        }
        summary_line = (
            f"{name} seed={seed} (op = {workloads.WORKLOADS[name].op_unit}): "
            f"ops_per_s={values['ops_per_s']:.4f} (n={len(latencies)}) "
            f"peak_rss_mib={values['peak_rss_mib']:.1f} setup_s={values['setup_s']:.4f} (median of {len(setup)}) "
            f"op_p50_s={statistics.median(latencies):.4f} (not gated)"
        )

    failures = [f for f in map(failure, records) if f is not None]
    for reason in failures[:10]:
        print(f"bench: failed op: {reason}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {metric: {"value": values[metric], "unit": unit} for metric, unit in units.items()},
    }
    env = environment(name, seed)
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{name}-seed{seed}-trace{args.trace}"
    with open(f"{stem}.json", "w") as fh:
        json.dump({"env": env, **result, "failed_op_ratio": len(failures) / len(records),
                   "setup_samples_s": setup, "op_latencies_s": [r[2] for r in records],
                   "failures": failures[:10]}, fh, indent=2)
    if args.trace:
        tracer.write(f"{stem}.spans.jsonl")
    print("env " + json.dumps(env))
    print(f"{summary_line} failed_op_ratio={len(failures) / len(records):.4g} ({len(failures)}/{len(records)})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
