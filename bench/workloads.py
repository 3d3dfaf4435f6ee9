"""The four benchmark workloads: seeded op sequences and per-op output checks.

An op is a tuple of calls, each one `polylab.cli.main(argv)` with a check
that reads the call's captured stdout and returns None when the output is
correct, otherwise the reason it is not.  Every op is one call, except on
exact_checks, where an op is one pass over its three commands.  Per-op inputs come from a `random.Random`
keyed by the workload name and seed, so the same seed gives the same ops.

Simulation seeds and Monte Carlo seeds are drawn from pools whose outputs
were frozen into `reference.json` by `freeze.py`, so every op is compared
bit-exactly with the frozen output as well as checked structurally.
Importing this module does not import polylab.
"""

import json
import math
import random
from functools import partial
from itertools import islice, repeat
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

REFERENCE_PATH = Path(__file__).with_name("reference.json")

N20_SEEDS = range(12)
N12_TRIALS = 200
N12_BASE_SEEDS = range(32)
OVERLAP_MC_TRIALS = 300_000
OVERLAP_SEEDS = (1000, 1001, 1002, 1003)
# the criterion-08 grid: l <= 8, 0 <= k <= l, x in {0.5, 1, 2}
OVERLAP_GRID = tuple((l, k, x) for l in range(1, 9) for k in range(l + 1) for x in (0.5, 1.0, 2.0))
E_ARG = "0.881373587019543"  # repr(polylab.constants.E), E = arcsinh(1)
IDENTITY_ARGS = (64, 32, E_ARG, 220)  # n, d, x, l_max
COUNT_ARGS = (200, 600, 100)  # n, l, d


class Call(NamedTuple):
    argv: tuple[str, ...]
    check: Callable[[str], str | None]


Op = tuple[Call, ...]


class Workload(NamedTuple):
    op_unit: str
    ops: Callable[[random.Random, dict], Iterator[Op]]
    trace_ops: int  # ops in the traced run; fixed so its counts repeat exactly


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def _check_simulate(n: int, base_seed: int, trials: int, reference: dict, out: str) -> str | None:
    data = json.loads(out)
    records = data["trials"]
    if len(records) != trials:
        return f"{len(records)} trial records, expected {trials}"
    m_values = []
    for t, rec in enumerate(records):
        seed = base_seed + t
        if (rec["n"], rec["seed"], rec["trial"]) != (n, seed, t):
            return f"trial {t}: (n, seed, trial) = {(rec['n'], rec['seed'], rec['trial'])}"
        m_n, length = rec["m_n"], rec["length"]
        if length < n or (length - n) % 2:
            return f"seed {seed}: length {length} is not >= n with the parity of n={n}"
        if rec["backsteps"] != (length - n) // 2:
            return f"seed {seed}: {rec['backsteps']} backsteps for length {length}"
        if not 0.0 < rec["e_first_half"] <= m_n:
            return f"seed {seed}: first-half energy {rec['e_first_half']} outside (0, m_n]"
        frozen = reference["simulate"].get(f"{n}:{seed}")
        if frozen is not None and [m_n, length] != frozen:
            return f"seed {seed}: (m_n, length) = ({m_n!r}, {length}), frozen {frozen}"
        m_values.append(m_n)
    agg = data["aggregate"]
    if (agg["n"], agg["trials"], agg["base_seed"]) != (n, trials, base_seed):
        return f"aggregate header {(agg['n'], agg['trials'], agg['base_seed'])}"
    mean = math.fsum(m_values) / trials
    if abs(agg["mean_m_n"] - mean) > 1e-12 * mean:
        return f"aggregate mean_m_n {agg['mean_m_n']!r} != trial mean {mean!r}"
    return None


def _check_overlap(l: int, k: int, x: float, seed: int, reference: dict, out: str) -> str | None:
    data = json.loads(out)
    echo = (data["l"], data["k"], data["x"], data["mc_trials"], data["mc_seed"])
    if echo != (l, k, x, OVERLAP_MC_TRIALS, seed):
        return f"echoed inputs {echo}"
    est, se, exact = data["mc_estimate"], data["mc_stderr"], data["exact"]
    # the criterion-08 rule: 4 standard errors, plus 16/N for zero-count cells
    if abs(est - exact) > 4.0 * se + 16.0 / OVERLAP_MC_TRIALS:
        return f"MC {est!r} not within 4 se + 16/N of quadrature {exact!r}"
    frozen = reference["overlap"].get(f"{l}:{k}:{x!r}:{seed}")
    if frozen is not None:
        frozen_est, frozen_exact = frozen
        if est != frozen_est:
            return f"MC estimate {est!r}, frozen {frozen_est!r}"
        if abs(exact - frozen_exact) > 1e-10 * frozen_exact:  # the quadrature's epsrel
            return f"quadrature {exact!r}, frozen {frozen_exact!r}"
    return None


def _check_count(reference: dict, out: str) -> str | None:
    got = json.loads(out)["count"]
    want = reference["count"]["%d:%d:%d" % COUNT_ARGS]
    return None if got == want else f"count {got[:20]}... != frozen {want[:20]}..."


def _check_identity(out: str) -> str | None:
    n, d, x, l_max = IDENTITY_ARGS
    x = float(x)
    data = json.loads(out)
    if (data["n"], data["d"], data["x"], data["l_max"]) != (n, d, x, l_max):
        return f"echoed inputs {(data['n'], data['d'], data['x'], data['l_max'])}"
    # identity_residual documents its error as the truncation remainder plus
    # float rounding of order 1e-13 relative to sinh(x)^d cosh(x)^(n-d); the
    # CLI's `within_tolerance` uses an absolute 1e-10 slack instead, which is
    # below float resolution at n = 64 and reads false here, so it is not used
    target = math.sinh(x) ** d * math.cosh(x) ** (n - d)
    if not 0.0 <= data["residual"] <= data["remainder_bound"] + 1e-13 * target:
        return f"residual {data['residual']!r} above remainder bound + 1e-13 relative rounding"
    return None


def _check_verify(out: str) -> str | None:
    lines = out.splitlines()
    failed = [line.split()[0] for line in lines[:-1] if "  FAIL  " in line]
    if failed or not lines or lines[-1] != "overall: PASS":
        return f"verify failed: {failed or lines[-1:]}"
    return None


def _simulate_n20(rng: random.Random, reference: dict) -> Iterator[Op]:
    while True:
        seed = rng.choice(N20_SEEDS)
        argv = ("simulate", "--n", "20", "--trials", "1", "--seed", str(seed))
        yield (Call(argv, partial(_check_simulate, 20, seed, 1, reference)),)


def _simulate_n12_t2(rng: random.Random, reference: dict) -> Iterator[Op]:
    while True:
        seed = rng.choice(N12_BASE_SEEDS)
        argv = ("simulate", "--n", "12", "--trials", str(N12_TRIALS), "--seed", str(seed), "--parallelism", "2")
        yield (Call(argv, partial(_check_simulate, 12, seed, N12_TRIALS, reference)),)


def _overlap_grid(rng: random.Random, reference: dict) -> Iterator[Op]:
    # whole passes over the grid in seeded order, so that every run spends
    # its time on the same mix of cheap (small 2l-k) and costly cells
    while True:
        for l, k, x in rng.sample(OVERLAP_GRID, len(OVERLAP_GRID)):
            seed = rng.choice(OVERLAP_SEEDS)
            argv = ("overlap", "--l", str(l), "--k", str(k), "--x", repr(x),
                    "--mc-trials", str(OVERLAP_MC_TRIALS), "--seed", str(seed))
            yield (Call(argv, partial(_check_overlap, l, k, x, seed, reference)),)


def _exact_checks(rng: random.Random, reference: dict) -> Iterator[Op]:
    # one op is a whole pass: the three commands differ in cost by up to 4x,
    # and a median over single commands would sit where two of them meet
    n, d, x, l_max = IDENTITY_ARGS
    count_n, count_l, count_d = COUNT_ARGS
    calls = [
        Call(("verify",), _check_verify),
        Call(("identity", "--n", str(n), "--d", str(d), "--x", x, "--lmax", str(l_max)), _check_identity),
        Call(("count", "--n", str(count_n), "--l", str(count_l), "--d", str(count_d)),
             partial(_check_count, reference)),
    ]
    start = rng.randrange(len(calls))
    return repeat(tuple(calls[start:] + calls[:start]))


WORKLOADS = {
    "simulate_n20": Workload("one trial at n=20", _simulate_n20, 1),
    "simulate_n12_t2": Workload(f"one simulate command, {N12_TRIALS} trials at n=12 on 2 threads",
                                _simulate_n12_t2, 3),
    "overlap_grid": Workload(f"one overlap cell, N={OVERLAP_MC_TRIALS} MC trials", _overlap_grid, 44),
    "exact_checks": Workload("one pass of verify, identity and count", _exact_checks, 2),
}


def ops(name: str, seed: int, reference: dict) -> Iterator[Op]:
    """The op sequence of workload `name` for workload seed `seed`."""
    return WORKLOADS[name].ops(random.Random(f"{name}:{seed}"), reference)


def trace_ops(name: str, seed: int, reference: dict) -> list[Op]:
    return list(islice(ops(name, seed, reference), WORKLOADS[name].trace_ops))
