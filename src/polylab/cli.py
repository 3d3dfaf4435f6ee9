"""Command-line front end.

Subcommands dispatch to the four engines and emit JSON through one writer;
`verify` runs the checks of `polylab.checks` and exits nonzero on any
failure.  Exit codes: 0 success, 1 engine or verification failure or an
output that could not be written (a closed stdout, a full disk), 2 usage
error.  The handlers check no argument range themselves: each first
calls the library function that owns its inputs' domain, whose
`polylab.UsageError` exits 2 before any other work is done.
Identical arguments always produce byte-identical output.
"""

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

from . import UsageError, checks, geometry, pathcount, prng, simulator, stochastics
from .constants import E, L


def _json_ready(obj):
    """`obj` with every NaN and +-inf replaced by None, so that it dumps to valid JSON."""
    if isinstance(obj, dict):
        return {key: _json_ready(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(value) for value in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _write(args, payload: dict) -> None:
    """Write `payload` as JSON to stdout or `--out`; both receive the same bytes."""
    text = json.dumps(_json_ready(payload), indent=2) + "\n"
    if args.out is None or args.out == "-":
        sys.stdout.write(text)
    else:
        try:
            fh = open(args.out, "w")
        except OSError as exc:
            raise UsageError(f"cannot write --out {args.out}: {exc.strerror}") from exc
        with fh:
            fh.write(text)


def _output_options(p: argparse.ArgumentParser, out_help=None) -> None:
    """Declare `--out`, after a subcommand's own arguments as its help lists them."""
    p.add_argument("--out", default=None, help=out_help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polylab",
        description="Exact combinatorics, slab geometry, overlap kernels and "
        "Monte Carlo simulation for undirected first-passage percolation on "
        "the hypercube.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("count", help="exact walk count for one (n, l, d) cell")
    p.set_defaults(handler=_cmd_count)
    p.add_argument("--n", type=int, required=True, help="hypercube dimension")
    p.add_argument("--l", type=int, required=True, help="walk length")
    p.add_argument("--d", type=int, required=True, help="Hamming distance")
    _output_options(p, "output file (default stdout)")

    p = sub.add_parser("identity", help="generating-function truncation residual")
    p.set_defaults(handler=_cmd_identity)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--lmax", type=int, required=True)
    _output_options(p)

    p = sub.add_parser("geometry", help="solved K-slab geometry table")
    p.set_defaults(handler=_cmd_geometry)
    p.add_argument("--K", type=int, required=True, help="number of scales")
    p.add_argument("--m", type=int, default=None, help="directed-cap width for the profile")
    _output_options(p)

    p = sub.add_parser("analyze", help="scalar envelope claims on a grid")
    p.set_defaults(handler=_cmd_analyze)
    p.add_argument("--grid-step", type=float, default=1e-4)
    p.add_argument("--lopt", type=float, default=None, help="report theta_hat sup at this value only")
    _output_options(p)

    p = sub.add_parser("overlap", help="joint small-energy probability of overlapping sums")
    p.set_defaults(handler=_cmd_overlap)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--mc-trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    _output_options(p)

    p = sub.add_parser("simulate", help="ground-state trials on seeded instances")
    p.set_defaults(handler=_cmd_simulate)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument(
        "--parallelism",
        type=int,
        default=1,
        help=f"threads that run trials, for n >= {simulator.PARALLEL_MIN_DIMENSION} only; smaller n runs on one thread",
    )
    _output_options(p)

    p = sub.add_parser("verify", help="run the invariant battery; exit 0 iff all pass")
    p.set_defaults(handler=_cmd_verify)

    return parser


def _cmd_count(args) -> int:
    value = pathcount.stanley_count(args.n, args.l, args.d)
    _write(args, {"count": str(value)})
    return 0


def _cmd_identity(args) -> int:
    result = pathcount.identity_residual(args.n, args.d, args.x, args.lmax)
    _write(args, {"n": args.n, "d": args.d, "x": args.x, "l_max": args.lmax, **result._asdict()})
    return 0


def _cmd_geometry(args) -> int:
    profile = None if args.m is None else geometry.build_optimal_profile(args.K, args.m)
    cg = geometry.solve_coarse_graining(args.K)
    full_product = geometry.evolution_product(cg, args.K)
    columns = {"a": cg.a, "abar": cg.abar[1:], "d": cg.d, "ef": cg.ef, "eb": cg.eb}  # one value per slab
    payload = {"K": args.K, "E": E, **columns, "full_product": full_product}
    if profile is not None:
        payload.update(m=profile.m, d_opt=profile.d_opt, L_opt=profile.L_opt, L_minus_L_opt=L - profile.L_opt)
    _write(args, payload)
    return 0


def _cmd_analyze(args) -> int:
    sup = None if args.lopt is None else geometry.theta_hat_sup(args.grid_step, args.lopt)
    items = geometry.verify_scalar_claims(args.grid_step)
    all_passed = all(it.passed for it in items)
    payload = {"grid_step": args.grid_step, "items": [it._asdict() for it in items], "all_passed": all_passed}
    if sup is not None:
        payload.update(l_opt=args.lopt, theta_hat_sup=sup)
    _write(args, payload)
    return 0 if all_passed else 1


def _cmd_overlap(args) -> int:
    spec = stochastics.OverlapSpec(l=args.l, k=args.k, x=args.x)
    prng.require_seeds(args.seed)  # --seed is range-checked even without --mc-trials
    est = None if args.mc_trials is None else stochastics.overlap_probability_mc(spec, args.mc_trials, args.seed)
    log_exact = stochastics.log_overlap_probability(spec)
    payload = {
        "l": args.l,
        "k": args.k,
        "x": args.x,
        "exact": math.exp(log_exact),
        "log_exact": log_exact,
        "g": stochastics.overlap_g(args.k / args.l),
    }
    if 1 <= args.k <= args.l - 1:
        # the logs stay finite where the probabilities leave the float range
        log_leading = stochastics.log_overlap_probability_leading(spec)
        payload.update(
            leading=stochastics.overlap_probability_leading(spec),
            log_leading=log_leading,
            exact_over_leading=math.exp(log_exact - log_leading),
        )
    if est is not None:
        payload.update(
            mc_estimate=est.estimate, mc_stderr=est.stderr, mc_trials=args.mc_trials, mc_seed=args.seed
        )
    _write(args, payload)
    return 0


def trial_record_json_dict(record: simulator.TrialRecord) -> dict:
    """One flat dict per trial; empty profile bins stay NaN, which the writer writes as null."""
    return {
        "n": record.n,
        "seed": record.seed,
        "trial": record.trial,
        "m_n": record.m_n,
        "length": record.length,
        "backsteps": record.backstep_count,
        "e_first_half": record.first_half_energy,
        **{f"bin_{i:02d}": v for i, v in enumerate(record.profile_bins)},
    }


def _cmd_simulate(args) -> int:
    records, summary = simulator.run_trials(args.n, args.trials, args.seed, args.parallelism)
    trials = [trial_record_json_dict(r) for r in records]
    _write(args, {"trials": trials, "aggregate": dataclasses.asdict(summary)})
    return 0


def _cmd_verify(args) -> int:
    all_passed = True
    width = max(len(check.name) for check in checks.CHECKS)
    for check in checks.CHECKS:
        try:
            passed, detail = check.run(*check.args)
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"error: {exc}"
        all_passed = all_passed and passed
        status = "PASS" if passed else "FAIL"
        print(f"{check.name:<{width}}  {status}  {detail}")
    print(f"overall: {'PASS' if all_passed else 'FAIL'}")
    return 0 if all_passed else 1


# Built on the first call, so that importing the module does not pay for it,
# and kept for the life of the process: building it takes about 1 ms.  A
# parse leaves no state in it; each call gets a fresh namespace.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        status = args.handler(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return status
    except OSError as exc:  # the output could not be written
        if getattr(args, "out", None) in (None, "-"):  # to stdout: what it still holds goes nowhere at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):  # the reader closed stdout: nothing to report
            print(f"{parser.prog}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except UsageError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"{parser.prog}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
