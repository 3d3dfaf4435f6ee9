"""Command-line front end.

Subcommands dispatch to the four engines and emit machine-readable JSON or
CSV through one writer; `verify` runs the checks of `polylab.checks` and
exits nonzero on any failure.  Exit codes: 0 success, 1 engine or
verification failure, 2 usage error.  Identical arguments always produce
byte-identical output.
"""

import argparse
import dataclasses
import json
import math
import sys

from . import checks, geometry, pathcount, simulator, stochastics
from .constants import E, L


def _cell(value) -> str:
    """One CSV cell: 17-significant-digit floats, lower-case bools, empty for None/NaN."""
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _json_ready(obj):
    """`obj` with every NaN replaced by None, so that it dumps to valid JSON."""
    if isinstance(obj, dict):
        return {key: _json_ready(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(value) for value in obj]
    if isinstance(obj, float) and math.isnan(obj):
        return None
    return obj


def _write(args, payload: dict, header=None, rows=None) -> None:
    """Write `payload` as JSON, or `rows` under `header` as CSV, to stdout or `--out`.

    Without `header`, the CSV is the payload's keys over one row of its values.
    """
    if args.format == "json":
        text = json.dumps(_json_ready(payload), indent=2)
    else:
        if header is None:
            header, rows = payload.keys(), [payload.values()]
        text = "".join(",".join(map(_cell, row)) + "\n" for row in [header, *rows])
    if args.out is None or args.out == "-":
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(args.out, "w") as fh:
            fh.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polylab",
        description="Exact combinatorics, slab geometry, overlap kernels and "
        "Monte Carlo simulation for undirected first-passage percolation on "
        "the hypercube.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("count", help="exact walk count for one (n, l, d) cell")
    p.add_argument("--n", type=int, required=True, help="hypercube dimension")
    p.add_argument("--l", type=int, required=True, help="walk length")
    p.add_argument("--d", type=int, required=True, help="Hamming distance")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None, help="output file (default stdout)")

    p = sub.add_parser("identity", help="generating-function truncation residual")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--lmax", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)

    p = sub.add_parser("geometry", help="solved K-slab geometry table")
    p.add_argument("--K", type=int, required=True, help="number of scales")
    p.add_argument("--m", type=int, default=None, help="directed-cap width for the profile")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)

    p = sub.add_parser("analyze", help="scalar envelope claims on a grid")
    p.add_argument("--grid-step", type=float, default=1e-4)
    p.add_argument("--lopt", type=float, default=None, help="report theta_hat sup at this value only")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)

    p = sub.add_parser("overlap", help="joint small-energy probability of overlapping sums")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--mc-trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)

    p = sub.add_parser("simulate", help="ground-state trials on seeded instances")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--parallelism", type=int, default=1)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify", help="run the invariant battery; exit 0 iff all pass")
    p.add_argument("--fast", action="store_true", help="smaller sizes, same checks")

    return parser


def _require_seeds(seed: int, count: int) -> None:
    """Seeds `seed` .. `seed + count - 1` key a 64-bit generator."""
    if seed < 0 or seed + count > 1 << 64:
        raise UsageError(f"--seed must satisfy 0 <= seed <= 2^64 - {count}, got {seed}")


def _cmd_count(args) -> int:
    if args.d > args.n:
        raise UsageError(f"--d must not exceed --n (got d={args.d}, n={args.n})")
    if args.n < 1 or args.l < 0 or args.d < 0:
        raise UsageError("count requires n >= 1, l >= 0, d >= 0")
    value = pathcount.stanley_count(args.n, args.l, args.d)
    _write(args, {"count": str(value)}, ["n", "l", "d", "count"], [[args.n, args.l, args.d, value]])
    return 0


def _cmd_identity(args) -> int:
    if args.d > args.n or args.d < 0:
        raise UsageError(f"--d must satisfy 0 <= d <= n (got d={args.d}, n={args.n})")
    residual = pathcount.identity_residual(args.n, args.d, args.x, args.lmax)
    bound = pathcount.identity_remainder_bound(args.n, args.x, args.lmax)
    # identity_residual's float rounding is of order 1e-13 relative to its target
    target = math.sinh(args.x) ** args.d * math.cosh(args.x) ** (args.n - args.d)
    payload = {
        "n": args.n,
        "d": args.d,
        "x": args.x,
        "l_max": args.lmax,
        "residual": residual,
        "remainder_bound": bound,
        "within_tolerance": residual <= bound + 1e-13 * target,
    }
    _write(args, payload)
    return 0


def _cmd_geometry(args) -> int:
    if args.K < 1:
        raise UsageError(f"--K must be >= 1, got {args.K}")
    if args.m is not None and 2 * args.m >= args.K:
        raise UsageError(f"--m must satisfy 2m < K (got m={args.m}, K={args.K})")
    cg = geometry.solve_coarse_graining(args.K)
    full_product = geometry.evolution_product(cg, args.K)
    payload = {
        "K": args.K,
        "E": E,
        "a": cg.a,
        "abar": cg.abar[1:],
        "d": cg.d,
        "ef": cg.ef,
        "eb": cg.eb,
        "full_product": full_product,
    }
    rows = [[i + 1, cg.a[i], cg.abar[i + 1], cg.d[i], cg.ef[i], cg.eb[i]] for i in range(args.K)]
    rows.append(["full_product", full_product, None, None, None, None])
    if args.m is not None:
        profile = geometry.build_optimal_profile(args.K, args.m)
        payload.update(m=profile.m, d_opt=profile.d_opt, L_opt=profile.L_opt, L_minus_L_opt=L - profile.L_opt)
        rows.append(["L_opt", profile.L_opt, None, None, None, None])
    _write(args, payload, ["i", "a_i", "abar_i", "d_i", "ef_i", "eb_i"], rows)
    return 0


def _cmd_analyze(args) -> int:
    report = geometry.verify_scalar_claims(args.grid_step)
    payload = {
        "grid_step": report.grid_step,
        "items": [dataclasses.asdict(it) for it in report.items],
        "all_passed": report.all_passed,
    }
    rows = [[it.name, it.passed, f'"{it.detail}"'] for it in report.items]
    if args.lopt is not None:
        sup = geometry.theta_hat_sup(args.grid_step, args.lopt)
        payload.update(l_opt=args.lopt, theta_hat_sup=sup)
        rows.append([f"theta_hat_sup_at_{args.lopt}", sup, None])
    _write(args, payload, ["name", "passed", "detail"], rows)
    return 1 if not report.all_passed else 0


def _cmd_overlap(args) -> int:
    if not 0 <= args.k <= args.l:
        raise UsageError(f"--k must satisfy 0 <= k <= l (got k={args.k}, l={args.l})")
    if args.x <= 0:
        raise UsageError(f"--x must be positive, got {args.x}")
    if args.mc_trials is not None and args.mc_trials < 10**4:
        raise UsageError(f"--mc-trials must be >= 10000, got {args.mc_trials}")
    _require_seeds(args.seed, 1)
    spec = stochastics.OverlapSpec(l=args.l, k=args.k, x=args.x)
    exact = stochastics.overlap_probability_exact(spec)
    payload = {
        "l": args.l,
        "k": args.k,
        "x": args.x,
        "exact": exact,
        "g": stochastics.overlap_g(args.k / args.l),
    }
    if 1 <= args.k <= args.l - 1:
        leading = stochastics.overlap_probability_leading(spec)
        payload.update(leading=leading, exact_over_leading=exact / leading)
    if args.mc_trials is not None:
        est = stochastics.overlap_probability_mc(spec, args.mc_trials, args.seed)
        payload.update(
            mc_estimate=est.estimate, mc_stderr=est.stderr, mc_trials=args.mc_trials, mc_seed=args.seed
        )
    _write(args, payload)
    return 0


def _cmd_simulate(args) -> int:
    if not 1 <= args.n <= simulator.MAX_DIMENSION:
        raise UsageError(f"--n must satisfy 1 <= n <= {simulator.MAX_DIMENSION}, got {args.n}")
    if args.trials < 1 or args.parallelism < 1:
        raise UsageError("simulate requires trials >= 1 and parallelism >= 1")
    _require_seeds(args.seed, args.trials)
    records, summary = simulator.run_trials(args.n, args.trials, args.seed, args.parallelism)
    trials = [simulator.trial_record_json_dict(r) for r in records]
    payload = {"trials": trials, "aggregate": dataclasses.asdict(summary)}
    _write(args, payload, trials[0].keys(), [t.values() for t in trials])
    return 0


def _cmd_verify(args) -> int:
    all_passed = True
    width = max(len(check.name) for check in checks.CHECKS)
    for check in checks.CHECKS:
        try:
            passed, detail = check.run(*(check.fast if args.fast else check.full))
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"error: {exc}"
        all_passed = all_passed and passed
        status = "PASS" if passed else "FAIL"
        print(f"{check.name:<{width}}  {status}  {detail}")
    print(f"overall: {'PASS' if all_passed else 'FAIL'}")
    return 0 if all_passed else 1


class UsageError(Exception):
    pass


_HANDLERS = {
    "count": _cmd_count,
    "identity": _cmd_identity,
    "geometry": _cmd_geometry,
    "analyze": _cmd_analyze,
    "overlap": _cmd_overlap,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _HANDLERS[args.subcommand]
    try:
        return handler(args)
    except UsageError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"{parser.prog}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
