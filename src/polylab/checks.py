"""Every claim of the paper that the lab verifies, each defined once.

Every check returns (passed, detail) and stops at the first violation,
naming it in the detail.  `CHECKS` lists them in the order `polylab verify`
runs them, with the arguments `verify` passes; `tests/test_acceptance.py`
runs each check in `CHECKS` at those arguments unless it pins its own.  A
size is an argument only where the two runs set it differently; the sizes
they share are module constants.
"""

import itertools
import math
import operator
from typing import Callable, NamedTuple, Sequence

from . import geometry, pathcount, simulator, stochastics
from .constants import E, L, constant_identities


def constants() -> tuple[bool, str]:
    worst = max(constant_identities().values())
    return worst <= 1e-12, f"max identity deviation {worst:.2e}"


def stanley_oracle() -> tuple[bool, str]:
    """Alternating-sign counts equal the brute-force DP on every cell up to _STANLEY_N_MAX and _STANLEY_L_MAX."""
    for n in range(1, _STANLEY_N_MAX + 1):
        for l in range(_STANLEY_L_MAX + 1):
            for d in range(n + 1):
                if pathcount.stanley_count(n, l, d) != pathcount.brute_force_walk_count(n, l, d):
                    return False, f"mismatch at (n={n}, l={l}, d={d})"
    return True, f"all cells equal up to n={_STANLEY_N_MAX}, l={_STANLEY_L_MAX}"


def identity_residuals(n_values: Sequence[int]) -> tuple[bool, str]:
    """Generating-function residuals stay below the truncation remainder."""
    worst = 0.0
    for n in n_values:
        for d in (0, n // 2, n):
            for x in (0.5, E, 1.5):
                result = pathcount.identity_residual(n, d, x, 80)
                if not result.within_tolerance:
                    return False, f"residual {result.residual:.2e} at (n={n}, d={d}, x={x})"
                worst = max(worst, result.residual)
    return True, f"max residual {worst:.2e}"


def m_bound() -> tuple[bool, str]:
    for n in range(1, _M_BOUND_N_MAX + 1):
        for l in range(0, 21, 4):
            for d in range(0, n + 1, max(1, n // 3)):
                if l < d or (l - d) & 1:
                    continue
                count = pathcount.stanley_count(n, l, d)
                for x in (0.25, 0.5, E, 1.0, 2.0):
                    if count and math.log(count) > pathcount.log_m_bound(n, l, d, x) + 1e-12:
                        return False, f"bound violated at (n={n}, l={l}, d={d}, x={x})"
    return True, "count <= bound on the sampled grid"


def length_ratio_inverse() -> tuple[bool, str]:
    worst = 0.0
    for i in range(_RATIO_STEPS + 1):
        ratio = 1.0001 + (10.0 - 1.0001) * i / _RATIO_STEPS
        x = pathcount.solve_length_ratio(ratio)
        worst = max(worst, abs(x / math.tanh(x) - ratio))
    return worst <= 1e-11, f"max |x/tanh(x) - ratio| = {worst:.2e}"


def coarse_graining() -> tuple[bool, str]:
    for k in _ALL_K:
        geometry.solve_coarse_graining(k)  # raises on any invariant breach
    return True, f"all invariants hold for K in {_ALL_K[:5]}..{_ALL_K[-1]}"


def _one_slab_perturbations(cg: geometry.CoarseGraining) -> tuple[float, list[tuple[int, float, float]]]:
    """f at the solved depths, and (slab j, delta, f) for each depth vector moved by delta = +-0.01 in slab j alone.

    `geometry.slab_factor` is evaluated once per slab at cg.d and once more
    for each moved slab.  Each f is the left-to-right product of the factors
    that f_function multiplies for its vector, so it has f_function's bits.
    """
    factors = [geometry.slab_factor(j, x, cg) for j, x in enumerate(cg.d, start=1)]
    perturbed = []
    for j, x in enumerate(cg.d, start=1):
        for delta in (0.01, -0.01):
            moved = factors.copy()
            moved[j - 1] = geometry.slab_factor(j, x + delta, cg)
            perturbed.append((j, delta, math.prod(moved)))
    return math.prod(factors), perturbed


def product_criterion() -> tuple[bool, str]:
    """f = 1 at the solved depths, < 1 after any one-slab perturbation, closed-form maximizers, K in _PRODUCT_KS."""
    for k in _PRODUCT_KS:
        cg = geometry.solve_coarse_graining(k)
        opt, perturbed = _one_slab_perturbations(cg)
        if not 1.0 - 1e-9 <= opt <= 1.0 + 1e-9:
            return False, f"f at optimum = {opt} for K={k}"
        for j, _, f in perturbed:
            if not f < 1.0:
                return False, f"perturbation not below 1 at K={k}, slab {j}"
        for j in range(2, k):
            if abs(geometry.optimal_d_closed_form(j, cg) - cg.d[j - 1]) > 1e-10:
                return False, f"closed form mismatch at K={k}, slab {j}"
    return True, f"optimum at 1, perturbations below 1 for K in {_PRODUCT_KS}"


def partial_products() -> tuple[bool, str]:
    """Partial products match their closed form, and the full product is 1, for every K in _ALL_K."""
    worst = 0.0
    for k in _ALL_K:
        cg = geometry.solve_coarse_graining(k)
        # left to right, as evolution_product multiplies
        factors = (geometry.g_factor(j, cg.d[j - 1], cg) for j in range(1, k + 1))
        for i, product in enumerate(itertools.accumulate(factors, operator.mul), 1):
            worst = max(worst, abs(product - geometry.evolution_closed_form(cg, i)))
        if product != geometry.evolution_product(cg, k):
            return False, f"last partial product {product!r} is not evolution_product at K={k}"
        if abs(product - 1.0) > 1e-9:
            return False, f"full product {product!r} at K={k}"
    return worst <= 1e-9, f"max partial-product deviation {worst:.2e}"


def scalar_claims() -> tuple[bool, str]:
    """The five claims of `geometry.verify_scalar_claims` on a _SCALAR_GRID_STEP grid, g2(1) = 1 exactly among them."""
    failed = [it.name for it in geometry.verify_scalar_claims(_SCALAR_GRID_STEP) if not it.passed]
    if failed:
        return False, f"failed: {failed}"
    return True, "all five items pass"


def overlap_kernels(g_steps: int) -> tuple[bool, str]:
    """g <= 1 on a grid of [0, 1], the Erlang tail-ratio bound, the l = 2, k = 1 closed form,
    and, at path scale l = ceil(L n), k = l/4, l/2, 3l/4 and x = E for each n in _PATH_NS,
    a finite log kernel with 0 < exact/leading < 1."""
    for i in range(g_steps + 1):
        if stochastics.overlap_g(i / g_steps) > 1.0 + 1e-12:
            return False, f"g above 1 at gamma={i / g_steps}"
    for l in range(1, 51):
        for x in (0.1, 0.5, 1.0, E, 2.0, 5.0):
            if not 0.0 <= stochastics.erlang_tail_ratio(l, x) <= math.exp(x) * x / (l + 1):
                return False, f"tail ratio bound violated at (l={l}, x={x})"
    for x in (1.0, 0.7):
        closed = 1.0 - 2.0 * x * math.exp(-x) - math.exp(-2.0 * x)
        if abs(stochastics.overlap_probability_exact(stochastics.OverlapSpec(l=2, k=1, x=x)) - closed) > 1e-10:
            return False, f"l=2, k=1 closed form mismatch at x={x}"
    halves = []
    for n in _PATH_NS:
        l = math.ceil(L * n)
        for k in (l // 4, l // 2, 3 * l // 4):
            spec = stochastics.OverlapSpec(l=l, k=k, x=E)
            log_exact = stochastics.log_overlap_probability(spec)
            ratio = math.exp(log_exact - stochastics.log_overlap_probability_leading(spec))
            if not (math.isfinite(log_exact) and 0.0 < ratio < 1.0):
                return False, f"exact/leading {ratio:.4g} at (l={l}, k={k}, x=E), log exact {log_exact}"
            if k == l // 2:
                halves.append(f"{ratio:.3f}")
    return True, (
        "g bounded, tail ratio bounded, closed forms consistent; "
        f"exact/leading {', '.join(halves)} at l=ceil(L n), k=l/2, x=E for n={_PATH_NS}"
    )


def overlap_mc(cells: Sequence[tuple[int, int, float, int]], trials: int) -> tuple[bool, str]:
    """Monte Carlo matches the exact kernel on each (l, k, x, seed) cell within 4 se + 16/N.

    The binomial stderr vanishes on zero-count cells; the 16/N term covers
    deviations of Poisson-scale counts up to 16 there.
    """
    for l, k, x, seed in cells:
        spec = stochastics.OverlapSpec(l=l, k=k, x=x)
        exact = stochastics.overlap_probability_exact(spec)
        est = stochastics.overlap_probability_mc(spec, trials, seed=seed)
        if abs(est.estimate - exact) > 4.0 * est.stderr + 16.0 / trials:
            return False, f"MC off at (l={l}, k={k}, x={x}): {est.estimate} vs {exact}"
    return True, f"MC within 4 se on {len(cells)} cells"


def simulator_oracle() -> tuple[bool, str]:
    """`ground_state` and the ball search equal the exhaustive oracle and return loopless paths,
    for n <= _ORACLE_N_MAX over _ORACLE_SEEDS seeds."""
    for n in range(1, _ORACLE_N_MAX + 1):
        for seed in range(_ORACLE_SEEDS):
            inst = simulator.HypercubeInstance(n=n, seed=seed)
            m_brute = simulator.brute_force_ground_state(inst).energy
            for path in (simulator.ground_state(inst), simulator._ball_search(inst)):
                if path.energy != m_brute:
                    return False, f"oracle mismatch at (n={n}, seed={seed})"
                if not path.is_loopless():
                    return False, f"invalid path at (n={n}, seed={seed})"
    return True, f"exact equality up to n={_ORACLE_N_MAX} over {_ORACLE_SEEDS} seeds"


def directed_overlap() -> tuple[bool, str]:
    for n in range(2, _DIRECTED_N_MAX + 1):
        for k, f, _, ok_coarse, ok_refined in simulator.directed_overlap_envelopes(n):
            if not (ok_coarse and ok_refined):
                return False, f"envelope violated at (n={n}, k={k}, F={f})"
    return True, f"envelopes hold up to n={_DIRECTED_N_MAX}"


def convergence_trends(n_small: int, n_large: int) -> tuple[bool, str]:
    """From n_small to n_large on the same _TREND_TRIALS seeds, m_n falls and length/n nears L.

    At n_large the first half carries 40-60% of m_n and, at one standard error, the depth
    profile never falls from bin to bin and the middle decile has the first's backsteps.
    """
    _, small = simulator.run_trials(n_small, _TREND_TRIALS, base_seed=_TREND_SEED)
    _, large = simulator.run_trials(n_large, _TREND_TRIALS, base_seed=_TREND_SEED)
    means, ses = large.profile_bin_mean, large.profile_bin_se
    falls = [i for i in range(len(means) - 1) if means[i + 1] + ses[i + 1] < means[i] - ses[i]]  # False on nan
    backsteps, backstep_ses = large.backstep_decile_mean, large.backstep_decile_se
    for holds, clause in (
        (large.mean_m_n < small.mean_m_n, f"mean m_n does not fall from n={n_small} to n={n_large}"),
        (large.mean_m_n > 0.75 * E and small.mean_m_n > 0.75 * E, "mean m_n not above 0.75 E"),
        (abs(large.mean_length_ratio - L) < abs(small.mean_length_ratio - L), "length/n does not near L"),
        (1.0 <= large.mean_length_ratio <= 1.5, f"length/n {large.mean_length_ratio:.4f} outside [1, 1.5]"),
        (0.4 <= large.mean_first_half_fraction <= 0.6, "first-half energy fraction outside [0.4, 0.6]"),
        (not falls, f"depth profile falls after bins {falls}"),
        (backsteps[5] + backstep_ses[5] >= backsteps[0] - backstep_ses[0], "middle decile has fewer backsteps"),
    ):
        if not holds:
            return False, clause
    return True, f"mean m_n {small.mean_m_n:.4f} -> {large.mean_m_n:.4f} from n={n_small} to n={n_large}"


def length_concentration() -> tuple[bool, str]:
    """At each n of _CONCENTRATION_NS the length weight at x = E peaks within 2 of L n; outside
    |l/n - L| < a eps (_CONCENTRATION_A and _EPS) it has no lower tail (none exists when
    L - a eps < 1) and an upper tail that shrinks with n."""
    tails = []
    for n in _CONCENTRATION_NS:
        peak = pathcount.length_weight_distribution(n, 3 * n).argmax_length
        if abs(peak - round(L * n)) > 2:
            return False, f"length weight peaks at l={peak} for n={n}, L n = {L * n:.2f}"
        lower, upper = pathcount.concentration_tail_mass(n, _CONCENTRATION_EPS, _CONCENTRATION_A)
        if lower != 0.0:
            return False, f"lower tail {lower:.3e} at n={n}"
        tails.append((n, upper))
    # with every lower tail 0, the total tail shrinks exactly when the upper one does
    for (n0, up0), (n1, up1) in itertools.pairwise(tails):
        if not up1 < up0:
            return False, f"tail does not shrink from n={n0} to n={n1}"
    return True, f"peaks within 2 of L n, upper tail {tails[0][1]:.3e} -> {tails[-1][1]:.3e}"


def shift_inequality() -> tuple[bool, str]:
    """P(both <= a+b) <= C P(both <= a) (1 + b/a)^{2l-k} on each (l, k, a, b) cell of _SHIFT_CELLS.

    C = 10 is a generous stand-in for the paper's unspecified order-one constant.
    """
    worst = 0.0
    for l, k, a, b in _SHIFT_CELLS:
        ratio = stochastics.shift_ratio(l, k, a, b)
        if not ratio <= 10.0:
            return False, f"ratio {ratio:.4f} above 10 at (l={l}, k={k}, a={a}, b={b})"
        worst = max(worst, ratio)
    return True, f"max ratio {worst:.4f} <= 10 on {len(_SHIFT_CELLS)} cells"


def substrand_identities() -> tuple[bool, str]:
    """The four closed forms of every interior slab's step fractions agree within 1e-10, K in _SUBSTRAND_KS."""
    worst = 0.0
    for k in _SUBSTRAND_KS:
        cg = geometry.solve_coarse_graining(k)
        for j in range(2, k):
            for name, (lhs, rhs) in geometry.substrand_identities(cg, j).items():
                if not abs(lhs - rhs) <= 1e-10:
                    return False, f"{name} off by {abs(lhs - rhs):.2e} at K={k}, slab {j}"
                worst = max(worst, abs(lhs - rhs))
    return True, f"max deviation {worst:.2e} for K in {_SUBSTRAND_KS}"


class Check(NamedTuple):
    name: str
    run: Callable[..., tuple[bool, str]]
    args: tuple = ()


_STANLEY_N_MAX, _STANLEY_L_MAX = 4, 8
_M_BOUND_N_MAX = 10
_RATIO_STEPS = 200
_ALL_K = tuple(range(1, 65))
_PRODUCT_KS = (2, 4, 8, 16, 32, 64)
_SCALAR_GRID_STEP = 1e-4
_ORACLE_N_MAX, _ORACLE_SEEDS = 4, 25
_DIRECTED_N_MAX = 7
_PATH_NS = (16, 64, 128, 200)
_TREND_TRIALS, _TREND_SEED = 50, 42
_CONCENTRATION_NS, _CONCENTRATION_EPS, _CONCENTRATION_A = (40, 80), 0.2, 2.5
_SHIFT_CELLS = ((4, 2, 1.0, 0.5), (3, 3, 1.0, 1.0), (6, 1, 0.5, 0.1))
_SUBSTRAND_KS = (4, 8, 16)
CHECKS = (
    Check("constants", constants),
    Check("stanley_oracle", stanley_oracle),
    Check("identity_residuals", identity_residuals, ((2, 4, 7, 10),)),
    Check("m_bound", m_bound),
    Check("length_ratio_inverse", length_ratio_inverse),
    Check("coarse_graining", coarse_graining),
    Check("product_criterion", product_criterion),
    Check("partial_products", partial_products),
    Check("scalar_claims", scalar_claims),
    Check("overlap_kernels", overlap_kernels, (100,)),
    Check("overlap_mc", overlap_mc, (((3, 1, 1.0, 97), (4, 2, 1.0, 97), (6, 3, 1.5, 97), (5, 0, 1.0, 97)), 10**5)),
    Check("simulator_oracle", simulator_oracle),
    Check("directed_overlap", directed_overlap),
    Check("convergence_trends", convergence_trends, (6, 10)),
    Check("length_concentration", length_concentration),
    Check("shift_inequality", shift_inequality),
    Check("substrand_identities", substrand_identities),
)
