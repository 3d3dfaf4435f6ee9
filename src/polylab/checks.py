"""Verification criteria, each defined once with its sizes as arguments.

Every check returns (passed, detail) and stops at the first violation,
naming it in the detail.  `CHECKS` lists them in the order `polylab verify`
runs them, with the arguments of `verify --fast` and of the full battery;
`tests/test_acceptance.py` calls the same functions at its own pinned sizes.
"""

import math
from typing import Callable, NamedTuple, Sequence

from . import geometry, pathcount, simulator, stochastics
from .constants import E, constant_identities


def constants() -> tuple[bool, str]:
    worst = max(constant_identities().values())
    return worst <= 1e-12, f"max identity deviation {worst:.2e}"


def stanley_oracle(n_max: int, l_max: int) -> tuple[bool, str]:
    """Alternating-sign counts equal the brute-force DP on every small cell."""
    for n in range(1, n_max + 1):
        for l in range(l_max + 1):
            for d in range(n + 1):
                if pathcount.stanley_count(n, l, d) != pathcount.brute_force_walk_count(n, l, d):
                    return False, f"mismatch at (n={n}, l={l}, d={d})"
    return True, f"all cells equal up to n={n_max}, l={l_max}"


def identity_residuals(n_values: Sequence[int]) -> tuple[bool, str]:
    """Generating-function residuals stay below the truncation remainder."""
    worst = 0.0
    for n in n_values:
        for d in (0, n // 2, n):
            for x in (0.5, E, 1.5):
                r = pathcount.identity_residual(n, d, x, 80)
                if r > pathcount.identity_remainder_bound(n, x, 80) + 1e-10:
                    return False, f"residual {r:.2e} at (n={n}, d={d}, x={x})"
                worst = max(worst, r)
    return True, f"max residual {worst:.2e}"


def m_bound(n_max: int) -> tuple[bool, str]:
    for n in range(1, n_max + 1):
        for l in range(0, 21, 4):
            for d in range(0, n + 1, max(1, n // 3)):
                if l < d or (l - d) & 1:
                    continue
                count = pathcount.stanley_count(n, l, d)
                for x in (0.25, 0.5, E, 1.0, 2.0):
                    if count and math.log(count) > pathcount.log_m_bound(n, l, d, x) + 1e-12:
                        return False, f"bound violated at (n={n}, l={l}, d={d}, x={x})"
    return True, "count <= bound on the sampled grid"


def length_ratio_inverse(steps: int) -> tuple[bool, str]:
    worst = 0.0
    for i in range(steps + 1):
        ratio = 1.0001 + (10.0 - 1.0001) * i / steps
        x = pathcount.solve_length_ratio(ratio)
        worst = max(worst, abs(x / math.tanh(x) - ratio))
    return worst <= 1e-11, f"max |x/tanh(x) - ratio| = {worst:.2e}"


def coarse_graining(ks: Sequence[int]) -> tuple[bool, str]:
    for k in ks:
        geometry.solve_coarse_graining(k)  # raises on any invariant breach
    return True, f"all invariants hold for K in {ks[:5]}..{ks[-1]}"


def product_criterion(ks: Sequence[int]) -> tuple[bool, str]:
    """f = 1 at the solved depths, < 1 after any one-slab perturbation, closed-form maximizers."""
    for k in ks:
        cg = geometry.solve_coarse_graining(k)
        opt = geometry.f_function(cg, cg.d)
        if not 1.0 - 1e-9 <= opt <= 1.0 + 1e-9:
            return False, f"f at optimum = {opt} for K={k}"
        for j in range(k):
            for delta in (0.01, -0.01):
                dvec = list(cg.d)
                dvec[j] += delta
                if not geometry.f_function(cg, dvec) < 1.0:
                    return False, f"perturbation not below 1 at K={k}, slab {j + 1}"
        for j in range(2, k):
            if abs(geometry.optimal_d_closed_form(j, k, cg) - cg.d[j - 1]) > 1e-10:
                return False, f"closed form mismatch at K={k}, slab {j}"
    return True, f"optimum at 1, perturbations below 1 for K in {ks}"


def partial_products(ks: Sequence[int]) -> tuple[bool, str]:
    """Partial products match their closed form, and the full product is 1."""
    worst = 0.0
    for k in ks:
        cg = geometry.solve_coarse_graining(k)
        for i in range(1, k + 1):
            product = geometry.evolution_product(cg, i)
            worst = max(worst, abs(product - geometry.evolution_closed_form(cg, i)))
        if abs(product - 1.0) > 1e-9:
            return False, f"full product {product!r} at K={k}"
    return worst <= 1e-9, f"max partial-product deviation {worst:.2e}"


def step_bounds(ks: Sequence[int]) -> tuple[bool, str]:
    for k in ks:
        cg = geometry.solve_coarse_graining(k)
        for i in range(k):
            if cg.eb[i] > 1.0 / (2 * k) + 1e-15 or not cg.ef[i] - 2.0 * cg.eb[i] > 0.0:
                return False, f"step bound violated at K={k}, slab {i + 1}"
    return True, "eb <= 1/(2K) and ef - 2eb > 0 throughout"


def scalar_claims(grid_step: float, l_opts: Sequence[float] = ()) -> tuple[bool, str]:
    """The five grid claims, g2(1) = 1 exactly, and sup theta_hat <= 1 at each of `l_opts`."""
    report = geometry.verify_scalar_claims(grid_step)
    if not report.all_passed:
        return False, f"failed: {[it.name for it in report.items if not it.passed]}"
    if geometry.g2(1.0) != 1.0:
        return False, f"g2(1) = {geometry.g2(1.0)!r}"
    for l_opt in l_opts:
        sup = geometry.theta_hat_sup(grid_step, l_opt)
        if sup > 1.0 + 1e-9:
            return False, f"theta_hat sup {sup!r} at l_opt={l_opt}"
    return True, "all five items pass"


def overlap_kernels(g_steps: int, l_step: int) -> tuple[bool, str]:
    """g <= 1 on a grid of [0, 1], the Erlang tail-ratio bound, and the k = l closed form."""
    for i in range(g_steps + 1):
        if stochastics.overlap_g(i / g_steps) > 1.0 + 1e-12:
            return False, f"g above 1 at gamma={i / g_steps}"
    for l in range(1, 51, l_step):
        for x in (0.1, 0.5, 1.0, E, 2.0, 5.0):
            if not 0.0 <= stochastics.erlang_tail_ratio(l, x) <= math.exp(x) * x / (l + 1):
                return False, f"tail ratio bound violated at (l={l}, x={x})"
    for l, x in ((3, 1.0), (5, 0.7)):
        spec = stochastics.OverlapSpec(l=l, k=l, x=x)
        if abs(stochastics.overlap_probability_exact(spec) - stochastics.erlang_cdf(l, x)) > 1e-10:
            return False, f"k=l closed form mismatch at (l={l}, x={x})"
    return True, "g bounded, tail ratio bounded, closed forms consistent"


def overlap_mc(cells: Sequence[tuple[int, int, float, int]], trials: int) -> tuple[bool, str]:
    """Monte Carlo matches quadrature on each (l, k, x, seed) cell within 4 se + 16/N.

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


def simulator_oracle(n_max: int, seeds: int) -> tuple[bool, str]:
    """Dijkstra equals the exhaustive oracle; its path is a valid, loopless minimizer."""
    for n in range(1, n_max + 1):
        for seed in range(seeds):
            inst = simulator.HypercubeInstance(n=n, seed=seed)
            m_fast, path = simulator.ground_state(inst)
            if m_fast != simulator.brute_force_ground_state(inst)[0]:
                return False, f"oracle mismatch at (n={n}, seed={seed})"
            energy = sum(
                simulator.edge_weight(inst, a, (a ^ b).bit_length() - 1)
                for a, b in zip(path.vertices, path.vertices[1:])
            )
            if (
                path.vertices[0] != 0
                or path.vertices[-1] != inst.target
                or not path.is_loopless()
                or path.length < n
                or (path.length - n) % 2
                or not math.isclose(path.energy, energy, rel_tol=1e-9)
            ):
                return False, f"invalid path at (n={n}, seed={seed})"
    return True, f"exact equality up to n={n_max} over {seeds} seeds"


def directed_overlap(n_max: int) -> tuple[bool, str]:
    for n in range(2, n_max + 1):
        for k, f, _, ok_coarse, ok_refined in simulator.directed_overlap_envelopes(n):
            if not (ok_coarse and ok_refined):
                return False, f"envelope violated at (n={n}, k={k}, F={f})"
    return True, f"envelopes hold up to n={n_max}"


class Check(NamedTuple):
    name: str
    run: Callable[..., tuple[bool, str]]
    fast: tuple
    full: tuple


_ALL_K = tuple(range(1, 65))
CHECKS = (
    Check("constants", constants, (), ()),
    Check("stanley_oracle", stanley_oracle, (3, 6), (4, 8)),
    Check("identity_residuals", identity_residuals, ((2, 4),), ((2, 4, 7, 10),)),
    Check("m_bound", m_bound, (6,), (10,)),
    Check("length_ratio_inverse", length_ratio_inverse, (20,), (200,)),
    Check("coarse_graining", coarse_graining, ((1, 2, 4, 8, 16),), (_ALL_K,)),
    Check("product_criterion", product_criterion, ((4, 8),), ((2, 4, 8, 16, 32, 64),)),
    Check("partial_products", partial_products, ((4, 8),), (_ALL_K,)),
    Check("step_bounds", step_bounds, ((8, 16),), (_ALL_K,)),
    Check("scalar_claims", scalar_claims, (1e-3,), (1e-4,)),
    Check("overlap_kernels", overlap_kernels, (100, 7), (100, 1)),
    Check("overlap_mc", overlap_mc, (((3, 1, 1.0, 97), (4, 2, 1.0, 97)), 10**5),
          (((3, 1, 1.0, 97), (4, 2, 1.0, 97), (6, 3, 1.5, 97), (5, 0, 1.0, 97)), 10**5)),
    Check("simulator_oracle", simulator_oracle, (3, 5), (4, 25)),
    Check("directed_overlap", directed_overlap, (6,), (7,)),
)
