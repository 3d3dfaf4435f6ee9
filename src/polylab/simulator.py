"""Monte Carlo engine for undirected first-passage percolation on the hypercube.

Vertices are n-bit integers; the random environment attaches a strictly
positive, reproducible Exp(1) weight to every edge through a splittable
counter-based generator, so an instance is fully determined by (n, seed).
Ground states are exact shortest paths from the all-zeros to the all-ones
vertex: compiled sparse Dijkstra over the materialized weight table for
n <= CSR_MAX_DIMENSION, and above it a bidirectional Dijkstra that draws
weights on demand and keeps state only for the two balls it explores.
Every engine returns one `PolymerPath`, built once from its vertex sequence:
the constructor checks the walk and reads each step's edge weight, and the
energy m_n, the steps and the backsteps are read off it.  `path_statistics`
turns a path into a `TrialRecord` of the per-path geometry (length, depth
profile, backstep placement, energy split) that is measured against the
closed-form predictions.  Small instances carry an exhaustive simple-path
oracle, and a separate brute-force counter measures edge overlaps between
directed paths.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import permutations
from math import comb, factorial

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from . import prng

MAX_DIMENSION = 26
# Largest n searched by compiled CSR Dijkstra; above it the bidirectional
# search is faster (mean ms per trial over seeds 0-7 on a 2-vCPU x86 host,
# CSR vs bidirectional: 20 vs 31 at n=14, 50 vs 37 at n=15, 86 vs 44 at n=16).
CSR_MAX_DIMENSION = 14

PROFILE_BINS = 20
BACKSTEP_DECILES = 10


@dataclass(frozen=True)
class HypercubeInstance:
    """A seeded random environment on the n-dimensional hypercube."""

    n: int
    seed: int

    def __post_init__(self):
        if not 1 <= self.n <= MAX_DIMENSION:
            raise ValueError(f"dimension must satisfy 1 <= n <= {MAX_DIMENSION}, got {self.n}")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed}")

    @property
    def num_vertices(self) -> int:
        return 1 << self.n

    @property
    def target(self) -> int:
        return (1 << self.n) - 1


def edge_weight(instance: HypercubeInstance, vertex: int, dim: int) -> float:
    """Weight of the edge leaving `vertex` along coordinate `dim`.

    The edge is keyed canonically by its endpoint with bit `dim` cleared, so
    both endpoints see the same weight; the weight is -log of an
    open-interval uniform and therefore strictly positive.
    """
    if not 0 <= dim < instance.n:
        raise ValueError(f"dimension index must satisfy 0 <= dim < {instance.n}, got {dim}")
    if not 0 <= vertex < instance.num_vertices:
        raise ValueError(f"vertex {vertex} out of range for n={instance.n}")
    canonical = vertex & ~(1 << dim)
    return prng.exponential(instance.seed, canonical, dim)


def weight_table(instance: HypercubeInstance) -> np.ndarray:
    """All edge weights as a (2^n, n) array; entry [v, d] = edge_weight(v, d)."""
    n = instance.n
    vertices = np.arange(instance.num_vertices, dtype=np.uint64)
    table = np.empty((instance.num_vertices, n))
    for dim in range(n):
        canonical = vertices & np.uint64(~(1 << dim) & 0xFFFFFFFFFFFFFFFF)
        table[:, dim] = prng.exponential_array(instance.seed, canonical, dim)
    return table


@dataclass(frozen=True)
class PolymerPath:
    """A path from all-zeros to all-ones: its vertices and the weight of each step.

    Build it with `from_vertices`, which validates the vertex sequence and
    reads each step's edge weight once; `energy` is the left-to-right sum of
    `weights`.  Steps, length and backsteps are read off the vertices.
    General paths may revisit vertices; ground-state paths never do.
    """

    vertices: tuple[int, ...]
    weights: tuple[float, ...]
    energy: float

    @classmethod
    def from_vertices(cls, instance: HypercubeInstance, vertices) -> "PolymerPath":
        """Raises ValueError unless the walk runs from 0 to the target by single-bit flips."""
        vertices = tuple(vertices)
        if vertices[0] != 0 or vertices[-1] != instance.target:
            raise ValueError(f"path runs from {vertices[0]} to {vertices[-1]}, not from 0 to {instance.target}")
        weights = []
        energy = 0.0  # an explicit loop: sum() of floats is compensated from Python 3.12 on
        for a, b in zip(vertices, vertices[1:]):
            flipped = a ^ b
            if flipped <= 0 or flipped & (flipped - 1):
                raise ValueError(f"step {a} -> {b} does not flip exactly one bit")
            w = edge_weight(instance, a, flipped.bit_length() - 1)
            weights.append(w)
            energy += w
        return cls(vertices=vertices, weights=tuple(weights), energy=energy)

    @property
    def steps(self) -> tuple[int, ...]:
        """Signed coordinates: +(d+1) sets bit d (a forward step), -(d+1) clears it (a backstep)."""
        return tuple(
            (a ^ b).bit_length() * (1 if b > a else -1) for a, b in zip(self.vertices, self.vertices[1:])
        )

    @property
    def length(self) -> int:
        return len(self.weights)

    @property
    def backstep_count(self) -> int:
        return sum(1 for a, b in zip(self.vertices, self.vertices[1:]) if b < a)

    def is_loopless(self) -> bool:
        return len(set(self.vertices)) == len(self.vertices)


def _csr_search(instance: HypercubeInstance) -> PolymerPath:
    """Compiled single-source Dijkstra over the materialized (2^n, n) weight table."""
    n = instance.n
    size = instance.num_vertices
    table = weight_table(instance)
    cols = (np.arange(size, dtype=np.int64)[:, None] ^ (np.int64(1) << np.arange(n, dtype=np.int64))[None, :]).ravel()
    indptr = np.arange(0, size * n + 1, n, dtype=np.int64)
    graph = csr_matrix((table.ravel(), cols, indptr), shape=(size, size))
    _, pred = _csgraph_dijkstra(graph, indices=0, return_predecessors=True)
    vertices = [instance.target]
    while vertices[-1] != 0:
        v = int(pred[vertices[-1]])
        if v < 0:
            raise ArithmeticError("target unreachable; the hypercube is connected")
        vertices.append(v)
    vertices.reverse()
    return PolymerPath.from_vertices(instance, vertices)


def _bidirectional_search(instance: HypercubeInstance) -> PolymerPath:
    """Bidirectional Dijkstra (Pohl 1971) with lazily generated edge weights.

    Grows one ball from 0 and one from the target, always expanding the side
    with the smaller heap, and records the cheapest meeting cost `mu` each
    time a label improves at a vertex the other side has labelled.  It stops
    once the two heap tops sum to at least `mu`: no unsettled vertex can then
    lie on a cheaper path.  State lives in dicts sized by the two balls.
    Positive weights and strict-improvement updates mean a settled vertex is
    never relabelled, so heap entries whose key exceeds the label are stale.
    """
    n = instance.n
    seed = instance.seed
    dist = ({0: 0.0}, {instance.target: 0.0})
    pred = ({0: -1}, {instance.target: -1})
    heaps = ([(0.0, 0)], [(0.0, instance.target)])
    mu = math.inf
    meet = -1
    while heaps[0] and heaps[1] and heaps[0][0][0] + heaps[1][0][0] < mu:
        side = 0 if len(heaps[0]) <= len(heaps[1]) else 1
        heap, own, own_pred, other = heaps[side], dist[side], pred[side], dist[1 - side]
        d_u, u = heappop(heap)
        if d_u > own[u]:
            continue
        for dim, w in enumerate(prng.vertex_exponentials(seed, u, n)):
            v = u ^ (1 << dim)
            cand = d_u + w
            if cand < own.get(v, math.inf):
                own[v] = cand
                own_pred[v] = u
                heappush(heap, (cand, v))
                if v in other and cand + other[v] < mu:
                    mu = cand + other[v]
                    meet = v
    vertices = []
    v = meet
    while v >= 0:
        vertices.append(v)
        v = pred[0][v]
    vertices.reverse()
    v = pred[1][meet]
    while v >= 0:
        vertices.append(v)
        v = pred[1][v]
    return PolymerPath.from_vertices(instance, vertices)


def ground_state(instance: HypercubeInstance) -> PolymerPath:
    """One minimal-energy path between the antipodal corners; m_n is its `energy`.

    The engine follows from n alone.  Up to CSR_MAX_DIMENSION, compiled
    sparse Dijkstra over the full weight table is fastest: its per-trial
    cost is small and most of it runs in compiled code.  Above
    it, a bidirectional Dijkstra settles only two small balls around the
    endpoints (radius about m_n / 2 ~ 0.44) with weights drawn on demand,
    so its time and memory scale with those balls, not with 2^n.  Both
    find the same minimizer, and its energy is the path-order weight sum,
    which both engines and the exhaustive oracle reproduce bit-for-bit.
    Any vertex repeat could be spliced out for a cheaper path, so
    minimizers are loopless.
    """
    if instance.n <= CSR_MAX_DIMENSION:
        return _csr_search(instance)
    return _bidirectional_search(instance)


def brute_force_ground_state(instance: HypercubeInstance) -> PolymerPath:
    """Exhaustive search over all simple paths; exact oracle for n <= 4."""
    if instance.n > 4:
        raise ValueError(f"brute force limited to n <= 4, got {instance.n}")
    n = instance.n
    table = weight_table(instance)
    target = instance.target
    best_cost = math.inf
    best_path: list[int] | None = None
    path = [0]

    def dfs(u: int, cost: float, visited: int):
        nonlocal best_cost, best_path
        if cost >= best_cost:
            return
        if u == target:
            best_cost = cost
            best_path = path.copy()
            return
        for dim in range(n):
            v = u ^ (1 << dim)
            if (visited >> v) & 1:
                continue
            path.append(v)
            dfs(v, cost + table[u, dim], visited | (1 << v))
            path.pop()

    dfs(0, 0.0, 1)
    assert best_path is not None
    return PolymerPath.from_vertices(instance, best_path)


@dataclass(frozen=True)
class TrialRecord:
    """Measurement bundle of one path: energy, length, depth profile, backstep placement."""

    n: int
    seed: int
    trial: int
    m_n: float
    length: int
    backstep_count: int
    first_half_energy: float
    profile_bins: tuple[float, ...]  # mean depth per alpha-bin, nan when empty
    backstep_deciles: tuple[int, ...]  # backstep count per alpha-decile


def path_statistics(instance: HypercubeInstance, path: PolymerPath, trial: int = 0) -> TrialRecord:
    """Measure one path: depth d_j/n binned by j/l, backsteps per decile, first-half energy."""
    n = instance.n
    l = path.length
    bin_sums = [0.0] * PROFILE_BINS
    bin_counts = [0] * PROFILE_BINS
    deciles = [0] * BACKSTEP_DECILES
    for j, (a, b) in enumerate(zip(path.vertices, path.vertices[1:]), start=1):
        bin_index = min(PROFILE_BINS - 1, int(j / l * PROFILE_BINS))
        bin_sums[bin_index] += bin(b).count("1") / n
        bin_counts[bin_index] += 1
        if b < a:  # a backstep clears the flipped bit
            deciles[min(BACKSTEP_DECILES - 1, int((j - 0.5) / l * BACKSTEP_DECILES))] += 1
    first_half_energy = 0.0
    for w in path.weights[: (l + 1) // 2]:
        first_half_energy += w
    return TrialRecord(
        n=n,
        seed=instance.seed,
        trial=trial,
        m_n=path.energy,
        length=l,
        backstep_count=path.backstep_count,
        first_half_energy=first_half_energy,
        profile_bins=tuple(
            bin_sums[i] / bin_counts[i] if bin_counts[i] else math.nan for i in range(PROFILE_BINS)
        ),
        backstep_deciles=tuple(deciles),
    )


def run_trial(n: int, seed: int, trial: int) -> TrialRecord:
    instance = HypercubeInstance(n=n, seed=seed)
    return path_statistics(instance, ground_state(instance), trial)


@dataclass(frozen=True)
class AggregateSummary:
    """Across-trial means; profile and backstep placement with standard errors."""

    n: int
    trials: int
    base_seed: int
    mean_m_n: float
    std_m_n: float
    mean_length_ratio: float
    std_length_ratio: float
    mean_first_half_fraction: float
    mean_backstep_fraction: float
    profile_bin_mean: tuple[float, ...]
    profile_bin_se: tuple[float, ...]
    backstep_decile_mean: tuple[float, ...]
    backstep_decile_se: tuple[float, ...]


def aggregate_records(records: list[TrialRecord], base_seed: int) -> AggregateSummary:
    trials = len(records)
    m = np.array([r.m_n for r in records])
    ratios = np.array([r.length / r.n for r in records])
    halves = np.array([r.first_half_energy / r.m_n for r in records])
    back_fraction = np.array([r.backstep_count / r.length for r in records])
    bins = np.array([r.profile_bins for r in records])  # nan for empty bins
    deciles = np.array([r.backstep_deciles for r in records], dtype=float)
    filled = ~np.isnan(bins)
    bin_counts = filled.sum(axis=0)
    safe_counts = np.maximum(bin_counts, 1)
    zeroed = np.where(filled, bins, 0.0)
    bin_mean = np.where(bin_counts > 0, zeroed.sum(axis=0) / safe_counts, np.nan)
    spread = np.where(filled, (zeroed - bin_mean) ** 2, 0.0)
    bin_se = np.where(
        bin_counts > 0, np.sqrt(spread.sum(axis=0)) / safe_counts, np.nan
    )
    return AggregateSummary(
        n=records[0].n,
        trials=trials,
        base_seed=base_seed,
        mean_m_n=float(m.mean()),
        std_m_n=float(m.std()),
        mean_length_ratio=float(ratios.mean()),
        std_length_ratio=float(ratios.std()),
        mean_first_half_fraction=float(halves.mean()),
        mean_backstep_fraction=float(back_fraction.mean()),
        profile_bin_mean=tuple(float(x) for x in bin_mean),
        profile_bin_se=tuple(float(x) for x in bin_se),
        backstep_decile_mean=tuple(float(x) for x in deciles.mean(axis=0)),
        backstep_decile_se=tuple(float(x) for x in deciles.std(axis=0) / math.sqrt(trials)),
    )


def run_trials(
    n: int, trials: int, base_seed: int, parallelism: int = 1
) -> tuple[list[TrialRecord], AggregateSummary]:
    """Independent trials with seeds base_seed + t; output is schedule-independent.

    Trials share no mutable state, so any parallelism degree produces the
    same records; aggregation consumes them in trial order.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if parallelism < 1:
        raise ValueError(f"parallelism must be positive, got {parallelism}")
    if base_seed < 0 or base_seed + trials > 1 << 64:
        raise ValueError(f"seeds {base_seed}..{base_seed + trials - 1} leave the unsigned 64-bit range")
    if parallelism == 1:
        records = [run_trial(n, base_seed + t, t) for t in range(trials)]
    else:
        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            records = list(pool.map(lambda t: run_trial(n, base_seed + t, t), range(trials)))
    return records, aggregate_records(records, base_seed)


def directed_overlap_table(n: int) -> list[int]:
    """Entry k counts the directed paths sharing exactly k edges with the path 1,2,...,n.

    A directed path is a permutation of the coordinate order; it traverses
    the reference edge at level j iff its first j-1 coordinates are exactly
    {1..j-1} and the j-th is j.  Exhaustive over all n! permutations, n <= 7.
    """
    if not 1 <= n <= 7:
        raise ValueError(f"brute force limited to n <= 7, got {n}")
    counts = [0] * (n + 1)
    for sigma in permutations(range(1, n + 1)):
        shared = 0
        max_seen = 0
        for j, value in enumerate(sigma, start=1):
            # the j-1 distinct earlier values equal {1..j-1} iff their max is j-1
            if max_seen == j - 1 and value == j:
                shared += 1
            if value > max_seen:
                max_seen = value
        counts[shared] += 1
    return counts


def trial_record_json_dict(record: TrialRecord) -> dict:
    """JSON-ready dict, one object per trial; empty profile bins become null."""
    return {
        "n": record.n,
        "seed": record.seed,
        "trial": record.trial,
        "m_n": record.m_n,
        "length": record.length,
        "backsteps": record.backstep_count,
        "e_first_half": record.first_half_energy,
        **{
            f"bin_{i:02d}": (None if math.isnan(v) else v)
            for i, v in enumerate(record.profile_bins)
        },
    }


def directed_overlap_envelopes(n: int) -> list[tuple[int, int, int, bool, bool]]:
    """(k, F(n,k), coarse bound, coarse ok, refined ok for k <= n^(1/4)) rows.

    Coarse: F(n,k) <= (n-k)! C(n,k); refined, checked only for k <= n^{1/4}:
    F(n,k) <= 2 (n-k)! (k+1).
    """
    counts = directed_overlap_table(n)
    rows = []
    for k, f in enumerate(counts):
        coarse = factorial(n - k) * comb(n, k)
        refined_applicable = k <= n**0.25
        refined_ok = (f <= 2 * factorial(n - k) * (k + 1)) if refined_applicable else True
        rows.append((k, f, coarse, f <= coarse, refined_ok))
    return rows
