"""Monte Carlo engine for undirected first-passage percolation on the hypercube.

Vertices are n-bit integers; the random environment attaches a strictly
positive, reproducible Exp(1) weight to every edge through a splittable
counter-based generator, so an instance is fully determined by (n, seed) and
never materialized unless that is the fastest option.  Ground states are
exact single-source shortest paths from the all-zeros to the all-ones
vertex; per-path geometry (length, depth profile, backsteps, energy split)
is measured against the closed-form predictions.  Small instances carry an
exhaustive simple-path oracle, and a separate brute-force counter measures
edge overlaps between directed paths.
"""

import math
import os
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
DEFAULT_MEM_CAP_MB = 1024
MEM_CAP_ENV_VAR = "POLYLAB_MEM_CAP_MB"

PROFILE_BINS = 20
BACKSTEP_DECILES = 10


class MemoryCapError(RuntimeError):
    """The distance buffer for 2^n vertices exceeds the configured cap."""


def memory_cap_bytes() -> int:
    raw = os.environ.get(MEM_CAP_ENV_VAR)
    cap_mb = DEFAULT_MEM_CAP_MB
    if raw is not None:
        try:
            cap_mb = int(raw)
        except ValueError as exc:
            raise ValueError(f"{MEM_CAP_ENV_VAR} must be an integer, got {raw!r}") from exc
        if cap_mb < 1:
            raise ValueError(f"{MEM_CAP_ENV_VAR} must be positive, got {cap_mb}")
    return cap_mb << 20


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
    """A path from all-zeros to all-ones as a sequence of signed coordinate steps.

    steps[j] = +(d+1) sets bit d (a forward step), -(d+1) clears it (a
    backstep); vertices is the induced vertex sequence including both
    endpoints.  General paths may revisit vertices; ground-state paths never
    do.
    """

    steps: tuple[int, ...]
    vertices: tuple[int, ...]
    energy: float

    @property
    def length(self) -> int:
        return len(self.steps)

    @property
    def backstep_count(self) -> int:
        return sum(1 for s in self.steps if s < 0)

    def is_loopless(self) -> bool:
        return len(set(self.vertices)) == len(self.vertices)

    @classmethod
    def from_steps(cls, instance: HypercubeInstance, steps) -> "PolymerPath":
        steps = tuple(int(s) for s in steps)
        vertices = [0]
        energy = 0.0
        v = 0
        for s in steps:
            if not 1 <= abs(s) <= instance.n:
                raise ValueError(f"step {s} out of range for n={instance.n}")
            dim = abs(s) - 1
            bit = (v >> dim) & 1
            if (s > 0) == bool(bit):
                raise ValueError(f"step {s} does not flip bit {dim} of vertex {v}")
            energy += edge_weight(instance, v, dim)
            v ^= 1 << dim
            vertices.append(v)
        if v != instance.target:
            raise ValueError("path does not end at the all-ones vertex")
        return cls(steps=steps, vertices=tuple(vertices), energy=energy)


def _steps_from_vertices(vertices) -> tuple[int, ...]:
    steps = []
    for a, b in zip(vertices, vertices[1:]):
        dim = (a ^ b).bit_length() - 1
        steps.append(dim + 1 if (b >> dim) & 1 else -(dim + 1))
    return tuple(steps)


def _path_energy(instance: HypercubeInstance, vertices) -> float:
    total = 0.0
    for a, b in zip(vertices, vertices[1:]):
        dim = (a ^ b).bit_length() - 1
        total += edge_weight(instance, a, dim)
    return total


def _csr_graph(instance: HypercubeInstance, table: np.ndarray) -> csr_matrix:
    n = instance.n
    size = instance.num_vertices
    cols = (np.arange(size, dtype=np.int64)[:, None] ^ (np.int64(1) << np.arange(n, dtype=np.int64))[None, :]).ravel()
    indptr = np.arange(0, size * n + 1, n, dtype=np.int64)
    return csr_matrix((table.ravel(), cols, indptr), shape=(size, size))


def _dijkstra_python(instance: HypercubeInstance) -> list[int]:
    """On-the-fly Dijkstra requiring only the 2^n distance/predecessor buffers.

    Ties between equally short predecessors are broken towards the smallest
    dimension index because dimensions are relaxed in increasing order and
    updates require a strict improvement.
    """
    n = instance.n
    size = instance.num_vertices
    target = instance.target
    dist = [math.inf] * size
    pred = [-1] * size
    settled = bytearray(size)
    dist[0] = 0.0
    heap = [(0.0, 0)]
    while heap:
        d_u, u = heappop(heap)
        if settled[u]:
            continue
        settled[u] = 1
        if u == target:
            break
        for dim in range(n):
            v = u ^ (1 << dim)
            if settled[v]:
                continue
            cand = d_u + edge_weight(instance, u, dim)
            if cand < dist[v]:
                dist[v] = cand
                pred[v] = u
                heappush(heap, (cand, v))
    return pred


def ground_state(instance: HypercubeInstance) -> tuple[float, PolymerPath]:
    """Exact minimal path energy between the antipodal corners, and one minimizer.

    Runs compiled sparse Dijkstra over a vectorized CSR adjacency when it
    fits the memory cap, otherwise a pure-Python on-the-fly variant with the
    same semantics.  The returned energy is the path-order weight sum, which
    both code paths and the exhaustive oracle reproduce bit-for-bit.  Any
    vertex repeat could be spliced out for a cheaper path, so minimizers are
    loopless.
    """
    cap = memory_cap_bytes()
    distance_bytes = instance.num_vertices * 8
    if distance_bytes > cap:
        raise MemoryCapError(
            f"distance buffer needs {distance_bytes >> 20} MiB, cap is {cap >> 20} MiB"
        )
    csr_bytes = instance.num_vertices * instance.n * 28  # weights + table + int64 columns
    if csr_bytes <= cap:
        table = weight_table(instance)
        graph = _csr_graph(instance, table)
        _, pred = _csgraph_dijkstra(graph, indices=0, return_predecessors=True)
        pred = [int(p) for p in pred]
    else:
        pred = _dijkstra_python(instance)
    vertices = []
    v = instance.target
    while v != 0:
        vertices.append(v)
        v = pred[v]
        if v < 0:
            raise ArithmeticError("target unreachable; the hypercube is connected")
    vertices.append(0)
    vertices.reverse()
    path = PolymerPath(
        steps=_steps_from_vertices(vertices),
        vertices=tuple(vertices),
        energy=_path_energy(instance, vertices),
    )
    return path.energy, path


def brute_force_ground_state(instance: HypercubeInstance) -> tuple[float, PolymerPath]:
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
    polymer = PolymerPath(
        steps=_steps_from_vertices(best_path),
        vertices=tuple(best_path),
        energy=_path_energy(instance, best_path),
    )
    return polymer.energy, polymer


@dataclass(frozen=True)
class PathStatistics:
    """Per-path geometry: depth profile, backstep placement, energy split."""

    normalized_depth_profile: tuple[tuple[float, float], ...]
    backstep_count: int
    first_half_energy: float
    profile_bins: tuple[float, ...]  # mean depth per alpha-bin, nan when empty
    backstep_deciles: tuple[int, ...]  # backstep count per alpha-decile


def path_statistics(instance: HypercubeInstance, path: PolymerPath) -> PathStatistics:
    """Measure one path: (j/l, d_j/n) at every step, backsteps, first-half energy."""
    n = instance.n
    l = path.length
    profile = []
    bin_sums = [0.0] * PROFILE_BINS
    bin_counts = [0] * PROFILE_BINS
    deciles = [0] * BACKSTEP_DECILES
    first_half_energy = 0.0
    half_steps = (l + 1) // 2
    for j, (a, b) in enumerate(zip(path.vertices, path.vertices[1:]), start=1):
        alpha = j / l
        depth = bin(b).count("1") / n
        profile.append((alpha, depth))
        bin_index = min(PROFILE_BINS - 1, int(alpha * PROFILE_BINS))
        bin_sums[bin_index] += depth
        bin_counts[bin_index] += 1
        if b == a & ~(a ^ b):  # moving towards the origin: the differing bit was cleared
            decile = min(BACKSTEP_DECILES - 1, int((j - 0.5) / l * BACKSTEP_DECILES))
            deciles[decile] += 1
        if j <= half_steps:
            dim = (a ^ b).bit_length() - 1
            first_half_energy += edge_weight(instance, a, dim)
    bins = tuple(
        bin_sums[i] / bin_counts[i] if bin_counts[i] else math.nan for i in range(PROFILE_BINS)
    )
    return PathStatistics(
        normalized_depth_profile=tuple(profile),
        backstep_count=sum(deciles),
        first_half_energy=first_half_energy,
        profile_bins=bins,
        backstep_deciles=tuple(deciles),
    )


@dataclass(frozen=True)
class TrialRecord:
    """Measurement bundle of a single ground-state computation."""

    n: int
    seed: int
    trial: int
    m_n: float
    length: int
    backstep_count: int
    first_half_energy: float
    profile_bins: tuple[float, ...]
    backstep_deciles: tuple[int, ...]

    def __post_init__(self):
        if not self.m_n > 0.0:
            raise ArithmeticError("ground-state energy must be positive")
        if self.length < self.n or (self.length - self.n) % 2:
            raise ArithmeticError("path length must be >= n with the parity of n")
        if self.backstep_count != (self.length - self.n) // 2:
            raise ArithmeticError("backstep count inconsistent with length")


def run_trial(n: int, seed: int, trial: int) -> TrialRecord:
    instance = HypercubeInstance(n=n, seed=seed)
    m_n, path = ground_state(instance)
    stats = path_statistics(instance, path)
    return TrialRecord(
        n=n,
        seed=seed,
        trial=trial,
        m_n=m_n,
        length=path.length,
        backstep_count=stats.backstep_count,
        first_half_energy=stats.first_half_energy,
        profile_bins=stats.profile_bins,
        backstep_deciles=stats.backstep_deciles,
    )


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
    if parallelism == 1:
        records = [run_trial(n, base_seed + t, t) for t in range(trials)]
    else:
        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            records = list(pool.map(lambda t: run_trial(n, base_seed + t, t), range(trials)))
    return records, aggregate_records(records, base_seed)


def directed_overlap_count(n: int, k: int) -> int:
    """Number of directed paths sharing exactly k edges with the path 1,2,...,n.

    A directed path is a permutation of the coordinate order; it traverses
    the reference edge at level j iff its first j-1 coordinates are exactly
    {1..j-1} and the j-th is j.  Exhaustive over all n! permutations, n <= 7.
    """
    counts = directed_overlap_table(n)
    if not 0 <= k <= n:
        raise ValueError(f"shared edges must satisfy 0 <= k <= n, got {k}")
    return counts[k]


def directed_overlap_table(n: int) -> list[int]:
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
