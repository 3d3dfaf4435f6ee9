"""Monte Carlo engine for undirected first-passage percolation on the hypercube.

Vertices are n-bit integers; the random environment attaches a strictly
positive, reproducible Exp(1) weight to every edge through a splittable
counter-based generator, so an instance is fully determined by (n, seed).
Ground states are exact shortest paths from the all-zeros to the all-ones
vertex.  Both engines label a ball around each corner and stop once the two
radii sum to at least the cheapest walk through an edge between the balls,
which is then m_n.  For n <= CSR_MAX_DIMENSION, compiled sparse Dijkstra
runs from both corners over the materialized weight table (each edge drawn
once), bounded by a radius that grows until that holds, and the cheapest
walk is read off the rows labelled from 0; above it a ball search grows
one ball per phase in vectorized Delta-stepping rounds, draws the weights
of the edges it relaxes, and keeps state only for the two balls.
Every engine returns one `PolymerPath`, built once from its vertex sequence:
the constructor is the one walk over it, checking each step and recording
its signed coordinate and edge weight.  m_n, the length and the backsteps
are read off those, and `path_statistics` turns them into a `TrialRecord`
of the per-path geometry (length, depth profile, backstep placement,
energy split) that is measured against the closed-form predictions.  Small
instances carry an exhaustive simple-path oracle.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial

import numpy as np

from . import UsageError, pathcount, prng

MAX_DIMENSION = 26
# Largest n searched by compiled CSR Dijkstra; above it the ball search is
# faster.  Mean ms per search, best of 5 interleaved passes on a 2-vCPU x86
# host whose speed swings 1.5x, CSR vs ball search (ranges over 3 runs):
#
#   n    seeds   CSR         ball search
#   11   0-99    0.63-0.83   3.46-4.08
#   12   0-99    1.20-1.25   4.91-5.37
#   13   0-99    1.74-2.32   4.57-6.48
#   14   0-99    5.75-6.86   7.18-8.27   (CSR faster in 3 of 3 runs)
#   15   0-23    14.0-15.4   8.67-9.99
#   16   0-11    34.5-37.9   9.65-13.4
#
# The move from 13 to 14 rests on these per-search timings alone: no
# benchmark workload runs n = 13-15.
CSR_MAX_DIMENSION = 14

PROFILE_BINS = 20
BACKSTEP_DECILES = 10


def _require_dimension(n: int) -> None:
    if not 1 <= n <= MAX_DIMENSION:
        raise UsageError(f"dimension must satisfy 1 <= n <= {MAX_DIMENSION}, got {n}")


@dataclass(frozen=True)
class HypercubeInstance:
    """A seeded random environment on the n-dimensional hypercube."""

    n: int
    seed: int

    def __post_init__(self):
        _require_dimension(self.n)
        prng.require_seeds(self.seed)

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
    """All edge weights as a (2^n, n) array; entry [v, d] is `edge_weight(v, d)` up to one ulp.

    Each edge is drawn once, keyed by its lower endpoint as `edge_weight`
    keys it, in one `prng.exponential_array` call (numpy's log where
    `edge_weight` takes math.log), and written to both endpoints through a
    strided view: along dim d the table splits into blocks of 2^d rows with
    bit d clear, each followed by its 2^d partners with bit d set.
    """
    n = instance.n
    low, dims = _csr_layout(n)[2:]
    weights = prng.exponential_array(instance.seed, low, dims)
    table = np.empty((instance.num_vertices, n))
    for d, drawn in enumerate(weights.reshape(n, -1)):
        table.reshape(-1, 2, 1 << d, n)[..., d] = drawn.reshape(-1, 1, 1 << d)
    return table


@dataclass(frozen=True)
class PolymerPath:
    """A path from all-zeros to all-ones: its vertices, and the signed coordinate and weight of each step.

    Build it with `from_vertices`, the one walk over the vertex pairs: it
    validates them and records each step's coordinate, +(d+1) where it sets
    bit d and -(d+1) where it clears it (a backstep), and edge weight.
    `energy` is the left-to-right sum of `weights`.  General paths may
    revisit vertices; ground-state paths never do.
    """

    vertices: tuple[int, ...]
    steps: tuple[int, ...]
    weights: tuple[float, ...]
    energy: float

    @classmethod
    def from_vertices(cls, instance: HypercubeInstance, vertices) -> "PolymerPath":
        """Raises ValueError unless the walk runs from 0 to the target by single-bit flips."""
        vertices = tuple(vertices)
        if not vertices:
            raise ValueError("path has no vertices")
        if vertices[0] != 0 or vertices[-1] != instance.target:
            raise ValueError(f"path runs from {vertices[0]} to {vertices[-1]}, not from 0 to {instance.target}")
        steps = []
        weights = []
        energy = 0.0  # an explicit loop: sum() of floats is compensated from Python 3.12 on
        for a, b in zip(vertices, vertices[1:]):
            flipped = a ^ b
            if flipped <= 0 or flipped & (flipped - 1):
                raise ValueError(f"step {a} -> {b} does not flip exactly one bit")
            coordinate = flipped.bit_length()
            w = edge_weight(instance, a, coordinate - 1)
            steps.append(coordinate if b > a else -coordinate)
            weights.append(w)
            energy += w
        return cls(vertices=vertices, steps=tuple(steps), weights=tuple(weights), energy=energy)

    @property
    def length(self) -> int:
        return len(self.steps)

    @property
    def backstep_count(self) -> int:
        return sum(1 for step in self.steps if step < 0)

    def is_loopless(self) -> bool:
        return len(set(self.vertices)) == len(self.vertices)


@lru_cache(maxsize=None)
def _csr_layout(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The hypercube's CSR adjacency and the prng keys of its edges: `cols`, `indptr`, `low`, `dims`.

    `cols`, shape (2^n, n), holds each vertex's neighbours.  `low` and
    `dims`, 1-D and 2^(n-1) * n long, key each edge once by its lower
    endpoint and its dimension, in the order `weight_table` writes the
    weights: for each dim d, the vertices with bit d clear, increasing.
    One entry per n, read-only because every trial, on any thread, shares it.
    """
    size = 1 << n
    cols = np.arange(size, dtype=np.int32)[:, None] ^ (np.int32(1) << np.arange(n, dtype=np.int32))
    indptr = np.arange(0, size * n + 1, n, dtype=np.int32)
    half = np.arange(size >> 1, dtype=np.int64)
    low = np.concatenate([((half >> d) << (d + 1)) | (half & ((1 << d) - 1)) for d in range(n)])
    dims = np.repeat(np.arange(n, dtype=np.uint64), size >> 1)
    for array in (cols, indptr, low, dims):
        array.flags.writeable = False
    return cols, indptr, low, dims


# Radius of the first CSR search, set by measurement: the balls meet near
# m_n / 2, about 0.55 at n = 12-14.  Over seeds 0-199, 0.6 took 1.30, 1.21
# and 1.23 Dijkstra calls per search at n = 12, 13 and 14, and E / 2 took
# 1.85-1.90.  Per search (best of 5 interleaved passes over seeds 0-99),
# 0.6 and 0.65 tied; 0.5, 0.8 and E / 2 were 15-30% slower at n = 12 and
# 20-70% slower at n = 13.
_CSR_START_RADIUS = 0.6
# Factor by which the radius grows while the two balls share no edge.  At
# n = 12 one search in ten finds no walk at radius 0.6; its m_n lies in
# 1.24-1.74 (seeds 0-599), so a radius of 0.87 suffices, and doubling to
# 1.2 overshoots.  Vertices labelled per search (both corners) over seeds
# 0-399 at n = 12, 0-199 at n = 13 and 0-99 at n = 14, for factors 2, 1.5,
# 1.4 and 1.3: 1389, 1033, 988, 965 at n = 12; 2101, 1723, 1676, 1642 at
# n = 13; 3259, 2703, 2620, 2561 at n = 14, with 1.31-1.32, 1.21 and 1.20
# Dijkstra calls per search at every factor.
_CSR_GROWTH = 1.3


def _csr_search(instance: HypercubeInstance) -> PolymerPath:
    """Bounded compiled Dijkstra from both corners over the materialized (2^n, n) weight table.

    Each call labels the vertices within `radius` of 0 and of the target
    (scipy's `limit` is inclusive) and finds the cheapest walk through one
    edge between the labelled sets, `upper`, scanning only the rows
    labelled from 0: every other row's walks cost inf, and the kept rows
    stay in increasing order, so argmin picks the edge a scan of the whole
    table would.  Once upper <= 2 * radius,
    upper = m_n: on the optimal path, the last vertex u with d_0(u) <= m_n / 2
    is labelled from 0 and its successor v, with d_1(v) < m_n / 2, from the
    target.  Otherwise the radius becomes upper / 2, or grows by
    _CSR_GROWTH while no walk was found, and the search runs again.
    """
    # scipy is imported here, not at module level: only this engine uses it,
    # and its sparse-graph modules double the start-up time and peak memory
    # of every command that never searches n <= CSR_MAX_DIMENSION.
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    n = instance.n
    size = instance.num_vertices
    table = weight_table(instance)
    cols, indptr = _csr_layout(n)[:2]
    graph = csr_matrix((table.ravel(), cols.ravel(), indptr), shape=(size, size))
    radius = _CSR_START_RADIUS
    while True:
        dist, pred = dijkstra(graph, indices=[0, instance.target], limit=radius, return_predecessors=True)
        rows = np.flatnonzero(np.isfinite(dist[0]))  # labelled from 0, increasing
        walks = dist[1][cols[rows]]
        walks += table[rows]
        walks += dist[0][rows, None]
        meet = int(walks.argmin())
        upper = float(walks.flat[meet])
        if upper <= 2 * radius:
            break
        radius = upper / 2 if math.isfinite(upper) else _CSR_GROWTH * radius
    u = int(rows[meet // n])
    v = int(cols[u, meet % n])
    vertices = _chain(pred[0].__getitem__, u)[::-1] + _chain(pred[1].__getitem__, v)
    return PolymerPath.from_vertices(instance, vertices)


def _chain(pred_of, vertex: int) -> list[int]:
    """The vertices from `vertex` back to the source; `pred_of` gives each one's predecessor, -1 at the source."""
    out = []
    while vertex >= 0:
        out.append(vertex)
        vertex = int(pred_of(vertex))
    return out


def _lookup(ids: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of each key in the sorted `ids` (any index where absent), and whether it is present."""
    pos = np.minimum(np.searchsorted(ids, keys), len(ids) - 1)
    return pos, ids[pos] == keys


def _joined(parts: list[tuple]) -> tuple:
    """Concatenate a list of equally long tuples of arrays, entry by entry."""
    return parts[0] if len(parts) == 1 else tuple(map(np.concatenate, zip(*parts)))


# Frontier vertices relaxed at once: bounds the temporaries of a round
# (about a dozen arrays of block * n entries) whatever the frontier size.
_RELAX_BLOCK = 1 << 13


class _Ball:
    """The labelled vertices of the ball around one corner.

    `keys` are the vertices, sorted; `dist` is each one's exact distance
    from the corner and `pred` the previous vertex, -1 at the corner.
    `radius` bounds every stored label.  `pending` lists (key, dist, pred)
    arrays of the labels found beyond the radius; a key may repeat, and a
    key the ball has since labelled is stale.
    """

    def __init__(self, corner: int):
        self.keys = np.array([corner], dtype=np.int64)
        self.dist = np.zeros(1)
        self.pred = np.full(1, -1, dtype=np.int64)
        self.radius = 0.0
        self.pending = []

    def pred_of(self, vertex: int) -> int:
        """The stored predecessor of a labelled vertex, -1 at the corner."""
        return self.pred[np.searchsorted(self.keys, vertex)]

    def lower(self, keys: np.ndarray, dist: np.ndarray, pred: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Store each key's cheapest candidate label where it beats the stored one; return those keys and labels."""
        if not len(keys):
            return keys, dist
        order = np.lexsort((dist, keys))  # stable: a tie keeps the first candidate
        keys, dist, pred = keys[order], dist[order], pred[order]
        first = np.ones(len(keys), dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        pick = np.flatnonzero(first)
        pos, known = _lookup(self.keys, keys[pick])
        better = ~known | (dist[pick] < self.dist[pos])
        pick, pos, known = pick[better], pos[better], known[better]
        keys, dist, pred = keys[pick], dist[pick], pred[pick]
        if known.any():
            self.dist[pos[known]] = dist[known]
            self.pred[pos[known]] = pred[known]
        new = ~known
        at = np.searchsorted(self.keys, keys[new]) + np.arange(np.count_nonzero(new))  # places after the merge
        old = np.ones(len(self.keys) + len(at), dtype=bool)
        old[at] = False
        self.keys, self.dist, self.pred = (
            _merged(stored, old, at, values[new])
            for stored, values in ((self.keys, keys), (self.dist, dist), (self.pred, pred))
        )
        return keys, dist


class _BallSearch:
    """Grows a ball around each corner until the cheapest edge between them is certified.

    `balls[0]` grows around 0 and `balls[1]` around the target.  They grow
    by Delta-stepping (Meyer & Sanders 2003).  A phase raises the radius of
    the smaller ball (ball 0 on a tie) so that as many pending labels join
    as the ball holds, then runs label-correcting rounds until no label
    within its radius falls; the other ball stays as it is.  Every relaxed
    edge that reaches the other ball closes a corner-to-corner walk, and
    `upper` is the cheapest one seen.  Once radius_0 + radius_1 >= upper,
    upper = m_n: the optimal path leaves ball 0 along an edge into ball 1,
    and that edge was relaxed from whichever endpoint was labelled last,
    with both labels exact.  So no label of a ball above upper minus the
    other ball's radius is ever needed; such labels are dropped.
    """

    def __init__(self, instance: HypercubeInstance):
        n = instance.n
        self.n = n
        self.seed = instance.seed
        self.bits = np.int64(1) << np.arange(n, dtype=np.int64)
        # an edge's second prng key, its dimension, frontier vertex by vertex
        self.dim_cycle = np.tile(np.arange(n, dtype=np.uint64), min(_RELAX_BLOCK, instance.num_vertices))
        self.balls = (_Ball(0), _Ball(instance.target))
        self.upper = math.inf
        self.meet = (-1, -1)  # the cheapest edge's endpoints, in ball 0 and in ball 1

    def vertices(self) -> list[int]:
        for side, ball in enumerate(self.balls):
            self._settle(side, ball.keys, ball.dist)
        while not self._certified():
            self._grow()
        return _chain(self.balls[0].pred_of, self.meet[0])[::-1] + _chain(self.balls[1].pred_of, self.meet[1])

    def _certified(self) -> bool:
        """radius_0 + radius_1 >= upper, compared the way _grow computes a cap,
        so that a ball grown to its cap ends the search despite rounding."""
        radius_0, radius_1 = (ball.radius for ball in self.balls)
        return self.upper - radius_1 <= radius_0 or self.upper - radius_0 <= radius_1

    def _grow(self) -> None:
        """One phase: the smaller ball (ball 0 on a tie) takes as many live pending labels as it holds."""
        side = int(len(self.balls[1].keys) < len(self.balls[0].keys))
        ball = self.balls[side]
        cap = self.upper - self.balls[1 - side].radius
        k = len(ball.keys)
        keys, dist, pred = _joined(ball.pending)
        _, stale = _lookup(ball.keys, keys)
        live = ~stale & (dist <= cap)
        keys, dist, pred = keys[live], dist[live], pred[live]
        if len(dist) > k:
            ball.radius = float(np.partition(dist, k - 1)[k - 1])
        elif math.isfinite(cap) or not len(dist):  # every useful label joins: go to the cap
            ball.radius = cap
        else:
            ball.radius = float(dist.max())
        join = dist <= ball.radius
        ball.pending = [(keys[~join], dist[~join], pred[~join])]
        self._settle(side, *ball.lower(keys[join], dist[join], pred[join]))

    def _settle(self, side: int, keys: np.ndarray, dist: np.ndarray) -> None:
        """Label-correcting rounds from the given frontier of a ball until no label within its radius falls."""
        while len(keys):
            found = [
                self._relax(side, keys[i : i + _RELAX_BLOCK], dist[i : i + _RELAX_BLOCK])
                for i in range(0, len(keys), _RELAX_BLOCK)
            ]
            keys, dist = self.balls[side].lower(*_joined(found))

    def _relax(self, side: int, frontier: np.ndarray, frontier_dist: np.ndarray) -> tuple[np.ndarray, ...]:
        """Relax the n edges at each vertex of the ball's sorted frontier; return the labels within its radius.

        Records the walks that reach the other ball in `upper` and keeps the
        labels beyond the radius pending.
        """
        ball, other = self.balls[side], self.balls[1 - side]
        keys = (frontier[:, None] ^ self.bits).ravel()
        pred = np.repeat(frontier, self.n)
        dist = np.repeat(frontier_dist, self.n) + prng.exponential_array(
            self.seed, keys & pred, self.dim_cycle[: len(keys)]  # the lower endpoint is the edge's first prng key
        )
        pos, hit = _lookup(other.keys, keys)
        total = np.where(hit, dist + other.dist[pos], math.inf)
        i = int(total.argmin())
        if total[i] < self.upper:
            self.upper = float(total[i])
            ends = (int(pred[i]), int(keys[i]))
            self.meet = ends if side == 0 else ends[::-1]
        useful = dist <= self.upper - other.radius
        beyond = useful & (dist > ball.radius)
        ball.pending.append((keys[beyond], dist[beyond], pred[beyond]))
        within = useful & ~beyond
        return keys[within], dist[within], pred[within]


def _merged(stored: np.ndarray, old: np.ndarray, at: np.ndarray, values: np.ndarray) -> np.ndarray:
    """`stored` at the positions flagged in `old`, `values` at the positions `at`."""
    out = np.empty(len(old), dtype=stored.dtype)
    out[old] = stored
    out[at] = values
    return out


def _ball_search(instance: HypercubeInstance) -> PolymerPath:
    return PolymerPath.from_vertices(instance, _BallSearch(instance).vertices())


def ground_state(instance: HypercubeInstance) -> PolymerPath:
    """One minimal-energy path between the antipodal corners; m_n is its `energy`.

    The engine follows from n alone.  Both label only two balls around the
    corners, with radii summing to m_n ~ 0.9.  Up to CSR_MAX_DIMENSION,
    bounded compiled sparse Dijkstra from both corners over the full weight
    table is fastest: its per-trial cost is small and most of it runs in
    compiled code, but drawing the table's 2^(n-1) * n edges costs time and
    memory in 2^n, and from n = 12 on it takes half a search or more.
    Above it, the ball search grows the smaller ball per phase and relaxes
    a whole frontier of it per numpy round with weights drawn on demand, so
    its time and memory scale with the balls, not with 2^n.  Both engines
    find the same minimizer, and its energy is the path-order weight sum,
    which both engines and the exhaustive oracle reproduce bit-for-bit.
    Any vertex repeat could be spliced out for a cheaper path, so
    minimizers are loopless.
    """
    if instance.n <= CSR_MAX_DIMENSION:
        return _csr_search(instance)
    return _ball_search(instance)


def brute_force_ground_state(instance: HypercubeInstance) -> PolymerPath:
    """Exhaustive search over all simple paths; exact oracle for n <= 4."""
    if instance.n > 4:
        raise UsageError(f"brute force limited to n <= 4, got {instance.n}")
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
    half = (l + 1) // 2
    bin_sums = [0.0] * PROFILE_BINS
    bin_counts = [0] * PROFILE_BINS
    deciles = [0] * BACKSTEP_DECILES
    depth = 0
    first_half_energy = 0.0
    for j, (step, w) in enumerate(zip(path.steps, path.weights), start=1):
        depth += 1 if step > 0 else -1  # d_j, the sum of the first j step signs
        bin_index = min(PROFILE_BINS - 1, int(j / l * PROFILE_BINS))
        bin_sums[bin_index] += depth / n
        bin_counts[bin_index] += 1
        if step < 0:
            deciles[min(BACKSTEP_DECILES - 1, int((j - 0.5) / l * BACKSTEP_DECILES))] += 1
        if j <= half:
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
    bin_counts = np.count_nonzero(~np.isnan(bins), axis=0)
    with np.errstate(invalid="ignore"):  # 0/0 is the NaN of a bin that no trial filled
        bin_mean = np.nansum(bins, axis=0) / bin_counts
        bin_se = np.sqrt(np.nansum((bins - bin_mean) ** 2, axis=0)) / bin_counts
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
    same records; aggregation consumes them in trial order.  They run on
    min(parallelism, trials, cores) threads.
    """
    _require_dimension(n)
    if trials < 1:
        raise UsageError(f"need at least one trial, got {trials}")
    if parallelism < 1:
        raise UsageError(f"parallelism must be positive, got {parallelism}")
    prng.require_seeds(base_seed, trials)
    workers = min(parallelism, trials, os.cpu_count() or 1)
    if workers == 1:  # a 1-worker pool raised peak RSS by 6-7 MiB in 8 s runs of simulate --n 20
        records = [run_trial(n, base_seed + t, t) for t in range(trials)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(lambda t: run_trial(n, base_seed + t, t), range(trials)))
    return records, aggregate_records(records, base_seed)


def directed_overlap_envelopes(n: int) -> list[tuple[int, int, int, bool, bool]]:
    """(k, F(n,k), coarse bound, coarse ok, refined ok for k <= n^(1/4)) rows, F from `pathcount`.

    Coarse: F(n,k) <= (n-k)! C(n,k); refined, checked only for k <= n^{1/4}: F(n,k) <= 2 (n-k)! (k+1).
    It stays beside the engine because the benchmark's tracer wraps it by this name.
    """
    counts = pathcount.directed_overlap_table(n)
    rows = []
    for k, f in enumerate(counts):
        coarse = factorial(n - k) * comb(n, k)
        refined_ok = k > n**0.25 or f <= 2 * factorial(n - k) * (k + 1)
        rows.append((k, f, coarse, f <= coarse, refined_ok))
    return rows
