"""Probability kernels for sums of Exp(1) edge weights.

Covers the Erlang lower tail with its sharp multiplicative correction, the
joint small-energy probability of two paths sharing part of their edges
(exact as a positive series summed in log space, leading-order in closed
form, and by a seeded Monte Carlo oracle), and the ratio that the shift
inequality bounds between thresholds a and a + b.  The exact kernels come
as logs, finite for every valid input; the probabilities are their exp.
"""

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import UsageError, prng


@dataclass(frozen=True)
class OverlapSpec:
    """Two paths of length l sharing k edges, tested at energy threshold x."""

    l: int
    k: int
    x: float

    def __post_init__(self):
        if self.l < 1:
            raise UsageError(f"path length must be positive, got l={self.l}")
        if not 0 <= self.k <= self.l:
            raise UsageError(f"shared edges must satisfy 0 <= k <= l, got k={self.k}")
        if not 0.0 < self.x < math.inf:
            raise UsageError(f"energy threshold must be positive and finite, got x={self.x}")


def erlang_tail_ratio(l: int, x: float) -> float:
    """Correction K(x,l) in P(X_l <= x) = (1 + K(x,l)) e^{-x} x^l / l!.

    Evaluated by the positive series K = sum_{m>=1} x^m l!/(l+m)!, which
    converges geometrically; satisfies 0 <= K(x,l) <= e^x x/(l+1).  For
    x < l, where erlang_cdf uses it, every term is below 1.  Far above l the
    terms overflow and the loop gives up after 10^5 terms with
    ArithmeticError (l = 1, x = 1000).
    """
    if l < 1:
        raise UsageError(f"l must be positive, got {l}")
    if not 0.0 < x < math.inf:
        raise UsageError(f"x must be positive and finite, got {x}")
    term = 1.0
    total = 0.0
    for m in range(1, 100001):
        term *= x / (l + m)
        total += term
        if term < 1e-18 * max(total, 1e-300):
            return total
    raise ArithmeticError("tail ratio series failed to converge")


def _log_erlang_sf(l: int, x: float) -> float:
    """log P(X_l > x) for x >= l: the log of the Poisson masses at 0, ..., l - 1.

    They are streamed downward from the largest, at l - 1, as ratios to it,
    so that none overflows and the sum stays positive.
    """
    top = -x + (l - 1) * math.log(x) - math.lgamma(l)
    masses = itertools.accumulate(range(l - 1, 0, -1), lambda term, j: term * (j / x), initial=1.0)
    return top + math.log(math.fsum(masses))


def log_erlang_cdf(l: int, x: float) -> float:
    """log P(X_l <= x) for X_l a sum of l independent Exp(1) variables; -inf at x = 0.

    Series branch for x < l (no cancellation, exact in the deep tail);
    otherwise log1p of minus the upper tail, the Poisson masses at
    0, ..., l - 1.  Finite for every positive x, however small or large.
    """
    if l < 1:
        raise UsageError(f"l must be positive, got {l}")
    if not 0.0 <= x < math.inf:
        raise UsageError(f"x must be nonnegative and finite, got {x}")
    if x == 0.0:
        return -math.inf
    if x < l:
        return (-x + l * math.log(x) - math.lgamma(l + 1)) + math.log1p(erlang_tail_ratio(l, x))
    return math.log1p(-math.exp(_log_erlang_sf(l, x)))


def erlang_cdf(l: int, x: float) -> float:
    """P(X_l <= x), the exp of `log_erlang_cdf`."""
    return math.exp(log_erlang_cdf(l, x))


def overlap_g(gamma: float) -> float:
    """Overlap penalty {4(1-g)}^{1-g} / (2-g)^{2-g}, with 0^0 = 1 at g = 1.

    Bounded by 1 on [0, 1], with equality exactly at the endpoints.
    """
    if not 0.0 <= gamma <= 1.0:
        raise UsageError(f"gamma must lie in [0, 1], got {gamma}")
    if gamma == 1.0:
        return 1.0
    u = 1.0 - gamma
    return (4.0 * u) ** u / (2.0 - gamma) ** (2.0 - gamma)


_LOG_2 = math.log(2.0)
# A probability within 2^-54 of 1, half the spacing of the floats just below 1, rounds to 1.0.
_LOG_HALF_ULP_BELOW_1 = -54 * _LOG_2
# Each of the four tails the series drops sums to below 2^-60 of the probability.
_LOG_SERIES_TAIL = -60 * _LOG_2
# Entries of the (N, j) table formed at once: 0.5 MiB an array, whatever the number of terms.
_TABLE_BLOCK = 1 << 16


def _log_factorials(start: int, count: int) -> np.ndarray:
    """log j! for j = start, ..., start + count - 1, each from its own lgamma so that no error accumulates."""
    return np.fromiter(map(math.lgamma, range(start + 1, start + count + 1)), float, count)


def _log_chernoff(n: int, a: float) -> float:
    """log e^{-n KL(a || 1/2)}: the Chernoff bound on P(Bin(n, 1/2) >= a n) for a >= 1/2,
    and on P(Bin(n, 1/2) <= a n) for a <= 1/2."""
    return -n * (_LOG_2 + sum(p * math.log(p) for p in (a, 1.0 - a) if p > 0.0))


def _first_true(lo: int, key: Callable[[int], bool]) -> int:
    """The least n >= lo with key(n), for key false and then true: steps doubling from lo, then bisection."""
    hi, step = lo, 1
    while not key(hi):
        lo, hi, step = hi + 1, hi + step, 2 * step
    return lo + bisect.bisect_left(range(lo, hi), True, key=key)


def log_overlap_probability(spec: OverlapSpec) -> float:
    """log P(X_l <= x, X'_l <= x) for two sums sharing the first k terms.

    k = 0 is the independent square and k = l the single CDF.  For 0 < k < l
    and m = l - k, conditioning on the shared trunk T ~ Gamma(k) and
    expanding P(X_m <= y)^2 = e^{-2y} sum_{a,b >= m} y^{a+b}/(a! b!) and
    e^t term by term gives the positive series

        P = e^{-2x} sum_{N >= 2m+k} D_N x^N / N!,
        D_N = sum_s W_s C(N-s-1, k-1),  W_s = sum_{a=m}^{s-m} C(s, a).

    Scaled by 2^N it reads P = sum_N pi(N) sum_j nb(j) w(N - j), with pi the
    Poisson(2x) masses, nb(j) = C(j-1, k-1) / 2^j the law of the trial of
    the k-th head in fair coin tosses, and w(s) = W_s / 2^s = P(m <=
    Bin(s, 1/2) <= s - m).  Every term is positive, so the sum is formed in
    log space, where nothing cancels, underflows or overflows.  w comes from
    one prefix sum of the positive increments C(s, m-1) / 2^s; each nb and pi
    from its own lgamma values.

    The sum keeps N and j where pi and nb have their mass: each tail it drops
    is bounded, by a geometric series for pi above, by Chernoff bounds for pi
    below and for nb on both sides, and each falls below 2^-60 of a lower
    bound on P: its first term, or P(X_l <= x)^2 (both events fall as the
    shared weights grow, so Harris's inequality applies).  The (N, j) table
    is formed in blocks of _TABLE_BLOCK entries, so memory stays linear in
    the number of terms.  Where 2 P(X_l > x), which bounds 1 - P from above,
    is below half the float spacing under 1, P rounds to 1 and the log is
    exactly 0.0.

    Accuracy: each term carries the rounding of its lgamma values, of size
    up to log N!, so the relative error is of order 1e-16 log N! at the
    largest N summed, whatever k.  Against exact integer coefficients at 40
    digits it was at most 1.3e-12 for l <= 2000 (N up to about 4,400).
    """
    l, k, x = spec.l, spec.k, spec.x
    if k == 0:
        return 2.0 * log_erlang_cdf(l, x)
    if k == l:
        return log_erlang_cdf(l, x)
    if x >= l and _LOG_2 + _log_erlang_sf(l, x) < _LOG_HALF_ULP_BELOW_1:
        return 0.0
    m = l - k
    first = 2 * m + k
    log_x, lam = math.log(x), 2.0 * x
    log_first = math.lgamma(2 * m + 1) - 2.0 * math.lgamma(m + 1) + first * log_x - math.lgamma(first + 1) - lam
    floor = max(log_first, 2.0 * log_erlang_cdf(l, x)) + _LOG_SERIES_TAIL

    def poisson_above_negligible(last: int) -> bool:
        # the masses past `last` under a geometric series: valid, and falling, for last >= lam
        log_tail = -lam + (last + 1) * math.log(lam) - math.lgamma(last + 2) - math.log1p(-lam / (last + 2))
        return log_tail <= floor

    n_hi = _first_true(max(first, math.ceil(lam)), poisson_above_negligible)
    j_max = n_hi - 2 * m  # the longest trunk that leaves both completions m steps
    # below the mean, P(Poisson <= n) <= e^{-lam} (e lam / n)^n; P(nb <= j) = P(Bin(j, 1/2) >= k)
    # and P(nb > j) = P(Bin(j, 1/2) < k)
    n_lo = _first_true(first, lambda n: n >= lam or n - lam + n * math.log(lam / n) > floor)
    j_lo = _first_true(k, lambda j: j >= 2 * k or _log_chernoff(j, k / j) > floor)
    j_hi = _first_true(max(k, 2 * k - 2), lambda j: j >= j_max or _log_chernoff(j, (k - 1) / j) <= floor)
    j_hi = min(j_hi, j_max)
    n_lo = max(n_lo, j_lo + 2 * m)
    rows, width, count = n_hi - n_lo + 1, j_hi - j_lo + 1, j_max - k + 1
    # log w(s) for s = 2m, ..., n_hi - k, after width - 1 entries of log 0 so that every row has a full window
    s = np.arange(2 * m - 1, 2 * m - 1 + count)
    log_increments = _log_factorials(2 * m - 1, count) - math.lgamma(m) - _log_factorials(m, count) - s * _LOG_2
    log_w = np.concatenate((np.full(width - 1, -np.inf), np.logaddexp.accumulate(log_increments)))
    j = np.arange(j_lo, j_hi + 1)
    log_nb = _log_factorials(j_lo - 1, width) - math.lgamma(k) - _log_factorials(j_lo - k, width) - j * _LOG_2
    # row N: log w(N - j) for j = j_hi, ..., j_lo, beside log nb(j) in the same order
    offset = n_lo - j_lo - 2 * m
    windows = sliding_window_view(log_w, width)[offset : offset + rows]
    log_nb = log_nb[::-1]
    log_pi = np.arange(n_lo, n_hi + 1) * math.log(lam) - _log_factorials(n_lo, rows) - lam
    step = max(1, _TABLE_BLOCK // width)
    tops, sums = np.empty((2, -(-rows // step)))
    for b, r in enumerate(range(0, rows, step)):
        table = windows[r : r + step] + log_nb + log_pi[r : r + step, None]
        tops[b] = table.max()
        sums[b] = np.exp(table - tops[b]).sum()
    top = tops.max()
    # each log carries rounding of order 1e-16 of log N!: 3.9e-14 at (5, 3, 50), where
    # P = 1 - 1e-16 came out above 1 unclamped
    return min(top + math.log(np.dot(np.exp(tops - top), sums)), 0.0)


def overlap_probability_exact(spec: OverlapSpec) -> float:
    """P(X_l <= x, X'_l <= x), the exp of `log_overlap_probability`."""
    return math.exp(log_overlap_probability(spec))


def log_overlap_probability_leading(spec: OverlapSpec) -> float:
    """log of the leading form x^{2l-k} / ((l-k)! l!) g(k/l)^l.

    Proportional to the exact probability as x -> 0, with an order-one
    constant that the exact/leading ratio tests pin down numerically.
    """
    l, k, x = spec.l, spec.k, spec.x
    if not 1 <= k <= l - 1:
        raise UsageError(f"leading form needs 1 <= k <= l-1, got k={k}, l={l}")
    return (
        (2 * l - k) * math.log(x)
        - math.lgamma(l - k + 1)
        - math.lgamma(l + 1)
        + l * math.log(overlap_g(k / l))
    )


def overlap_probability_leading(spec: OverlapSpec) -> float:
    """The leading form itself; inf where it exceeds the float range."""
    log_value = log_overlap_probability_leading(spec)
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


class McEstimate(NamedTuple):
    estimate: float
    stderr: float


# Trials drawn at once: bounds what a call holds, one buffer of eight rows of
# a block's length (2.0 MiB, see _McBlock), whatever the trial count.  Over
# the 132 overlap_grid cells at 3e5 trials, alternating in one process, 2^15
# took 5% less time than 2^14 (median of 8 passes, 2-vCPU x86).  Best of 5
# over 27 of the cells, two sessions: 782-788 ms at 2^12, 560-562 at 2^13,
# 392-471 at 2^14, 361-434 at 2^15 and 401-429 at 2^16, with peak RSS 28.3,
# 28.5, 29.1, 30.1 and 31.9 MiB; 2^16 was no faster and holds 1.8 MiB more.
# Those figures were taken with the nine-row buffer of a prefix-sum cull.
_MC_BLOCK = 1 << 15
# Added to a culled trial's slot, so that it sorts after every live one: slots are below 2^40.
_DEAD = 1 << 40


def _survivor_slots(dead: np.ndarray, slots: np.ndarray, out: np.ndarray, kept: int) -> np.ndarray:
    """The slots of the `kept` trials not flagged `dead`, in no set order: a view of out[:kept].

    out[i] becomes slots[i], plus _DEAD where dead[i], and an in-place
    selection moves the `kept` smallest to the front.  Nothing is allocated:
    the flags are cast by assignment, and the arithmetic is int64 throughout,
    since a mixed-dtype ufunc buffers its cast.
    """
    out[...] = dead
    out *= _DEAD
    out += slots
    out.partition(kept - 1)
    return out[:kept]


class _McBlock:
    """The arrays that every block of one `overlap_probability_mc` call works in.

    They are the rows of one buffer of eight rows of size + 1 words (2.0 MiB
    at _MC_BLOCK), allocated once per call, so the block loop allocates no
    array.  One allocation, not several, keeps the pages from one call to
    the next.  glibc serves a process's first buffer by mmap, and freeing it
    raises its mmap threshold to the buffer's size and its trim threshold to
    twice that; later buffers then come from the heap, which keeps the freed
    buffer below that trim threshold.  Eight separate arrays of at most a
    quarter MiB raised the trim threshold only to about half a MiB, so the
    heap gave back their 2 MiB after every call and the next call faulted it
    in again: about 395 minor faults a 3e5-trial call, against none from the
    third call on (2-vCPU x86, glibc 2.36; heap sizes read with mallinfo2).

    The n trials still alive sit in slots 1, ..., n of the keys, trunk sums
    and tail sums.  Culling flags the dead trials in the bytes of the
    kernel's scratch row, free between draws, selects the survivors' slots
    into the front of `idx` (`_survivor_slots`) and gathers keys and sums
    through them into the front of a free row of the same kind, which then
    takes the place of the one culled.  Their order does not matter: each
    trial's sums come from its own keyed draws, and a block counts its hits.
    """

    def __init__(self, size: int):
        buffer = np.empty((8, size + 1), dtype=np.uint64)
        self.offsets, self.keys, self.scratch = buffer[:3]
        self.trunk, self.tail, self.draw, self.spare = buffer[3:7].view(np.float64)
        self.idx = buffer[7].view(np.int64)
        self.offsets[...] = np.arange(size + 1, dtype=np.uint64)
        self.slots = self.offsets.view(np.int64)  # slot j holds j

    def hits(self, spec: OverlapSpec, seed: int, start: int, count: int) -> int:
        """How many of the trials start, ..., start + count - 1 have both paths at most x.

        A trial draws only while it is alive, and the block stops at the
        first component that leaves none alive.  Each sum starts as its
        first draw (0.0 + d is d) and adds the later ones in order.
        """
        l, k, x = spec.l, spec.k, spec.x
        keys, scratch, trunk, tail, draw, spare = self.keys, self.scratch, self.trunk, self.tail, self.draw, self.spare
        slots, idx = self.slots, self.idx
        n = count
        np.add(self.offsets[:n], np.uint64(start), out=keys[1 : n + 1])
        if k == 0:
            trunk[1 : n + 1] = 0.0
        last = 2 * l - k - 1
        # components 0, ..., k - 1 are the shared trunk, then k, ..., l - 1 and
        # l, ..., last the two completions; 0, k and l each start a sum
        for component in range(last + 1):
            live = slice(1, n + 1)
            in_trunk = component < k
            sums = trunk if in_trunk else tail
            fresh = component in (0, k, l)
            drawn = prng.exponential_array(
                seed, keys[live], component, out=(sums if fresh else draw)[live], scratch=scratch[live]
            )
            if not fresh:
                sums[live] += drawn
            total = trunk[live] if in_trunk else np.add(trunk[live], tail[live], out=draw[live])
            # the kernel's scratch, free between draws, holds the flags and then the keys
            dead = np.greater(total, x, out=scratch.view(bool)[live])
            kept = n - int(np.count_nonzero(dead))
            if kept == 0:
                return 0
            if kept < n and component < last:
                survivors = _survivor_slots(dead, slots[live], idx[live], kept)
                moved = slice(1, kept + 1)
                # mode="clip" writes straight into `out`; the default buffers it
                np.take(keys, survivors, out=scratch[moved], mode="clip")
                np.take(trunk, survivors, out=spare[moved], mode="clip")
                keys, scratch, trunk, spare = scratch, keys, spare, trunk
                if not in_trunk:
                    np.take(tail, survivors, out=draw[moved], mode="clip")
                    tail, draw = draw, tail
            n = kept
        return n


def overlap_probability_mc(spec: OverlapSpec, trials: int, seed: int) -> McEstimate:
    """Monte Carlo oracle: shared trunk plus two independent completions.

    Deterministic given the seed: draw j of trial t comes from the splittable
    stream keyed by (seed, t, j).  Returns the indicator mean and its
    binomial standard error.

    Trials run in blocks of _MC_BLOCK, and a trial stops drawing as soon as
    its trunk, or its trunk plus a partial completion, exceeds x; a block
    stops at the first component that leaves no trial alive.  Every
    draw is strictly positive and IEEE addition is monotone, so a partial
    sum above x stays above it: a dropped trial could never hit.  The sums
    of the trials kept are formed from the same draws in the same order as
    the full sums, so the estimate is bit-identical to drawing every
    component for every trial, and does not depend on the block size.
    """
    if trials < 10**4:
        raise UsageError(f"need at least 1e4 trials, got {trials}")
    prng.require_seeds(seed)
    block = _McBlock(min(_MC_BLOCK, trials))
    hits = sum(
        block.hits(spec, seed, start, min(_MC_BLOCK, trials - start)) for start in range(0, trials, _MC_BLOCK)
    )
    estimate = hits / trials
    stderr = math.sqrt(estimate * (1.0 - estimate) / trials)
    return McEstimate(estimate=estimate, stderr=stderr)


def shift_ratio(l: int, k: int, a: float, b: float) -> float:
    """lhs / [P(both <= a) (1 + b/a)^{2l-k}] for lhs = P(both <= a+b).

    The shift inequality bounds this ratio by an unspecified order-one
    constant; `checks.shift_inequality` judges it.  Formed from logs, so it
    stays defined where both probabilities underflow.
    """
    if not 1 <= k <= l:
        raise UsageError(f"need 1 <= k <= l, got k={k}, l={l}")
    if not (a > 0.0 and b > 0.0):
        raise UsageError(f"shifts must be positive, got a={a}, b={b}")
    log_lhs = log_overlap_probability(OverlapSpec(l=l, k=k, x=a + b))
    log_base = log_overlap_probability(OverlapSpec(l=l, k=k, x=a))
    return math.exp(log_lhs - log_base - (2 * l - k) * math.log1p(b / a))
