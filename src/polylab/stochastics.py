"""Probability kernels for sums of Exp(1) edge weights.

Covers the Erlang lower tail with its sharp multiplicative correction, the
joint small-energy probability of two paths sharing part of their edges
(exact by adaptive quadrature, leading-order in closed form, and by a
seeded Monte Carlo oracle), and the ratio that the shift inequality
bounds between thresholds a and a + b.
"""

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import integrate

from . import UsageError, prng


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested accuracy."""


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


def erlang_cdf(l: int, x: float) -> float:
    """P(X_l <= x) for X_l a sum of l independent Exp(1) variables.

    Series branch for x < l (no cancellation, exact in the deep tail);
    otherwise the complement of the Poisson masses at 0, ..., l - 1, formed
    downward from the largest in log space so that none overflows.
    """
    if l < 1:
        raise UsageError(f"l must be positive, got {l}")
    if not 0.0 <= x < math.inf:
        raise UsageError(f"x must be nonnegative and finite, got {x}")
    if x == 0.0:
        return 0.0
    if x < l:
        k = erlang_tail_ratio(l, x)
        return (1.0 + k) * math.exp(-x + l * math.log(x) - math.lgamma(l + 1))
    top = math.exp(-x + (l - 1) * math.log(x) - math.lgamma(l))  # Poisson mass at l - 1, the largest
    masses = itertools.accumulate(range(l - 1, 0, -1), lambda term, j: term * (j / x), initial=top)
    return 1.0 - math.fsum(masses)


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


def overlap_probability_exact(spec: OverlapSpec) -> float:
    """P(X_l <= x, X'_l <= x) for two sums sharing the first k terms.

    Conditioning on the shared trunk gives
    int_0^x P(X_{l-k} <= x - t)^2 t^{k-1} e^{-t}/(k-1)! dt for 0 < k < l;
    k = 0 is the independent square and k = l the single CDF.  Quadrature is
    adaptive Gauss-Kronrod with relative target 1e-10 and absolute floor
    1e-300; non-convergence raises QuadratureError.
    """
    l, k, x = spec.l, spec.k, spec.x
    if k == 0:
        return erlang_cdf(l, x) ** 2
    if k == l:
        return erlang_cdf(l, x)
    log_gamma_k = math.lgamma(k)

    def integrand(t: float) -> float:
        if t <= 0.0:  # a subnormal x rounds a Gauss-Kronrod node onto t = 0
            tail = erlang_cdf(l - 1, x) if k == 1 else 0.0
            return tail * tail
        tail = erlang_cdf(l - k, max(x - t, 0.0))
        return tail * tail * math.exp((k - 1) * math.log(t) - t - log_gamma_k)

    value, abserr = integrate.quad(integrand, 0.0, x, epsabs=1e-300, epsrel=1e-10, limit=200)
    if abserr > max(1e-12, 1e-8 * abs(value)):
        raise QuadratureError(f"quadrature error {abserr:.3e} too large for value {value:.3e}")
    return min(value, 1.0)  # the quadrature's rounding can carry a probability near 1 a few ulps above it


def overlap_probability_leading(spec: OverlapSpec) -> float:
    """Leading form x^{2l-k} / ((l-k)! l!) g(k/l)^l, evaluated in log space.

    Proportional to the exact probability as x -> 0, with an order-one
    constant that the exact/leading ratio tests pin down numerically.
    """
    l, k, x = spec.l, spec.k, spec.x
    if not 1 <= k <= l - 1:
        raise UsageError(f"leading form needs 1 <= k <= l-1, got k={k}, l={l}")
    log_value = (
        (2 * l - k) * math.log(x)
        - math.lgamma(l - k + 1)
        - math.lgamma(l + 1)
        + l * math.log(overlap_g(k / l))
    )
    return math.exp(log_value)


class McEstimate(NamedTuple):
    estimate: float
    stderr: float


# Trials drawn at once: bounds the arrays of a block (at most about 56 bytes
# a trial, 0.9 MiB) whatever the trial count.  On the criterion-08 grid at
# 3e5 trials a cell took 19 ms at 2^14, against 34 ms at 2^12 and 23-27 ms
# at 2^16-2^20 (2-vCPU x86).
_MC_BLOCK = 1 << 14


def _overlap_hits(idx: np.ndarray, spec: OverlapSpec, seed: int) -> int:
    """How many trials among idx have both paths at most x; draws only for trials still alive."""
    l, k, x = spec.l, spec.k, spec.x
    trunk = np.zeros(len(idx))
    for component in range(k):
        trunk += prng.exponential_array(seed, idx, component)
        alive = np.flatnonzero(trunk <= x)
        idx, trunk = idx[alive], trunk[alive]
    for first in (k, l):  # the first component of each completion
        tail = np.zeros(len(idx))
        for component in range(first, first + l - k):
            tail += prng.exponential_array(seed, idx, component)
            alive = np.flatnonzero(trunk + tail <= x)
            idx, trunk, tail = idx[alive], trunk[alive], tail[alive]
    return len(idx)


def overlap_probability_mc(spec: OverlapSpec, trials: int, seed: int) -> McEstimate:
    """Monte Carlo oracle: shared trunk plus two independent completions.

    Deterministic given the seed: draw j of trial t comes from the splittable
    stream keyed by (seed, t, j).  Returns the indicator mean and its
    binomial standard error.

    Trials run in blocks of _MC_BLOCK, and a trial stops drawing as soon as
    its trunk, or its trunk plus a partial completion, exceeds x.  Every
    draw is strictly positive and IEEE addition is monotone, so a partial
    sum above x stays above it: a dropped trial could never hit.  The sums
    of the trials kept are formed from the same draws in the same order as
    the full sums, so the estimate is bit-identical to drawing every
    component for every trial, and does not depend on the block size.
    """
    if trials < 10**4:
        raise UsageError(f"need at least 1e4 trials, got {trials}")
    prng.require_seeds(seed)
    hits = sum(
        _overlap_hits(np.arange(start, min(start + _MC_BLOCK, trials), dtype=np.uint64), spec, seed)
        for start in range(0, trials, _MC_BLOCK)
    )
    estimate = hits / trials
    stderr = math.sqrt(estimate * (1.0 - estimate) / trials)
    return McEstimate(estimate=estimate, stderr=stderr)


def shift_ratio(l: int, k: int, a: float, b: float) -> float:
    """lhs / [P(both <= a) (1 + b/a)^{2l-k}] for lhs = P(both <= a+b).

    The shift inequality bounds this ratio by an unspecified order-one
    constant; `checks.shift_inequality` judges it.
    """
    if not 1 <= k <= l:
        raise UsageError(f"need 1 <= k <= l, got k={k}, l={l}")
    if not (a > 0.0 and b > 0.0):
        raise UsageError(f"shifts must be positive, got a={a}, b={b}")
    lhs = overlap_probability_exact(OverlapSpec(l=l, k=k, x=a + b))
    base = overlap_probability_exact(OverlapSpec(l=l, k=k, x=a))
    return lhs / (base * (1.0 + b / a) ** (2 * l - k))
