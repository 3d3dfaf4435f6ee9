"""Exact combinatorics of hypercube walks.

The generating function sum_l M(n,l,d) x^l / l! = sinh(x)^d cosh(x)^{n-d}
expands to M(n, l, d) = 2^-n sum_i K_i (n - 2i)^l, where the Krawtchouk
weights K_i = sum_j (-1)^j C(d,j) C(n-d,i-j) depend on (n, d) alone.  Every
walk count is that sum in exact integer arithmetic (it cancels
catastrophically in floats), with the terms i and n - i, whose bases differ
only in sign, paired: `stanley_count` for one cell, `walk_counts` for
l = 0, 1, 2, ... with the powers built incrementally.  A brute-force dynamic
program cross-checks both.  The generating function drives everything else:
truncation residuals, upper bounds on single counts, the normalized
length-weight distribution at x = E (which has total mass sinh(E)^n = 1),
and the exact tail sums behind the length concentration statement; the
first, third and fourth share one series of correctly rounded terms.
The directed-overlap counts F(n,k) come from a DP over permutation blocks.
"""

import decimal
import functools
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

from . import UsageError
from .constants import E, L

_BRUTE_FORCE_MAX_N = 6
_BRUTE_FORCE_MAX_L = 12


def _require_distance(n: int, d: int) -> None:
    """The (n, d) domain of a walk count: a dimension n >= 1 and a Hamming distance 0 <= d <= n."""
    if n < 1:
        raise UsageError(f"dimension must be positive, got n={n}")
    if not 0 <= d <= n:
        raise UsageError(f"Hamming distance must satisfy 0 <= d <= n, got d={d}, n={n}")


@functools.lru_cache(maxsize=128)
def _eigen_weights(n: int, d: int) -> tuple[int, ...]:
    """Krawtchouk weights K_i = sum_j (-1)^j C(d,j) C(n-d,i-j) for i = 0..n, cached per (n, d).

    Built by the three-term recurrence (i+1) K_{i+1} = (n-2d) K_i - (n-i+1) K_{i-1}
    from K_0 = 1 and K_1 = n - 2d, whose divisions are exact: O(n) big-integer
    operations where the binomial sums cost O(n d) products.
    """
    weights = [1, n - 2 * d]
    for i in range(1, n):
        weights.append(((n - 2 * d) * weights[i] - (n - i + 1) * weights[i - 1]) // (i + 1))
    return tuple(weights)


@functools.lru_cache(maxsize=128)
def _paired_weights(n: int, d: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The Krawtchouk sum with term i paired with term n - i, whose bases are +-(n - 2i).

    Entry i of the first tuple is K_i + K_{n-i}, the coefficient of
    (n - 2i)^l for even l, and of the second K_i - K_{n-i}, for odd l, for
    i = 0..n//2; the unpaired middle term of even n, with base 0, is K_{n/2}
    for even l and 0 for odd l.  Since K_{n-i} = (-1)^d K_i, every
    coefficient of the parity of d + 1 is 0, as the counts with l - d odd
    are; the sums skip zero coefficients.  Cached per (n, d).
    """
    w = _eigen_weights(n, d)
    half = (n + 1) // 2  # the pairs i < n - i
    even = tuple(w[i] + w[n - i] for i in range(half)) + w[half : n - half + 1]
    odd = tuple(w[i] - w[n - i] for i in range(half)) + (0,) * (n + 1 - 2 * half)
    return even, odd


def _divide_exact(total: int, n: int, l: int, d: int) -> int:
    """total / 2^n, which must be a nonnegative integer for a walk count."""
    count, rem = divmod(total, 1 << n)
    if rem or count < 0:
        raise ArithmeticError(f"inexact or negative walk count for (n={n}, l={l}, d={d})")
    return count


def stanley_count(n: int, l: int, d: int) -> int:
    """Number of walks (loops allowed) of length l between vertices at distance d.

    Evaluates 2^-n sum_i K_i (n-2i)^l over the Krawtchouk weights entirely
    over integers; the division by 2^n is exact.  Conventions: 0^0 = 1 (the
    l = 0 term), so M(n,0,0) = 1.
    """
    _require_distance(n, d)
    if l < 0:
        raise UsageError(f"walk length must be nonnegative, got l={l}")
    coefficients = _paired_weights(n, d)[l % 2]
    total = sum(c * (n - 2 * i) ** l for i, c in enumerate(coefficients) if c)
    return _divide_exact(total, n, l, d)


def walk_counts(n: int, d: int) -> Iterator[int]:
    """Yield M(n, l, d) for l = 0, 1, 2, ... without end.

    Keeps the powers (n-2i)^l for i <= n/2 and multiplies them once per
    step, so the first l_max + 1 counts cost O(n * l_max) big-int
    multiplications; each count multiplies only the nonzero paired
    coefficients of its parity (`_paired_weights`) into them.
    """
    paired = _paired_weights(n, d)
    bases = range(n, -1, -2)
    powers = [1] * len(bases)
    for l in itertools.count():
        total = sum(c * p for c, p in zip(paired[l % 2], powers) if c)
        yield _divide_exact(total, n, l, d)
        powers = [p * b for p, b in zip(powers, bases)]


def _weighted_counts(n: int, d: int, x: float) -> Iterator[float]:
    """Yield M(n, l, d) x^l / l! for l = 0, 1, 2, ... without end.

    Each term is the correctly rounded value of the exact rational
    M(n,l,d) p^l / (q^l l!), with x = p/q exactly, at any l.
    """
    p, q = x.as_integer_ratio()
    num, den = 1, 1  # p^l and q^l l!
    for next_l, m in enumerate(walk_counts(n, d), start=1):
        yield m * num / den
        num, den = num * p, den * q * next_l


def brute_force_walk_count(n: int, l: int, d: int) -> int:
    """Independent oracle: counts the same walks by DP over vertex occupancy.

    Walks of length l from vertex 0 to the fixed vertex 2^d - 1 (any vertex at
    distance d gives the same count by symmetry).  Guardrails n <= 6, l <= 12
    keep the 2^n-state dynamic program cheap.
    """
    _require_distance(n, d)
    if n > _BRUTE_FORCE_MAX_N:
        raise UsageError(f"brute force limited to n <= {_BRUTE_FORCE_MAX_N}, got {n}")
    if not 0 <= l <= _BRUTE_FORCE_MAX_L:
        raise UsageError(f"brute force limited to l <= {_BRUTE_FORCE_MAX_L}, got {l}")
    size = 1 << n
    occupancy = [0] * size
    occupancy[0] = 1
    for _ in range(l):
        nxt = [0] * size
        for v, c in enumerate(occupancy):
            if c:
                for bit in range(n):
                    nxt[v ^ (1 << bit)] += c
        occupancy = nxt
    return occupancy[(1 << d) - 1]


def directed_overlap_table(n: int) -> list[int]:
    """Entry k is F(n,k), the number of directed paths sharing exactly k edges with the path 1,2,...,n.

    A directed path, a permutation of the coordinates, shares the edge at
    level j iff its first j-1 and j coordinates are {1..j-1} and {1..j}:
    iff {j} is one of its indecomposable blocks.  I(s), the indecomposable
    permutations of s, obey I(s) = s! - sum_{0<j<s} I(j) (s-j)! (OEIS A003319),
    and F(n,.) = G(n,.) for G(m,k) = G(m-1,k-1) + sum_{s>=2} I(s) G(m-s,k).
    """
    _require_distance(n, 0)
    blocks = [0]  # blocks[s] = I(s)
    tables = [[1]]  # tables[m][k] = G(m, k), for k = 0..m
    for m in range(1, n + 1):
        blocks.append(math.factorial(m) - sum(blocks[j] * math.factorial(m - j) for j in range(1, m)))
        table = [0, *tables[m - 1]]
        for s in range(2, m + 1):
            for k, g in enumerate(tables[m - s]):
                table[k] += blocks[s] * g
        tables.append(table)
    return tables[n]


def identity_remainder_bound(n: int, x: float, l_max: int) -> float:
    """Upper bound on sum_{l > l_max} M(n,l,d) x^l / l!, uniform in d.

    Uses M(n,l,d) <= n^l and a geometric majorization of the exponential
    tail; requires n*x < l_max + 2 so the ratio test closes.
    """
    if not 0 < x < math.inf:
        raise UsageError(f"x must be positive and finite, got {x}")
    _require_distance(n, 0)
    nx = n * x
    if nx >= l_max + 2:
        raise UsageError(f"l_max={l_max} too small for remainder bound at n*x={nx:.3f}")
    log_head = (l_max + 1) * math.log(nx) - math.lgamma(l_max + 2)
    ratio = nx / (l_max + 2)
    return math.exp(log_head) / (1.0 - ratio)


class IdentityResidual(NamedTuple):
    residual: float
    remainder_bound: float
    within_tolerance: bool


def identity_residual(n: int, d: int, x: float, l_max: int) -> IdentityResidual:
    """|sum_{l<=l_max} M(n,l,d) x^l/l!  -  sinh(x)^d cosh(x)^{n-d}|, its truncation
    remainder bound, and whether the residual is within that bound plus float
    rounding of 1e-13 relative to the target.

    The sum is the fsum of correctly rounded terms.  The target is rounded
    once from decimal arithmetic on e^x, with 40 digits to spare beyond those
    e^x - e^-x cancels: in floats, cosh(x) ** (n - d) multiplies the rounding
    of cosh(x) by n - d (2.2e-13 relative at n = 5000, x = 1e-6).
    """
    bound = identity_remainder_bound(n, x, l_max)
    _require_distance(n, d)
    if bound > 1e-12:
        raise UsageError(f"l_max={l_max} leaves a truncation remainder above 1e-12")
    series = math.fsum(itertools.islice(_weighted_counts(n, d, x), l_max + 1))
    with decimal.localcontext() as ctx:
        ctx.prec = 40 + max(0, -decimal.Decimal(x).adjusted())
        ex = decimal.Decimal(x).exp()
        target = float((ex - 1 / ex) ** d * (ex + 1 / ex) ** (n - d) / 2**n)
    residual = abs(series - target)
    return IdentityResidual(residual, bound, residual <= bound + 1e-13 * target)


def log_m_bound(n: int, l: int, d: int, x: float) -> float:
    """log of sinh(x)^d cosh(x)^{n-d} l! / x^l."""
    if not 0 < x < math.inf:
        raise UsageError(f"x must be positive and finite, got {x}")
    _require_distance(n, d)
    if l < 0:
        raise UsageError(f"walk length must be nonnegative, got l={l}")
    return (
        d * math.log(math.sinh(x))
        + (n - d) * math.log(math.cosh(x))
        + math.lgamma(l + 1)
        - l * math.log(x)
    )


def solve_length_ratio(ratio: float) -> float:
    """Unique x >= 0 with x / tanh(x) = ratio, by bisection to 1e-13 absolute.

    x / tanh(x) maps [0, inf) onto [1, inf) increasingly; ratio = 1 returns 0.
    """
    if not ratio >= 1.0:
        raise UsageError(f"ratio must be >= 1 (the range of x/tanh(x)), got {ratio}")
    if ratio == 1.0:
        return 0.0
    lo, hi = 1e-12, ratio + 1.0  # x/tanh(x) <= x + 1 makes the bracket valid
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid / math.tanh(mid) < ratio:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13:
            break
    return 0.5 * (lo + hi)


def _weight_tail_bound(n: int, x: float, l_max: int) -> float:
    """Bound on sum_{l > l_max} M(n,l,n) x^l / l! via the generating function.

    For any y > x the tail is at most sinh(y)^n sum_{l>l_max} (x/y)^l; the
    minimum over a small grid of y keeps the bound sharp without a solver.
    """
    best = math.inf
    for y in (1.25 * x, 1.5 * x, 2.0 * x, 3.0 * x):
        log_tail = (
            n * math.log(math.sinh(y))
            + (l_max + 1) * math.log(x / y)
            - math.log(1.0 - x / y)
        )
        best = min(best, log_tail)
    return math.exp(best)


@dataclass(frozen=True)
class LengthWeightDistribution:
    """Normalized weights w_l = M(n,l,n) E^l / l! over polymer lengths.

    Total mass over all l is sinh(E)^n = 1 exactly; tail_bound dominates the
    mass omitted beyond l_max.
    """

    n: int
    l_max: int
    weights: tuple[float, ...]
    tail_bound: float

    @property
    def argmax_length(self) -> int:
        return max(range(len(self.weights)), key=self.weights.__getitem__)

    def total_mass(self) -> float:
        return math.fsum(self.weights)


def length_weight_distribution(n: int, l_max: int) -> LengthWeightDistribution:
    """Exact length-weight distribution, truncated at l_max >= 3n.

    Each weight is a correctly rounded series term at the dyadic E, so the
    mass carries no accumulated rounding beyond half an ulp per term.
    """
    _require_distance(n, n)
    if l_max < 3 * n:
        raise UsageError(f"l_max must be at least 3n = {3 * n}, got {l_max}")
    return LengthWeightDistribution(
        n=n,
        l_max=l_max,
        weights=tuple(itertools.islice(_weighted_counts(n, n, E), l_max + 1)),
        tail_bound=_weight_tail_bound(n, E, l_max),
    )


def concentration_tail_mass(n: int, eps: float, a: float) -> tuple[float, float]:
    """Exact tail sums of sum_l M(n,l,n) (E+eps^2)^l / l! outside |l/n - L| < a*eps.

    Returns (lower_tail, upper_tail): the sum over l <= (L - a*eps)n and over
    l >= (L + a*eps)n.  The upper sum is truncated once the running term
    drops below 1e-18 of the accumulated total, with a generating-function
    remainder bound folded into the reported value.  Note the lower tail is
    identically zero whenever (L - a*eps) < 1, since no path between
    antipodal vertices is shorter than n.
    """
    if not 0.0 < eps < 0.3:
        raise UsageError(f"eps must lie in (0, 0.3), got {eps}")
    if not 0.0 <= a < math.inf:
        # a = 0 is allowed: the two tails then partition the full series
        raise UsageError(f"a must be nonnegative and finite, got {a}")
    _require_distance(n, n)
    x = E + eps * eps
    lower_cut = math.floor((L - a * eps) * n)
    upper_cut = math.ceil((L + a * eps) * n)

    lower_terms = []
    upper_terms = []
    accumulated = 0.0
    for l, term in enumerate(_weighted_counts(n, n, x)):
        if l <= lower_cut:
            lower_terms.append(term)
        elif l >= upper_cut:
            upper_terms.append(term)
            accumulated += term
            # geometric decay is guaranteed once l exceeds the summand peak n*x
            if l > n * x and 0.0 < term < 1e-18 * accumulated:
                upper_terms.append(_weight_tail_bound(n, x, l))
                break
            if l >= 1000 * max(n, 1):
                raise ArithmeticError("upper tail failed to converge")
    return math.fsum(lower_terms), math.fsum(upper_terms)
