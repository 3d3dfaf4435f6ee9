"""Closed-form solver and verifiers for the K-level slab geometry of optimal paths.

The hypercube is cut by K equidistant Hamming hyperplanes.  The fraction of
path length spent in slab i (a_i), the cumulative fractions (abar_i), the
optimal normalized Hamming depth covered per slab (d_i) and the effective
forward/back step fractions (ef_i, eb_i) all have explicit closed forms in
the single constant E = arcsinh(1).  The per-slab factor g_factor combines
depth likelihood and slab entropy; its product over slabs equals 1 exactly at
the optimal depths and is strictly smaller elsewhere, which this module
exposes for direct numerical verification, together with the scalar
envelopes theta_hat, g1, g2 whose boundedness and convexity are checked on
grids.  The envelopes take a float or a 1-D array; the grid checks evaluate
them as arrays in blocks of _GRID_BLOCK points, so their memory does not
grow as the grid step shrinks.
"""

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import UsageError
from .constants import E, L


_LOG4 = math.log(4.0)
_GRID_BLOCK = 1 << 11  # grid points per array evaluation in the scalar-envelope checks
# The finest grid step the checks accept.  A second difference divides the
# last-place error of log f by h^2: g1's least one reads 0.365863 at step
# 1e-4, 0.364826 at 1e-6, 0.201228 at 1e-7 and -1.634495 at 3e-8, where
# both convexity claims fail on rounding alone.
_MIN_GRID_STEP = 1e-6


class GeometryDomainError(ValueError):
    """An x^x argument fell below 0 beyond float noise."""


def phi(y: float) -> float:
    """x^x with the continuous convention phi(0) = 1.

    Inputs in [-1e-14, 0) are clamped to 0 (float noise at slab boundaries);
    anything below is a genuine domain violation.
    """
    if y < 0.0:
        if y >= -1e-14:
            y = 0.0
        else:
            raise GeometryDomainError(f"x^x argument {y} is negative")
    if y == 0.0:
        return 1.0
    return math.exp(y * math.log(y))


@dataclass(frozen=True)
class CoarseGraining:
    """Solved K-slab geometry; immutable and safe to share."""

    K: int
    a: tuple[float, ...]
    abar: tuple[float, ...]
    d: tuple[float, ...]
    ef: tuple[float, ...]
    eb: tuple[float, ...]

    def __post_init__(self):
        K = self.K
        if abs(sum(self.a) - 1.0) > 1e-12:
            raise ArithmeticError("slab length fractions do not sum to 1")
        for i in range(K):
            if abs(self.a[i] - self.a[K - 1 - i]) > 1e-12:
                raise ArithmeticError("slab lengths are not symmetric")
            if self.a[i] > 1.0 / (K * E) + 1e-15:
                raise ArithmeticError("slab length exceeds 1/(K E)")
            if abs(self.d[i] - (self.ef[i] + self.eb[i])) > 1e-12:
                raise ArithmeticError("d != ef + eb")
            if abs(1.0 / K - (self.ef[i] - self.eb[i])) > 1e-12:
                raise ArithmeticError("ef - eb != 1/K")
            if self.eb[i] > 1.0 / (2 * K) + 1e-15:
                raise ArithmeticError("eb exceeds 1/(2K)")
            if not self.ef[i] - 2.0 * self.eb[i] > 0.0:
                raise ArithmeticError("ef - 2 eb not positive")
        for i in range(1, K + 1):
            if abs(depth_of_alpha(self.abar[i]) - i / K) > 1e-10:
                raise ArithmeticError(f"depth relation violated at slab {i}")


def solve_coarse_graining(K: int) -> CoarseGraining:
    """Closed-form solution of the slab geometry for K >= 1 scales.

    abar_i = (1/2) {1 + arcsinh(2i/K - 1) / E} inverts the depth relation
    sinh(abar_i E) cosh((1 - abar_i) E) = i/K; the rest follows by
    differencing and the step bookkeeping d = ef + eb, 1/K = ef - eb.
    """
    if K < 1:
        raise UsageError(f"number of scales must be >= 1, got {K}")
    abar = tuple(0.5 * (1.0 + math.asinh(2.0 * i / K - 1.0) / E) for i in range(K + 1))
    a = tuple(abar[i + 1] - abar[i] for i in range(K))
    d = tuple(map(depth_of_alpha, a))
    half_k = 1.0 / (2 * K)
    ef = tuple(di / 2.0 + half_k for di in d)
    eb = tuple(di / 2.0 - half_k for di in d)
    return CoarseGraining(K=K, a=a, abar=abar, d=d, ef=ef, eb=eb)


def depth_of_alpha(alpha: float) -> float:
    """Normalized Hamming depth after an alpha-fraction of the path length.

    sinh(alpha E) cosh((1-alpha) E), strictly increasing from 0 to 1;
    together with its mirror it satisfies depth(alpha) + depth(1-alpha) = 1.
    """
    if not 0.0 <= alpha <= 1.0:
        raise UsageError(f"alpha must lie in [0, 1], got {alpha}")
    return math.sinh(alpha * E) * math.cosh((1.0 - alpha) * E)


def g_factor(j: int, x: float, cg: CoarseGraining) -> float:
    """Per-slab factor of the product criterion, evaluated at depth x.

    Numerator: depth likelihood sinh(a_j E)^x cosh(a_j E)^{1-x} times the
    entropy of the slab boundary; denominator: the entropy spent choosing
    eb = x/2 - 1/(2K) bits to clear and ef = x/2 + 1/(2K) bits to set.
    Raises GeometryDomainError when x makes any x^x argument negative.
    """
    K = cg.K
    if not 1 <= j <= K:
        raise UsageError(f"slab index must satisfy 1 <= j <= K, got {j}")
    aj = cg.a[j - 1]
    s = math.sinh(aj * E)
    c = math.cosh(aj * E)
    t = (j - 1) / K
    half_k = 1.0 / (2 * K)
    num = s**x * c ** (1.0 - x) * phi(t) * phi(1.0 - t)
    den = (
        phi(x / 2.0 - half_k)
        * phi(t - x / 2.0 + half_k)
        * phi(x / 2.0 + half_k)
        * phi(1.0 - t - x / 2.0 - half_k)
    )
    return num / den


def slab_factor(j: int, x: float, cg: CoarseGraining) -> float:
    """g_factor(j, x, cg), or 0 where depth x is infeasible for slab j.

    Slab j is feasible for 1/K <= x <= min((2j-1)/K, 2 - (2j-1)/K), the
    single point 1/K for the boundary slabs; a depth outside that range
    means an empty path ensemble, so its factor is 0.
    """
    try:
        return g_factor(j, x, cg)
    except GeometryDomainError:
        return 0.0


def optimal_d_closed_form(j: int, cg: CoarseGraining) -> float:
    """Unique positive maximizer of g_factor(j, ., cg) for an interior slab.

    The stationarity condition is a quadratic in x; boundary slabs j in
    {1, K} are rejected because their feasible depth is pinned to 1/K.
    """
    K = cg.K
    if not 2 <= j <= K - 1:
        raise UsageError(f"closed form needs an interior slab 2 <= j <= K-1, got j={j}")
    s2 = math.sinh(cg.a[j - 1] * E) ** 2
    bracket = (2 * j - 1) / (2 * K) - j * (j - 1) / K**2
    return -s2 + math.sqrt(s2 * s2 + 4.0 * s2 * bracket + 1.0 / K**2)


def evolution_closed_form(cg: CoarseGraining, i: int) -> float:
    """Closed form of the partial product over the first i slabs."""
    if not 1 <= i <= cg.K:
        raise UsageError(f"slab index must satisfy 1 <= i <= K, got {i}")
    t = i / cg.K
    first = (math.sinh(cg.abar[i] * E) / t) ** t
    if t == 1.0:
        return first  # the (1-t)-exponent factor degenerates to 1
    return first * (math.cosh(cg.abar[i] * E) / (1.0 - t)) ** (1.0 - t)


def evolution_product(cg: CoarseGraining, i: int) -> float:
    """prod_{j<=i} g_factor(j, d_j, cg); equals evolution_closed_form(cg, i).

    At i = K the product telescopes to exactly 1.  A solved depth infeasible
    for its slab is a solver fault, so it raises rather than reading as 0.
    """
    if not 1 <= i <= cg.K:
        raise UsageError(f"slab index must satisfy 1 <= i <= K, got {i}")
    return math.prod(g_factor(j, cg.d[j - 1], cg) for j in range(1, i + 1))


def f_function(cg: CoarseGraining, dvec) -> float:
    """Product of the slab factors at an arbitrary depth vector, left to right.

    Equals 1 at the solved depths cg.d and is strictly smaller at any other
    vector; a depth infeasible for its slab makes its `slab_factor`, and so
    the product, 0.
    """
    if len(dvec) != cg.K:
        raise UsageError(f"expected {cg.K} depths, got {len(dvec)}")
    return math.prod(slab_factor(j, x, cg) for j, x in enumerate(dvec, start=1))


@dataclass(frozen=True)
class OptimalProfile:
    """Depth profile with m fully directed leading/trailing slabs."""

    K: int
    m: int
    d_opt: tuple[float, ...]
    L_opt: float


def build_optimal_profile(K: int, m: int) -> OptimalProfile:
    """Depth profile that pins the m outer slabs on each side to depth 1/K.

    L_opt = sum(d_opt) satisfies 0 <= sqrt(2)E - L_opt <= (m + 1)/K: the m/K
    part accounts for the pinned slabs, the extra 1/K covers the finite-K
    Taylor error of the interior depths (measured constant is about 0.8/K).
    """
    if m < 0:
        raise UsageError(f"directed-cap width must be nonnegative, got {m}")
    if 2 * m >= K:
        raise UsageError(f"need 2m < K, got m={m}, K={K}")
    cg = solve_coarse_graining(K)
    inv_k = 1.0 / K
    d_opt = (inv_k,) * m + cg.d[m : K - m] + (inv_k,) * m
    l_opt = math.fsum(d_opt)
    diff = L - l_opt
    if not -1e-12 <= diff <= (m + 1.0) / K + 1e-12:
        raise ArithmeticError(f"profile length deviation {diff} out of range")
    return OptimalProfile(K=K, m=m, d_opt=d_opt, L_opt=l_opt)


def _unit_points(x) -> np.ndarray:
    """x as a float64 array, once every entry is checked to lie in [0, 1]."""
    xs = np.asarray(x, dtype=np.float64)
    inside = (0.0 <= xs) & (xs <= 1.0)  # False on nan
    if not inside.all():
        raise UsageError(f"x must lie in [0, 1], got {xs[~inside][0]}")
    return xs


def _envelope(xs: np.ndarray, base, a, b) -> np.ndarray:
    """4^{1-x}/(2-x)^{2-x} base(t)^a cosh(t)^b at t = E(1-x), evaluated as the exp of its log.

    The log form keeps the rounding within a few ulp of the scalar formula,
    where numpy's vectorized pow gives theta_hat(0) = 1.0000000000000002.
    log base(0) = -inf, so each caller sets its own value at x = 1.
    """
    t = E * (1.0 - xs)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_value = (1.0 - xs) * _LOG4 - (2.0 - xs) * np.log(2.0 - xs) + a * np.log(base(t)) + b * np.log(np.cosh(t))
    return np.exp(log_value)


def _like(x, values: np.ndarray):
    """values as a float when x is a scalar, else as the array."""
    return float(values) if np.ndim(x) == 0 else values


def theta_hat(x, l_opt: float):
    """Scalar envelope controlling strongly overlapping path pairs, at a float or a 1-D array x.

    4^{1-x}/(2-x)^{2-x} tanh(E(1-x))^{max(1/l_opt - x, (1-x)/4)}
    cosh(E(1-x))^{1/l_opt}, with the 0^0 = 1 convention at x = 1.  Bounded
    by 1 on [0, 1] and by exp(-x/100) for x <= 1/5.
    """
    xs = _unit_points(x)
    if not 1.0 < l_opt <= 1.25:
        raise UsageError(f"l_opt must lie in (1, 1.25], got {l_opt}")
    exponent = np.maximum(1.0 / l_opt - xs, (1.0 - xs) / 4.0)
    return _like(x, np.where(xs == 1.0, 1.0, _envelope(xs, np.tanh, exponent, 1.0 / l_opt)))


def g1(x):
    """First scalar branch: 4^{1-x}/(2-x)^{2-x} sinh(E(1-x))^{0.8-x} cosh(E(1-x))^x, at a float or a 1-D array x.

    The exponent constant 0.8 = 1/1.25 is fixed, not a parameter.  Diverges
    as x -> 1 (negative exponent on a vanishing base); returns inf at x = 1.
    """
    xs = _unit_points(x)
    return _like(x, np.where(xs == 1.0, np.inf, _envelope(xs, np.sinh, 1.0 / 1.25 - xs, xs)))


def g2(x):
    """Second scalar branch, with fixed exponent constant 1/1.24, at a float or a 1-D array x; g2(1) = 1.

    4^{1-x}/(2-x)^{2-x} sinh(E(1-x))^{(1-x)/4} cosh(E(1-x))^{1/1.24 - (1-x)/4};
    at x = 1 both sinh and cosh factors collapse under 0^0 = 1.
    """
    xs = _unit_points(x)
    quarter = (1.0 - xs) / 4.0
    return _like(x, np.where(xs == 1.0, 1.0, _envelope(xs, np.sinh, quarter, 1.0 / 1.24 - quarter)))


def _grid(step: float, end: float, first: int = 0):
    """The points i * step for i = first, first + 1, ... below end, then end itself, in blocks.

    The grid ends at end whether or not the step divides it.  A block holds
    at most _GRID_BLOCK + 1 points, so memory does not grow as the step shrinks.
    """
    for i in itertools.count(first, _GRID_BLOCK):
        xs = np.arange(i, i + _GRID_BLOCK) * step
        below = xs[xs < end]
        if len(below) < _GRID_BLOCK:
            yield np.append(below, end)
            return
        yield xs


def theta_hat_sup(grid_step: float, l_opt: float) -> float:
    """Maximum of theta_hat(., l_opt) over the grid 0, grid_step, ..., 1, for a step in [1e-6, 1e-3]."""
    if not _MIN_GRID_STEP <= grid_step <= 1e-3:
        raise UsageError(f"grid_step must lie in [1e-6, 1e-3], got {grid_step}")
    return max(float(theta_hat(xs, l_opt).max()) for xs in _grid(grid_step, 1.0))


def substrand_identities(cg: CoarseGraining, j: int) -> dict[str, tuple[float, float]]:
    """Four equivalent closed forms for the step fractions of an interior slab.

    Each entry maps a label to (lhs, rhs) where lhs is built from d_j and rhs
    from products of sinh/cosh at the cumulative slab fractions; all four
    pairs agree to float precision.
    """
    if not 1 <= j <= cg.K:
        raise UsageError(f"slab index must satisfy 1 <= j <= K, got {j}")
    K = cg.K
    dj = cg.d[j - 1]
    half_k = 1.0 / (2 * K)
    sb, cb = math.sinh(cg.abar[j - 1] * E), math.cosh(cg.abar[j - 1] * E)
    sa, ca = math.sinh(cg.a[j - 1] * E), math.cosh(cg.a[j - 1] * E)
    su, cu = math.sinh((1.0 - cg.abar[j]) * E), math.cosh((1.0 - cg.abar[j]) * E)
    return {
        "eb": (dj / 2.0 - half_k, sb * sa * su),
        "ef": (dj / 2.0 + half_k, cb * sa * cu),
        "room_above": (1.0 - j / K - dj / 2.0 + half_k, cb * ca * su),
        "room_below": (j / K - dj / 2.0 - half_k, sb * ca * cu),
    }


class ScalarClaimItem(NamedTuple):
    name: str
    passed: bool
    detail: str


def _min_log_second_difference(f, lo: float, hi: float, h: float) -> float:
    """Least second central difference of log f on the grid lo+h, ..., hi-h, in blocks of _GRID_BLOCK points.

    At x = lo + i*h it is (log f(min(x+h, hi)) - 2 log f(x) + log f(x-h)) / h^2,
    for the x whose x + h stays within hi (+1e-12).
    """
    n = int(round((hi - lo) / h))
    worst = math.inf
    for i in range(1, n, _GRID_BLOCK):
        x = lo + np.arange(i, min(i + _GRID_BLOCK, n)) * h
        x = x[x + h <= hi + 1e-12]
        dd = (np.log(f(np.minimum(x + h, hi))) - 2.0 * np.log(f(x)) + np.log(f(x - h))) / (h * h)
        worst = min(worst, float(dd.min(initial=math.inf)))
    return worst


def verify_scalar_claims(grid_step: float) -> tuple[ScalarClaimItem, ...]:
    """Grid verification of the scalar envelope claims, one item per claim.

    (a) sup theta_hat <= 1 on [0,1] at l_opt in {1.24, 1.25};
    (b) theta_hat(x) <= exp(-x/100) on (0, 0.2] at both endpoints;
    (c) log g1 convex on [0.12, 0.73] (second differences >= -1e-6);
    (d) log g2 convex on [0.71, 1] (same threshold);
    (e) boundary values g1(0.12), g1(0.73), g2(0.71) <= 1 and g2(1) = 1 exactly.
    Convexity is checked by central differences rather than symbolically; the
    -1e-6 threshold absorbs discretization error.  numpy's vectorized log
    can differ from libm's in the last place, and a second difference divides
    that by h^2, so at a step other than 1e-3 and 1e-4 its sixth decimal can
    differ by one unit from a scalar evaluation (0.365887 for 0.365886 at
    1.1e-4 on an AVX-512 host).  The grids of (a) and (b) end at 1 and 0.2 whether or not the
    step divides them.  `theta_hat_sup`, called first, rejects a grid_step
    outside [1e-6, 1e-3].
    """
    sup = max(theta_hat_sup(grid_step, l_opt) for l_opt in (1.24, 1.25))
    worst_gap = min(
        float((np.exp(-xs / 100.0) - theta_hat(xs, l_opt)).min())
        for l_opt in (1.24, 1.25)
        for xs in _grid(grid_step, 0.2, first=1)
    )
    min_dd1 = _min_log_second_difference(g1, 0.12, 0.73, grid_step)
    min_dd2 = _min_log_second_difference(g2, 0.71, 1.0, grid_step)
    g1_lo, g1_hi, g2_lo, g2_one = g1(0.12), g1(0.73), g2(0.71), g2(1.0)
    return (
        ScalarClaimItem("theta_hat_sup", sup <= 1.0 + 1e-9, f"grid sup = {sup:.12f}"),
        ScalarClaimItem("theta_hat_decay", worst_gap >= 0.0, f"min exp(-x/100) - theta_hat = {worst_gap:.3e}"),
        ScalarClaimItem("g1_log_convex", min_dd1 >= -1e-6, f"min second difference = {min_dd1:.6f}"),
        ScalarClaimItem("g2_log_convex", min_dd2 >= -1e-6, f"min second difference = {min_dd2:.6f}"),
        ScalarClaimItem(
            "boundary_values",
            max(g1_lo, g1_hi, g2_lo) <= 1.0 and g2_one == 1.0,
            f"g1(0.12)={g1_lo:.6f} g1(0.73)={g1_hi:.6f} g2(0.71)={g2_lo:.6f} g2(1)={g2_one:.1f}",
        ),
    )
