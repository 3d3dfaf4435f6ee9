"""Closed-form solver and verifiers for the K-level slab geometry of optimal paths.

The hypercube is cut by K equidistant Hamming hyperplanes.  The fraction of
path length spent in slab i (a_i), the cumulative fractions (abar_i), the
optimal normalized Hamming depth covered per slab (d_i) and the effective
forward/back step fractions (ef_i, eb_i) all have explicit closed forms in
the single constant E = arcsinh(1).  The per-slab factor g_factor combines
depth likelihood and slab entropy; its product over slabs equals 1 exactly at
the optimal depths and is strictly smaller elsewhere, which this module
exposes for direct numerical verification, together with the scalar
functions theta_hat, g1, g2 whose boundedness and convexity are checked on
grids.
"""

import math
from dataclasses import dataclass

from .constants import E, L


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
    E: float
    a: tuple[float, ...]
    abar: tuple[float, ...]
    aunder: tuple[float, ...]
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
            lhs = math.sinh(self.abar[i] * E) * math.cosh(self.aunder[i] * E)
            if abs(lhs - i / K) > 1e-10:
                raise ArithmeticError(f"depth relation violated at slab {i}")


def solve_coarse_graining(K: int) -> CoarseGraining:
    """Closed-form solution of the slab geometry for K >= 1 scales.

    abar_i = (1/2) {1 + arcsinh(2i/K - 1) / E} inverts the depth relation
    sinh(abar_i E) cosh((1 - abar_i) E) = i/K; the rest follows by
    differencing and the step bookkeeping d = ef + eb, 1/K = ef - eb.
    """
    if K < 1:
        raise ValueError(f"number of scales must be >= 1, got {K}")
    abar = tuple(0.5 * (1.0 + math.asinh(2.0 * i / K - 1.0) / E) for i in range(K + 1))
    a = tuple(abar[i + 1] - abar[i] for i in range(K))
    d = tuple(math.sinh(ai * E) * math.cosh((1.0 - ai) * E) for ai in a)
    half_k = 1.0 / (2 * K)
    ef = tuple(di / 2.0 + half_k for di in d)
    eb = tuple(di / 2.0 - half_k for di in d)
    aunder = tuple(1.0 - x for x in abar)
    return CoarseGraining(K=K, E=E, a=a, abar=abar, aunder=aunder, d=d, ef=ef, eb=eb)


def depth_of_alpha(alpha: float) -> float:
    """Normalized Hamming depth after an alpha-fraction of the path length.

    sinh(alpha E) cosh((1-alpha) E), strictly increasing from 0 to 1;
    together with its mirror it satisfies depth(alpha) + depth(1-alpha) = 1.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return math.sinh(alpha * E) * math.cosh((1.0 - alpha) * E)


def g_factor(j: int, K: int, x: float, cg: CoarseGraining) -> float:
    """Per-slab factor of the product criterion, evaluated at depth x.

    Numerator: depth likelihood sinh(a_j E)^x cosh(a_j E)^{1-x} times the
    entropy of the slab boundary; denominator: the entropy spent choosing
    eb = x/2 - 1/(2K) bits to clear and ef = x/2 + 1/(2K) bits to set.
    Raises GeometryDomainError when x makes any x^x argument negative.
    """
    if cg.K != K:
        raise ValueError(f"K={K} does not match the solved geometry (K={cg.K})")
    if not 1 <= j <= K:
        raise ValueError(f"slab index must satisfy 1 <= j <= K, got {j}")
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


def feasible_depth_range(j: int, K: int) -> tuple[float, float]:
    """Depth interval on which g_factor(j, K, .) is defined.

    The four x^x arguments are nonnegative iff 1/K <= x <= min((2j-1)/K,
    2 - (2j-1)/K); for the boundary slabs the interval collapses to {1/K}.
    """
    if not 1 <= j <= K:
        raise ValueError(f"slab index must satisfy 1 <= j <= K, got {j}")
    hi = min((2 * j - 1) / K, 2.0 - (2 * j - 1) / K)
    return 1.0 / K, hi


def optimal_d_closed_form(j: int, K: int, cg: CoarseGraining) -> float:
    """Unique positive maximizer of g_factor(j, K, .) for an interior slab.

    The stationarity condition is a quadratic in x; boundary slabs j in
    {1, K} are rejected because their feasible depth is pinned to 1/K.
    """
    if cg.K != K:
        raise ValueError(f"K={K} does not match the solved geometry (K={cg.K})")
    if not 2 <= j <= K - 1:
        raise ValueError(f"closed form needs an interior slab 2 <= j <= K-1, got j={j}")
    s2 = math.sinh(cg.a[j - 1] * E) ** 2
    bracket = (2 * j - 1) / (2 * K) - j * (j - 1) / K**2
    return -s2 + math.sqrt(s2 * s2 + 4.0 * s2 * bracket + 1.0 / K**2)


def evolution_closed_form(cg: CoarseGraining, i: int) -> float:
    """Closed form of the partial product over the first i slabs."""
    if not 1 <= i <= cg.K:
        raise ValueError(f"slab index must satisfy 1 <= i <= K, got {i}")
    t = i / cg.K
    first = (math.sinh(cg.abar[i] * E) / t) ** t
    if t == 1.0:
        return first  # the (1-t)-exponent factor degenerates to 1
    return first * (math.cosh(cg.abar[i] * E) / (1.0 - t)) ** (1.0 - t)


def evolution_product(cg: CoarseGraining, i: int) -> float:
    """prod_{j<=i} g_factor(j, K, d_j); equals evolution_closed_form(cg, i).

    At i = K the product telescopes to exactly 1.
    """
    if not 1 <= i <= cg.K:
        raise ValueError(f"slab index must satisfy 1 <= i <= K, got {i}")
    prod = 1.0
    for j in range(1, i + 1):
        prod *= g_factor(j, cg.K, cg.d[j - 1], cg)
    return prod


def f_function(cg: CoarseGraining, dvec, strict: bool = False) -> float:
    """Product of per-slab factors at an arbitrary depth vector.

    Equals 1 at the solved depths cg.d and is strictly smaller at any other
    vector.  Depth vectors outside the per-slab feasible range correspond to
    empty path ensembles; by default those contribute a factor 0 (so the
    product is 0), while strict=True raises naming the offending slabs.
    """
    if len(dvec) != cg.K:
        raise ValueError(f"expected {cg.K} depths, got {len(dvec)}")
    bad = []
    prod = 1.0
    for j, x in enumerate(dvec, start=1):
        try:
            prod *= g_factor(j, cg.K, x, cg)
        except GeometryDomainError:
            bad.append(j)
            prod = 0.0
    if bad and strict:
        raise GeometryDomainError(f"infeasible depth at slabs {bad}")
    return prod


@dataclass(frozen=True)
class OptimalProfile:
    """Depth profile with m fully directed leading/trailing slabs."""

    K: int
    m: int
    d_opt: tuple[float, ...]
    L_opt: float


def build_optimal_profile(K: int, m: int = 2) -> OptimalProfile:
    """Depth profile that pins the m outer slabs on each side to depth 1/K.

    L_opt = sum(d_opt) satisfies 0 <= sqrt(2)E - L_opt <= (m + 1)/K: the m/K
    part accounts for the pinned slabs, the extra 1/K covers the finite-K
    Taylor error of the interior depths (measured constant is about 0.8/K).
    """
    if m < 0:
        raise ValueError(f"directed-cap width must be nonnegative, got {m}")
    if 2 * m >= K:
        raise ValueError(f"need 2m < K, got m={m}, K={K}")
    cg = solve_coarse_graining(K)
    inv_k = 1.0 / K
    d_opt = (inv_k,) * m + cg.d[m : K - m] + (inv_k,) * m
    l_opt = math.fsum(d_opt)
    diff = L - l_opt
    if not -1e-12 <= diff <= (m + 1.0) / K + 1e-12:
        raise ArithmeticError(f"profile length deviation {diff} out of range")
    return OptimalProfile(K=K, m=m, d_opt=d_opt, L_opt=l_opt)


def theta_hat(x: float, l_opt: float) -> float:
    """Scalar envelope controlling strongly overlapping path pairs.

    4^{1-x}/(2-x)^{2-x} tanh(E(1-x))^{max(1/l_opt - x, (1-x)/4)}
    cosh(E(1-x))^{1/l_opt}, with the 0^0 = 1 convention at x = 1.  Bounded
    by 1 on [0, 1] and by exp(-x/100) for x <= 1/5.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    if not 1.0 < l_opt <= 1.25 + 1e-9:
        raise ValueError(f"l_opt must lie in (1, 1.25], got {l_opt}")
    if x == 1.0:
        return 1.0
    t = E * (1.0 - x)
    exponent = max(1.0 / l_opt - x, (1.0 - x) / 4.0)
    return 4.0 ** (1.0 - x) / (2.0 - x) ** (2.0 - x) * math.tanh(t) ** exponent * math.cosh(t) ** (1.0 / l_opt)


def theta_hat_sup(grid_step: float, l_opt: float) -> float:
    """Maximum of theta_hat(., l_opt) over the grid 0, grid_step, ..., 1."""
    n = int(round(1.0 / grid_step))
    return max(theta_hat(min(i * grid_step, 1.0), l_opt) for i in range(n + 1))


def g1(x: float) -> float:
    """First scalar branch: 4^{1-x}/(2-x)^{2-x} sinh(E(1-x))^{0.8-x} cosh(E(1-x))^x.

    The exponent constant 0.8 = 1/1.25 is fixed, not a parameter.  Diverges
    as x -> 1 (negative exponent on a vanishing base); returns inf at x = 1.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    if x == 1.0:
        return math.inf
    t = E * (1.0 - x)
    return 4.0 ** (1.0 - x) / (2.0 - x) ** (2.0 - x) * math.sinh(t) ** (1.0 / 1.25 - x) * math.cosh(t) ** x


def g2(x: float) -> float:
    """Second scalar branch, with fixed exponent constant 1/1.24; g2(1) = 1."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    if x == 1.0:
        return 1.0  # both sinh and cosh factors collapse under 0^0 = 1
    t = E * (1.0 - x)
    return (
        4.0 ** (1.0 - x)
        / (2.0 - x) ** (2.0 - x)
        * math.sinh(t) ** ((1.0 - x) / 4.0)
        * math.cosh(t) ** (1.0 / 1.24 - (1.0 - x) / 4.0)
    )


def substrand_identities(cg: CoarseGraining, j: int) -> dict[str, tuple[float, float]]:
    """Four equivalent closed forms for the step fractions of an interior slab.

    Each entry maps a label to (lhs, rhs) where lhs is built from d_j and rhs
    from products of sinh/cosh at the cumulative slab fractions; all four
    pairs agree to float precision.
    """
    if not 1 <= j <= cg.K:
        raise ValueError(f"slab index must satisfy 1 <= j <= K, got {j}")
    K = cg.K
    dj = cg.d[j - 1]
    half_k = 1.0 / (2 * K)
    sb, cb = math.sinh(cg.abar[j - 1] * E), math.cosh(cg.abar[j - 1] * E)
    sa, ca = math.sinh(cg.a[j - 1] * E), math.cosh(cg.a[j - 1] * E)
    su, cu = math.sinh(cg.aunder[j] * E), math.cosh(cg.aunder[j] * E)
    return {
        "eb": (dj / 2.0 - half_k, sb * sa * su),
        "ef": (dj / 2.0 + half_k, cb * sa * cu),
        "room_above": (1.0 - j / K - dj / 2.0 + half_k, cb * ca * su),
        "room_below": (j / K - dj / 2.0 - half_k, sb * ca * cu),
    }


@dataclass(frozen=True)
class ScalarClaimItem:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ScalarClaimsReport:
    grid_step: float
    items: tuple[ScalarClaimItem, ...]

    @property
    def all_passed(self) -> bool:
        return all(item.passed for item in self.items)


def _log_second_differences(f, lo: float, hi: float, h: float):
    """Second central differences of log f on the grid lo+h, ..., hi-h."""
    n = int(round((hi - lo) / h))
    for i in range(1, n):
        x = lo + i * h
        if x + h > hi + 1e-12:
            break
        yield x, (math.log(f(min(x + h, hi))) - 2.0 * math.log(f(x)) + math.log(f(x - h))) / (h * h)


def verify_scalar_claims(grid_step: float = 1e-4) -> ScalarClaimsReport:
    """Grid verification of the scalar envelope claims.

    (a) sup theta_hat <= 1 on [0,1] at l_opt in {1.24, 1.25};
    (b) theta_hat(x) <= exp(-x/100) on (0, 0.2] at both endpoints;
    (c) log g1 convex on [0.12, 0.73] (second differences >= -1e-6);
    (d) log g2 convex on [0.71, 1] (same threshold);
    (e) boundary values g1(0.12), g1(0.73), g2(0.71) <= 1 and g2(1) = 1.
    Convexity is checked by central differences rather than symbolically; the
    -1e-6 threshold absorbs discretization error.
    """
    if grid_step > 1e-3:
        raise ValueError(f"grid_step must be <= 1e-3, got {grid_step}")
    items = []

    sup = max(theta_hat_sup(grid_step, l_opt) for l_opt in (1.24, 1.25))
    items.append(
        ScalarClaimItem("theta_hat_sup", sup <= 1.0 + 1e-9, f"grid sup = {sup:.12f}")
    )

    worst_gap = math.inf
    ok = True
    for l_opt in (1.24, 1.25):
        for i in range(1, int(0.2 / grid_step) + 1):
            x = min(i * grid_step, 0.2)
            gap = math.exp(-x / 100.0) - theta_hat(x, l_opt)
            worst_gap = min(worst_gap, gap)
            ok = ok and gap >= 0.0
    items.append(
        ScalarClaimItem("theta_hat_decay", ok, f"min exp(-x/100) - theta_hat = {worst_gap:.3e}")
    )

    min_dd1 = min(v for _, v in _log_second_differences(g1, 0.12, 0.73, grid_step))
    items.append(
        ScalarClaimItem("g1_log_convex", min_dd1 >= -1e-6, f"min second difference = {min_dd1:.6f}")
    )
    min_dd2 = min(v for _, v in _log_second_differences(g2, 0.71, 1.0, grid_step))
    items.append(
        ScalarClaimItem("g2_log_convex", min_dd2 >= -1e-6, f"min second difference = {min_dd2:.6f}")
    )

    boundary_ok = (
        g1(0.12) <= 1.0
        and g1(0.73) <= 1.0
        and g2(0.71) <= 1.0
        and abs(g2(1.0) - 1.0) <= 1e-12
    )
    items.append(
        ScalarClaimItem(
            "boundary_values",
            boundary_ok,
            f"g1(0.12)={g1(0.12):.6f} g1(0.73)={g1(0.73):.6f} g2(0.71)={g2(0.71):.6f} g2(1)={g2(1.0):.1f}",
        )
    )
    return ScalarClaimsReport(grid_step=grid_step, items=tuple(items))
