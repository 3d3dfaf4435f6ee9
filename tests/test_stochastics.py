import math
import tracemalloc
from collections.abc import Iterator

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, special

import polylab
from polylab import checks, prng, stochastics
from polylab.constants import E
from polylab.stochastics import McEstimate, OverlapSpec

from conftest import run_python


class TestErlangCdf:
    def test_exponential_case(self):
        for x in (0.1, 0.7, 2.0, 5.0):
            assert stochastics.erlang_cdf(1, x) == pytest.approx(1.0 - math.exp(-x), rel=1e-14)

    def test_closed_form_l2(self):
        assert stochastics.erlang_cdf(2, 1.0) == pytest.approx(1.0 - 2.0 / math.e, rel=1e-14)

    def test_no_mass_at_zero(self):
        assert stochastics.erlang_cdf(5, 0.0) == 0.0

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_rejects_x_that_is_not_finite(self, x):
        with pytest.raises(polylab.UsageError):
            stochastics.erlang_cdf(3, x)

    def test_against_regularized_gamma(self):
        # scipy's incomplete gamma is the independent reference implementation
        for l in (1, 2, 5, 10, 30, 50):
            for x in (0.05, 0.5, 1.0, E, 2.0, 5.0, 40.0):
                assert stochastics.erlang_cdf(l, x) == pytest.approx(
                    float(special.gammainc(l, x)), rel=1e-12, abs=1e-300
                )
        # x >= l where x^j/j! overflows a float: the Poisson masses are formed in log space
        for l, x in ((1000, 1000.0), (999, 1009.0), (1000, 1500.0), (200, 400.0), (3, 1e200), (1000, 1e308)):
            assert stochastics.erlang_cdf(l, x) == pytest.approx(float(special.gammainc(l, x)), rel=1e-12), (l, x)

    @given(l=st.integers(min_value=1, max_value=40), x=st.floats(min_value=0.0, max_value=60.0))
    @settings(max_examples=200, deadline=None)
    def test_in_unit_interval_and_monotone(self, x, l):
        value = stochastics.erlang_cdf(l, x)
        assert 0.0 <= value <= 1.0
        assert stochastics.erlang_cdf(l, x + 0.5) >= value


class TestErlangTailRatio:
    @pytest.mark.parametrize("l,x", [(1, 0.5), (30, E), (2, 0.1)])
    def test_multiplicative_correction_bound(self, l, x):
        ratio = stochastics.erlang_tail_ratio(l, x)
        assert 0.0 <= ratio <= math.exp(x) * x / (l + 1)

    def test_small_x_first_order(self):
        # K(x,l) = x/(l+1) (1 + o(1)) as x -> 0
        ratio = stochastics.erlang_tail_ratio(2, 0.1)
        assert ratio == pytest.approx(0.1 / 3.0, rel=0.05)
        assert ratio > 0.1 / 3.0  # the series only adds positive terms

    def test_rejects_infinite_x(self):
        with pytest.raises(polylab.UsageError):
            stochastics.erlang_tail_ratio(3, math.inf)

    def test_diverges_far_above_l(self):
        # the terms grow until they overflow; the loop gives up after 10^5 of them
        with pytest.raises(ArithmeticError):
            stochastics.erlang_tail_ratio(1, 1000.0)

    def test_bound_over_full_grid(self):
        for l in range(1, 51):
            for x in (0.1, 0.5, 1.0, E, 2.0, 5.0):
                ratio = stochastics.erlang_tail_ratio(l, x)
                assert 0.0 <= ratio <= math.exp(x) * x / (l + 1), (l, x)

    def test_reconstructs_cdf(self):
        for l, x in ((3, 1.0), (10, 2.0), (25, 6.0)):
            ratio = stochastics.erlang_tail_ratio(l, x)
            rebuilt = (1.0 + ratio) * math.exp(-x + l * math.log(x) - math.lgamma(l + 1))
            assert rebuilt == pytest.approx(stochastics.erlang_cdf(l, x), rel=1e-12)


class TestOverlapG:
    def test_endpoints(self):
        assert stochastics.overlap_g(0.0) == 1.0
        assert stochastics.overlap_g(1.0) == 1.0

    def test_midpoint(self):
        assert stochastics.overlap_g(0.5) == pytest.approx(2.0**0.5 / 1.5**1.5, rel=1e-14)

    def test_grid_max_at_most_one_with_interior_strictness(self):
        best_interior = 0.0
        for i in range(100001):
            gamma = i / 100000
            value = stochastics.overlap_g(gamma)
            assert value <= 1.0 + 1e-12
            if 0 < i < 100000:
                best_interior = max(best_interior, value)
        assert best_interior < 1.0

    @given(gamma=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=300, deadline=None)
    def test_bounded_by_one(self, gamma):
        assert stochastics.overlap_g(gamma) <= 1.0 + 1e-12


class TestOverlapSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            OverlapSpec(l=3, k=4, x=1.0)
        with pytest.raises(ValueError):
            OverlapSpec(l=3, k=1, x=0.0)
        with pytest.raises(ValueError):
            OverlapSpec(l=0, k=0, x=1.0)
        with pytest.raises(polylab.UsageError):
            OverlapSpec(l=3, k=1, x=math.inf)


class TestOverlapProbabilityExact:
    def test_disjoint_is_squared_cdf(self):
        assert stochastics.overlap_probability_exact(OverlapSpec(3, 0, 1.0)) == pytest.approx(
            stochastics.erlang_cdf(3, 1.0) ** 2, rel=1e-12
        )

    def test_full_overlap_is_single_cdf(self):
        assert stochastics.overlap_probability_exact(OverlapSpec(3, 3, 1.0)) == pytest.approx(
            stochastics.erlang_cdf(3, 1.0), rel=1e-12
        )

    def test_closed_forms_agree_with_direct_quadrature(self):
        # k = l: integrate the trunk density itself; k = 0: square the integral
        for l, x in ((3, 1.0), (5, 2.0)):
            lg = math.lgamma(l)
            density_integral, _ = integrate.quad(
                lambda t: math.exp((l - 1) * math.log(t) - t - lg) if t > 0 else 0.0,
                0.0,
                x,
                epsabs=1e-300,
                epsrel=1e-12,
            )
            assert abs(density_integral - stochastics.overlap_probability_exact(OverlapSpec(l, l, x))) < 1e-10
            assert abs(density_integral**2 - stochastics.overlap_probability_exact(OverlapSpec(l, 0, x))) < 1e-10

    @pytest.mark.parametrize("l,k,x", [(2, 1, 5e-324), (3, 2, 1e-323), (3, 1, 5e-324), (4, 3, 2e-323)])
    def test_subnormal_x(self, l, k, x):
        # the probability underflows, while its log stays finite
        assert stochastics.overlap_probability_exact(OverlapSpec(l, k, x)) == 0.0
        assert -math.inf < stochastics.log_overlap_probability(OverlapSpec(l, k, x)) < -700.0

    def test_never_above_one(self):
        # near 1 the series' rounding can leave its log up to 5e-14 above 0 (l=14, k=13, x=70)
        for l in range(1, 13):
            for k in range(l + 1):
                for x in (5.0, 10.0, 20.0, 40.0, 80.0, 200.0, 800.0, 1e4, 1e6):
                    assert stochastics.overlap_probability_exact(OverlapSpec(l, k, x)) <= 1.0, (l, k, x)

    def test_kernel_check_catches_a_biased_kernel(self, monkeypatch):
        # the l = 2, k = 1 closed form goes through the series, so a relative bias of 1e-8 must fail it
        unbiased = stochastics.log_overlap_probability
        monkeypatch.setattr(stochastics, "log_overlap_probability", lambda spec: unbiased(spec) + math.log1p(1e-8))
        passed, detail = checks.overlap_kernels(100)
        assert not passed
        assert detail == "l=2, k=1 closed form mismatch at x=1.0"

    def test_monotone_in_x_and_k(self):
        for l in range(2, 9):
            for x in (0.5, 1.0, 2.0):
                values = [
                    stochastics.overlap_probability_exact(OverlapSpec(l, k, x))
                    for k in range(l + 1)
                ]
                assert all(b >= a * (1 - 1e-10) for a, b in zip(values, values[1:])), (l, x)
                bigger = [
                    stochastics.overlap_probability_exact(OverlapSpec(l, k, x + 0.25))
                    for k in range(l + 1)
                ]
                assert all(b >= a for a, b in zip(values, bigger))

    def test_agrees_with_mc_oracle(self):
        spec = OverlapSpec(6, 3, 1.5)
        exact = stochastics.overlap_probability_exact(spec)
        est = stochastics.overlap_probability_mc(spec, 10**6, seed=7)
        assert abs(est.estimate - exact) <= 3.0 * est.stderr


def _integer_coefficients(l: int, k: int) -> Iterator[int]:
    """D_N = sum_s W_s C(N-s-1, k-1) for N = 2m+k, 2m+k+1, ..., as exact integers; m = l - k.

    W_s comes from W_{s+1} = 2 W_s + 2 C(s, m-1) from W_{2m-1} = 0, and D from
    k running sums of W.
    """
    m = l - k
    pairs, binomial, s = 0, math.comb(2 * m - 1, m - 1), 2 * m - 1
    sums = [0] * k
    while True:
        pairs, binomial, s = 2 * pairs + 2 * binomial, binomial * (s + 1) // (s + 2 - m), s + 1
        for i in range(k):
            sums[i] += pairs if i == 0 else sums[i - 1]
        yield sums[-1]


def _rational_series(l: int, k: int, x: float) -> mpmath.mpf:
    """log P from the positive series with exact integer D_N, summed at the working precision; 0 < k < l."""
    x = mpmath.mpf(x)
    total, n = mpmath.mpf(0), 2 * (l - k) + k
    power = mpmath.power(x, n) / mpmath.factorial(n)
    for coefficient in _integer_coefficients(l, k):
        term = coefficient * power
        total += term
        if n > 2 * x and term < total * mpmath.mpf(10) ** -45:
            return mpmath.log(total) - 2 * x
        power *= x / (n + 1)
        n += 1


def _quadrature(l: int, k: int, x: float) -> float:
    """P by adaptive quadrature over the shared trunk, with scipy's incomplete gamma for the tails."""
    if k in (0, l):
        return float(special.gammainc(l, x)) ** (2 if k == 0 else 1)
    log_gamma_k = math.lgamma(k)

    def integrand(t: float) -> float:
        tail = float(special.gammainc(l - k, x - t))
        return tail * tail * math.exp((k - 1) * math.log(t) - t - log_gamma_k) if t > 0.0 else 0.0

    return integrate.quad(integrand, 0.0, x, epsabs=1e-300, epsrel=1e-10, limit=200)[0]


class TestLogOverlapProbability:
    def test_integer_coefficients_match_their_definition(self):
        # D_N = sum_s W_s C(N-s-1, k-1) with W_s = sum_{a=m}^{s-m} C(s, a), summed as written
        for l in range(2, 9):
            for k in range(1, l):
                m = l - k
                for n, coefficient in zip(range(2 * m + k, 2 * m + k + 30), _integer_coefficients(l, k)):
                    pairs = [sum(math.comb(s, a) for a in range(m, s - m + 1)) for s in range(n - k + 1)]
                    terms = (pairs[s] * math.comb(n - s - 1, k - 1) for s in range(2 * m, n - k + 1))
                    assert coefficient == sum(terms), (l, k, n)

    def test_matches_the_rational_series(self):
        # exact integer coefficients at 50 digits; below the float range P exists
        # only as its log, whose last place is itself about 4e-12 of P at x = 5e-324
        with mpmath.workdps(50):
            for l in range(1, 13):
                for k in range(l + 1):
                    for x in (5e-324, 0.1, 0.5, 1.0, E, 2.0, 5.0, 30.0):
                        if k in (0, l):
                            cdf = mpmath.gammainc(l, 0, x, regularized=True)
                            ref = mpmath.log(cdf) * (2 if k == 0 else 1)
                        else:
                            ref = _rational_series(l, k, x)
                        got = stochastics.log_overlap_probability(OverlapSpec(l, k, x))
                        if ref > -700:
                            assert abs(mpmath.expm1(got - ref)) <= 1e-13, (l, k, x)
                        else:
                            assert abs(got - ref) <= 1e-13 * abs(ref), (l, k, x)

    def test_matches_quadrature(self):
        # quadrature has an absolute floor of 1e-300: at (120, 60, E) it is off by 4e-7
        for l in (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 120):
            for k in sorted({0, 1, l // 4, l // 2, 3 * l // 4, l - 1, l}):
                for x in (0.5, 1.0, E, 2.0, 5.0, 30.0, 100.0, 200.0):
                    ref = _quadrature(l, k, x)
                    if ref > 1e-290:
                        got = stochastics.overlap_probability_exact(OverlapSpec(l, k, x))
                        assert got == pytest.approx(ref, rel=1e-10, abs=0.0), (l, k, x)

    @pytest.mark.parametrize(
        "l,k,x", [(500, 499, 520.0), (1000, 999, 1050.0), (1000, 500, 900.0), (1000, 1, 1000.0)]
    )
    def test_large_overlaps_match_the_rational_series(self, l, k, x):
        # the error stays of order 1e-16 log N! whatever k: at most 1.3e-12 here
        with mpmath.workdps(40):
            ref = _rational_series(l, k, x)
            got = stochastics.log_overlap_probability(OverlapSpec(l, k, x))
            assert abs(mpmath.expm1(got - ref)) <= 4e-12

    @pytest.mark.parametrize("x", [900.0, 1000.0, 1050.0])
    def test_large_overlaps_match_quadrature(self, x):
        for k in (1, 500, 999):
            ref = _quadrature(1000, k, x)
            assert ref > 1e-290
            got = stochastics.overlap_probability_exact(OverlapSpec(1000, k, x))
            assert got == pytest.approx(ref, rel=1e-10, abs=0.0), k

    @pytest.mark.parametrize("l,k", [(2, 1), (3, 1), (12, 6), (300, 1), (1000, 999)])
    def test_largest_threshold_is_exactly_one(self, l, k):
        # 2 P(X_l > x) bounds 1 - P and is far below half the float spacing under 1
        assert stochastics.log_overlap_probability(OverlapSpec(l, k, 1e308)) == 0.0
        assert stochastics.overlap_probability_exact(OverlapSpec(l, k, 1e308)) == 1.0

    @pytest.mark.parametrize("l,k", [(1, 0), (2, 0), (1, 1), (2, 2), (3, 1)])
    def test_saturated_log_is_positive_zero(self, l, k):
        # P(X_l > 800) underflows to 0.0, so the probability rounds to 1
        value = stochastics.log_overlap_probability(OverlapSpec(l, k, 800.0))
        assert value == 0.0 and math.copysign(1.0, value) == 1.0, (l, k)

    @pytest.mark.parametrize("l", [2, 12, 150, 600])
    def test_logs_finite_at_the_smallest_threshold(self, l):
        for k in range(l + 1):
            value = stochastics.log_overlap_probability(OverlapSpec(l, k, 5e-324))
            assert -math.inf < value < 0.0, (l, k)


class TestLogErlangCdf:
    def test_against_regularized_gamma(self):
        for l in (1, 2, 5, 30, 200, 1000):
            for x in (1e-300, 0.05, 1.0, E, 40.0, 999.0, 1500.0):
                ref = mpmath.log(mpmath.gammainc(l, 0, x, regularized=True))
                got = stochastics.log_erlang_cdf(l, x)
                assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (l, x)

    def test_extreme_thresholds(self):
        assert stochastics.log_erlang_cdf(3, 0.0) == -math.inf
        assert -math.inf < stochastics.log_erlang_cdf(3, 5e-324) < -2000.0
        assert stochastics.log_erlang_cdf(3, 1e308) == 0.0


class TestOverlapProbabilityLeading:
    def test_ratio_bounded_as_x_vanishes(self):
        ratios = []
        for x in (0.5, 0.25, 0.125):
            spec = OverlapSpec(4, 2, x)
            ratios.append(
                stochastics.overlap_probability_exact(spec)
                / stochastics.overlap_probability_leading(spec)
            )
        # proportionality: the ratio stays within a fixed band and rises to 1
        assert all(0.0 < r <= 1.5 for r in ratios)
        assert ratios[0] < ratios[1] < ratios[2]
        assert ratios == pytest.approx([0.618167, 0.837476, 0.976219], rel=1e-4)

    def test_finite_at_moderate_size(self):
        value = stochastics.overlap_probability_leading(OverlapSpec(10, 5, E))
        assert 0.0 < value < math.inf

    def test_order_one_at_small_size(self):
        spec = OverlapSpec(2, 1, 1.0)
        ratio = stochastics.overlap_probability_exact(spec) / stochastics.overlap_probability_leading(spec)
        assert 0.3 <= ratio <= 3.0

    def test_rejects_degenerate_overlaps(self):
        with pytest.raises(ValueError):
            stochastics.overlap_probability_leading(OverlapSpec(4, 0, 1.0))
        with pytest.raises(ValueError):
            stochastics.overlap_probability_leading(OverlapSpec(4, 4, 1.0))


def _full_array_mc(spec: OverlapSpec, trials: int, seed: int) -> McEstimate:
    """The oracle without culling: every component drawn for every trial at once."""
    l, k, x = spec.l, spec.k, spec.x
    idx = np.arange(trials, dtype=np.uint64)
    sums = np.zeros((3, trials))  # trunk, first completion, second completion
    for component, row in enumerate([0] * k + [1] * (l - k) + [2] * (l - k)):
        sums[row] += prng.exponential_array(seed, idx, component)
    trunk, first, second = sums
    hits = (trunk + first <= x) & (trunk + second <= x)
    estimate = float(hits.mean())
    return McEstimate(estimate=estimate, stderr=math.sqrt(estimate * (1.0 - estimate) / trials))


# trial counts below, at and across the block boundaries of the default block
_BLOCK_TRIALS = (10**4, stochastics._MC_BLOCK, stochastics._MC_BLOCK + 1, 3 * stochastics._MC_BLOCK + 7)


# the overlap_grid cells of the benchmark
_GRID_CELLS = tuple(OverlapSpec(l, k, x) for l in range(1, 9) for k in range(l + 1) for x in (0.5, 1.0, 2.0))


@pytest.fixture(scope="module")
def grid_blocks():
    """Every overlap_grid cell at 3e5 trials and seed 1000, ten blocks a cell, the last
    one partial: the length of every kernel call, and (spec, trials, kernel calls, hits)
    of every block."""
    kernel, block_hits = prng.exponential_array, stochastics._McBlock.hits
    lengths, blocks = [], []

    def counting_kernel(seed, a, b, **buffers):
        lengths.append(len(a))
        return kernel(seed, a, b, **buffers)

    def recording_hits(block, spec, seed, start, count):
        calls = len(lengths)
        hits = block_hits(block, spec, seed, start, count)
        blocks.append((spec, count, len(lengths) - calls, hits))
        return hits

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(prng, "exponential_array", counting_kernel)
        patch.setattr(stochastics._McBlock, "hits", recording_hits)
        for spec in _GRID_CELLS:
            stochastics.overlap_probability_mc(spec, 300_000, seed=1000)
    return lengths, blocks


_BLOCK_MASK = np.random.default_rng(0).random(stochastics._MC_BLOCK) < 0.5


@pytest.mark.parametrize(
    "dead",
    (
        [1, 0, 1, 1, 1, 1, 1],  # kept = 1
        [1, 1, 1, 1, 1, 1, 0],
        [0, 0, 0, 0, 0, 0, 1],  # kept = n - 1
        [1, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0],  # kept = n
        [0, 1, 0, 1, 0, 1, 0],
        _BLOCK_MASK,  # a block with about half its trials dead
    ),
)
def test_survivor_slots_are_the_live_slots(dead):
    dead = np.asarray(dead, dtype=bool)
    n, kept = len(dead), int(np.count_nonzero(~dead))
    out = np.full(n + 2, -1, dtype=np.int64)
    survivors = stochastics._survivor_slots(dead, np.arange(1, n + 1), out[1 : n + 1], kept)
    assert np.shares_memory(survivors, out) and len(survivors) == kept
    assert np.array_equal(np.sort(survivors), np.flatnonzero(~dead) + 1)
    assert out[0] == out[-1] == -1


class TestOverlapProbabilityMc:
    def test_degenerate_full_overlap(self):
        est = stochastics.overlap_probability_mc(OverlapSpec(3, 3, 1.0), 10**6, seed=1)
        assert abs(est.estimate - stochastics.erlang_cdf(3, 1.0)) <= 3.0 * est.stderr

    def test_independent_paths(self):
        est = stochastics.overlap_probability_mc(OverlapSpec(5, 0, 1.0), 10**6, seed=3)
        exact = stochastics.erlang_cdf(5, 1.0) ** 2
        assert abs(est.estimate - exact) <= 3.0 * est.stderr + 16.0 / 10**6

    def test_deterministic_given_seed(self):
        spec = OverlapSpec(4, 2, 1.0)
        first = stochastics.overlap_probability_mc(spec, 10**4, seed=11)
        second = stochastics.overlap_probability_mc(spec, 10**4, seed=11)
        assert first == second
        third = stochastics.overlap_probability_mc(spec, 10**4, seed=12)
        assert third != first

    # x = 50 culls no trial; 0.05 culls nearly all of them after one draw
    @given(
        lk=st.integers(min_value=1, max_value=8).flatmap(lambda l: st.tuples(st.just(l), st.integers(0, l))),
        x=st.sampled_from((0.05, 0.5, E, 2.0, 50.0)),
        seed=st.one_of(st.sampled_from((0, 2**64 - 1)), st.integers(min_value=0, max_value=2**64 - 1)),
        trials=st.sampled_from(_BLOCK_TRIALS),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_full_array_kernel(self, lk, x, seed, trials):
        spec = OverlapSpec(*lk, x)
        assert stochastics.overlap_probability_mc(spec, trials, seed) == _full_array_mc(spec, trials, seed)

    @pytest.mark.parametrize("block", (1 << 10, 10**6))
    @pytest.mark.parametrize("spec", (OverlapSpec(4, 2, 1.0), OverlapSpec(3, 3, E), OverlapSpec(5, 0, 2.0)))
    def test_block_size_does_not_change_the_estimate(self, monkeypatch, spec, block):
        trials = _BLOCK_TRIALS[-1]
        default = stochastics.overlap_probability_mc(spec, trials, seed=7)
        monkeypatch.setattr(stochastics, "_MC_BLOCK", block)
        assert stochastics.overlap_probability_mc(spec, trials, seed=7) == default

    @pytest.mark.parametrize("spec", (OverlapSpec(5, 1, 50.0), OverlapSpec(8, 4, 2.0), OverlapSpec(3, 0, E)))
    def test_block_loop_allocates_no_block_sized_array(self, spec):
        # every array a block works in comes with the call; one such array is 256 KiB
        size = stochastics._MC_BLOCK
        block = stochastics._McBlock(size)
        block.hits(spec, 5, 0, size)
        tracemalloc.start()
        try:
            hits = [block.hits(spec, 5, start, size) for start in range(size, 4 * size, size)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < size
        assert all(type(h) is int for h in hits)

    def test_fresh_process_does_not_churn_the_heap(self):
        # Arrays allocated and freed in every block made glibc trim and regrow
        # its heap: this call took 20.7k-22.3k minor faults in a fresh process
        # then, and 576-577 with the arrays carved from one buffer per call
        # (2-vCPU x86, glibc 2.36).  The pytest process itself has loaded scipy,
        # whose import raises glibc's trim threshold, so the call runs in a new one.
        code = (
            "import resource\n"
            "from polylab.stochastics import OverlapSpec, overlap_probability_mc\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "mc = overlap_probability_mc(OverlapSpec(8, 4, 2.0), 3_000_000, 5)\n"
            "print(repr(mc.estimate), resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        proc = run_python(code)
        assert proc.returncode == 0, proc.stderr
        estimate, faults = proc.stdout.split()
        assert float(estimate) == 134 / 3_000_000
        assert int(faults) < 2000

    def test_later_calls_reuse_the_block_pages(self):
        # Eight separate arrays a call made glibc give their pages back after
        # every call: about 395 minor faults a call, 4,100 for these ten
        # (2-vCPU x86, glibc 2.36).  A process's first buffer is served by
        # mmap, whose release raises glibc's mmap and trim thresholds; the
        # second grows the heap by the buffer, which then stays, so the ten
        # calls after those two fault no page in.
        code = (
            "import resource\n"
            "from polylab.stochastics import OverlapSpec, overlap_probability_mc\n"
            "spec = OverlapSpec(8, 4, 2.0)\n"
            "overlap_probability_mc(spec, 300_000, 0)\n"
            "overlap_probability_mc(spec, 300_000, 0)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "estimates = [overlap_probability_mc(spec, 300_000, seed).estimate for seed in range(1, 11)]\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before, *map(repr, estimates))\n"
        )
        proc = run_python(code)
        assert proc.returncode == 0, proc.stderr
        faults, *estimates = proc.stdout.split()
        assert int(faults) < 100
        spec = OverlapSpec(8, 4, 2.0)
        assert [float(e) for e in estimates] == [
            stochastics.overlap_probability_mc(spec, 300_000, seed).estimate for seed in range(1, 11)
        ]

    def test_no_kernel_call_after_a_block_empties(self, grid_blocks):
        lengths, blocks = grid_blocks
        assert min(lengths) > 0
        # cells where a block emptied before its last component and the last,
        # partial block still hit: stopping a block must not stop the call
        per_cell = {spec: [b for b in blocks if b[0] == spec] for spec in _GRID_CELLS}
        resumed = [
            spec
            for spec, cell in per_cell.items()
            if any(calls < 2 * spec.l - spec.k and hits == 0 for _, _, calls, hits in cell[:-1])
            and cell[-1][1] < stochastics._MC_BLOCK
            and cell[-1][3] > 0
        ]
        assert len(resumed) >= 3, resumed
        for spec in resumed:
            assert stochastics.overlap_probability_mc(spec, 300_000, 1000) == _full_array_mc(spec, 300_000, 1000)

    def test_grid_makes_the_pinned_kernel_calls_and_draws(self, grid_blocks):
        # counted with the prefix-sum cull that the selection replaced: how
        # survivors are found must not add or drop a draw
        lengths, _ = grid_blocks
        assert (len(lengths), sum(lengths)) == (9_349, 83_476_330)

    def test_rejects_few_trials(self):
        with pytest.raises(ValueError):
            stochastics.overlap_probability_mc(OverlapSpec(3, 1, 1.0), 10**3, seed=0)

    @pytest.mark.parametrize("seed", (-1, 2**64))
    def test_rejects_seed_outside_64_bits(self, seed):
        with pytest.raises(polylab.UsageError):
            stochastics.overlap_probability_mc(OverlapSpec(3, 1, 1.0), 10**4, seed)


class TestShiftInequality:
    def test_defined_where_both_probabilities_underflow(self):
        ratio = stochastics.shift_ratio(150, 75, 0.5, 0.1)
        assert stochastics.overlap_probability_exact(OverlapSpec(150, 75, 0.6)) == 0.0
        assert 0.0 < ratio < 10.0

    def test_reports_measured_ratio(self):
        ratio = stochastics.shift_ratio(4, 2, 1.0, 0.5)
        lhs = stochastics.overlap_probability_exact(OverlapSpec(4, 2, 1.5))
        base = stochastics.overlap_probability_exact(OverlapSpec(4, 2, 1.0))
        assert ratio == pytest.approx(lhs / (base * 1.5**6), rel=1e-12)
