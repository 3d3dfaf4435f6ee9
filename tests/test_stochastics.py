import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, special

import polylab
from polylab import prng, stochastics
from polylab.constants import E
from polylab.stochastics import McEstimate, OverlapSpec


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
        # the rounded midpoint of [0, x] is a quadrature node at t = 0; the integrand must take it
        assert stochastics.overlap_probability_exact(OverlapSpec(l, k, x)) == 0.0

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
_BLOCK_TRIALS = (10**4, 2**14, 2**14 + 1, 3 * 2**14 + 7)


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

    def test_rejects_few_trials(self):
        with pytest.raises(ValueError):
            stochastics.overlap_probability_mc(OverlapSpec(3, 1, 1.0), 10**3, seed=0)

    @pytest.mark.parametrize("seed", (-1, 2**64))
    def test_rejects_seed_outside_64_bits(self, seed):
        with pytest.raises(polylab.UsageError):
            stochastics.overlap_probability_mc(OverlapSpec(3, 1, 1.0), 10**4, seed)


class TestShiftInequality:
    def test_reports_measured_ratio(self):
        ratio = stochastics.shift_ratio(4, 2, 1.0, 0.5)
        lhs = stochastics.overlap_probability_exact(OverlapSpec(4, 2, 1.5))
        base = stochastics.overlap_probability_exact(OverlapSpec(4, 2, 1.0))
        assert ratio == pytest.approx(lhs / (base * 1.5**6), rel=1e-12)
