import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

import polylab
from polylab import pathcount, simulator
from polylab.constants import E, L

REFERENCE = Path(__file__).parents[1] / "bench" / "reference.json"

# length_weight_distribution(40, 120).weights[40::2], frozen from the
# implementation that summed each count's alternating series separately
_FROZEN_WEIGHTS_N40 = (
    0.006403261788738002, 0.033161186534016646, 0.08500883497650734,
    0.14382555416839635, 0.18067300376370052, 0.17974622725579745,
    0.14752323303936496, 0.10273687713184618, 0.06197404726656911,
    0.03289640624607862, 0.015557363621877608, 0.006621201909656954,
    0.0025571447306824693, 0.0009024410610245142, 0.00029275649902535373,
    8.774901604434366e-05, 2.440976450152078e-05, 6.326655095236005e-06,
    1.5331472130814916e-06, 3.48449961348043e-07, 7.448254327400432e-08,
    1.5011352692883904e-08, 2.8591020672833773e-09, 5.156918064645182e-10,
    8.825350701173859e-11, 1.4355517667460128e-11, 2.2230861704986893e-12,
    3.282447778995984e-13, 4.627546841897055e-14, 6.237081591406758e-15,
    8.046717632166408e-16, 9.948523772631829e-17, 1.1799585902871759e-17,
    1.3439451332404258e-18, 1.4713518626056726e-19, 1.5497538635153428e-20,
    1.5717748708163999e-21, 1.5362102390296417e-22, 1.4480298050925708e-23,
    1.317311978967887e-24, 1.1574093945769449e-25,
)


class TestStanleyCount:
    @pytest.mark.parametrize(
        "n,l,d,expected",
        [
            (1, 1, 1, 1),  # the single edge
            (3, 2, 1, 0),  # parity mismatch, l - d odd
            (2, 2, 2, 2),  # brute-force enumeration on the square
            (3, 3, 1, 7),  # brute-force enumeration on the 3-cube
            (1, 0, 0, 1),  # empty walk
        ],
    )
    def test_known_values(self, n, l, d, expected):
        assert pathcount.stanley_count(n, l, d) == expected

    def test_oracle_equivalence_small_grid(self):
        for n in range(1, 5):
            for l in range(9):
                for d in range(n + 1):
                    assert pathcount.stanley_count(n, l, d) == pathcount.brute_force_walk_count(
                        n, l, d
                    ), (n, l, d)

    def test_frozen_benchmark_count(self):
        frozen = json.loads(REFERENCE.read_text())["count"]["200:600:100"]
        assert str(pathcount.stanley_count(200, 600, 100)) == frozen

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            pathcount.stanley_count(2, 2, 3)
        with pytest.raises(ValueError):
            pathcount.stanley_count(2, -1, 0)
        with pytest.raises(ValueError):
            pathcount.stanley_count(0, 1, 0)

    @given(
        n=st.integers(min_value=1, max_value=6),
        l=st.integers(min_value=0, max_value=14),
        d=st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=150, deadline=None)
    def test_parity_and_nonnegativity(self, n, l, d):
        if d > n:
            return
        count = pathcount.stanley_count(n, l, d)
        assert count >= 0
        if l < d or (l - d) % 2:
            assert count == 0
        elif l == d:
            assert count == math.factorial(d)  # only the directed orderings fit


def _krawtchouk(n, d):
    """K_i = sum_j (-1)^j C(d,j) C(n-d,i-j) for i = 0..n, the defining alternating sum of binomials."""
    return [
        sum((-1) ** j * math.comb(d, j) * math.comb(n - d, i - j) for j in range(min(d, i) + 1))
        for i in range(n + 1)
    ]


class TestEigenWeights:
    def test_recurrence_equals_binomial_sums(self):
        # terms i and n - i pair for i < n - i; the middle term of even n stands alone, with base 0
        for n in range(1, 41):
            for d in range(n + 1):
                k = _krawtchouk(n, d)
                pairs = [(k[i] + k[n - i], k[i] - k[n - i]) if i < n - i else (k[i], 0) for i in range(n // 2 + 1)]
                even, odd = zip(*pairs)
                assert pathcount._paired_weights(n, d) == (even, odd), (n, d)


class TestBruteForceWalkCount:
    @pytest.mark.parametrize(
        "n,l,d,expected",
        [
            (2, 2, 0, 2),  # two out-and-back walks from a corner of the square
            (1, 3, 1, 1),  # forced zig-zag on a single edge
            (3, 3, 3, 6),  # 3! directed orderings, no room for loops
        ],
    )
    def test_known_values(self, n, l, d, expected):
        assert pathcount.brute_force_walk_count(n, l, d) == expected

    def test_guardrails(self):
        with pytest.raises(ValueError):
            pathcount.brute_force_walk_count(7, 2, 1)
        with pytest.raises(ValueError):
            pathcount.brute_force_walk_count(3, 13, 1)


def _first_counts(n, d, count):
    return list(itertools.islice(pathcount.walk_counts(n, d), count))


def _unpaired_counts(n, d, count):
    """M(n, l, d) for l < count as the unpaired sum 2^-n sum_i K_i (n - 2i)^l, one term per i."""
    weights = _krawtchouk(n, d)
    bases = [n - 2 * i for i in range(n + 1)]
    powers = [1] * (n + 1)
    counts = []
    for _ in range(count):
        total, rem = divmod(sum(w * p for w, p in zip(weights, powers)), 1 << n)
        assert rem == 0
        counts.append(total)
        powers = [p * b for p, b in zip(powers, bases)]
    return counts


class TestWalkCounts:
    @pytest.mark.parametrize("n", range(1, 41))
    def test_paired_sum_equals_unpaired_sum(self, n):
        for d in range(n + 1):
            expected = _unpaired_counts(n, d, 3 * n + 3)
            assert _first_counts(n, d, 3 * n + 3) == expected, (n, d)
            assert [pathcount.stanley_count(n, l, d) for l in range(3 * n + 3)] == expected, (n, d)

    def test_oracle_equivalence_on_brute_force_range(self):
        for n in range(1, 7):
            for d in range(n + 1):
                counts = _first_counts(n, d, 13)
                for l in range(13):
                    assert counts[l] == pathcount.brute_force_walk_count(n, l, d), (n, l, d)

    @pytest.mark.parametrize("n", [20, 64])
    def test_equals_stanley_count(self, n):
        for d in range(n + 1):
            counts = _first_counts(n, d, 3 * n + 1)
            for l in range(3 * n + 1):
                assert counts[l] == pathcount.stanley_count(n, l, d), (n, l, d)


class TestWeightedCounts:
    @given(n=st.integers(min_value=1, max_value=12), x=st.floats(min_value=1e-3, max_value=50.0))
    @settings(max_examples=25, deadline=None)
    def test_terms_are_the_correctly_rounded_rationals(self, n, x):
        # l runs past 170, where float(M) * x**l / l! overflows
        scales = list(itertools.accumulate(range(1, 251), lambda s, l: s * Fraction(x) / l, initial=Fraction(1)))
        for d in range(n + 1):
            terms = zip(pathcount._weighted_counts(n, d, x), pathcount.walk_counts(n, d), scales)
            for l, (term, count, scale) in enumerate(terms):
                # int / int is correctly rounded
                assert term == count * scale.numerator / scale.denominator, (n, d, x, l)


class TestIdentityResidual:
    def test_single_edge_at_one(self):
        assert pathcount.identity_residual(1, 1, 1.0, 30).residual < 1e-12

    def test_square_even_walks(self):
        assert pathcount.identity_residual(2, 0, 0.5, 30).residual < 1e-12

    def test_antipodal_cube_at_energy_constant(self):
        # target value sinh(E)^3 = 1
        assert pathcount.identity_residual(3, 3, E, 60).residual < 1e-10

    def test_residual_is_rounding_alone(self):
        # the residual against the 50-digit target is far below an ulp on
        # every cell here, so what is reported is the rounding of series and
        # target, which stays within an ulp of the target
        cells = [(n, d, x, 80) for n in range(1, 11) for d in {0, n // 2, n} for x in (0.5, E, 1.5)]
        cells += [(64, 32, E, 220), (200, 100, 1e-3, 160), (2000, 0, 1e-6, 5), (2500, 0, 1e-6, 5)]
        with mpmath.workdps(50):
            for n, d, x, l_max in cells:
                target = float(mpmath.sinh(x) ** d * mpmath.cosh(x) ** (n - d))
                result = pathcount.identity_residual(n, d, x, l_max)
                assert result.residual <= math.ulp(target), (n, d, x)

    def test_rejects_insufficient_truncation(self):
        with pytest.raises(ValueError):
            pathcount.identity_residual(10, 5, 1.5, 10)

    def test_rejects_empty_dimension(self):
        with pytest.raises(polylab.UsageError):
            pathcount.identity_residual(0, 0, 1.0, 60)

    def test_remainder_bound_error_shows_n_x_briefly(self):
        with pytest.raises(polylab.UsageError, match=r"at n\*x=1e\+308$") as err:
            pathcount.identity_remainder_bound(1, 1e308, 60)
        assert len(str(err.value)) < 80

    def test_remainder_bound_rejects_empty_dimension(self):
        with pytest.raises(polylab.UsageError):
            pathcount.identity_remainder_bound(0, 1.0, 60)

    @pytest.mark.parametrize("x", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_x_outside_positive_reals(self, x):
        with pytest.raises(ValueError):
            pathcount.identity_residual(3, 3, x, 60)
        with pytest.raises(ValueError):
            pathcount.identity_remainder_bound(3, x, 60)


class TestMBound:
    def test_square_value(self):
        bound = math.exp(pathcount.log_m_bound(2, 2, 2, 1.0))
        assert bound == pytest.approx(math.sinh(1.0) ** 2 * 2.0, rel=1e-12)
        assert bound >= 2  # the exact count

    def test_single_edge_infimum(self):
        # sinh(x)/x decreases to 1 as x -> 0 and always dominates the count 1
        for x in (2.0, 1.0, 0.5, 0.1, 1e-3):
            assert math.exp(pathcount.log_m_bound(1, 1, 1, x)) >= 1.0
        assert math.exp(pathcount.log_m_bound(1, 1, 1, 1e-6)) == pytest.approx(1.0, abs=1e-9)

    def test_antipodal_bound_at_optimal_length(self):
        l = round(L * 10)
        bound = math.exp(pathcount.log_m_bound(10, l, 10, E))
        assert bound == pytest.approx(math.factorial(l) / E**l, rel=1e-9)

    def test_dominates_exact_counts(self):
        for n in range(1, 11):
            for l in range(0, 21):
                for d in range(n + 1):
                    if l < d or (l - d) % 2:
                        continue
                    count = pathcount.stanley_count(n, l, d)
                    if count == 0:
                        continue
                    for x in (0.25, 0.5, E, 1.0, 2.0):
                        assert math.log(count) <= pathcount.log_m_bound(n, l, d, x) + 1e-12

    @pytest.mark.parametrize("x", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_non_positive_or_non_finite_x(self, x):
        with pytest.raises(ValueError):
            pathcount.log_m_bound(3, 3, 3, x)


class TestSolveLengthRatio:
    def test_energy_constant_fixed_point(self):
        # x/tanh(x) = sqrt(2) E is solved by x = E since tanh(E) = 1/sqrt(2)
        assert abs(pathcount.solve_length_ratio(L) - E) < 1e-12

    def test_limit_case(self):
        assert pathcount.solve_length_ratio(1.0) == 0.0

    def test_residual_at_two(self):
        x = pathcount.solve_length_ratio(2.0)
        assert abs(x / math.tanh(x) - 2.0) < 1e-12

    def test_rejects_ratio_below_one(self):
        # nor is any non-finite ratio a value of x/tanh(x)
        for ratio in (0.99, math.inf, math.nan):
            with pytest.raises(polylab.UsageError):
                pathcount.solve_length_ratio(ratio)

    @given(ratio=st.floats(min_value=1.0001, max_value=10.0))
    @settings(max_examples=200, deadline=None)
    def test_two_sided_inverse(self, ratio):
        x = pathcount.solve_length_ratio(ratio)
        assert abs(x / math.tanh(x) - ratio) < 1e-11


class TestLengthWeightDistribution:
    def test_single_edge(self):
        dist = pathcount.length_weight_distribution(1, 31)
        assert dist.weights[1] == pytest.approx(E, rel=1e-14)
        for l in range(0, 31, 2):
            assert dist.weights[l] == 0.0
        assert dist.total_mass() == pytest.approx(math.sinh(E), abs=1e-13)

    def test_argmax_brackets_optimal_length_n100(self):
        dist = pathcount.length_weight_distribution(100, 300)
        assert dist.argmax_length in {123, 124, 125, 126, 127}

    def test_normalization_n40(self):
        dist = pathcount.length_weight_distribution(40, 120)
        total = dist.total_mass()
        assert total >= 1.0 - dist.tail_bound - 1e-10
        assert total <= 1.0 + 1e-10

    def test_frozen_weights_n40(self):
        # the nonzero weights sit at even l >= n
        weights = pathcount.length_weight_distribution(40, 120).weights
        assert weights[40::2] == _FROZEN_WEIGHTS_N40
        assert not any(w for l, w in enumerate(weights) if l < 40 or l % 2)

    def test_weights_nonnegative_and_mass_bounds(self):
        for n in (5, 20, 60):
            dist = pathcount.length_weight_distribution(n, 3 * n + 10)
            assert all(w >= 0.0 for w in dist.weights)
            total = dist.total_mass()
            assert total + dist.tail_bound >= 1.0 - 1e-12
            assert total <= 1.0 + 1e-12

    def test_argmax_near_optimal_length_for_larger_n(self):
        for n in (20, 40, 80):
            dist = pathcount.length_weight_distribution(n, 3 * n)
            assert abs(dist.argmax_length - round(L * n)) <= 2

    def test_rejects_short_truncation(self):
        with pytest.raises(ValueError):
            pathcount.length_weight_distribution(10, 29)

    def test_report_peak_mass_fraction(self, capsys):
        # the single dominant term near l = Ln carries a large share of the
        # total mass; the share is reported as measured, no rate is asserted
        for n in (40, 100):
            dist = pathcount.length_weight_distribution(n, 3 * n)
            peak = dist.weights[dist.argmax_length]
            window = sum(
                dist.weights[l]
                for l in range(max(0, dist.argmax_length - 2), dist.argmax_length + 3)
            )
            with capsys.disabled():
                print(
                    f"\n  length-weight peak: n={n:>3}  w_peak = {peak:.4f}  "
                    f"five-term window mass = {window:.4f}"
                )
            assert 0.0 < peak < 1.0


class TestConcentrationTailMass:
    def test_partition_identity_at_a_zero(self):
        n, eps = 20, 0.2
        lower, upper = pathcount.concentration_tail_mass(n, eps, 0.0)
        full = math.sinh(E + eps * eps) ** n
        # lower covers l <= floor(Ln), upper starts at ceil(Ln): union is everything
        assert lower + upper >= full - abs(full) * 1e-9

    def test_decade_decay_at_reference_constant(self):
        # a exceeds E/2 + sqrt(2)E + 1/sqrt(2), the regime with exponential decay;
        # the lower tail is identically 0 here since (L - a*eps) < 1
        a = E / 2 + L + 1 / math.sqrt(2) + 0.1
        lo40, up40 = pathcount.concentration_tail_mass(40, 0.2, a)
        lo80, up80 = pathcount.concentration_tail_mass(80, 0.2, a)
        assert lo40 == 0.0 and lo80 == 0.0
        assert up80 < up40
        assert lo80 + up80 < lo40 + up40

    def test_squaring_law_of_exponential_decay(self):
        _, up40 = pathcount.concentration_tail_mass(40, 0.2, 2.5)
        _, up80 = pathcount.concentration_tail_mass(80, 0.2, 2.5)
        ratio = up80 / up40**2
        assert 0.1 <= ratio <= 10.0

    def test_lower_tail_nonzero_in_moderate_regime(self):
        # with a*eps small enough that (L - a*eps) > 1 the lower tail is positive
        lower, upper = pathcount.concentration_tail_mass(40, 0.05, 2.5)
        assert lower > 0.0
        assert upper > 0.0

    def test_frozen_reference_values(self):
        _, up40 = pathcount.concentration_tail_mass(40, 0.2, 2.5)
        _, up80 = pathcount.concentration_tail_mass(80, 0.2, 2.5)
        assert up40 == pytest.approx(2.7855549185201323e-03, rel=1e-9)
        assert up80 == pytest.approx(3.5909690337605546e-05, rel=1e-9)

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            pathcount.concentration_tail_mass(20, 0.0, 1.0)
        with pytest.raises(ValueError):
            pathcount.concentration_tail_mass(20, 0.31, 1.0)

    @pytest.mark.parametrize("n", [-1, 0])
    def test_rejects_empty_dimension(self, n):
        with pytest.raises(polylab.UsageError):
            pathcount.concentration_tail_mass(n, 0.2, 2.5)

    @pytest.mark.parametrize("a", [math.nan, math.inf])
    def test_rejects_a_that_is_not_finite(self, a):
        with pytest.raises(polylab.UsageError):
            pathcount.concentration_tail_mass(20, 0.2, a)


def _enumerated_overlap_table(n):
    """F(n, k) by exhaustion over all n! coordinate orders: the oracle for the DP, n <= 7."""
    counts = [0] * (n + 1)
    for sigma in itertools.permutations(range(1, n + 1)):
        shared = 0
        max_seen = 0
        for j, value in enumerate(sigma, start=1):
            # the j-1 distinct earlier values equal {1..j-1} iff their max is j-1
            if max_seen == j - 1 and value == j:
                shared += 1
            max_seen = max(max_seen, value)
        counts[shared] += 1
    return counts


class TestDirectedOverlapCount:
    FROZEN = {
        2: [1, 0, 1],
        3: [3, 2, 0, 1],
        4: [14, 6, 3, 0, 1],
        5: [77, 29, 9, 4, 0, 1],
        6: [497, 160, 45, 12, 5, 0, 1],
        7: [3676, 1031, 249, 62, 15, 6, 0, 1],
    }

    @pytest.mark.parametrize("n", range(1, 8))
    def test_equals_enumeration(self, n):
        assert pathcount.directed_overlap_table(n) == _enumerated_overlap_table(n)

    def test_identity_only_full_overlap(self):
        # only the identity order shares all n edges; sharing n - 1 forces the n-th
        for n in range(1, 65):
            table = pathcount.directed_overlap_table(n)
            assert table[n] == 1 and table[n - 1] == 0

    def test_frozen_tables(self):
        for n, expected in self.FROZEN.items():
            assert pathcount.directed_overlap_table(n) == expected

    def test_total_is_factorial(self):
        for n in range(1, 65):
            assert sum(pathcount.directed_overlap_table(n)) == math.factorial(n)

    def test_refined_envelope_n5_k1(self):
        assert pathcount.directed_overlap_table(5)[1] <= math.factorial(4) * 2 * 1.5

    def test_envelopes_hold_at_n64(self):
        rows = simulator.directed_overlap_envelopes(64)
        assert len(rows) == 65
        assert all(coarse_ok and refined_ok for *_, coarse_ok, refined_ok in rows)

    def test_rejects_n_below_one(self):
        with pytest.raises(polylab.UsageError):
            pathcount.directed_overlap_table(0)
