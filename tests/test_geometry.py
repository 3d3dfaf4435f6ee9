import math

import pytest

import polylab
from polylab import checks, geometry
from polylab.constants import E, L

ALL_K = tuple(range(1, 65))


def grid(lo, hi, step):
    n = int(round((hi - lo) / step))
    return [lo + i * step for i in range(n + 1)]


class TestCoarseGraining:
    def test_single_slab(self):
        cg = geometry.solve_coarse_graining(1)
        assert cg.a == (1.0,)
        assert cg.d[0] == pytest.approx(1.0, abs=1e-15)
        assert cg.ef[0] == pytest.approx(1.0, abs=1e-15)
        assert abs(cg.eb[0]) < 1e-15

    def test_two_slabs_double_angle(self):
        cg = geometry.solve_coarse_graining(2)
        assert cg.a == pytest.approx((0.5, 0.5), abs=1e-15)
        # sinh(E/2)cosh(E/2) = sinh(E)/2 = 1/2
        assert cg.d[0] == pytest.approx(0.5, abs=1e-14)
        assert abs(cg.eb[0]) < 1e-14

    @pytest.mark.parametrize("K", ALL_K)
    def test_all_invariants_hold(self, K):
        # the constructor itself enforces every invariant at its tolerance
        cg = geometry.solve_coarse_graining(K)
        assert math.fsum(cg.a) == pytest.approx(1.0, abs=1e-12)
        for i in range(1, K + 1):
            lhs = math.sinh(cg.abar[i] * E) * math.cosh((1.0 - cg.abar[i]) * E)
            assert abs(lhs - i / K) <= 1e-10

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            geometry.solve_coarse_graining(0)


class TestDepthOfAlpha:
    def test_endpoints_and_midpoint(self):
        assert geometry.depth_of_alpha(0.0) == 0.0
        assert geometry.depth_of_alpha(1.0) == pytest.approx(1.0, abs=1e-15)
        assert geometry.depth_of_alpha(0.5) == pytest.approx(0.5, abs=1e-15)

    def test_strictly_increasing(self):
        xs = [i / 10000 for i in range(10001)]
        values = [geometry.depth_of_alpha(x) for x in xs]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_mirror_identity(self):
        # addition formula: depth(alpha) + depth(1 - alpha) = sinh(E) = 1
        for i in range(0, 10001, 7):
            alpha = i / 10000
            total = geometry.depth_of_alpha(alpha) + geometry.depth_of_alpha(1.0 - alpha)
            assert abs(total - 1.0) <= 1e-12

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            geometry.depth_of_alpha(-0.01)
        with pytest.raises(ValueError):
            geometry.depth_of_alpha(1.01)


class TestGFactor:
    def test_base_case_k2(self):
        # closed form [sinh(a1 E) K]^{1/K} [cosh(a1 E)/(1-1/K)]^{1-1/K} at K=2:
        # sinh(E/2)cosh(E/2) = 1/2 makes it exactly sqrt(2)
        cg = geometry.solve_coarse_graining(2)
        value = geometry.g_factor(1, cg.d[0], cg)
        assert value == pytest.approx(math.sqrt(2.0), abs=1e-12)
        # and the full product compensates through the mirror slab
        assert value * geometry.g_factor(2, cg.d[1], cg) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("K", (2, 4, 8, 16, 64))
    def test_first_slab_closed_form(self, K):
        cg = geometry.solve_coarse_graining(K)
        value = geometry.g_factor(1, 1.0 / K, cg)
        closed = (math.sinh(cg.a[0] * E) * K) ** (1.0 / K) * (
            math.cosh(cg.a[0] * E) / (1.0 - 1.0 / K)
        ) ** (1.0 - 1.0 / K) if K > 1 else math.sinh(cg.a[0] * E)
        assert value == pytest.approx(closed, abs=1e-12)

    def test_local_maximality_at_d3(self):
        cg = geometry.solve_coarse_graining(8)
        center = geometry.g_factor(3, cg.d[2], cg)
        assert center > geometry.g_factor(3, cg.d[2] + 0.01, cg)
        assert center > geometry.g_factor(3, cg.d[2] - 0.01, cg)

    def test_domain_violation_reported(self):
        cg = geometry.solve_coarse_graining(8)
        with pytest.raises(geometry.GeometryDomainError):
            geometry.g_factor(3, 0.01, cg)  # eb would be negative


class TestOptimalDClosedForm:
    @pytest.mark.parametrize("K", (4, 8, 16))
    def test_matches_depth_everywhere(self, K):
        cg = geometry.solve_coarse_graining(K)
        for j in range(2, K):
            assert abs(geometry.optimal_d_closed_form(j, cg) - cg.d[j - 1]) <= 1e-10

    def test_symmetric_pair(self):
        K = 16
        cg = geometry.solve_coarse_graining(K)
        left = geometry.optimal_d_closed_form(K // 2, cg)
        right = geometry.optimal_d_closed_form(K // 2 + 1, cg)
        assert abs(left - right) <= 1e-10

    def test_grid_argmax_agrees(self):
        K = 16
        cg = geometry.solve_coarse_graining(K)
        xhat = geometry.optimal_d_closed_form(5, cg)
        step = 1e-6
        xs = grid(1.0 / K + step, 3.0 / K, step)
        best = max(xs, key=lambda x: geometry.g_factor(5, x, cg))
        assert abs(best - xhat) <= 2e-6

    def test_unique_maximizer_sign_change(self):
        # first differences of g along the grid change sign exactly once
        for K in (4, 8, 16):
            cg = geometry.solve_coarse_graining(K)
            for j in range(2, K):
                step = 1e-4
                # the feasible depths of slab j: 1/K <= x <= min((2j-1)/K, 2 - (2j-1)/K)
                hi = min((2 * j - 1) / K, 2.0 - (2 * j - 1) / K)
                xs = grid(1.0 / K + step, min(hi - step, 3.5 / K), step)
                values = [geometry.g_factor(j, x, cg) for x in xs]
                diffs = [b - a for a, b in zip(values, values[1:])]
                changes = sum(
                    1 for a, b in zip(diffs, diffs[1:]) if (a > 0) != (b > 0)
                )
                assert changes == 1, (K, j)

    def test_rejects_boundary_slabs(self):
        cg = geometry.solve_coarse_graining(8)
        with pytest.raises(ValueError):
            geometry.optimal_d_closed_form(1, cg)
        with pytest.raises(ValueError):
            geometry.optimal_d_closed_form(8, cg)


class TestEvolutionProduct:
    @pytest.mark.parametrize("K", ALL_K)
    def test_partial_products_match_closed_form(self, K):
        cg = geometry.solve_coarse_graining(K)
        for i in range(1, K + 1):
            product = geometry.evolution_product(cg, i)
            closed = geometry.evolution_closed_form(cg, i)
            assert abs(product - closed) <= 1e-9, (K, i)

    @pytest.mark.parametrize("K", (1, 4, 8, 16, 64))
    def test_full_product_is_one(self, K):
        cg = geometry.solve_coarse_graining(K)
        assert abs(geometry.evolution_product(cg, K) - 1.0) <= 1e-9

    def test_base_case(self):
        cg = geometry.solve_coarse_graining(4)
        assert geometry.evolution_product(cg, 1) == pytest.approx(
            geometry.evolution_closed_form(cg, 1), abs=1e-12
        )


class TestFFunction:
    @pytest.mark.parametrize("K", (2, 4, 8, 16, 32, 64))
    def test_optimum_is_one(self, K):
        cg = geometry.solve_coarse_graining(K)
        assert abs(geometry.f_function(cg, cg.d) - 1.0) <= 1e-9

    def test_single_perturbation_below_one(self):
        cg = geometry.solve_coarse_graining(8)
        dvec = list(cg.d)
        dvec[2] += 0.01
        assert geometry.f_function(cg, dvec) < 1.0

    def test_double_perturbation_below_one(self):
        cg = geometry.solve_coarse_graining(16)
        dvec = list(cg.d)
        dvec[4] += 0.02
        dvec[9] -= 0.02
        assert geometry.f_function(cg, dvec) < 1.0

    @pytest.mark.parametrize("K", (2, 4, 8, 16, 32, 64))
    def test_product_criterion_forms_f_bit_for_bit(self, K):
        # the check reuses the factors at the solved depths; f_function evaluates every one
        cg = geometry.solve_coarse_graining(K)
        opt, perturbed = checks._one_slab_perturbations(cg)
        assert opt.hex() == geometry.f_function(cg, cg.d).hex()
        assert [(j, delta) for j, delta, _ in perturbed] == [(j, d) for j in range(1, K + 1) for d in (0.01, -0.01)]
        for j, delta, f in perturbed:
            dvec = list(cg.d)
            dvec[j - 1] += delta
            assert f.hex() == geometry.f_function(cg, dvec).hex(), (j, delta)
        assert any(f == 0.0 for *_, f in perturbed)  # an infeasible boundary depth reads as 0

    @pytest.mark.parametrize("K", ALL_K)
    def test_optimum_is_evolution_product_bit_for_bit(self, K):
        # both multiply the same factors left to right, starting from 1
        cg = geometry.solve_coarse_graining(K)
        assert geometry.f_function(cg, cg.d) == geometry.evolution_product(cg, K)

    def test_infeasible_depths_give_zero(self):
        # boundary slabs admit only depth 1/K; any perturbation empties the ensemble
        cg = geometry.solve_coarse_graining(8)
        dvec = list(cg.d)
        dvec[0] += 0.01
        assert geometry.f_function(cg, dvec) == 0.0


class TestOptimalProfile:
    def test_k8_without_cap(self):
        profile = geometry.build_optimal_profile(8, 0)
        diff = L - profile.L_opt
        # frozen finite-K value: the interior depths undershoot L by about 0.8/K
        assert 0.0 <= diff <= 1.0 / 8
        assert diff == pytest.approx(0.088104, abs=1e-6)

    @pytest.mark.parametrize("K", (8, 16, 32, 64))
    def test_cap_bound(self, K):
        profile = geometry.build_optimal_profile(K, 2)
        assert profile.L_opt >= L - 2.0 / K - 1e-12 - 1.0 / K
        assert L - profile.L_opt >= 0.0
        # with m >= 2 the combined pinning + finite-K loss stays under m/K
        assert L - profile.L_opt <= 2.0 / K + 1e-12

    def test_interior_matches_coarse_graining(self):
        cg = geometry.solve_coarse_graining(16)
        profile = geometry.build_optimal_profile(16, 3)
        assert profile.d_opt[3:13] == cg.d[3:13]
        assert profile.d_opt[:3] == (1.0 / 16,) * 3

    def test_rejects_wide_cap(self):
        with pytest.raises(ValueError):
            geometry.build_optimal_profile(4, 2)


class TestThetaHat:
    def test_value_at_one(self):
        assert geometry.theta_hat(1.0, 1.24) == 1.0
        assert geometry.theta_hat(1.0, 1.25) == 1.0

    @pytest.mark.parametrize("l_opt", (1.24, 1.25))
    def test_grid_sup_at_most_one(self, l_opt):
        sup = max(geometry.theta_hat(x, l_opt) for x in grid(0.0, 1.0, 1e-4))
        assert sup <= 1.0 + 1e-9

    def test_exponential_decay_bound(self):
        for x in grid(1e-4, 0.2, 1e-4):
            assert geometry.theta_hat(x, 1.25) <= math.exp(-x / 100.0)

    @pytest.mark.parametrize("step", (3e-4, 7e-4, 1e-3, 1e-4))
    def test_grid_sup_reaches_one(self, step):
        # 3e-4 does not divide 1: a grid of round(1 / step) steps ended at 0.9999
        assert geometry.theta_hat_sup(step, 1.25) == 1.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            geometry.theta_hat(-0.1, 1.25)
        with pytest.raises(ValueError):
            geometry.theta_hat(0.5, 1.0)
        with pytest.raises(polylab.UsageError):
            geometry.theta_hat(0.5, 1.25 + 1e-10)
        with pytest.raises(polylab.UsageError):
            geometry.theta_hat_sup(0.0, 1.24)


class TestScalarBranches:
    def test_g2_at_one(self):
        assert geometry.g2(1.0) == 1.0

    def test_g1_boundary_values(self):
        assert geometry.g1(0.12) <= 1.0
        assert geometry.g1(0.73) <= 1.0

    def test_min_branch_at_most_one(self):
        for x in grid(0.0, 1.0, 1e-4):
            assert min(geometry.g1(x), geometry.g2(x)) <= 1.0 + 1e-12


class TestVerifyScalarClaims:
    def test_all_items_pass_fine_grid(self):
        items = geometry.verify_scalar_claims(1e-4)
        assert all(it.passed for it in items), [it for it in items if not it.passed]
        assert [(it.name, it.detail) for it in items] == [
            ("theta_hat_sup", "grid sup = 1.000000000000"),
            ("theta_hat_decay", "min exp(-x/100) - theta_hat = 3.337e-05"),
            ("g1_log_convex", "min second difference = 0.365863"),
            ("g2_log_convex", "min second difference = 0.567301"),
            ("boundary_values", "g1(0.12)=0.960965 g1(0.73)=0.991430 g2(0.71)=0.999142 g2(1)=1.0"),
        ]

    def test_all_items_pass_coarse_grid(self):
        assert all(it.passed for it in geometry.verify_scalar_claims(1e-3))

    def test_g2_not_convex_below_claimed_interval(self):
        # widening the g2 convexity window to [0, 1] must fail: the second
        # log-derivative is genuinely negative near 0 (measured about -0.166)
        values = list(
            geometry._log_second_differences(geometry.g2, 0.0, 1.0, 1e-3)
        )
        assert min(v for _, v in values) < -1e-3

    def test_g1_convexity_extends_left_of_claimed_interval(self):
        # the claimed window [0.12, 0.73] is not tight on the left: the grid
        # second differences stay positive on all of [0, 0.73]
        values = list(
            geometry._log_second_differences(geometry.g1, 0.0, 0.73, 1e-3)
        )
        assert min(v for _, v in values) > 0.0

    def test_rejects_coarser_than_1e3(self):
        with pytest.raises(ValueError):
            geometry.verify_scalar_claims(5e-3)


class TestDepthLengthProximity:
    def test_report_scaled_deviation(self, capsys):
        # d_i tracks a_i * L up to a 1/K^2-scale error; the K^2-scaled maximum
        # is reported as a measured quantity, with no asserted constant
        for K in (8, 16, 32, 64):
            cg = geometry.solve_coarse_graining(K)
            worst = max(abs(d - a * L) for d, a in zip(cg.d, cg.a))
            with capsys.disabled():
                print(f"\n  depth-vs-length deviation: K={K:>2}  K^2*max|d_i - a_i L| = {worst * K * K:.4f}")
            assert math.isfinite(worst) and worst > 0.0
