import json
import math

import numpy as np
import pytest

from polylab import simulator
from polylab.constants import E, L
from polylab.simulator import HypercubeInstance, PolymerPath


class TestEdgeWeight:
    def test_same_weight_from_both_endpoints(self):
        inst = HypercubeInstance(n=5, seed=123)
        for vertex in (0b00000, 0b10110, 0b11111):
            for dim in range(5):
                w_low = simulator.edge_weight(inst, vertex & ~(1 << dim), dim)
                w_high = simulator.edge_weight(inst, vertex | (1 << dim), dim)
                assert w_low == w_high

    def test_weights_strictly_positive_and_finite(self):
        inst = HypercubeInstance(n=8, seed=9)
        table = simulator.weight_table(inst)
        assert np.all(table > 0.0)
        assert np.all(np.isfinite(table))

    def test_empirical_mean_near_one(self):
        inst = HypercubeInstance(n=16, seed=42)
        table = simulator.weight_table(inst)
        # each edge appears at both endpoints; the mean is unaffected
        assert 0.98 <= table.mean() <= 1.02

    def test_seed_sensitivity(self):
        t1 = simulator.weight_table(HypercubeInstance(n=8, seed=1))
        t2 = simulator.weight_table(HypercubeInstance(n=8, seed=2))
        assert sorted(t1.ravel()) != sorted(t2.ravel())

    def test_table_matches_scalar(self):
        inst = HypercubeInstance(n=6, seed=77)
        table = simulator.weight_table(inst)
        for vertex in range(1 << 6):
            for dim in range(6):
                assert table[vertex, dim] == simulator.edge_weight(inst, vertex, dim)

    def test_rejects_bad_dim(self):
        inst = HypercubeInstance(n=4, seed=0)
        with pytest.raises(ValueError):
            simulator.edge_weight(inst, 0, 4)

    def test_known_reference_values(self):
        # frozen cross-implementation anchors for the keyed generator,
        # computed once by hand from the mixing constants
        assert simulator.prng.mix64(0, 0, 0) == 0x8209B480FAED1B10
        assert simulator.prng.mix64(42, 5, 2) == 0x94AF97F78271E2F8
        assert simulator.prng.mix64(2**63, 123456789, 7) == 0xF39D55F6B19BD9EB
        inst = HypercubeInstance(n=1, seed=0)
        assert simulator.edge_weight(inst, 0, 0) == 0.6773514171531932
        assert simulator.prng.uniform01(42, 5, 2) == 0.5808043460151064


class TestPolymerPath:
    def test_from_steps_fully_directed(self):
        inst = HypercubeInstance(n=5, seed=3)
        path = PolymerPath.from_steps(inst, [1, 2, 3, 4, 5])
        assert path.length == 5
        assert path.backstep_count == 0
        assert path.vertices[0] == 0 and path.vertices[-1] == 31

    def test_from_steps_with_backstep(self):
        inst = HypercubeInstance(n=3, seed=3)
        path = PolymerPath.from_steps(inst, [1, 2, -1, 1, 3])
        assert path.backstep_count == 1
        assert path.length == 5
        assert path.vertices[-1] == 7
        assert not path.is_loopless()  # the +1 after -1 revisits a vertex

    def test_invalid_steps_rejected(self):
        inst = HypercubeInstance(n=3, seed=3)
        with pytest.raises(ValueError):
            PolymerPath.from_steps(inst, [1, 1, 2, 3])  # sets an already-set bit
        with pytest.raises(ValueError):
            PolymerPath.from_steps(inst, [1, 2])  # does not reach all-ones
        with pytest.raises(ValueError):
            PolymerPath.from_steps(inst, [4, 1, 2, 3])  # dimension out of range

    def test_energy_is_sum_of_edge_weights(self):
        inst = HypercubeInstance(n=4, seed=11)
        path = PolymerPath.from_steps(inst, [2, 1, 3, 4])
        total = sum(
            simulator.edge_weight(inst, a, (a ^ b).bit_length() - 1)
            for a, b in zip(path.vertices, path.vertices[1:])
        )
        assert path.energy == pytest.approx(total, rel=1e-9)


class TestGroundState:
    def test_single_edge(self):
        inst = HypercubeInstance(n=1, seed=5)
        m, path = simulator.ground_state(inst)
        assert path.steps == (1,)
        assert m == simulator.edge_weight(inst, 0, 0)

    @pytest.mark.parametrize("n", (1, 2, 3, 4))
    def test_equals_brute_force_over_seeds(self, n):
        for seed in range(25):
            inst = HypercubeInstance(n=n, seed=seed)
            m_fast, path_fast = simulator.ground_state(inst)
            m_brute, path_brute = simulator.brute_force_ground_state(inst)
            assert m_fast == m_brute, (n, seed)
            assert path_fast.length == path_brute.length

    def test_python_fallback_agrees(self, monkeypatch):
        # shrink the cap below the CSR footprint but above the distance buffer
        monkeypatch.setenv(simulator.MEM_CAP_ENV_VAR, "1")
        inst = HypercubeInstance(n=9, seed=4)
        m_small_cap, path_small_cap = simulator.ground_state(inst)
        monkeypatch.delenv(simulator.MEM_CAP_ENV_VAR)
        m_fast, path_fast = simulator.ground_state(inst)
        assert m_small_cap == m_fast
        assert path_small_cap.steps == path_fast.steps

    def test_path_invariants(self):
        for seed in (0, 7, 42):
            inst = HypercubeInstance(n=10, seed=seed)
            m, path = simulator.ground_state(inst)
            assert path.vertices[0] == 0
            assert path.vertices[-1] == inst.target
            assert path.is_loopless()
            assert m > 0
            assert path.length >= 10 and (path.length - 10) % 2 == 0
            for a, b in zip(path.vertices, path.vertices[1:]):
                assert bin(a ^ b).count("1") == 1

    def test_determinism(self):
        inst = HypercubeInstance(n=12, seed=99)
        first = simulator.ground_state(inst)
        second = simulator.ground_state(inst)
        assert first[0] == second[0]
        assert first[1].steps == second[1].steps

    def test_lower_bound_regression_n16(self):
        # tail bound P(m_n <= 0.55) <~ e^x sinh(0.55)^16 is about 1e-4; the
        # observed minimum over seeds 42..61 is frozen at 0.8800098
        values = [
            simulator.ground_state(HypercubeInstance(n=16, seed=s))[0] for s in range(42, 62)
        ]
        assert min(values) > 0.55
        assert min(values) == pytest.approx(0.8800098467873847, rel=1e-12)

    def test_memory_cap_violation(self, monkeypatch):
        monkeypatch.setenv(simulator.MEM_CAP_ENV_VAR, "1")
        with pytest.raises(simulator.MemoryCapError):
            simulator.ground_state(HypercubeInstance(n=18, seed=0))


class TestBruteForceGroundState:
    def test_rejects_large_n(self):
        with pytest.raises(ValueError):
            simulator.brute_force_ground_state(HypercubeInstance(n=5, seed=0))

    def test_parity_at_n4(self):
        inst = HypercubeInstance(n=4, seed=11)
        _, path = simulator.brute_force_ground_state(inst)
        assert path.length >= 4 and (path.length - 4) % 2 == 0


class TestPathStatistics:
    def test_fully_directed_diagonal(self):
        inst = HypercubeInstance(n=5, seed=3)
        path = PolymerPath.from_steps(inst, [1, 2, 3, 4, 5])
        stats = simulator.path_statistics(inst, path)
        assert stats.backstep_count == 0
        assert stats.normalized_depth_profile == tuple(
            (j / 5, j / 5) for j in range(1, 6)
        )

    def test_backstep_dips_depth(self):
        inst = HypercubeInstance(n=3, seed=3)
        path = PolymerPath.from_steps(inst, [1, 2, -1, 1, 3])
        stats = simulator.path_statistics(inst, path)
        depths = [d for _, d in stats.normalized_depth_profile]
        assert stats.backstep_count == 1
        assert depths[2] == depths[1] - 1 / 3  # the backstep lowers depth by 1/n

    def test_first_half_energy(self):
        inst = HypercubeInstance(n=4, seed=5)
        m, path = simulator.ground_state(inst)
        stats = simulator.path_statistics(inst, path)
        half = (path.length + 1) // 2
        expected = sum(
            simulator.edge_weight(inst, a, (a ^ b).bit_length() - 1)
            for a, b in list(zip(path.vertices, path.vertices[1:]))[:half]
        )
        assert stats.first_half_energy == pytest.approx(expected, rel=1e-12)
        assert 0.0 < stats.first_half_energy < m

    def test_profile_deviation_regression_n18(self):
        # mean absolute deviation of measured profiles from the closed-form
        # depth curve, rescaled by the empirical length; frozen at 0.0603
        mads = []
        for seed in range(42, 52):
            inst = HypercubeInstance(n=18, seed=seed)
            _, path = simulator.ground_state(inst)
            stats = simulator.path_statistics(inst, path)
            scale = path.length / (L * 18)
            devs = [
                abs(depth - math.sinh(a * scale * E) * math.cosh((1 - a) * scale * E))
                for a, depth in stats.normalized_depth_profile
            ]
            mads.append(sum(devs) / len(devs))
        assert sum(mads) / len(mads) == pytest.approx(0.0602896603, abs=1e-9)


class TestRunTrials:
    def test_records_and_aggregate_shape(self):
        records, summary = simulator.run_trials(8, 10, base_seed=100)
        assert len(records) == 10
        assert records[3].seed == 103
        assert summary.trials == 10
        assert len(summary.profile_bin_mean) == 20
        assert len(summary.backstep_decile_mean) == 10

    def test_parallelism_does_not_change_output(self):
        serial_records, serial_summary = simulator.run_trials(8, 8, base_seed=7, parallelism=1)
        parallel_records, parallel_summary = simulator.run_trials(8, 8, base_seed=7, parallelism=4)
        # repr-level comparison: nan-valued empty bins defeat == on floats
        assert repr(serial_records) == repr(parallel_records)
        assert repr(serial_summary) == repr(parallel_summary)

    def test_record_invariants(self):
        records, _ = simulator.run_trials(6, 12, base_seed=0)
        for r in records:
            assert r.m_n > 0
            assert r.length >= 6 and (r.length - 6) % 2 == 0
            assert r.backstep_count == (r.length - 6) // 2

    def test_empirical_small_energy_fraction_bounded(self):
        # tail bound: fraction of trials with m_n <= x is <~ 10 e^x sinh(x)^n
        records, _ = simulator.run_trials(16, 50, base_seed=42)
        for x in (0.55, 0.6, 0.65, 0.7):
            fraction = sum(1 for r in records if r.m_n <= x) / len(records)
            assert fraction <= 10.0 * math.exp(x) * math.sinh(x) ** 16


class TestSerialization:
    def test_json_fields(self):
        records, _ = simulator.run_trials(5, 2, base_seed=3)
        payload = simulator.trial_record_json_dict(records[0])
        assert set(payload) == {
            "n", "seed", "trial", "m_n", "length", "backsteps", "e_first_half",
            *(f"bin_{i:02d}" for i in range(20)),
        }
        json.dumps(payload)  # must be valid JSON (None for empty bins)


class TestDirectedOverlapCount:
    FROZEN = {
        2: [1, 0, 1],
        3: [3, 2, 0, 1],
        4: [14, 6, 3, 0, 1],
        5: [77, 29, 9, 4, 0, 1],
        6: [497, 160, 45, 12, 5, 0, 1],
        7: [3676, 1031, 249, 62, 15, 6, 0, 1],
    }

    def test_identity_only_full_overlap(self):
        assert simulator.directed_overlap_count(2, 2) == 1

    def test_frozen_tables(self):
        for n, expected in self.FROZEN.items():
            assert simulator.directed_overlap_table(n) == expected

    def test_total_is_factorial(self):
        for n in range(2, 8):
            assert sum(simulator.directed_overlap_table(n)) == math.factorial(n)

    def test_refined_envelope_n5_k1(self):
        assert simulator.directed_overlap_count(5, 1) <= math.factorial(4) * 2 * 1.5

    def test_envelopes_all_n(self):
        for n in range(2, 8):
            for k, f, coarse, ok_coarse, ok_refined in simulator.directed_overlap_envelopes(n):
                assert ok_coarse, (n, k, f, coarse)
                assert ok_refined, (n, k, f)

    def test_rejects_large_n(self):
        with pytest.raises(ValueError):
            simulator.directed_overlap_count(8, 0)
