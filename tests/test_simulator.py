import dataclasses
import math
import os

import numpy as np
import pytest
import scipy.sparse.csgraph
from hypothesis import given, settings, strategies as st

import polylab
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

    @pytest.mark.parametrize("seed", (0, 77, 2**64 - 1))
    @pytest.mark.parametrize("n", range(1, 9))
    def test_table_matches_scalar_keys(self, n, seed):
        inst = HypercubeInstance(n=n, seed=seed)
        table = simulator.weight_table(inst)
        # every entry is -log of the scalar uniform that edge_weight draws, from either endpoint
        uniform = [[simulator.prng.uniform01(seed, v & ~(1 << d), d) for d in range(n)] for v in range(1 << n)]
        assert np.array_equal(table, -np.log(uniform))
        # numpy's log rounds differently from math.log in the last place on some draws
        scalar = np.array([[simulator.edge_weight(inst, v, d) for d in range(n)] for v in range(1 << n)])
        assert np.all(np.abs(table - scalar) <= np.spacing(scalar))

    @pytest.mark.parametrize("n", (1, 5, 12))
    def test_table_draws_each_edge_once(self, monkeypatch, n):
        calls = []
        draw = simulator.prng.exponential_array

        def counting(seed, a, b):
            calls.append((a.shape, np.shape(b)))
            return draw(seed, a, b)

        monkeypatch.setattr(simulator.prng, "exponential_array", counting)
        simulator.weight_table(HypercubeInstance(n=n, seed=3))
        edges = (1 << (n - 1)) * n
        assert calls == [((edges,), (edges,))]  # one call, 1-D keys and dims

    def test_array_second_keys_match_scalar(self):
        dims = np.arange(26, dtype=np.uint64)
        for seed in (0, 77, 2**64 - 1):
            inst = HypercubeInstance(n=26, seed=seed)
            for vertex in (0, 0b101101, 2**26 - 1):
                keys = np.array([vertex & ~(1 << d) for d in range(26)], dtype=np.uint64)
                drawn = simulator.prng.exponential_array(seed, keys, dims)
                uniform = [simulator.prng.uniform01(seed, vertex & ~(1 << d), d) for d in range(26)]
                assert drawn.tolist() == (-np.log(uniform)).tolist()  # the scalar uniforms through numpy's log
                # math.log rounds differently from numpy's log in the last place on some draws
                scalar = np.array([simulator.edge_weight(inst, vertex, d) for d in range(26)])
                assert np.all(np.abs(drawn - scalar) <= np.spacing(scalar))

    @given(
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        keys=st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=40),
        unsigned=st.booleans(),
        second=st.one_of(
            st.integers(min_value=0, max_value=2**64 - 1),
            st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=40, max_size=40),
        ),
    )
    @settings(max_examples=200)
    def test_array_draws_match_scalar(self, seed, keys, unsigned, second):
        prng = simulator.prng
        if not unsigned:  # int64 keys, read modulo 2^64 like the scalar's masks
            keys = [k - 2**64 if k >= 2**63 else k for k in keys]
        a = np.array(keys, dtype=np.uint64 if unsigned else np.int64)
        b = second if isinstance(second, int) else np.array(second[: len(keys)], dtype=np.uint64)
        pairs = [(k, second if isinstance(second, int) else second[i]) for i, k in enumerate(keys)]
        assert prng.mix64_array(seed, a, b).tolist() == [prng.mix64(seed, k, j) for k, j in pairs]
        uniform = [prng.uniform01(seed, k, j) for k, j in pairs]
        assert prng.uniform01_array(seed, a, b).tolist() == uniform
        drawn = prng.exponential_array(seed, a, b)
        assert drawn.tolist() == (-np.log(uniform)).tolist()  # the scalar uniforms through numpy's log
        scalar = np.array([prng.exponential(seed, k, j) for k, j in pairs])
        assert np.all(np.abs(drawn - scalar) <= np.spacing(scalar))  # math.log differs in the last place
        assert a.tolist() == keys  # the kernels work on a copy of the keys

    def test_positive_where_the_uniform_rounds_to_one(self):
        # mix64(seed, 0, 0) = 2^64 - 1, so (mix64 + 0.5) * 2^-64 rounds to 1.0
        seed = 2175043581997826243
        assert simulator.prng.mix64(seed, 0, 0) == 2**64 - 1
        inst = HypercubeInstance(n=1, seed=seed)
        assert simulator.edge_weight(inst, 0, 0) > 0.0
        zero = np.array([0], dtype=np.uint64)
        assert simulator.prng.exponential_array(seed, zero, 0)[0] > 0.0
        assert simulator.prng.exponential_array(seed, zero, zero)[0] > 0.0
        assert simulator.ground_state(inst).energy > 0.0

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


def _depths(path, n):
    """(j/l, d_j/n) after every step j of the path."""
    return [(j / path.length, bin(v).count("1") / n) for j, v in enumerate(path.vertices[1:], start=1)]


class TestPolymerPath:
    def test_from_vertices_fully_directed(self):
        inst = HypercubeInstance(n=5, seed=3)
        path = PolymerPath.from_vertices(inst, [0, 1, 3, 7, 15, 31])
        assert path.steps == (1, 2, 3, 4, 5)
        assert path.length == 5
        assert path.backstep_count == 0
        assert path.is_loopless()

    def test_from_vertices_with_backstep(self):
        inst = HypercubeInstance(n=3, seed=3)
        path = PolymerPath.from_vertices(inst, [0, 1, 3, 2, 3, 7])
        assert path.steps == (1, 2, -1, 1, 3)
        assert path.backstep_count == 1
        assert path.length == 5
        assert not path.is_loopless()  # the +1 after -1 revisits a vertex

    def test_invalid_steps_rejected(self):
        inst = HypercubeInstance(n=3, seed=3)
        with pytest.raises(ValueError):
            PolymerPath.from_vertices(inst, [0, 1, 1, 3, 7])  # repeated vertex: a step that flips no bit
        with pytest.raises(ValueError):
            PolymerPath.from_vertices(inst, [0, 3, 7])  # a step that flips two bits
        with pytest.raises(ValueError):
            PolymerPath.from_vertices(inst, [0, 8, 9, 11, 15, 7])  # dimension out of range

    def test_wrong_endpoints_rejected(self):
        inst = HypercubeInstance(n=3, seed=3)
        with pytest.raises(ValueError):
            PolymerPath.from_vertices(inst, [1, 3, 7])  # wrong start
        with pytest.raises(ValueError):
            PolymerPath.from_vertices(inst, [0, 1, 3])  # wrong end
        with pytest.raises(ValueError):
            PolymerPath.from_vertices(inst, [])  # no ends at all

    def test_energy_is_sum_of_edge_weights(self):
        inst = HypercubeInstance(n=4, seed=11)
        path = PolymerPath.from_vertices(inst, [0, 2, 3, 7, 15])
        weights = [
            simulator.edge_weight(inst, a, (a ^ b).bit_length() - 1)
            for a, b in zip(path.vertices, path.vertices[1:])
        ]
        assert path.weights == tuple(weights)
        total = 0.0
        for w in weights:
            total += w
        assert path.energy == total


class TestGroundState:
    def test_single_edge(self):
        inst = HypercubeInstance(n=1, seed=5)
        path = simulator.ground_state(inst)
        assert path.steps == (1,)
        assert path.energy == simulator.edge_weight(inst, 0, 0)

    @pytest.mark.parametrize("n", (1, 2, 3, 4))
    def test_equals_brute_force_over_seeds(self, n):
        for seed in range(25):
            inst = HypercubeInstance(n=n, seed=seed)
            path_fast = simulator.ground_state(inst)
            path_brute = simulator.brute_force_ground_state(inst)
            assert path_fast.energy == path_brute.energy, (n, seed)
            assert path_fast.length == path_brute.length
            path_bidi = simulator._ball_search(inst)
            assert path_bidi.energy == path_brute.energy, (n, seed)
            assert path_bidi.vertices == path_brute.vertices, (n, seed)

    @pytest.mark.parametrize("n", range(1, 15))
    def test_bidirectional_equals_csr(self, n):
        for seed in range(12 if n <= 10 else 4):
            inst = HypercubeInstance(n=n, seed=seed)
            path_csr = simulator._csr_search(inst)
            path_bidi = simulator._ball_search(inst)
            assert path_bidi.energy == path_csr.energy, (n, seed)
            assert path_bidi.vertices == path_csr.vertices, (n, seed)

    @pytest.mark.parametrize("start", [1e-3, math.inf], ids=["tiny", "unbounded"])
    def test_csr_start_radius_does_not_change_the_path(self, monkeypatch, start):
        expected = {
            (n, seed): simulator._csr_search(HypercubeInstance(n=n, seed=seed))
            for n in range(1, simulator.CSR_MAX_DIMENSION + 1)
            for seed in (0, 1, 2, 2**64 - 1)
        }
        limits = []
        dijkstra = scipy.sparse.csgraph.dijkstra  # _csr_search imports it on each call

        def recording(*args, limit, **kwargs):
            limits.append(limit)
            return dijkstra(*args, limit=limit, **kwargs)

        monkeypatch.setattr(simulator, "_CSR_START_RADIUS", start)
        monkeypatch.setattr(scipy.sparse.csgraph, "dijkstra", recording)
        for (n, seed), path in expected.items():
            got = simulator._csr_search(HypercubeInstance(n=n, seed=seed))
            assert (got.vertices, got.energy) == (path.vertices, path.energy), (n, seed)
        if start == math.inf:
            assert limits == [math.inf] * len(expected)  # one unbounded call per search
        else:
            grown = [start]  # the radii of searches that never found a walk
            while grown[-1] < 4:
                grown.append(simulator._CSR_GROWTH * grown[-1])
            assert grown[1] in limits  # a search that found no walk grew its radius
            assert any(limit not in grown for limit in limits)  # and one that found a walk took half its cost

    def test_csr_layout_is_shared_and_read_only(self):
        cols, indptr, low, dims = simulator._csr_layout(5)
        assert simulator._csr_layout(5)[0] is cols
        assert cols.shape == (32, 5) and cols[0b10110, 3] == 0b11110
        assert low[3 * 16 + 5] == 0b00101 and low[3 * 16 + 9] == 0b10001 and dims[3 * 16] == 3
        for array in (cols, indptr, low, dims):
            with pytest.raises(ValueError):
                array[0] = 1

    # (m_n, steps) of the compiled CSR engine, which searched every n before
    # the bidirectional search took over above CSR_MAX_DIMENSION; (12, *) and
    # (13, 0) are from its single-source form, which labelled the whole cube,
    # and (14, *) from the ball search, which searched n = 14 when they were
    # pinned
    FROZEN_CSR = {
        (12, 0): (1.2787375427876255, (7, 10, 11, 5, 12, 2, 6, 4, 1, 9, 8, 3)),
        (12, 1): (1.0770808010020059, (12, 4, -12, 9, 7, 5, -7, 3, 10, 7, 2, 11, 8, 1, 12, 6)),
        (13, 0): (1.102131982241516, (8, 7, 13, 3, 6, 1, 2, 10, 5, 12, 4, 11, 9)),
        (14, 0): (1.0827415589643317, (6, 10, 8, 3, 5, 1, 4, 9, 13, 2, 11, -4, 14, 12, 7, 4)),
        (14, 1): (1.024675441986012, (12, 4, 1, 14, -4, 7, 10, 6, 13, 9, 11, 4, 2, 8, 5, 3)),
        (15, 0): (1.0709965982336396, (8, 7, 13, 3, 6, 2, 15, 4, 14, 9, 5, -8, 11, 8, 12, 10, 1)),
        (15, 1): (1.0295319902959377, (12, 4, 1, 14, 15, 5, 6, 2, 7, 9, 3, 10, 13, 11, -13, 8, 13)),
        (15, 2): (1.1892406918273066, (11, 5, 13, 6, 8, 9, 12, 3, 14, 2, -5, -6, 4, 1, 5, 7, -13, 10, -3, 15, 3, 6, 13)),
        (15, 3): (1.0661809683526937, (3, 11, 2, 8, 1, -11, 4, 9, 13, 12, 5, 15, -2, 10, 7, 14, 2, 11, 6)),
        (16, 0): (0.8495038704450706, (8, 7, 15, 12, 1, 2, 3, 4, 13, 9, 14, 16, 5, 11, 10, 6)),
        (16, 1): (1.0017355309158564, (12, 4, -12, 9, 13, 7, 5, 3, 14, 11, 10, 1, 16, 8, 6, 15, 2, 12)),
        (16, 2): (0.9047001958489204, (11, 5, 13, 6, 10, 1, 2, 16, 14, 15, 8, 4, 7, 12, 3, 9)),
        (16, 3): (0.9276857752261101, (3, 11, 2, 8, -2, 5, 12, 7, 15, 2, 1, 9, 14, 4, 13, -3, 16, 10, 6, 3)),
        (18, 0): (0.9345234399358474, (8, 7, 15, 12, 1, 18, 2, 5, 10, 4, 9, 17, -5, 16, 3, 6, 13, 5, 14, 11)),
        (18, 1): (0.9568007463810855, (12, 4, 1, 17, 18, 15, 13, 5, 9, 7, 16, 11, 14, 3, 8, 6, 2, 10)),
        (18, 2): (1.0454045947757318, (11, 5, 13, 6, 10, 1, 2, 16, 14, 9, 12, 3, 15, 4, 18, 8, 17, 7)),
        (20, 0): (0.8443707827046596, (8, 15, 16, 14, -16, 13, 10, 7, 4, 12, -14, 3, 20, 18, 1, 5, 14, -5, 9, 5, 6, 11, 17, 2, 16, 19)),
        (20, 1): (0.9389721596667946, (12, 4, 18, -4, 7, 8, -7, 15, 4, 1, 2, 14, 13, 11, 9, 19, 6, 7, 17, 20, 16, 10, 3, 5)),
        (21, 0): (0.9201817733936778, (13, 21, 14, 1, 9, 20, 3, 15, 8, 5, 4, 7, 17, 18, 2, 11, 6, 10, 19, 12, 16)),
        (21, 1): (0.9498201584949094, (12, 4, 18, 20, 10, 7, 1, -4, 16, 17, -1, 14, 1, 9, 13, 8, 3, 11, -3, 2, -7, 21, 7, -2, 4, 2, 15, 3, 5, 19, 6)),
    }

    @pytest.mark.parametrize("n, seed", sorted(FROZEN_CSR))
    def test_reproduces_frozen_csr_results(self, n, seed):
        path = simulator.ground_state(HypercubeInstance(n=n, seed=seed))
        assert (path.energy, path.steps) == self.FROZEN_CSR[n, seed]

    # (m_n, steps) of the per-vertex bidirectional Dijkstra that searched
    # above CSR_MAX_DIMENSION before the ball search replaced it; (26, 0),
    # out of that engine's reach, is from the first ball search
    FROZEN_LARGE_N = {
        (22, 0): (0.9447123743635504, (7, 21, 8, 2, 5, 10, 12, 3, 17, 1, 16, 15, 11, -21, -1, -12, 6, 20, 22, 4, 14, 9, 12, 18, 13, 19, 1, 21)),
        (22, 1): (0.9572737362605465, (12, 4, 1, 21, 7, -12, 17, 22, 10, 19, 2, 20, 11, 3, -20, 15, 9, 18, 5, 14, 12, 16, 20, 6, 13, 8)),
        (24, 0): (0.9859858784519503, (8, 15, 6, 10, 18, 20, 24, 7, 9, -24, 12, 21, 16, 5, 24, -12, -16, -21, 23, 16, -7, 11, 3, 22, 17, 21, 19, 2, -24, 14, 1, 12, 7, 13, 4, 24)),
        (26, 0): (1.0264993931719888, (7, 21, 8, 2, 5, 10, 12, 3, 17, 1, 16, 22, 19, 14, 26, 25, -12, 9, 23, 13, 15, 6, 11, 12, -22, 24, 4, 22, 20, 18)),
    }

    @pytest.mark.parametrize("n, seed", sorted(FROZEN_LARGE_N))
    def test_reproduces_frozen_large_n_results(self, n, seed):
        path = simulator.ground_state(HypercubeInstance(n=n, seed=seed))
        assert (path.energy, path.steps) == self.FROZEN_LARGE_N[n, seed]

    @given(n=st.integers(min_value=1, max_value=16), seed=st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=60)
    def test_bidirectional_path_properties(self, n, seed):
        inst = HypercubeInstance(n=n, seed=seed)
        path = simulator._ball_search(inst)
        assert path.vertices[0] == 0 and path.vertices[-1] == inst.target
        assert path.is_loopless()
        assert path.length >= n and (path.length - n) % 2 == 0
        assert path.backstep_count == (path.length - n) // 2
        energy = 0.0
        for a, b in zip(path.vertices, path.vertices[1:]):
            assert bin(a ^ b).count("1") == 1
            energy += simulator.edge_weight(inst, a, (a ^ b).bit_length() - 1)
        assert path.energy == energy
        directed = PolymerPath.from_vertices(inst, [(1 << j) - 1 for j in range(n + 1)])
        assert path.energy <= directed.energy

    def test_path_invariants(self):
        for seed in (0, 7, 42):
            inst = HypercubeInstance(n=10, seed=seed)
            path = simulator.ground_state(inst)
            assert path.vertices[0] == 0
            assert path.vertices[-1] == inst.target
            assert path.is_loopless()
            assert path.energy > 0
            assert path.length >= 10 and (path.length - 10) % 2 == 0
            for a, b in zip(path.vertices, path.vertices[1:]):
                assert bin(a ^ b).count("1") == 1

    def test_determinism(self):
        inst = HypercubeInstance(n=12, seed=99)
        first = simulator.ground_state(inst)
        second = simulator.ground_state(inst)
        assert first.energy == second.energy
        assert first.steps == second.steps

    def test_lower_bound_regression_n16(self):
        # tail bound P(m_n <= 0.55) <~ e^x sinh(0.55)^16 is about 1e-4; the
        # observed minimum over seeds 42..61 is frozen at 0.8800098
        values = [
            simulator.ground_state(HypercubeInstance(n=16, seed=s)).energy for s in range(42, 62)
        ]
        assert min(values) > 0.55
        assert min(values) == pytest.approx(0.8800098467873847, rel=1e-12)


class TestBruteForceGroundState:
    def test_rejects_large_n(self):
        with pytest.raises(ValueError):
            simulator.brute_force_ground_state(HypercubeInstance(n=5, seed=0))

    def test_parity_at_n4(self):
        inst = HypercubeInstance(n=4, seed=11)
        path = simulator.brute_force_ground_state(inst)
        assert path.length >= 4 and (path.length - 4) % 2 == 0


class TestPathStatistics:
    def test_fully_directed_diagonal(self):
        inst = HypercubeInstance(n=5, seed=3)
        path = PolymerPath.from_vertices(inst, [0, 1, 3, 7, 15, 31])
        record = simulator.path_statistics(inst, path)
        assert record.backstep_count == 0
        assert record.backstep_deciles == (0,) * simulator.BACKSTEP_DECILES
        assert _depths(path, 5) == [(j / 5, j / 5) for j in range(1, 6)]
        # step j lands in bin int(20 j / 5) (the last step in bin 19) with depth j / 5
        filled = {4: 0.2, 8: 0.4, 12: 0.6, 16: 0.8, 19: 1.0}
        for i, mean in enumerate(record.profile_bins):
            assert mean == filled[i] if i in filled else math.isnan(mean)

    def test_backstep_dips_depth(self):
        inst = HypercubeInstance(n=3, seed=3)
        path = PolymerPath.from_vertices(inst, [0, 1, 3, 2, 3, 7])
        record = simulator.path_statistics(inst, path)
        depths = [d for _, d in _depths(path, 3)]
        assert record.backstep_count == 1
        assert depths[2] == depths[1] - 1 / 3  # the backstep lowers depth by 1/n
        assert record.backstep_deciles[5] == 1  # step 3 of 5: decile int(2.5 / 5 * 10)

    def test_first_half_energy(self):
        inst = HypercubeInstance(n=4, seed=5)
        path = simulator.ground_state(inst)
        record = simulator.path_statistics(inst, path)
        half = (path.length + 1) // 2
        expected = sum(
            simulator.edge_weight(inst, a, (a ^ b).bit_length() - 1)
            for a, b in list(zip(path.vertices, path.vertices[1:]))[:half]
        )
        assert record.first_half_energy == pytest.approx(expected, rel=1e-12)
        assert 0.0 < record.first_half_energy < record.m_n == path.energy

    @given(
        n=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        flips=st.lists(st.integers(min_value=0, max_value=7), max_size=40),
    )
    @settings(max_examples=200)
    def test_any_walk_matches_its_vertex_definitions(self, n, seed, flips):
        # random flips from 0, with backsteps and revisits, then forward steps to the target
        vertices = [0]
        for d in flips:
            vertices.append(vertices[-1] ^ (1 << d % n))
        for d in range(n):
            if not vertices[-1] >> d & 1:
                vertices.append(vertices[-1] | (1 << d))
        inst = HypercubeInstance(n=n, seed=seed)
        path = PolymerPath.from_vertices(inst, vertices)
        record = simulator.path_statistics(inst, path)
        pairs = list(zip(vertices, vertices[1:]))
        l = len(pairs)
        assert path.length == record.length == l
        assert path.steps == tuple((a ^ b).bit_length() * (1 if b > a else -1) for a, b in pairs)
        backsteps = [j for j, (a, b) in enumerate(pairs, start=1) if b < a]
        assert path.backstep_count == record.backstep_count == len(backsteps)
        deciles = [0] * simulator.BACKSTEP_DECILES
        for j in backsteps:
            deciles[min(simulator.BACKSTEP_DECILES - 1, int((j - 0.5) / l * simulator.BACKSTEP_DECILES))] += 1
        assert record.backstep_deciles == tuple(deciles)
        sums, counts = [0.0] * simulator.PROFILE_BINS, [0] * simulator.PROFILE_BINS
        for alpha, depth in _depths(path, n):
            i = min(simulator.PROFILE_BINS - 1, int(alpha * simulator.PROFILE_BINS))
            sums[i] += depth
            counts[i] += 1
        means = [total / count if count else math.nan for total, count in zip(sums, counts)]
        assert np.array_equal(record.profile_bins, means, equal_nan=True)
        half = 0.0
        for w in path.weights[: (l + 1) // 2]:
            half += w
        assert record.first_half_energy == half

    def test_profile_deviation_regression_n18(self):
        # mean absolute deviation of measured profiles from the closed-form
        # depth curve, rescaled by the empirical length; frozen at 0.0603
        mads = []
        for seed in range(42, 52):
            inst = HypercubeInstance(n=18, seed=seed)
            path = simulator.ground_state(inst)
            scale = path.length / (L * 18)
            devs = [
                abs(depth - math.sinh(a * scale * E) * math.cosh((1 - a) * scale * E))
                for a, depth in _depths(path, 18)
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

    def test_parallelism_does_not_change_output(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)  # the same thread counts on any host
        for n, trials, parallelism in ((8, 8, 4), (12, 6, 2)):
            serial_records, serial_summary = simulator.run_trials(n, trials, base_seed=7, parallelism=1)
            simulator._csr_layout.cache_clear()  # the threads race to build the layout they share
            parallel_records, parallel_summary = simulator.run_trials(n, trials, base_seed=7, parallelism=parallelism)
            # repr-level comparison: nan-valued empty bins defeat == on floats
            assert repr(serial_records) == repr(parallel_records), n
            assert repr(serial_summary) == repr(parallel_summary), n

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """The `max_workers` of every pool `run_trials` starts."""
        asked = []

        class RecordingPool(simulator.ThreadPoolExecutor):
            def __init__(self, max_workers):
                asked.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(simulator, "ThreadPoolExecutor", RecordingPool)
        return asked

    def test_pool_never_outnumbers_trials(self, monkeypatch, pool_sizes):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        pooled = simulator.run_trials(4, 3, 0, parallelism=64)
        assert pool_sizes == [3]
        assert repr(pooled) == repr(simulator.run_trials(4, 3, 0, parallelism=1))

    @pytest.mark.parametrize("cores, threads", [(2, [2]), (1, []), (None, [])])
    def test_pool_never_outnumbers_cores(self, monkeypatch, pool_sizes, cores, threads):
        # pool.map submits every trial at once, so an uncapped pool could start one thread per trial
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        pooled = simulator.run_trials(4, 6, 0, parallelism=1000)
        assert pool_sizes == threads
        assert repr(pooled) == repr(simulator.run_trials(4, 6, 0, parallelism=1))

    @pytest.mark.parametrize(
        "n, base_seed",
        [
            pytest.param(4, -1, id="-1"),
            pytest.param(4, 2**64 - 2, id=str(2**64 - 2)),
            pytest.param(0, 0, id="n=0"),
            pytest.param(simulator.MAX_DIMENSION + 1, 0, id="n=MAX_DIMENSION+1"),
        ],
    )
    def test_out_of_range_seeds_rejected_before_any_trial(self, monkeypatch, n, base_seed):
        ran = []
        monkeypatch.setattr(simulator, "run_trial", lambda *args: ran.append(args))
        with pytest.raises(polylab.UsageError):
            simulator.run_trials(n, 3, base_seed)
        assert ran == []

    def test_last_unsigned_seed_accepted(self):
        records, _ = simulator.run_trials(4, 2, 2**64 - 2)
        assert [r.seed for r in records] == [2**64 - 2, 2**64 - 1]

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


class TestAggregateRecords:
    # all-empty profile bins (n = 1, 6, 12) average to NaN with a NaN standard error
    nan = math.nan
    FROZEN = {
        (1, 3, 0): {
            "n": 1,
            "trials": 3,
            "base_seed": 0,
            "mean_m_n": 1.9190648457012804,
            "std_m_n": 2.145567040018059,
            "mean_length_ratio": 1.0,
            "std_length_ratio": 0.0,
            "mean_first_half_fraction": 1.0,
            "mean_backstep_fraction": 0.0,
            "profile_bin_mean": (
                nan, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan,
                nan, nan, 1.0,
            ),
            "profile_bin_se": (
                nan, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan,
                nan, nan, 0.0,
            ),
            "backstep_decile_mean": (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
            "backstep_decile_se": (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
        },
        (6, 30, 5): {
            "n": 6,
            "trials": 30,
            "base_seed": 5,
            "mean_m_n": 1.167690004663308,
            "std_m_n": 0.360360570028048,
            "mean_length_ratio": 1.0888888888888888,
            "std_length_ratio": 0.14740554623801774,
            "mean_first_half_fraction": 0.5378699155912801,
            "mean_backstep_fraction": 0.03333333333333333,
            "profile_bin_mean": (
                nan, nan, 0.16666666666666666, 0.1666666666666666, nan, 0.3333333333333333,
                0.3333333333333332, 0.5, nan, nan, 0.5222222222222223, nan, 0.5833333333333334,
                0.6666666666666664, nan, 0.6666666666666666, 0.8333333333333335, 0.8333333333333333,
                nan, 1.0,
            ),
            "profile_bin_se": (
                nan, nan, 0.0, 1.1835017208228795e-17, nan, 0.0, 2.367003441645759e-17, 0.0, nan,
                nan, 0.015180667801421622, nan, 0.05103103630798288, 4.734006883291518e-17, nan,
                0.0, 2.367003441645759e-17, 3.925231146709438e-17, nan, 0.0,
            ),
            "backstep_decile_mean": (
                0.0, 0.0, 0.0, 0.0, 0.06666666666666667, 0.13333333333333333, 0.06666666666666667,
                0.0, 0.0, 0.0,
            ),
            "backstep_decile_se": (
                0.0, 0.0, 0.0, 0.0, 0.04554200340426489, 0.06206328908341751, 0.04554200340426489,
                0.0, 0.0, 0.0,
            ),
        },
        (12, 40, 9): {
            "n": 12,
            "trials": 40,
            "base_seed": 9,
            "mean_m_n": 1.059429890004002,
            "std_m_n": 0.1985479727257933,
            "mean_length_ratio": 1.15,
            "std_length_ratio": 0.13844373104863456,
            "mean_first_half_fraction": 0.5159027158097133,
            "mean_backstep_fraction": 0.05907738095238095,
            "profile_bin_mean": (
                nan, 0.08333333333333337, 0.1666666666666666, 0.2, 0.2552083333333333,
                0.2833333333333334, 0.3233333333333333, 0.38, 0.4208333333333333, nan, 0.4875,
                0.5625, 0.6, 0.65, 0.6927083333333333, 0.7375, 0.8066666666666668,
                0.8333333333333333, 0.9166666666666667, 1.0,
            ),
            "profile_bin_se": (
                nan, 6.582812753581314e-18, 1.1102230246251566e-17, 0.00816496580927726,
                0.00504294706537424, 0.009682458365518542, 0.013597385369580762,
                0.017688665548562132, 0.011004260538536884, nan, 0.012342761036332188,
                0.012058163440406488, 0.014907119849998596, 0.00942809041582063,
                0.017614256846964438, 0.006284626303749319, 0.009092121131323905,
                2.2204460492503132e-17, 1.7554167342883506e-17, 0.0,
            ),
            "backstep_decile_mean": (0.0, 0.0, 0.225, 0.15, 0.15, 0.125, 0.125, 0.1, 0.025, 0.0),
            "backstep_decile_se": (
                0.0, 0.0, 0.07489576089472623, 0.05645794895318107, 0.06661456297237113,
                0.05229125165837972, 0.05229125165837972, 0.04743416490252569, 0.02468552207266437,
                0.0,
            ),
        },
    }

    @pytest.mark.parametrize("n, trials, base_seed", sorted(FROZEN))
    def test_reproduces_frozen_summary(self, n, trials, base_seed):
        _, summary = simulator.run_trials(n, trials, base_seed)
        # repr-level comparison: nan never equals itself
        assert repr(dataclasses.asdict(summary)) == repr(self.FROZEN[n, trials, base_seed])
