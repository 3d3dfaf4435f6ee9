"""The vectorized SplitMix64 kernel: its exact uint64 -> float conversion and its out/scratch contract.

`tests/test_simulator.py` checks the kernel's draws against the scalar
routines; these tests check how it converts and where it writes.
"""

import tracemalloc

import numpy as np
import pytest

from polylab import prng

# where a 64-bit integer meets the float grid: exact below 2^53, ties from
# 2^53 + 1 on (2^53 + 1 rounds down to even), and the top, where
# 2^64 - 1025 rounds down to 2^64 - 2048 and 2^64 - 1 up to 2^64
_EDGES = (0, 1, 2**32 - 1, 2**32, 2**53 - 1, 2**53 + 1, 2**63 - 1, 2**63, 2**64 - 1025, 2**64 - 1)
_KERNELS = ((prng.mix64_array, np.uint64), (prng.uniform01_array, np.float64), (prng.exponential_array, np.float64))


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def _random_u64(count: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 2**64, count, dtype=np.uint64, endpoint=False)


# every length takes the exact halves; the resized edges run from the top,
# so that the one- and two-entry arrays hold the roundings at 2^64
_SIZES = (1, 2, 1023, 1024, 1025)


@pytest.mark.parametrize(
    "values",
    (
        np.array(_EDGES, dtype=np.uint64),
        *(np.resize(np.array(_EDGES[::-1], dtype=np.uint64), size) for size in _SIZES),
        _random_u64(100, 19),
        _random_u64(10**5, 20),
    ),
    ids=("edges", *(f"edges-{size}" for size in _SIZES), "random-short", "random"),
)
def test_float_conversion_matches_astype_and_python(values):
    z = values.copy()
    converted = prng._float_in_place(z.view(np.float64), np.empty(len(z), dtype=np.uint64))
    assert _bits(converted) == _bits(values.astype(np.float64))
    assert _bits(converted) == _bits([float(v) for v in values.tolist()])


@pytest.mark.parametrize("second", ("int", "array"))
@pytest.mark.parametrize("kernel, dtype", _KERNELS, ids=lambda v: getattr(v, "__name__", None))
def test_writes_into_slices_of_longer_buffers(kernel, dtype, second):
    a = _random_u64(1000, 21)
    b = 2**64 - 1 if second == "int" else _random_u64(1000, 22)
    keys, seconds = a.copy(), np.copy(b)
    out = np.full(1010, 7, dtype=dtype)
    scratch = np.full(1012, 9, dtype=np.uint64)
    for seed in (0, 2**64 - 1):  # the same buffers serve call after call
        target = out[3:1003]
        drawn = kernel(seed, a, b, out=target, scratch=scratch[5:1005])
        assert drawn is target
        assert drawn.tobytes() == kernel(seed, a, b).tobytes()
    assert (out[:3] == 7).all() and (out[1003:] == 7).all()
    assert (scratch[:5] == 9).all() and (scratch[1005:] == 9).all()
    assert a.tobytes() == keys.tobytes() and np.array_equal(b, seconds)  # the keys are read, never written


@pytest.mark.parametrize("second", (0, 2**64 - 1, "array"))
def test_signed_and_unsigned_keys_draw_alike(second):
    unsigned = _random_u64(1000, 23)
    b = _random_u64(1000, 24) if second == "array" else second
    drawn = prng.exponential_array(5, unsigned, b)
    # the same bits as int64, negative from 2^63 on
    assert prng.exponential_array(5, unsigned.view(np.int64), b).tobytes() == drawn.tobytes()
    out, scratch = np.empty(1000), np.empty(1000, dtype=np.uint64)
    assert prng.exponential_array(5, unsigned.view(np.int64), b, out=out, scratch=scratch).tobytes() == drawn.tobytes()
    small = np.arange(1000)
    assert (
        prng.exponential_array(5, small.astype(np.int32), b).tobytes()
        == prng.exponential_array(5, small.astype(np.uint64), b).tobytes()
    )
    # the ball search's keys: uint32 vertices, up to 2^32 - 1 at n = 32, and uint8 steps
    vertices = (unsigned >> np.uint64(32)).astype(np.uint32)
    vertices[:2] = 0, 2**32 - 1
    assert (
        prng.exponential_array(5, vertices, b).tobytes()
        == prng.exponential_array(5, vertices.astype(np.uint64), b).tobytes()
    )
    steps = (np.arange(1000) % 256).astype(np.uint8)
    assert (
        prng.exponential_array(5, unsigned, steps).tobytes()
        == prng.exponential_array(5, unsigned, steps.astype(np.uint64)).tobytes()
    )


@pytest.mark.parametrize("second", ("int", "array"))
def test_allocating_call_makes_two_arrays(second):
    # the output and the scratch; an array more would have been a temporary of a's length
    a = np.arange(1 << 16, dtype=np.uint64)
    b = 3 if second == "int" else np.tile(np.arange(16, dtype=np.uint64), len(a) // 16)
    prng.exponential_array(0, a, b)
    tracemalloc.start()
    try:
        prng.exponential_array(0, a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 2 * a.nbytes <= peak < 2 * a.nbytes + a.nbytes // 8
