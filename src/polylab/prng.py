"""Deterministic splittable random numbers via the SplitMix64 finalizer.

Every random quantity in the package is a pure function of a 64-bit seed and
a pair of stream keys, so simulations are reproducible bit-for-bit across
runs and degrees of parallelism.  Across platforms they are only as
reproducible as the logs they call, numpy's vectorized log and the C
library's, each chosen per CPU or platform; that has been checked on one host
only (x86-64 with AVX-512, numpy 2.4.6).  The scalar and the vectorized
routines implement the same function: mix64 and uniform01 agree bit for bit,
and an exponential differs in the last place where numpy's log rounds
differently from math.log.  The array routines write into caller-owned
`out` and `scratch` arrays when given them, so a loop of draws need
allocate nothing; without them they allocate those two arrays.
"""

import math

import numpy as np

from . import UsageError

_MASK64 = 0xFFFFFFFFFFFFFFFF
_KEY_A = 0x9E3779B97F4A7C15
_KEY_B = 0xD1B54A32D192ED03
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB
# Largest double below 1.  (mix64 + 0.5) * 2**-64 rounds to exactly 1.0 when
# mix64 >= 2**64 - 2**10; those draws are clamped here, every other draw is
# left as it is.
_U_MAX = 1.0 - 2.0**-53
# The array kernels' uint64 constants, made once: the xor-shift and multiply
# of each mixing round (the last has no multiply), and the halves of float(z).
_KEY_A_U64 = np.uint64(_KEY_A)
_KEY_B_U64 = np.uint64(_KEY_B)
_ROUNDS = ((np.uint64(30), np.uint64(_MIX_1)), (np.uint64(27), np.uint64(_MIX_2)), (np.uint64(31), None))
_HALF_BITS = np.uint64(32)
_LOW_HALF = np.uint64(0xFFFFFFFF)


def require_seeds(seed: int, count: int = 1) -> None:
    """Raise UsageError unless the seeds seed .. seed + count - 1 are all unsigned 64-bit."""
    if not 0 <= seed <= (1 << 64) - count:
        raise UsageError(f"seed must satisfy 0 <= seed <= 2^64 - {count}, got {seed}")


def mix64(seed: int, a: int, b: int) -> int:
    """SplitMix64 finalizer of seed ^ (a * KEY_A) ^ ((b + 1) * KEY_B)."""
    z = (seed ^ ((a * _KEY_A) & _MASK64) ^ (((b + 1) * _KEY_B) & _MASK64)) & _MASK64
    z ^= z >> 30
    z = (z * _MIX_1) & _MASK64
    z ^= z >> 27
    z = (z * _MIX_2) & _MASK64
    z ^= z >> 31
    return z


def uniform01(seed: int, a: int, b: int) -> float:
    """Open-interval uniform in (0, 1): u = (mix64 + 0.5) * 2**-64, clamped to _U_MAX."""
    u = (mix64(seed, a, b) + 0.5) * 2.0**-64
    return u if u < 1.0 else _U_MAX


def exponential(seed: int, a: int, b: int) -> float:
    """Strictly positive Exp(1) variate via inverse CDF."""
    return -math.log(uniform01(seed, a, b))


def mix64_array(
    seed: int, a: np.ndarray, b: int | np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None
) -> np.ndarray:
    """Vectorized mix64 over a 1-D array of first keys, written into `out` and returned.

    The second key is one int, whose term joins the seed in one xor, or an
    integer array of a's shape.  Keys of any integer dtype are read modulo
    2^64 like the scalar's masks, and a and b are left untouched.

    `out` and `scratch` are uint64 arrays of a's length that the caller
    owns and may reuse from call to call (slices of longer arrays will do);
    they share no memory with a, b or each other.  `scratch` takes each
    round's shifted copy and holds nothing useful afterwards.  Each that is
    None is allocated here, so the allocating call runs the same code.
    """
    z = np.empty(len(a), np.uint64) if out is None else out
    t = np.empty(len(a), np.uint64) if scratch is None else scratch
    np.multiply(a.view(np.uint64) if a.dtype == np.int64 else a, _KEY_A_U64, out=z, dtype=np.uint64, casting="unsafe")
    if isinstance(b, np.ndarray):
        np.add(b, np.uint64(1), out=t, dtype=np.uint64, casting="unsafe")
        t *= _KEY_B_U64
        z ^= t
        z ^= np.uint64(seed)
    else:
        z ^= np.uint64(seed ^ (((int(b) + 1) * _KEY_B) & _MASK64))
    for shift, factor in _ROUNDS:
        np.right_shift(z, shift, out=t)
        z ^= t
        if factor is not None:
            z *= factor
    return z


def _float_in_place(u: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Replace the uint64 that u's bytes hold by its float64, rounded as astype(np.float64) rounds it.

    numpy converts uint64 with a scalar loop.  Instead float(z >> 32) 2^32
    and float(z & (2^32 - 1)) each convert exactly from an int64 view, in
    place, and their sum is rounded once, so every bit matches, at any
    length.  `scratch` is a uint64 array of u's length.
    """
    z = u.view(np.uint64)
    np.right_shift(z, _HALF_BITS, out=scratch)
    z &= _LOW_HALF
    u[...] = z.view(np.int64)
    high = scratch.view(np.float64)
    high[...] = scratch.view(np.int64)
    high *= 2.0**32
    u += high
    return u


def uniform01_array(
    seed: int, a: np.ndarray, b: int | np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None
) -> np.ndarray:
    """Vectorized uniform01, with mix64_array's contract except that `out` is float64.

    mix64 runs in `out` viewed as uint64 and is converted there.
    """
    u = np.empty(len(a)) if out is None else out
    t = np.empty(len(a), np.uint64) if scratch is None else scratch
    mix64_array(seed, a, b, u.view(np.uint64), t)
    _float_in_place(u, t)
    u += 0.5
    u *= 2.0**-64
    return np.minimum(u, _U_MAX, out=u)


def exponential_array(
    seed: int, a: np.ndarray, b: int | np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None
) -> np.ndarray:
    """Vectorized exponential, with uniform01_array's contract on a, b, out and scratch."""
    u = uniform01_array(seed, a, b, out, scratch)
    np.log(u, out=u)
    return np.negative(u, out=u)
