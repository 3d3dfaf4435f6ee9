"""Deterministic splittable random numbers via the SplitMix64 finalizer.

Every random quantity in the package is a pure function of a 64-bit seed and
a pair of stream keys, so simulations are reproducible bit-for-bit across
runs and degrees of parallelism.  Across platforms they are only as
reproducible as the logs they call, numpy's vectorized log and the C
library's, each chosen per CPU or platform; that has been checked on one host
only (x86-64 with AVX-512, numpy 2.4.6).  The scalar and the vectorized
routines implement the same function: mix64 and uniform01 agree bit for bit,
and an exponential differs in the last place where numpy's log rounds
differently from math.log.
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


def mix64_array(seed: int, a: np.ndarray, b: int | np.ndarray) -> np.ndarray:
    """Vectorized mix64 over a 1-D array of first keys, as a new uint64 array.

    The second key must be one int or a uint64 array of a's shape: the
    rounds run in place on the one copy of a that `astype` makes, which
    cannot grow to a broadcast shape.  It is taken as an array (an int
    becomes one element), so its uint64 arithmetic wraps modulo 2^64 like
    the scalar masks.
    """
    b = np.atleast_1d(np.asarray(b, dtype=np.uint64))
    z = a.astype(np.uint64)
    z *= np.uint64(_KEY_A)
    z ^= np.uint64(seed)
    z ^= (b + np.uint64(1)) * np.uint64(_KEY_B)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX_1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX_2)
    z ^= z >> np.uint64(31)
    return z


def uniform01_array(seed: int, a: np.ndarray, b: int | np.ndarray) -> np.ndarray:
    """Vectorized uniform01, with mix64_array's contract on a and b."""
    u = mix64_array(seed, a, b).astype(np.float64)
    u += 0.5
    u *= 2.0**-64
    return np.minimum(u, _U_MAX, out=u)


def exponential_array(seed: int, a: np.ndarray, b: int | np.ndarray) -> np.ndarray:
    """Vectorized exponential, with mix64_array's contract on a and b."""
    u = uniform01_array(seed, a, b)
    np.log(u, out=u)
    return np.negative(u, out=u)
