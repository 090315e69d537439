"""Deterministic, splittable random streams.

Every draw is a pure function of a (master_seed, stream_id) pair: the
generator is counter-based (a splitmix64-style finalizer applied to a
keyed counter), so output never depends on call order, worker count or
platform. Normal variates come from Box-Muller applied to 53-bit
uniforms, which keeps the uniform->normal transform fixed and portable.
They have mean zero; gaussian_vector's std scales them for the label
noise, and designs and start vectors are standard normal.

Stream derivation for parallel work: ``seed.child(i)`` (or ``hash_mix``)
mixes integer indices into the stream id, so per-trial seeds are a pure
function of (experiment seed, trial index).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK = (1 << 64) - 1
# splitmix64 constants (Steele, Lea & Flood 2014)
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
# distinct odd constant for stream-id mixing
_STREAM_GAMMA = 0xD1B54A32D192ED03

_U_GOLDEN = np.uint64(_GOLDEN)
_U_MIX_A = np.uint64(_MIX_A)
_U_MIX_B = np.uint64(_MIX_B)


def _mix64_int(x: int) -> int:
    """splitmix64 finalizer on a Python int (64-bit wraparound)."""
    x &= _MASK
    x ^= x >> 30
    x = (x * _MIX_A) & _MASK
    x ^= x >> 27
    x = (x * _MIX_B) & _MASK
    x ^= x >> 31
    return x


def _mix64_array(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, vectorized over uint64 arrays."""
    x = x.copy()
    with np.errstate(over="ignore"):
        x ^= x >> np.uint64(30)
        x *= _U_MIX_A
        x ^= x >> np.uint64(27)
        x *= _U_MIX_B
        x ^= x >> np.uint64(31)
    return x


def hash_mix(experiment_id: int, trial_index: int) -> int:
    """Derive a stream id from an experiment id and a trial index.

    Documented mixing function: stream = mix64(mix64(experiment_id)
    xor (trial_index + 1) * gamma), all mod 2^64.
    """
    return _mix64_int(_mix64_int(experiment_id) ^ (((trial_index + 1) * _STREAM_GAMMA) & _MASK))


@dataclass(frozen=True)
class SeedSpec:
    """A (master_seed, stream_id) pair that fully determines a stream."""

    master_seed: int
    stream_id: int = 0

    def child(self, *indices: int) -> "SeedSpec":
        """Split off a sub-stream keyed by one or more integer indices."""
        s = self.stream_id
        for i in indices:
            s = hash_mix(s, i)
        return SeedSpec(self.master_seed, s)

    def _key(self) -> np.uint64:
        k = _mix64_int(self.master_seed) ^ ((self.stream_id * _STREAM_GAMMA) & _MASK)
        return np.uint64(_mix64_int(k))


def _raw(seed: SeedSpec, count: int) -> np.ndarray:
    """count keyed 64-bit words: mix64(key + (i+1)*golden)."""
    idx = np.arange(1, count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        state = seed._key() + idx * _U_GOLDEN
    return _mix64_array(state)


def uniforms(seed: SeedSpec, count: int) -> np.ndarray:
    """count i.i.d. uniforms in (0, 1], from the top 53 bits of each word."""
    bits = _raw(seed, count) >> np.uint64(11)
    return (bits.astype(np.float64) + 1.0) * (2.0 ** -53)


def gaussian_vector(seed: SeedSpec, d: int, std: float = 1.0) -> np.ndarray:
    """d i.i.d. N(0, std^2) variates via Box-Muller on paired uniforms."""
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    if std < 0:
        raise ValueError(f"std must be nonnegative, got {std}")
    if std == 0.0:
        return np.zeros(d)
    pairs = (d + 1) // 2
    u = uniforms(seed, 2 * pairs)
    u1, u2 = u[:pairs], u[pairs:]
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    z = np.empty(2 * pairs)
    z[0::2] = radius * np.cos(angle)
    z[1::2] = radius * np.sin(angle)
    return std * z[:d]


def gaussian_matrix(seed: SeedSpec, rows: int, cols: int) -> np.ndarray:
    """rows x cols i.i.d. standard normal matrix (row-major fill of a single stream)."""
    return gaussian_vector(seed, rows * cols).reshape(rows, cols)


def rademacher_signs(seed: SeedSpec, t: int) -> np.ndarray:
    """t i.i.d. uniform signs in {+1, -1} as an int array."""
    if t < 1:
        raise ValueError(f"need t >= 1, got {t}")
    bit = (_raw(seed, t) & np.uint64(1)).astype(np.int64)
    return 2 * bit - 1
