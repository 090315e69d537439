"""Deterministic, splittable random streams, and the Wishart spectrum sampler.

Every draw is a pure function of a (master_seed, stream_id) pair: the
generator is counter-based (a splitmix64-style finalizer applied to a
keyed counter), so output never depends on call order, worker count or
platform. Normal variates come from Box-Muller applied to 53-bit
uniforms, which keeps the uniform->normal transform fixed and portable.
They have mean zero; gaussian_vector's std scales them for the label
noise, and designs and start vectors are standard normal.

Stream derivation for parallel work: ``seed.child(i)`` (or ``hash_mix``)
mixes integer indices into the stream id, so per-trial seeds are a pure
function of (experiment seed, trial index). child_keys derives the keys
of many children seed.child(t, ...) in one vectorized pass, so a block
of trials draws from all of its streams at once; wishart_chi mixes the
shared prefix seed.child(t, 2) once per call and reads the same streams.

The spectrum sampler draws the eigenvalues of S = X^T X / n for a
Gaussian n x d design without X, in two steps. With k = min(n, d) and
m = max(n, d), the nonzero eigenvalues of n S are the squared singular
values of the k x k upper bidiagonal B with diagonal chi_m, ...,
chi_{m-k+1} and superdiagonal chi_{k-1}, ..., chi_1 (the beta = 1
Laguerre model of Dumitriu & Edelman 2002, "Matrix models for beta
ensembles", J. Math. Phys. 43:5830); the other d - k eigenvalues are
exactly 0. wishart_chi draws those 2k - 1 chi variates instead of n d
normals, and bidiagonal_spectra takes the dense SVD of each B, which
costs O(k^3) per trial. A caller that needs only functions of B^T B,
such as gd_reg's resolvent traces (risk module docstring), uses the chi
draw alone. At d = 50 a 32-trial block costs 0.03 ms a trial to
draw and 0.11-0.13 ms to SVD, against 0.4-0.5 ms (n = 100) and 2.3 ms
(n = 900) to draw X and eigensolve X^T X / n (one BLAS thread on a
2-CPU x86-64 VM). Each chi_a is sqrt(2 Gamma(a/2)), with Gamma drawn
by Marsaglia & Tsang (ACM TOMS 26:363, 2000); a shape below 1 is drawn
at shape + 1 and multiplied by U^(1/shape). Attempt j of trial t reads
the sub-stream seed.child(t, 2, j), and attempts go on until every
variate of the trial is accepted (over 4000 trials at d = 50 none took
more than 4), so a draw depends only on (seed, t): not on the block,
the worker count or the other trials.
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
_U_STREAM_GAMMA = np.uint64(_STREAM_GAMMA)


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
    """splitmix64 finalizer over a uint64 array of at least one dimension,
    whose products numpy wraps silently (a 0-d one's would warn)."""
    x = x ^ (x >> np.uint64(30))
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


def _level(c: int, x) -> np.ndarray:
    """mix64(mix64(c) xor x gamma) over the uint64 array x: a hash_mix or _key step."""
    return _mix64_array(np.uint64(_mix64_int(c)) ^ (x * _U_STREAM_GAMMA))


def _descend(ids: np.ndarray, *rest: int) -> np.ndarray:
    """The stream id of SeedSpec(_, s).child(*rest) for every s of ids."""
    for i in rest:
        ids = _mix64_array(_mix64_array(ids) ^ np.uint64(((i + 1) * _STREAM_GAMMA) & _MASK))
    return ids


def child_keys(seed: SeedSpec, first, *rest: int) -> np.ndarray:
    """The stream key of seed.child(t, *rest) for every t of first, a
    nonnegative int array of at least one dimension, derived in one
    vectorized pass: hash_mix and SeedSpec._key over uint64 arrays."""
    ids = _level(seed.stream_id, np.asarray(first, dtype=np.uint64) + np.uint64(1))
    return _level(seed.master_seed, _descend(ids, *rest))


def _raw(keys, count: int) -> np.ndarray:
    """count keyed 64-bit words per key, mix64(key + (i+1)*golden), with
    shape keys.shape + (count,)."""
    idx = np.arange(1, count + 1, dtype=np.uint64)
    return _mix64_array(np.asarray(keys, dtype=np.uint64)[..., None] + idx * _U_GOLDEN)


def _key_uniforms(keys, count: int) -> np.ndarray:
    """count i.i.d. uniforms in (0, 1] per stream key, from the top 53
    bits of each word, with shape keys.shape + (count,)."""
    bits = _raw(keys, count) >> np.uint64(11)
    return (bits.astype(np.float64) + 1.0) * (2.0 ** -53)


def uniforms(seed: SeedSpec, count: int) -> np.ndarray:
    """count i.i.d. uniforms in (0, 1] from the stream of seed."""
    return _key_uniforms(seed._key(), count)


def _box_muller(u: np.ndarray, d: int) -> np.ndarray:
    """d standard normals per row from the 2 ceil(d/2) uniforms on u's
    last axis: the first half give the radii, the second the angles,
    and normals 2i and 2i+1 are the cosine and sine of pair i."""
    pairs = u.shape[-1] // 2
    radius = np.sqrt(-2.0 * np.log(u[..., :pairs]))
    angle = 2.0 * np.pi * u[..., pairs:]
    z = np.empty(u.shape)
    z[..., 0::2] = radius * np.cos(angle)
    z[..., 1::2] = radius * np.sin(angle)
    return z[..., :d]


def gaussian_vector(seed: SeedSpec, d: int, std: float = 1.0) -> np.ndarray:
    """d i.i.d. N(0, std^2) variates via Box-Muller on paired uniforms."""
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    if std < 0:
        raise ValueError(f"std must be nonnegative, got {std}")
    if std == 0.0:
        return np.zeros(d)
    return std * _box_muller(uniforms(seed, 2 * ((d + 1) // 2)), d)


def gaussian_rows(seed: SeedSpec, lo: int, hi: int, d: int, *rest: int) -> np.ndarray:
    """Rows t in [lo, hi) of gaussian_vector(seed.child(t, *rest), d), in one pass."""
    return _box_muller(_key_uniforms(child_keys(seed, np.arange(lo, hi), *rest), d + d % 2), d)


def gaussian_matrix(seed: SeedSpec, rows: int, cols: int) -> np.ndarray:
    """rows x cols i.i.d. standard normal matrix (row-major fill of a single stream)."""
    return gaussian_vector(seed, rows * cols).reshape(rows, cols)


def rademacher_signs(seed: SeedSpec, t: int) -> np.ndarray:
    """t i.i.d. uniform signs in {+1, -1} as an int array."""
    if t < 1:
        raise ValueError(f"need t >= 1, got {t}")
    bit = (_raw(seed._key(), t) & np.uint64(1)).astype(np.int64)
    return 2 * bit - 1


def wishart_chi(seed: SeedSpec, n: int, d: int, lo: int, hi: int) -> np.ndarray:
    """The chi variates of the bidiagonal B (module docstring) of an n x d
    standard normal design, for trials [lo, hi): a (hi - lo, 2k - 1)
    array, k = min(n, d), each row B's diagonal chi_m, ..., chi_{m-k+1}
    and then its superdiagonal chi_{k-1}, ..., chi_1.

    Variate i of trial t is the chi with dof[i] degrees of freedom.
    Attempt j of trial t reads _key_uniforms(child_keys(seed, [t], 2, j),
    2 ceil(V/2) + 2 V), V = 2k - 1 the variate count: the first
    2 ceil(V/2) give the V Marsaglia-Tsang normals x (_box_muller), the
    next V the acceptance uniforms, the last V the uniforms of the
    shape-below-1 boost. A variate takes the value of its first accepted
    attempt. Each attempt mixes only its level j and key onto the ids of
    seed.child(t, 2), mixed once per call: the same streams.
    """
    if n < 1 or d < 1:
        raise ValueError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    k, m = min(n, d), max(n, d)
    dof = np.concatenate([np.arange(m, m - k, -1), np.arange(k - 1, 0, -1)])
    v, pairs = dof.size, (dof.size + 1) // 2
    shape = dof / 2.0
    small = shape < 1.0
    dd = shape + small - 1.0 / 3.0  # Marsaglia-Tsang's d, at shape + 1 below 1
    c = 1.0 / np.sqrt(9.0 * dd)
    boost = np.where(small, 1.0 / shape, 0.0)  # U^0 = 1 leaves shapes >= 1 alone
    ids = _descend(_level(seed.stream_id, np.arange(lo + 1, hi + 1, dtype=np.uint64)), 2)
    gamma = np.empty((hi - lo, v))
    pending = np.ones((hi - lo, v), dtype=bool)
    attempt = 0
    while (rows := np.flatnonzero(pending.any(axis=1))).size:
        u = _key_uniforms(_level(seed.master_seed, _descend(ids[rows], attempt)), 2 * pairs + 2 * v)
        x = _box_muller(u[:, :2 * pairs], v)
        cube = (1.0 + c * x) ** 3
        positive = cube > 0.0  # the rest are rejected; log reads 1 in their place
        accept = positive & (np.log(u[:, 2 * pairs:2 * pairs + v]) < 0.5 * x * x + dd - dd * cube
                             + dd * np.log(np.where(positive, cube, 1.0)))
        r, i = np.nonzero(pending[rows] & accept)
        gamma[rows[r], i] = dd[i] * cube[r, i] * u[r, 2 * pairs + v + i] ** boost[i]
        pending[rows[r], i] = False
        attempt += 1
    return np.sqrt(2.0 * gamma)


def bidiagonal_spectra(chi: np.ndarray, n: int, d: int) -> np.ndarray:
    """The eigenvalues of S = X^T X / n from wishart_chi's rows chi: the
    squared singular values of each row's k x k bidiagonal over n, by a
    dense SVD, then max(d - n, 0) zeros. A (rows, d) array, each row
    descending."""
    k = min(n, d)
    b = np.zeros((chi.shape[0], k, k))
    diag = np.arange(k)
    b[:, diag, diag] = chi[:, :k]
    b[:, diag[:-1], diag[1:]] = chi[:, k:]
    out = np.zeros((chi.shape[0], d))
    out[:, :k] = np.linalg.svd(b, compute_uv=False) ** 2 / n
    return out
