import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metasep import oracles
from metasep.rng import (SeedSpec, _box_muller, _key_uniforms, bidiagonal_spectra, child_keys,
                         gaussian_matrix, gaussian_rows, gaussian_vector, hash_mix,
                         rademacher_signs, uniforms, wishart_chi)


def _sampled_spectra(seed, n, d, lo, hi):
    """The sampled spectra of S = X^T X / n for trials [lo, hi): the
    bidiagonal_spectra of wishart_chi's draw, as the risk estimator composes them."""
    return bidiagonal_spectra(wishart_chi(seed, n, d, lo, hi), n, d)


def test_determinism_gaussian():
    s = SeedSpec(42, 7)
    assert np.array_equal(gaussian_vector(s, 1000), gaussian_vector(s, 1000))


def test_determinism_signs():
    s = SeedSpec(123)
    assert np.array_equal(rademacher_signs(s, 500), rademacher_signs(s, 500))


def test_std_zero_is_constant():
    out = gaussian_vector(SeedSpec(1), 17, std=0.0)
    assert np.all(out == 0.0)


def test_negative_std_rejected():
    with pytest.raises(ValueError):
        gaussian_vector(SeedSpec(1), 4, std=-1.0)


@pytest.mark.parametrize("d", [1, 2, 7])
@pytest.mark.parametrize("rest", [(), (3,), (1, 0)])
def test_gaussian_rows_equal_per_trial_vectors(d, rest):
    # the one-pass draw is row for row the loop over per-trial streams
    seed = SeedSpec(31, 5)
    rows = gaussian_rows(seed, 3, 40, d, *rest)
    loop = np.stack([gaussian_vector(seed.child(t, *rest), d) for t in range(3, 40)])
    assert np.array_equal(rows, loop)


def test_gaussian_moments():
    # law of large numbers at a million draws
    z = gaussian_vector(SeedSpec(2024), 10 ** 6)
    assert abs(z.mean()) < 4.0 / 1000.0
    assert abs(z.var() - 1.0) < 0.01


def test_sign_mean_clt():
    signs = rademacher_signs(SeedSpec(9), 10 ** 6)
    assert set(np.unique(signs)) <= {-1, 1}
    assert abs(signs.mean()) < 0.005


def test_single_sign():
    assert int(rademacher_signs(SeedSpec(5), 1)[0]) in (-1, 1)


def test_stream_independence():
    n = 10 ** 5
    a = gaussian_vector(SeedSpec(42, 0), n)
    b = gaussian_vector(SeedSpec(42, 1), n)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.01


def test_child_streams_differ():
    s = SeedSpec(42)
    seen = {gaussian_vector(s.child(i), 4).tobytes() for i in range(50)}
    assert len(seen) == 50


def test_child_nested_matches_hash_mix():
    s = SeedSpec(7, 3)
    assert s.child(11).stream_id == hash_mix(3, 11)
    assert s.child(11, 2) == s.child(11).child(2)


def test_uniform_range():
    u = uniforms(SeedSpec(3), 10 ** 5)
    assert u.min() > 0.0
    assert u.max() <= 1.0


def test_matrix_matches_vector_layout():
    m = gaussian_matrix(SeedSpec(4), 3, 5)
    v = gaussian_vector(SeedSpec(4), 15)
    assert np.array_equal(m.reshape(-1), v)


def test_dimension_validation():
    with pytest.raises(ValueError):
        gaussian_vector(SeedSpec(1), 0)
    with pytest.raises(ValueError):
        rademacher_signs(SeedSpec(1), 0)


def test_first_words_are_pinned():
    # the design, sign and noise streams in literals: a refactor of the
    # word generator or of Box-Muller that shifts them fails here
    s = SeedSpec(42, 7)
    assert uniforms(s, 4).tolist() == [0.7773104643333157, 0.4855584618577975,
                                       0.8509763911610682, 0.8046706832434323]
    assert gaussian_vector(s, 5).tolist() == [0.23905732217586398, -0.6683430837242663,
                                              0.2159657167889558, -1.1824846614760451,
                                              0.2569036935432309]
    assert rademacher_signs(s, 12).tolist() == [-1, 1, -1, -1, -1, 1, -1, -1, -1, 1, -1, 1]


@pytest.mark.parametrize("seed", [SeedSpec(42), SeedSpec(9, 123), SeedSpec(2 ** 64 - 1, 2 ** 64 - 1)])
def test_child_keys_match_seed_child(seed):
    trials = [0, 1, 31, 32, 2 ** 40 + 3, 2 ** 64 - 2]
    for attempt in (0, 3):
        keys = child_keys(seed, np.array(trials, dtype=np.uint64), 2, attempt)
        words = _key_uniforms(keys, 7)
        for i, t in enumerate(trials):
            child = seed.child(t, 2, attempt)
            assert keys[i] == child._key()
            assert words[i].tobytes() == uniforms(child, 7).tobytes()


@pytest.mark.parametrize("n,d", [(60, 20), (5, 1), (20, 60), (1, 5), (30, 30)])
def test_wishart_moments_are_exact(n, d):
    # E tr S = d and E tr S^2 = d (d + n + 1) / n for every n and d;
    # E tr S^-1 = d n / (n - d - 1), tested only where its variance is
    # finite with room to spare (n >= d + 4)
    trials = 4000
    s = _sampled_spectra(SeedSpec(31), n, d, 0, trials)
    moments = [(s.sum(axis=1), d), ((s * s).sum(axis=1), d * (d + n + 1) / n)]
    if n >= d + 4:
        moments.append(((1.0 / s).sum(axis=1), d * n / (n - d - 1)))
    for values, exact in moments:
        stderr = values.std(ddof=1) / np.sqrt(trials)
        assert abs(values.mean() - exact) <= 4.0 * stderr, (values.mean(), exact, stderr)


def _ks_distance(a, b):
    """Two-sample Kolmogorov-Smirnov statistic."""
    grid = np.sort(np.concatenate([a, b]))
    cdf = lambda x: np.searchsorted(np.sort(x), grid, side="right") / x.size  # noqa: E731
    return float(np.max(np.abs(cdf(a) - cdf(b))))


@pytest.mark.parametrize("n,d", [(12, 5), (5, 12), (8, 8)])
def test_wishart_spectra_match_dense_designs(n, d):
    # the bidiagonal model against eigensolved Gaussian designs: every
    # eigenvalue's mean by a two-sample z-test, and the law of the
    # largest and smallest nonzero eigenvalues by a two-sample KS test at
    # level about 1e-3
    trials, k = 2000, min(n, d)
    seed = SeedSpec(32)
    sampled = _sampled_spectra(seed, n, d, 0, trials)
    dense = oracles.dense_wishart_spectra(seed, n, d, trials)
    a, b = sampled[:, :k], dense[:, :k]
    z = (a.mean(axis=0) - b.mean(axis=0)) / np.sqrt((a.var(axis=0) + b.var(axis=0)) / trials)
    assert np.all(np.abs(z) <= 4.0), z
    for i in (0, k - 1):
        assert _ks_distance(a[:, i], b[:, i]) <= 1.95 * np.sqrt(2.0 / trials), i
    assert np.all(np.abs(dense[:, k:]) <= 1e-12)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 60), d=st.integers(1, 60), lo=st.integers(0, 40),
       count=st.integers(1, 40), cut=st.integers(0, 40))
@example(n=1, d=1, lo=0, count=1, cut=0)
@example(n=1, d=60, lo=30, count=5, cut=2)
@example(n=60, d=1, lo=30, count=5, cut=2)
@example(n=9, d=10, lo=0, count=40, cut=32)
@example(n=11, d=10, lo=20, count=30, cut=12)
@example(n=10, d=10, lo=31, count=2, cut=1)
def test_wishart_spectra_edge_cases(n, d, lo, count, cut):
    hi = lo + count
    s = _sampled_spectra(SeedSpec(33), n, d, lo, hi)
    assert s.shape == (count, d)
    assert np.all(np.isfinite(s)) and np.all(s >= 0.0)
    assert np.all(np.diff(s, axis=1) <= 0.0)
    assert np.all(np.count_nonzero(s == 0.0, axis=1) == max(d - n, 0))
    # a trial's spectrum does not depend on the block that draws it: one
    # block, one block per trial and two blocks split anywhere (across a
    # 32-trial chunk boundary too) give the same bytes
    mid = lo + min(cut, count)
    per_trial = np.concatenate([_sampled_spectra(SeedSpec(33), n, d, t, t + 1)
                                for t in range(lo, hi)])
    split = np.concatenate([_sampled_spectra(SeedSpec(33), n, d, lo, mid),
                            _sampled_spectra(SeedSpec(33), n, d, mid, hi)])
    assert per_trial.tobytes() == s.tobytes()
    assert split.tobytes() == s.tobytes()


def _literal_chi(seed, n, d, lo, hi):
    """wishart_chi as its docstring states it: attempt j of trial t reads
    _key_uniforms(child_keys(seed, [t], 2, j), 2 ceil(V/2) + 2 V), and a
    variate keeps its first accepted attempt."""
    k, m = min(n, d), max(n, d)
    dof = np.concatenate([np.arange(m, m - k, -1), np.arange(k - 1, 0, -1)])
    v, pairs = dof.size, (dof.size + 1) // 2
    shape = dof / 2.0
    small = shape < 1.0
    dd = shape + small - 1.0 / 3.0
    c = 1.0 / np.sqrt(9.0 * dd)
    boost = np.where(small, 1.0 / shape, 0.0)
    trials = np.arange(lo, hi)
    gamma = np.empty((hi - lo, v))
    pending = np.ones((hi - lo, v), dtype=bool)
    j = 0
    while (rows := np.flatnonzero(pending.any(axis=1))).size:
        u = _key_uniforms(child_keys(seed, trials[rows], 2, j), 2 * pairs + 2 * v)
        x = _box_muller(u[:, :2 * pairs], v)
        cube = (1.0 + c * x) ** 3
        with np.errstate(divide="ignore", invalid="ignore"):
            accept = (cube > 0.0) & (np.log(u[:, 2 * pairs:2 * pairs + v])
                                     < 0.5 * x * x + dd - dd * cube + dd * np.log(cube))
        r, i = np.nonzero(pending[rows] & accept)
        gamma[rows[r], i] = dd[i] * cube[r, i] * u[r, 2 * pairs + v + i] ** boost[i]
        pending[rows[r], i] = False
        j += 1
    return np.sqrt(2.0 * gamma)


@pytest.mark.parametrize("n,d,lo,hi", [(1, 1, 3, 43), (3, 1, 3, 43), (5, 20, 3, 43),
                                       (49, 40, 3, 43), (900, 50, 3, 43), (20000, 1000, 5, 7)])
def test_wishart_chi_equals_literal_streams(n, d, lo, hi):
    # the chi bytes are pinned to the attempt streams of the docstring:
    # a faster key derivation must read the very same words
    seed = SeedSpec(34, 5)
    assert wishart_chi(seed, n, d, lo, hi).tobytes() == _literal_chi(seed, n, d, lo, hi).tobytes()


def test_wishart_spectra_validation():
    for n, d in ((0, 3), (3, 0)):
        with pytest.raises(ValueError):
            _sampled_spectra(SeedSpec(1), n, d, 0, 2)
