import numpy as np
import pytest

from metasep.rng import (SeedSpec, gaussian_matrix, gaussian_vector, hash_mix,
                         rademacher_signs, uniforms)


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
