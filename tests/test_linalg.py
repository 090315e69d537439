import numpy as np
import pytest

from metasep.linalg import SpikedIdentity, sym_eigen
from metasep.rng import SeedSpec, gaussian_matrix


def _random_sym(seed, d):
    g = gaussian_matrix(SeedSpec(seed), d, d)
    return 0.5 * (g + g.T)


def test_identity_eigen():
    s, v = sym_eigen(np.eye(3))
    assert np.allclose(s, 1.0)
    assert np.allclose(v.T @ v, np.eye(3))


def test_diagonal_eigen_sorted():
    s, v = sym_eigen(np.diag([1.0, 3.0]))
    assert np.allclose(s, [3.0, 1.0])
    assert np.allclose(np.abs(v), np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_reconstruction_batch():
    # the module contract: 1000 random symmetric matrices up to d=16
    worst_rec, worst_orth = 0.0, 0.0
    for k in range(1000):
        d = 2 + k % 15
        m = _random_sym(k, d)
        s, v = sym_eigen(m)
        scale = 1.0 + np.linalg.norm(m)
        worst_rec = max(worst_rec, np.linalg.norm((v * s) @ v.T - m) / scale)
        worst_orth = max(worst_orth, np.linalg.norm(v.T @ v - np.eye(d)))
        assert np.all(np.diff(s) <= 1e-12)
    assert worst_rec <= 1e-10
    assert worst_orth <= 1e-10


def test_eigen_rejects_nonsquare_and_nonfinite():
    with pytest.raises(ValueError):
        sym_eigen(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        sym_eigen(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_spiked_dense_cases():
    assert np.allclose(SpikedIdentity(np.eye(4)[2], 1.0, 1.0).to_dense(), np.eye(4))
    s = SpikedIdentity(np.array([1.0, 0.0]), 2.0, 0.0)
    assert np.allclose(s.to_dense(), [[2.0, 0.0], [0.0, 0.0]])
    w = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert np.allclose(SpikedIdentity(w, 3.0, 1.0).to_dense(), [[2.0, 1.0], [1.0, 2.0]])


def test_spiked_requires_unit_direction():
    # a NaN norm compares false both ways, so it must fail the check too
    for direction in ([1.0, 1.0], [np.nan, 0.0]):
        with pytest.raises(ValueError, match="unit norm"):
            SpikedIdentity(np.array(direction), 2.0, 1.0)


def test_spiked_requires_finite_spike_and_bulk():
    for spike, bulk in ((np.nan, 1.0), (np.inf, 1.0), (2.0, np.nan), (2.0, -np.inf)):
        with pytest.raises(ValueError, match="spike and bulk must be finite"):
            SpikedIdentity(np.array([1.0, 0.0]), spike, bulk)
