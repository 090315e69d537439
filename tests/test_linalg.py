import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metasep.linalg import EigenDecomposition, SpikedIdentity, sym_eigen
from metasep.rng import SeedSpec, gaussian_matrix, gaussian_vector


def _random_sym(seed, d):
    g = gaussian_matrix(SeedSpec(seed), d, d)
    return 0.5 * (g + g.T)


def test_identity_eigen():
    e = sym_eigen(np.eye(3))
    assert np.allclose(e.eigenvalues, 1.0)
    assert np.allclose(e.eigenvectors.T @ e.eigenvectors, np.eye(3))


def test_diagonal_eigen_sorted():
    e = sym_eigen(np.diag([1.0, 3.0]))
    assert np.allclose(e.eigenvalues, [3.0, 1.0])


def test_reconstruction_batch():
    # the module contract: 1000 random symmetric matrices up to d=16
    worst_rec, worst_orth = 0.0, 0.0
    for k in range(1000):
        d = 2 + k % 15
        m = _random_sym(k, d)
        e = sym_eigen(m)
        scale = 1.0 + np.linalg.norm(m)
        v = e.eigenvectors
        worst_rec = max(worst_rec, np.linalg.norm((v * e.eigenvalues) @ v.T - m) / scale)
        worst_orth = max(worst_orth,
                         np.linalg.norm(e.eigenvectors.T @ e.eigenvectors - np.eye(d)))
        assert np.all(np.diff(e.eigenvalues) <= 1e-12)
    assert worst_rec <= 1e-10
    assert worst_orth <= 1e-10


def test_eigen_rejects_nonsquare_and_nonfinite():
    with pytest.raises(ValueError):
        sym_eigen(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        sym_eigen(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_eigen_apply_spectral_function():
    m = _random_sym(11, 5)
    m = m @ m  # PSD
    e = sym_eigen(m)
    v = gaussian_vector(SeedSpec(12), 5)
    out = e.apply(lambda s: s ** 2, v)
    assert np.allclose(out, m @ (m @ v), atol=1e-9)


def test_spiked_dense_cases():
    assert np.allclose(SpikedIdentity(np.eye(4)[2], 1.0, 1.0).to_dense(), np.eye(4))
    s = SpikedIdentity(np.array([1.0, 0.0]), 2.0, 0.0)
    assert np.allclose(s.to_dense(), [[2.0, 0.0], [0.0, 0.0]])
    w = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert np.allclose(SpikedIdentity(w, 3.0, 1.0).to_dense(), [[2.0, 1.0], [1.0, 2.0]])


def test_spiked_requires_unit_direction():
    with pytest.raises(ValueError):
        SpikedIdentity(np.array([1.0, 1.0]), 2.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 10))
def test_matvec_consistent_with_dense(seed, d):
    g = gaussian_vector(SeedSpec(seed), d)
    w = g / np.linalg.norm(g)
    s = SpikedIdentity(w, 2.5, 0.3)
    v = gaussian_vector(SeedSpec(seed + 1), d)
    assert np.allclose(s.matvec(v), s.to_dense() @ v)


def test_eigendecomposition_dim():
    e = EigenDecomposition(np.array([2.0, 1.0]), np.eye(2))
    assert e.dim == 2
