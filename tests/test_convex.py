import math

import numpy as np
import pytest

from metasep.convex import _EIG_RTOL, GdRegSpec, GdStepSpec, gd_reg, gd_step, linear_flow_solve
from metasep.linalg import sym_eigen
from metasep.rng import SeedSpec, gaussian_matrix, gaussian_vector
from metasep.tasks import MetaInstance, emp_covariance, sample_dataset, sample_task
from metasep import oracles


def _instance(seed, d=5, n=8, sigma=0.5, r=1.0):
    inst = MetaInstance.from_config(d, r, sigma)
    task = sample_task(inst, SeedSpec(seed).child(0))
    ds = sample_dataset(task, n, SeedSpec(seed).child(1))
    return inst, task, ds


def _psd(seed, d):
    g = gaussian_matrix(SeedSpec(seed), d, d)
    return g @ g.T / d


def test_flow_pure_decay():
    out = linear_flow_solve(np.eye(3), np.zeros(3), np.ones(3), math.inf)
    assert np.allclose(out, 0.0)


def test_flow_zero_dynamics():
    w0 = np.array([1.0, -2.0])
    out = linear_flow_solve(np.zeros((2, 2)), np.zeros(2), w0, 5.0)
    assert np.allclose(out, w0)


def test_flow_matches_rk4():
    m = _psd(31, 4)
    b = m @ gaussian_vector(SeedSpec(32), 4)
    w0 = gaussian_vector(SeedSpec(33), 4)
    closed = linear_flow_solve(m, b, w0, 2.0)
    numeric = oracles.linear_flow_rk4(m, b, w0, 2.0, h=1e-4)
    assert np.linalg.norm(closed - numeric) < 1e-8


def _literal_rk4(m, b, w0, t_max, h):
    """Four-stage RK4 on dw/dt = b - M w, one matrix-vector product per stage."""
    steps = math.ceil(t_max / h)
    h = t_max / steps
    w = np.array(w0, dtype=np.float64)

    def f(x):
        return b - np.einsum("...ij,...j->...i", m, x)

    for _ in range(steps):
        k1 = f(w)
        k2 = f(w + 0.5 * h * k1)
        k3 = f(w + 0.5 * h * k2)
        k4 = f(w + h * k3)
        w = w + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return w


def test_rk4_step_matrix_equals_literal_rk4():
    # unbatched with the default step rule
    m = _psd(34, 4)
    b, w0 = gaussian_vector(SeedSpec(35), 4), gaussian_vector(SeedSpec(36), 4)
    h = min(1e-3, 0.1 / float(np.max(np.linalg.eigvalsh(m))))
    out = oracles.linear_flow_rk4(m, b, w0, 2.0)
    ref = _literal_rk4(m, b, w0, 2.0, h)
    assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)
    # a batch of three with an explicit step
    m = np.stack([_psd(40 + k, 5) for k in range(3)])
    b = np.stack([gaussian_vector(SeedSpec(50 + k), 5) for k in range(3)])
    w0 = np.stack([gaussian_vector(SeedSpec(60 + k), 5) for k in range(3)])
    out = oracles.linear_flow_rk4(m, b, w0, 3.0, h=0.01)
    ref = _literal_rk4(m, b, w0, 3.0, 0.01)
    assert out.shape == (3, 5)
    assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)


def test_flow_range_check():
    m = np.diag([1.0, 0.0])
    with pytest.raises(ValueError):
        linear_flow_solve(m, np.array([0.0, 1.0]), np.zeros(2), 1.0)


def test_flow_infinite_time_pinv_form():
    m = _psd(34, 3)
    v = gaussian_vector(SeedSpec(35), 3)
    b = m @ v
    w0 = gaussian_vector(SeedSpec(36), 3)
    out = linear_flow_solve(m, b, w0, math.inf)
    expected = np.linalg.solve(m, b)  # full rank here
    assert np.allclose(out, expected, atol=1e-9)


def test_step_stability_warning():
    _, _, ds = _instance(46)
    eta = 2.0 / float(sym_eigen(emp_covariance(ds))[0][0])
    with pytest.warns(RuntimeWarning, match="stability limit"):
        gd_step(GdStepSpec(eta, 3), ds, np.ones(5))


def test_gd_step_t0_zero():
    _, _, ds = _instance(51)
    w0 = np.full(5, 0.7)
    assert np.allclose(gd_step(GdStepSpec(0.1, 0), ds, w0), w0)


def test_gd_step_converges_noiseless():
    inst, task, ds = _instance(52, d=4, n=10, sigma=0.0)
    s, _ = sym_eigen(emp_covariance(ds))
    eta = 0.9 / s[0]
    w = gd_step(GdStepSpec(eta, 4000), ds, np.zeros(4))
    assert np.linalg.norm(w - task.target) < 1e-6


def test_gd_step_matches_iteration():
    _, _, ds = _instance(53)
    w0 = gaussian_vector(SeedSpec(54), 5)
    closed = gd_step(GdStepSpec(0.05, 40), ds, w0)
    explicit = oracles.gd_iteration(ds, w0, 0.05, 40)
    assert np.linalg.norm(closed - explicit) < 1e-9


def test_gd_reg_matches_normal_equations():
    _, _, ds = _instance(55, d=4, n=6)
    w = gd_reg(GdRegSpec(0.5), ds, np.ones(4))
    assert np.linalg.norm(w - oracles.ridge_normal_eq(ds, 0.5)) < 1e-10


def test_gd_reg_large_lambda_shrinks():
    _, _, ds = _instance(56)
    w = gd_reg(GdRegSpec(1e6), ds, np.zeros(5))
    b = ds.x.T @ ds.y / ds.n
    assert np.linalg.norm(w) <= np.linalg.norm(b) / 1e6 * 1.01


def test_gd_reg_lam0_preserves_null_component():
    # underdetermined: w0's null-space part survives
    _, _, ds = _instance(57, d=6, n=3)
    w0 = gaussian_vector(SeedSpec(58), 6)
    w = gd_reg(GdRegSpec(0.0), ds, w0)
    cov = emp_covariance(ds)
    _, v = sym_eigen(cov)
    null_vecs = v[:, 3:]
    assert np.allclose(null_vecs.T @ (w - w0), 0.0, atol=1e-9)
    # and the range part interpolates the data
    assert np.linalg.norm(ds.x @ w - ds.y) < 1e-9


def test_gd_reg_positive_lam_ignores_w0():
    _, _, ds = _instance(59)
    w_a = gd_reg(GdRegSpec(0.3), ds, np.zeros(5))
    w_b = gd_reg(GdRegSpec(0.3), ds, gaussian_vector(SeedSpec(60), 5))
    assert np.linalg.norm(w_a - w_b) < 1e-10


def test_gd_reg_affine_superposition():
    # output is affine in w0: midpoint of inits maps to midpoint of outputs
    _, _, ds = _instance(61, d=4, n=3)
    w0a = gaussian_vector(SeedSpec(62), 4)
    w0b = gaussian_vector(SeedSpec(63), 4)
    spec = GdRegSpec(0.0)
    mid = gd_reg(spec, ds, 0.5 * (w0a + w0b))
    assert np.allclose(mid, 0.5 * (gd_reg(spec, ds, w0a) + gd_reg(spec, ds, w0b)),
                       atol=1e-10)


def test_gd_reg_closed_vs_flow_oracle():
    _, _, ds = _instance(64, d=4, n=7)
    w0 = gaussian_vector(SeedSpec(65), 4)
    closed = gd_reg(GdRegSpec(0.8), ds, w0)
    numeric = oracles.reg_flow_oracle(ds, w0, 0.8)
    assert np.linalg.norm(closed - numeric) < 1e-6


def test_spec_validation():
    with pytest.raises(ValueError):
        GdStepSpec(0.0, 5)
    with pytest.raises(ValueError):
        GdStepSpec(0.1, -1)
    with pytest.raises(ValueError):
        GdRegSpec(-0.1)
    # NaN compares false both ways, so it must fail the range checks too
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="eta must be finite"):
            GdStepSpec(bad, 5)
        with pytest.raises(ValueError, match="lam must be finite"):
            GdRegSpec(bad)


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_null_cutoff_near_square_designs(offset):
    # around n = d the smallest positive eigenvalue of X^T X / n is tiny,
    # yet the cutoff must count exactly min(n, d) of them and leave b in range
    d = 50
    n = d + offset
    inst = MetaInstance.from_config(d, 1.0, 0.5)
    for k in range(20):  # seed 910 at n = d has s_min / s_max = 7.7e-9
        sk = SeedSpec(900 + k)
        ds = sample_dataset(sample_task(inst, sk.child(0)), n, sk.child(1))
        s, _ = sym_eigen(emp_covariance(ds))
        assert np.count_nonzero(s > _EIG_RTOL * s[0]) == min(n, d)
        w0 = gaussian_vector(sk.child(2), d)
        w = gd_reg(GdRegSpec(0.0), ds, w0)  # range check must pass
        if n <= d:  # the min-norm fit interpolates the data
            assert np.linalg.norm(ds.x @ w - ds.y) <= 1e-6 * np.linalg.norm(ds.y)
