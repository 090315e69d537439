import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metasep.convex import GdRegSpec, gd_reg
from metasep.linalg import NotPsdError, SpikedIdentity
from metasep.rng import SeedSpec, gaussian_matrix, gaussian_vector
from metasep.tasks import Dataset, MetaInstance, Task, sample_dataset, sample_task
from metasep.twolayer import (ScalarPair, TwoLayerParams, gd2_reg,
                              gd_pop_fixed_point, gd_pop_flow_numeric, rk4)
from metasep import oracles

finite_coord = st.floats(-5.0, 5.0, allow_nan=False)


def test_fixed_point_balanced_case():
    fp = gd_pop_fixed_point(ScalarPair(1.0, 1.0), 0.0, 1.0, 1)
    assert np.isclose(fp.a, 1.0) and np.isclose(fp.b, 1.0)


def test_fixed_point_figure_start():
    fp = gd_pop_fixed_point(ScalarPair(0.1, 0.0), 0.1, 1.0, -1)
    expected_a = np.sqrt((0.01 + np.sqrt(4.0001)) / 2.0)
    assert np.isclose(fp.a, expected_a)
    assert np.isclose(fp.a * fp.b, -1.0)


def test_fixed_point_rejects_bad_sign():
    with pytest.raises(ValueError):
        gd_pop_fixed_point(ScalarPair(1.0, 0.0), 0.0, 1.0, 2)


@settings(max_examples=300, deadline=None)
@given(finite_coord, finite_coord, st.floats(0.1, 3.0), st.sampled_from([1, -1]))
def test_fixed_point_identities(a, b, r, s):
    fp = gd_pop_fixed_point(ScalarPair(a, b), 0.0, r, s)
    assert abs(fp.a * fp.b - s * r) <= 1e-12 * max(1.0, r)
    assert abs(fp.gap - (a * a - b * b)) <= 1e-10 * max(1.0, a * a + b * b)


def test_fixed_point_identities_large_batch():
    # 10^4 random inputs, both algebraic identities to 1e-12 relative
    g = gaussian_vector(SeedSpec(99), 3 * 10 ** 4).reshape(3, -1)
    a, b, r = 2.0 * g[0], 2.0 * g[1], 0.1 + np.abs(g[2])
    c = a * a - b * b
    root = np.sqrt(4.0 * r * r + c * c)
    a_bar = np.sqrt((c + root) / 2.0)
    b_bar = np.sqrt((root - c) / 2.0)
    worst = 0.0
    for k in range(0, 10 ** 4, 997):
        fp = gd_pop_fixed_point(ScalarPair(a[k], b[k]), 0.0, r[k], 1)
        worst = max(worst, abs(fp.a - a_bar[k]), abs(fp.b - b_bar[k]))
    scale = np.maximum(1.0, r)
    assert np.all(np.abs(a_bar * b_bar - r) <= 1e-12 * scale)
    assert np.all(np.abs((a_bar ** 2 - b_bar ** 2) - c) <= 1e-10 * np.maximum(1.0, np.abs(c)))
    assert worst <= 1e-12


def test_flow_starts_at_fixed_point_stays():
    inst = MetaInstance.from_config(4, 1.0, 0.0)
    fp = gd_pop_fixed_point(ScalarPair(0.5, 0.1), 0.2, 1.0, 1)
    first = SpikedIdentity(inst.w_star, fp.a, 0.2).to_dense()
    params = TwoLayerParams(first, fp.b * inst.w_star)
    out, converged = gd_pop_flow_numeric(params, Task(inst, 1), t_max=10.0)
    assert converged
    assert np.allclose(out.first_dense(), first, atol=1e-9)
    assert np.allclose(out.second, params.second, atol=1e-9)


def test_flow_reaches_closed_form_and_conserves_gap():
    inst = MetaInstance.from_config(4, 1.0, 0.0)
    a0, b0, kappa = 0.5, 0.0, 0.1
    first = SpikedIdentity(inst.w_star, a0, kappa).to_dense()
    params = TwoLayerParams(first, np.zeros(4))
    gaps = []

    def watch(t, a_mat, w_vec):
        a = inst.w_star @ a_mat @ inst.w_star
        b = inst.w_star @ w_vec
        gaps.append(a * a - b * b)

    out, converged = gd_pop_flow_numeric(params, Task(inst, 1), t_max=300.0,
                                         tol=1e-9, callback=watch)
    assert converged
    fp = gd_pop_fixed_point(ScalarPair(a0, b0), kappa, 1.0, 1)
    a_num = inst.w_star @ out.first_dense() @ inst.w_star
    b_num = inst.w_star @ out.second
    assert abs(a_num - fp.a) < 1e-6 and abs(b_num - fp.b) < 1e-6
    assert max(abs(g - (a0 ** 2 - b0 ** 2)) for g in gaps) < 1e-8
    # the dense first layer never leaves spiked form
    spiked = SpikedIdentity(inst.w_star, float(a_num), kappa).to_dense()
    assert np.linalg.norm(out.first_dense() - spiked) <= 1e-8 * np.linalg.norm(spiked)


def test_flow_nonconverged_flag():
    inst = MetaInstance.from_config(3, 1.0, 0.0)
    first = SpikedIdentity(inst.w_star, 0.1, 0.1).to_dense()
    params = TwoLayerParams(first, np.zeros(3))
    _, converged = gd_pop_flow_numeric(params, Task(inst, 1), t_max=0.01, tol=1e-14)
    assert not converged


def test_rk4_is_fourth_order():
    # binary-exact steps, so t lands on 1 exactly: with h = 0.1, ten
    # t += h sum to just under 1 and an eleventh step is taken
    errors = []
    for h in (0.125, 0.0625):
        y, converged = rk4(lambda y: -y, np.ones(1), 1.0, lambda y: h, tol=0.0)
        assert not converged
        errors.append(abs(float(y[0]) - math.exp(-1.0)))
    assert 14.0 <= errors[0] / errors[1] <= 18.0


def test_rk4_converged_flag():
    # rows decay from 1 and from 100; the RHS norm of a row is its value, so
    # convergence waits for the first step after 100 exp(-t) falls below 0.5
    times = []
    y, converged = rk4(lambda y: -y, np.array([[1.0], [100.0]]), 100.0,
                       lambda y: 1.0 / 64.0, tol=0.5, callback=lambda t, y: times.append(t))
    assert converged
    assert float(np.max(np.abs(y))) < 0.5
    assert math.log(200.0) < times[-1] <= math.log(200.0) + 1.0 / 64.0
    # the t_max budget runs out first
    y, converged = rk4(lambda y: -y, np.array([[1.0], [100.0]]), 1.0,
                       lambda y: 1.0 / 64.0, tol=0.5)
    assert not converged
    assert float(np.max(np.abs(y))) > 0.5


def test_gd2_reg_requires_positive_lambda():
    inst = MetaInstance.from_config(3, 1.0, 0.0)
    ds = sample_dataset(Task(inst, 1), 5, SeedSpec(1))
    with pytest.raises(ValueError):
        gd2_reg(0.0, ds, np.eye(3))


def test_gd2_reg_rejects_indefinite_ridge_matrix():
    # with S = I, the non-symmetric first layer A gives A S A = diag(1, -1, -1),
    # so A S A + 0.5 I is indefinite
    x = math.sqrt(3.0) * np.eye(3)
    ds = Dataset(x, np.zeros(3), x @ np.ones(3))
    a0 = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]])
    with pytest.raises(NotPsdError):
        gd2_reg(0.5, ds, a0)


def test_gd2_reg_identity_layer_reduces_to_ridge():
    inst = MetaInstance.from_config(4, 1.0, 0.5)
    task = sample_task(inst, SeedSpec(2))
    ds = sample_dataset(task, 8, SeedSpec(3))
    out = gd2_reg(0.3, ds, np.eye(4))
    ridge = gd_reg(GdRegSpec(0.3), ds, np.zeros(4))
    assert np.linalg.norm(out.second - ridge) < 1e-10


def test_gd2_reg_noiseless_small_lambda_recovers_target():
    inst = MetaInstance.from_config(3, 1.0, 0.0)
    task = sample_task(inst, SeedSpec(4))
    ds = sample_dataset(task, 9, SeedSpec(5))
    g = gaussian_matrix(SeedSpec(6), 3, 3)
    a0 = g @ g.T / 3 + np.eye(3)
    out = gd2_reg(1e-9, ds, a0)
    assert np.linalg.norm(a0 @ out.second - task.target) < 1e-6


def test_gd2_reg_matches_flow_oracle():
    inst = MetaInstance.from_config(4, 1.0, 0.5)
    task = sample_task(inst, SeedSpec(7))
    ds = sample_dataset(task, 8, SeedSpec(8))
    g = gaussian_matrix(SeedSpec(9), 4, 4)
    a0 = g @ g.T / 4 + 0.5 * np.eye(4)
    out = gd2_reg(0.3, ds, a0)
    m = a0 @ (ds.x.T @ ds.x / ds.n) @ a0 + 0.3 * np.eye(4)
    b = a0 @ (ds.x.T @ ds.y / ds.n)
    evals = np.linalg.eigvalsh(m)
    numeric = oracles.linear_flow_rk4(m, b, np.zeros(4), 50.0 / evals[0],
                                      h=min(1e-3, 0.1 / evals[-1]))
    assert np.linalg.norm(out.second - numeric) < 1e-6


def test_gd2_reg_spiked_first_layer_passthrough():
    inst = MetaInstance.from_config(5, 1.0, 0.3)
    task = sample_task(inst, SeedSpec(10))
    ds = sample_dataset(task, 10, SeedSpec(11))
    spiked = SpikedIdentity(inst.w_star, 3.0, 0.1)
    out = gd2_reg(0.5, ds, spiked)
    assert out.first is spiked
    dense_out = gd2_reg(0.5, ds, spiked.to_dense())
    assert np.allclose(out.second, dense_out.second)
