import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metasep.convex import GdRegSpec, gd_reg
from metasep.linalg import NumericalError, SpikedIdentity
from metasep.risk import AlgSpec
from metasep.rng import SeedSpec, gaussian_matrix, gaussian_vector
from metasep.tasks import Dataset, MetaInstance, Task, sample_dataset, sample_task
from metasep.twolayer import (ScalarPair, TwoLayerParams, gd2_reg, gd_pop_fixed_point,
                              gd_pop_flow, gd_pop_flow_numeric, rk4)
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
    out = TwoLayerParams(first, np.zeros(4))
    drift = 0.0
    # segments of t = 2 up to t = 300, checking the gap after each; the
    # step size depends only on the state, so the steps are those of one run
    for _ in range(150):
        out, converged = gd_pop_flow_numeric(out, Task(inst, 1), t_max=2.0, tol=1e-9)
        a_num = inst.w_star @ out.first_dense() @ inst.w_star
        b_num = inst.w_star @ out.second
        drift = max(drift, abs(a_num * a_num - b_num * b_num - (a0 ** 2 - b0 ** 2)))
        if converged:
            break
    assert converged
    fp = gd_pop_fixed_point(ScalarPair(a0, b0), kappa, 1.0, 1)
    assert abs(a_num - fp.a) < 1e-6 and abs(b_num - fp.b) < 1e-6
    assert drift < 1e-8
    # the dense first layer never leaves spiked form
    spiked = SpikedIdentity(inst.w_star, float(a_num), kappa).to_dense()
    assert np.linalg.norm(out.first_dense() - spiked) <= 1e-8 * np.linalg.norm(spiked)


def test_flow_nonconverged_flag():
    inst = MetaInstance.from_config(3, 1.0, 0.0)
    first = SpikedIdentity(inst.w_star, 0.1, 0.1).to_dense()
    params = TwoLayerParams(first, np.zeros(3))
    _, converged = gd_pop_flow_numeric(params, Task(inst, 1), t_max=0.01, tol=1e-14)
    assert not converged


def test_flow_output_bytes_pinned():
    # sha256 of the flow's final state on a dense, non-spiked start: the
    # step rule and the arithmetic order of the RHS in bytes
    inst = MetaInstance.from_config(3, 1.5, 0.0)
    first = np.eye(3) + 0.3 * gaussian_matrix(SeedSpec(7), 3, 3)
    params = TwoLayerParams(first, 0.2 * gaussian_vector(SeedSpec(8), 3))
    out, converged = gd_pop_flow_numeric(params, Task(inst, -1), t_max=3.0, tol=1e-10)
    assert not converged
    assert out.first_dense().shape == (3, 3) and out.second.shape == (3,)
    digest = hashlib.sha256(out.first_dense().tobytes() + out.second.tobytes()).hexdigest()
    assert digest == "405b09cd0c3062e41c31b54c1bcf35a629de647817c746c8d3ff36e64b8b624c"
    a, w, converged = oracles.replearn_joint_flow(inst, [1, -1, 1], 0.1, t_max=3.0, tol=1e-9)
    assert not converged and a.shape == (3, 3) and w.shape == (3, 3)
    digest = hashlib.sha256(a.tobytes() + w.tobytes()).hexdigest()
    assert digest == "ba5fe83d935bab7f2207cfe0903eb2b051c9e87fb36f9605cd49b79137dfc340"


def test_flow_step_rule():
    # h = min(5e-3, 0.05 / (1 + ||A||_F^2)): a flow run for exactly one
    # step's time equals one literal RK4 step of that size, bit for bit
    def rhs(a, w, v):
        g = v - a.T @ w
        return w @ g.T, a @ g

    def literal_step(a, w, v, h):
        k1 = rhs(a, w, v)
        k2 = rhs(a + 0.5 * h * k1[0], w + 0.5 * h * k1[1], v)
        k3 = rhs(a + 0.5 * h * k2[0], w + 0.5 * h * k2[1], v)
        k4 = rhs(a + h * k3[0], w + h * k3[1], v)
        return tuple(y + (h / 6.0) * (p1 + 2.0 * p2 + 2.0 * p3 + p4)
                     for y, p1, p2, p3, p4 in zip((a, w), k1, k2, k3, k4))

    u = gaussian_vector(SeedSpec(40), 3)
    u /= np.linalg.norm(u)
    w, v = 0.1 * u[:, None], 1.2 * u[:, None]
    # ||A||_F^2 = 0.27, so the 5e-3 cap binds
    small = SpikedIdentity(u, 0.5, 0.1).to_dense()
    # ||A||_F^2 = 81 + 9 + 9 = 99 exactly, so h = 0.05 / 100 = 5e-4
    large = np.diag([9.0, 3.0, 3.0])
    for a, h in ((small, 5e-3), (large, 5e-4)):
        a_out, w_out, converged = gd_pop_flow(a, w, v, t_max=h, tol=0.0)
        a_ref, w_ref = literal_step(a, w, v, h)
        assert not converged
        assert np.array_equal(a_out, a_ref) and np.array_equal(w_out, w_ref)


def _literal_flow(a, w, v, t_max, tol):
    """The flow on an allocating RK4, written out in the textbook order:
    the arithmetic gd_pop_flow and rk4 must keep bit for bit. Returns
    (a, w, converged, steps)."""
    *batch, d, k = v.shape
    n = d * d

    def unpack(y):
        return y[..., :n].reshape(*batch, d, d), y[..., n:].reshape(v.shape)

    def rhs(y):
        a, w = unpack(y)
        g = v - a.swapaxes(-1, -2) @ w
        return np.concatenate([(w @ g.swapaxes(-1, -2)).reshape(*batch, n),
                               (a @ g).reshape(*batch, d * k)], axis=-1)

    y = np.concatenate([a.reshape(*batch, n), w.reshape(*batch, d * k)], axis=-1)
    t, steps = 0.0, 0
    while True:
        k1 = rhs(y)
        if (k1 * k1).sum(axis=-1).max() < tol * tol:
            return (*unpack(y), True, steps)
        if t >= t_max:
            return (*unpack(y), False, steps)
        h = min(5e-3, 0.05 / (1.0 + float(np.square(y[..., :n]).sum(axis=-1).max())))
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
        steps += 1


def _flow_start(batch, d, k, seed):
    size = int(np.prod(batch, dtype=int))
    g = gaussian_matrix(SeedSpec(seed), size, d * d + 2 * d * k)
    a = np.eye(d) + 0.3 * g[:, :d * d].reshape(*batch, d, d)
    w = 0.2 * g[:, d * d:d * d + d * k].reshape(*batch, d, k)
    v = g[:, d * d + d * k:].reshape(*batch, d, k)
    return a, w, v


@pytest.mark.parametrize("batch", [(), (3,), (2, 2)])
@pytest.mark.parametrize("d", [1, 3, 5])
@pytest.mark.parametrize("k", [1, 3])
def test_flow_equals_literal_rk4_over_many_steps(batch, d, k):
    # h <= 5e-3, so t_max = 0.2 at tol = 0 runs at least 40 steps
    a, w, v = _flow_start(batch, d, k, 100 + 10 * d + k)
    a_ref, w_ref, conv_ref, steps = _literal_flow(a, w, v, 0.2, 0.0)
    a_out, w_out, converged = gd_pop_flow(a, w, v, 0.2, 0.0)
    assert steps >= 40 and not conv_ref and not converged
    assert a_out.shape == a.shape and w_out.shape == w.shape
    assert np.array_equal(a_out, a_ref) and np.array_equal(w_out, w_ref)


def test_flow_equals_literal_rk4_when_it_stops_on_tol():
    # two tasks near their flow limits; the flow stops on tol well inside t_max
    inst = MetaInstance.from_config(3, 1.0, 0.0)
    u = inst.w_star
    fps = [gd_pop_fixed_point(ScalarPair(0.8, 0.2), 0.1, 1.0, s) for s in (1, -1)]
    g = 0.05 * gaussian_matrix(SeedSpec(41), 2, 12)
    a = (np.stack([SpikedIdentity(u, fp.a, 0.1).to_dense() for fp in fps])
         + g[:, :9].reshape(2, 3, 3))
    w = np.stack([fp.b * u for fp in fps])[..., None] + g[:, 9:].reshape(2, 3, 1)
    v = np.stack([u, -u])[..., None]
    a_ref, w_ref, conv_ref, steps = _literal_flow(a, w, v, 100.0, 1e-3)
    a_out, w_out, converged = gd_pop_flow(a, w, v, 100.0, 1e-3)
    assert conv_ref and converged and steps > 40
    assert np.array_equal(a_out, a_ref) and np.array_equal(w_out, w_ref)


def _rhs_norm(a, w, v):
    g = v - a.swapaxes(-1, -2) @ w
    return math.sqrt(float(np.sum(np.square(w @ g.swapaxes(-1, -2))) + np.sum(np.square(a @ g))))


@pytest.mark.parametrize("d", range(1, 9))
@pytest.mark.parametrize("k", [1, 3])
def test_unbatched_flow_equals_batch_of_one(d, k):
    # an unbatched flow multiplies 2-D operands, a batch stacks of them:
    # the two must give the same bytes, run to t_max and stopped on tol
    a, w, v = _flow_start((), d, k, 300 + 10 * d + k)
    for t_max, tol in ((0.1, 0.0), (100.0, 0.5 * _rhs_norm(a, w, v))):
        a_out, w_out, converged = gd_pop_flow(a, w, v, t_max, tol)
        a_one, w_one, converged_one = gd_pop_flow(a[None], w[None], v[None], t_max, tol)
        assert converged == converged_one == (tol > 0.0)
        assert not np.array_equal(a_out, a)
        assert np.array_equal(a_out, a_one[0]) and np.array_equal(w_out, w_one[0])


@pytest.mark.parametrize("a, message", [
    # ||A||_F^2 = 2e310 overflows, so the step rule gives h = 0; the first
    # derivative's squared norm overflows too, and is checked first
    (1e155 * np.eye(2), "derivative norm inf at t=0.0"),
    (np.array([[np.nan, 0.0], [0.0, 1.0]]), "derivative norm nan at t=0.0"),
])
def test_flow_raises_on_a_nonfinite_state(a, message):
    with pytest.raises(NumericalError, match=message):
        gd_pop_flow(a, np.zeros((2, 1)), np.ones((2, 1)), 1.0, 1e-9)


@pytest.mark.parametrize("h", [0.0, -0.125, math.inf, math.nan])
def test_rk4_rejects_a_step_that_is_not_finite_and_positive(h):
    # the first step is 0.125; the bad size comes at t = 0.125. A third
    # call would raise StopIteration, so an unchecked size fails, not hangs
    sizes = iter([0.125, h])
    with pytest.raises(NumericalError, match=r"step size .* at t=0\.125"):
        rk4(lambda y, out: np.negative(y, out=out), np.ones(1), 1.0, lambda y: next(sizes), 0.0,
            lambda b: b)


def test_rk4_raises_when_the_state_overflows():
    # y' = y^2 from 1 blows up at t = 1; with steps of 1/8 the squared
    # derivative y^4 overflows two steps later
    with pytest.raises(NumericalError, match=r"derivative norm inf at t=1\.25"):
        rk4(lambda y, out: np.square(y, out=out), np.ones(1), 4.0, lambda y: 0.125, 0.0,
            lambda b: b)


@pytest.mark.parametrize("tol", [0.0, 1e6])
def test_flow_never_writes_its_inputs(tol):
    # tol = 1e6 converges before the first step, where the output is the
    # state as copied in; tol = 0 runs every step to t_max. Read-only
    # inputs make any write raise
    a, w, v = _flow_start((2,), 3, 3, 7)
    y0 = np.array([[1.0, 2.0], [3.0, 4.0]])
    inputs = (a, w, v, y0)
    copies = [x.copy() for x in inputs]
    for x in inputs:
        x.flags.writeable = False
    a_out, w_out, converged = gd_pop_flow(a, w, v, 0.05, tol)
    assert converged == (tol > 0.0)
    y, converged = rk4(lambda y, out: np.negative(y, out=out), y0, 0.5,
                       lambda y: 0.125, tol, lambda b: b)
    assert converged == (tol > 0.0)
    for x, copy in zip(inputs, copies):
        assert np.array_equal(x, copy)
        assert not any(np.shares_memory(x, out) for out in (a_out, w_out, y))


def test_rk4_is_fourth_order():
    # binary-exact steps, so t lands on 1 exactly: with h = 0.1, ten
    # t += h sum to just under 1 and an eleventh step is taken
    errors = []
    for h in (0.125, 0.0625):
        y, converged = rk4(lambda y, out: np.negative(y, out=out), np.ones(1), 1.0,
                           lambda y: h, tol=0.0, view=lambda b: b)
        assert not converged
        errors.append(abs(float(y[0]) - math.exp(-1.0)))
    assert 14.0 <= errors[0] / errors[1] <= 18.0


def test_rk4_converged_flag():
    # rows decay from 1 and from 100; the RHS norm of a row is its value, so
    # convergence stops at the first state below 0.5, one step of about
    # exp(-1/64) after the last one at or above it
    y, converged = rk4(lambda y, out: np.negative(y, out=out), np.array([[1.0], [100.0]]), 100.0,
                       lambda y: 1.0 / 64.0, tol=0.5, view=lambda b: b)
    assert converged
    assert 0.5 * math.exp(-1.0 / 64.0) < float(np.max(np.abs(y))) < 0.5
    # the t_max budget runs out first
    y, converged = rk4(lambda y, out: np.negative(y, out=out), np.array([[1.0], [100.0]]), 1.0,
                       lambda y: 1.0 / 64.0, tol=0.5, view=lambda b: b)
    assert not converged
    assert float(np.max(np.abs(y))) > 0.5


@pytest.mark.parametrize("tol", [0.0, 1e6])
def test_rk4_builds_each_view_once(tol):
    # view is called once on each of the six buffers (state, stage input,
    # k1..k4), whether the flow converges before the first step (tol = 1e6)
    # or runs 8 steps; rhs and step receive nothing but its results
    made = []

    def view(buffer):
        made.append((buffer,))  # a fresh object per call, told apart by identity
        return made[-1]

    def ours(x):
        return any(x is m for m in made)

    def rhs(y, out):
        assert ours(y) and ours(out)
        np.negative(y[0], out=out[0])

    def step(y):
        assert ours(y)
        return 0.125

    y, converged = rk4(rhs, np.ones(2), 1.0, step, tol, view)
    plain, _ = rk4(lambda y, out: np.negative(y, out=out), np.ones(2), 1.0,
                   lambda y: 0.125, tol, lambda b: b)
    assert len(made) == 6 and len({id(b) for (b,) in made}) == 6
    assert converged == (tol > 0.0) and np.array_equal(y, plain)


def test_gd2_reg_requires_positive_lambda():
    inst = MetaInstance.from_config(3, 1.0, 0.0)
    ds = sample_dataset(Task(inst, 1), 5, SeedSpec(1))
    with pytest.raises(ValueError):
        gd2_reg(0.0, ds, np.eye(3))


def test_gd2_reg_rounded_ridge_matrix_not_positive_definite():
    # with alpha = kappa = 1e8 the entries of A S A^T are near 1e16 and
    # lam = 1e-12 is far below their rounding error; for n = 2 < d = 6 the
    # computed matrix is indefinite (49 of seeds 0..49), which the guard
    # reports instead of returning a solve of it
    inst = MetaInstance.from_config(6, 1.0, 1.0)
    ds = sample_dataset(sample_task(inst, SeedSpec(0).child(0)), 2, SeedSpec(0).child(1))
    with pytest.raises(NumericalError, match="not positive definite"):
        gd2_reg(1e-12, ds, SpikedIdentity(inst.w_star, 1e8, 1e8))


def test_gd2_reg_nonsymmetric_first_layer_solves_objective():
    # gd2_reg minimizes (1/2n)||X A^T w - y||^2 + (lam/2)||w||^2, whose normal
    # equations are (A S A^T + lam I) w = A X^T y / n; a non-symmetric A
    # tells A S A^T from A S A, and A^T w from A w
    d, n, lam = 4, 8, 0.3
    inst = MetaInstance.from_config(d, 1.0, 0.5)
    ds = sample_dataset(sample_task(inst, SeedSpec(30)), n, SeedSpec(31))
    a0 = np.eye(d) + 0.3 * gaussian_matrix(SeedSpec(32), d, d)
    assert not np.allclose(a0, a0.T)

    def objective(w):
        resid = ds.x @ a0.T @ w - ds.y
        return resid @ resid / (2 * n) + 0.5 * lam * w @ w

    w = gd2_reg(lam, ds, a0).second
    expected = np.linalg.solve(a0 @ (ds.x.T @ ds.x / n) @ a0.T + lam * np.eye(d),
                               a0 @ ds.x.T @ ds.y / n)
    assert np.allclose(w, expected, rtol=1e-10, atol=1e-12)
    grad = a0 @ ds.x.T @ (ds.x @ a0.T @ w - ds.y) / n + lam * w
    assert np.linalg.norm(grad) < 1e-12
    for k in range(5):
        assert objective(w) < objective(w + 1e-3 * gaussian_vector(SeedSpec(33).child(k), d))
    # the oracle's predictor matrix gives the effective predictor A^T w
    alg = AlgSpec("gd2_reg", GdRegSpec(lam), a0)
    p, _ = oracles.predictor_matrices(alg, ds.x)
    assert np.allclose(p @ ds.y, a0.T @ w, rtol=1e-10, atol=1e-12)


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
