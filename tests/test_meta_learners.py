import math

import numpy as np
import pytest

from metasep.meta_learners import (ReptileSpec, ScalarTrajectory, _reptile_steps,
                                   bad_minimizer, replearn_alpha, replearn_loss,
                                   replearn_tasks_for_alpha,
                                   reptile_fluctuation_bound, reptile_growth_bound,
                                   reptile_spike, reptile_tau_schedule, run_replearn,
                                   run_reptile)
from metasep.rng import SeedSpec, gaussian_vector, rademacher_signs, uniforms
from metasep.tasks import MetaInstance
from metasep.twolayer import ScalarPair, flow_limit, gd_pop_fixed_point
from metasep import oracles


def test_spec_validation():
    with pytest.raises(ValueError):
        ReptileSpec(0.0, 0.1, 10)
    with pytest.raises(ValueError):
        ReptileSpec(1.0, 0.1, 10)
    with pytest.raises(ValueError):
        ReptileSpec(0.3, 0.0, 10)


def _reference_trajectory(tau, kappa, r, signs):
    """The meta-step on ScalarPair states: the flow-limit formula written
    out (not through twolayer.flow_limit) plus interpolation, in the
    arithmetic order the seed contract fixes."""
    state = ScalarPair(kappa, 0.0)
    a_values, b_values = [state.a], [state.b]
    for s in signs:
        c = state.gap
        root = math.sqrt(4.0 * r * r + c * c)
        a_bar = math.sqrt((c + root) / 2.0)
        b_bar = s * math.sqrt((root - c) / 2.0)
        state = ScalarPair((1.0 - tau) * state.a + tau * a_bar,
                           (1.0 - tau) * state.b + tau * b_bar)
        a_values.append(state.a)
        b_values.append(state.b)
    return np.array(a_values), np.array(b_values)


def test_trajectory_length_validation():
    with pytest.raises(ValueError):
        ScalarTrajectory(np.array([0.1]), np.array([0.0]), [1])
    with pytest.raises(ValueError):
        ScalarTrajectory(np.array([0.1, 0.2]), np.array([0.0]), [1])
    traj = ScalarTrajectory(np.array([0.1, 0.2]), np.array([0.0, 0.1]), [1])
    assert traj.signs == [1]


@pytest.mark.parametrize("tau", [1e-12, 0.3, 1.0 - 1e-12])
def test_run_reptile_equals_reference_exactly(tau):
    inst = MetaInstance.from_config(3, 1.5, 0.0)
    for t_tasks in (1, 2, 1000):
        for k in range(3):
            seed = SeedSpec(17).child(t_tasks, k)
            spec = ReptileSpec(tau, 0.1, t_tasks)
            traj = run_reptile(spec, inst, seed)
            signs = [int(s) for s in rademacher_signs(seed, t_tasks)]
            assert traj.signs == signs
            a_ref, b_ref = _reference_trajectory(tau, 0.1, inst.r, signs)
            assert traj.a_values.dtype == np.float64
            assert np.array_equal(traj.a_values, a_ref)
            assert np.array_equal(traj.b_values, b_ref)
            assert reptile_spike(spec, inst, seed) == a_ref[-1]


def test_reptile_steps_equal_flow_limit_exactly():
    # the meta-loop's written-out flow limit is twolayer.flow_limit bit for
    # bit, one step at a time, over states, rates and radii of many scales
    g = gaussian_vector(SeedSpec(23), 3 * 4000).reshape(3, -1)
    u = uniforms(SeedSpec(24), 2 * 4000).reshape(2, -1)
    scale = 10.0 ** (4.0 * u[0] - 2.0)
    a_all, b_all = scale * np.abs(g[0]), scale * g[1]
    r_all = 10.0 ** (0.5 * g[2])
    for k, (a, b, r, tau) in enumerate(zip(a_all.tolist(), b_all.tolist(),
                                           r_all.tolist(), u[1].tolist())):
        s = 1 if k % 2 == 0 else -1
        a_bar, b_bar = flow_limit(a * a - b * b, r, s)
        expected = ((1.0 - tau) * a + tau * a_bar, (1.0 - tau) * b + tau * b_bar)
        assert _reptile_steps(a, b, (s,), tau, r) == expected, (a, b, r, tau, s)


def test_scalar_step_tau_limits():
    inst = MetaInstance.from_config(2, 1.0, 0.0)
    for k in range(4):
        seed = SeedSpec(5).child(k)
        near_one = run_reptile(ReptileSpec(1.0 - 1e-12, 0.4, 1), inst, seed)
        fp = gd_pop_fixed_point(ScalarPair(0.4, 0.0), 0.0, 1.0, near_one.signs[0])
        a_ref, b_ref = _reference_trajectory(1.0 - 1e-12, 0.4, 1.0, near_one.signs)
        assert near_one.a_values[1] == a_ref[1] and near_one.b_values[1] == b_ref[1]
        assert np.isclose(near_one.a_values[1], fp.a) and np.isclose(near_one.b_values[1], fp.b)
        near_zero = run_reptile(ReptileSpec(1e-12, 0.4, 1), inst, seed)
        a_ref, b_ref = _reference_trajectory(1e-12, 0.4, 1.0, near_zero.signs)
        assert near_zero.a_values[1] == a_ref[1] and near_zero.b_values[1] == b_ref[1]
        assert np.isclose(near_zero.a_values[1], 0.4) and np.isclose(near_zero.b_values[1], 0.0)


def test_scalar_step_figure_values():
    inst = MetaInstance.from_config(2, 1.0, 0.0)
    traj = run_reptile(ReptileSpec(0.3, 0.1, 1), inst, SeedSpec(3))
    s = traj.signs[0]
    a_ref, b_ref = _reference_trajectory(0.3, 0.1, 1.0, [s])
    assert traj.a_values[1] == a_ref[1] and traj.b_values[1] == b_ref[1]
    a_bar = math.sqrt((0.01 + math.sqrt(4.0001)) / 2.0)
    assert np.isclose(traj.a_values[1], 0.7 * 0.1 + 0.3 * a_bar)
    assert np.isclose(traj.b_values[1], 0.3 * s / a_bar)


def test_run_reptile_t_zero():
    inst = MetaInstance.from_config(3, 1.0, 0.0)
    traj = run_reptile(ReptileSpec(0.3, 0.1, 0), inst, SeedSpec(1))
    assert len(traj.a_values) == len(traj.b_values) == 1 and traj.signs == []
    assert traj.a_values[0] == 0.1 and traj.b_values[0] == 0.0
    assert reptile_spike(ReptileSpec(0.3, 0.1, 0), inst, SeedSpec(1)) == 0.1


def test_run_reptile_monotone_and_bounded_product():
    inst = MetaInstance.from_config(2, 1.0, 0.0)
    traj = run_reptile(ReptileSpec(0.3, 0.1, 1000), inst, SeedSpec(7))
    a, b = traj.a_values, traj.b_values
    assert np.all(np.diff(a) >= 0.0)
    assert np.max(np.abs(a * b)) <= 1.0 + 1e-10


def test_run_reptile_output_shape():
    inst = MetaInstance.from_config(5, 2.0, 0.0)
    traj = run_reptile(ReptileSpec(0.2, 0.1, 50), inst, SeedSpec(3))
    assert len(traj.a_values) == len(traj.b_values) == 51 and len(traj.signs) == 50


def test_matrix_form_agrees_with_scalar():
    inst = MetaInstance.from_config(6, 1.0, 0.0)
    spec = ReptileSpec(0.3, 0.1, 20)
    traj = run_reptile(spec, inst, SeedSpec(11))
    mtraj, resid = oracles.run_reptile_matrix(0.3, 0.1, inst, traj.signs)
    assert resid < 1e-12
    assert np.max(np.abs(mtraj.a_values - traj.a_values)) < 1e-10
    assert np.max(np.abs(mtraj.b_values - traj.b_values)) < 1e-10


def test_tau_schedule_values_and_monotonicity():
    tau = reptile_tau_schedule(10 ** 6, 0.1)
    assert np.isclose(tau, 1e-2 * math.log(2e7) ** (-2.0 / 3.0))
    taus = [reptile_tau_schedule(t, 0.3) for t in (10, 100, 1000, 10 ** 4)]
    assert all(t2 < t1 for t1, t2 in zip(taus, taus[1:]))
    assert all(0.0 < t < 1.0 for t in taus)
    with pytest.raises(ValueError):
        reptile_tau_schedule(1, 0.1)
    with pytest.raises(ValueError):
        reptile_tau_schedule(100, 1.5)


def test_fluctuation_envelope_mostly_holds():
    inst = MetaInstance.from_config(2, 1.0, 0.0)
    t_tasks, tau, delta = 1000, 0.3, 0.05
    envelope = reptile_fluctuation_bound(t_tasks, tau, delta, 1.0)
    hits = 0
    for k in range(100):
        traj = run_reptile(ReptileSpec(tau, 0.1, t_tasks), inst,
                              SeedSpec(42).child(k))
        hits += int(np.max(np.abs(traj.b_values)) <= envelope)
    assert hits >= 95


def test_replearn_alpha_formula_values():
    # single task, vanishing init: spike approaches 1
    assert abs(replearn_alpha(1, 1e-6, 1.0) - 1.0) < 1e-6
    expected = math.sqrt((0.01 + math.sqrt(4e4 + 1e-4)) / 2.0)
    assert abs(replearn_alpha(10 ** 4, 0.1, 1.0) - expected) < 1e-12
    # quarter-power growth from small init
    for t in (10, 10 ** 3, 10 ** 5):
        assert replearn_alpha(t, 1e-3, 1.0) >= (t ** 0.25) * (1.0 - 1e-6)


def test_replearn_tasks_for_alpha_inverts():
    for alpha in (10.0, 100.0, 1e4):
        t = replearn_tasks_for_alpha(alpha, 0.1, 1.0)
        assert replearn_alpha(t, 0.1, 1.0) >= alpha
        # minimality is only checkable where float spacing of T allows it
        if t > 1 and alpha <= 100.0:
            assert replearn_alpha(t - 1, 0.1, 1.0) < alpha


def test_run_replearn_joint_flow_oracle():
    inst = MetaInstance.from_config(4, 1.0, 0.0)
    signs = [1, -1, 1]
    learned = run_replearn(3, 0.1, inst)
    a, w, converged = oracles.replearn_joint_flow(inst, signs, 0.1,
                                                  t_max=400.0, tol=1e-8)
    assert converged
    spike_numeric = inst.w_star @ a @ inst.w_star
    assert abs(spike_numeric - learned.spike) < 1e-5
    # bulk directions untouched by the joint flow
    offdir = a - (spike_numeric - 0.1) * np.outer(inst.w_star, inst.w_star) - 0.1 * np.eye(4)
    assert np.linalg.norm(offdir) < 1e-5


def test_bad_minimizer_zero_objective():
    inst = MetaInstance.from_config(3, 1.5, 1.0)
    signs = [1, -1]
    a, ws = bad_minimizer(inst, signs)
    assert np.array_equal(a, np.eye(3))
    assert np.allclose(ws[0], inst.w_star) and np.allclose(ws[1], -inst.w_star)
    assert replearn_loss(a, ws, inst, signs) == 0.0


def test_replearn_loss_penalizes_mismatch():
    inst = MetaInstance.from_config(2, 1.0, 0.0)
    loss = replearn_loss(np.eye(2), [np.zeros(2)], inst, [1])
    assert np.isclose(loss, 1.0)
    with pytest.raises(ValueError):
        replearn_loss(np.eye(2), [np.zeros(2)], inst, [1, -1])


def test_growth_bound_formula():
    t_tasks, delta, r = 10 ** 4, 0.1, 1.0
    tau = reptile_tau_schedule(t_tasks, delta)
    bound = reptile_growth_bound(t_tasks, tau, delta, r)
    first = math.sqrt(r) / (2.0 * math.sqrt(tau * math.log(t_tasks / delta)))
    second = math.sqrt(r) * (tau * t_tasks) ** 0.25 / 2.0
    assert np.isclose(bound, min(first, second))
