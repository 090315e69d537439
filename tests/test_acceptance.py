"""End-to-end acceptance checks.

One test per criterion, each printing a single PASS line (visible with
pytest -s, or via pytest -v test names). Tolerances and scales follow
the stated contracts; every closed form is checked against an
independently coded oracle, never against itself.
"""

import json
import math

import numpy as np

from metasep.cli import main as cli_main
from metasep.convex import GdRegSpec, GdStepSpec, gd_reg, gd_step
from metasep.linalg import SpikedIdentity
from metasep.meta_learners import (ReptileSpec, replearn_alpha, replearn_loss,
                                   replearn_tasks_for_alpha,
                                   reptile_fluctuation_bound, reptile_growth_bound,
                                   reptile_spike, reptile_tau_schedule, bad_minimizer,
                                   run_replearn, run_reptile)
from metasep.rng import SeedSpec, gaussian_vector, uniforms
from metasep.risk import (AlgSpec, convex_lower_bound_exact, mc_excess_risk,
                          mc_excess_risk_many, sample_complexity_search)
from metasep.tasks import MetaInstance, sample_dataset, sample_task
from metasep.twolayer import ScalarPair, gd_pop_fixed_point, gd_pop_flow
from metasep import oracles


def test_criterion_01_closed_forms_vs_oracles():
    """gd_step vs explicit iteration (1e-8 rel) and gd_reg vs RK4 flow
    (1e-6) over 200 random instances, d <= 8, n <= 16."""
    count = 200
    step_worst = 0.0
    pads, bs, w0s, closeds, dims = [], [], [], [], []
    for k in range(count):
        sk = SeedSpec(100).child(k)
        d = 2 + k % 7          # 2..8
        n = 2 + k % 15         # 2..16
        lam = 1.0 + uniforms(sk.child(9), 1)[0]  # in (1, 2]
        inst = MetaInstance.from_config(d, 1.0, 0.5)
        task = sample_task(inst, sk.child(0))
        ds = sample_dataset(task, n, sk.child(1))
        w0 = gaussian_vector(sk.child(2), d)

        eta = 0.02 + 0.03 * ((k % 4) / 3.0)
        t0 = 5 + 11 * (k % 9)
        closed_step = gd_step(GdStepSpec(eta, t0), ds, w0)
        explicit = oracles.gd_iteration(ds, w0, eta, t0)
        step_worst = max(step_worst,
                         np.linalg.norm(closed_step - explicit)
                         / max(1.0, np.linalg.norm(explicit)))

        closeds.append(gd_reg(GdRegSpec(lam), ds, w0))
        cov = ds.x.T @ ds.x / n
        m_pad = lam * np.eye(8)
        m_pad[:d, :d] += cov
        pads.append(m_pad)
        b = np.zeros(8)
        b[:d] = ds.x.T @ ds.y / n
        bs.append(b)
        w0_pad = np.zeros(8)
        w0_pad[:d] = w0
        w0s.append(w0_pad)
        dims.append(d)
    assert step_worst <= 1e-8

    # all 200 ridge flows integrate in one batched RK4 sweep; lam >= 1
    # makes t_max = 50 a >= 50-time-constant horizon for every instance
    m_batch = np.stack(pads)
    numeric = oracles.linear_flow_rk4(m_batch, np.stack(bs), np.stack(w0s), 50.0)
    reg_worst = 0.0
    for k in range(count):
        d = dims[k]
        diff = np.linalg.norm(numeric[k][:d] - closeds[k])
        reg_worst = max(reg_worst, diff / max(1.0, np.linalg.norm(closeds[k])))
    assert reg_worst <= 1e-6
    print(f"CRITERION 1 PASS: gd_step residual {step_worst:.2e} (tol 1e-8), "
          f"gd_reg flow residual {reg_worst:.2e} (tol 1e-6)")


def test_criterion_02_twolayer_fixed_point():
    """Numeric population flow reaches the closed-form fixed point
    (1e-6) from 50 spiked starts; gap conserved (1e-8); identities on
    10^4 random inputs (1e-12)."""
    k_traj, d = 50, 5
    rng = SeedSpec(200)
    a0 = 0.3 + 0.9 * uniforms(rng.child(0), k_traj)
    b0 = 0.02 + (0.9 * a0 - 0.02) * uniforms(rng.child(1), k_traj)
    r = 0.5 + 1.5 * uniforms(rng.child(2), k_traj)
    sgn = np.where(uniforms(rng.child(3), k_traj) < 0.5, 1.0, -1.0)
    kappa = 0.05 + 0.25 * uniforms(rng.child(4), k_traj)
    dirs = np.stack([gaussian_vector(rng.child(5, i), d) for i in range(k_traj)])
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)

    eye = np.eye(d)
    a_mats = (kappa[:, None, None] * eye
              + (a0 - kappa)[:, None, None] * np.einsum("ki,kj->kij", dirs, dirs))
    w_vecs = (b0[:, None] * dirs)[..., None]
    targets = ((sgn * r)[:, None] * dirs)[..., None]

    gap0 = a0 ** 2 - b0 ** 2
    drift = 0.0
    for _ in range(200):  # segments of t = 2, checking conservation each time
        a_mats, w_vecs, converged = gd_pop_flow(a_mats, w_vecs, targets, t_max=2.0, tol=1e-9)
        a_cur = np.einsum("ki,kij,kj->k", dirs, a_mats, dirs)
        b_cur = np.einsum("ki,kit->k", dirs, w_vecs)
        drift = max(drift, float(np.max(np.abs(a_cur ** 2 - b_cur ** 2 - gap0))))
        if converged:
            break
    assert converged, "flow did not converge in budget"
    assert drift < 1e-8

    fp_worst = 0.0
    for i in range(k_traj):
        fp = gd_pop_fixed_point(ScalarPair(float(a0[i]), float(b0[i])),
                                float(kappa[i]), float(r[i]), int(sgn[i]))
        fp_worst = max(fp_worst, abs(float(a_cur[i]) - fp.a),
                       abs(float(b_cur[i]) - fp.b))
    assert fp_worst < 1e-6

    g = gaussian_vector(SeedSpec(201), 3 * 10 ** 4).reshape(3, -1)
    aa, bb = 2.0 * g[0], 2.0 * g[1]
    rr = 0.1 + np.abs(g[2])
    c = aa * aa - bb * bb
    root = np.sqrt(4.0 * rr * rr + c * c)
    a_bar = np.sqrt((c + root) / 2.0)
    b_bar = np.sqrt((root - c) / 2.0)
    id1 = float(np.max(np.abs(a_bar * b_bar - rr) / np.maximum(1.0, rr)))
    id2 = float(np.max(np.abs(a_bar ** 2 - b_bar ** 2 - c)
                       / np.maximum(1.0, np.abs(c))))
    assert id1 <= 1e-12 and id2 <= 1e-12
    print(f"CRITERION 2 PASS: flow-vs-closed-form {fp_worst:.2e} (tol 1e-6), "
          f"gap drift {drift:.2e} (tol 1e-8), identities {max(id1, id2):.2e} (tol 1e-12)")


def test_criterion_03_reptile_scalar_matrix_consistency():
    """d=6, T=20 dense matrix meta-run agrees with the scalar recursion
    to 1e-10 in every (a_i, b_i)."""
    inst = MetaInstance.from_config(6, 1.0, 0.0)
    spec = ReptileSpec(0.3, 0.1, 20)
    traj = run_reptile(spec, inst, SeedSpec(300))
    mtraj, structure_resid = oracles.run_reptile_matrix(0.3, 0.1, inst, traj.signs)
    gap_a = float(np.max(np.abs(mtraj.a_values - traj.a_values)))
    gap_b = float(np.max(np.abs(mtraj.b_values - traj.b_values)))
    assert gap_a <= 1e-10 and gap_b <= 1e-10
    assert structure_resid <= 1e-10
    print(f"CRITERION 3 PASS: scalar/matrix gap {max(gap_a, gap_b):.2e} "
          f"(tol 1e-10), off-structure residual {structure_resid:.2e}")


def test_criterion_04_figure_configuration():
    """T=1000, tau=0.3, start (0.1, 0), r=1: a nondecreasing, |ab| <= 1,
    fluctuation envelope holds in >= 95 of 100 seeded runs."""
    inst = MetaInstance.from_config(2, 1.0, 0.0)
    spec = ReptileSpec(0.3, 0.1, 1000)
    envelope = reptile_fluctuation_bound(1000, 0.3, 0.05, 1.0)
    env_hits = 0
    for k in range(100):
        traj = run_reptile(spec, inst, SeedSpec(400).child(k))
        a, b = traj.a_values, traj.b_values
        assert np.all(np.diff(a) >= 0.0), f"a decreased in run {k}"
        assert np.max(np.abs(a * b)) <= 1.0 + 1e-10, f"|ab| > r in run {k}"
        env_hits += int(np.max(np.abs(b)) <= envelope)
    assert env_hits >= 95
    print(f"CRITERION 4 PASS: monotone a and |ab|<=1 in 100/100 runs, "
          f"fluctuation envelope in {env_hits}/100 (need >= 95)")


def test_criterion_05_growth_law():
    """Scheduled tau: a_T beats the growth bound in >= 90% of 20 seeded
    runs for each T in {1e3, 1e4, 1e5}."""
    inst = MetaInstance.from_config(2, 1.0, 0.0)
    delta = 0.1
    fractions = {}
    for ti, t_tasks in enumerate((10 ** 3, 10 ** 4, 10 ** 5)):
        tau = reptile_tau_schedule(t_tasks, delta)
        bound = reptile_growth_bound(t_tasks, tau, delta, 1.0)
        hits = 0
        for si in range(20):
            a_t = reptile_spike(ReptileSpec(tau, 0.1, t_tasks), inst,
                                SeedSpec(500).child(ti, si))
            hits += int(a_t >= bound)
        fractions[t_tasks] = hits / 20.0
        assert hits >= 18, f"T={t_tasks}: only {hits}/20 runs beat the bound"
    print(f"CRITERION 5 PASS: growth bound satisfaction {fractions} "
          f"(need >= 0.9 each)")


def test_criterion_06_convex_lower_bound():
    """d=20, r=sigma=1: every (w0, params) cell at n in {5, 20, 80} has
    mc mean + 3 stderr >= the exact bound, 2000 trials."""
    d = 20
    inst = MetaInstance.from_config(d, 1.0, 1.0)
    spot = convex_lower_bound_exact(d, d, 1.0, 1.0)
    assert spot == 0.5

    g = gaussian_vector(SeedSpec(606), d)
    inits = {"zero": np.zeros(d), "wstar": inst.w_star.copy(),
             "random5": 5.0 * g / np.linalg.norm(g)}
    algs, labels = [], []
    for init_name, w0 in inits.items():
        for lam in (0.0, 0.1, 1.0, 10.0):
            algs.append(AlgSpec("gd_reg", GdRegSpec(lam), w0))
            labels.append(f"{init_name}/lam={lam}")
        for eta in (0.01, 0.1):
            for t0 in (10, 100, 1000):
                algs.append(AlgSpec("gd_step", GdStepSpec(eta, t0), w0))
                labels.append(f"{init_name}/eta={eta},t0={t0}")

    min_margin = math.inf
    for n in (5, 20, 80):
        bound = convex_lower_bound_exact(d, n, 1.0, 1.0)
        ests = mc_excess_risk_many(algs, inst, n, 2000, SeedSpec(600).child(n),
                                   workers=4)
        for label, est in zip(labels, ests):
            slack = est.mean + 3.0 * est.stderr - bound
            assert slack >= 0.0, (f"bound violated at n={n} by {label}: "
                                  f"mean={est.mean} stderr={est.stderr} bound={bound}")
            if math.isfinite(slack):
                min_margin = min(min_margin, slack)
    print(f"CRITERION 6 PASS: bound dominated across 90 cells, spot value "
          f"bound(20,20)=0.5 exact, smallest margin {min_margin:.3g}")


def test_criterion_07_replearn_closed_form():
    """Closed-form spike at (r=1, kappa=0.1, T=1e4) to 1e-9; joint flow
    oracle at d=4, T=3 agrees to 1e-5."""
    expected = math.sqrt((0.01 + math.sqrt(4e4 + 1e-4)) / 2.0)
    formula_gap = abs(replearn_alpha(10 ** 4, 0.1, 1.0) - expected)
    assert formula_gap <= 1e-9

    inst = MetaInstance.from_config(4, 1.0, 0.0)
    signs = [1, -1, 1]
    learned = run_replearn(3, 0.1, inst)
    a, _, converged = oracles.replearn_joint_flow(inst, signs, 0.1,
                                                  t_max=400.0, tol=1e-8)
    assert converged
    flow_gap = abs(float(inst.w_star @ a @ inst.w_star) - learned.spike)
    assert flow_gap <= 1e-5
    print(f"CRITERION 7 PASS: formula gap {formula_gap:.2e} (tol 1e-9), "
          f"joint flow gap {flow_gap:.2e} (tol 1e-5)")


def test_criterion_08_separation_at_desk_scale():
    """d=50, r=sigma=1, eps=0.05: no convex config reaches eps by
    n=900; the spiked first layer (alpha >= 1e4, lam = alpha^1.5)
    reaches it by n <= 100."""
    d, eps, trials = 50, 0.05, 400
    inst = MetaInstance.from_config(d, 1.0, 1.0)
    master = SeedSpec(800)

    # one paired search: every lambda is scored on the same designs
    lams = (0.0, 0.1, 1.0)
    convex_found = sample_complexity_search(
        [AlgSpec("gd_reg", GdRegSpec(lam), np.zeros(d)) for lam in lams],
        inst, eps, [100, 300, 500, 700, 900], trials, master.child(0), workers=4)
    for lam, found in zip(lams, convex_found):
        assert found is None, f"convex lam={lam} reached eps at n={found}"

    t_tasks = replearn_tasks_for_alpha(1e4, 0.1, 1.0)
    learned = run_replearn(t_tasks, 0.1, inst)
    alpha = learned.spike
    assert alpha >= 1e4
    lam2 = alpha ** 1.5
    (found,) = sample_complexity_search(
        [AlgSpec("gd2_reg", GdRegSpec(lam2), learned)],
        inst, eps, [20, 40, 60, 80, 100], trials, master.child(1), workers=4)
    assert found is not None and found <= 100
    print(f"CRITERION 8 PASS: convex none at n<=900 (bound at 900 is "
          f"{convex_lower_bound_exact(d, 900, 1, 1):.4f} > {eps}), "
          f"nonconvex n_eps={found} with alpha={alpha:.4g}")


def test_criterion_09_bad_minimizer():
    """The identity-layer multi-task minimizer zeroes the objective yet
    yields high downstream risk at n = d/2."""
    d = 50
    inst = MetaInstance.from_config(d, 1.0, 1.0)
    signs = [int(s) for s in np.where(uniforms(SeedSpec(900), 8) < 0.5, 1, -1)]
    a_bad, per_task = bad_minimizer(inst, signs)
    assert replearn_loss(a_bad, per_task, inst, signs) == 0.0

    alg = AlgSpec("gd2_reg", GdRegSpec(1.0), a_bad)  # alpha = 1 => lam = 1
    est = mc_excess_risk(alg, inst, 25, 400, SeedSpec(901), workers=4)
    assert est.mean > 0.3
    print(f"CRITERION 9 PASS: multi-task objective 0 exactly, downstream "
          f"risk {est.mean:.3f} > 0.3 at n=25, d=50")


def test_criterion_10_worker_count_byte_identity(tmp_path):
    """Every command that takes --workers, run twice with different
    --workers, writes byte-identical data outputs. dynamics and verify run
    serially and take no --workers. risk and nsearch score a gd_reg, which
    runs inline at any --workers; separation's nonconvex half draws its 64
    trials as two 32-trial chunks on two threads, and growth's 5 seeds map
    over 4 worker processes."""
    runs = {
        "risk": ["risk", "--d", "6", "--n", "8", "--lam", "0.5",
                 "--trials", "64"],
        "nsearch": ["nsearch", "--d", "4", "--lam", "1.0", "--epsilon", "2.5",
                    "--n-grid", "2,4", "--trials", "64"],
        "separation": ["separation", "--d", "6", "--epsilon", "0.5",
                       "--trials", "64", "--convex-grid", "4,8",
                       "--nonconvex-grid", "4,8", "--alpha-target", "50",
                       "--lam-sweep", "0.5"],
        "growth": ["growth", "--t-list", "100,200", "--seeds", "5"],
    }
    compared = 0
    for name, args in runs.items():
        paths = {}
        for workers in (1, 4):
            out = str(tmp_path / f"{name}_w{workers}")
            code = cli_main(args + ["--out", out, "--workers", str(workers)])
            assert code == 0, f"{name} failed with workers={workers}"
            paths[workers] = out
        for ext in (".csv", ".json"):
            p1 = paths[1] + ext
            p4 = paths[4] + ext
            try:
                data1 = open(p1, "rb").read()
            except FileNotFoundError:
                continue
            data4 = open(p4, "rb").read()
            assert data1 == data4, f"{name}{ext} differs across worker counts"
            compared += 1
        # manifests carry wall time by design; check their checksums agree
        m1 = json.loads(open(paths[1] + ".manifest.json").read())
        m4 = json.loads(open(paths[4] + ".manifest.json").read())
        ours1 = {k.replace("_w1", ""): v for k, v in m1["outputs"].items()}
        ours4 = {k.replace("_w4", ""): v for k, v in m4["outputs"].items()}
        assert ours1 == ours4
        assert m1["config"] == m4["config"]
    assert compared == 5
    print(f"CRITERION 10 PASS: {compared} data files byte-identical across "
          f"--workers 1 vs 4")
