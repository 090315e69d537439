"""Independent numeric oracles for the closed forms, and the verify suites.

The reference routines are deliberately built on a different code path
than the production implementations, which evaluate every closed form
as a spectral function of one symmetric eigendecomposition: linear
systems here go through numpy.linalg.solve (LU) / pinv (SVD),
eigenvalues enter only as step-size and horizon bounds, and dynamics
are integrated by brute-force RK4 or explicit iteration. No reference
calls the closed form it checks. They are slower and exist to catch
errors in the closed forms, not to run experiments.

Nonlinear flows run on twolayer.gd_pop_flow over twolayer.rk4, the one
RK4 integrator; a linear flow raises its RK4 step matrix, formed once
from the four stages, to the step count (see linear_flow_rk4). Either
way the result is the same sequence of explicit RK4 steps, with no
eigendecomposition or matrix exponential, so it stays independent of
the spectral closed forms.

Linear solvers accept a leading batch axis so that hundreds of small
random instances integrate in one vectorized sweep.

mc_excess_risk_raw is the oracle of the risk estimator: it draws the
sign, the design and the label noise that risk.mc_excess_risk_many
averages out in closed form or samples as a spectrum, and scores each
trial by the squared error of a predictor built as explicit matrices
(predictor_matrices). dense_wishart_spectra is the reference of the
spectrum sampler rng.wishart_spectra: it draws the designs and
eigensolves them.

The last section holds the suites that `metasep verify` runs through
run_suites; they call the closed forms and pair them with references.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .convex import GdRegSpec, GdStepSpec, gd_reg, gd_step, linear_flow_solve
from .linalg import SpikedIdentity, as_dense, symmetrize
from .meta_learners import ScalarTrajectory, replearn_alpha
from .risk import AlgSpec, _convex_risk, _estimate, _twolayer_risk
from .rng import SeedSpec, gaussian_matrix, gaussian_vector
from .tasks import Dataset, MetaInstance, emp_covariance, sample_dataset, sample_task
from .twolayer import flow_limit, gd2_reg, gd_pop_flow


def linear_flow_rk4(m: np.ndarray, b: np.ndarray, w0: np.ndarray,
                    t_max: float, h: float | None = None) -> np.ndarray:
    """Integrate dw/dt = -(M w - b) to t_max with classical RK4.

    m is (..., d, d), b and w0 are (..., d); a shared step size
    h = min(1e-3, 0.1 / max lambda_max) is used across the batch.
    On z = (w, 1) the flow is z' = K z with K = [[-M, b], [0, 0]], so
    every RK4 step is z <- (I + inc) z with one increment matrix
    inc = (h/6)(k1 + 2 k2 + 2 k3 + k4), k1 = K, k2 = K (I + h/2 k1),
    k3 = K (I + h/2 k2), k4 = K (I + h k3), applied t_max / h times as
    the step matrix I + inc raised to that power (by repeated squaring).
    """
    m = np.asarray(m, dtype=np.float64)
    w0 = np.asarray(w0, dtype=np.float64)
    if h is None:
        lam_max = float(np.max(np.abs(np.linalg.eigvalsh(m))))
        h = min(1e-3, 0.1 / max(lam_max, 1e-12))
    steps = int(math.ceil(t_max / h))
    h = t_max / steps

    d = w0.shape[-1]
    k = np.zeros(m.shape[:-2] + (d + 1, d + 1))
    k[..., :d, :d] = -m
    k[..., :d, d] = b
    eye = np.eye(d + 1)
    k2 = k @ (eye + 0.5 * h * k)
    k3 = k @ (eye + 0.5 * h * k2)
    k4 = k @ (eye + h * k3)
    inc = (h / 6.0) * (k + 2.0 * k2 + 2.0 * k3 + k4)
    z = np.concatenate([w0, np.ones(w0.shape[:-1] + (1,))], axis=-1)[..., None]
    return (np.linalg.matrix_power(eye + inc, steps) @ z)[..., :d, 0]


def gd_iteration(ds: Dataset, w0: np.ndarray, eta: float, t: int) -> np.ndarray:
    """Literal gradient descent on the empirical squared loss
    (gradient convention without the factor 2): w <- w - eta (S w - X^T y / n)."""
    cov = emp_covariance(ds)
    b = ds.x.T @ ds.y / ds.n
    w = np.array(w0, dtype=np.float64)
    for _ in range(t):
        w = w - eta * (cov @ w - b)
    return w


def ridge_normal_eq(ds: Dataset, lam: float) -> np.ndarray:
    """Ridge optimum by numpy's dense solver on the normal equations."""
    if lam <= 0.0:
        raise ValueError(f"need lam > 0, got {lam}")
    cov = emp_covariance(ds)
    return np.linalg.solve(cov + lam * np.eye(ds.d), ds.x.T @ ds.y / ds.n)


def gd_reg_pinv_oracle(ds: Dataset, w0: np.ndarray, lam: float) -> np.ndarray:
    """Regularized-flow limit via numpy's pseudo-inverse:
    (I - (S+lam I)^+ (S+lam I)) w0 + (S+lam I)^+ X^T y / n."""
    cov = emp_covariance(ds)
    shifted = cov + lam * np.eye(ds.d)
    pinv = np.linalg.pinv(shifted, rcond=1e-10)
    return (np.eye(ds.d) - pinv @ shifted) @ w0 + pinv @ (ds.x.T @ ds.y / ds.n)


def reg_flow_oracle(ds: Dataset, w0: np.ndarray, lam: float) -> np.ndarray:
    """Gradient flow on the ridge objective, integrated far past its
    slowest time constant (t_max = 50 / lambda_min of S + lam I)."""
    cov = emp_covariance(ds)
    m = cov + lam * np.eye(ds.d)
    lam_min = float(np.linalg.eigvalsh(m)[0])
    if lam_min <= 1e-12:
        raise ValueError("regularized flow oracle needs lam > 0 for a finite horizon")
    return linear_flow_rk4(m, ds.x.T @ ds.y / ds.n, w0, 50.0 / lam_min)


def run_reptile_matrix(tau: float, kappa: float, inst: MetaInstance, signs):
    """Meta-interpolation carried out on full d x d matrices.

    Each step evaluates the within-task flow limit in matrix space
    (spike moved to a_bar along the shared direction, second layer to
    b_bar) and interpolates the dense parameters. Returns the reduced
    trajectory read back off the matrices together with the worst
    off-structure residual, which certifies that the dense evolution
    never leaves spiked form.
    """
    d = inst.d
    r = inst.r
    w_hat = inst.w_star / r
    outer = np.outer(w_hat, w_hat)
    a_mat = kappa * np.eye(d)
    w_vec = np.zeros(d)
    a_list, b_list = [kappa], [0.0]
    worst = 0.0
    for s in signs:
        a_coord = float(w_hat @ a_mat @ w_hat)
        b_coord = float(w_hat @ w_vec)
        a_bar, b_bar = flow_limit(a_coord * a_coord - b_coord * b_coord, r, int(s))
        a_bar_mat = a_mat + (a_bar - a_coord) * outer
        w_bar_vec = w_vec + (b_bar - b_coord) * w_hat
        a_mat = (1.0 - tau) * a_mat + tau * a_bar_mat
        w_vec = (1.0 - tau) * w_vec + tau * w_bar_vec
        a_coord = float(w_hat @ a_mat @ w_hat)
        b_coord = float(w_hat @ w_vec)
        spiked = SpikedIdentity(w_hat, a_coord, kappa).to_dense()
        worst = max(worst,
                    float(np.linalg.norm(a_mat - spiked)),
                    float(np.linalg.norm(w_vec - b_coord * w_hat)))
        a_list.append(a_coord)
        b_list.append(b_coord)
    return ScalarTrajectory(np.array(a_list), np.array(b_list), [int(s) for s in signs]), worst


def replearn_joint_flow(inst: MetaInstance, signs, kappa: float,
                        t_max: float, tol: float = 1e-9):
    """gd_pop_flow of the joint multi-task flow from (kappa I, 0): A is the
    shared first layer, column i of W (d x T) the second layer of task i,
    whose target is s_i w_star. Returns (A, W, converged)."""
    v = np.column_stack([s * inst.w_star for s in signs])
    return gd_pop_flow(kappa * np.eye(inst.d), np.zeros(v.shape), v, t_max, tol)


def predictor_matrices(alg: AlgSpec, x: np.ndarray):
    """(P, D) with the algorithm's predictor P y + D w0 on design x.

    Built by numpy.linalg (pinv for gd_reg at lam = 0, solve for the
    ridge forms) or, for gd_step, by iterating the matrices themselves.
    gd2_reg's P is the effective predictor A^T w; it ignores w0 (D = 0).
    """
    n, d = x.shape
    eye = np.eye(d)
    cov = x.T @ x / n
    if alg.family == "gd_step":
        eta = alg.params.eta
        p, dm = np.zeros((d, n)), eye
        for _ in range(alg.params.t0):
            p = p - eta * (cov @ p - x.T / n)
            dm = dm - eta * (cov @ dm)
        return p, dm
    if alg.family == "gd_reg" and alg.params.lam == 0.0:
        p = np.linalg.pinv(x)
        return p, eye - p @ x
    a = as_dense(alg.init) if alg.family == "gd2_reg" else eye
    m = a @ cov @ a.T + alg.params.lam * eye
    return a.T @ np.linalg.solve(m, a @ x.T / n), np.zeros((d, d))


def mc_excess_risk_raw(algs, inst: MetaInstance, n: int, trials: int, seed: SeedSpec) -> list:
    """Raw Monte-Carlo excess risks, one RiskEstimate per algorithm.

    Trial t draws a sign (seed.child(t, 0)), a design (seed.child(t, 1, 0),
    the design risk.mc_excess_risk_many scores gd2_reg on; its convex
    learners score a spectrum from seed.child(t, 2, j)) and label noise
    (seed.child(t, 1, 1)), and scores ||P y + D w0 - s w_star||^2 with
    the matrices of predictor_matrices.
    """
    values = np.empty((trials, len(algs)))
    for t in range(trials):
        task = sample_task(inst, seed.child(t, 0))
        ds = sample_dataset(task, n, seed.child(t, 1))
        for j, alg in enumerate(algs):
            p, dm = predictor_matrices(alg, ds.x)
            diff = p @ ds.y - task.target
            if alg.family != "gd2_reg":
                diff += dm @ alg.init
            values[t, j] = diff @ diff
    return [_estimate(values[:, j]) for j in range(len(algs))]


def dense_wishart_spectra(seed: SeedSpec, n: int, d: int, trials: int) -> np.ndarray:
    """Reference for rng.wishart_spectra: a (trials, d) array whose row t
    holds the eigenvalues of X^T X / n in descending order, with trial
    t's n x d design X drawn from seed.child(t, 1, 0) and eigensolved by
    numpy.linalg.eigvalsh."""
    out = np.empty((trials, d))
    for t in range(trials):
        x = gaussian_matrix(seed.child(t, 1, 0), n, d)
        out[t] = np.linalg.eigvalsh(x.T @ x / n)[::-1]
    return out


# ---------------------------------------------------------------------------
# verification suites: each returns (pairs, oracle converged). A pair is
# (closed form, reference, scale), its residual ||closed - reference|| /
# scale; the flag is None when the suite's oracle has no convergence
# criterion


def _convex_case(sk: SeedSpec, k: int):
    """Case k of the convex closed-form suites: a dataset with d in 2..7
    and n in 3..12, and a start vector."""
    d, n = 2 + k % 6, 3 + k % 10
    inst = MetaInstance.from_config(d, 1.0, 0.5)
    ds = sample_dataset(sample_task(inst, sk.child(0)), n, sk.child(1))
    return ds, gaussian_vector(sk.child(2), d)


def _suite_gd_step(seed: SeedSpec):
    pairs = []
    for k in range(30):
        ds, w0 = _convex_case(seed.child(k), k)
        eta, t0 = 0.02 + 0.01 * (k % 3), 5 + 7 * (k % 5)
        explicit = gd_iteration(ds, w0, eta, t0)
        pairs.append((gd_step(GdStepSpec(eta, t0), ds, w0), explicit,
                      max(1.0, np.linalg.norm(explicit))))
    return pairs, None


def _suite_gd_reg(seed: SeedSpec):
    pairs = []
    for k in range(30):
        ds, w0 = _convex_case(seed.child(k), k)
        lam = 0.0 if k % 4 == 0 else 0.1 + 0.3 * (k % 3)
        reference = gd_reg_pinv_oracle(ds, w0, lam)
        pairs.append((gd_reg(GdRegSpec(lam), ds, w0), reference,
                      max(1.0, np.linalg.norm(reference))))
    return pairs, None


def _suite_linear_flow(seed: SeedSpec):
    """The flow on M = G G^T / 4 for a Gaussian 4 x 4 G, with b in range(M)."""
    pairs = []
    for k in range(10):
        sk = seed.child(k)
        g = gaussian_matrix(sk.child(0), 4, 4)
        m = g @ g.T / 4
        b, w0 = m @ gaussian_vector(sk.child(1), 4), gaussian_vector(sk.child(2), 4)
        pairs.append((linear_flow_solve(m, b, w0, 2.0),
                      linear_flow_rk4(m, b, w0, 2.0), 1.0))
    return pairs, None


def _suite_twolayer_fp(seed: SeedSpec):
    d, k = 5, np.arange(4)
    r = 0.5 + 0.5 * k
    sgn = np.where(k % 2 == 0, 1, -1)
    a0, b0 = 0.4 + 0.1 * k, 0.1
    w_hat = np.eye(d)[0]
    firsts = np.stack([SpikedIdentity(w_hat, a, 0.1).to_dense() for a in a0])
    a, w, converged = gd_pop_flow(firsts, np.outer(np.full(4, b0), w_hat)[..., None],
                                  np.outer(sgn * r, w_hat)[..., None], 400.0, 1e-9)
    pairs = []
    for i in range(4):
        a_bar, b_bar = flow_limit(a0[i] ** 2 - b0 ** 2, r[i], int(sgn[i]))
        pairs += [(a_bar, float(a[i, 0, 0]), 1.0), (b_bar, float(w[i, 0, 0]), 1.0)]
    return pairs, converged


def _suite_gd2_reg(seed: SeedSpec):
    pairs = []
    for k in range(5):
        sk = seed.child(k)
        d, n, lam = 4, 8, 0.3
        inst = MetaInstance.from_config(d, 1.0, 0.5)
        task = sample_task(inst, sk.child(0))
        ds = sample_dataset(task, n, sk.child(1))
        g = gaussian_matrix(sk.child(2), d, d)
        a0 = g @ g.T / d + 0.5 * np.eye(d)
        out = gd2_reg(lam, ds, a0)
        m = a0 @ (ds.x.T @ ds.x / n) @ a0 + lam * np.eye(d)
        b = a0 @ (ds.x.T @ ds.y / n)
        numeric = linear_flow_rk4(m, b, np.zeros(d), 50.0 / float(np.linalg.eigvalsh(m)[0]))
        # an identity first layer reduces to the one-layer ridge solution
        ridge = gd_reg(GdRegSpec(lam), ds, np.zeros(d))
        pairs += [(out.second, numeric, 1.0), (gd2_reg(lam, ds, np.eye(d)).second, ridge, 1.0)]
    return pairs, None


def _suite_replearn(seed: SeedSpec):
    expected = math.sqrt((0.01 + math.sqrt(4e4 + 1e-4)) / 2.0)
    inst = MetaInstance.from_config(4, 1.0, 0.0)
    signs = [1, -1, 1]
    a, _, converged = replearn_joint_flow(inst, signs, 0.1, t_max=400.0, tol=1e-8)
    w_hat = inst.w_star
    spike = float(w_hat @ a @ w_hat)
    return [(replearn_alpha(10 ** 4, 0.1, 1.0), expected, 1.0),
            (replearn_alpha(3, 0.1, 1.0), spike, 1.0)], converged


def _suite_risk_estimator(seed: SeedSpec):
    """Each trial's conditional excess risk against the explicit predictor
    matrices (P, D) on the same design X: risk._convex_risk on the
    spectrum of X^T X / n against (||w0||^2/d) ||D||_F^2 +
    (r^2/d) ||P X - I||_F^2 + sigma^2 ||P||_F^2 (the exact average over
    Haar eigenvectors, since a trace is the sum over basis directions),
    and risk._twolayer_risk given X against ||(P X - I) w*||^2 +
    sigma^2 ||P||_F^2. The spectrum is the squared singular values of X
    over n, padded with zeros: an eigensolve of X^T X squares X's
    condition number, which gd_reg's variance at lam = 0 on the square
    design amplifies past the tolerance."""
    d, trials = 6, 3
    inst = MetaInstance.from_config(d, 1.0, 0.5)
    w_star, sigma2 = inst.w_star, inst.sigma ** 2
    r2 = float(w_star @ w_star)
    w0 = gaussian_vector(seed.child(100), d)
    g = gaussian_matrix(seed.child(101), d, d)
    algs = [AlgSpec("gd_reg", GdRegSpec(0.0), w0), AlgSpec("gd_reg", GdRegSpec(0.3), w0),
            AlgSpec("gd_step", GdStepSpec(0.05, 20), w0),
            AlgSpec("gd2_reg", GdRegSpec(5.0 ** 1.5), SpikedIdentity(w_star, 5.0, 0.1)),
            AlgSpec("gd2_reg", GdRegSpec(0.3), g @ g.T / d + 0.5 * np.eye(d))]
    pairs = []
    for k, n in enumerate((3, 6, 12)):
        for t in range(trials):
            x = gaussian_matrix(seed.child(k).child(t, 1, 0), n, d)
            cov = symmetrize(x.T @ x / n)
            spectrum = np.zeros(d)
            spectrum[:min(n, d)] = np.linalg.svd(x, compute_uv=False) ** 2 / n
            for alg in algs:
                p, dm = predictor_matrices(alg, x)
                e = p @ x - np.eye(d)
                if alg.family == "gd2_reg":
                    closed = _twolayer_risk(alg.params.lam, as_dense(alg.init), cov, w_star,
                                            n, sigma2)
                    bias = float(np.sum((e @ w_star) ** 2))
                else:
                    closed = float(_convex_risk(alg, spectrum[None], d, n, r2, sigma2)[0])
                    bias = (w0 @ w0 * np.sum(dm * dm) + r2 * np.sum(e * e)) / d
                reference = bias + sigma2 * float(np.sum(p * p))
                pairs.append((closed, reference, max(1.0, abs(reference))))
    return pairs, None


SUITES = [
    ("gd-step-closed-form", _suite_gd_step, 1e-8),
    ("gd-reg-closed-form", _suite_gd_reg, 1e-10),
    ("linear-flow", _suite_linear_flow, 1e-8),
    ("twolayer-fixed-point", _suite_twolayer_fp, 1e-6),
    ("second-layer-ridge", _suite_gd2_reg, 1e-6),
    ("replearn-fixed-point", _suite_replearn, 1e-5),
    ("risk-estimator", _suite_risk_estimator, 1e-9),
]


# the self-test: every closed form shifted by this much must push its
# suite's residual above tol, which certifies that the check has teeth
SHIFT = 1e-4


def _residual(pairs, shift: float = 0.0) -> float:
    """Worst ||closed + shift - reference|| / scale over the pairs; NaN
    if any is NaN."""
    return float(np.max([np.linalg.norm(np.asarray(closed) + shift - reference) / scale
                         for closed, reference, scale in pairs]))


def run_suites(seed: SeedSpec):
    """Run suite i of SUITES on seed.child(i); return (report, stages).
    perturbed_residual shifts every closed form by SHIFT; a suite passes
    iff residual <= tol < perturbed_residual and converged is not False."""
    report, stages = [], {}
    for i, (name, fn, tol) in enumerate(SUITES):
        start = time.monotonic()
        pairs, converged = fn(seed.child(i))
        residual, shifted = _residual(pairs), _residual(pairs, SHIFT)
        stages[name] = {"wall_s": time.monotonic() - start, "perturbed_residual": shifted}
        report.append({"suite": name, "residual": residual, "tol": tol,
                       "oracle_converged": converged,
                       "passed": residual <= tol < shifted and converged is not False})
    return report, stages
