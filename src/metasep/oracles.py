"""Independent numeric oracles for cross-checking the closed forms.

Everything here is deliberately built on a different code path than
the production implementations, which evaluate every closed form as a
spectral function of one symmetric eigendecomposition: linear systems
here go through numpy.linalg.solve (LU) / pinv (SVD), eigenvalues enter
only as step-size and horizon bounds, and dynamics are integrated by
brute-force RK4 or explicit iteration. These routines are test machinery; they are
slower and exist to catch errors in the closed forms, not to run
experiments.

Linear solvers accept a leading batch axis so that hundreds of small
random instances integrate in one vectorized sweep.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import SpikedIdentity
from .meta_learners import ScalarTrajectory
from .tasks import Dataset, MetaInstance, emp_covariance
from .twolayer import ScalarPair, _flow_rhs, gd_pop_fixed_point


def linear_flow_rk4(m: np.ndarray, b: np.ndarray, w0: np.ndarray,
                    t_max: float, h: float | None = None) -> np.ndarray:
    """Integrate dw/dt = -(M w - b) to t_max with classical RK4.

    m is (..., d, d), b and w0 are (..., d); a shared step size
    h = min(1e-3, 0.1 / max lambda_max) is used across the batch.
    """
    m = np.asarray(m, dtype=np.float64)
    w = np.array(w0, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if h is None:
        lam_max = float(np.max(np.abs(np.linalg.eigvalsh(m))))
        h = min(1e-3, 0.1 / max(lam_max, 1e-12))
    steps = int(math.ceil(t_max / h))
    h = t_max / steps

    def f(x):
        return b - np.einsum("...ij,...j->...i", m, x)

    for _ in range(steps):
        k1 = f(w)
        k2 = f(w + 0.5 * h * k1)
        k3 = f(w + 0.5 * h * k2)
        k4 = f(w + h * k3)
        w = w + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return w


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
    evals = np.linalg.eigvalsh(m)
    lam_min = float(evals[0])
    if lam_min <= 1e-12:
        raise ValueError("regularized flow oracle needs lam > 0 for a finite horizon")
    t_max = 50.0 / lam_min
    h = min(1e-3, 0.1 / float(evals[-1]))
    return linear_flow_rk4(m, ds.x.T @ ds.y / ds.n, w0, t_max, h)


def gd_pop_flow_batched(a0: np.ndarray, w0: np.ndarray, targets: np.ndarray,
                        t_max: float, tol: float = 1e-9):
    """Batched RK4 on the two-layer population flow.

    a0 is (k, d, d), w0 and targets are (k, d). One shared step size
    per step (the most conservative over the batch); trajectories that
    have already converged simply stop moving. Returns (a, w, rhs_norm)
    with rhs_norm the per-trajectory RHS norm at exit.
    """
    a = np.array(a0, dtype=np.float64)
    w = np.array(w0, dtype=np.float64)
    v = np.asarray(targets, dtype=np.float64)
    t = 0.0
    while t < t_max:
        k1a, k1w = _flow_rhs(a, w, v)
        norms = np.sqrt(np.sum(k1a * k1a, axis=(-2, -1)) + np.sum(k1w * k1w, axis=-1))
        if float(np.max(norms)) < tol:
            break
        sq = float(np.max(np.sum(a * a, axis=(-2, -1))))
        h = min(1e-3, 0.05 / (1.0 + sq))
        k2a, k2w = _flow_rhs(a + 0.5 * h * k1a, w + 0.5 * h * k1w, v)
        k3a, k3w = _flow_rhs(a + 0.5 * h * k2a, w + 0.5 * h * k2w, v)
        k4a, k4w = _flow_rhs(a + h * k3a, w + h * k3w, v)
        a = a + (h / 6.0) * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
        w = w + (h / 6.0) * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
        t += h
    k1a, k1w = _flow_rhs(a, w, v)
    norms = np.sqrt(np.sum(k1a * k1a, axis=(-2, -1)) + np.sum(k1w * k1w, axis=-1))
    return a, w, norms


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
        fp = gd_pop_fixed_point(ScalarPair(a_coord, b_coord), kappa, r, int(s))
        a_bar_mat = a_mat + (fp.a - a_coord) * outer
        w_bar_vec = w_vec + (fp.b - b_coord) * w_hat
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
    """RK4 on the joint multi-task flow with shared first layer.

    State: A (d x d) and W (d x T, column i the second layer of task i).
    dA/dt = W V^T - W W^T A, dW/dt = A V - A A^T W, with V the matrix
    of signed targets s_i w_star. Starts at (kappa I, 0). Returns
    (A, W, converged).
    """
    d = inst.d
    v = np.column_stack([s * inst.w_star for s in signs])
    a = kappa * np.eye(d)
    w = np.zeros_like(v)
    t = 0.0
    converged = False

    def rhs(a_cur, w_cur):
        wta = w_cur.T @ a_cur
        da = w_cur @ (v.T - wta)
        dw = a_cur @ v - a_cur @ (a_cur.T @ w_cur)
        return da, dw

    while t < t_max:
        k1a, k1w = rhs(a, w)
        if math.hypot(np.linalg.norm(k1a), np.linalg.norm(k1w)) < tol:
            converged = True
            break
        h = min(1e-3, 0.05 / (1.0 + float(np.sum(a * a))))
        k2a, k2w = rhs(a + 0.5 * h * k1a, w + 0.5 * h * k1w)
        k3a, k3w = rhs(a + 0.5 * h * k2a, w + 0.5 * h * k2w)
        k4a, k4w = rhs(a + h * k3a, w + h * k3w)
        a = a + (h / 6.0) * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
        w = w + (h / 6.0) * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
        t += h
    return a, w, converged
