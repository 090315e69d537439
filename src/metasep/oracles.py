"""Independent numeric oracles for cross-checking the closed forms.

Everything here is deliberately built on a different code path than
the production implementations, which evaluate every closed form as a
spectral function of one symmetric eigendecomposition: linear systems
here go through numpy.linalg.solve (LU) / pinv (SVD), eigenvalues enter
only as step-size and horizon bounds, and dynamics are integrated by
brute-force RK4 or explicit iteration. These routines are test
machinery; they are slower and exist to catch errors in the closed
forms, not to run experiments.

Nonlinear flows run on twolayer.rk4, the one RK4 integrator; a linear
flow is stepped by its RK4 step matrix, formed once from the four
stages (see linear_flow_rk4). Either way the result is the same
sequence of explicit RK4 steps, with no eigendecomposition or matrix
exponential, so it stays independent of the spectral closed forms.

Linear solvers accept a leading batch axis so that hundreds of small
random instances integrate in one vectorized sweep.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import SpikedIdentity
from .meta_learners import ScalarTrajectory
from .tasks import Dataset, MetaInstance, emp_covariance
from .twolayer import ScalarPair, _flow_rhs, _flow_step_size, gd_pop_fixed_point, rk4


def linear_flow_rk4(m: np.ndarray, b: np.ndarray, w0: np.ndarray,
                    t_max: float, h: float | None = None) -> np.ndarray:
    """Integrate dw/dt = -(M w - b) to t_max with classical RK4.

    m is (..., d, d), b and w0 are (..., d); a shared step size
    h = min(1e-3, 0.1 / max lambda_max) is used across the batch.
    On z = (w, 1) the flow is z' = K z with K = [[-M, b], [0, 0]], so
    every RK4 step is z <- z + inc z with one increment matrix
    inc = (h/6)(k1 + 2 k2 + 2 k3 + k4), k1 = K, k2 = K (I + h/2 k1),
    k3 = K (I + h/2 k2), k4 = K (I + h k3).
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
    for _ in range(steps):
        z = z + inc @ z
    return z[..., :d, 0]


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


def gd_pop_flow_batched(a0: np.ndarray, w0: np.ndarray, targets: np.ndarray,
                        t_max: float, tol: float = 1e-9):
    """Batched rk4 on the two-layer population flow, state (k, d^2 + d).

    a0 is (k, d, d), w0 and targets are (k, d). One shared step size
    per step (the most conservative over the batch). Returns (a, w,
    rhs_norm) with rhs_norm the per-trajectory RHS norm at exit.
    """
    k, d = np.shape(w0)
    v = np.asarray(targets, dtype=np.float64)[..., None]
    y0 = np.concatenate([np.reshape(a0, (k, d * d)), w0], axis=-1)
    y, _ = rk4(lambda y: _flow_rhs(y, v), y0, t_max, lambda y: _flow_step_size(y, d), tol)
    norms = np.linalg.norm(_flow_rhs(y, v), axis=-1)
    return y[:, :d * d].reshape(k, d, d), y[:, d * d:], norms


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
    """rk4 on the joint multi-task flow with shared first layer.

    State: A (d x d) and W (d x T, column i the second layer of task i).
    dA/dt = W V^T - W W^T A, dW/dt = A V - A A^T W, with V the matrix
    of signed targets s_i w_star. Starts at (kappa I, 0). Returns
    (A, W, converged).
    """
    d = inst.d
    v = np.column_stack([s * inst.w_star for s in signs])
    y0 = np.concatenate([(kappa * np.eye(d)).ravel(), np.zeros(v.size)])
    y, converged = rk4(lambda y: _flow_rhs(y, v), y0, t_max,
                       lambda y: _flow_step_size(y, d), tol)
    return y[:d * d].reshape(d, d), y[d * d:].reshape(v.shape), converged
