"""Two-layer linear network trained within a task.

The model is f(x) = w^T A x with a d x d first layer A and a second
layer w. On a task with target v = s * w_star the population loss is
||A^T w - v||^2 + sigma^2.

Two within-task procedures:

* gd_pop: gradient flow on the population loss. For spiked-identity
  initializations the flow reduces to two scalars (a along the shared
  direction, b the aligned second-layer coordinate) with conserved
  gap c = a^2 - b^2, and the limit has the closed form
  a_bar = sqrt((c + sqrt(4 r^2 + c^2)) / 2), b_bar = s * sqrt((-c +
  sqrt(4 r^2 + c^2)) / 2). gd_pop_flow integrates the batched matrix
  flow of tasks sharing a first layer with rk4, the package's one
  fixed-step RK4 integrator, as the numeric cross-check.
* gd2_reg: ridge regression on the second layer only, first layer
  frozen.

The flow right-hand sides drop the factor 2 from the squared-loss
gradient (a time reparametrization that leaves limits unchanged); the
numeric integrator and the closed forms use the same convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import NotPsdError, as_dense, sym_eigen
from .tasks import Dataset, Task, emp_covariance


@dataclass(frozen=True)
class ScalarPair:
    """Reduced coordinates (a, b) of a spiked-form (A, w) pair."""

    a: float
    b: float

    @property
    def gap(self) -> float:
        """The conserved quantity a^2 - b^2 of the population flow."""
        return self.a * self.a - self.b * self.b


@dataclass(frozen=True)
class TwoLayerParams:
    """First layer (dense or spiked) and second-layer vector."""

    first: object
    second: np.ndarray

    def first_dense(self) -> np.ndarray:
        return as_dense(self.first)


def flow_limit(c: float, r: float, s: int) -> tuple[float, float]:
    """Closed-form flow limit (a_bar, b_bar) on plain floats for gap c.

    The pair satisfies a_bar * b_bar = s * r and a_bar^2 - b_bar^2 = c.
    s is not checked here; gd_pop_fixed_point is the checked entry.
    The Reptile meta-loop, meta_learners._reptile_steps, carries a
    written-out copy of this formula;
    tests/test_meta_learners.py::test_reptile_steps_equal_flow_limit_exactly
    pins the two together bit for bit.
    """
    root = math.sqrt(4.0 * r * r + c * c)
    return math.sqrt((c + root) / 2.0), s * math.sqrt((root - c) / 2.0)


def gd_pop_fixed_point(state: ScalarPair, kappa: float, r: float, s: int) -> ScalarPair:
    """Limit of the population flow from reduced state (a, b).

    kappa is the ambient bulk of the spiked first layer; it rides along
    unchanged and does not enter the formula. The returned pair
    satisfies a_bar * b_bar = s * r and a_bar^2 - b_bar^2 = a^2 - b^2.
    The closed form is the flow limit when a > b >= 0; for other states
    it is still evaluated, but outside that region it is only the
    formula, not a convergence claim.
    """
    del kappa
    if s not in (1, -1):
        raise ValueError(f"s must be +1 or -1, got {s}")
    return ScalarPair(*flow_limit(state.gap, r, s))


def rk4(rhs, y, t_max: float, step, tol: float):
    """Classical RK4, without error control, on a flat state y (..., n).

    Each step takes one size h = step(y), shared across the batch.
    Integration stops with converged True as soon as the largest row
    norm of rhs(y) is below tol; if t_max is reached first, converged
    is that same test at the final state. Returns (y, converged).
    """
    y = np.asarray(y, dtype=np.float64)
    t = 0.0
    while True:
        k1 = rhs(y)
        if (k1 * k1).sum(axis=-1).max() < tol * tol:
            return y, True
        if t >= t_max:
            return y, False
        h = step(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h


def gd_pop_flow(a, w, v, t_max: float, tol: float):
    """Integrate dA/dt = W G^T, dW/dt = A G, G = V - A^T W, by rk4.

    a is (..., d, d), w (..., d, T) and v, the signed targets s_i w_star
    as columns, (..., d, T); T = 1 for one task. Every step takes
    h = min(1e-3, 0.05 / (1 + ||A||_F^2)) for the batch's largest A, a
    function of the state alone, so a flow stopped at t and restarted
    takes the same steps. Returns (a, w, converged), converged as rk4
    decides it for the whole batch.
    """
    v = np.asarray(v, dtype=np.float64)
    *batch, d, k = v.shape
    n = d * d

    def unpack(y):
        return y[..., :n].reshape(*batch, d, d), y[..., n:].reshape(v.shape)

    def rhs(y):
        a, w = unpack(y)
        g = v - a.swapaxes(-1, -2) @ w
        return np.concatenate([(w @ g.swapaxes(-1, -2)).reshape(*batch, n),
                               (a @ g).reshape(*batch, d * k)], axis=-1)

    def step(y):
        return min(1e-3, 0.05 / (1.0 + float(np.square(y[..., :n]).sum(axis=-1).max())))

    y0 = np.concatenate([np.reshape(a, (*batch, n)), np.reshape(w, (*batch, d * k))], axis=-1)
    y, converged = rk4(rhs, y0, t_max, step, tol)
    return (*unpack(y), converged)


def gd_pop_flow_numeric(params: TwoLayerParams, task: Task,
                        t_max: float = 1e4, tol: float = 1e-10):
    """gd_pop_flow on one pair and one task; returns (TwoLayerParams,
    converged)."""
    a, w, converged = gd_pop_flow(params.first_dense(), params.second[:, None],
                                  task.target[:, None], t_max, tol)
    return TwoLayerParams(a, w[:, 0]), converged


def _ridge_eigen(lam: float, a_dense: np.ndarray, cov: np.ndarray):
    """Eigendecomposition (s, v) of the second-layer ridge matrix
    A0 S A0^T + lam I, as sym_eigen returns it, checked positive definite."""
    if lam <= 0.0:
        raise ValueError(f"gd2_reg requires lam > 0, got {lam}")
    with np.errstate(over="ignore", invalid="ignore"):  # sym_eigen rejects inf and NaN
        m = a_dense @ cov @ a_dense.T + lam * np.eye(cov.shape[0])
    s, v = sym_eigen(m)
    if s[-1] <= 0.0:
        raise NotPsdError(f"ridge matrix A0 S A0^T + lam I not positive definite: "
                          f"smallest eigenvalue {s[-1]:.3e}")
    return s, v


def gd2_reg(lam: float, ds: Dataset, a0) -> TwoLayerParams:
    """Ridge regression on the second layer with the first layer frozen.

    Minimizes (1/2n) ||X A0^T w - y||^2 + (lam/2) ||w||^2, the empirical
    loss of x -> w^T A0 x plus the penalty; the optimum is
    w = (A0 S A0^T + lam I)^{-1} A0 X^T y / n with S the empirical
    covariance, and the effective predictor is A0^T w. Requires lam > 0
    so the optimum is unique. Raises NotPsdError if rounding leaves the
    (symmetrized) ridge matrix without a positive smallest eigenvalue.
    """
    a_dense = as_dense(a0)
    s, v = _ridge_eigen(lam, a_dense, emp_covariance(ds))
    b = a_dense @ (ds.x.T @ ds.y / ds.n)
    return TwoLayerParams(a0, v @ ((1.0 / s) * (v.T @ b)))
