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
  sqrt(4 r^2 + c^2)) / 2). gd_pop_flow_numeric integrates the full
  matrix flow with rk4, the package's one fixed-step RK4 integrator,
  as the numeric cross-check.
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

from .linalg import NotPsdError, SpikedIdentity, sym_eigen
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

    @property
    def d(self) -> int:
        return self.second.shape[0]

    def first_dense(self) -> np.ndarray:
        if isinstance(self.first, SpikedIdentity):
            return self.first.to_dense()
        return np.asarray(self.first, dtype=np.float64)


def flow_limit(c: float, r: float, s: int) -> tuple[float, float]:
    """Closed-form flow limit (a_bar, b_bar) on plain floats for gap c.

    The pair satisfies a_bar * b_bar = s * r and a_bar^2 - b_bar^2 = c.
    s is not checked here; gd_pop_fixed_point is the checked entry.
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


def rk4(rhs, y, t_max: float, step, tol: float, callback=None):
    """Classical RK4, without error control, on a flat state y (..., n).

    Each step takes one size h = step(y), shared across the batch.
    Integration stops with converged True as soon as the largest row
    norm of rhs(y) is below tol; if t_max is reached first, converged
    is that same test at the final state. callback, if given, is
    called as callback(t, y) after every step. Returns (y, converged).
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
        if callback is not None:
            callback(t, y)


def _flow_rhs(y: np.ndarray, v: np.ndarray) -> np.ndarray:
    """RHS of dA/dt = W G^T, dW/dt = A G with G = V - A^T W.

    y is the flat state (A, W), A (d, d) and W (d, T) raveled; V
    (..., d, T) holds the signed targets s_i w_star as columns, T = 1
    for the single-task flow. y and V share any leading batch axes.
    """
    *batch, d, t = v.shape
    a = y[..., :d * d].reshape(*batch, d, d)
    w = y[..., d * d:].reshape(v.shape)
    g = v - a.swapaxes(-1, -2) @ w
    da = w @ g.swapaxes(-1, -2)
    return np.concatenate([da.reshape(*batch, d * d), (a @ g).reshape(*batch, d * t)], axis=-1)


def _flow_step_size(y: np.ndarray, d: int) -> float:
    """Fixed-step heuristic min(1e-3, 0.05 / (1 + ||A||_F^2)) on the flat
    flow state, with the largest first layer of the batch."""
    a = y[..., :d * d]
    return min(1e-3, 0.05 / (1.0 + float((a * a).sum(axis=-1).max())))


def gd_pop_flow_numeric(params: TwoLayerParams, task: Task,
                        t_max: float = 1e4, tol: float = 1e-10,
                        callback=None):
    """Integrate the population flow by rk4 until the RHS is small.

    Returns (TwoLayerParams, converged). The step size is recomputed
    every step by _flow_step_size. callback, if given, is called as
    callback(t, a_matrix, w) after every step.
    """
    d = params.d
    v = task.target[:, None]
    y0 = np.concatenate([params.first_dense().ravel(), params.second])

    def unpack(y):
        return y[:d * d].reshape(d, d), y[d * d:]

    report = None if callback is None else lambda t, y: callback(t, *unpack(y))
    y, converged = rk4(lambda y: _flow_rhs(y, v), y0, t_max,
                       lambda y: _flow_step_size(y, d), tol, report)
    return TwoLayerParams(*unpack(y)), converged


def gd2_reg(lam: float, ds: Dataset, a0) -> TwoLayerParams:
    """Ridge regression on the second layer with the first layer frozen.

    Minimizes the empirical loss of x -> w^T A0 x plus (lam/2)||w||^2;
    the optimum is w = (A0 S A0 + lam I)^{-1} A0 X^T y / n with S the
    empirical covariance. Requires lam > 0 so the optimum is unique.
    Raises NotPsdError if the (symmetrized) ridge matrix is not positive
    definite, which a non-symmetric dense A0 can cause.
    """
    if lam <= 0.0:
        raise ValueError(f"gd2_reg requires lam > 0, got {lam}")
    a_dense = a0.to_dense() if isinstance(a0, SpikedIdentity) else np.asarray(a0, dtype=np.float64)
    cov = emp_covariance(ds)
    eig = sym_eigen(a_dense @ cov @ a_dense + lam * np.eye(ds.d))
    low = float(eig.eigenvalues[-1])
    if low <= 0.0:
        raise NotPsdError(f"ridge matrix A0 S A0 + lam I not positive definite: "
                          f"smallest eigenvalue {low:.3e}")
    b = a_dense @ (ds.x.T @ ds.y / ds.n)
    return TwoLayerParams(a0, eig.apply(lambda s: 1.0 / s, b))
