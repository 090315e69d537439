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
  sqrt(4 r^2 + c^2)) / 2). A fixed-step RK4 integrator of the full
  matrix flow serves as the numeric cross-check.
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


def _flow_rhs(a: np.ndarray, w: np.ndarray, v: np.ndarray):
    """RHS of dA/dt = w v^T - w w^T A, dw/dt = A v - A A^T w.

    v = s * w_star is the signed target. Supports a leading batch axis:
    a is (..., d, d), w and v are (..., d).
    """
    wta = np.einsum("...i,...ij->...j", w, a)
    da = w[..., :, None] * (v - wta)[..., None, :]
    dw = np.einsum("...ij,...j->...i", a, v) - np.einsum("...ij,...j->...i", a, wta)
    return da, dw


def _flow_step_size(a: np.ndarray) -> float:
    """Fixed-step heuristic: shrink with the first-layer scale."""
    sq = float(np.max(np.sum(a * a, axis=(-2, -1))))
    return min(1e-3, 0.05 / (1.0 + sq))


def gd_pop_flow_numeric(params: TwoLayerParams, task: Task,
                        t_max: float = 1e4, tol: float = 1e-10,
                        callback=None):
    """Integrate the population flow by RK4 until the RHS is small.

    Returns (TwoLayerParams, converged). The step size is recomputed
    every step as min(1e-3, 0.05 / (1 + ||A||_F^2)). callback, if
    given, is called as callback(t, a_matrix, w) after every step.
    """
    a = params.first_dense().copy()
    w = np.array(params.second, dtype=np.float64)
    v = task.target
    t = 0.0
    converged = False
    while t < t_max:
        k1a, k1w = _flow_rhs(a, w, v)
        if math.hypot(np.linalg.norm(k1a), np.linalg.norm(k1w)) < tol:
            converged = True
            break
        h = _flow_step_size(a)
        k2a, k2w = _flow_rhs(a + 0.5 * h * k1a, w + 0.5 * h * k1w, v)
        k3a, k3w = _flow_rhs(a + 0.5 * h * k2a, w + 0.5 * h * k2w, v)
        k4a, k4w = _flow_rhs(a + h * k3a, w + h * k3w, v)
        a = a + (h / 6.0) * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
        w = w + (h / 6.0) * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
        t += h
        if callback is not None:
            callback(t, a, w)
    else:
        k1a, k1w = _flow_rhs(a, w, v)
        converged = math.hypot(np.linalg.norm(k1a), np.linalg.norm(k1w)) < tol
    return TwoLayerParams(a, w), converged


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
