"""Closed forms for within-task convex training on squared loss.

Two training rules, both started at a meta-learned point w0:

* gd_step: t0 steps of gradient descent with step size eta on the
  empirical squared loss (gradient convention without the factor 2).
* gd_reg: the limit of gradient flow on the ridge-regularized empirical
  loss with penalty (lam / 2) ||w||^2.

Both are affine in the data, so they reduce to the generic linear
dynamics w' = -(M w - b) (flow) or w_{k+1} = w_k - eta (M w_k - b)
(iteration), with M = X^T X / n and b = X^T y / n. The generic solvers
below diagonalize M and require b to lie in the range of M; the data
case satisfies this automatically because X^T y is in the row space
of X.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import EigenDecomposition, sym_eigen
from .tasks import Dataset, emp_covariance

_RANGE_RTOL = 1e-8
# Null cutoff for computed eigenvalues, relative to lambda_max. Over 300
# Gaussian designs each at d = 50 and n in {45, 49, 50, 51}, LAPACK's eigh
# returned the true zero eigenvalues of X^T X / n at most 4.7e-16 relative
# and the positive ones at least 3.8e-10 relative (the smallest at n = d),
# so 1e-13 separates the two with a margin of over 200x on each side. A
# much larger cutoff misclassifies ill-conditioned square designs as
# rank-deficient and falsely fails the range check on b.
_EIG_RTOL = 1e-13


@dataclass(frozen=True)
class GdStepSpec:
    """t0 plain gradient steps with step size eta."""

    eta: float
    t0: int

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        if self.t0 < 0:
            raise ValueError(f"t0 must be nonnegative, got {self.t0}")


@dataclass(frozen=True)
class GdRegSpec:
    """Gradient flow to convergence on the lam-ridge-regularized loss."""

    lam: float

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError(f"lam must be nonnegative, got {self.lam}")


def _prepare(m, b: np.ndarray, eig: EigenDecomposition | None):
    """Diagonalize M, check b is in its range, return (eig, coords of b)."""
    if eig is None:
        eig = sym_eigen(np.asarray(m, dtype=np.float64))
    s = eig.eigenvalues
    cutoff = _EIG_RTOL * max(float(s[0]), 0.0)
    beta = eig.eigenvectors.T @ b
    null = s <= cutoff
    resid = float(np.linalg.norm(beta[null]))
    scale = float(np.linalg.norm(b))
    if resid > _RANGE_RTOL * max(scale, 1e-300):
        raise ValueError(
            f"b is not in range(M): null-space component {resid:.3e} "
            f"relative to ||b|| = {scale:.3e}")
    beta = np.where(null, 0.0, beta)
    return eig, s, cutoff, beta


def linear_flow_solve(m, b: np.ndarray, w0: np.ndarray, t: float,
                      eig: EigenDecomposition | None = None) -> np.ndarray:
    """Solve w' = -(M w - b), w(0) = w0, at time t (t = inf allowed).

    M must be symmetric PSD (or a precomputed EigenDecomposition of it)
    and b must lie in range(M) to within relative tolerance 1e-8.
    """
    if t < 0:
        raise ValueError(f"need t >= 0, got {t}")
    eig, s, cutoff, beta = _prepare(m, b, eig)
    pos = s > cutoff
    if math.isinf(t):
        decay = np.where(pos, 0.0, 1.0)
    else:
        decay = np.exp(-t * np.where(pos, s, 0.0))
    gain = np.zeros_like(s)
    gain[pos] = (1.0 - decay[pos]) / s[pos]
    alpha = eig.eigenvectors.T @ w0
    return eig.eigenvectors @ (decay * alpha + gain * beta)


def linear_step_solve(m, b: np.ndarray, w0: np.ndarray, eta: float, t: int,
                      eig: EigenDecomposition | None = None) -> np.ndarray:
    """Iterate w <- w - eta (M w - b) for t steps from w0, in closed form.

    Warns if eta >= 2 / lambda_max, where the iteration diverges.
    eta = 0 is allowed and returns w0 for every t.
    """
    if eta < 0:
        raise ValueError(f"eta must be nonnegative, got {eta}")
    if t < 0:
        raise ValueError(f"need t >= 0, got {t}")
    eig, s, cutoff, beta = _prepare(m, b, eig)
    if eta > 0 and s[0] > 0 and eta >= 2.0 / s[0]:
        warnings.warn(
            f"step size eta = {eta} is at or beyond the stability limit "
            f"2 / lambda_max = {2.0 / s[0]:.3e}; the iteration diverges",
            RuntimeWarning, stacklevel=2)
    pos = s > cutoff
    base = 1.0 - eta * np.where(pos, s, 0.0)
    if isinstance(t, float) and math.isinf(t):
        if np.any(pos & (np.abs(base) >= 1.0)):
            raise ValueError("t = inf requires |1 - eta s| < 1 on range(M)")
        decay = np.where(pos, 0.0, 1.0)
    else:
        # divergent configurations overflow to inf; callers sweeping
        # unstable (eta, t) grids get inf risk rather than an exception
        with np.errstate(over="ignore"):
            decay = base ** t
    gain = np.zeros_like(s)
    gain[pos] = (1.0 - decay[pos]) / s[pos]
    alpha = eig.eigenvectors.T @ w0
    return eig.eigenvectors @ (decay * alpha + gain * beta)


def gd_step(spec: GdStepSpec, ds: Dataset, w0: np.ndarray,
            eig: EigenDecomposition | None = None) -> np.ndarray:
    """Closed form for t0 gradient steps on the empirical loss from w0."""
    b = ds.x.T @ ds.y / ds.n
    if eig is None:
        eig = sym_eigen(emp_covariance(ds))
    return linear_step_solve(eig, b, w0, spec.eta, spec.t0, eig=eig)


def gd_reg(spec: GdRegSpec, ds: Dataset, w0: np.ndarray,
           eig: EigenDecomposition | None = None) -> np.ndarray:
    """Closed form for the ridge gradient-flow limit started at w0.

    w = (I - (S+lam I)^+ (S+lam I)) w0 + (S+lam I)^+ (X^T y / n) with
    S the empirical covariance: the t = inf flow on M = S + lam I, one
    spectral function of S for every lam. Range directions get
    1 / (s + lam) applied to X^T y / n; null directions (none for
    lam > 0) keep w0.
    """
    b = ds.x.T @ ds.y / ds.n
    if eig is None:
        eig = sym_eigen(emp_covariance(ds))
    shifted = EigenDecomposition(eig.eigenvalues + spec.lam, eig.eigenvectors)
    return linear_flow_solve(shifted, b, w0, math.inf, eig=shifted)
