"""Closed forms for within-task convex training on squared loss.

Two training rules, both started at a meta-learned point w0:

* gd_step: t0 steps of gradient descent with step size eta on the
  empirical squared loss (gradient convention without the factor 2).
* gd_reg: the limit of gradient flow on the ridge-regularized empirical
  loss with penalty (lam / 2) ||w||^2.

Both are affine in the data, so they reduce to the linear dynamics
w' = -(M w - b) (flow) or w_{k+1} = w_k - eta (M w_k - b) (iteration),
with M = X^T X / n and b = X^T y / n. Each is one spectral function of
M: learner_factors gives its per-eigenvalue factors and _spectral_solve
applies them in M's eigenbasis, after checking that b lies in the range
of M; the data case satisfies this automatically because X^T y is in
the row space of X. linear_flow_solve is the flow on a generic (M, b).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import NumericalError, sym_eigen
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
        if not 0.0 < self.eta < math.inf:
            raise ValueError(f"eta must be finite and positive, got {self.eta}")
        if self.t0 < 0:
            raise ValueError(f"t0 must be nonnegative, got {self.t0}")


@dataclass(frozen=True)
class GdRegSpec:
    """Gradient flow to convergence on the lam-ridge-regularized loss."""

    lam: float

    def __post_init__(self):
        if not 0.0 <= self.lam < math.inf:
            raise ValueError(f"lam must be finite and nonnegative, got {self.lam}")


def _spectral_factors(s: np.ndarray, decay_of):
    """Per-eigenvalue (decay, gain, null) for the eigenvalues s (..., d),
    each row in descending order. An eigenvalue is null when it is at
    most _EIG_RTOL times the largest of its row. decay_of(null, s_range)
    gives the decay from the null mask and s with its null entries
    zeroed; the gain is (1 - decay) / s on range directions and 0 on
    null ones."""
    null = s <= _EIG_RTOL * np.maximum(s[..., :1], 0.0)
    decay = decay_of(null, np.where(null, 0.0, s))
    gain = np.where(null, 0.0, (1.0 - decay) / np.where(null, 1.0, s))
    return decay, gain, null


def _flow_factors(s: np.ndarray, t: float):
    """Per-eigenvalue (decay, gain, null) of the flow w' = -(M w - b) at
    time t (t = inf allowed), for the eigenvalues s (..., d) of M, each
    row in descending order: w(t) = V (decay V^T w0 + gain V^T b). Null
    directions keep w0."""
    if t < 0:
        raise ValueError(f"need t >= 0, got {t}")
    if math.isinf(t):
        return _spectral_factors(s, lambda null, s_range: np.where(null, 1.0, 0.0))
    return _spectral_factors(s, lambda null, s_range: np.exp(-t * s_range))


def _step_factors(s: np.ndarray, eta: float, t: int):
    """Per-eigenvalue (decay, gain, null) of t steps w <- w - eta (M w - b),
    as _flow_factors. Warns if eta >= 2 / lambda_max, where the iteration
    diverges; divergent steps overflow to inf rather than raise, so
    callers sweeping unstable (eta, t) grids get inf risk. GdStepSpec
    has checked 0 < eta < inf and t >= 0."""
    top = float(np.max(s[..., 0]))
    if top > 0 and eta >= 2.0 / top:
        warnings.warn(
            f"step size eta = {eta} is at or beyond the stability limit "
            f"2 / lambda_max = {2.0 / top:.3e}; the iteration diverges",
            RuntimeWarning, stacklevel=3)

    def decay_of(null, s_range):
        with np.errstate(over="ignore"):
            return (1.0 - eta * s_range) ** t

    return _spectral_factors(s, decay_of)


def learner_factors(spec, s: np.ndarray):
    """Per-eigenvalue (decay, gain, null) of a convex learner, for the
    eigenvalues s (..., d) of empirical covariances S, rows descending.

    The learner maps (w0, X^T y / n) to V (decay V^T w0 + gain V^T X^T y / n),
    V the eigenvectors of S. gd_reg is the t = inf flow on S + lam I, so
    its null cutoff applies to the shifted spectrum; gd_step is t0 steps
    on S. This is the one home of both families' spectral factors.
    """
    if isinstance(spec, GdRegSpec):
        return _flow_factors(s + spec.lam, math.inf)
    return _step_factors(s, spec.eta, spec.t0)


def _spectral_solve(v: np.ndarray, b: np.ndarray, w0: np.ndarray,
                    decay: np.ndarray, gain: np.ndarray, null: np.ndarray) -> np.ndarray:
    """v (decay v^T w0 + gain v^T b) for M's eigenvectors v, after checking b in range(M)."""
    beta = v.T @ b
    resid = float(np.linalg.norm(beta[null]))
    scale = float(np.linalg.norm(b))
    if resid > _RANGE_RTOL * max(scale, 1e-300):
        raise NumericalError(
            f"b is not in range(M): null-space component {resid:.3e} "
            f"relative to ||b|| = {scale:.3e}")
    return v @ (decay * (v.T @ w0) + gain * beta)


def linear_flow_solve(m, b: np.ndarray, w0: np.ndarray, t: float) -> np.ndarray:
    """Solve w' = -(M w - b), w(0) = w0, at time t (t = inf allowed).

    M must be symmetric PSD and b must lie in range(M) to within
    relative tolerance 1e-8.
    """
    s, v = sym_eigen(m)
    return _spectral_solve(v, b, w0, *_flow_factors(s, t))


def _learner_solve(spec, ds: Dataset, w0: np.ndarray) -> np.ndarray:
    s, v = sym_eigen(emp_covariance(ds))
    return _spectral_solve(v, ds.x.T @ ds.y / ds.n, w0, *learner_factors(spec, s))


def gd_step(spec: GdStepSpec, ds: Dataset, w0: np.ndarray) -> np.ndarray:
    """Closed form for t0 gradient steps on the empirical loss from w0."""
    return _learner_solve(spec, ds, w0)


def gd_reg(spec: GdRegSpec, ds: Dataset, w0: np.ndarray) -> np.ndarray:
    """Closed form for the ridge gradient-flow limit started at w0.

    w = (I - (S+lam I)^+ (S+lam I)) w0 + (S+lam I)^+ (X^T y / n) with
    S the empirical covariance: the t = inf flow on M = S + lam I, one
    spectral function of S for every lam. Range directions get
    1 / (s + lam) applied to X^T y / n; null directions (none for
    lam > 0) keep w0.
    """
    return _learner_solve(spec, ds, w0)
