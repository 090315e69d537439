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
import os
import sys
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
# past_step_limit's warning names the first frame outside these files, the
# line that asked for the divergent learner, at any depth of calls in them
_INNER_FILES = frozenset({__file__, os.path.join(os.path.dirname(__file__), "risk.py")})


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


def past_step_limit(eta: float, top: float) -> bool:
    """Whether eta >= 2 / top, the stability limit of gradient steps on a
    spectrum whose largest eigenvalue is top; warns once if so. Past it
    the iteration diverges, and learner_factors' decay overflows to inf
    rather than raise, so callers sweeping unstable (eta, t0) grids get
    inf risk. The warning names the first caller outside this module and
    risk.py."""
    if top > 0 and eta >= 2.0 / top:
        level, frame = 2, sys._getframe(1)
        while frame is not None and frame.f_code.co_filename in _INNER_FILES:
            level, frame = level + 1, frame.f_back
        warnings.warn(
            f"step size eta = {eta} is at or beyond the stability limit "
            f"2 / lambda_max = {2.0 / top:.3e}; the iteration diverges",
            RuntimeWarning, stacklevel=level)
        return True
    return False


def learner_factors(spec, s: np.ndarray, t: float = math.inf):
    """Per-eigenvalue (decay, gain, null) of a convex learner for the
    eigenvalues s (..., d) of empirical covariances S, rows descending:
    it maps (w0, b = X^T y / n) to V (decay V^T w0 + gain V^T b), V the
    eigenvectors of S. gd_step is t0 steps w <- w - eta (S w - b), whose
    stability the caller checks (past_step_limit); gd_reg is the flow
    w' = -((S + lam I) w - b) at time t, inf for the learner and finite
    (lam = 0) for linear_flow_solve. An eigenvalue is null when it is at
    most _EIG_RTOL times its row's largest, for gd_reg on S + lam I. Null
    directions keep w0 (decay 1, gain 0); range ones get (1 - decay) / s.
    """
    if isinstance(spec, GdRegSpec):
        s = s + spec.lam
    null = s <= _EIG_RTOL * np.maximum(s[..., :1], 0.0)
    s_range = np.where(null, 0.0, s)
    if isinstance(spec, GdStepSpec):
        with np.errstate(over="ignore"):
            decay = (1.0 - spec.eta * s_range) ** spec.t0
    elif math.isinf(t):
        decay = np.where(null, 1.0, 0.0)
    else:
        decay = np.exp(-t * s_range)
    gain = np.where(null, 0.0, (1.0 - decay) / np.where(null, 1.0, s))
    return decay, gain, null


def _spectral_solve(spec, m, b: np.ndarray, w0: np.ndarray, t: float = math.inf) -> np.ndarray:
    """v (decay v^T w0 + gain v^T b) for M's eigenvectors v and spec's
    learner_factors on M's spectrum, after checking b in range(M)."""
    s, v = sym_eigen(m)
    if isinstance(spec, GdStepSpec):
        past_step_limit(spec.eta, float(s[0]))
    decay, gain, null = learner_factors(spec, s, t)
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
    if t < 0:
        raise ValueError(f"need t >= 0, got {t}")
    return _spectral_solve(GdRegSpec(0.0), m, b, w0, t)


def gd_step(spec: GdStepSpec, ds: Dataset, w0: np.ndarray) -> np.ndarray:
    """Closed form for t0 gradient steps on the empirical loss from w0;
    past_step_limit warns when eta >= 2 / lambda_max of S."""
    return _spectral_solve(spec, emp_covariance(ds), ds.x.T @ ds.y / ds.n, w0)


def gd_reg(spec: GdRegSpec, ds: Dataset, w0: np.ndarray) -> np.ndarray:
    """Closed form for the ridge gradient-flow limit started at w0.

    w = (I - (S+lam I)^+ (S+lam I)) w0 + (S+lam I)^+ (X^T y / n) with
    S the empirical covariance: the t = inf flow on M = S + lam I, one
    spectral function of S for every lam. Range directions get
    1 / (s + lam) applied to X^T y / n; null directions (none for
    lam > 0) keep w0.
    """
    return _spectral_solve(spec, emp_covariance(ds), ds.x.T @ ds.y / ds.n, w0)
