"""Excess-risk estimation and sample-complexity search.

The excess risk of a within-task algorithm at sample size n is
||predictor - s w_star||^2 averaged over the task sign s, the design X
and the label noise. Each Monte-Carlo trial t is scored by the exact
expectation over the sign (whose cross term vanishes) and the noise, on
draws from its own seed streams, so estimates are bit-identical for any
worker count. A convex learner applies a decay delta_i to w0 and a gain
g_i to X^T y / n along eigenvector i of S = X^T X / n
(convex.learner_factors). Such a learner is rotation invariant and X is
isotropic Gaussian, so the eigenvectors are Haar given the eigenvalues
s_i and average out too:

    E[excess | spec S] = (||w0||^2 / d) sum delta_i^2
                         + (r^2 / d) sum (1 - g_i s_i)^2 + (sigma^2 / n) sum g_i^2 s_i

So a convex trial needs only the spectrum, which rng.wishart_spectra
samples from the Dumitriu-Edelman bidiagonal model (Dumitriu & Edelman
2002) with Marsaglia-Tsang chi variates (ACM TOMS 26:363, 2000),
reading seed.child(t, 2, j) on attempt j; no convex trial draws a
design. At d = 50 that costs about 0.15 ms a trial, against 0.4 ms
(n = 100) to 2.3 ms (n = 900) to draw X and eigensolve it.

The spiked two-layer family (gd2_reg) is not rotation invariant and is
scored given X, drawn from seed.child(t, 1, 0), with Q = A^T M^{-1} A
and M = A S A^T + lam I (the effective predictor is A^T w = Q X^T y / n):

    E[excess | X] = ||(Q S - I) w_star||^2 + (sigma^2 / n) tr(Q S Q^T)

Trial t's other streams keep their meaning for the raw sampler
oracles.mc_excess_risk_raw: the sign reads seed.child(t, 0), the design
seed.child(t, 1, 0) and the label noise seed.child(t, 1, 1).
mc_excess_risk_many scores every algorithm of a sweep on the same
spectra and designs (paired sampling), and sample_complexity_search
runs it once per grid point for every algorithm still searching.
Non-finite trial risks are counted only for a gd_step past its
stability limit; any other overflow raises NumericalError. This module
only computes; cli writes the estimates to file records.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .convex import GdRegSpec, GdStepSpec, learner_factors, past_step_limit
from .linalg import NumericalError, as_dense, symmetrize
from .rng import SeedSpec, gaussian_matrix, wishart_spectra
from .tasks import MetaInstance
from .twolayer import _ridge_eigen

# Trials per wishart_spectra call: bounds the stacked (trials, k, k)
# bidiagonals and their SVD workspace (an unchunked 200-trial block at
# d = 50 added about 10 MB of RSS per thread).
_CHUNK = 32


@dataclass(frozen=True)
class RiskEstimate:
    """Monte-Carlo mean, standard error, trial count, and the number of
    trials whose excess risk is not finite (a divergent gd_step)."""

    mean: float
    stderr: float
    trials: int
    nonfinite: int = 0

    def __post_init__(self):
        if self.trials < 2:
            raise ValueError(f"need trials >= 2, got {self.trials}")


@dataclass(frozen=True)
class AlgSpec:
    """A within-task algorithm: family, its parameters, and its
    meta-learned initialization.

    family "gd_step" or "gd_reg": init is the start vector w0.
    family "gd2_reg": init is the frozen first layer (dense or spiked);
    the second layer starts from the ridge optimum directly.
    """

    family: str
    params: object
    init: object

    def __post_init__(self):
        if self.family not in ("gd_step", "gd_reg", "gd2_reg"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == "gd_step" and not isinstance(self.params, GdStepSpec):
            raise ValueError("gd_step requires GdStepSpec params")
        if self.family in ("gd_reg", "gd2_reg") and not isinstance(self.params, GdRegSpec):
            raise ValueError(f"{self.family} requires GdRegSpec params")

    def label(self) -> str:
        if self.family == "gd_step":
            return f"gd_step(eta={self.params.eta:g},t0={self.params.t0})"
        return f"{self.family}(lam={self.params.lam:g})"


def _weighted(c: float, v: np.ndarray) -> np.ndarray:
    """c times the row sums of v, exactly 0 when c is: the inf factors of
    a divergent learner must not turn a zero weight into NaN."""
    return c * np.sum(v, axis=-1) if c else np.zeros(v.shape[:-1])


def _convex_risk(alg: AlgSpec, s: np.ndarray, d: int, n: int,
                 r2: float, sigma2: float) -> np.ndarray:
    """E[excess | spectrum] of a gd_step or gd_reg learner for each row
    of the spectra s (trials, d)."""
    decay, gain, _ = learner_factors(alg.params, s)
    with np.errstate(over="ignore"):  # a divergent gd_step squares to inf, counted as nonfinite
        return (_weighted(float(alg.init @ alg.init) / d, decay * decay)
                + _weighted(r2 / d, (1.0 - gain * s) ** 2)
                + _weighted(sigma2 / n, gain * gain * s))


def _twolayer_risk(lam: float, a: np.ndarray, cov: np.ndarray, w_star: np.ndarray,
                   n: int, sigma2: float) -> float:
    """E[excess | X] of second-layer ridge on the frozen first layer a."""
    s, v = _ridge_eigen(lam, a, cov)
    q = (a.T @ v / s) @ (v.T @ a)
    qs = q @ cov
    err = qs @ w_star - w_star
    return float(err @ err) + sigma2 / n * float(np.sum(qs * q))


def _trial_block(algs, inst, n, seed, lo, hi):
    """Conditional excess risks for trials [lo, hi) as an (hi-lo, n_algs)
    array, and the largest eigenvalue of the block's spectra (0.0 with no
    convex algorithm). The convex learners are scored on the spectra of
    rng.wishart_spectra, drawn _CHUNK trials at a time; gd2_reg reads
    trial t's design from seed.child(t, 1, 0), drawn only when a gd2_reg
    algorithm is present."""
    d, w_star = inst.d, inst.w_star
    r2, sigma2 = float(w_star @ w_star), inst.sigma ** 2
    firsts = {j: as_dense(a.init) for j, a in enumerate(algs) if a.family == "gd2_reg"}
    convex = [j for j in range(len(algs)) if j not in firsts]
    out = np.empty((hi - lo, len(algs)))
    top = 0.0
    if convex:
        spectra = np.concatenate([wishart_spectra(seed, n, d, a, min(a + _CHUNK, hi))
                                  for a in range(lo, hi, _CHUNK)])
        top = float(spectra[:, 0].max())
        for j in convex:
            out[:, j] = _convex_risk(algs[j], spectra, d, n, r2, sigma2)
    if firsts:
        for t in range(lo, hi):
            x = gaussian_matrix(seed.child(t, 1, 0), n, d)
            cov = symmetrize(x.T @ x / n)
            for j, a in firsts.items():
                out[t - lo, j] = _twolayer_risk(algs[j].params.lam, a, cov, w_star, n, sigma2)
    return out, top


def _estimate(values: np.ndarray) -> RiskEstimate:
    trials = values.shape[0]
    mean = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / math.sqrt(trials))
    return RiskEstimate(mean, stderr, trials, int(np.count_nonzero(~np.isfinite(values))))


def mc_excess_risk_many(algs, inst: MetaInstance, n: int, trials: int,
                        seed: SeedSpec, workers: int = 1) -> list:
    """Paired Monte-Carlo excess risks: one RiskEstimate per algorithm,
    the convex ones all scored on the same per-trial spectra and the
    gd2_reg ones on the same per-trial designs.

    Each gd_step algorithm is checked once against the largest eigenvalue
    of all trials' spectra (convex.past_step_limit warns once), so what
    the call warns of does not depend on workers. Only a gd_step past
    that limit may count non-finite trials in its estimate; any other
    non-finite trial risk, or a mean or stderr that overflows from finite
    trial risks, raises NumericalError."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if trials < 2:
        raise ValueError(f"need trials >= 2, got {trials}")
    if not algs:
        raise ValueError("need at least one algorithm")
    workers = max(1, int(workers))
    if workers == 1 or trials < 2 * workers:
        values, top = _trial_block(algs, inst, n, seed, 0, trials)
    else:
        bounds = np.linspace(0, trials, workers + 1).astype(int)
        spans = [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_trial_block, algs, inst, n, seed, lo, hi)
                       for lo, hi in spans]
            blocks = [f.result() for f in futures]
        values = np.concatenate([b for b, _ in blocks], axis=0)
        top = max(t for _, t in blocks)
    divergent = [a.family == "gd_step" and past_step_limit(a.params.eta, top) for a in algs]
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf or overflow, checked below
        estimates = [_estimate(values[:, j]) for j in range(len(algs))]
    for alg, est, counted in zip(algs, estimates, divergent):
        if math.isfinite(est.mean) and math.isfinite(est.stderr):
            continue
        if not est.nonfinite:
            raise NumericalError(f"{alg.label()} at n={n}: the mean or stderr of "
                                 f"{trials} finite trial excess risks overflows")
        if not counted:
            raise NumericalError(f"{alg.label()} at n={n}: {est.nonfinite} of {trials} "
                                 f"trial excess risks are not finite, which only a gd_step "
                                 f"past its stability limit may give")
    return estimates


def mc_excess_risk(alg: AlgSpec, inst: MetaInstance, n: int, trials: int,
                   seed: SeedSpec, workers: int = 1) -> RiskEstimate:
    """Monte-Carlo estimate of the excess risk at sample size n."""
    return mc_excess_risk_many([alg], inst, n, trials, seed, workers)[0]


def convex_lower_bound_exact(d: int, n: int, r_w: float, sigma: float) -> float:
    """Exact lower bound on the convex families' excess risk at sample
    size n, for every initialization:

        n >= d:  d r^2 sigma^2 / (r^2 n + sigma^2 d)
        n <  d:  (n/d) r^2 sigma^2 / (r^2 + sigma^2) + ((d-n)/d) r^2
    """
    if d < 1 or n < 0:
        raise ValueError(f"need d >= 1 and n >= 0, got d={d}, n={n}")
    r2, s2 = r_w * r_w, sigma * sigma
    if n >= d:
        denom = r2 * n + s2 * d
        return d * r2 * s2 / denom if denom > 0 else 0.0
    head = (n / d) * (r2 * s2 / (r2 + s2)) if r2 + s2 > 0 else 0.0
    return head + ((d - n) / d) * r2


def sample_complexity_search(algs, inst: MetaInstance, epsilon: float,
                             n_grid, trials: int, seed: SeedSpec,
                             workers: int = 1, collect=None) -> list:
    """Paired sample-complexity search over algs, a non-empty list of
    AlgSpecs.

    Returns one entry per algorithm: the smallest grid n whose estimated
    excess risk is confidently at most epsilon (mean + 2 stderr <=
    epsilon), or None if no grid point qualifies. At grid index idx,
    every algorithm still searching is scored by one
    mc_excess_risk_many call on seed.child(idx), so they share the
    spectra and designs of that point, and each one's estimate equals its own
    mc_excess_risk on seed.child(idx). An algorithm stops at its first
    qualifying n; the search stops once none is left. collect, if given,
    is called as collect(n, scored) after each grid point, with scored
    mapping the index of every algorithm scored there to its
    RiskEstimate.
    """
    grid = [int(n) for n in n_grid]
    if not grid:
        raise ValueError("n_grid must be non-empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"n_grid must be strictly ascending, got {grid}")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    found = [None] * len(algs)
    for idx, n in enumerate(grid):
        active = [j for j, hit in enumerate(found) if hit is None]
        estimates = mc_excess_risk_many([algs[j] for j in active], inst, n, trials,
                                        seed.child(idx), workers)
        scored = dict(zip(active, estimates))
        if collect is not None:
            collect(n, scored)
        for j, est in scored.items():
            if est.mean + 2.0 * est.stderr <= epsilon:
                found[j] = n
        if None not in found:
            break
    return found

