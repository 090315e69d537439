"""Excess-risk estimation and sample-complexity search.

The excess risk of a within-task algorithm at sample size n is the
expected population loss of its output on a fresh task, minus the
noise floor sigma^2; for every algorithm here that reduces to
||predictor - s w_star||^2 averaged over the task sign and the
training sample.

Monte-Carlo estimation draws (sign, dataset) pairs from per-trial
seed streams, so estimates are bit-identical for a fixed seed no
matter how trials are scheduled across workers. When several
algorithm configurations are swept, mc_excess_risk_many feeds the
same trial datasets (and a single covariance eigendecomposition) to
every configuration: paired sampling, which removes dataset noise
from comparisons and most of the linear-algebra cost from sweeps.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .convex import _EIG_RTOL, GdRegSpec, GdStepSpec, gd_reg, gd_step
from .linalg import SpikedIdentity, sym_eigen
from .rng import SeedSpec, gaussian_matrix
from .tasks import MetaInstance, emp_covariance, sample_dataset, sample_task
from .twolayer import gd2_reg


@dataclass(frozen=True)
class RiskEstimate:
    """Monte-Carlo mean, standard error, and trial count."""

    mean: float
    stderr: float
    trials: int

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


def _needs_eigen(alg: AlgSpec) -> bool:
    return alg.family != "gd2_reg"


def predict_vector(alg: AlgSpec, ds, eig=None) -> np.ndarray:
    """Run the algorithm on one dataset; return its effective linear
    predictor (for the two-layer family, the product A w)."""
    if alg.family == "gd_step":
        return gd_step(alg.params, ds, alg.init, eig=eig)
    if alg.family == "gd_reg":
        return gd_reg(alg.params, ds, alg.init, eig=eig)
    out = gd2_reg(alg.params.lam, ds, alg.init)
    if isinstance(alg.init, SpikedIdentity):
        return alg.init.matvec(out.second)
    return np.asarray(alg.init) @ out.second


def _trial_block(algs, inst, n, seed, lo, hi):
    """Excess risks for trials [lo, hi) as an (hi-lo, n_algs) array."""
    need_eig = any(_needs_eigen(a) for a in algs)
    out = np.empty((hi - lo, len(algs)))
    for t in range(lo, hi):
        strial = seed.child(t)
        task = sample_task(inst, strial.child(0))
        ds = sample_dataset(task, n, strial.child(1))
        eig = sym_eigen(emp_covariance(ds)) if need_eig else None
        for j, alg in enumerate(algs):
            diff = predict_vector(alg, ds, eig) - task.target
            out[t - lo, j] = diff @ diff
    return out


def _estimate(values: np.ndarray) -> RiskEstimate:
    trials = values.shape[0]
    mean = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / math.sqrt(trials))
    return RiskEstimate(mean, stderr, trials)


def mc_excess_risk_many(algs, inst: MetaInstance, n: int, trials: int,
                        seed: SeedSpec, workers: int = 1) -> list:
    """Paired Monte-Carlo excess risks: one RiskEstimate per algorithm,
    all fed the same per-trial (sign, dataset) stream."""
    if trials < 2:
        raise ValueError(f"need trials >= 2, got {trials}")
    if not algs:
        raise ValueError("need at least one algorithm")
    workers = max(1, int(workers))
    if workers == 1 or trials < 2 * workers:
        values = _trial_block(algs, inst, n, seed, 0, trials)
    else:
        bounds = np.linspace(0, trials, workers + 1).astype(int)
        spans = [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_trial_block, algs, inst, n, seed, lo, hi)
                       for lo, hi in spans]
            blocks = [f.result() for f in futures]
        values = np.concatenate(blocks, axis=0)
    return [_estimate(values[:, j]) for j in range(len(algs))]


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


def decompose_bias_variance(alg: AlgSpec, inst: MetaInstance, n: int,
                            trials: int, seed: SeedSpec):
    """Expected bias and variance components of a convex algorithm's
    excess risk, estimated over input draws.

    Both convex families are affine in (w0, target, noise) given the
    inputs X, so per draw the target-recovery error ||(I - B_X) w*||^2
    and the noise error sigma^2 tr(C_X^T C_X) follow from spectral
    functions of the empirical covariance. Their sum lower-bounds the
    excess risk. Returns (bias, variance) RiskEstimates.
    """
    if alg.family not in ("gd_step", "gd_reg"):
        raise ValueError(f"no affine decomposition for family {alg.family!r}")
    if trials < 2:
        raise ValueError(f"need trials >= 2, got {trials}")
    d = inst.d
    sigma2 = inst.sigma ** 2
    bias_vals = np.empty(trials)
    var_vals = np.empty(trials)
    for t in range(trials):
        x = gaussian_matrix(seed.child(t), n, d)
        eig = sym_eigen(x.T @ x / n)
        s = eig.eigenvalues
        cutoff = _EIG_RTOL * max(float(s[0]), 0.0)
        pos = s > cutoff
        if alg.family == "gd_reg":
            lam = alg.params.lam
            shifted = s + lam
            bias_coeff = np.where(shifted > cutoff, lam / np.where(shifted > cutoff, shifted, 1.0), 1.0)
            var_sum = float(np.sum(s[pos] / (s[pos] + lam) ** 2))
        else:
            with np.errstate(over="ignore"):
                decay = (1.0 - alg.params.eta * s[pos]) ** alg.params.t0
            bias_coeff = np.ones_like(s)
            bias_coeff[pos] = decay
            var_sum = float(np.sum((1.0 - decay) ** 2 / s[pos]))
        proj = eig.eigenvectors.T @ inst.w_star
        bias_vals[t] = float(np.sum((bias_coeff * proj) ** 2))
        var_vals[t] = sigma2 * var_sum / n
    return _estimate(bias_vals), _estimate(var_vals)


def sample_complexity_search(alg_builder, inst: MetaInstance, epsilon: float,
                             n_grid, trials: int, seed: SeedSpec,
                             workers: int = 1, collect=None):
    """Smallest grid n whose estimated excess risk is confidently at
    most epsilon (mean + 2 stderr <= epsilon); None if no grid point
    qualifies. collect, if given, receives (n, RiskEstimate) pairs."""
    grid = [int(n) for n in n_grid]
    if not grid:
        raise ValueError("n_grid must be non-empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"n_grid must be strictly ascending, got {grid}")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    for idx, n in enumerate(grid):
        est = mc_excess_risk(alg_builder(n), inst, n, trials, seed.child(idx), workers)
        if collect is not None:
            collect.append((n, est))
        if est.mean + 2.0 * est.stderr <= epsilon:
            return n
    return None


def risk_record(alg: AlgSpec, inst: MetaInstance, n: int,
                est: RiskEstimate, seed: SeedSpec) -> dict:
    """JSON-ready record of one risk query."""
    return {
        "alg": alg.label(),
        "d": inst.d,
        "n": n,
        "r": inst.r,
        "sigma": inst.sigma,
        "mean": est.mean,
        "stderr": est.stderr,
        "trials": est.trials,
        "seed": seed.master_seed,
    }
