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

So a convex trial needs only S's law, which rng.wishart_chi samples as
the chi variates of a k x k bidiagonal B, k = min(n, d), with S's
nonzero eigenvalues those of T / n, T = B^T B (attempt j of trial t
reads seed.child(t, 2, j)). gd_step is scored on the spectrum
(rng.bidiagonal_spectra, a dense SVD per trial). gd_reg needs no
spectrum: its factors are delta = 0, g = 1 / (s + lam) for lam > 0 and
delta = [s = 0], g = [s > 0] / s at lam = 0, so with R = (T / n + lam)^-1
and the d - k zero eigenvalues of S taken apart

    E[excess | B] = (r^2 / d) (lam^2 tr R^2 + d - k) + (sigma^2 / n) (tr R - lam tr R^2)
                    + [lam = 0] (||w0||^2 / d) (d - k)

(the ridge limit forgets w0 on every direction when lam > 0). The
traces come from the LDL^T pivots p_i of T / n + lam and their first two
lam-derivatives, since tr R = d/dlam log det(T / n + lam) and
tr R^2 = -d^2/dlam^2 log det: with a_i = alpha_i^2 / n, c_i = beta_i^2 / n
(alpha, beta B's diagonal and superdiagonal) and f_i = a_i c_i / p_i^2,

    p_i = a_i + t_i,  t_1 = lam,  t_{i+1} = lam + c_i t_i / p_i
    p'_1 = 1,  p'_{i+1} = 1 + f_i p'_i
    p''_1 = 0,  p''_{i+1} = f_i (p''_i - 2 p'_i^2 / p_i)
    tr R = sum p'_i / p_i,  tr R^2 = sum ((p'_i / p_i)^2 - p''_i / p_i)

The pivot recurrence p_{i+1} = a_{i+1} + c_i + lam - a_i c_i / p_i is written
in the differential form for t_i = p_i - a_i, whose terms are all
nonnegative, and every term of both sums is nonnegative too (p'' <= 0),
so nothing cancels, even at lam = 0 on a square design. That is one loop
over k, vectorized over trials and lams: O(k) per trial, where the SVD
is O(k^3).

gd2_reg is scored only on a SpikedIdentity first layer along +-w_hat =
+-w_star / r. Then X enters the risk only through the spectrum mu of W,
the n x n Gram matrix of X's other d - 1 coordinates, and z = U^T X w_hat
(U: W's eigenvectors), N(0, I_n) and independent of mu. Sherman-Morrison
on the spike (README derives it) gives, with D = kappa^2 mu / n + lam,
e = mu (kappa^2/(n D))^2, u = sum z^2/D, p = sum z^2/D^2, q = sum e z^2
and beta = 1 / (n/alpha/alpha + u), which never form alpha^2 or kappa^4:

    E[excess | mu, z] = r^2 (1 - beta u)^2 (1 + q)
                        + sigma^2 (beta^2 p (1 + q) + sum e - 2 beta sum e z^2/D)

mu is d - 1 times rng.bidiagonal_spectra(wishart_chi(seed.child(3), d - 1,
n, ...), d - 1, n) (0 at d = 1; attempt j of trial t reads
seed.child(3, t, 2, j)) and z reads seed.child(t, 3). No trial draws a
design: seed.child(t, 1, 0), like the sign and noise streams, is the raw
sampler's (oracles.mc_excess_risk_raw).

mc_excess_risk_many scores every algorithm of a sweep on the same draws
(paired sampling), and sample_complexity_search runs it once per grid
point for every algorithm still searching. A convex learner's factors do
not depend on its init, which enters only through ||w0||^2 / d, so a
sweep over inits scores each distinct learner once, into one table of the
init-free sums (sum delta_i^2, bias, variance) keyed by learner spec:
_convex_risk's for a GdStepSpec and _ridge_rows' for a GdRegSpec. Every
convex row is then its spec's sums plus its init's term (_with_init).
The trial risks are one (algorithms, trials) array, and every mean,
stderr and non-finite count is one reduction over its rows (_estimates).

A gd_reg learner at lam = 0 has a known mean. With m = max(n, d), its
E[excess | B] from w0 is (r^2 + ||w0||^2)(d - k) / d + sigma^2 tr T^-1,
whose mean is (r^2 + ||w0||^2)(d - k) / d + sigma^2 k / (m - k - 1) (the
inverse-Wishart mean, Muirhead 1982, Thm 3.2.12; _ridgeless_mean). It is
finite where m - k >= 2 or sigma = 0, and there the estimate is that mean
with stderr 0 and exact set. Where sigma > 0 and |n - d| <= 1 the mean is
+inf, and the estimate stays the plain mean of the trials, which is
finite: perfbench's checks still count an infinite mean as a failed
operation. Its trial row is formed, reduced and checked for non-finite
values either way.

The gd_step rows and the gd_reg rows at lam > 0 are corrected by a
control variate: a value of the same draws whose mean is known exactly
(_controlled). It is the init-free lam = 0 row minus _ridgeless_mean,
used only where m - k >= 4: its variance is finite only for m - k > 3
(von Rosen 1988). Every call that scores a convex learner forms the lam
= 0 column there, whether or not a row uses it, in its one _ridge_sums
pass (at lam = 0 alone when it scores no gd_reg). A column's sums do not
depend on the others, so a solo estimate equals its paired one.
beta = cov(y, c) / var(c) is fitted on all trials together, so the bytes
do not depend on workers; the mean is the intercept mean(y - beta c) and
the stderr the intercept's, from the residuals with ddof 2. A beta
fitted on the same trials biases the mean by O(1 / trials): 0.012
stderr for gd_reg(lam = 0.1) at (d, n) = (50, 100) and 0.008 for
gd_step(eta = 0.01, t0 = 10) at (20, 80), at 400 trials over 512 and 64
seeds, against leave-one-out fits. A row whose control is constant (the
lam = 0 row at sigma = 0) or not finite, or whose fit would keep fewer
than two residual degrees of freedom, keeps the plain mean and ddof=1
stderr bit for bit, as do a gd_step past its stability limit (even
where its trials are finite) and every gd2_reg row.

Only a gd_step past its stability limit may have non-finite trial risks,
mean or stderr; any other overflow raises NumericalError. This module only
computes; cli writes the estimates to file records.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .convex import GdRegSpec, GdStepSpec, learner_factors, past_step_limit
from .linalg import NumericalError, SpikedIdentity
from .rng import SeedSpec, bidiagonal_spectra, gaussian_rows, wishart_chi
from .tasks import MetaInstance

# Trials per draw (_draw) and per pool task: bounds the draw's uniforms
# and, for gd_step and gd2_reg, the stacked (trials, k, k) bidiagonals and
# their SVD workspace (an unchunked 200-trial block at d = 50 added about
# 10 MB of RSS per thread).
_CHUNK = 32


@dataclass(frozen=True)
class RiskEstimate:
    """Monte-Carlo mean, standard error, trial count, the number of
    trials whose excess risk is not finite (a divergent gd_step), the
    number of control variates the mean was corrected by (0 or 1,
    _estimates), and whether the mean is the exact one (a gd_reg at lam =
    0 whose mean is finite, with stderr 0)."""

    mean: float
    stderr: float
    trials: int
    nonfinite: int = 0
    controls: int = 0
    exact: bool = False

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


def _weighted(c: float, sums: np.ndarray) -> np.ndarray:
    """c times the row sums, exactly 0 when c is: the inf sums of a
    divergent learner must not turn a zero weight into NaN."""
    return c * sums if c else np.zeros(np.shape(sums))


def _convex_risk(spec, s: np.ndarray, d: int, n: int, r2: float, sigma2: float):
    """The init-free sums of the spectral form (module docstring) of the
    gd_step or gd_reg learner spec for each row of the spectra s (trials,
    d): (sum delta_i^2, (r^2 / d) sum (1 - g_i s_i)^2, (sigma^2 / n) sum
    g_i^2 s_i), three (trials,) arrays. _with_init adds an init's term.
    The estimator scores gd_reg by _ridge_rows; this spectral form is its
    reference."""
    decay, gain, _ = learner_factors(spec, s)
    with np.errstate(over="ignore"):  # a divergent gd_step squares to inf, counted as nonfinite
        return (np.sum(decay * decay, axis=-1),
                _weighted(r2 / d, np.sum((1.0 - gain * s) ** 2, axis=-1)),
                _weighted(sigma2 / n, np.sum(gain * gain * s, axis=-1)))


def _with_init(sums, w0: np.ndarray, d: int) -> np.ndarray:
    """E[excess | spectrum] from the _convex_risk sums of a learner
    started at w0: (||w0||^2 / d) sum delta_i^2 + bias + variance."""
    decay2, bias, var = sums
    with np.errstate(over="ignore"):
        return _weighted(float(w0 @ w0) / d, decay2) + bias + var


def _ridge_sums(diag: np.ndarray, sup: np.ndarray, n: int, lams):
    """(lam^2 tr R^2, tr R - lam tr R^2) with R = (B^T B / n + lam)^-1,
    for the upper bidiagonal B of each row of diag (rows, k) and sup
    (rows, k - 1) and each lam of lams: two (rows, len(lams)) arrays, by
    the pivot recurrence of the module docstring.

    Each lam's matrix is scaled by rho, the least power of two above lam,
    at least 1 and at most 2^1023, the largest finite one. That is exact,
    so the sums are those of the unscaled recurrence wherever it neither
    overflows nor underflows, and the recurrence of a huge lam does
    neither. Each trial and lam is one
    column of elementwise arithmetic, so a row's sums do not depend on
    the others."""
    rows = diag.shape[0]
    lam = np.asarray(lams, dtype=np.float64)
    rho = np.maximum(1.0, np.ldexp(1.0, np.minimum(np.frexp(lam)[1], 1023)))
    # column (row, lam) of the (k, rows * len(lams)) coefficient rows, over rho
    cols = np.tile(rho, rows)
    a = np.repeat((diag * diag / n).T, lam.size, axis=1) / cols
    c = np.repeat((sup * sup / n).T, lam.size, axis=1) / cols
    tau = np.tile(lam / rho, rows)
    t, p1, p2 = tau.copy(), np.ones_like(tau), np.zeros_like(tau)
    g = 1.0 / (a[0] + t)  # 1 / p_i
    q = g.copy()  # p'_i / p_i
    tr1, tr2, f, w = q.copy(), q * q, np.empty_like(tau), np.empty_like(tau)
    for ai, ai1, ci in zip(a[:-1], a[1:], c):
        np.multiply(g, g, out=f)
        f *= ai
        f *= ci  # f_i = a_i c_i / p_i^2
        t *= g
        t *= ci
        t += tau  # t_{i+1}
        np.multiply(p1, q, out=w)
        w *= 2.0
        p2 -= w
        p2 *= f  # p''_{i+1}
        p1 *= f
        p1 += 1.0  # p'_{i+1}
        np.add(ai1, t, out=g)
        np.divide(1.0, g, out=g)
        np.multiply(p1, g, out=q)
        tr1 += q
        np.multiply(q, q, out=w)
        tr2 += w
        np.multiply(p2, g, out=w)
        tr2 -= w
    tr1, tr2, scaled = tr1.reshape(rows, lam.size), tr2.reshape(rows, lam.size), lam / rho
    return scaled * scaled * tr2, (tr1 - scaled * tr2) / rho


def _ridgeless_mean(d: int, n: int, r2: float, sigma2: float, w0_sq: float = 0.0) -> float:
    """The exact mean of gd_reg's lam = 0 risk from a w0 with ||w0||^2 =
    w0_sq (module docstring): (r^2 + ||w0||^2)(d - k) / d + sigma^2 k / (m - k - 1),
    +inf where sigma > 0 and m - k <= 1."""
    k, m = min(n, d), max(n, d)
    null_space = r2 * (d - k) / d + w0_sq / d * (d - k)
    if sigma2 == 0.0:
        return null_space
    return null_space + sigma2 * k / (m - k - 1) if m - k >= 2 else math.inf


def _ridge_rows(specs, diag: np.ndarray, sup: np.ndarray, d: int, n: int,
                r2: float, sigma2: float):
    """A dict of _convex_risk's sums by spec, for each GdRegSpec of specs
    on the bidiagonals B of _ridge_sums: (d - k at lam = 0, else 0; the
    init-free E[excess | B] of the module docstring, a (rows,) array;
    0.0), so _with_init adds w0's lam = 0 null-space term. Also the
    control variate, the lam = 0 row minus its exact mean
    (_ridgeless_mean), where m - k >= 4, else None. One pass of the
    recurrence serves every distinct lam and the control's lam = 0.

    For 0 < lam <= 1e-13 lambda_max(S) the spectral form (_convex_risk)
    counts S's zero eigenvalues as null and keeps w0 there, where this
    form takes the ridge limit, which forgets w0."""
    k = diag.shape[1]
    control = max(n, d) - k >= 4
    lams = sorted({s.lam for s in specs} | ({0.0} if control else set()))
    with np.errstate(over="ignore"):  # an overflowing risk is counted as nonfinite
        bias, var = _ridge_sums(diag, sup, n, lams)
        free = (r2 / d) * (bias.T + (d - k)) + (sigma2 / n) * var.T
    rows = {s: (0 if s.lam else d - k, free[lams.index(s.lam)], 0.0) for s in specs}
    return rows, free[0] - _ridgeless_mean(d, n, r2, sigma2) if control else None


def _spiked_risk(alg: AlgSpec, mu: np.ndarray, z: np.ndarray, n: int,
                 r2: float, sigma2: float) -> np.ndarray:
    """E[excess | mu, z] of gd2_reg (module docstring) per row of mu and z (trials, n)."""
    alpha, k2n = alg.init.spike, alg.init.bulk * alg.init.bulk / n
    # where k2n * mu overflows, k2n / dd would read 0, so kd falls back to
    # 1 / (mu + lam / k2n); np.where forms both, so at k2n = 0 (kappa = 0, or
    # a kappa^2 that underflows) the unused fallback divides by zero. Where
    # k2n / lam overflows, kd is inf at a zero mu, whose e is exactly 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        dd = k2n * mu + alg.params.lam
        kd = np.where(np.isfinite(dd), k2n / dd, 1.0 / (mu + np.divide(alg.params.lam, k2n)))
        z2 = z * z
        e = np.where(mu > 0.0, (kd * mu) * kd, 0.0)  # kd * mu <= 1
        u, p, q = np.sum(z2 / dd, axis=-1), np.sum(z2 / dd ** 2, axis=-1), np.sum(e * z2, axis=-1)
        beta = 1.0 / (n / alpha / alpha + u) if alpha else 0.0 * u
        return (r2 * (1.0 - beta * u) ** 2 * (1.0 + q)
                + sigma2 * (beta * beta * p * (1.0 + q) + np.sum(e, axis=-1)
                            - 2.0 * beta * np.sum(e * z2 / dd, axis=-1)))


def _draw(algs, inst, n, seed, lo, hi):
    """The draws of trials [lo, hi) that algs are scored on: (chi, spectra,
    mu, z), each None when no algorithm needs it. The convex families
    share one chi draw, which the trace recurrence reads for gd_reg and
    for the control variate, and which is SVDed into spectra only for a
    gd_step; gd2_reg reads mu and z from its own streams (module docstring)."""
    d, families = inst.d, {a.family for a in algs}
    chi = wishart_chi(seed, n, d, lo, hi) if families & {"gd_reg", "gd_step"} else None
    spectra = bidiagonal_spectra(chi, n, d) if "gd_step" in families else None
    mu = z = None
    if "gd2_reg" in families:
        mu = ((d - 1) * bidiagonal_spectra(wishart_chi(seed.child(3), d - 1, n, lo, hi), d - 1, n)
              if d > 1 else np.zeros((hi - lo, n)))
        z = gaussian_rows(seed, lo, hi, n, 3)
    return chi, spectra, mu, z


def _controlled(ys: np.ndarray, c: np.ndarray):
    """(means, stderrs) of the rows of trial values ys (rows, trials)
    corrected by the control variate c (trials,), whose exact mean is 0;
    None where c is not finite or constant or fewer than two residual
    degrees of freedom would be left.

    beta = cov(y, c) / var(c) over all trials, the mean is the intercept
    mean(y - beta c), and the stderr the intercept's:
    sqrt(sum res^2 / (trials - 2) * (1 / trials + mean(c)^2 / sum (c - mean c)^2)).
    Every reduction runs along a row, so a row's fit does not depend on
    the rows that share c."""
    trials = c.size
    if trials < 4 or not np.all(np.isfinite(c)) or np.ptp(c) == 0.0:
        return None
    c_mean = np.mean(c)
    dc = c - c_mean
    sxx = float(dc @ dc)
    y_mean = np.mean(ys, axis=1)
    dy = ys - y_mean[:, None]
    beta = np.sum(dy * dc, axis=1) / sxx
    res = dy - beta[:, None] * dc
    var = np.sum(res * res, axis=1) / (trials - 2) * (1.0 / trials + c_mean * c_mean / sxx)
    return y_mean - beta * c_mean, np.sqrt(var)


def _estimates(values: np.ndarray, rows=(), control=None) -> list:
    """One RiskEstimate per row of values (algorithms, trials): every mean, ddof=1
    stderr (inf, not NaN, where a trial is not finite) and non-finite count is one
    reduction. Those of rows whose trials are finite are corrected by the control
    variate control (trials,), if given (_controlled)."""
    trials = values.shape[1]
    means = np.mean(values, axis=1)
    nonfinite = np.count_nonzero(~np.isfinite(values), axis=1)
    stderrs = np.where(nonfinite, math.inf, np.std(values, axis=1, ddof=1) / math.sqrt(trials))
    used = np.zeros(len(values), dtype=int)
    rows = [j for j in rows if not nonfinite[j]]
    fit = _controlled(values[rows], control) if rows and control is not None else None
    if fit is not None:
        means[rows], stderrs[rows] = fit
        used[rows] = 1
    return [RiskEstimate(m, e, trials, c, p) for m, e, c, p in
            zip(means.tolist(), stderrs.tolist(), nonfinite.tolist(), used.tolist())]


def mc_excess_risk_many(algs, inst: MetaInstance, n: int, trials: int,
                        seed: SeedSpec, workers: int = 1) -> list:
    """Paired Monte-Carlo excess risks, one RiskEstimate per algorithm:
    the convex ones (each with an init w0 of shape (d,) and a finite
    ||w0||^2, else ValueError) share the per-trial chi draws, the gd2_reg
    ones (in the one form _spiked_risk scores, with a finite kappa^2, else
    ValueError) the per-trial (mu, z).

    Each gd_step algorithm is checked once against the largest eigenvalue
    of all trials' spectra (convex.past_step_limit warns once), so what
    the call warns of does not depend on workers. Only a gd_step past
    that limit may have non-finite trial risks, or a mean or stderr that
    overflows from finite ones; for any other algorithm either raises
    NumericalError. A gd_reg at lam = 0 is then given its exact mean
    where that is finite, and the gd_step rows within that limit and the
    gd_reg rows at lam > 0 are corrected by a control variate (module
    docstring).

    The draws are made _CHUNK trials at a time (_draw) on min(workers,
    chunks) threads, one chunk per task, and inline at one worker or when
    every algorithm is a gd_reg, whose trace loop holds the interpreter
    lock; each family is then scored once over all trials. Every trial
    reads only its own streams, so the estimates are bit-identical for
    any workers."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if trials < 2:
        raise ValueError(f"need trials >= 2, got {trials}")
    if not algs:
        raise ValueError("need at least one algorithm")
    d, w_hat = inst.d, inst.w_star / inst.r
    for alg in (x for x in algs if x.family == "gd2_reg"):
        a = alg.init
        if not (alg.params.lam > 0.0 and isinstance(a, SpikedIdentity)
                and np.linalg.norm(a.direction - (a.direction @ w_hat) * w_hat) <= 1e-12):
            raise ValueError(f"{alg.label()} needs lam > 0 and a SpikedIdentity along +-w_star / r")
        if not math.isfinite(float(a.bulk) * float(a.bulk)):
            raise ValueError(f"{alg.label()} needs a finite kappa^2, got kappa = {a.bulk!r}")
    with np.errstate(over="ignore"):  # an overflowing ||w0||^2 is the error below
        for alg in (x for x in algs if x.family != "gd2_reg"):
            if np.shape(alg.init) != (d,) or not math.isfinite(float(alg.init @ alg.init)):
                raise ValueError(f"w0 must have shape ({d},) and a finite ||w0||^2 for "
                                 f"{alg.label()}")

    def draw(lo):
        return _draw(algs, inst, n, seed, lo, min(lo + _CHUNK, trials))

    starts = range(0, trials, _CHUNK)
    workers = min(int(workers), len(starts)) if any(a.family != "gd_reg" for a in algs) else 1
    if workers <= 1:
        draws = list(map(draw, starts))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            draws = list(pool.map(draw, starts))
    chi, spectra, mu, z = (None if parts[0] is None else np.concatenate(parts)
                           for parts in zip(*draws))
    r2, sigma2 = float(inst.w_star @ inst.w_star), inst.sigma ** 2
    top = 0.0 if spectra is None else float(spectra[:, 0].max())
    divergent = [alg.family == "gd_step" and past_step_limit(alg.params.eta, top)
                 for alg in algs]
    controlled = [j for j, (alg, past) in enumerate(zip(algs, divergent))
                  if alg.family == "gd_step" and not past
                  or alg.family == "gd_reg" and alg.params.lam > 0.0]
    values, sums, null = np.empty((len(algs), trials)), {}, None
    if chi is not None:
        k = min(n, d)
        sums, null = _ridge_rows({a.params for a in algs if a.family == "gd_reg"},
                                 chi[:, :k], chi[:, k:], d, n, r2, sigma2)
    for spec in dict.fromkeys(a.params for a in algs if a.family == "gd_step"):
        sums[spec] = _convex_risk(spec, spectra, d, n, r2, sigma2)
    for j, alg in enumerate(algs):
        values[j] = (_spiked_risk(alg, mu, z, n, r2, sigma2) if alg.family == "gd2_reg"
                     else _with_init(sums[alg.params], alg.init, d))
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf or overflow, checked below
        estimates = _estimates(values, controlled, null)
    for j, (alg, est, counted) in enumerate(zip(algs, estimates, divergent)):
        if not (counted or math.isfinite(est.mean) and math.isfinite(est.stderr)):
            raise NumericalError(f"{alg.label()} at n={n}: " + (
                f"{est.nonfinite} of {trials} trial excess risks are not finite" if est.nonfinite
                else f"the mean or stderr of {trials} finite trial excess risks overflows")
                + ", which only a gd_step past its stability limit may give")
        if alg.family == "gd_reg" and alg.params.lam == 0.0:
            mean = _ridgeless_mean(d, n, r2, sigma2, float(alg.init @ alg.init))
            if math.isfinite(mean):
                estimates[j] = replace(est, mean=mean, stderr=0.0, exact=True)
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


def checked_grid(key: str, n_grid) -> list:
    """n_grid as a list of ints, or a ValueError naming key unless it is
    non-empty, strictly ascending and starts at n >= 1."""
    grid = [int(n) for n in n_grid]
    if not grid:
        raise ValueError(f"{key} must be non-empty")
    if grid[0] < 1:
        raise ValueError(f"{key} must start at n >= 1, got {grid}")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"{key} must be strictly ascending, got {grid}")
    return grid


def sample_complexity_search(algs, inst: MetaInstance, epsilon: float,
                             n_grid, trials: int, seed: SeedSpec,
                             workers: int = 1, collect=None) -> list:
    """Paired sample-complexity search over algs, a non-empty list of
    AlgSpecs: one entry per algorithm, the smallest grid n whose estimate
    is confidently at most epsilon (mean + 2 stderr <= epsilon), or None.

    At grid index idx, every algorithm still searching is scored by one
    mc_excess_risk_many call on seed.child(idx), so they share that
    point's draws and each estimate equals its own mc_excess_risk there.
    An algorithm stops at its first qualifying n, the search once none is
    left. After each grid point, collect(n, scored), if given, gets scored
    mapping the index of every algorithm scored there to its RiskEstimate.
    """
    grid = checked_grid("n_grid", n_grid)
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")
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

