import math
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from metasep import oracles, risk
from metasep.convex import GdRegSpec, GdStepSpec
from metasep.linalg import SpikedIdentity
from metasep.rng import SeedSpec, bidiagonal_spectra, gaussian_matrix, gaussian_vector, wishart_chi
from metasep.risk import (AlgSpec, RiskEstimate, _spiked_risk, convex_lower_bound_exact,
                          mc_excess_risk, mc_excess_risk_many, sample_complexity_search)
from metasep.tasks import MetaInstance


def _reg_alg(lam, d, w0=None):
    return AlgSpec("gd_reg", GdRegSpec(lam), np.zeros(d) if w0 is None else w0)


def test_estimate_validation():
    with pytest.raises(ValueError):
        RiskEstimate(0.1, 0.01, 1)


def test_alg_spec_validation():
    with pytest.raises(ValueError):
        AlgSpec("newton", GdRegSpec(0.1), np.zeros(2))
    with pytest.raises(ValueError):
        AlgSpec("gd_step", GdRegSpec(0.1), np.zeros(2))
    with pytest.raises(ValueError):
        AlgSpec("gd_reg", GdStepSpec(0.1, 5), np.zeros(2))


def test_noiseless_overdetermined_recovery():
    inst = MetaInstance.from_config(4, 1.0, 0.0)
    est = mc_excess_risk(_reg_alg(0.0, 4), inst, 12, 50, SeedSpec(1))
    assert est.mean <= 1e-10


def test_lower_bound_values():
    assert convex_lower_bound_exact(20, 20, 1.0, 1.0) == 0.5
    assert convex_lower_bound_exact(5, 0, 1.3, 1.0) == pytest.approx(1.69)
    assert convex_lower_bound_exact(50, 1000, 1.0, 1.0) == pytest.approx(50.0 / 1050.0)
    # continuity at the n = d seam
    d = 8
    below = convex_lower_bound_exact(d, d - 1, 1.0, 1.0)
    at = convex_lower_bound_exact(d, d, 1.0, 1.0)
    assert below > at
    with pytest.raises(ValueError):
        convex_lower_bound_exact(0, 5, 1.0, 1.0)


def test_bound_dominated_by_estimates():
    inst = MetaInstance.from_config(6, 1.0, 1.0)
    for n in (3, 6, 12):
        est = mc_excess_risk(_reg_alg(1.0, 6), inst, n, 500, SeedSpec(2))
        assert est.mean + 3.0 * est.stderr >= convex_lower_bound_exact(6, n, 1.0, 1.0)


@pytest.mark.parametrize("sigma", [0.0, 1.0])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 8])
@pytest.mark.parametrize("d", [1, 2, 3, 7])
def test_estimator_edge_cases(d, n, sigma):
    # n < d, n = d and n > d at the smallest sizes, with and without noise:
    # every estimate is finite, nonnegative and the same on a thread pool
    # (64 trials, two chunks on two threads), and no convex one falls
    # confidently below the exact convex bound
    inst = MetaInstance.from_config(d, 1.0, sigma)
    w_hat = inst.w_star / inst.r
    algs = [_reg_alg(0.0, d), _reg_alg(0.5, d),
            AlgSpec("gd_step", GdStepSpec(0.05, 10), inst.w_star.copy()),
            AlgSpec("gd2_reg", GdRegSpec(3.0 ** 1.5), SpikedIdentity(w_hat, 3.0, 0.1)),
            AlgSpec("gd2_reg", GdRegSpec(1.0), SpikedIdentity(w_hat, 1.0, 1.0))]
    seed = SeedSpec(8).child(d, n, int(sigma))
    serial = mc_excess_risk_many(algs, inst, n, 8, seed)
    assert (mc_excess_risk_many(algs, inst, n, 64, seed, workers=3)
            == mc_excess_risk_many(algs, inst, n, 64, seed))
    # at sigma = 0 and n < d, gd_reg(lam=0) from 0 attains the bound in every
    # trial, (d - n) / d r^2, which the two sides round apart by an ulp
    bound = convex_lower_bound_exact(d, n, inst.r, sigma) * (1.0 - 1e-12)
    for alg, est in zip(algs, serial):
        assert math.isfinite(est.mean) and math.isfinite(est.stderr), alg.label()
        assert est.mean >= 0.0 and est.nonfinite == 0, alg.label()
        if alg.family != "gd2_reg":
            assert est.mean + 4.0 * est.stderr >= bound, alg.label()


def test_paired_many_matches_single():
    inst = MetaInstance.from_config(5, 1.0, 1.0)
    algs = [_reg_alg(0.1, 5), _reg_alg(1.0, 5),
            AlgSpec("gd_step", GdStepSpec(0.05, 30), np.zeros(5))]
    paired = mc_excess_risk_many(algs, inst, 8, 60, SeedSpec(3))
    # every member reads the same per-trial eigendecomposition either way,
    # so each reproduces bit for bit
    for alg, est in zip(algs, paired):
        assert mc_excess_risk(alg, inst, 8, 60, SeedSpec(3)) == est


@pytest.mark.parametrize("trials", [2, 40, 100])
@pytest.mark.parametrize("n", [3, 6, 12])
def test_sweep_over_inits_matches_solo_estimates(n, trials, monkeypatch):
    # a sweep scores each distinct convex learner once and adds each init's
    # term: one _ridge_sums pass for every gd_reg and one _convex_risk per
    # distinct GdStepSpec. Every estimate equals its solo call bit for bit,
    # one of them past the stability limit (inf from w0 = 0 too, not NaN),
    # and the call warns once per divergent gd_step algorithm, as the solo
    # calls do
    calls = {"_ridge_sums": 0, "_convex_risk": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(risk, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(risk, name, counted)
    d = 6
    inst = MetaInstance.from_config(d, 1.0, 1.0)
    g = gaussian_vector(SeedSpec(40), d)
    algs = []
    for w0 in (np.zeros(d), inst.w_star.copy(), 5.0 * g / np.linalg.norm(g)):
        algs += [AlgSpec("gd_step", GdStepSpec(eta, t0), w0)
                 for eta, t0 in ((0.05, 10), (0.1, 30), (5.0, 2000))]
        algs += [_reg_alg(lam, d, w0) for lam in (0.0, 0.1)]
    seed = SeedSpec(41).child(n, trials)

    def warned(call):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = call()
        return result, sum(issubclass(w.category, RuntimeWarning) for w in caught)

    sweep, count = warned(lambda: mc_excess_risk_many(algs, inst, n, trials, seed))
    assert calls == {"_ridge_sums": 1, "_convex_risk": 3}
    solo_count = 0
    for alg, est in zip(algs, sweep):
        solo, c = warned(lambda: mc_excess_risk(alg, inst, n, trials, seed))
        assert solo == est, alg.label()
        assert (est.mean == math.inf) == (alg.params == GdStepSpec(5.0, 2000)), alg.label()
        solo_count += c
    assert count == solo_count == 3


def test_divergent_estimate_equals_itself():
    # a gd_step past its stability limit has inf trial risks: its mean and
    # stderr are inf (numpy's std of infs is NaN), so a repeat compares equal
    inst = MetaInstance.from_config(6, 1.0, 1.0)
    alg = AlgSpec("gd_step", GdStepSpec(5.0, 2000), np.zeros(6))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        first, again = (mc_excess_risk(alg, inst, 6, 100, SeedSpec(42)) for _ in range(2))
    assert first == again
    assert (first.mean, first.stderr, first.nonfinite) == (math.inf, math.inf, 100)


def test_worker_count_does_not_change_bits():
    inst = MetaInstance.from_config(5, 1.0, 1.0)
    alg = _reg_alg(0.5, 5)
    one = mc_excess_risk(alg, inst, 10, 64, SeedSpec(4), workers=1)
    four = mc_excess_risk(alg, inst, 10, 64, SeedSpec(4), workers=4)
    assert one == four


def test_stderr_shrinks_with_trials():
    inst = MetaInstance.from_config(5, 1.0, 1.0)
    alg = _reg_alg(1.0, 5)
    small = mc_excess_risk(alg, inst, 10, 1500, SeedSpec(5))
    big = mc_excess_risk(alg, inst, 10, 3000, SeedSpec(5))
    ratio = big.stderr / small.stderr
    assert abs(ratio - 1.0 / np.sqrt(2.0)) < 0.1 / np.sqrt(2.0)


def test_gd2_reg_family_runs():
    inst = MetaInstance.from_config(10, 1.0, 1.0)
    first = SpikedIdentity(inst.w_star, 100.0, 0.1)
    alg = AlgSpec("gd2_reg", GdRegSpec(100.0 ** 1.5), first)
    est = mc_excess_risk(alg, inst, 40, 300, SeedSpec(6))
    # suppressed-bulk regime: risk near sigma^2-free 1/n scale, far below r^2
    assert est.mean < 0.2


@pytest.mark.parametrize("n", [4, 16])
def test_estimator_matches_raw_sampler(n):
    # the raw sampler draws the sign, the design and the noise that the
    # estimator averages out or samples as spectra; the means must agree
    d = 8
    inst = MetaInstance.from_config(d, 1.0, 1.0)
    g = gaussian_vector(SeedSpec(20), d)
    algs = []
    for w0 in (np.zeros(d), inst.w_star.copy(), 3.0 * g / np.linalg.norm(g)):
        algs += [_reg_alg(lam, d, w0) for lam in (0.0, 0.1, 1.0)]
        algs.append(AlgSpec("gd_step", GdStepSpec(0.1, 30), w0))
    algs.append(AlgSpec("gd2_reg", GdRegSpec(30.0 ** 1.5), SpikedIdentity(inst.w_star, 30.0, 0.1)))
    algs.append(AlgSpec("gd2_reg", GdRegSpec(0.5), SpikedIdentity(inst.w_star, 1.0, 1.0)))
    exact = mc_excess_risk_many(algs, inst, n, 400, SeedSpec(22))
    raw = oracles.mc_excess_risk_raw(algs, inst, n, 400, SeedSpec(22))
    for alg, e, r in zip(algs, exact, raw):
        assert abs(e.mean - r.mean) <= 4.0 * math.hypot(e.stderr, r.stderr), alg.label()
        assert e.stderr <= r.stderr, alg.label()


@pytest.mark.parametrize("n", [4, 16])
def test_raw_sampler_matches_the_convex_control_mean(n):
    # the lam = 0 row's exact mean, which centres the convex control, on the
    # raw sampler's own draws: (r^2 + ||w0||^2)(d - k)/d + sigma^2 k/(m - k - 1)
    # (the inverse-Wishart mean, Muirhead 1982, Thm 3.2.12), whose variance
    # is finite here, m - k = 4 and 8
    d = 8
    k, m = min(n, d), max(n, d)
    inst = MetaInstance.from_config(d, 1.0, 1.0)
    g = gaussian_vector(SeedSpec(43), d)
    w0s = (np.zeros(d), 2.0 * g / np.linalg.norm(g))
    raw = oracles.mc_excess_risk_raw([_reg_alg(0.0, d, w0) for w0 in w0s], inst, n, 400,
                                     SeedSpec(44))
    for w0, est in zip(w0s, raw):
        exact = (1.0 + w0 @ w0) * (d - k) / d + k / (m - k - 1)
        assert abs(est.mean - exact) <= 4.0 * est.stderr


def _plain(monkeypatch, call):
    """call() with the control variate refused: the plain reduction."""
    with monkeypatch.context() as patch:
        patch.setattr(risk, "_controlled", lambda ys, c: None)
        return call()


@pytest.mark.parametrize("d, n, sigma, trials, step", [
    pytest.param(20, 60, 0.0, 400, None, id="20-60-0.0-400"),  # sigma = 0: a constant control
    # under two residual degrees of freedom
    pytest.param(20, 60, 1.0, 2, None, id="20-60-1.0-2"),
    pytest.param(20, 60, 1.0, 3, None, id="20-60-1.0-3"),
    pytest.param(1, 4, 1.0, 400, None, id="1-4-1.0-400"),  # d = 1 and n <= 4: m - k <= 3
    pytest.param(20, 19, 1.0, 400, None, id="20-19-1.0-400"),  # n = d -+ 1
    pytest.param(20, 21, 1.0, 400, None, id="20-21-1.0-400"),
    # a gd_step past its stability limit whose trials are finite
    pytest.param(20, 60, 1.0, 400, GdStepSpec(10.0, 2), id="20-60-1.0-400-past-limit"),
])
def test_estimate_is_plain_where_no_control_applies(monkeypatch, d, n, sigma, trials, step):
    inst = MetaInstance.from_config(d, 1.0, sigma)
    if step is None:
        algs = [_reg_alg(0.0, d), _reg_alg(0.1, d), _reg_alg(1.0, d),
                AlgSpec("gd_step", GdStepSpec(0.05, 10), inst.w_star.copy())]
    else:
        algs = [_reg_alg(0.0, d), AlgSpec("gd_step", step, inst.w_star.copy())]
    seed = SeedSpec(45).child(d, n, trials)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ests = mc_excess_risk_many(algs, inst, n, trials, seed)
        plain = _plain(monkeypatch, lambda: mc_excess_risk_many(algs, inst, n, trials, seed))
    assert len(caught) == (2 if step else 0)  # the stability warning, once per call
    assert ests == plain
    assert all(est.controls == 0 and est.nonfinite == 0 for est in ests)
    assert all(math.isfinite(est.mean) and math.isfinite(est.stderr) for est in ests)


@pytest.mark.parametrize("d, n, family", [
    pytest.param(d, n, "gd_reg", id=f"{d}-{n}") for d, n in ((20, 60), (1, 8), (50, 100))] + [
    pytest.param(d, n, "gd_step", id=f"{d}-{n}-gd_step")
    for d, n in ((20, 60), (1, 8), (50, 100), (20, 5))])
def test_controls_shrink_the_stderr(monkeypatch, d, n, family):
    # where m - k >= 4 and sigma > 0, every lam > 0 row and every gd_step row
    # within its stability limit uses the control, and the lam = 0 and
    # gd2_reg rows stay plain; a solo call forms its own lam = 0 column and
    # equals the paired estimate
    inst = MetaInstance.from_config(d, 1.0, 1.0)
    spiked = AlgSpec("gd2_reg", GdRegSpec(1.0), SpikedIdentity(inst.w_star / inst.r, 3.0, 0.1))
    algs = [_reg_alg(0.0, d), spiked]
    if family == "gd_reg":
        algs += [_reg_alg(0.1, d), _reg_alg(1.0, d)]
    else:
        algs += [AlgSpec("gd_step", GdStepSpec(0.01, 10), np.zeros(d)),
                 AlgSpec("gd_step", GdStepSpec(0.1, 30), inst.w_star.copy())]
    seed = SeedSpec(46).child(d, n)
    ests = mc_excess_risk_many(algs, inst, n, 400, seed)
    plain = _plain(monkeypatch, lambda: mc_excess_risk_many(algs, inst, n, 400, seed))
    assert ests[:2] == plain[:2] and ests[0].controls == ests[1].controls == 0
    for alg, est, ref in zip(algs[2:], ests[2:], plain[2:]):
        assert est.controls == 1 and est.stderr < ref.stderr, alg.label()
        assert abs(est.mean - ref.mean) <= 4.0 * ref.stderr, alg.label()
    for alg, est in zip(algs[2:], ests[2:]):
        assert mc_excess_risk(alg, inst, n, 400, seed) == est, alg.label()


def _leave_one_out_mean(y, c):
    """The control-variate mean with each trial's beta fitted on the other
    trials. A trial's control has mean 0 and is independent of the other
    trials, so this mean is unbiased."""
    dy, dc = y - y.mean(), c - c.mean()  # the fit does not depend on either shift
    others = y.size - 1  # the other trials' dy and dc sum to -dy and -dc
    cov = np.sum(dy * dc) - dy * dc - dy * dc / others
    var = np.sum(dc * dc) - dc * dc - dc * dc / others
    return float(np.mean(y - cov / var * c))


@pytest.mark.parametrize("trials, d, n, spec", [
    pytest.param(trials, 50, 100, GdRegSpec(0.1), id=f"{trials}") for trials in (12, 400)] + [
    pytest.param(trials, 20, 80, GdStepSpec(0.01, 10), id=f"{trials}-gd_step")
    for trials in (12, 400)])
def test_controlled_estimates_are_calibrated(monkeypatch, trials, d, n, spec):
    # over 64 seeds, gd_reg(lam = 0.1) at (d, n) = (50, 100) and a gd_step
    # far from convergence at (20, 80): the z-scores against the plain mean
    # of all 64 x trials trials spread with sd in [0.75, 1.33]. At 400
    # trials the beta, fitted on the same trials, biases the mean by under
    # 0.1 stderr against the unbiased leave-one-out fit. (A converged
    # gd_step's row is the control plus a constant, so its stderr is
    # rounding, about 1e-17.)
    inst = MetaInstance.from_config(d, 1.0, 1.0)
    alg = AlgSpec("gd_step" if isinstance(spec, GdStepSpec) else "gd_reg", spec, np.zeros(d))
    fits = []
    fit = risk._controlled
    monkeypatch.setattr(risk, "_controlled", lambda ys, c: fits.append((ys[0], c)) or fit(ys, c))
    ests = [mc_excess_risk(alg, inst, n, trials, SeedSpec(47).child(s)) for s in range(64)]
    assert len(fits) == 64 and all(e.controls == 1 for e in ests)
    pooled = np.mean([y.mean() for y, _ in fits])
    z = np.array([(e.mean - pooled) / e.stderr for e in ests])
    assert 0.75 <= np.std(z, ddof=1) <= 1.33
    if trials == 400:
        bias = np.mean([(e.mean - _leave_one_out_mean(*f)) / e.stderr for e, f in zip(ests, fits)])
        assert abs(bias) < 0.1, bias


@pytest.mark.parametrize("n,d", [(1, 1), (1, 5), (5, 1), (3, 7), (49, 50), (50, 50),
                                 (51, 50), (900, 50), (300, 200)])
def test_ridge_risks_match_spectral_form(n, d):
    # gd_reg's trace recurrence against the spectral form on the SVD
    # spectrum of the same chi draws, from w0 = 0 and w0 = 3 g, relative
    # per trial. For lam > 0 (1e200 puts the power-of-two scaling to work,
    # and 1e308 its cap at 2^1023) the bound is 1e-12. lam = 0 has its own
    # reason for a bound: S is singular for n < d and ill-conditioned near
    # n = d, where a pivot recurrence that cancels loses digits (the plain
    # one lost 5e-11 at n = d = 50). The differential form cancels nothing, so its bound at
    # lam = 0 is 1e-12 as well (worst seen 2.2e-15 over five seeds)
    inst = MetaInstance.from_config(d, 1.3, 0.7)
    r2, sigma2, k = inst.r ** 2, inst.sigma ** 2, min(n, d)
    chi = wishart_chi(SeedSpec(34).child(n, d), n, d, 0, 64)
    spectra = bidiagonal_spectra(chi, n, d)
    g = gaussian_vector(SeedSpec(35), d)
    for w0 in (np.zeros(d), 3.0 * g):
        lams = (0.0, 0.1, 1.0, 1e3, 1e200, 1e308)
        sums, _ = risk._ridge_rows({GdRegSpec(lam) for lam in lams}, chi[:, :k], chi[:, k:],
                                   d, n, r2, sigma2)
        for lam in lams:
            spec = GdRegSpec(lam)
            traced = risk._with_init(sums[spec], w0, d)
            spectral = risk._with_init(risk._convex_risk(spec, spectra, d, n, r2, sigma2), w0, d)
            worst = float(np.max(np.abs(traced - spectral) / spectral))
            assert worst <= 1e-12, (lam, worst)


@pytest.mark.parametrize("n,d", [(1, 1), (1, 4), (4, 1), (3, 6), (6, 6), (12, 6)])
def test_householder_bidiagonal_keeps_singular_values(n, d):
    # the risk-estimator suite's reduction of a design to wishart_chi's form
    x = gaussian_matrix(SeedSpec(36).child(n, d), n, d)
    diag, sup = oracles.householder_bidiagonal(x)
    assert diag.shape == (min(n, d),) and sup.shape == (min(n, d) - 1,)
    b = np.diag(diag) + np.diag(sup, 1)
    assert np.allclose(np.linalg.svd(b, compute_uv=False), np.linalg.svd(x, compute_uv=False),
                       rtol=1e-13, atol=1e-13)


def test_trial_rows_do_not_depend_on_the_block():
    # a trial's draws are the same bit for bit in its own _CHUNK chunk, in
    # a larger span across _CHUNK boundaries and alone, for n < d and n > d;
    # an entry is None exactly when no algorithm needs it (a gd_step reads
    # chi for its control variate)
    c = risk._CHUNK
    for n, d in ((4, 7), (9, 3)):
        inst = MetaInstance.from_config(d, 1.0, 1.0)
        reg, step = _reg_alg(0.3, d), AlgSpec("gd_step", GdStepSpec(0.05, 10), np.zeros(d))
        spiked = AlgSpec("gd2_reg", GdRegSpec(1.0), SpikedIdentity(inst.w_star, 3.0, 0.1))
        algs, seed = [reg, step, spiked], SeedSpec(38)
        wide = risk._draw(algs, inst, n, seed, 5, 3 * c - 5)
        for t in (5, c - 1, c, c + 1, 2 * c, 3 * c - 6):
            own = risk._draw(algs, inst, n, seed, t // c * c, (t // c + 1) * c)
            alone = risk._draw(algs, inst, n, seed, t, t + 1)
            for w, o, a in zip(wide, own, alone):
                assert np.array_equal(w[t - 5], o[t % c]) and np.array_equal(w[t - 5], a[0])
        for subset, needed in (([reg], (0,)), ([step], (0, 1)), ([spiked], (2, 3)),
                               ([reg, step], (0, 1))):
            draws = risk._draw(subset, inst, n, seed, 5, 3 * c - 5)
            for i, (part, full) in enumerate(zip(draws, wide)):
                assert (part is None) == (i not in needed)
                assert part is None or np.array_equal(part, full)


def _ridge_row(alg, inst, n, trials, seed):
    """The per-trial gd_reg row that mc_excess_risk_many forms for alg on
    seed's chi draws."""
    d, k = inst.d, min(n, inst.d)
    chi = wishart_chi(seed, n, d, 0, trials)
    sums, _ = risk._ridge_rows({alg.params}, chi[:, :k], chi[:, k:], d, n,
                               float(inst.w_star @ inst.w_star), inst.sigma ** 2)
    return risk._with_init(sums[alg.params], alg.init, d)


def _plain_ridge_row(alg, inst, n, trials, seed):
    """The plain mean and ddof=1 stderr of _ridge_row."""
    row = _ridge_row(alg, inst, n, trials, seed)
    return float(np.mean(row)), float(np.std(row, ddof=1)) / math.sqrt(trials)


def test_ridge_risk_at_d_1000():
    # d = 1000, n = 20000, where a dense SVD per trial costs about 0.7 s:
    # at lam = 0 the trials' mean is sigma^2 d / (n - d - 1) exactly, which
    # the estimate is, and at lam = d / n it stays above the exact convex bound
    d, n = 1000, 20000
    inst = MetaInstance.from_config(d, 1.0, 1.0)
    ols, ridge = mc_excess_risk_many([_reg_alg(0.0, d), _reg_alg(d / n, d)], inst, n, 64,
                                     SeedSpec(39))
    mean, stderr = _plain_ridge_row(_reg_alg(0.0, d), inst, n, 64, SeedSpec(39))
    assert abs(mean - d / (n - d - 1)) <= 4.0 * stderr
    assert ols.exact and ols.mean == pytest.approx(d / (n - d - 1), rel=1e-15)
    assert ridge.mean + 3.0 * ridge.stderr >= convex_lower_bound_exact(d, n, 1.0, 1.0)


def test_ols_risk_matches_exact_value():
    # lam = 0 with n > d + 1: E ||(X^T X)^{-1} X^T noise||^2 = sigma^2 d / (n - d - 1),
    # against the plain mean of the trials the estimator forms
    d, n = 10, 30
    inst = MetaInstance.from_config(d, 1.0, 1.0)
    mean, stderr = _plain_ridge_row(_reg_alg(0.0, d), inst, n, 400, SeedSpec(23))
    assert abs(mean - d / (n - d - 1)) <= 4.0 * stderr


@pytest.mark.parametrize("d, n", [(8, 4), (8, 16), (8, 10), (1, 8)])
def test_ridgeless_estimate_is_exact(d, n):
    # where the inverse-Wishart mean is finite, m - k >= 2, the lam = 0
    # estimate is that mean with stderr 0, from w0 = 0 and w0 != 0. At
    # (8, 10), m - k = 2: the mean is finite but the variance is not
    k, m = min(n, d), max(n, d)
    inst = MetaInstance.from_config(d, 1.3, 0.7)
    r2, sigma2 = float(inst.w_star @ inst.w_star), inst.sigma ** 2
    g = gaussian_vector(SeedSpec(50), d)
    w0s = (np.zeros(d), 2.0 * g / np.linalg.norm(g))
    ests = mc_excess_risk_many([_reg_alg(0.0, d, w0) for w0 in w0s], inst, n, 40,
                               SeedSpec(51).child(d, n))
    for w0, est in zip(w0s, ests):
        w0_sq = float(w0 @ w0)
        assert est.mean == risk._ridgeless_mean(d, n, r2, sigma2, w0_sq)
        assert est.mean == pytest.approx((r2 + w0_sq) * (d - k) / d + sigma2 * k / (m - k - 1),
                                         rel=1e-15)
        assert (est.stderr, est.trials, est.nonfinite, est.controls, est.exact) == (
            0.0, 40, 0, 0, True)


@pytest.mark.parametrize("d", [1, 2, 7])
def test_noiseless_ridgeless_estimate_is_exact_at_n_equal_d(d):
    # at sigma = 0 the mean is (r^2 + ||w0||^2)(d - k) / d at any (n, d)
    inst = MetaInstance.from_config(d, 1.0, 0.0)
    for n in (d - 1, d, d + 1):
        if n >= 1:
            est = mc_excess_risk(_reg_alg(0.0, d, inst.w_star.copy()), inst, n, 20, SeedSpec(52))
            assert est.exact and est.stderr == 0.0
            assert est.mean == pytest.approx(2.0 * (d - min(n, d)) / d, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("d, n", [(20, 19), (20, 20), (20, 21), (1, 1), (1, 2)])
def test_ridgeless_estimate_stays_plain_where_the_mean_is_infinite(d, n):
    # sigma > 0 and |n - d| <= 1: the exact mean is +inf, and the estimate
    # is the plain reduction of the trials, as it was before exact means
    inst = MetaInstance.from_config(d, 1.0, 1.0)
    alg, seed = _reg_alg(0.0, d, inst.w_star.copy()), SeedSpec(53).child(d, n)
    assert risk._ridgeless_mean(d, n, 1.0, 1.0) == math.inf
    est = mc_excess_risk(alg, inst, n, 100, seed)
    assert est == risk._estimates(_ridge_row(alg, inst, n, 100, seed)[None])[0]
    assert not est.exact and est.controls == 0 and 0.0 < est.stderr < math.inf


def test_ridgeless_exact_mean_leaves_the_control_bytes():
    # the lam > 0 rows of a call that also scores lam = 0 keep the bytes of
    # their control-variate fit, centred on the same inverse-Wishart mean
    d, n = 8, 16
    inst = MetaInstance.from_config(d, 1.0, 1.0)
    g = gaussian_vector(SeedSpec(49), d)
    w = 2.0 * g / np.linalg.norm(g)
    algs = [_reg_alg(0.0, d), _reg_alg(0.0, d, w), _reg_alg(0.1, d), _reg_alg(1.0, d, w)]
    ests = mc_excess_risk_many(algs, inst, n, 400, SeedSpec(48))
    assert [(e.mean, e.stderr, e.controls, e.exact) for e in ests] == [
        (8 / 7, 0.0, 0, True), (8 / 7, 0.0, 0, True),
        (0.6255052710908017, 0.001827063204688696, 1, False),
        (0.4650346028145441, 0.0010285509229266785, 1, False)]


@pytest.mark.parametrize("w0_scale", [0.0, 1.0])
def test_divergent_step_gives_inf(w0_scale):
    d = 6
    inst = MetaInstance.from_config(d, 1.0, 1.0)
    alg = AlgSpec("gd_step", GdStepSpec(5.0, 2000), w0_scale * np.ones(d))
    with pytest.warns(RuntimeWarning):
        est = mc_excess_risk(alg, inst, 12, 10, SeedSpec(24))
    assert est.mean == math.inf
    assert est.nonfinite == 10


def test_step_limit_warns_at_equality_on_all_trials():
    # eta = 2 / lambda_max over all trials is at the limit (>=) and warns
    # once for any worker count, even where one chunk's own lambda_max is
    # smaller; the next float below it does not warn
    d, n, trials = 3, 20, 64
    inst = MetaInstance.from_config(d, 1.0, 1.0)
    seed = SeedSpec(25)
    top = bidiagonal_spectra(wishart_chi(seed, n, d, 0, trials), n, d)[:, 0]
    # workers=2 draws the two 32-trial chunks on two threads, one of them
    # below the top
    assert min(top[:trials // 2].max(), top[trials // 2:].max()) < top.max()
    limit = 2.0 / float(top.max())
    for eta, warned in ((limit, 1), (float(np.nextafter(limit, 0.0)), 0)):
        alg = AlgSpec("gd_step", GdStepSpec(eta, 10), np.zeros(d))
        for workers in (1, 2):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                (est,) = mc_excess_risk_many([alg], inst, n, trials, seed, workers=workers)
            assert len(caught) == warned
            # the warning names the line that called mc_excess_risk_many
            assert all(w.filename == __file__ for w in caught)
            assert est.nonfinite == 0


@pytest.mark.parametrize("entry", ["mc_excess_risk_many", "mc_excess_risk",
                                   "sample_complexity_search"])
def test_step_limit_warning_names_the_caller(entry):
    # however deep the calls inside risk.py and convex.py run, the stability
    # warning names the first frame outside them: the line here that called
    # the entry point
    d, seed = 6, SeedSpec(54)
    inst = MetaInstance.from_config(d, 1.0, 1.0)
    alg = AlgSpec("gd_step", GdStepSpec(5.0, 2), np.zeros(d))
    calls = {"mc_excess_risk_many": lambda: mc_excess_risk_many([alg], inst, 12, 8, seed),
             "mc_excess_risk": lambda: mc_excess_risk(alg, inst, 12, 8, seed),
             "sample_complexity_search": lambda: sample_complexity_search(
                 [alg], inst, 0.1, [12, 24], 8, seed)}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        calls[entry]()
    assert len(caught) == (2 if entry == "sample_complexity_search" else 1)
    assert all(w.filename == __file__ for w in caught), [w.filename for w in caught]


def test_pool_split_rule(monkeypatch):
    # a call with a gd_step or gd2_reg runs min(workers, chunks) threads,
    # one task per whole _CHUNK-trial chunk (the last one short); one that
    # scores only gd_reg learners, whose trace loop holds the interpreter
    # lock, runs inline at any worker count, as does a one-chunk call. The
    # estimates are those of workers=1, bit for bit
    c, pools, calls = risk._CHUNK, [], []
    draw = risk._draw

    class Pool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    def counted(algs, inst, n, seed, lo, hi):
        calls.append((lo, hi, threading.current_thread() is threading.main_thread()))
        return draw(algs, inst, n, seed, lo, hi)

    monkeypatch.setattr(risk, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(risk, "_draw", counted)
    inst = MetaInstance.from_config(3, 1.0, 1.0)
    for workers in (1, 2, 4):
        mc_excess_risk_many([_reg_alg(0.0, 3), _reg_alg(0.5, 3)], inst, 5, 3 * c, SeedSpec(26),
                            workers=workers)
    assert pools == [] and calls == [(lo, lo + c, True) for lo in (0, c, 2 * c)] * 3
    calls.clear()
    for d in (1, 3):
        inst = MetaInstance.from_config(d, 1.0, 1.0)
        reg, step = _reg_alg(0.5, d), AlgSpec("gd_step", GdStepSpec(0.05, 10), np.zeros(d))
        spiked = AlgSpec("gd2_reg", GdRegSpec(1.0), SpikedIdentity(inst.w_star, 3.0, 0.1))
        for algs in ([reg, step, spiked], [step], [reg, spiked]):
            for n in (1, 7):
                for trials in (2, c, c + 1, 2 * c, 100):
                    seed = SeedSpec(27).child(d, n, trials)
                    chunks = [(lo, min(lo + c, trials)) for lo in range(0, trials, c)]
                    serial = mc_excess_risk_many(algs, inst, n, trials, seed)
                    assert pools == [] and calls == [(lo, hi, True) for lo, hi in chunks]
                    calls.clear()
                    for workers in (2, 3, 4):
                        threads = min(workers, len(chunks))
                        assert mc_excess_risk_many(algs, inst, n, trials, seed, workers) == serial
                        assert pools == ([threads] if threads > 1 else [])
                        assert sorted(call[:2] for call in calls) == chunks
                        assert all(inline == (threads == 1) for *_, inline in calls)
                        pools.clear()
                        calls.clear()


def test_search_trivial_epsilon_takes_first_point():
    inst = MetaInstance.from_config(4, 1.0, 1.0)
    found = sample_complexity_search([_reg_alg(1.0, 4)], inst,
                                     epsilon=2.1, n_grid=[2, 4], trials=50,
                                     seed=SeedSpec(11))
    assert found == [2]


def test_search_none_when_unreachable():
    inst = MetaInstance.from_config(10, 1.0, 1.0)
    found = sample_complexity_search([_reg_alg(1.0, 10)], inst,
                                     epsilon=1e-6, n_grid=[3, 6], trials=50,
                                     seed=SeedSpec(12))
    assert found == [None]


def test_search_grid_validation():
    inst = MetaInstance.from_config(3, 1.0, 1.0)
    with pytest.raises(ValueError):
        sample_complexity_search([_reg_alg(1.0, 3)], inst, 0.1, [],
                                 50, SeedSpec(13))
    with pytest.raises(ValueError):
        sample_complexity_search([_reg_alg(1.0, 3)], inst, 0.1, [5, 5],
                                 50, SeedSpec(13))


@pytest.mark.parametrize("epsilon", [0.0, -0.1, math.nan, math.inf])
def test_search_epsilon_validation(epsilon):
    inst = MetaInstance.from_config(3, 1.0, 1.0)
    with pytest.raises(ValueError, match="epsilon"):
        sample_complexity_search([_reg_alg(1.0, 3)], inst, epsilon, [2, 4], 50, SeedSpec(13))


def test_search_builder_validation():
    inst = MetaInstance.from_config(3, 1.0, 1.0)
    with pytest.raises(ValueError):
        sample_complexity_search([], inst, 0.1, [2, 4], 50, SeedSpec(13))


def _collector():
    points = []
    return points, lambda n, scored: points.append((n, dict(scored)))


def test_search_points_equal_solo_estimates():
    # every algorithm's point at grid index idx is its own estimate on
    # seed.child(idx), bit for bit: the paired search changes which
    # designs are shared, not what a point is
    d = 6
    inst = MetaInstance.from_config(d, 1.0, 1.0)
    algs = [_reg_alg(lam, d) for lam in (0.0, 0.1, 1.0)]
    algs.append(AlgSpec("gd2_reg", GdRegSpec(10.0 ** 1.5), SpikedIdentity(inst.w_star, 10.0, 0.1)))
    grid, seed = [4, 8, 16], SeedSpec(14)
    points, collect = _collector()
    found = sample_complexity_search(algs, inst, 1e-6, grid, 40, seed,
                                     workers=2, collect=collect)
    assert found == [None] * len(algs)
    assert [n for n, _ in points] == grid
    for idx, (n, scored) in enumerate(points):
        assert sorted(scored) == list(range(len(algs)))
        for j, alg in enumerate(algs):
            assert scored[j] == mc_excess_risk(alg, inst, n, 40, seed.child(idx))


def test_search_resolved_algorithm_stops_collecting():
    # OLS (lam = 0) reaches eps at n = 32 (risk sigma^2 d / (n - d - 1) =
    # 0.148); lam = 100 keeps a bias near r^2 and never does. It goes on
    # alone, on the draws it would have had in company
    d = 4
    inst = MetaInstance.from_config(d, 1.0, 1.0)
    algs = [_reg_alg(0.0, d), _reg_alg(100.0, d)]
    grid, seed = [8, 16, 32, 64], SeedSpec(15)
    points, collect = _collector()
    found = sample_complexity_search(algs, inst, 0.2, grid, 400, seed,
                                     collect=collect)
    assert found == [32, None]
    assert [(n, sorted(scored)) for n, scored in points] == [
        (8, [0, 1]), (16, [0, 1]), (32, [0, 1]), (64, [1])]
    n, scored = points[-1]
    assert scored[1] == mc_excess_risk(algs[1], inst, n, 400, seed.child(3))
    # and the search stops at the first grid point where none is open
    points, collect = _collector()
    assert sample_complexity_search(algs[:1], inst, 0.2, grid, 400, seed,
                                    collect=collect) == [32]
    assert [n for n, _ in points] == [8, 16, 32]


def test_estimator_rejects_unspiked_first_layer():
    # gd2_reg is scored only on a SpikedIdentity along +-w_star / r with
    # lam > 0: a dense layer (even the same matrix), a spike along e2 and
    # lam = 0 are ValueErrors; the spike along -w_hat is the same layer
    d = 5
    inst = MetaInstance.from_config(d, 2.0, 0.5)
    w_hat = inst.w_star / inst.r
    a0 = np.eye(d) + 0.3 * gaussian_matrix(SeedSpec(16), d, d)
    for first in (a0, SpikedIdentity(w_hat, 3.0, 0.1).to_dense(),
                  SpikedIdentity(np.eye(d)[1], 3.0, 0.1)):
        with pytest.raises(ValueError, match="SpikedIdentity along"):
            mc_excess_risk(AlgSpec("gd2_reg", GdRegSpec(0.3), first), inst, 7, 3, SeedSpec(17))
    with pytest.raises(ValueError, match="needs lam > 0"):
        mc_excess_risk(AlgSpec("gd2_reg", GdRegSpec(0.0), SpikedIdentity(w_hat, 3.0, 0.1)),
                       inst, 7, 3, SeedSpec(17))
    plus, minus = (mc_excess_risk(AlgSpec("gd2_reg", GdRegSpec(0.3), SpikedIdentity(v, 3.0, 0.1)),
                                  inst, 7, 3, SeedSpec(17)) for v in (w_hat, -w_hat))
    assert plus == minus


@pytest.mark.parametrize("d", [1, 2, 7, 50])
def test_spiked_risk_matches_predictor_matrices(d):
    # each trial's E[excess | mu, z] from the rank-one form equals
    # ||(P X - I) w*||^2 + sigma^2 ||P||_F^2 with the oracle's explicit
    # predictor matrix on the same design, whose (mu, z) come from eigh;
    # the grid covers n < d - 1, n = d - 1, n = d, n > d, d = 1, alpha = kappa
    # and kappa = 0, where the unused overflow form of kd divides by zero
    inst = MetaInstance.from_config(d, 1.3, 0.7)
    r2, sigma2 = inst.r ** 2, inst.sigma ** 2
    w_hat = inst.w_star / inst.r
    worst = 0.0
    for n in sorted({1, 5, max(d - 1, 1), d, d + 1, 300}):
        for alpha, kappa in ((1e4, 0.1), (30.0, 0.1), (3.0, 0.5), (1.0, 1.0), (3.0, 0.0)):
            for lam in (alpha ** 1.5, 0.3):
                alg = AlgSpec("gd2_reg", GdRegSpec(lam), SpikedIdentity(w_hat, alpha, kappa))
                for t in range(2):
                    x = gaussian_matrix(SeedSpec(18).child(d, n, t), n, d)
                    p, _ = oracles.predictor_matrices(alg, x)
                    err = (p @ x - np.eye(d)) @ inst.w_star
                    reference = err @ err + sigma2 * np.sum(p * p)
                    # W = X_r X_r^T from the columns off w_hat = e1, and z = U^T x1
                    mu, u = np.linalg.eigh(x[:, 1:] @ x[:, 1:].T)
                    z = u.T @ x[:, 0]
                    closed = _spiked_risk(alg, mu[None], z[None], n, r2, sigma2)[0]
                    worst = max(worst, abs(closed - reference) / reference)
    assert worst <= 1e-12


@pytest.mark.parametrize("d, n", [(7, 3), (3, 5)])
def test_estimator_rejects_overflowing_kappa_squared(d, n):
    # kappa = 1e160 is a finite bulk whose square is not: a domain error at
    # either shape, not a limit at (7, 3) and a NumericalError at (3, 5)
    inst = MetaInstance.from_config(d, 1.0, 1.0)
    alg = AlgSpec("gd2_reg", GdRegSpec(1.0), SpikedIdentity(inst.w_star / inst.r, 10.0, 1e160))
    with pytest.raises(ValueError, match="finite kappa\\^2"):
        mc_excess_risk(alg, inst, n, 40, SeedSpec(19))


@pytest.mark.parametrize("family", ["gd_step", "gd_reg"])
def test_estimator_rejects_a_bad_convex_init(family):
    # a w0 of the wrong shape, with a NaN, or whose ||w0||^2 overflows is a
    # domain error naming w0, not an estimate or a "stability limit" failure
    d = 3
    inst = MetaInstance.from_config(d, 1.0, 1.0)
    params = GdStepSpec(0.1, 3) if family == "gd_step" else GdRegSpec(0.0)
    good = AlgSpec(family, params, np.zeros(d))
    for w0 in (np.ones(d + 1), np.ones((d, 1)), np.array([np.nan, 0.0, 0.0]),
               np.full(d, 1e200)):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="^w0 must have shape \\(3,\\) and a finite"):
                mc_excess_risk_many([good, AlgSpec(family, params, w0)], inst, 3, 4, SeedSpec(1))


@pytest.mark.parametrize("d, n", [(7, 3), (3, 5)])
def test_spiked_risk_where_kappa_squared_mu_overflows(d, n):
    # at kappa = 1e154, kappa^2 mu / n overflows for most nonzero mu; the
    # risk is then at its large-kappa limit, which kappa = 1e150 already
    # reads. (3, 5) has n - d + 1 = 3 zero mu per trial, (7, 3) none
    inst = MetaInstance.from_config(d, 1.0, 1.0)
    w_hat = inst.w_star / inst.r
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        big, huge = (mc_excess_risk(AlgSpec("gd2_reg", GdRegSpec(1.0),
                                            SpikedIdentity(w_hat, 10.0, kappa)),
                                    inst, n, 400, SeedSpec(19)) for kappa in (1e150, 1e154))
        # at lam = 0.01, kappa^2 / (n lam) overflows as well: kd is inf at a
        # zero mu, where e is exactly 0, so the risk is finite at (3, 5) too;
        # at (7, 3) every mu is nonzero
        small_lam = AlgSpec("gd2_reg", GdRegSpec(0.01), SpikedIdentity(w_hat, 10.0, 1e154))
        est = mc_excess_risk(small_lam, inst, n, 40, SeedSpec(19))
        assert math.isfinite(est.mean) and math.isfinite(est.stderr) and est.nonfinite == 0
    assert huge.nonfinite == 0
    assert abs(huge.mean - big.mean) <= 1e-12 * big.mean
    assert abs(huge.stderr - big.stderr) <= 1e-12 * big.stderr
