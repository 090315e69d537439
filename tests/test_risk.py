import math
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from metasep import oracles, risk
from metasep.convex import GdRegSpec, GdStepSpec
from metasep.linalg import NumericalError, SpikedIdentity
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
def test_sweep_over_inits_matches_solo_estimates(n, trials):
    # a sweep scores each distinct convex learner once and adds each init's
    # term: every estimate equals its solo call bit for bit, one of them
    # past the stability limit (inf from w0 = 0 too, not NaN), and the call
    # warns once per divergent gd_step algorithm, as the solo calls do
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


@pytest.mark.parametrize("n,d", [(1, 1), (1, 5), (5, 1), (3, 7), (49, 50), (50, 50),
                                 (51, 50), (900, 50), (300, 200)])
def test_ridge_risks_match_spectral_form(n, d):
    # gd_reg's trace recurrence against the spectral form on the SVD
    # spectrum of the same chi draws, from w0 = 0 and w0 = 3 g, relative
    # per trial. For lam > 0 (1e200 puts the power-of-two scaling to work)
    # the bound is 1e-12. lam = 0 has its own reason for a bound: S is
    # singular for n < d and ill-conditioned near n = d, where a pivot
    # recurrence that cancels loses digits (the plain one lost 5e-11 at
    # n = d = 50). The differential form cancels nothing, so its bound at
    # lam = 0 is 1e-12 as well (worst seen 2.2e-15 over five seeds)
    inst = MetaInstance.from_config(d, 1.3, 0.7)
    r2, sigma2, k = inst.r ** 2, inst.sigma ** 2, min(n, d)
    chi = wishart_chi(SeedSpec(34).child(n, d), n, d, 0, 64)
    spectra = bidiagonal_spectra(chi, n, d)
    g = gaussian_vector(SeedSpec(35), d)
    for w0 in (np.zeros(d), 3.0 * g):
        lams = (0.0, 0.1, 1.0, 1e3, 1e200)
        algs = [_reg_alg(lam, d, w0) for lam in lams]
        traced = risk._ridge_risks(algs, chi[:, :k], chi[:, k:], d, n, r2, sigma2)
        for j, (lam, alg) in enumerate(zip(lams, algs)):
            spectral = risk._with_init(risk._convex_risk(alg.params, spectra, d, n, r2, sigma2),
                                       w0, d)
            worst = float(np.max(np.abs(traced[j] - spectral) / spectral))
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
    # an entry is None exactly when no algorithm needs it
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
        for subset, needed in (([reg], (0,)), ([step], (1,)), ([spiked], (2, 3)),
                               ([reg, step], (0, 1))):
            draws = risk._draw(subset, inst, n, seed, 5, 3 * c - 5)
            for i, (part, full) in enumerate(zip(draws, wide)):
                assert (part is None) == (i not in needed)
                assert part is None or np.array_equal(part, full)


def test_ridge_risk_at_d_1000():
    # d = 1000, n = 20000, where a dense SVD per trial costs about 0.7 s:
    # at lam = 0 the mean is sigma^2 d / (n - d - 1) exactly, and at
    # lam = d / n it stays above the exact convex bound
    d, n = 1000, 20000
    inst = MetaInstance.from_config(d, 1.0, 1.0)
    ols, ridge = mc_excess_risk_many([_reg_alg(0.0, d), _reg_alg(d / n, d)], inst, n, 64,
                                     SeedSpec(39))
    assert abs(ols.mean - d / (n - d - 1)) <= 4.0 * ols.stderr
    assert ridge.mean + 3.0 * ridge.stderr >= convex_lower_bound_exact(d, n, 1.0, 1.0)


def test_ols_risk_matches_exact_value():
    # lam = 0 with n > d + 1: E ||(X^T X)^{-1} X^T noise||^2 = sigma^2 d / (n - d - 1)
    d, n = 10, 30
    inst = MetaInstance.from_config(d, 1.0, 1.0)
    est = mc_excess_risk(_reg_alg(0.0, d), inst, n, 400, SeedSpec(23))
    assert abs(est.mean - d / (n - d - 1)) <= 4.0 * est.stderr


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
                est = mc_excess_risk(alg, inst, n, trials, seed, workers=workers)
            assert len(caught) == warned
            assert est.nonfinite == 0


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
        # zero mu, whose e is NaN, a numerical failure at (3, 5); at (7, 3)
        # every mu is nonzero and the risk finite
        small_lam = AlgSpec("gd2_reg", GdRegSpec(0.01), SpikedIdentity(w_hat, 10.0, 1e154))
        if n < d:
            assert math.isfinite(mc_excess_risk(small_lam, inst, n, 40, SeedSpec(19)).mean)
        else:
            with pytest.raises(NumericalError, match="40 of 40 trial excess risks are not finite"):
                mc_excess_risk(small_lam, inst, n, 40, SeedSpec(19))
    assert huge.nonfinite == 0
    assert abs(huge.mean - big.mean) <= 1e-12 * big.mean
    assert abs(huge.stderr - big.stderr) <= 1e-12 * big.stderr
