import math

import numpy as np
import pytest

from metasep import oracles
from metasep.convex import GdRegSpec, GdStepSpec
from metasep.linalg import SpikedIdentity
from metasep.rng import SeedSpec, gaussian_matrix, gaussian_vector
from metasep.risk import (AlgSpec, RiskEstimate, convex_lower_bound_exact,
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
    # every estimate is finite, nonnegative and the same on a thread pool,
    # and no convex one falls confidently below the exact convex bound
    inst = MetaInstance.from_config(d, 1.0, sigma)
    w_hat = inst.w_star / inst.r
    algs = [_reg_alg(0.0, d), _reg_alg(0.5, d),
            AlgSpec("gd_step", GdStepSpec(0.05, 10), inst.w_star.copy()),
            AlgSpec("gd2_reg", GdRegSpec(3.0 ** 1.5), SpikedIdentity(w_hat, 3.0, 0.1)),
            AlgSpec("gd2_reg", GdRegSpec(1.0), SpikedIdentity(w_hat, 1.0, 1.0))]
    seed = SeedSpec(8).child(d, n, int(sigma))
    serial = mc_excess_risk_many(algs, inst, n, 8, seed)
    assert mc_excess_risk_many(algs, inst, n, 8, seed, workers=3) == serial
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
        solo = mc_excess_risk(alg, inst, 8, 60, SeedSpec(3))
        assert solo.mean == est.mean


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
    # the raw sampler draws the sign and the noise that the estimator
    # averages out, on the same designs; the means must agree
    d = 8
    inst = MetaInstance.from_config(d, 1.0, 1.0)
    g = gaussian_vector(SeedSpec(20), d)
    algs = []
    for w0 in (np.zeros(d), inst.w_star.copy(), 3.0 * g / np.linalg.norm(g)):
        algs += [_reg_alg(lam, d, w0) for lam in (0.0, 0.1, 1.0)]
        algs.append(AlgSpec("gd_step", GdStepSpec(0.1, 30), w0))
    dense = gaussian_matrix(SeedSpec(21), d, d)
    algs.append(AlgSpec("gd2_reg", GdRegSpec(30.0 ** 1.5), SpikedIdentity(inst.w_star, 30.0, 0.1)))
    algs.append(AlgSpec("gd2_reg", GdRegSpec(0.5), dense @ dense.T / d + 0.5 * np.eye(d)))
    exact = mc_excess_risk_many(algs, inst, n, 400, SeedSpec(22))
    raw = oracles.mc_excess_risk_raw(algs, inst, n, 400, SeedSpec(22))
    for alg, e, r in zip(algs, exact, raw):
        assert abs(e.mean - r.mean) <= 4.0 * math.hypot(e.stderr, r.stderr), alg.label()
        assert e.stderr <= r.stderr, alg.label()


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


def test_nonsymmetric_first_layer_risk_matches_predictor():
    # E[excess | X] with Q = A^T M^-1 A, M = A S A^T + lam I, against
    # ||(P X - I) w*||^2 + sigma^2 ||P||_F^2 from the oracle's explicit
    # predictor matrix, on the same designs, for a non-symmetric A
    d, n, trials = 5, 7, 3
    inst = MetaInstance.from_config(d, 1.0, 0.5)
    a0 = np.eye(d) + 0.3 * gaussian_matrix(SeedSpec(16), d, d)
    alg = AlgSpec("gd2_reg", GdRegSpec(0.3), a0)
    seed = SeedSpec(17)
    values = []
    for t in range(trials):
        x = gaussian_matrix(seed.child(t, 1, 0), n, d)
        p, _ = oracles.predictor_matrices(alg, x)
        err = (p @ x - np.eye(d)) @ inst.w_star
        values.append(err @ err + inst.sigma ** 2 * np.sum(p * p))
    est = mc_excess_risk(alg, inst, n, trials, seed)
    assert est.mean == pytest.approx(np.mean(values), rel=1e-10)
    assert est.stderr == pytest.approx(np.std(values, ddof=1) / math.sqrt(trials), rel=1e-8)

