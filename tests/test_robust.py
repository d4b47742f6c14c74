import numpy as np
import pytest

from coreclust.geometry import InputError, PointSet, metric_from_points
from coreclust.robust import (
    RobustParams,
    exhaustive_provider,
    exhaustive_robust_median,
    metric_snap_median,
    robust_sample_size,
    sampled_robust_median,
    snap_alpha,
    verify_robust_median,
)
from coreclust.sampling import SampleParams


def pts1d(values):
    return PointSet(np.asarray(values, dtype=float).reshape(-1, 1))


class TestVerify:
    def test_optimal_candidate_passes(self):
        P = pts1d([0, 1, 2, 3])
        params = RobustParams(gamma=1.0, eps=0.0, alpha=1.0, beta=1)
        rep = verify_robust_median(P, np.array([[1.0]]), params,
                                   candidates=P.points)
        assert rep.passed
        assert rep.max_discrepancy <= 1.0 + 1e-9

    def test_line_trimmed_optimum_is_four(self):
        P = pts1d([0, 1, 2, 3])
        params = RobustParams(1.0, 0.0, 1.0, 1)
        rep = verify_robust_median(P, np.array([[1.0]]), params, P.points)
        assert rep.details["trimmed_opt"] == 4.0
        assert rep.passed

    def test_far_center_fails(self):
        P = pts1d([0, 1, 2, 3])
        params = RobustParams(1.0, 0.0, 1.0, 1)
        rep = verify_robust_median(P, np.array([[3.0]]), params, P.points)
        assert not rep.passed  # cost 6 > alpha * 4

    def test_zero_trim_rejected(self):
        # only zero total weight can make the trim count vanish
        P = PointSet(np.array([[0.0], [1.0]]), multiplicity=np.array([0, 0]))
        with pytest.raises(InputError):
            verify_robust_median(P, np.array([[0.0]]),
                                 RobustParams(0.5, 0.5, 1.0, 1), P.points)

    def test_beta_cap(self):
        P = pts1d([0, 1, 2])
        with pytest.raises(InputError):
            verify_robust_median(P, P.points, RobustParams(1.0, 0.0, 1.0, 1),
                                 P.points)

    def test_monotone_in_eps(self):
        # a passing check keeps passing as eps grows (smaller trim set)
        rng = np.random.default_rng(0)
        P = PointSet(rng.normal(size=(25, 2)))
        Y = P.points[:2]
        prev = np.inf
        for eps in (0.0, 0.1, 0.3, 0.6):
            rep = verify_robust_median(
                P, Y, RobustParams(0.8, eps, 2.0, 2), P.points)
            assert rep.details["trimmed_cost_Y"] <= prev + 1e-12
            prev = rep.details["trimmed_cost_Y"]

    def test_trim_set_size_exact(self):
        P = pts1d(np.arange(10))
        rep = verify_robust_median(P, np.array([[0.0]]),
                                   RobustParams(0.7, 0.2, 5.0, 1), P.points)
        assert rep.details["trim_count_G"] == np.ceil((1 - 0.2) * 0.7 * 10)


class TestExhaustive:
    def test_identical_points(self):
        P = pts1d([4, 4, 4])
        res = exhaustive_robust_median(P, RobustParams(1.0, 0.0, 1.0),
                                       candidates=P.points)
        assert res.trimmed_cost == 0.0
        assert res.centers.ravel().tolist() == [4.0]

    def test_three_quarters_trim(self):
        P = pts1d([0, 1, 2, 3])
        res = exhaustive_robust_median(P, RobustParams(0.75, 0.0, 1.0),
                                       candidates=P.points)
        assert res.centers.ravel().tolist() == [1.0]
        assert res.trimmed_cost == 2.0  # closest three of center 1: 0+1+1

    def test_singleton(self):
        P = pts1d([9.0])
        res = exhaustive_robust_median(P, RobustParams(1.0, 0.0, 1.0), P.points)
        assert res.centers.ravel().tolist() == [9.0]

    def test_empty_candidates(self):
        with pytest.raises(InputError):
            exhaustive_robust_median(pts1d([0.0]), RobustParams(1.0, 0.0, 1.0),
                                     candidates=np.empty((0, 1)))

    def test_always_passes_verification_at_alpha_one(self):
        rng = np.random.default_rng(1)
        for trial in range(15):
            P = PointSet(rng.normal(size=(int(rng.integers(4, 20)), 2)))
            gamma = float(rng.uniform(0.4, 1.0))
            eps = float(rng.uniform(0.0, 0.3))
            params = RobustParams(gamma, eps, 1.0, 1)
            res = exhaustive_robust_median(P, params, candidates=P.points)
            rep = verify_robust_median(
                P, res.centers,
                RobustParams((1 - eps) * gamma, eps, 1.0, 1), P.points)
            assert rep.passed, f"trial {trial}: ratio {rep.max_discrepancy}"


class TestMetricSnap:
    def test_single_point(self):
        P = pts1d([3, 3, 3])
        res = metric_snap_median(P)
        rep = verify_robust_median(P, res.centers,
                                   RobustParams(1.0, 0.0, 2.0, len(P)),
                                   P.points)
        assert rep.passed

    def test_whole_sample_zero_cost(self):
        P = pts1d([0, 1, 10])
        res = metric_snap_median(P)
        rep = verify_robust_median(P, res.centers,
                                   RobustParams(1.0, 0.0, 2.0, 3), P.points)
        assert rep.details["trimmed_cost_Y"] == 0.0

    def test_alpha_two_on_random_metric_instances(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            coords = rng.normal(size=(20, 2))
            metric = metric_from_points(coords)
            P = PointSet(np.arange(20), metric=metric)
            sub = PointSet(np.sort(rng.choice(20, size=8, replace=False)),
                           metric=metric)
            res = metric_snap_median(sub)
            rep = verify_robust_median(
                sub, res.centers, RobustParams(0.75, 0.1, res.alpha, 8),
                candidates=P.points)
            assert rep.passed

    def test_rejects_powered(self):
        with pytest.raises(InputError):
            metric_snap_median(pts1d([0, 1]), z=2)
        assert snap_alpha(2) == 4.0


class TestSampledReduction:
    def test_sample_everything_transfers(self):
        P = pts1d(np.arange(6))
        params = RobustParams(0.75, 0.2, 1.0, 1)
        res = sampled_robust_median(P, params, seed=0,
                                    provider=exhaustive_provider,
                                    sp=SampleParams(0.2, 0.1, 2, c=1.0))
        assert res.centers.shape == (1, 1)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        P = PointSet(rng.normal(size=(300, 2)))
        params = RobustParams(0.75, 0.25, 1.0, 1)
        sp = SampleParams(0.25, 0.1, 3, c=1.0)
        a = sampled_robust_median(P, params, 7, exhaustive_provider, sp)
        b = sampled_robust_median(P, params, 7, exhaustive_provider, sp)
        assert np.array_equal(a.centers, b.centers)

    def test_monte_carlo_guarantee(self):
        # output is a (gamma, 4 eps, alpha)-median of F in >= 80% of seeds
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(1000, 2))
        P = PointSet(pts)
        params = RobustParams(0.75, 0.1, 1.0, 1)
        # c = 0.005 gives t = 472 draws: below n, so every seed samples
        sp = SampleParams(0.1, 0.1, 3, c=0.005)
        assert robust_sample_size(params, sp) < len(P)
        passed = 0
        for seed in range(50):
            res = sampled_robust_median(P, params, seed,
                                        exhaustive_provider, sp)
            rep = verify_robust_median(
                P, res.centers, RobustParams(0.75, 0.4, 1.0, 1),
                candidates=pts)
            passed += rep.passed
        assert passed >= 40, f"only {passed}/50 passed"
