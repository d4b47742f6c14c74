import numpy as np
import pytest

from coreclust.geometry import InputError, PointSet, pairwise_dist
from coreclust.sampling import (
    SampleParams,
    eps_approx_sample_size,
    iid_sample,
    verify_function_eps_approx,
    verify_range_eps_approx,
    weighted_iid_sample,
)


def pts1d(values, mult=None):
    return PointSet(np.asarray(values, dtype=float).reshape(-1, 1),
                    multiplicity=mult)


class TestSampleSize:
    def test_small(self):
        assert eps_approx_sample_size(SampleParams(0.5, 0.5, 1, 1.0)) == 7

    def test_large(self):
        assert eps_approx_sample_size(SampleParams(0.1, 0.1, 10, 1.0)) == 1231

    def test_linear_in_dim(self):
        lo = eps_approx_sample_size(SampleParams(0.999, 0.5, 10, 1.0))
        hi = eps_approx_sample_size(SampleParams(0.999, 0.5, 1000, 1.0))
        assert 90 <= hi / lo <= 110

    def test_validation(self):
        with pytest.raises(InputError):
            SampleParams(1.5, 0.1, 1)
        with pytest.raises(InputError):
            SampleParams(0.1, 0.0, 1)
        with pytest.raises(InputError):
            SampleParams(0.1, 0.1, 0)
        with pytest.raises(InputError):
            SampleParams(0.1, 0.1, 1, c=-1.0)


class TestIidSample:
    def test_singleton(self):
        s = iid_sample(pts1d([7.0]), 5, seed=3)
        assert len(s) == 5
        assert np.all(s.points == 7.0)

    def test_empty_sample_allowed(self):
        assert len(iid_sample(pts1d([1, 2]), 0, seed=0)) == 0

    def test_deterministic(self):
        P = pts1d(np.arange(50))
        a = iid_sample(P, 20, seed=11)
        b = iid_sample(P, 20, seed=11)
        assert np.array_equal(a.points, b.points)

    def test_respects_multiplicity(self):
        P = pts1d([0, 1], mult=np.array([1, 9]))
        s = iid_sample(P, 5000, seed=1)
        frac = float(np.mean(s.points == 1.0))
        assert abs(frac - 0.9) < 0.02


class TestWeightedSample:
    def test_equal_weights_uniform(self):
        P = pts1d(np.arange(4))
        _, idx = weighted_iid_sample(P, np.ones(4, dtype=int), 8000, seed=2)
        counts = np.bincount(idx, minlength=4) / 8000
        assert np.all(np.abs(counts - 0.25) < 0.02)

    def test_zero_weight_rejected(self):
        P = pts1d([0, 1])
        with pytest.raises(InputError):
            weighted_iid_sample(P, np.array([5, 0]), 10, seed=0)

    def test_one_to_three_ratio(self):
        P = pts1d([0, 1])
        _, idx = weighted_iid_sample(P, np.array([1, 3]), 100_000, seed=4)
        frac = float(np.mean(idx == 1))
        assert abs(frac - 0.75) <= 0.02

    def test_draw_records_point_back(self):
        P = pts1d([5, 6, 7])
        s, idx = weighted_iid_sample(P, np.array([1, 1, 1]), 50, seed=5)
        assert np.array_equal(s.points, P.points[idx])


class TestRangeApprox:
    def test_self_is_exact(self):
        rng = np.random.default_rng(6)
        values = rng.uniform(size=(30, 5))
        rep = verify_range_eps_approx(values, np.arange(30), eps=1e-6)
        assert rep.passed and rep.max_discrepancy == 0.0

    def test_four_values_quarter_gap(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        rep = verify_range_eps_approx(values, np.array([1, 3]), eps=0.2)
        assert rep.max_discrepancy == pytest.approx(0.25)
        assert rep.argmax_r == pytest.approx(1.0)
        assert not rep.passed

    def test_empty_sample_rejected(self):
        with pytest.raises(InputError):
            verify_range_eps_approx(np.ones(4), np.array([], dtype=int), 0.1)

    def test_json_fields(self):
        rep = verify_range_eps_approx(np.arange(4.0), np.array([0, 2]), 0.5)
        d = rep.to_dict()
        for key in ("max_discrepancy", "argmax_x", "argmax_r", "pass",
                    "params", "seed"):
            assert key in d


@pytest.mark.parametrize("verify", [verify_range_eps_approx,
                                    verify_function_eps_approx])
@pytest.mark.parametrize("bad", [-1, 10])
def test_sample_index_outside_the_table_is_rejected(verify, bad):
    # -1 used to wrap to the last item and 10 to end in an IndexError
    values = np.arange(10.0)
    with pytest.raises(InputError, match="sample indices out of range"):
        verify(values, np.array([0, bad]), 0.5)


class TestFunctionApprox:
    def test_self_is_exact(self):
        rng = np.random.default_rng(7)
        values = rng.uniform(size=(30, 4))
        rep = verify_function_eps_approx(values, np.arange(30), eps=1e-9)
        assert rep.passed and rep.max_discrepancy == 0.0

    def test_singleton(self):
        rep = verify_function_eps_approx(np.array([2.0]), np.array([0]), 0.01)
        assert rep.passed and rep.max_discrepancy == 0.0

    def test_zero_ranges_skipped(self):
        values = np.array([0.0, 0.0, 1.0])
        rep = verify_function_eps_approx(values, np.array([0, 2]), eps=0.5)
        assert rep.details["flagged_zero_ranges"] == []

    def test_five_eps_transfer_on_random_instances(self):
        # a counting-eps-approximation is a cost approximation at 5x the eps
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(10, 60))
            values = rng.uniform(size=(n, 3)) ** 2
            size = int(rng.integers(3, n))
            idx = rng.choice(n, size=size, replace=False)
            eps_range = verify_range_eps_approx(values, idx, 1.0).max_discrepancy
            func = verify_function_eps_approx(values, idx, 1.0).max_discrepancy
            assert func <= 5.0 * max(eps_range, 1e-12) + 1e-9


class TestStatisticalGuarantee:
    def test_sampled_eps_approximations_mostly_pass(self):
        # fraction of failing samples stays below delta + slack for the
        # unknown constant (calibrated c recorded by the acceptance suite)
        rng = np.random.default_rng(9)
        pts = rng.uniform(0, 1, size=200)
        centers = np.linspace(0, 1, 12)
        values = np.abs(pts[:, None] - centers[None, :])
        eps = delta = 0.2
        t = eps_approx_sample_size(SampleParams(eps, delta, dim=2, c=1.0))
        fails = 0
        trials = 120
        for trial in range(trials):
            idx = np.random.default_rng(1000 + trial).integers(0, 200, size=t)
            rep = verify_range_eps_approx(values, idx, eps)
            fails += not rep.passed
        assert fails / trials <= delta + 0.1
