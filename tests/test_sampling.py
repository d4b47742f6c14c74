import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coreclust.geometry import InputError
from coreclust.sampling import (
    SampleParams,
    eps_approx_sample_size,
    verify_function_eps_approx,
    verify_range_eps_approx,
)


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


def _range_loop(values, sample_idx):
    """The per-column loop verify_range_eps_approx used before the shared
    threshold scan: (max discrepancy, column, threshold)."""
    v = values[:, None] if values.ndim == 1 else values
    n, q = v.shape
    s = len(sample_idx)
    best = (-1.0, 0, 0.0)
    for j in range(q):
        col = np.sort(v[:, j])
        sub = np.sort(v[sample_idx, j])
        thresholds = np.unique(col)
        thresholds = np.concatenate([[thresholds[0] - 1.0], thresholds])
        cf = np.searchsorted(col, thresholds, side="right") / n
        cs = np.searchsorted(sub, thresholds, side="right") / s
        disc = np.abs(cf - cs)
        i = int(disc.argmax())
        if disc[i] > best[0]:
            best = (float(disc[i]), j, float(thresholds[i]))
    return best


def _function_loop(values, sample_idx):
    """The per-threshold loop verify_function_eps_approx used before the
    shared threshold scan: (max discrepancy, column, threshold, flagged)."""
    v = values[:, None] if values.ndim == 1 else values
    n, q = v.shape
    s = len(sample_idx)
    best = (-1.0, 0, 0.0)
    flagged = []
    for j in range(q):
        col = np.sort(v[:, j])
        sub = np.sort(v[sample_idx, j])
        cum_f = np.concatenate([[0.0], np.cumsum(col)])
        cum_s = np.concatenate([[0.0], np.cumsum(sub)])
        for r in np.unique(col):
            costf = cum_f[np.searchsorted(col, r, side="right")] / n
            costs = cum_s[np.searchsorted(sub, r, side="right")] / s
            gap = abs(costf - costs)
            if r <= 0:
                if gap > 0:
                    flagged.append((j, float(r)))
                continue
            norm = gap / r
            if norm > best[0]:
                best = (float(norm), j, float(r))
    return (max(best[0], 0.0), best[1], best[2], flagged)


@st.composite
def value_tables(draw):
    """Small tables of tied, zero, negative and fractional values (one column
    as a 1-d array half the time) with a sample of their rows."""
    n = draw(st.integers(1, 12))
    q = draw(st.integers(1, 4))
    cell = st.one_of(st.sampled_from([0.0, 0.0, 1.0, 2.0, -1.0]),
                     st.floats(-5, 5, allow_nan=False))
    values = np.array(draw(st.lists(cell, min_size=n * q, max_size=n * q)),
                      dtype=float).reshape(n, q)
    if q == 1 and draw(st.booleans()):
        values = values[:, 0]
    sample = np.array(draw(st.lists(st.integers(0, n - 1), min_size=1,
                                    max_size=10)), dtype=np.intp)
    return values, sample


class TestThresholdScan:
    """Both verifiers share one column scan; every report field matches the
    loops each verifier used to run on its own."""

    @settings(max_examples=300, deadline=None)
    @given(table=value_tables(), eps=st.sampled_from([0.0, 0.1, 0.5]))
    def test_matches_the_old_loops(self, table, eps):
        values, sample = table
        rep = verify_range_eps_approx(values, sample, eps)
        disc, col, r = _range_loop(values, sample)
        assert (rep.max_discrepancy, rep.argmax_x, rep.argmax_r) == (disc, col, r)
        assert rep.passed == (disc <= eps + 1e-12)
        # a subnormal threshold overflows gap / r to inf in both
        with np.errstate(over="ignore"):
            rep = verify_function_eps_approx(values, sample, eps)
            disc, col, r, flagged = _function_loop(values, sample)
        assert (rep.max_discrepancy, rep.argmax_x, rep.argmax_r) == (disc, col, r)
        assert rep.details["flagged_zero_ranges"] == flagged
        assert rep.passed == (disc <= eps + 1e-12 and not flagged)

    def test_negative_values_are_flagged(self):
        # a range at r <= 0 whose cost sums differ breaks the invariant
        rep = verify_function_eps_approx(np.array([-1.0, 0.0, 2.0]),
                                         np.array([2]), 0.5)
        assert rep.details["flagged_zero_ranges"] == [(0, -1.0), (0, 0.0)]
        assert not rep.passed


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
