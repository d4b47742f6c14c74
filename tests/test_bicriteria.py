import math
import types

import numpy as np
import pytest

import coreclust
import coreclust.bicriteria as bicriteria_module
import coreclust.geometry as geometry
from coreclust.bicriteria import (
    MedianProvider,
    bicriteria,
    make_metric_provider,
    metric_kmedian_beta,
    metric_kmedian_bicriteria,
    peel_bicriteria,
)
from coreclust.geometry import (
    InputError,
    Metric,
    PointSet,
    cost,
    metric_from_points,
    nearest_center,
    weighted_sum,
)
from coreclust.sampling import rng_for
from coreclust.solvers import brute_force_k_median, constant_factor_metric_kmedian


def check_partition(res, n):
    total = np.zeros(n)
    for r in res.rounds:
        total[r.indices] += r.amounts
    assert np.allclose(total, 1.0), "rounds must consume every point exactly once"


class TestPeelEngine:
    def test_multi_round_partition_and_bounds(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(1500, 2))
        provider = make_metric_provider(k=2, beta=40)
        res = peel_bicriteria(pts, np.ones(1500), Metric(), eps_internal=0.05,
                              provider=provider, rng=rng_for(1, 1))
        assert len(res.rounds) >= 2  # guard 10/0.05 = 200 < 1500: real peeling
        check_partition(res, 1500)
        assert len(res.rounds) <= math.ceil(math.log2(1500))
        assert res.n_centers <= res.center_bound()

    def test_rounds_remove_specified_counts(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(1000, 2))
        eps = 0.05
        provider = make_metric_provider(k=1, beta=25)
        res = peel_bicriteria(pts, np.ones(1000), Metric(), eps,
                              provider=provider, rng=rng_for(2, 1))
        remaining = 1000.0
        for r in res.rounds[:-1]:
            expected = math.ceil((1 - 5 * eps) * 0.75 * remaining - 1e-12)
            assert r.amounts.sum() == pytest.approx(expected)
            remaining -= expected
        assert remaining < 10 / eps  # guard stops the loop

    @pytest.mark.parametrize("explicit", [False, True])
    def test_the_result_is_whole(self, explicit):
        # the final nearest-center pass runs at the input's weights, which
        # the peeling leaves as they were
        rng = np.random.default_rng(5)
        coords = rng.normal(size=(400, 2))
        metric = metric_from_points(coords) if explicit else Metric()
        pts = np.arange(400) if explicit else coords
        weights = rng.integers(1, 4, 400).astype(float)
        given = weights.copy()
        res = peel_bicriteria(pts, weights, metric, eps_internal=0.05,
                              provider=make_metric_provider(k=2, beta=20),
                              rng=rng_for(3, 1))
        assert len(res.rounds) >= 2
        assert np.array_equal(weights, given)
        idx, dz = nearest_center(metric, pts, res.B)
        assert np.array_equal(res.assignment, idx)
        assert res.total_cost == float(weighted_sum(dz, given))


def test_the_package_keeps_the_module_name():
    # the package used to export the function under the module's name
    assert isinstance(coreclust.bicriteria, types.ModuleType)
    assert coreclust.bicriteria is bicriteria_module
    assert bicriteria_module.bicriteria is bicriteria


class TestBicriteria:
    def test_identical_points(self):
        P = PointSet(np.zeros((50, 2)))
        res = metric_kmedian_bicriteria(P, k=1, eps=0.5, delta=0.1, seed=0)
        assert res.total_cost == 0.0
        assert np.all(res.B == 0.0)

    def test_round_count_bound_n1024(self):
        rng = np.random.default_rng(2)
        P = PointSet(rng.normal(size=(1024, 1)))
        res = metric_kmedian_bicriteria(P, k=1, eps=1.0, delta=0.1, seed=3,
                                        beta=30)
        peel_rounds = len(res.rounds) - 1
        assert peel_rounds <= 10  # halving argument at n = 1024

    def test_uniform_line_within_three_of_opt(self):
        # (1 + eps) * alpha = 1.5 * 2 = 3 at eps = 0.5
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            pts = np.sort(rng.uniform(0, 1, size=500)).reshape(-1, 1)
            P = PointSet(pts)
            res = metric_kmedian_bicriteria(P, k=1, eps=0.5, delta=0.1,
                                            seed=seed)
            opt = brute_force_k_median(P, 1, candidates=pts).cost
            assert res.total_cost <= 3.0 * opt + 1e-9, f"seed {seed}"

    def test_partition_exact_every_run(self):
        rng = np.random.default_rng(3)
        for seed in range(5):
            pts = rng.normal(size=(200, 2))
            P = PointSet(pts)
            res = metric_kmedian_bicriteria(P, k=2, eps=0.4, delta=0.1,
                                            seed=seed, beta=15)
            check_partition(res, 200)
            assert res.n_centers <= res.center_bound()

    def test_total_cost_consistency(self):
        rng = np.random.default_rng(4)
        P = PointSet(rng.normal(size=(120, 2)))
        res = metric_kmedian_bicriteria(P, k=2, eps=0.3, delta=0.1, seed=9)
        assert res.total_cost == pytest.approx(cost(P, res.B), rel=1e-12)

    def test_seed_reproducibility(self):
        rng = np.random.default_rng(5)
        P = PointSet(rng.normal(size=(300, 2)))
        a = metric_kmedian_bicriteria(P, 2, 0.3, 0.1, seed=11, beta=20)
        b = metric_kmedian_bicriteria(P, 2, 0.3, 0.1, seed=11, beta=20)
        assert np.array_equal(a.B, b.B)
        assert a.total_cost == b.total_cost
        assert len(a.rounds) == len(b.rounds)


class TestMetricKMedian:
    def test_separated_clusters_hit_every_cluster(self):
        rng = np.random.default_rng(6)
        centers = np.array([[0.0, 0.0], [40.0, 0.0], [0.0, 40.0]])
        pts = np.concatenate(
            [c + 0.1 * rng.normal(size=(8, 2)) for c in centers])
        P = PointSet(pts)
        res = metric_kmedian_bicriteria(P, k=3, eps=0.3, delta=0.1, seed=1)
        opt = brute_force_k_median(P, 3, candidates=pts).cost
        assert res.total_cost <= (2 + 0.3) * opt + 1e-9

    def test_k_equals_n(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(12, 2))
        P = PointSet(pts)
        res = metric_kmedian_bicriteria(P, k=12, eps=0.3, delta=0.1, seed=2)
        assert res.total_cost == 0.0

    def test_k_too_large(self):
        P = PointSet(np.zeros((3, 1)))
        with pytest.raises(InputError):
            metric_kmedian_bicriteria(P, k=4, eps=0.3, delta=0.1, seed=0)

    def test_beta_formula(self):
        assert metric_kmedian_beta(3, 0.3, 0.1, 1.0) == math.ceil(
            (3 + math.log(20)) / 0.3 ** 4)

    def test_explicit_metric_mode(self):
        rng = np.random.default_rng(8)
        coords = rng.normal(size=(30, 2))
        from coreclust.geometry import metric_from_points
        metric = metric_from_points(coords)
        P = PointSet(np.arange(30), metric=metric)
        res = metric_kmedian_bicriteria(P, k=2, eps=0.4, delta=0.1, seed=4)
        assert set(np.asarray(res.B).tolist()) <= set(range(30))
        opt = brute_force_k_median(P, 2, candidates=P.points).cost
        assert res.total_cost <= (2 + 0.4) * opt + 1e-9

    def test_terminal_local_search_replays(self, monkeypatch):
        # n = 100 is below the guard 10 / (eps/100) = 1000, so no peeling
        # round runs; the residue has 100 > beta distinct points and
        # C(100, 3) > PIPELINE_BRUTE_LIMIT, so the terminal runs local search
        import coreclust.solvers as solvers
        calls = []
        search = solvers.weighted_local_search

        def counting(*args, **kwargs):
            calls.append(kwargs.get("seed"))
            return search(*args, **kwargs)

        monkeypatch.setattr(solvers, "weighted_local_search", counting)
        P = PointSet(np.random.default_rng(12).normal(size=(100, 2)))
        a = metric_kmedian_bicriteria(P, k=3, eps=1.0, delta=0.1, seed=6,
                                      beta=5)
        b = metric_kmedian_bicriteria(P, k=3, eps=1.0, delta=0.1, seed=6,
                                      beta=5)
        assert len(calls) == 2 and calls[0] == calls[1]
        assert len(a.rounds) == 1
        assert len(a.B) <= 3
        assert np.array_equal(a.B, b.B)
        assert a.total_cost == b.total_cost


class TestAssignment:
    """bicriteria() keeps the nearest-center pass that gives total_cost, and
    the constant-factor step projects with it instead of a second pass.
    Points that are centers skip the kernel in both passes, with the bits of
    the full pass.  These sets hold fewer than SKIP_CENTERS centers, so the
    tests that reach the skip patch the threshold down."""

    # the tie kinds put two sites at computed distance 0 (a zero between two
    # ids of the matrix, a coordinate that squares to 0), or write one site
    # with both signs of zero; their many copies bring both sites into B
    KINDS = ["euclidean", "explicit-matrix", "matrix-tie", "tiny", "signed-zero"]

    @staticmethod
    def repeated_points(kind):
        # 1,500 points on 200 sites: above the guard 10 / (eps/100) = 1,000
        # at eps = 1, so the peeling loop runs
        rng = np.random.default_rng(31)
        coords = rng.normal(size=(200, 2))
        rows = np.concatenate([np.arange(200), rng.integers(0, 200, 1300)])
        if kind in ("matrix-tie", "tiny", "signed-zero"):
            rows = np.concatenate([rows, np.repeat([0, 1], 300)])
            rng.shuffle(rows)
            coords[0], coords[1] = {"matrix-tie": (coords[1], coords[1]),
                                    "tiny": ((1e-300, 0.0), (0.0, 0.0)),
                                    "signed-zero": ((0.0, 0.5), (-0.0, 0.5))}[kind]
        if kind in ("euclidean", "tiny", "signed-zero"):
            return PointSet(coords[rows])
        return PointSet(rows, metric=metric_from_points(coords))

    @staticmethod
    def skip_none(m):
        """Have nearest_center send every point through the kernel."""
        m.setattr(geometry, "center_index",
                  lambda metric, points, centers: np.full(len(points), -1))

    @staticmethod
    def skip_all(m):
        """Have nearest_center skip the kernel for points equal to a center
        of any set, however small."""
        m.setattr(geometry, "SKIP_CENTERS", 1)

    def full_pass(self, monkeypatch, P, z):
        """The run with every point sent through the kernel."""
        with monkeypatch.context() as m:
            self.skip_none(m)
            return metric_kmedian_bicriteria(P, k=3, eps=1.0, delta=0.1, seed=2,
                                             z=z, beta=12)

    @pytest.mark.parametrize("kind", ["matrix-tie", "tiny", "signed-zero"])
    @pytest.mark.parametrize("z", [1.0, 2.0])
    def test_the_center_skip_is_the_all_kernel_pass(self, kind, z, monkeypatch):
        P = self.repeated_points(kind)
        # the first 300 rows repeat sites, both tie sites among them
        centers = P.points[:300]
        if kind == "matrix-tie":
            assert np.isin([0, 1], centers).all()
        elif kind == "tiny":
            assert {1e-300, 0.0} <= set(centers[centers[:, 1] == 0.0, 0])
        else:
            signs = np.signbit(centers[centers[:, 1] == 0.5, 0])
            assert len(np.unique(signs)) == 2
        lookup, hits = geometry.center_index, []

        def recording(metric, points, centers):
            hits.append(int((lookup(metric, points, centers) >= 0).sum()))
            return lookup(metric, points, centers)

        with monkeypatch.context() as m:
            self.skip_all(m)
            m.setattr(geometry, "center_index", recording)
            idx, dz = nearest_center(P.metric, P.points, centers, z)
        # the explicit metric and a center coordinate of 1e-300 keep every
        # point in the kernel; the signed-zero kind skips 1,677 of 2,100
        assert (hits[0] > 0) == (kind == "signed-zero")
        with monkeypatch.context() as m:
            self.skip_none(m)
            full = nearest_center(P.metric, P.points, centers, z)
        assert np.array_equal(idx, full[0])
        assert dz.tobytes() == full[1].tobytes()

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("z", [1.0, 2.0])
    def test_assignment_is_the_nearest_center_pass(self, kind, z, monkeypatch):
        P = self.repeated_points(kind)
        with monkeypatch.context() as m:
            self.skip_all(m)
            res = metric_kmedian_bicriteria(P, k=3, eps=1.0, delta=0.1,
                                            seed=2, z=z, beta=12)
        assert len(res.rounds) > 1 and len(res.B) < len(P)
        idx, dz = nearest_center(P.metric, P.points, res.B, z)
        assert res.assignment.dtype == idx.dtype
        assert np.array_equal(res.assignment, idx)
        assert res.total_cost == float(weighted_sum(dz, P.multiplicity.astype(float)))
        assert res.total_cost == cost(P, res.B, z)
        full = self.full_pass(monkeypatch, P, z)
        assert res.total_cost == full.total_cost
        assert np.array_equal(res.B, full.B)
        assert len(res.rounds) == len(full.rounds)
        for r, f in zip(res.rounds, full.rounds):
            assert np.array_equal(r.indices, f.indices)
            assert r.amounts.tobytes() == f.amounts.tobytes()
            assert np.array_equal(r.centers, f.centers)
        # the tie kinds reach their case: a center point whose nearest center
        # is an earlier one, or a center point written with the other zero
        if kind in ("matrix-tie", "tiny"):
            same = P.points[:, None] == res.B[None]
            same = same if same.ndim == 2 else same.all(axis=2)
            own = np.where(same.any(axis=1), same.argmax(axis=1), -1)
            assert np.any(idx < own)
        if kind == "signed-zero":
            assert len(np.unique(np.signbit(P.points[:, 0]))) == 2
            assert np.any((res.B == (0.0, 0.5)).all(axis=1))

    @pytest.mark.parametrize("Y, message", [
        (np.zeros((2, 3)), "dimension mismatch: points are 2-D, centers 3-D"),
        (np.empty((0, 2)), "center set must be nonempty")])
    def test_a_bad_draw_raises_what_the_full_pass_raised(self, Y, message):
        provider = MedianProvider(draw=lambda points, weights, metric, rng: Y,
                                  alpha=1.0, beta=2)
        with pytest.raises(InputError, match=message):
            bicriteria(self.repeated_points("euclidean"), eps=1.0,
                       provider=provider, seed=1)

    def test_constant_factor_makes_one_pass_over_the_input(self, monkeypatch):
        import coreclust.solvers as solvers

        P = self.repeated_points("euclidean")
        bics, calls = [], []
        pairwise, bicrit = geometry.pairwise_dist, solvers.metric_kmedian_bicriteria

        def counting(metric, points, centers, **kwargs):
            calls.append((np.array(points), np.array(centers)))
            return pairwise(metric, points, centers, **kwargs)

        def capture(*args, **kwargs):
            bics.append(bicrit(*args, **kwargs))
            return bics[-1]

        self.skip_all(monkeypatch)
        monkeypatch.setattr(geometry, "pairwise_dist", counting)
        monkeypatch.setattr(solvers, "metric_kmedian_bicriteria", capture)
        constant_factor_metric_kmedian(P, k=3, eps=1.0, delta=0.1, seed=2,
                                       beta=12)
        (bic,) = bics

        def is_center(rows):
            return (rows[:, None, :] == bic.B[None]).all(axis=2).any(axis=1)

        # the input's pass against B; the solver's tables hold only centers
        against_B = [p for p, c in calls
                     if np.array_equal(c, bic.B) and not is_center(p).all()]
        assert not any(is_center(p).any() for p in against_B)
        assert (sum(len(p) for p in against_B)
                == np.count_nonzero(~is_center(P.points)) > 0)


class TestGenericProvider:
    def test_custom_single_center_provider(self):
        # a provider that always proposes the weighted medoid of its input
        def draw(points, weights, metric, rng):
            from coreclust.geometry import pairwise_dist
            d = pairwise_dist(metric, points, points)
            return points[[int((weights @ d).argmin())]]

        provider = MedianProvider(draw=draw, alpha=1.0, beta=1)
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(400, 2))
        res = bicriteria(PointSet(pts), eps=1.0, provider=provider, seed=5)
        check_partition(res, 400)
        assert res.n_centers <= res.center_bound()
        opt = brute_force_k_median(PointSet(pts), 1, candidates=pts).cost
        assert res.total_cost <= 2.0 * 1.0 * opt  # (1+eps) alpha with slack
