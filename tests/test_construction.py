from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coreclust.construction import (
    FunctionFamily,
    StaticCoreset,
    b_coreset,
    identity_approximation,
    k_median_coreset,
    metric_b_coreset,
    metric_function_family,
    nonneg_sample_size,
    weighted_family_sampler,
)
import coreclust.geometry as geometry
from coreclust.geometry import (
    EXACT_MAX_WIDTH,
    MATRIX,
    InputError,
    Metric,
    PointSet,
    cost,
    pairwise_dist,
)
from coreclust.sampling import rng_for


def pts1d(values):
    return PointSet(np.asarray(values, dtype=float).reshape(-1, 1))


def slow_static_cost(core, centers):
    """Independent re-implementation of static coreset evaluation."""
    total = 0.0
    for p, w in zip(core.points, core.weights):
        if core.metric.is_euclidean:
            d = min(float(np.linalg.norm(np.asarray(p) - np.asarray(c)))
                    for c in np.atleast_2d(centers))
        else:
            d = min(float(core.metric.matrix[p, c]) for c in np.atleast_1d(centers))
        total += w * d ** core.z
    return total


def slow_threshold_cost(core, centers):
    """Independent re-implementation of threshold coreset evaluation."""
    def dz(point):
        if core.metric.is_euclidean:
            return min(float(np.linalg.norm(np.asarray(point) - np.asarray(c)))
                       for c in np.atleast_2d(centers)) ** core.z
        return min(float(core.metric.matrix[point, c])
                   for c in np.atleast_1d(centers)) ** core.z

    total = 0.0
    for p, w, tau, cen in zip(core.sampled_points, core.sampled_weights,
                              core.sampled_tau, core.sampled_center):
        if dz(core.proj_points[cen]) <= tau:
            total += w * dz(p)
    for j, b in enumerate(core.proj_points):
        d = dz(b)
        masses = np.diff(core.proj_cum_mass[j])
        for tau, mass in zip(core.proj_tau[j], masses):
            if d > tau:
                total += mass * d
    return total


def line_family(values, thresholds=None, m=None, pair_to=None):
    """1-D distance family handy for exact checks."""
    vals = np.asarray(values, dtype=float)
    paired_vals = vals if pair_to is None else np.asarray(pair_to, dtype=float)

    def evaluate(x):
        return np.abs(vals - x)

    def paired(x):
        return np.abs(paired_vals - x)

    threshold = None
    if thresholds is not None:
        tau = np.asarray(thresholds, dtype=float)
        threshold = lambda x: tau
    return FunctionFamily(size=len(vals), evaluate=evaluate, paired=paired,
                          threshold=threshold, m=m)


class TestGenericBCoreset:
    def test_identity_collapse_exact(self):
        rng = np.random.default_rng(0)
        vals = rng.normal(size=9)
        fam = line_family(vals)   # s = +inf, m = 1
        core = b_coreset(fam, eps=0.5)   # S = G
        for x in rng.normal(size=40):
            want = float(np.abs(vals - x).sum())
            assert core.cost(x) == pytest.approx(want, rel=1e-13)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_identity_collapse_is_exact_on_any_family(self, data):
        # under the identity sample S = G, the cost is the paired value of
        # every item past its threshold plus the value of every other item
        n = data.draw(st.integers(1, 30))
        reals = st.floats(-1e6, 1e6)
        vals = data.draw(st.lists(reals, min_size=n, max_size=n))
        m = data.draw(st.lists(st.integers(1, 20), min_size=n, max_size=n))
        tau = data.draw(st.none() | st.lists(
            st.floats(0, 1e6) | st.just(np.inf), min_size=n, max_size=n))
        proj = data.draw(st.none() | st.lists(reals, min_size=n, max_size=n))
        core = b_coreset(line_family(vals, thresholds=tau, m=np.asarray(m),
                                     pair_to=proj), eps=0.5)
        for x in data.draw(st.lists(reals, min_size=1, max_size=5)):
            f = np.abs(np.asarray(vals) - x)
            fp = f if proj is None else np.abs(np.asarray(proj) - x)
            over = fp > (np.inf if tau is None else np.asarray(tau))
            want = float(fp[over].sum() + f[~over].sum())
            assert abs(core.cost(x) - want) <= 1e-12 * want

    def test_identity_collapse_is_exact_on_subnormal_values(self):
        # f / m_f would round a subnormal value; the per-item weight does not
        vals = np.array([0.0, 2.2250738585e-313])
        core = b_coreset(line_family(vals, m=np.array([1, 4])), eps=0.5)
        assert core.cost(0.0) == 2.2250738585e-313

    def test_all_mass_to_thresholded_part(self):
        vals = np.array([1.0, 2.0, 5.0])
        fam = line_family(vals, thresholds=np.zeros(3))
        core = b_coreset(fam, eps=0.5)
        for x in (-3.0, 0.0, 7.0):
            if np.all(np.abs(vals - x) > 0):
                assert core.cost(x) == pytest.approx(float(np.abs(vals - x).sum()))

    def test_error_decomposition_zero_with_full_sample(self):
        vals = np.array([0.0, 1.0, 2.0, 3.5, 9.0])
        proj = np.array([0.0, 0.0, 3.0, 3.0, 9.0])
        tau = np.array([2.0, 2.0, 1.0, 1.0, 4.0])
        m = np.array([1, 2, 1, 3, 1])
        fam = line_family(vals, thresholds=tau, m=m, pair_to=proj)
        core = b_coreset(fam, eps=0.25)   # exact identity sample
        for x in np.linspace(-2, 12, 100):
            f, fp, s = np.abs(vals - x), np.abs(proj - x), tau
            outside = fp > s
            lhs = abs(float(f.sum()) - core.cost(x))
            bound = float(np.abs(f - fp)[outside].sum())
            assert lhs <= bound + 1e-12

    def test_instance_error_bound_with_verified_sample(self):
        # measure the sample's cost-approximation quality inside the weighted
        # family directly, then check the two-term bound at that quality
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(18, 2))
        P = PointSet(pts)
        B = pts[:3]
        eps = 0.4
        fam = metric_function_family(P, B, eps=eps)
        t = 60
        core = b_coreset(fam, eps, eps_approx=weighted_family_sampler(t), seed=7)
        queries = [pts[rng.choice(18, 2, replace=False)] for _ in range(50)]

        m = fam.m
        g_total = int(m.sum())
        eps_meas = 0.0
        for x in queries:
            f, fp, s = fam.f(x), fam.f_paired(x), fam.s(x)
            g = np.where(fp > s, 0.0, f / m)
            cost_g = float((m * g).sum()) / g_total
            cost_s = float(g[core.sample].sum()) / len(core.sample)
            top = float(g.max())
            if top > 0:
                eps_meas = max(eps_meas, abs(cost_g - cost_s) / top)
        for x in queries:
            f, fp, s = fam.f(x), fam.f_paired(x), fam.s(x)
            inside = fp <= s
            assert np.all(f[inside] <= 2 * s[inside] + 1e-9)
            lhs = abs(cost(P, x) - core.cost(x))
            bound = float(np.abs(f - fp)[~inside].sum())
            if np.any(inside):
                bound += 2 * eps_meas * float((s[inside] / m[inside]).max()) * g_total
            assert lhs <= bound + 1e-9


class TestMetricThresholdCoreset:
    def test_importance_weights_all_equal(self):
        P = pts1d([0, 2, 4])
        core = metric_b_coreset(P, np.array([[1.0], [3.0], [5.0]]), t=3,
                                eps=0.5, seed=0)
        # all base distances 1: m = ceil(3*1/3) + 1 = 2 for everyone
        from coreclust.construction import _importance_weights
        m, _, _ = _importance_weights(np.ones(3), np.ones(3))
        assert m.tolist() == [2, 2, 2]

    def test_importance_weights_one_one_two(self):
        from coreclust.construction import _importance_weights
        m, _, _ = _importance_weights(np.ones(3), np.array([1.0, 1.0, 2.0]))
        assert m.tolist() == [2, 2, 3]

    def test_exact_when_data_equals_anchors(self):
        P = pts1d([0, 5, 9])
        core = metric_b_coreset(P, P.points, t=2, eps=0.3, seed=1)
        assert core.provenance.get("degenerate")
        for x in (-1.0, 4.0, 20.0):
            q = np.array([[x]])
            assert core.cost(q) == pytest.approx(cost(P, q), rel=1e-12)

    def test_matches_family_route(self):
        # the point-level construction and the abstract family construction
        # are the same algorithm, with one threshold (projection_threshold)
        # at every z; with shared draws they agree exactly
        for z in (1.0, 1.5, 2.0):
            rng = np.random.default_rng(3)
            pts = rng.normal(size=(14, 2))
            P = PointSet(pts)
            B = pts[:2]
            eps, t = 0.5, 25
            fam = metric_function_family(P, B, eps=eps, z=z)
            draws = rng_for(42, 4).choice(14, size=t, replace=True,
                                          p=fam.m / fam.m.sum())
            core = metric_b_coreset(P, B, t=t, eps=eps, z=z, draws=draws)
            bc = b_coreset(fam, eps, eps_approx=lambda f, r: draws)
            for _ in range(25):
                x = pts[rng.choice(14, 2, replace=False)]
                assert core.cost(x) == pytest.approx(bc.cost(x), rel=1e-11), z

    def test_slow_oracle_agreement(self):
        rng = np.random.default_rng(4)
        for trial in range(10):
            pts = rng.normal(size=(12, 2))
            P = PointSet(pts)
            B = pts[rng.choice(12, 2, replace=False)]
            core = metric_b_coreset(P, B, t=8, eps=0.4, seed=trial)
            x = pts[rng.choice(12, 2, replace=False)]
            assert core.cost(x) == pytest.approx(slow_threshold_cost(core, x),
                                                 rel=1e-11)

    @pytest.mark.parametrize("metric", ["euclidean", "explicit"])
    def test_cost_is_the_per_target_search_bit_for_bit(self, metric):
        # cost finds every target's active mass with one search over all
        # thresholds; the reference searches target by target, as cost did
        # before.  Each target gets copies at tau == d (inactive: side
        # "left"), one target has no copies, and queries at the anchors put
        # d = 0 on targets whose copies sit at tau = 0
        import dataclasses
        from coreclust.geometry import (metric_from_points, nearest_center,
                                        weighted_sum)
        rng = np.random.default_rng(11)
        pts = np.round(rng.normal(size=(400, 2)), 1)
        P, B = PointSet(pts), pts[:40]
        if metric == "explicit":
            P, B = PointSet(np.arange(400), metric=metric_from_points(pts)), \
                np.arange(40)
        core = metric_b_coreset(P, B, t=30, eps=0.5, seed=3)

        def per_target(core, x):
            _, dzc = nearest_center(core.metric, core.proj_points, x, core.z)
            active = dzc[core.sampled_center] <= core.sampled_tau
            total = cost((core.sampled_points[active],
                          core.sampled_weights[active], core.metric), x,
                         core.z) if np.any(active) else 0.0
            mass = [cum[np.searchsorted(tau, d, side="left")]
                    for tau, cum, d in zip(core.proj_tau, core.proj_cum_mass,
                                           dzc)]
            return total + float(weighted_sum(dzc, np.asarray(mass)))

        queries = [B[:3], B[5:6]] + [P.points[rng.choice(400, 3, replace=False)]
                                     for _ in range(8)]
        for x in queries:
            assert core.cost(x) == per_target(core, x)
            _, dzc = nearest_center(core.metric, core.proj_points, x, core.z)
            tau = [np.sort(np.concatenate([t, [d, d]]))
                   for t, d in zip(core.proj_tau, dzc)]
            cum = [np.concatenate([c, c[-1] + rng.uniform(1, 2, 2).cumsum()])
                   for c in core.proj_cum_mass]
            tau[1], cum[1] = np.empty(0), np.zeros(1)
            tied = dataclasses.replace(core, proj_tau=tau, proj_cum_mass=cum)
            assert tied.cost(x) == per_target(tied, x)

    @pytest.mark.parametrize("metric", ["euclidean", "explicit"])
    def test_projected_copies_match_the_per_anchor_loop(self, metric):
        # reference: the per-anchor loop the builder used before its one
        # lexsort, bit for bit, with ties in tau, multiplicities and an
        # anchor that serves no point
        from coreclust.geometry import metric_from_points, nearest_center
        rng = np.random.default_rng(8)
        pts = np.round(rng.normal(size=(300, 2)), 1)
        mult = rng.integers(1, 4, size=300)
        B = np.concatenate([pts[:6], [[50.0, 50.0]]])
        P = PointSet(pts, multiplicity=mult)
        if metric == "explicit":
            pts = np.concatenate([pts, B[-1:]])
            P = PointSet(np.arange(300), metric=metric_from_points(pts),
                         multiplicity=mult)
            B = np.array([0, 1, 2, 3, 4, 5, 300])
        draws = rng.integers(0, 300, size=40)
        core = metric_b_coreset(P, B, t=40, eps=0.3, z=1.5, draws=draws)

        w = mult.astype(float)
        idx, dzB = nearest_center(P.metric, P.points, B, 1.5)
        tau = dzB / 0.3 ** 1.5
        used = np.unique(idx)
        assert len(used) < len(B) and len(np.unique(tau)) < len(tau)
        remap = np.full(len(B), -1, dtype=np.intp)
        remap[used] = np.arange(len(used))
        proj_tau, proj_cum = [], []
        for u in used:
            members = np.flatnonzero(idx == u)
            order = np.argsort(tau[members], kind="stable")
            proj_tau.append(tau[members][order])
            proj_cum.append(np.concatenate([[0.0], np.cumsum(w[members][order])]))

        assert np.array_equal(core.proj_points, B[used])
        assert len(core.proj_tau) == len(core.proj_cum_mass) == len(used)
        for got, ref in zip(core.proj_tau + core.proj_cum_mass,
                            proj_tau + proj_cum):
            assert got.tobytes() == ref.tobytes()
        assert np.array_equal(core.sampled_center, remap[idx[draws]])
        assert core.sampled_tau.tobytes() == tau[draws].tobytes()


class TestKMedianCoreset:
    def test_weight_sum_identity(self):
        rng = np.random.default_rng(5)
        for trial in range(10):
            n = int(rng.integers(20, 120))
            pts = rng.normal(size=(n, 2))
            P = PointSet(pts)
            B = pts[rng.choice(n, 3, replace=False)]
            eps = float(rng.uniform(0.05, 0.5))
            core = k_median_coreset(P, B, t=30, eps=eps, seed=trial)
            expected = core.provenance["inflation"] * n
            assert core.total_weight == pytest.approx(expected, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 80), anchors=st.integers(1, 5), t=st.integers(1, 60),
           eps=st.floats(0.01, 0.99), z=st.sampled_from([1.0, 2.0]),
           signed=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_weight_sum_is_inflation_times_n(self, n, anchors, t, eps, z,
                                             signed, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(n, 2))
        w = rng.uniform(0.1, 5.0, n)
        if signed:
            w *= rng.choice([-1.0, 1.0], n)
        B = pts[rng.choice(n, min(anchors, n), replace=False)]
        core = k_median_coreset((pts, w, Metric()), B, t=t, eps=eps, z=z,
                                seed=seed)
        # the degenerate path (every point on an anchor) has no inflation
        expected = core.provenance.get("inflation", 1.0) * w.sum()
        scale = np.abs(core.weights).sum() + np.abs(w).sum()
        assert abs(core.total_weight - expected) <= 1e-12 * scale

    def test_empty_anchor_set_rejected(self):
        P = pts1d([0, 1, 2])
        for build in (k_median_coreset, metric_b_coreset):
            with pytest.raises(InputError):
                build(P, np.empty((0, 1)), t=3, eps=0.2, seed=0)

    def test_anchor_correction_arithmetic(self):
        # cluster of mass 4, inflation factor f: w(b) = f*4 - sampled weight
        pts = np.array([[0.0], [0.1], [-0.1], [0.2], [50.0]])
        P = PointSet(pts)
        B = np.array([[0.0], [50.0]])
        core = k_median_coreset(P, B, t=6, eps=0.2, seed=3)
        infl = core.provenance["inflation"]
        assert infl == pytest.approx(1.0 + 0.2 / 2)
        sampled_w = core.weights[:6]
        sampled_pts = core.points[:6]
        in_first = np.abs(sampled_pts.ravel()) < 10
        expect_b0 = infl * 4 - sampled_w[in_first].sum()
        assert core.weights[6] == pytest.approx(expect_b0, rel=1e-12)

    def test_degenerate_exact(self):
        P = pts1d([1, 1, 7])
        core = k_median_coreset(P, np.array([[1.0], [7.0]]), t=5, eps=0.1,
                                seed=0)
        assert core.provenance.get("degenerate")
        assert core.weights.tolist() == [2.0, 1.0]

    def test_coreset_size(self):
        rng = np.random.default_rng(6)
        P = PointSet(rng.normal(size=(40, 2)))
        B = P.points[:4]
        core = k_median_coreset(P, B, t=17, eps=0.2, seed=1)
        assert len(core) == 17 + 4

    def test_slow_oracle_agreement(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            pts = rng.normal(size=(15, 3))
            P = PointSet(pts)
            B = pts[rng.choice(15, 2, replace=False)]
            core = k_median_coreset(P, B, t=10, eps=0.3, seed=trial)
            x = pts[rng.choice(15, 2, replace=False)]
            assert core.cost(x) == pytest.approx(
                slow_static_cost(core, x), rel=1e-11)

    def test_signed_input_weight_sum(self):
        pts = np.arange(8.0).reshape(-1, 1)
        w = np.array([1.0, 2.0, -0.5, 1.0, 3.0, 1.0, -0.25, 2.0])
        from coreclust.geometry import Metric
        core = k_median_coreset((pts, w, Metric()), np.array([[0.0], [7.0]]),
                                t=12, eps=0.2, seed=5)
        assert core.total_weight == pytest.approx(
            core.provenance["inflation"] * w.sum(), rel=1e-9)

    def test_all_unit_weights_cover_points(self):
        P = pts1d([0, 1, 2])
        core = k_median_coreset(P, P.points, t=3, eps=0.2, seed=0)
        # degenerate: anchors with unit masses reproduce the data exactly
        q = np.array([[0.7]])
        assert core.cost(q) == pytest.approx(cost(P, q))


class TestPowerZ:
    def test_tight_cluster_threshold_route_near_exact(self):
        # far queries leave every sampled threshold inactive; the projected
        # copies sit almost on the data, so the powered cost is near exact
        rng = np.random.default_rng(8)
        pts = 0.01 * rng.normal(size=(30, 2))
        P = PointSet(pts)
        B = pts[:1]
        core = metric_b_coreset(P, B, t=40, eps=0.3, z=2.0, seed=1)
        x = np.array([[5.0, 5.0]])
        assert core.cost(x) == pytest.approx(cost(P, x, z=2), rel=0.02)

    def test_identity_path_exact(self):
        vals = np.linspace(0, 1, 7)
        P = pts1d(vals)
        core = k_median_coreset(P, P.points, t=7, eps=0.2, seed=0)
        # anchors reproduce everything: squared-cost queries exact
        q = np.array([[0.33]])
        assert core.cost(q) == pytest.approx(cost(P, q), rel=1e-12)

    def test_default_sample_size_uses_power_scaling(self):
        from coreclust.construction import power_z_sample_size
        t1 = power_z_sample_size(0.5, 2.0, dim=4, k=2, delta=0.1)
        t2 = power_z_sample_size(0.25, 2.0, dim=4, k=2, delta=0.1)
        assert t2 / t1 == pytest.approx((0.5 / 0.25) ** 4, rel=0.01)


class TestNonnegBound:
    def test_formula(self):
        import math
        t = nonneg_sample_size(3, 0.2, 0.1, c=4.0)
        want = math.ceil((2 * 4 * 3 / 0.04) * (3 * math.log(3) + math.log(10)))
        assert t == want


class TestSizes:
    def test_threshold_coreset_size_is_t_plus_n(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(23, 2))
        P = PointSet(pts)
        core = metric_b_coreset(P, pts[:3], t=9, eps=0.3, seed=2)
        assert len(core) == 9 + 23
        assert len(core.proj_points) <= 3  # compressed by projection target

    def test_static_deterministic_per_seed(self):
        rng = np.random.default_rng(10)
        pts = rng.normal(size=(30, 2))
        P = PointSet(pts)
        a = k_median_coreset(P, pts[:2], t=11, eps=0.2, seed=8)
        b = k_median_coreset(P, pts[:2], t=11, eps=0.2, seed=8)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.weights, b.weights)


# ---------------------------------------------------------------------------
# cost queries on one static coreset: its prepared walk
# ---------------------------------------------------------------------------

def query_coreset(kind, z, seed):
    """A static coreset with a negative weight and a query drawer: Euclidean
    at d = 2 (the exact form), at d = 16 (the exact form, and the dot form
    for sets wider than EXACT_MAX_WIDTH) or an asymmetric explicit matrix
    holding -0.0."""
    rng = np.random.default_rng(seed)
    if kind == "matrix":
        D = np.round(rng.uniform(0.0, 5.0, size=(60, 60)), 1)
        D[:, :3] = [0.0, -0.0, 0.0]
        np.fill_diagonal(D, 0.0)
        metric, pool = Metric(kind=MATRIX, matrix=D), np.arange(60)
        sizes = [1, 3, 5, 20]
    else:
        d = 2 if kind == "d2" else 16
        edge = EXACT_MAX_WIDTH // d
        metric = Metric()
        pool = rng.normal(size=(300, d)) * 10.0 ** rng.integers(-3, 4)
        sizes = [1, 3, 5, edge, edge + 1]
    pts = pool[rng.integers(0, len(pool), 40)]
    w = rng.uniform(-2.0, 10.0, len(pts))
    w[0] = -abs(w[0])
    core = StaticCoreset(points=pts, weights=w, metric=metric, z=z)

    def query():
        return pool[rng.choice(len(pool), size=int(rng.choice(sizes)))]
    return core, query


@settings(max_examples=12, deadline=None)
@given(kind=st.sampled_from(["d2", "d16", "matrix"]), z=st.sampled_from([1.0, 2.0]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_coreset_queries_are_fresh_costs_bit_for_bit(kind, z, seed):
    core, query = query_coreset(kind, z, seed)
    for _ in range(60):
        x = query()
        fresh = cost((core.points, core.weights, core.metric), x, z)
        assert core.cost(x).hex() == fresh.hex()


@pytest.mark.parametrize("kind, bad, message", [
    ("d2", [[np.nan, 0.0]], "non-finite coordinates"),
    ("matrix", [2, 60], r"point ids out of range \[0, 60\)"),
    ("matrix", [-1], r"point ids out of range \[0, 60\)")])
def test_a_bad_query_leaves_the_coreset_as_it_was(kind, bad, message):
    core, query = query_coreset(kind, 1.0, seed=3)
    x, y = query(), query()
    before = [core.cost(x), cost((core.points, core.weights, core.metric), y)]
    with pytest.raises(InputError, match=message):
        core.cost(bad)
    assert [core.cost(x), core.cost(y)] == before


def test_a_coreset_lays_its_points_out_once():
    core, query = query_coreset("d2", 1.0, seed=4)
    with mock.patch.object(geometry, "_coordinate_major",
                           wraps=geometry._coordinate_major) as layout:
        for _ in range(100):
            core.cost(query())
    assert layout.call_count == 1
