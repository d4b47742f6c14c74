import contextlib
import itertools
import math
import tracemalloc
import types
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coreclust.geometry as geometry
import coreclust.solvers as solvers
from coreclust.geometry import (
    EXACT_MAX_DIM,
    EXACT_MAX_WIDTH,
    MATRIX,
    InputError,
    Metric,
    PointSet,
    check_centers,
    coerce_weighted,
    cost,
    pairwise_dist,
    weighted_sum,
)
from coreclust.io import gaussian_mixture
from coreclust.sampling import rng_for
from coreclust.solvers import (
    PIPELINE_BRUTE_LIMIT,
    brute_force_k_median,
    constant_factor_metric_kmedian,
    solve_on_coreset,
    solve_weighted,
    static_coreset,
    strong_coreset_sample_size,
    weighted_local_search,
)
from coreclust.construction import k_median_coreset


def pts1d(values):
    return PointSet(np.asarray(values, dtype=float).reshape(-1, 1))


class TestBruteForce:
    def test_no_finite_combination_is_an_input_error(self):
        P = PointSet(np.array([[0.0, 0.0], [1e154, 1e154], [-1e154, 3e154]]))
        with pytest.raises(InputError, match="no k-subset"):
            brute_force_k_median(P, 1, candidates=P.points)

    def test_pair_with_tie_break(self):
        P = pts1d([0, 1, 10])
        res = brute_force_k_median(P, 2, candidates=P.points)
        assert res.cost == 1.0
        assert res.centers.ravel().tolist() == [0.0, 10.0]  # earliest combo

    def test_single_center(self):
        P = pts1d([0, 1, 10])
        res = brute_force_k_median(P, 1, candidates=P.points)
        assert res.centers.ravel().tolist() == [1.0]
        assert res.cost == 10.0

    def test_k_equals_n(self):
        P = pts1d([3, 5, 9])
        res = brute_force_k_median(P, 3, candidates=P.points)
        assert res.cost == 0.0

    def test_guard_refuses_with_count(self):
        # C(60, 5) = 5,461,512 is above BRUTE_GUARD
        P = PointSet(np.random.default_rng(0).normal(size=(60, 2)))
        with pytest.raises(InputError, match=r"C\(60, 5\)"):
            brute_force_k_median(P, 5, candidates=P.points)

    def test_evaluation_count(self):
        P = pts1d([0, 1, 2, 3])
        res = brute_force_k_median(P, 2, candidates=P.points)
        assert res.evaluations == 6  # C(4, 2)

    def test_weighted(self):
        P = PointSet(np.array([[0.0], [10.0]]),
                     multiplicity=np.array([9, 1]))
        res = brute_force_k_median(P, 1, candidates=P.points)
        assert res.centers.ravel().tolist() == [0.0]
        assert res.cost == 10.0

    def test_duplicate_candidates_tie_to_the_earliest_combination(self):
        rng = np.random.default_rng(113)
        n = rng.integers(50, 400)
        pts = rng.normal(size=(n, 2)) * rng.uniform(0.1, 100)
        w = rng.uniform(0.1, 10, n)
        m = rng.integers(3, 12)
        cand = pts[rng.choice(n, m, replace=False)]
        cand = np.vstack([cand, cand[rng.integers(0, m)]])
        # candidate 3 repeats candidate 1: the sets (1, 2) and (2, 3) are
        # equal, so their costs tie and (1, 2) comes first
        assert len(cand) == 4 and np.array_equal(cand[3], cand[1])
        res = brute_force_k_median((pts, w, Metric()), 2, cand)
        assert np.array_equal(res.centers, cand[[1, 2]])

    def test_peak_memory_does_not_grow_with_the_batch(self):
        # C(50, 3) = 19,600 combinations over n = 1,000 points: one batch of
        # every combination would gather 470 MB of (b, k, n) distances
        rng = np.random.default_rng(21)
        n, m, k = 1000, 50, 3
        pts = rng.normal(size=(n, 2))
        data = (pts, rng.uniform(0.1, 10, n), Metric())
        tracemalloc.start()
        try:
            res = brute_force_k_median(data, k, pts[:m])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.evaluations == math.comb(m, k)
        assert peak < 8 * m * n + 4 * 8 * geometry.CHUNK_CELLS

    def test_batch_size_changes_neither_centers_nor_cost(self):
        rng = np.random.default_rng(22)
        pts = rng.normal(size=(80, 2))
        cand = np.vstack([pts[:12], pts[[3, 7]]])      # repeated candidates
        data = (pts, rng.uniform(0.1, 10, 80), Metric())
        want = brute_force_k_median(data, 3, cand)
        for chunk in (1, 80, 3 * 80 + 1, 5000, geometry.CHUNK_CELLS, 1 << 20):
            with mock.patch.object(geometry, "CHUNK_CELLS", chunk):
                got = brute_force_k_median(data, 3, cand)
            assert np.array_equal(got.centers, want.centers)
            assert got.cost == want.cost
            assert got.evaluations == want.evaluations == math.comb(14, 3)


class TestLocalSearch:
    def test_optimal_start_stays(self):
        P = pts1d([0, 1, 10])
        res = weighted_local_search(P, 2, candidates=P.points, seed=0,
                                    init=[0, 2])
        assert res.cost == 1.0
        assert res.evaluations <= 2 + 2 * 3 * 2  # one sweep, no swap accepted

    def test_cost_never_worse_than_start(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(30, 2))
        P = PointSet(pts)
        start = [0, 1]
        start_cost = cost(P, pts[start])
        res = weighted_local_search(P, 2, candidates=pts, seed=3, init=start)
        assert res.cost <= start_cost + 1e-12

    def test_matches_brute_within_factor_five(self):
        exact_hits = 0
        for seed in range(50):
            rng = np.random.default_rng(200 + seed)
            n = int(rng.integers(5, 13))
            pts = rng.normal(size=(n, 2))
            P = PointSet(pts)
            k = int(rng.integers(1, 3))
            opt = brute_force_k_median(P, k, candidates=pts)
            loc = weighted_local_search(P, k, candidates=pts, seed=seed)
            assert loc.cost <= 5.0 * opt.cost + 1e-9
            exact_hits += abs(loc.cost - opt.cost) <= 1e-9
        assert exact_hits >= 35  # single-swap usually lands the optimum here

    @pytest.mark.parametrize("init, bad", [([0, 99], 99), ([-1, 4], -1),
                                           ([30, 30], 30)])
    def test_init_ids_outside_the_candidates_are_input_errors(self, init, bad):
        pts = np.random.default_rng(3).normal(size=(30, 2))
        with pytest.raises(InputError, match=rf"init id {bad} is outside \[0, 30\)"):
            weighted_local_search(PointSet(pts), 2, pts, init=init)

    @pytest.mark.parametrize("k", [0, 31, 400])
    def test_k_outside_the_candidates_is_an_input_error(self, k):
        # k above m used to be lowered to m in silence; brute force refuses it
        pts = np.random.default_rng(3).normal(size=(30, 2))
        message = rf"need 1 <= k <= 30 candidates, got k={k}"
        for solver in (weighted_local_search, brute_force_k_median):
            with pytest.raises(InputError, match=message):
                solver(PointSet(pts), k, pts)

    def test_repeated_init_ids_are_allowed(self):
        pts = np.random.default_rng(3).normal(size=(30, 2))
        res = weighted_local_search(PointSet(pts), 2, pts, seed=1, init=[4, 4])
        assert res.cost <= cost(PointSet(pts), pts[[4]])

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(40, 2))
        P = PointSet(pts)
        a = weighted_local_search(P, 3, candidates=pts, seed=7)
        b = weighted_local_search(P, 3, candidates=pts, seed=7)
        assert np.array_equal(a.centers, b.centers)
        assert a.cost == b.cost


def full_matrix_search(data, k, candidates, z, seed, init=None, max_iters=200):
    """The search as one (n, m) trial matrix per slot, costed by einsum."""
    points, weights, metric = coerce_weighted(data)
    cand = check_centers(metric, candidates)
    m, k = len(cand), min(k, len(cand))
    rng = rng_for(seed, 6)
    D = pairwise_dist(metric, points, cand) ** z
    chosen = list(rng.choice(m, size=k, replace=False) if init is None else init)
    cur = np.einsum("ji,i->j", D[:, chosen].min(axis=1)[None], weights)[0]
    for _ in range(max_iters):
        for slot in rng.permutation(k):
            rest = [c for i, c in enumerate(chosen) if i != slot]
            base = D[:, rest].min(axis=1) if rest else np.full(len(points), np.inf)
            trial = np.ascontiguousarray(np.minimum(base[:, None], D).T)
            costs = np.einsum("ji,i->j", trial, weights)
            order = rng.permutation(m)
            better = order[costs[order] < cur * (1 - 1e-12) - 1e-15]
            if better.size:
                chosen[slot], cur = int(better[0]), costs[better[0]]
                break
        else:
            break
    return cand[chosen]


def search_instance(kind, n, m, d, seed):
    """(weighted data, candidates); some candidates are repeated."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.1, 10.0, n)
    if kind == MATRIX:
        D = np.abs(rng.normal(size=(30, 30)))
        D = np.round(D + D.T, 1)            # coarse values, so ties happen
        np.fill_diagonal(D, 0.0)
        metric = Metric(kind=MATRIX, matrix=D)
        pts, cand = rng.integers(0, 30, n), rng.integers(0, 30, m)
    else:
        metric = Metric()
        pts = np.round(rng.normal(size=(n, d)) * 10.0 ** rng.integers(-2, 3), 1)
        cand = np.concatenate([pts[rng.integers(0, n, m // 2)],
                               rng.normal(size=(m - m // 2, d))])
    cand = np.concatenate([cand, cand[rng.integers(0, m, m // 4)]])
    return (pts, w, metric), cand


def candidate_index(cand, centers):
    return [int(np.flatnonzero((cand == c).reshape(len(cand), -1).all(axis=1))[0])
            for c in centers]


class TestLocalSearchCache:
    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["euclidean", MATRIX]), n=st.integers(1, 60),
           m=st.integers(1, 24), d=st.integers(1, 3),
           seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 4),
           z=st.sampled_from([1.0, 2.0]), use_init=st.booleans(),
           chunk=st.sampled_from([None, 1, 7, 100, 2000, 1 << 20]))
    def test_matches_the_full_matrix_search(self, kind, n, m, d, seed, k, z,
                                            use_init, chunk):
        data, cand = search_instance(kind, n, m, d, seed)
        k = min(k, len(cand))
        init = None
        if use_init:
            init = [int(i) for i in np.random.default_rng(seed).choice(
                len(cand), size=k, replace=False)]
        want = full_matrix_search(data, k, cand, z, seed, init=init)
        with mock.patch.object(geometry, "CHUNK_CELLS", chunk or geometry.CHUNK_CELLS):
            got = weighted_local_search(data, k, cand, z=z, seed=seed, init=init)
        assert np.array_equal(got.centers, want)

    @pytest.mark.parametrize("kind", ["euclidean", MATRIX])
    def test_chunk_budget_changes_neither_centers_nor_cost(self, kind):
        data, cand = search_instance(kind, 120, 40, 2, seed=5)
        whole = weighted_local_search(data, 3, cand, z=2.0, seed=4)
        evals = {}
        for chunk in [1, 2, 3, 50, 239, 240, 1000, 4000, geometry.CHUNK_CELLS,
                      1 << 20]:
            with mock.patch.object(geometry, "CHUNK_CELLS", chunk):
                res = weighted_local_search(data, 3, cand, z=2.0, seed=4)
            assert np.array_equal(res.centers, whole.centers)
            assert res.cost == whole.cost
            evals[chunk] = res.evaluations
        # the same swaps, so one candidate per block costs the fewest and a
        # single block (the full scan) the most
        assert evals[1] == min(evals.values())
        assert evals[1 << 20] == whole.evaluations == max(evals.values())
        assert evals[1] < evals[1 << 20]

    def test_default_and_old_budgets_take_the_same_swaps(self):
        # 1,500 points: many candidate blocks at the default, one at 2^20
        data, cand = search_instance("euclidean", 1500, 400, 2, seed=6)
        new = weighted_local_search(data, 3, cand, seed=3)
        with mock.patch.object(geometry, "CHUNK_CELLS", 1 << 20):
            old = weighted_local_search(data, 3, cand, seed=3)
        assert np.array_equal(new.centers, old.centers)
        assert new.cost == old.cost
        assert new.evaluations < old.evaluations

    @pytest.mark.parametrize("kind", ["euclidean", MATRIX])
    def test_local_optimum_costs_every_candidate_once_per_slot(self, kind):
        data, cand = search_instance(kind, 90, 30, 2, seed=8)
        k, m = 3, len(cand)
        first = weighted_local_search(data, k, cand, seed=2)
        init = candidate_index(cand, first.centers)
        for chunk in [1, 5, 100, geometry.CHUNK_CELLS, 1 << 20]:
            with mock.patch.object(geometry, "CHUNK_CELLS", chunk):
                res = weighted_local_search(data, k, cand, seed=9, init=init)
            assert np.array_equal(res.centers, first.centers)
            assert res.evaluations == k + k * m

    def test_peak_memory_is_the_cache_plus_a_few_blocks(self):
        n = m = 3000
        pts = np.random.default_rng(0).normal(size=(n, 2))
        data = (pts, np.ones(n), Metric())
        tracemalloc.start()
        try:
            weighted_local_search(data, 3, pts, seed=1, max_iters=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the (m, n) cache is 8*m*n bytes; anything else is a few blocks of
        # CHUNK_CELLS entries, never a second (n, m) array
        assert peak < 8 * m * n + 4 * 8 * geometry.CHUNK_CELLS

    @pytest.mark.parametrize("k", [1, 3])
    def test_computed_rows_hold_no_table(self, k):
        # m n = 9M cells is above TABLE_CELLS: the table alone would be
        # 72 MB.  Local search runs to its local optimum with the bound.
        n = m = 3000
        assert m * n > solvers.TABLE_CELLS
        pts = gaussian_mixture(n, 2, 3, seed=31)
        data = (pts, np.random.default_rng(31).integers(1, 6, n) * 1.0,
                Metric())
        solve = brute_force_k_median if k == 1 else weighted_local_search
        tracemalloc.start()
        try:
            solve(data, k, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a few blocks, the k held rows and O(m + n) scan and bound arrays
        # (2.3 MB measured for the search, 1.8 MB for brute force)
        assert peak < 4 * 8 * geometry.CHUNK_CELLS + 64 * 8 * (m + n)


def same_result(a, b):
    return (np.array_equal(a.centers, b.centers)
            and a.cost.hex() == b.cost.hex()
            and a.evaluations == b.evaluations)


class TestComputedRows:
    """Above TABLE_CELLS the solvers compute each block of candidate rows;
    TABLE_CELLS patched to 0 takes that path on any instance."""

    @settings(max_examples=40, deadline=None)
    @given(form=st.sampled_from(["exact", "dot", MATRIX]),
           n=st.integers(1, 40), d=st.integers(1, 8),
           seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 4),
           z=st.sampled_from([1.0, 2.0]), negative=st.booleans(),
           use_init=st.booleans(), bound=st.booleans())
    def test_computed_rows_change_no_bit(self, form, n, d, seed, k, z,
                                         negative, use_init, bound):
        # the exact form at d <= 3, the dot form at d = 4 to 8 with a row
        # width m*d above EXACT_MAX_WIDTH, ids of an explicit metric
        d = {"exact": 1 + d % EXACT_MAX_DIM, "dot": max(d, EXACT_MAX_DIM + 1),
             MATRIX: 2}[form]
        m = EXACT_MAX_WIDTH // d + 1 if form == "dot" else 60 + seed % 200
        data, cand = search_instance("euclidean" if form != MATRIX else MATRIX,
                                     n, m, d, seed)
        assert geometry.exact_form(cand.size, d) == (form != "dot")
        rng = np.random.default_rng(seed)
        ids = rng.integers(0, len(cand), 7)
        rows = []
        for cells in (solvers.TABLE_CELLS, 0):
            with mock.patch.object(solvers, "TABLE_CELLS", cells):
                source = solvers._CandidateRows(data[2], data[0], cand, 1.0)
            rows.append(source.fill(ids, np.empty((7, n))).view(np.int64))
        assert np.array_equal(*rows)
        if negative:
            data[1][0] = -data[1][0]
        init = None
        if use_init:
            init = [int(i) for i in rng.integers(0, len(cand), k)]
        # a small BOUND_CELLS and blocks of 3 rows engage the bound where
        # it holds
        patches = [mock.patch.object(solvers, "BOUND_CELLS", 1),
                   mock.patch.object(geometry, "CHUNK_CELLS", 3 * n)]
        with contextlib.ExitStack() as stack:
            for patch in patches if bound else []:
                stack.enter_context(patch)
            results = []
            for cells in (solvers.TABLE_CELLS, 0):
                with mock.patch.object(solvers, "TABLE_CELLS", cells):
                    results.append(weighted_local_search(
                        data, k, cand, z=z, seed=seed, init=init))
            assert same_result(*results)
            brute = []
            for cells in (solvers.TABLE_CELLS, 0):
                with mock.patch.object(solvers, "TABLE_CELLS", cells):
                    brute.append(brute_force_k_median(data, 1, cand, z=z))
            assert same_result(*brute)


def clustered_instance(rng, n, m, d, offset):
    """(weighted data, candidates): three clusters far from the origin,
    about a fifth of the weights zero, candidates drawn from the points with
    repeats."""
    centers = rng.uniform(-6.0, 6.0, size=(3, d))
    pts = (centers[rng.integers(0, 3, n)] + rng.normal(size=(n, d))
           * rng.uniform(0.05, 1.0)) + offset
    w = rng.uniform(0.1, 10.0, n)
    w[rng.random(n) < 0.2] = 0.0
    cand = pts[rng.integers(0, n, m)]
    return (pts, w, Metric()), cand


def bound_calls():
    """A patch that counts the slot scans that take the bound."""
    calls = []
    lower = solvers._TriangleBound.lower

    def counted(self, chosen, base):
        calls.append(len(self.refs))
        return lower(self, chosen, base)
    return calls, mock.patch.object(solvers._TriangleBound, "lower", counted)


def no_carried_bound():
    """A patch under which the carried bound knows nothing of a scan's
    candidates: every lower bound it gives is -inf, as in a search that
    keeps no scans."""
    return mock.patch.object(
        solvers._CarriedBound, "lower",
        lambda self, base: np.full(self.known.shape[1], -np.inf))


def plain_first_improving(rows, ids, base, weights, bar, buf, known):
    """solvers._first_improving without its bound: every candidate of ids
    is costed, in order, in blocks of len(buf) rows."""
    for s in range(0, len(ids), len(buf)):
        block = ids[s:s + len(buf)]
        costs = weighted_sum(np.minimum(rows.fill(block, buf[:len(block)]),
                                        base), weights)
        hit = np.flatnonzero(costs < bar)
        if hit.size:
            return s + int(hit[0]), float(costs[hit[0]])
    return None, None


def plain_search(data, k, cand, **kwargs):
    """The search with neither bound engaged: every scan is the plain one."""
    with mock.patch.object(solvers, "BOUND_PAYOFF", math.inf), \
            mock.patch.object(solvers, "_first_improving",
                              plain_first_improving):
        return weighted_local_search(data, k, cand, **kwargs)


class TestTriangleBound:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(50, 250),
           m=st.integers(100, 400), d=st.integers(1, EXACT_MAX_DIM),
           k=st.integers(2, 4), step=st.sampled_from([1, 3, 16]),
           offset=st.sampled_from([0.0, 1e3, -3e6, 1e9]))
    def test_bounded_search_matches_the_full_matrix_search(
            self, seed, n, m, d, k, step, offset):
        rng = np.random.default_rng(seed)
        data, cand = clustered_instance(rng, n, m, d, offset)
        want = full_matrix_search(data, k, cand, 1.0, seed)
        calls, counting = bound_calls()
        with mock.patch.object(geometry, "CHUNK_CELLS", step * n), \
                mock.patch.object(solvers, "BOUND_CELLS", 1):
            plain = plain_search(data, k, cand, seed=seed)
            with counting, no_carried_bound():
                got = weighted_local_search(data, k, cand, seed=seed)
                init = candidate_index(cand, got.centers)
                again = weighted_local_search(data, k, cand, seed=seed + 1,
                                              init=init)
            both = weighted_local_search(data, k, cand, seed=seed)
        # the last sweep of each search scans every slot to the end
        assert len(calls) >= 2 * k
        # only the current centers are references
        assert max(calls) <= k
        assert np.array_equal(got.centers, want)
        for result in (got, both):
            assert np.array_equal(result.centers, plain.centers)
            assert result.cost == plain.cost
            assert result.evaluations == plain.evaluations
        assert np.array_equal(again.centers, got.centers)
        assert again.evaluations == k + k * len(cand)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 120),
           m=st.integers(1, 60), d=st.integers(1, EXACT_MAX_DIM),
           k=st.integers(2, 4), offset=st.sampled_from([0.0, 7e5, -1e12]),
           scale=st.sampled_from([1e-6, 1.0, 1e4]))
    def test_bound_never_exceeds_a_trial_cost(self, seed, n, m, d, k, offset,
                                              scale):
        # in one dimension the triangle inequality is tight for the points
        # on one side of a reference, so only the slack keeps the bound
        # below the rounded costs
        rng = np.random.default_rng(seed)
        (pts, w, metric), cand = clustered_instance(rng, n, m, d, 0.0)
        pts, cand = pts * scale + offset, cand * scale + offset
        chosen = list(rng.integers(0, m, k))
        D = pairwise_dist(metric, pts, cand)
        base = D[:, chosen[1:]].min(axis=1)
        trial = np.einsum("ji,i->j", np.ascontiguousarray(
            np.minimum(base[:, None], D).T), w)
        for cells in (solvers.TABLE_CELLS, 0):     # read and computed rows
            with mock.patch.object(solvers, "TABLE_CELLS", cells):
                rows = solvers._CandidateRows(metric, pts, cand, 1.0)
            lower = solvers._TriangleBound(metric, cand, rows, w).lower(chosen,
                                                                        base)
            assert np.all(lower <= trial)

    def test_bound_rules_out_rows_on_a_build_sized_instance(self):
        # the anchors' search of `build`: about n/2 weighted points of a
        # three-cluster mixture, each a candidate
        rng = np.random.default_rng(31)
        pts = gaussian_mixture(3000, 2, 3, seed=31)
        data = (pts, rng.integers(1, 6, 3000).astype(float), Metric())
        runs = {}
        for triangle, carried in itertools.product((False, True), repeat=2):
            read = []
            # with neither bound, the reference: the plain scan
            scan = (solvers._first_improving if triangle or carried else
                    plain_first_improving)

            def counted(rows, ids, base, weights, bar, buf, known):
                # the rows the scan reads, skipped candidates not among them
                reading = types.SimpleNamespace(
                    fill=lambda block, out: read.append(len(block)) or
                    rows.fill(block, out))
                return scan(reading, ids, base, weights, bar, buf, known)
            with contextlib.ExitStack() as stack:
                stack.enter_context(
                    mock.patch.object(solvers, "_first_improving", counted))
                if not triangle:
                    stack.enter_context(
                        mock.patch.object(solvers, "BOUND_PAYOFF", math.inf))
                if not carried:
                    stack.enter_context(no_carried_bound())
                runs[triangle, carried] = (
                    weighted_local_search(data, 3, pts, seed=5), sum(read))
        plain, plain_rows = runs[False, False]
        for result, _ in runs.values():
            assert np.array_equal(result.centers, plain.centers)
            assert result.cost == plain.cost
            assert result.evaluations == plain.evaluations
        # the plain search reads every candidate it evaluates; each bound
        # alone read 36-37% of that and the two together 16.5%: they rule
        # out different candidates
        assert plain_rows == plain.evaluations - 3
        triangle_rows, carried_rows, both_rows = (
            runs[key][1] for key in [(True, False), (False, True),
                                     (True, True)])
        assert triangle_rows < 0.6 * plain_rows
        assert carried_rows < 0.6 * plain_rows
        assert both_rows < 0.6 * min(triangle_rows, carried_rows)

    @pytest.mark.parametrize("case", ["metric", "z", "negative weight", "k=1",
                                      "high d", "engaged"])
    def test_bound_runs_only_where_it_holds(self, case):
        rng = np.random.default_rng(32)
        d = EXACT_MAX_DIM + 1 if case == "high d" else 2
        m = EXACT_MAX_WIDTH // d + 1 if case == "high d" else 200
        data, cand = clustered_instance(rng, 80, m, d, 50.0)
        pts, w, metric = data
        k, z = (1 if case == "k=1" else 3), (2.0 if case == "z" else 1.0)
        if case == "negative weight":
            w[5] = -1.0
        if case == "metric":
            metric = geometry.metric_from_points(np.vstack([pts, cand]))
            pts, cand = np.arange(80), np.arange(80, 80 + m)
        data = (pts, w, metric)
        want = full_matrix_search(data, k, cand, z, seed=3)
        with mock.patch.object(geometry, "CHUNK_CELLS", 4 * 80):
            with mock.patch.object(solvers, "BOUND_CELLS", 1), \
                    mock.patch.object(solvers, "_TriangleBound",
                                      wraps=solvers._TriangleBound) as made, \
                    mock.patch.object(solvers, "_CarriedBound",
                                      wraps=solvers._CarriedBound) as carried:
                got = weighted_local_search(data, k, cand, z=z, seed=3)
            plain = plain_search(data, k, cand, z=z, seed=3)
        assert made.called == (case == "engaged")
        # the carried bound holds for any metric and any z
        assert carried.called == (case not in ("negative weight", "k=1"))
        assert np.array_equal(got.centers, want)
        assert got.evaluations == plain.evaluations


def scan_bases(rng, table, k, scans):
    """Bases of `scans` slot scans over the (m, n) table of candidate rows:
    the nearest of k - 1 random candidates, that scaled pointwise by a
    random factor in [0, 1), the previous base again, or the previous base
    shrunk by less than 1e-6, where the bound is nearly tight."""
    base = table[rng.integers(0, len(table), k - 1)].min(axis=0)
    for _ in range(scans):
        yield base
        kind = rng.integers(4)
        if kind < 2:
            base = table[rng.integers(0, len(table), k - 1)].min(axis=0)
            if kind == 1:
                base = base * rng.random(table.shape[1])
        elif kind == 3:
            base = base * (1 - rng.uniform(0, 1e-6, table.shape[1]))


class TestCarriedBound:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 120),
           m=st.integers(1, 60), d=st.integers(1, 4), k=st.integers(2, 4),
           z=st.sampled_from([1.0, 2.0]), explicit=st.booleans(),
           offset=st.sampled_from([0.0, 7e5, -1e12]),
           scale=st.sampled_from([1e-6, 1.0, 1e4]))
    def test_bound_never_exceeds_a_trial_cost(self, seed, n, m, d, k, z,
                                              explicit, offset, scale):
        rng = np.random.default_rng(seed)
        (pts, w, metric), cand = clustered_instance(rng, n, m, d, 0.0)
        pts, cand = pts * scale + offset, cand * scale + offset
        if explicit:
            metric = geometry.metric_from_points(np.vstack([pts, cand]))
            pts, cand = np.arange(n), np.arange(n, n + m)
        rows = solvers._CandidateRows(metric, pts, cand, z)
        table = rows.fill(np.arange(m), np.empty((m, n)))
        carried = solvers._CarriedBound(m, n, k, w)
        # where the search takes the triangle bound, its bounds join the
        # carried ones in what a scan keeps, and chain through later scans
        triangle = (not explicit and z == 1.0
                    and geometry.exact_form(cand.size, d)
                    and solvers._TriangleBound(metric, cand, rows, w))
        # past the scans the bound keeps, so old ones are dropped
        for base in scan_bases(rng, table, k, 5 * k):
            # every trial cost as a scan costs it
            trial = weighted_sum(np.minimum(table, base), w)
            known = carried.lower(base)
            if triangle:
                chosen = [int(c) for c in rng.integers(0, m, k)]
                np.maximum(known, triangle.lower(chosen, base), out=known)
            assert np.all(known <= trial)
            costed = rng.random(m) < 0.5
            known[costed] = trial[costed]
            carried.keep(base, known)

    @pytest.mark.parametrize("coords, weight", [
        (1e150, 1e200),     # every cost overflows
        (1e152, 1e150),     # costs near 2e304, above the bound's 2^1000
        (1e152, 1e146),     # costs near 2e300: the bound engages
    ])
    def test_no_warning_where_costs_overflow(self, coords, weight):
        pts = gaussian_mixture(200, 2, 3, seed=33) * coords
        data = (pts, np.full(200, weight), Metric())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = weighted_local_search(data, 3, pts, seed=1)
            plain = plain_search(data, 3, pts, seed=1)
        assert same_result(got, plain)


class TestSolveWeighted:
    def test_brute_up_to_limit_local_search_above(self):
        assert math.comb(50, 3) <= PIPELINE_BRUTE_LIMIT < math.comb(51, 3)
        pts = np.random.default_rng(11).normal(size=(51, 2))
        P = PointSet(pts)
        at = solve_weighted(P, 3, pts[:50], seed=2)
        above = solve_weighted(P, 3, pts, seed=2)
        assert at.method == "brute"
        assert at.evaluations == math.comb(50, 3)
        assert above.method == "local_search"

    def test_clamps_k_to_candidates(self):
        P = pts1d([0, 1, 10])
        res = solve_weighted(P, 5, P.points[:2])
        assert res.method == "brute"
        assert res.centers.ravel().tolist() == [0.0, 1.0]
        assert res.cost == 9.0


class TestConstantFactor:
    def test_recovers_separated_clusters(self):
        for seed in range(10):
            pts = gaussian_mixture(24, 2, 3, seed + 50, spread=30.0, sigma=0.2)
            P = PointSet(pts)
            res = constant_factor_metric_kmedian(P, 3, 0.3, 0.1, seed)
            opt = brute_force_k_median(P, 3, candidates=pts)
            assert res.cost <= 10.0 * opt.cost + 1e-9

    def test_n_equals_k(self):
        pts = np.random.default_rng(3).normal(size=(4, 2))
        P = PointSet(pts)
        res = constant_factor_metric_kmedian(P, 4, 0.3, 0.1, seed=1)
        assert res.cost == pytest.approx(0.0, abs=1e-12)

    def test_deterministic(self):
        pts = np.random.default_rng(4).normal(size=(50, 2))
        P = PointSet(pts)
        a = constant_factor_metric_kmedian(P, 2, 0.3, 0.1, seed=5)
        b = constant_factor_metric_kmedian(P, 2, 0.3, 0.1, seed=5)
        assert np.array_equal(a.centers, b.centers)
        assert a.cost == b.cost


class TestSolveOnCoreset:
    def test_single_cluster_close_to_opt(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(20, 2))
        P = PointSet(pts)
        res, audit = solve_on_coreset(P, 1, 0.2, seed=2)
        opt = brute_force_k_median(P, 1, candidates=pts)
        assert res.cost <= (1 + 3 * 0.2) * opt.cost + 1e-9
        assert audit["true_cost"] == res.cost

    def test_audit_matches_coreset_quality(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(60, 2)) + 4 * rng.integers(0, 2, size=(60, 1))
        P = PointSet(pts)
        res, audit = solve_on_coreset(P, 2, 0.2, seed=4)
        rel = abs(audit["coreset_cost"] - audit["true_cost"]) / audit["true_cost"]
        assert rel <= 3 * 0.2  # loose sanity bound; the acceptance suite pins it

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(30, 2))
        P = PointSet(pts)
        r1, a1 = solve_on_coreset(P, 2, 0.25, seed=9)
        r2, a2 = solve_on_coreset(P, 2, 0.25, seed=9)
        assert np.array_equal(r1.centers, r2.centers)
        assert a1 == a2


class TestStaticCoreset:
    """static_coreset against the pipeline composed by hand, as its callers
    composed it before it existed: the same points, weights and provenance,
    bit for bit."""

    @staticmethod
    def assert_same(core, anchors, ref, ref_anchors):
        assert core.points.tobytes() == ref.points.tobytes()
        assert core.weights.tobytes() == ref.weights.tobytes()
        assert core.provenance == ref.provenance
        assert np.array_equal(anchors.centers, ref_anchors.centers)

    @pytest.mark.parametrize("z, t", [(1.0, None), (2.0, None), (1.0, 57)])
    def test_point_set(self, z, t):
        P = PointSet(gaussian_mixture(400, 2, 3, seed=21))
        core, anchors = static_coreset(P, 3, 0.2, 0.1, 5, z=z, t=t, c=0.5)
        ref_anchors = constant_factor_metric_kmedian(P, 3, 0.2, 0.1, 5, c=0.5)
        if t is None:
            t = strong_coreset_sample_size(len(P), 3, 0.2, 0.1, P.metric,
                                           dim=P.dim, c=0.5)
        ref = k_median_coreset(P, ref_anchors.centers, t, 0.2, z=z, seed=5)
        ref.provenance.update({"k": 3, "delta": 0.1, "c": 0.5,
                               "bicriteria_cost": ref_anchors.cost})
        self.assert_same(core, anchors, ref, ref_anchors)
        assert core.provenance["t"] == t

    def test_explicit_metric(self):
        M = geometry.metric_from_points(gaussian_mixture(60, 2, 3, seed=22))
        P = PointSet(np.arange(60), metric=M)
        core, anchors = static_coreset(P, 3, 0.3, 0.1, 6, z=2.0)
        ref_anchors = constant_factor_metric_kmedian(P, 3, 0.3, 0.1, 6)
        t = strong_coreset_sample_size(60, 3, 0.3, 0.1, M)
        ref = k_median_coreset(P, ref_anchors.centers, t, 0.3, z=2.0, seed=6)
        ref.provenance.update({"k": 3, "delta": 0.1, "c": 1.0,
                               "bicriteria_cost": ref_anchors.cost})
        self.assert_same(core, anchors, ref, ref_anchors)

    def test_signed_weights_as_the_stream_reduces_them(self):
        # two merged coresets, as stream_push hands them to a reduction:
        # anchors on |w|, the coreset on the signed weights, t given
        P = PointSet(gaussian_mixture(300, 2, 3, seed=23))
        a = k_median_coreset(P, P.points[:3], 30, 0.3, seed=1)
        b = k_median_coreset(P, P.points[3:6], 30, 0.3, seed=2)
        pts = np.concatenate([a.points, b.points])
        w = np.concatenate([a.weights, b.weights])
        w[::9] *= -1.0
        data = (pts, w, P.metric)
        core, anchors = static_coreset(data, 3, 0.1, 0.1, 7, z=1.5, t=40)
        ref_anchors = constant_factor_metric_kmedian(
            (pts, np.abs(w), P.metric), 3, 0.1, 0.1, 7)
        ref = k_median_coreset(data, ref_anchors.centers, 40, 0.1, z=1.5,
                               seed=7)
        ref.provenance.update({"k": 3, "delta": 0.1, "c": 1.0,
                               "bicriteria_cost": ref_anchors.cost})
        assert np.any(w < 0)
        self.assert_same(core, anchors, ref, ref_anchors)

    @pytest.mark.parametrize("kwargs, match", [
        ({"z": 0.5}, "z >= 1"), ({"t": 0}, "t must be >= 1"),
        ({"eps": 1.0}, "eps must lie"), ({"eps": 0.0}, "eps must lie")])
    def test_bad_arguments_fail_before_the_anchors(self, kwargs, match):
        P = PointSet(gaussian_mixture(50, 2, 2, seed=24))
        args = {"eps": 0.3, **kwargs}
        eps = args.pop("eps")
        with mock.patch("coreclust.solvers.constant_factor_metric_kmedian",
                        side_effect=AssertionError("anchors were built")):
            with pytest.raises(InputError, match=match):
                static_coreset(P, 2, eps, 0.1, 1, **args)


class TestWeakCoresetProperty:
    def test_degenerate_coreset_solves_like_original(self):
        # data sitting on two locations: anchors cover it exactly, the
        # coreset is the compressed original, and the solver answers match
        base = np.array([[0.0, 0.0], [9.0, 1.0]])
        pts = np.repeat(base, [7, 5], axis=0)
        P = PointSet(pts)
        res, audit = solve_on_coreset(P, 2, 0.2, seed=1)
        direct = brute_force_k_median(P, 2, candidates=base)
        assert res.cost == pytest.approx(direct.cost, abs=1e-12)
        assert audit["coreset_cost"] == pytest.approx(res.cost, abs=1e-12)

    def test_transfer_bound_on_verified_instances(self):
        # when the coreset inequality holds at both the coreset optimum and
        # the true optimum, the returned centers are (1+eps)/(1-eps)-optimal
        eps = 0.2
        checked = 0
        for seed in range(12):
            rng = np.random.default_rng(9000 + seed)
            pts = gaussian_mixture(18, 2, 2, 9000 + seed)
            P = PointSet(pts)
            res, _ = solve_on_coreset(P, 2, eps, seed)
            opt = brute_force_k_median(P, 2, candidates=pts)

            from coreclust.solvers import constant_factor_metric_kmedian, \
                strong_coreset_sample_size
            from coreclust.construction import k_median_coreset
            anchors = constant_factor_metric_kmedian(P, 2, eps, 0.1, seed)
            t = strong_coreset_sample_size(18, 2, eps, 0.1, P.metric, dim=2)
            core = k_median_coreset(P, anchors.centers, t, eps, seed=seed)

            def verified(x):
                truec = cost(P, x)
                return abs(truec - core.cost(x)) <= eps * truec

            if verified(res.centers) and verified(opt.centers):
                checked += 1
                bound = (1 + eps) / (1 - eps) * opt.cost
                assert res.cost <= bound + 1e-9
        assert checked >= 6  # the inequality held often enough to mean something
