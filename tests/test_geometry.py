import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coreclust.geometry as geometry
from coreclust.geometry import (
    FULL_CHECK_LIMIT,
    REL_TOL,
    SAMPLED_PAIRS,
    InputError,
    LoadError,
    Metric,
    PointSet,
    cost,
    dist_pow,
    metric_from_points,
    partition_by_nearest,
    project,
    take_smallest,
    trimmed_cost,
)


def pts1d(values, mult=None):
    return PointSet(np.asarray(values, dtype=float).reshape(-1, 1),
                    multiplicity=mult)


def c1d(values):
    return np.asarray(values, dtype=float).reshape(-1, 1)


class TestDistPow:
    def test_pythagorean(self):
        assert dist_pow([0.0, 0.0], [[3.0, 4.0]], z=1) == 5.0

    def test_identity_center(self):
        for z in (1, 2, 3.5):
            assert dist_pow([2.0, 2.0], [[2.0, 2.0], [9.0, 9.0]], z=z) == 0.0

    def test_nearest_of_two_squared(self):
        assert dist_pow([0.0], c1d([1, 10]), z=2) == 1.0

    def test_empty_centers(self):
        with pytest.raises(InputError):
            dist_pow([0.0], np.empty((0, 1)))

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            dist_pow([0.0, 0.0], c1d([1.0]))

    def test_bad_power(self):
        with pytest.raises(InputError):
            dist_pow([0.0], c1d([1.0]), z=0.5)


class TestCost:
    def test_two_points(self):
        P = PointSet(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert cost(P, [[0.0, 0.0]]) == 5.0

    def test_line_two_centers(self):
        assert cost(pts1d([0, 1, 10]), c1d([0, 10])) == 1.0

    def test_single_center_matches_enumeration(self):
        # center 1 is the best singleton out of P itself
        P = pts1d([0, 1, 10])
        by_candidate = [cost(P, c1d([v])) for v in (0, 1, 10)]
        assert by_candidate == [11.0, 10.0, 19.0]
        assert cost(P, c1d([1])) == min(by_candidate)

    def test_multiplicity(self):
        P = pts1d([0, 1], mult=np.array([1, 3]))
        assert cost(P, c1d([0])) == 3.0

    def test_empty_centers(self):
        with pytest.raises(InputError):
            cost(pts1d([0.0]), np.empty((0, 1)))


class TestCostToSet:
    def test_all_points_are_centers(self):
        P = pts1d([0, 4, 10])
        assert cost(P, P.points) == 0.0

    def test_three_points(self):
        assert cost(pts1d([0, 4, 10]), c1d([0, 10])) == 4.0

    def test_monotone_in_centers(self):
        rng = np.random.default_rng(0)
        P = PointSet(rng.normal(size=(40, 3)))
        Y = rng.normal(size=(4, 3))
        bigger = np.concatenate([Y, rng.normal(size=(2, 3))])
        assert cost(P, bigger) <= cost(P, Y)


class TestProject:
    def test_fixes_members(self):
        P = pts1d([0, 10])
        proj = project(P, P.points)
        assert np.array_equal(proj.points, P.points)

    def test_snaps(self):
        proj = project(pts1d([0, 1, 10]), c1d([0, 10]))
        assert proj.points.ravel().tolist() == [0.0, 0.0, 10.0]

    def test_tie_lowest_index(self):
        proj = project(pts1d([5]), c1d([0, 10]))
        assert proj.points.ravel().tolist() == [0.0]

    def test_projection_optimality(self):
        rng = np.random.default_rng(1)
        P = PointSet(rng.normal(size=(30, 2)))
        B = rng.normal(size=(5, 2))
        proj = project(P, B)
        for p, q in zip(P.points, proj.points):
            best = min(np.linalg.norm(p - b) for b in B)
            assert np.linalg.norm(p - q) == pytest.approx(best, rel=1e-12)


class TestPartition:
    def test_single_center(self):
        parts = partition_by_nearest(pts1d([0, 1, 10]), c1d([4]))
        assert [len(p) for p in parts] == [3]

    def test_two_centers(self):
        parts = partition_by_nearest(pts1d([0, 1, 10]), c1d([0, 10]))
        assert parts[0].tolist() == [0, 1]
        assert parts[1].tolist() == [2]

    def test_self_partition(self):
        P = pts1d([0, 5, 10])
        parts = partition_by_nearest(P, P.points)
        assert [p.tolist() for p in parts] == [[0], [1], [2]]

    def test_covers_and_disjoint(self):
        rng = np.random.default_rng(2)
        P = PointSet(rng.normal(size=(50, 2)))
        parts = partition_by_nearest(P, rng.normal(size=(6, 2)))
        joined = np.sort(np.concatenate(parts))
        assert np.array_equal(joined, np.arange(50))


class TestExplicitMetric:
    def test_round_trip_from_points(self):
        rng = np.random.default_rng(3)
        coords = rng.normal(size=(12, 2))
        metric = metric_from_points(coords)
        P = PointSet(np.arange(12), metric=metric)
        euclid = PointSet(coords)
        got = cost(P, np.array([3, 7]))
        want = cost(euclid, coords[[3, 7]])
        assert got == pytest.approx(want, rel=1e-12)

    def test_rejects_asymmetric(self):
        D = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(LoadError):
            Metric.from_matrix(D)

    def test_rejects_nonzero_diagonal(self):
        D = np.array([[0.5, 1.0], [1.0, 0.0]])
        with pytest.raises(LoadError):
            Metric.from_matrix(D)

    def test_rejects_triangle_violation(self):
        D = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
        with pytest.raises(LoadError):
            Metric.from_matrix(D)

    def test_sampled_triangle_check_on_large(self):
        rng = np.random.default_rng(4)
        metric = metric_from_points(rng.normal(size=(200, 2)))
        D = np.array(metric.matrix, copy=True)
        D[5, :] *= 10.0  # break many pairs through point 5
        D[:, 5] = D[5, :]
        np.fill_diagonal(D, 0.0)
        with pytest.raises(LoadError):
            Metric.from_matrix(D)

    def test_entry_checks_keep_their_order_across_blocks(self):
        # blocks of 2 rows: each fault sits in an earlier block than the
        # fault of the check before it, and that check still names it
        D = metric_from_points(np.arange(8.0)[:, None]).matrix.copy()
        faults = [((7, 6), np.nan, "non-finite"), ((5, 6), -1.0, "negative"),
                  ((3, 3), 1.0, "nonzero diagonal"),
                  ((0, 1), 2.5, "not symmetric")]
        with mock.patch.object(geometry, "CHUNK_CELLS", 16):
            for i, (_, _, message) in enumerate(faults):
                bad = D.copy()
                for (a, b), value, _ in faults[i:]:
                    bad[a, b] = value
                with pytest.raises(LoadError, match=message):
                    Metric.from_matrix(bad)

    def test_rejects_empty(self):
        with pytest.raises(LoadError, match="distance matrix is empty"):
            Metric.from_matrix(np.empty((0, 0)))

    @pytest.mark.parametrize("n", [3, 5, 20, 128, 129, 300])
    def test_triangle_check_is_the_loop_over_intermediates(self, n):
        rng = np.random.default_rng(n)
        verdicts = set()
        for trial in range(12):
            # a metric (of points on a line: tight up to rounding), a few
            # pairs stretched, or one point's row stretched
            dim = 1 if trial % 4 == 3 else 2
            D = metric_from_points(rng.normal(size=(n, dim))).matrix.copy()
            if trial % 4 == 1:
                for a, b in rng.integers(0, n, size=(3, 2)):
                    if a != b:
                        D[a, b] = D[b, a] = D[a, b] * rng.uniform(0.9, 1.6)
            elif trial % 4 == 2:
                a = rng.integers(n)
                D[a] *= rng.uniform(1.0, 3.0)
                D[:, a] = D[a]
            ok = triangle_holds(D)
            verdicts.add(ok)
            if ok:
                Metric.from_matrix(D)
                continue
            with pytest.raises(LoadError, match="triangle") as err:
                Metric.from_matrix(D)
            # the message names a violating triple
            i, k, _, j = map(int, re.findall(r"\d+", str(err.value))[:4])
            tol = REL_TOL * max(1.0, float(D.max()))
            assert D[i, k] > D[i, j] + D[j, k] + tol
        assert verdicts == {True, False}

    def test_triangle_check_holds_a_few_blocks(self):
        rng = np.random.default_rng(6)
        D = metric_from_points(rng.normal(size=(500, 2))).matrix.copy()
        tracemalloc.start()
        try:
            Metric.from_matrix(D)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the whole sampled check took 15 MB at once
        assert peak < 3 * 8 * geometry.CHUNK_CELLS

    def test_entry_checks_hold_a_few_blocks(self):
        # the finite, sign and symmetry checks each built an n x n bool
        # array: 3.9 MB at n = 2,000
        D = metric_from_points(np.random.default_rng(7).normal(
            size=(2000, 2))).matrix.copy()
        tracemalloc.start()
        try:
            Metric.from_matrix(D)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 8 * geometry.CHUNK_CELLS


def triangle_holds(D):
    """Metric.from_matrix's triangle check as a loop over intermediates j:
    all n^3 triples up to FULL_CHECK_LIMIT points, SAMPLED_PAIRS seeded
    pairs (i, k) against every j above it."""
    n = len(D)
    tol = REL_TOL * max(1.0, float(D.max()))
    if n <= FULL_CHECK_LIMIT:
        return not any(np.any(D > D[:, [j]] + D[[j], :] + tol)
                       for j in range(n))
    rng = np.random.default_rng(0)
    i = rng.integers(0, n, size=SAMPLED_PAIRS)
    k = rng.integers(0, n, size=SAMPLED_PAIRS)
    return not np.any(D[i, k] > (D[i, :] + D[:, k].T).min(axis=1) + tol)


class TestNonnegativity:
    def test_random_instances(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            P = PointSet(rng.normal(size=(rng.integers(1, 30), 3)))
            x = rng.normal(size=(rng.integers(1, 4), 3))
            z = float(rng.uniform(1, 3))
            assert cost(P, x, z=z) >= 0.0


class TestTrimming:
    def test_exact_counts(self):
        taken = take_smallest([3.0, 1.0, 2.0], [1.0, 1.0, 1.0], 2)
        assert taken.tolist() == [0.0, 1.0, 1.0]

    def test_boundary_split(self):
        taken = take_smallest([1.0, 2.0], [2.0, 2.0], 3)
        assert taken.tolist() == [2.0, 1.0]

    def test_tie_by_index(self):
        taken = take_smallest([1.0, 1.0, 1.0], [1.0, 1.0, 1.0], 2)
        assert taken.tolist() == [1.0, 1.0, 0.0]

    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(st.sampled_from([-3.0, 0.0, 1.0, 2.5, 7.0]),
                           min_size=1, max_size=30),
           data=st.data())
    def test_mass_is_conserved_and_taken_in_value_order(self, values, data):
        n = len(values)
        weights = np.array(data.draw(st.lists(st.floats(0.0, 10.0),
                                              min_size=n, max_size=n)))
        total = float(weights.sum())
        count = data.draw(st.floats(0.0, 1.5 * total + 1.0))
        taken = take_smallest(values, weights, count)
        assert taken.sum() == pytest.approx(min(count, total), rel=1e-9,
                                            abs=1e-12)
        assert np.all(taken >= 0.0) and np.all(taken <= weights)
        # in value order, ties by index, an item is touched only once every
        # item before it is used up
        order = np.lexsort((np.arange(n), values))
        t, w = taken[order], weights[order]
        tol = 1e-9 * max(1.0, total)
        for b in np.flatnonzero(t > tol):
            assert np.all(t[:b] >= w[:b] - tol)

    def test_trimmed_cost(self):
        assert trimmed_cost([5.0, 1.0, 3.0], [1, 1, 1], 2) == 4.0


class TestPointSetValidation:
    def test_rejects_nan(self):
        with pytest.raises(InputError):
            PointSet(np.array([[np.nan, 0.0]]))

    def test_rejects_negative_multiplicity(self):
        with pytest.raises(InputError):
            pts1d([0, 1], mult=np.array([1, -1]))

    def test_rejects_float_multiplicity(self):
        with pytest.raises(InputError):
            PointSet(np.array([[0.0]]), multiplicity=np.array([1.5]))

    def test_immutable(self):
        P = pts1d([0, 1])
        with pytest.raises(ValueError):
            P.points[0, 0] = 9.0
