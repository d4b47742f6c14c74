"""Properties of the nearest-center kernel: chunking, array size and ties.

Every property is bitwise: a row's nearest center and its d**z must not
depend on how many rows share the call, on the row block it falls in, or on
the chunk budget.  Shapes cover both sides of EXACT_MAX_WIDTH and of
EXACT_MAX_DIM, and the explicit-matrix metric.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import coreclust.geometry as geometry
from coreclust.geometry import (
    EXACT_MAX_DIM,
    EXACT_MAX_WIDTH,
    MATRIX,
    InputError,
    Metric,
    cost,
    costs,
    distance_table,
    metric_from_points,
    nearest_center,
    pairwise_dist,
    trimmed_cost,
    weighted_sum,
)
from coreclust.robust import _trim_count, candidate_trimmed_costs
from coreclust.solvers import brute_force_k_median, weighted_local_search


def dot_form(m, d):
    return m * d > EXACT_MAX_WIDTH and d > EXACT_MAX_DIM


# (m, d): the exact form up to the width boundary, and for wide sets of
# d <= EXACT_MAX_DIM; the dot-product form for wide sets of larger d
SHAPES = [(1, 1), (3, 2), (40, 16), (256, 16), (257, 16), (2049, 2), (1025, 4),
          (2, 3000)]
assert any(m * d == EXACT_MAX_WIDTH for m, d in SHAPES)
assert any(m * d > EXACT_MAX_WIDTH and not dot_form(m, d) for m, d in SHAPES)
assert any(dot_form(m, d) and d == EXACT_MAX_DIM + 1 for m, d in SHAPES)

FEW = settings(max_examples=25, deadline=None)


def instance(kind, n, shape, seed):
    """(metric, points, centers) drawn from a seed."""
    rng = np.random.default_rng(seed)
    m, d = shape
    if kind == MATRIX:
        size = 30
        D = np.abs(rng.normal(size=(size, size)))
        D = np.round(D + D.T, 1)        # coarse values, so ties happen
        np.fill_diagonal(D, 0.0)
        return (Metric(kind=MATRIX, matrix=D), rng.integers(0, size, n),
                rng.integers(0, size, min(m, 12)))
    scale = 10.0 ** rng.integers(-3, 4)
    return Metric(), rng.normal(size=(n, d)) * scale, rng.normal(size=(m, d)) * scale


def assert_same(a, b):
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


kinds = st.sampled_from(["euclidean", MATRIX])
shapes = st.sampled_from(SHAPES)
seeds = st.integers(0, 2 ** 32 - 1)
powers = st.sampled_from([1.0, 2.0, 2.5])
# small budgets split every call; the default and the old 2^20 are compared
# with each other through the unpatched call
chunks = st.one_of(st.integers(1, 5000),
                   st.sampled_from([geometry.CHUNK_CELLS, 1 << 20]))


@FEW
@given(kind=kinds, shape=shapes, n=st.integers(1, 300), seed=seeds, z=powers,
       cuts=st.lists(st.integers(0, 300), max_size=4))
def test_row_slices_match_the_whole_call(kind, shape, n, seed, z, cuts):
    metric, P, C = instance(kind, n, shape, seed)
    whole = nearest_center(metric, P, C, z)
    bounds = [0, *sorted(c for c in cuts if c < n), n]
    parts = [nearest_center(metric, P[a:b], C, z)
             for a, b in zip(bounds, bounds[1:]) if b > a]
    assert_same(whole, (np.concatenate([p[0] for p in parts]),
                        np.concatenate([p[1] for p in parts])))


@FEW
@given(kind=kinds, shape=shapes, n=st.integers(1, 300), seed=seeds, z=powers,
       prefix=st.integers(1, 300), chunk=chunks)
def test_rows_do_not_depend_on_n_or_the_chunk_budget(kind, shape, n, seed, z,
                                                     prefix, chunk):
    metric, P, C = instance(kind, n, shape, seed)
    whole = nearest_center(metric, P, C, z)
    p = min(prefix, n)
    head = nearest_center(metric, P[:p], C, z)
    assert_same(head, (whole[0][:p], whole[1][:p]))
    with mock.patch.object(geometry, "CHUNK_CELLS", chunk):
        assert_same(nearest_center(metric, P, C, z), whole)


@pytest.mark.parametrize("kind, shape", [
    ("euclidean", (700, 2)), ("euclidean", (2049, 2)), ("euclidean", (257, 16)),
    (MATRIX, (12, 1))])
def test_default_and_old_block_sizes_agree(kind, shape):
    # 3,000 rows: many blocks at the default budget, one block at 2^20
    metric, P, C = instance(kind, 3000, shape, seed=17)
    with mock.patch.object(geometry, "CHUNK_CELLS", 1 << 20):
        old = nearest_center(metric, P, C, 2.0), pairwise_dist(metric, P, C)
    assert_same(nearest_center(metric, P, C, 2.0), old[0])
    assert np.array_equal(pairwise_dist(metric, P, C), old[1])


@FEW
@given(kind=kinds, shape=shapes, n=st.integers(1, 200), seed=seeds, z=powers,
       chunk=chunks)
def test_pairwise_rows_do_not_depend_on_chunking(kind, shape, n, seed, z, chunk):
    metric, P, C = instance(kind, n, shape, seed)
    whole = pairwise_dist(metric, P, C)
    with mock.patch.object(geometry, "CHUNK_CELLS", chunk):
        assert np.array_equal(pairwise_dist(metric, P, C), whole)
        # the table is the same distances, powered and center-major
        assert np.array_equal(distance_table(metric, P, C, z), (whole ** z).T)
    for i in range(0, n, max(1, n // 5)):
        assert np.array_equal(pairwise_dist(metric, P[i:i + 1], C)[0], whole[i])


@FEW
@given(kind=st.sampled_from(["narrow", "wide", MATRIX]),
       d=st.sampled_from([1, 2, EXACT_MAX_DIM + 1, 16, 64]),
       n=st.integers(1, 300), extra=st.integers(0, 40), seed=seeds, z=powers,
       chunk=chunks)
def test_table_slabs_are_the_whole_call(kind, d, n, extra, seed, z, chunk):
    # distance_table fills slabs of centers against every point, each one
    # pairwise_dist call of the whole set's form (a wide set takes the dot
    # form above EXACT_MAX_DIM); the matrix is not symmetric, so a slab that
    # read D[c, p] would differ
    rng = np.random.default_rng(seed)
    wide = EXACT_MAX_WIDTH // d
    m = max(1, wide - extra) if kind == "narrow" else wide + 1 + extra
    if kind == MATRIX:
        D = rng.uniform(0.5, 9.0, size=(60, 60))
        np.fill_diagonal(D, 0.0)
        metric, P, C = (Metric(kind=MATRIX, matrix=D), rng.integers(0, 60, n),
                        rng.integers(0, 60, min(m, 90)))
    else:
        scale = 10.0 ** rng.integers(-3, 4)
        metric, P, C = (Metric(), rng.normal(size=(n, d)) * scale,
                        rng.normal(size=(m, d)) * scale)
    whole = pairwise_dist(metric, P, C) ** z
    with mock.patch.object(geometry, "CHUNK_CELLS", chunk):
        table = distance_table(metric, P, C, z)
    assert table.flags.c_contiguous and table.tobytes() == whole.T.tobytes()


@pytest.mark.parametrize("m, d", [(1, 1), (5, 16), (300, 16), (2_100, 2),
                                  (1_025, 4)])
def test_pairwise_rows_do_not_depend_on_the_points_layout(m, d):
    # costs hands pairwise_dist a view of coordinate-major memory; the dot
    # form's sums add Fortran-ordered rows in another order unless copied
    rng = np.random.default_rng(m * d)
    P, C = rng.normal(size=(200, d)) * 7.0, rng.normal(size=(m, d)) * 7.0
    whole = pairwise_dist(Metric(), P, C)
    for view in (np.asfortranarray(P), np.repeat(P, 2, axis=1)[:, ::2]):
        assert np.array_equal(pairwise_dist(Metric(), view, C), whole)


@FEW
@given(kind=kinds, shape=shapes, n=st.integers(1, 200), seed=seeds,
       data=st.data())
def test_ties_go_to_the_lowest_center_index(kind, shape, n, seed, data):
    metric, P, C = instance(kind, n, shape, seed)
    # duplicate some centers further down the list: every copy ties with
    # its original, which always comes first
    dup = data.draw(st.lists(st.integers(0, len(C) - 1), min_size=1, max_size=5))
    C2 = np.concatenate([C, C[dup]])
    idx, dz = nearest_center(metric, P, C2)
    D = pairwise_dist(metric, P, C2)
    lowest = (D == D.min(axis=1, keepdims=True)).argmax(axis=1)
    assert np.array_equal(idx, lowest)
    assert np.all(idx < len(C))
    assert np.array_equal(dz, D[np.arange(n), idx])


@FEW
@given(shape=st.sampled_from([(m, d) for m, d in SHAPES if dot_form(m, d)]),
       n=st.integers(1, 100), seed=seeds)
def test_dot_product_form_agrees_with_the_difference_form(shape, n, seed):
    metric, P, C = instance("euclidean", n, shape, seed)
    diff = P[:, None, :] - C[None, :, :]
    exact_sq = (diff * diff).sum(axis=2)
    # the expansion cancels: its error scales with |p|^2 + |c|^2, not d^2
    scale = (P * P).sum(axis=1)[:, None] + (C * C).sum(axis=1)[None, :]
    tol = 4 * (shape[1] + 3) * np.finfo(float).eps * scale
    assert np.all(np.abs(pairwise_dist(metric, P, C) ** 2 - exact_sq) <= tol)


def test_a_point_is_at_distance_zero_from_itself_in_both_forms():
    rng = np.random.default_rng(3)
    for m, d in [(40, 16), (300, 16), (2100, 2)]:
        P = rng.normal(size=(m, d)) * 100 + 50
        assert np.all(np.diag(pairwise_dist(Metric(), P, P)) == 0.0)
        idx, dz = nearest_center(Metric(), P, P)
        assert idx.tolist() == list(range(m)) and not dz.any()


@pytest.mark.parametrize("d", [4_097, 5_000, 9_000])
def test_a_single_pair_is_the_same_pair_inside_a_block(d):
    # a 1x1 block of the dot form adds its p.c in a loop of its own (einsum
    # would take its vectorised dot); the pair keeps the bits it has in a
    # 1x2 and in a 2x1 block
    assert dot_form(1, d)
    rng = np.random.default_rng(d)
    P, C = rng.normal(size=(2, d)) * 7.0, rng.normal(size=(2, d)) * 7.0
    one = pairwise_dist(Metric(), P[:1], C[:1])
    assert one.shape == (1, 1)
    assert one.tobytes() == pairwise_dist(Metric(), P[:1], C)[:, :1].tobytes()
    assert one.tobytes() == pairwise_dist(Metric(), P, C[:1])[:1].tobytes()


def test_points_of_no_coordinates_are_at_distance_zero():
    # a library caller's (n, 0) points reach the kernel at d = 0 (the point
    # file loaders refuse rows of no coordinates)
    P, C = np.empty((3, 0)), np.empty((2, 0))
    assert pairwise_dist(Metric(), P, C).tolist() == [[0.0, 0.0]] * 3
    idx, dz = nearest_center(Metric(), P, C)
    assert idx.tolist() == [0, 0, 0] and dz.tolist() == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("n, m, d", [(20_000, 2_000, 2), (20_000, 2_100, 2),
                                     (5_000, 300, 16)])
def test_peak_memory_is_the_outputs_plus_a_few_blocks(n, m, d):
    rng = np.random.default_rng(4)
    P, C = rng.normal(size=(n, d)), rng.normal(size=(m, d))
    tracemalloc.start()
    try:
        nearest_center(Metric(), P, C)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # idx and d**z are 16 bytes a row; beyond them a few blocks of
    # CHUNK_CELLS float64 (about 3.3: the previous block, the exact form's
    # output, which is also its scratch, its sum, and ufunc buffers), where a
    # full (n, m) matrix would be 8*n*m
    assert peak < 16 * n + 4 * 8 * geometry.CHUNK_CELLS


@pytest.mark.parametrize("n, m, d", [(20_000, 2_000, 2), (20_000, 512, 16)])
def test_the_center_skip_holds_an_index_plus_a_few_blocks(n, m, d):
    assert m >= geometry.SKIP_CENTERS
    rng = np.random.default_rng(4)
    P = rng.normal(size=(n, d))
    drawn = rng.choice(n, m, replace=False)
    C = P[drawn]
    tracemalloc.start()
    try:
        idx, _ = nearest_center(Metric(), P, C)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(idx[drawn], np.arange(m))
    # the outputs, the index of the points that are not centers (8 bytes a
    # row; the lookup keys its points a block at a time) and a few blocks
    assert peak < 24 * n + 4 * 8 * geometry.CHUNK_CELLS


@pytest.mark.parametrize("d", [2, 16])
def test_a_set_below_the_skip_threshold_never_keys_its_rows(d, monkeypatch):
    row_keys, keyed = geometry._row_keys, []

    def recording(rows):
        keyed.append(len(rows))
        return row_keys(rows)

    monkeypatch.setattr(geometry, "_row_keys", recording)
    P = np.random.default_rng(6).normal(size=(3_000, d))
    m = geometry.SKIP_CENTERS
    below = nearest_center(Metric(), P, P[:m - 1])
    assert keyed == [] and np.array_equal(below[0][:m - 1], np.arange(m - 1))
    at = nearest_center(Metric(), P, P[:m])
    # the centers are keyed once, then the points a block at a time
    assert keyed[0] == m and sum(keyed[1:]) == len(P)
    assert np.array_equal(at[0][:m], np.arange(m))


def test_every_pairwise_call_is_one_block(monkeypatch):
    # only the row-block walk of nearest_center and costs and the slab walk
    # of distance_table call pairwise_dist: each hands it about CHUNK_CELLS
    # distances, one row when m is larger (a slab: one center when n is
    # larger)
    pairwise, widths = geometry.pairwise_dist, []

    def recording(metric, points, centers, **kwargs):
        out = pairwise(metric, points, centers, **kwargs)
        widths.append(out.shape)
        return out

    monkeypatch.setattr(geometry, "pairwise_dist", recording)
    rng = np.random.default_rng(5)
    P = rng.normal(size=(1200, 2))
    data = (P, rng.uniform(0.1, 10.0, len(P)), Metric())
    # each full table below is 2.7 to 5.5 blocks of CHUNK_CELLS
    candidate_trimmed_costs(Metric(), P, data[1], P[:300], 0.8, 1.0)
    metric_from_points(P[:600])
    brute_force_k_median(data, 2, P[:150])
    weighted_local_search(data, 3, P[:300], seed=1, max_iters=2)
    nearest_center(Metric(), P, P[:300])
    nearest_center(Metric(), P, P[:geometry.SKIP_CENTERS])   # with the skip
    nearest_center(Metric(), P[:3, :1], rng.normal(size=(70_000, 1)))
    # cost sets of both forms, one walk
    costs(data, [P[:300], rng.normal(size=(2_100, 2))])
    assert len(widths) > 30
    for rows, m in widths:
        assert rows * m <= max(geometry.CHUNK_CELLS, m)


@FEW
@given(kind=kinds, d=st.sampled_from([1, 2, 16, 300]), n=st.integers(1, 300),
       seed=seeds, z=st.sampled_from([1.0, 1.5, 2.0]), chunk=chunks,
       data=st.data())
def test_costs_are_the_one_set_formula_bit_for_bit(kind, d, n, seed, z, chunk,
                                                   data):
    metric, P, _ = instance(kind, n, (1, d), seed)
    w = np.random.default_rng(seed).uniform(-2.0, 10.0, n)
    # one call mixes exact sets with sets wider than EXACT_MAX_WIDTH
    edge = EXACT_MAX_WIDTH // d
    ms = data.draw(st.lists(st.sampled_from([1, 3, 5, edge, edge + 1, edge + 40]),
                            min_size=1, max_size=6))
    sets = [instance(kind, 1, (m, d), seed + 1 + i)[2] for i, m in enumerate(ms)]
    ref = [weighted_sum(nearest_center(metric, P, x, z)[1], w) for x in sets]
    with mock.patch.object(geometry, "CHUNK_CELLS", chunk):
        got = costs((P, w, metric), sets, z)
    assert np.array_equal(got, ref)
    assert [cost((P, w, metric), x, z) for x in sets] == ref


def test_costs_raise_what_cost_raised():
    data = (np.array([[0.0, 0.0], [1e154, 0.0]]), np.ones(2), Metric())
    ok = [[5e153, 0.0]]
    assert costs(data, [ok])[0] == 1e154
    with pytest.raises(InputError, match="overflows"):
        costs(data, [ok, [[-1e154, 1e154]]])
    with pytest.raises(InputError, match="overflows"):
        costs(([[0.0], [1e200]], np.ones(2), Metric()), [[[0.0]]], z=2)
    with pytest.raises(InputError,
                       match="dimension mismatch: points are 2-D, centers 3-D"):
        costs(data, [ok, [[0.0, 0.0, 0.0]]])
    with pytest.raises(InputError,
                       match="dimension mismatch: points are 2-D, centers 1-D"):
        costs(data, [np.zeros((3_000, 1))])
    with pytest.raises(InputError, match="center set must be nonempty"):
        costs(data, [ok, np.empty((0, 2))])
    with pytest.raises(InputError, match="empty point set"):
        costs((np.empty((0, 2)), np.ones(0), Metric()), [ok])
    assert costs(data, []).shape == (0,)


def grouped_instance(kind, d, n, seed):
    """(metric, points) for the grouped walk; the matrix holds -0.0 next to
    0.0 in every row, so signed zeros tie."""
    rng = np.random.default_rng(seed)
    if kind == MATRIX:
        D = np.round(np.abs(rng.normal(size=(n, n))), 1)
        D[:, :4] = [0.0, -0.0, 0.0, -0.0]
        return Metric(kind=MATRIX, matrix=D), np.arange(n)
    return Metric(), rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4)


def shape(kind, d, k, G, n=40):
    return pytest.param(kind, d, k, G, n, id=f"{kind}-{d}-{k}-{G}")


@pytest.mark.parametrize("z", [1.0, 2.0])
@pytest.mark.parametrize("kind, d, k, G, n", [
    shape("euclidean", 2, 3, 5),            # the exact form
    shape("euclidean", 16, 5, 60),          # exact sets, a group of 4,800 wide
    shape("euclidean", 300, 14, 5),         # the dot form: k*d > 4096, d > 3
    shape(MATRIX, None, 3, 5),
    shape("euclidean", 16, 5, 2, n=5_000),  # the verify audit's data side
    shape("euclidean", 2, 3, 3, n=6_000)])  # the build audit's data side
def test_grouped_costs_are_the_one_set_formula_bit_for_bit(kind, d, k, G, n, z):
    # sets of k centers go CHUNK_CELLS // (k * max(n, d)) at a time through
    # one block.  The budget below makes it G, so the sets of k span several
    # groups; sets of other sizes in between form groups of their own shape
    metric, P = grouped_instance(kind, d, n, seed=k)
    rng = np.random.default_rng(int(z))
    w = rng.uniform(-2.0, 10.0, n)
    sizes = [k] * (2 * G - 1) + [1] * 6 + [k] * 2 + [k + 1] * 5 + [k] * (G + 3) \
        + [2]
    pool = np.arange(n) if kind == MATRIX else P
    # a matrix set draws a -0.0 column and a 0.0 one, in either order
    sets = [pool[np.r_[rng.permutation(4)[:2], rng.choice(np.arange(4, n), m - 2)]]
            if kind == MATRIX and m >= 2 else pool[rng.choice(n, m)]
            for m in sizes]
    ref = [weighted_sum(nearest_center(metric, P, x, z)[1], w) for x in sets]
    calls = []
    pairwise = geometry.pairwise_dist

    def recording(metric, points, centers, **kwargs):
        calls.append(len(centers))
        return pairwise(metric, points, centers, **kwargs)

    with mock.patch.object(geometry, "CHUNK_CELLS", G * k * max(n, d or 1)), \
            mock.patch.object(geometry, "pairwise_dist", recording):
        assert geometry._group_size(n, sets[0]) == G
        got = costs((P, w, metric), sets, z)
        # each group's rows, before their sums, are each set's own d**z,
        # signed zeros included
        group = sets[:G]
        rows = np.empty((G, n))
        geometry._nearest_walk(metric, P, group, z, rows)
    assert got.tobytes() == np.array(ref).tobytes()
    for row, x in zip(rows, group):
        assert row.tobytes() == nearest_center(metric, P, x, z)[1].tobytes()
    assert len(calls) < len(sets) and max(calls) == G * k


def test_only_small_walks_are_grouped():
    # the benchmark's audits: verify (n = 5,000, k = 5) walks 2 sets a
    # block, build (n = 6,000, k = 3) 3 and metric (n = 500, k = 3) 43; a
    # set wider than a block walks alone
    assert geometry._group_size(5_000, np.zeros((5, 16))) == 2
    assert geometry._group_size(6_000, np.zeros((3, 2))) == 3
    assert geometry._group_size(500, np.zeros(3, dtype=np.intp)) == 43
    assert geometry._group_size(2, np.zeros((1, 70_000))) == 1


def test_no_distance_is_a_negative_zero():
    # a stored -0.0 is a distance of +0.0, so a minimum over a tie has the
    # bits argmin picks whichever zero comes first; the matrix is kept
    D = np.array([[0.0, -0.0, 1.0], [-0.0, 0.0, 2.0], [1.0, 2.0, -0.0]])
    metric = Metric(kind=MATRIX, matrix=D)
    ids = np.arange(3)
    for block in (pairwise_dist(metric, ids, ids),
                  pairwise_dist(metric, ids, ids, out=np.empty((3, 3)))):
        assert not np.signbit(block).any()
    idx, dz = nearest_center(metric, ids, [1, 0, 2])
    assert idx.tolist() == [0, 0, 2] and not np.signbit(dz).any()
    assert not np.signbit(costs((ids, np.ones(3), metric),
                                [[1, 2]] * 50)).any()
    assert np.signbit(metric.matrix).sum() == 3


def test_a_bad_set_raises_after_the_sets_before_it():
    # as when each set was walked alone, an overflow in an earlier set of
    # a group is what raises, not a later set's failed check
    data = (np.array([[0.0, 0.0], [1e154, 0.0]]), np.ones(2), Metric())
    with pytest.raises(InputError, match="overflows"):
        costs(data, [[[5e153, 0.0]], [[-1e154, 1e154]], np.empty((0, 2))])
    with pytest.raises(InputError, match="center set must be nonempty"):
        costs(data, [[[5e153, 0.0]], [[0.0, 0.0]], np.empty((0, 2))])


def test_grouped_costs_hold_a_few_blocks():
    rng = np.random.default_rng(8)
    n, d = 500, 2
    data = (rng.normal(size=(n, d)), np.ones(n), Metric())
    sets = [rng.normal(size=(3, d)) for _ in range(1_000)]
    tracemalloc.start()
    try:
        costs(data, sets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the copy, the output, and a group's stacked centers, pairwise blocks
    # and d**z rows, each at most a block of CHUNK_CELLS float64
    assert peak < 8 * n * d + 8 * len(sets) + 5 * 8 * geometry.CHUNK_CELLS


@pytest.mark.parametrize("m, d", [(3, 2), (5, 16), (2_100, 2), (257, 16)])
def test_costs_memory_does_not_grow_with_the_queries(m, d):
    rng = np.random.default_rng(7)
    n = 20_000
    data = (rng.normal(size=(n, d)), np.ones(n), Metric())
    sets = [rng.normal(size=(m, d)) for _ in range(40)]
    peaks = []
    for q in (2, 40):
        tracemalloc.start()
        try:
            costs(data, sets[:q])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # the coordinate-major copy (8*n*d), the d**z row (8*n) and a few
    # blocks of CHUNK_CELLS float64 (the dot form's expansion holds about
    # 4.3); 38 more queries add 304 bytes of output
    block = 8 * max(geometry.CHUNK_CELLS, EXACT_MAX_WIDTH)
    assert peaks[0] < 8 * n * (d + 1) + 5 * block
    assert peaks[1] <= peaks[0] + 8 * 38 + 4096


def test_trimmed_costs_hold_a_few_blocks():
    # every point a candidate: the (m, n) table of d**z would be 72 MB
    rng = np.random.default_rng(6)
    n = m = 3000
    P = rng.normal(size=(n, 2))
    tracemalloc.start()
    try:
        candidate_trimmed_costs(Metric(), P, np.ones(n), P[:m], 0.7, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a block of table rows, the fill's scratch and the sort's order, taken
    # and cumulative weights, each about CHUNK_CELLS float64 (6.2 blocks
    # measured)
    assert peak < 8 * 8 * geometry.CHUNK_CELLS


@FEW
@given(n=st.integers(1, 3000), m=st.integers(1, 60), seed=seeds, z=powers,
       gamma=st.floats(0.01, 1.0), signed=st.booleans())
def test_trimmed_costs_are_trimmed_cost_row_by_row(n, m, seed, z, gamma, signed):
    # blocks of table rows sort at once; coarse points make ties
    rng = np.random.default_rng(seed)
    P = np.round(rng.normal(size=(n, 2)), 1)
    w = rng.uniform(-2.0, 10.0, n) if signed else rng.integers(0, 5, n)
    assume(np.sum(w) >= 0)
    C = P[rng.integers(0, n, m)]
    count = _trim_count(gamma, float(np.sum(w)))
    ref = [trimmed_cost(row, w, count) for row in distance_table(Metric(), P, C, z)]
    got = candidate_trimmed_costs(Metric(), P, w, C, gamma, z)
    assert got.tobytes() == np.array(ref).tobytes()


def test_trimmed_cost_blocks_follow_the_chunk_budget(monkeypatch):
    # robust sizes its sorted blocks with geometry.block_rows, so a patched
    # budget reaches them: 5 table rows of n entries a block
    import coreclust.robust as robust
    take, shapes = robust.take_smallest, []

    def recording(values, weights, count):
        shapes.append(np.shape(values))
        return take(values, weights, count)

    rng = np.random.default_rng(9)
    n, m = 40, 23
    P = rng.normal(size=(n, 2))
    whole = candidate_trimmed_costs(Metric(), P, np.ones(n), P[:m], 0.7, 1.0)
    monkeypatch.setattr(robust, "take_smallest", recording)
    monkeypatch.setattr(geometry, "CHUNK_CELLS", 5 * n)
    got = candidate_trimmed_costs(Metric(), P, np.ones(n), P[:m], 0.7, 1.0)
    assert shapes == [(5, n)] * 4 + [(3, n)]
    assert got.tobytes() == whole.tobytes()


@pytest.mark.parametrize("n", [17, 100, 1200, 5000])
def test_weighted_sum_does_not_depend_on_memory_layout(n):
    # einsum adds strided and Fortran-ordered operands in another order
    rng = np.random.default_rng(n)
    v = rng.normal(size=2 * n) * 10.0 ** rng.integers(-8, 9, 2 * n)
    w = rng.uniform(0.1, 10.0, 2 * n)
    assert weighted_sum(v[::2], w[:n]) == weighted_sum(v[::2].copy(), w[:n])
    assert weighted_sum(v[:n], w[::2]) == weighted_sum(v[:n], w[::2].copy())
    batch = v[:5 * (2 * n // 5)].reshape(5, -1)
    F = np.asfortranarray(batch)
    rows = [weighted_sum(r.copy(), w[:batch.shape[1]]) for r in batch]
    assert np.array_equal(weighted_sum(F, w[:batch.shape[1]]), rows)
    assert np.array_equal(weighted_sum(batch, w[:batch.shape[1]]), rows)


def test_equidistant_point_takes_the_first_center():
    idx, dz = nearest_center(Metric(), [[0.0], [5.0]], [[1.0], [-1.0], [5.0]])
    assert idx.tolist() == [0, 2]
    assert dz.tolist() == [1.0, 0.0]


def test_overflow_is_an_input_error():
    P = np.array([[1e154, -1e154], [2e154, 3e154]])
    with pytest.raises(InputError, match="overflows"):
        nearest_center(Metric(), P, [[-3e154, 1e154]])
    with pytest.raises(InputError, match="overflows"):
        nearest_center(Metric(), [[0.0], [1e200]], [[0.0]], z=2)


def test_cost_accepts_weighted_inputs():
    pts = np.array([[0.0], [3.0], [10.0]])
    w = np.array([1.0, 2.0, 0.5])
    assert cost((pts, w, Metric()), [[0.0], [10.0]]) == 6.0
    assert cost((pts, w, Metric()), [[0.0]], z=2) == 68.0


def left_to_right(p, c):
    """Squared distance with the coordinates added in order, in Python floats."""
    acc = 0.0
    for a, b in zip(p, c):
        acc += (a - b) * (a - b)
    return acc


@FEW
@given(d=st.sampled_from([1, 2, 7, 8, 16]), n=st.integers(1, 8), seed=seeds,
       data=st.data())
def test_every_exact_entry_is_the_left_to_right_sum(d, n, seed, data):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-3, 4)
    # exact form: m*d up to EXACT_MAX_WIDTH
    m = data.draw(st.integers(1, EXACT_MAX_WIDTH // d))
    P, C = rng.normal(size=(n, d)) * scale, rng.normal(size=(m, d)) * scale
    ref = np.array([[left_to_right(p, c) for c in C.tolist()] for p in P.tolist()])
    D = pairwise_dist(Metric(), P, C)
    assert np.array_equal(D, np.sqrt(ref))
    if d <= 7:
        # numpy's own reduction over the last axis adds in order below 8 terms
        diff = P[:, None, :] - C[None, :, :]
        assert np.array_equal(D, np.sqrt((diff * diff).sum(axis=2)))
    # dot-product form (a wide set above EXACT_MAX_DIM): points placed on or
    # next to centers get recomputed
    d = max(d, EXACT_MAX_DIM + 1)
    m = EXACT_MAX_WIDTH // d + 1 + data.draw(st.integers(0, 40))
    C = rng.normal(size=(m, d)) * scale
    on = rng.integers(0, m, n)
    noise = rng.normal(size=(n, d)) * 1e-7 * (rng.random(n) < 0.7)[:, None]
    P = C[on] * (1.0 + noise)
    D = pairwise_dist(Metric(), P, C)
    near = D[np.arange(n), on]
    assert np.array_equal(near, np.sqrt([left_to_right(P[i], C[on[i]])
                                         for i in range(n)]))
    if d <= 7:
        diff = P - C[on]
        assert np.array_equal(near, np.sqrt((diff * diff).sum(axis=1)))


@FEW
@given(d=st.integers(1, EXACT_MAX_DIM), n=st.integers(1, 6),
       extra=st.integers(0, 3000), seed=seeds)
def test_wide_low_d_sets_are_the_left_to_right_sum(d, n, extra, seed):
    # wider than EXACT_MAX_WIDTH, but at d <= EXACT_MAX_DIM every entry is
    # the exact form's; far from the origin the dot form would cancel digits
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-3, 4)
    m = EXACT_MAX_WIDTH // d + 1 + extra
    C = (rng.normal(size=(m, d)) + 50.0) * scale
    P = (rng.normal(size=(n, d)) + 50.0) * scale
    P[: n // 2] = C[rng.integers(0, m, n // 2)]
    ref = np.array([[left_to_right(p, c) for c in C.tolist()] for p in P.tolist()])
    assert np.array_equal(pairwise_dist(Metric(), P, C), np.sqrt(ref))


@pytest.mark.parametrize("kind, n, shape", [
    ("euclidean", 700, (300, 2)), ("euclidean", 3, (300, 2)),
    ("euclidean", 700, (1025, 4)), ("euclidean", 400, (257, 16)),
    (MATRIX, 700, (12, 1)), (MATRIX, 3, (12, 1))])
@pytest.mark.parametrize("z", [1.0, 2.0])
def test_tables_are_filled_in_place(monkeypatch, kind, n, shape, z):
    # every slab is computed in the table's own rows: each block that
    # pairwise_dist returns is a view of the table, and the table holds the
    # bits of the whole call powered
    metric, P, C = instance(kind, n, shape, seed=8)
    pairwise, blocks = geometry.pairwise_dist, []

    def recording(metric, points, centers, **kwargs):
        blocks.append(pairwise(metric, points, centers, **kwargs))
        return blocks[-1]

    monkeypatch.setattr(geometry, "pairwise_dist", recording)
    monkeypatch.setattr(geometry, "CHUNK_CELLS", 5 * n)
    table = distance_table(metric, P, C, z)
    monkeypatch.undo()
    assert table.tobytes() == (pairwise_dist(metric, P, C) ** z).T.tobytes()
    assert len(blocks) > 1 and sum(b.shape[1] for b in blocks) == len(C)
    assert all(np.shares_memory(b, table) for b in blocks)


def test_cost_does_not_depend_on_the_blas_thread_count(child_env):
    import subprocess
    import sys

    # BLAS dot splits long sums between threads, each adding its own part
    code = ("import numpy as np\n"
            "from coreclust.geometry import Metric, cost\n"
            "rng = np.random.default_rng(0)\n"
            "P = rng.normal(size=(20000, 2)) * 3.0\n"
            "w = rng.uniform(0.1, 10.0, 20000)\n"
            "print(cost((P, w, Metric()), rng.normal(size=(3, 2))).hex())\n")
    out = []
    for threads in ("1", "2"):
        env = dict(child_env, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        out.append(proc.stdout)
    assert out[0] == out[1]


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_the_matrix_gather_is_the_indexed_block_bit_for_bit(layout):
    # the kernel reads d(p, c) as D[p, c]: the matrix is not symmetric, so
    # a gather that read D[c, p] would differ; its -0.0 entries read +0.0
    rng = np.random.default_rng(11)
    D = rng.uniform(0.5, 9.0, size=(50, 50))
    D[rng.random((50, 50)) < 0.2] = -0.0
    np.fill_diagonal(D, 0.0)
    stored = {"C": D, "F": np.asfortranarray(D),
              "strided": np.repeat(np.repeat(D, 2, axis=0), 2, axis=1)[::2, ::2]}
    metric = Metric(kind=MATRIX, matrix=stored[layout])
    assert metric.matrix.flags.c_contiguous and not metric.matrix.flags.writeable
    assert metric.matrix.tobytes() == D.tobytes()
    for n, m in [(70, 9), (1, 1), (3, 40), (50, 50)]:
        P, C = rng.integers(0, 50, n), rng.integers(0, 50, m)
        ref = D[np.ix_(P, C)] + 0.0
        block = pairwise_dist(metric, P, C)
        assert block.shape == ref.shape and block.tobytes() == ref.tobytes()
        out = np.empty((m, n))
        block = pairwise_dist(metric, P, C, out=out)
        assert np.shares_memory(block, out) and block.tobytes() == ref.tobytes()
        assert not np.signbit(block).any()


def test_a_matrix_walk_holds_a_few_blocks():
    rng = np.random.default_rng(12)
    n = 2_000
    metric = Metric(kind=MATRIX, matrix=rng.uniform(0.5, 9.0, size=(n, n)))
    ids, w = np.arange(n), np.ones(n)
    C = rng.integers(0, n, n)
    tracemalloc.start()
    try:
        idx, dz = nearest_center(metric, ids, C)
        costs((ids, w, metric), [C, C[:3], C[3:6]])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert idx.tolist() == metric.matrix[ids[:, None], C].argmin(axis=1).tolist()
    # the checked ids, the outputs and a few blocks of CHUNK_CELLS: the
    # gathered distances and their flat indices; the 32 MB matrix is not
    # copied
    assert peak < 32 * n + 5 * 8 * geometry.CHUNK_CELLS
