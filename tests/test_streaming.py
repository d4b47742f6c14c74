import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coreclust import solvers, streaming
from coreclust.geometry import (
    InputError,
    PointSet,
    cost,
    metric_from_points,
)
from coreclust.io import gaussian_mixture
from coreclust.solvers import constant_factor_metric_kmedian
from coreclust.streaming import (
    DELTA,
    StreamState,
    actual_total_weight,
    expected_total_weight,
    level_eps,
    stream_push,
    stream_query,
)


def feed(state, pts):
    for p in pts:
        stream_push(state, p)
    return state


class TestBadPoints:
    """A bad point raises, naming its position, before the state changes:
    the buffer and points_seen stay as they were and the stream goes on."""

    @staticmethod
    def fill(state, count, rng):
        feed(state, rng.normal(size=(count, 2)))

    @pytest.mark.parametrize("point, message", [
        ([np.nan, 3.0], "stream point 11 has non-finite coordinates"),
        ([1.0, np.inf], "stream point 11 has non-finite coordinates"),
        ([1.0, 2.0, 3.0], "stream point 11 has 3 coordinates; the stream's "
                          "points have 2"),
        ([1.0], "stream point 11 has 1 coordinates"),
        (["x", 1.0], "stream point 11: could not convert string to float"),
        ([[1.0, 2.0], [3.0]], "stream point 11: setting an array element")])
    def test_a_bad_row_changes_nothing(self, point, message):
        rng = np.random.default_rng(4)
        state = StreamState(k=1, eps_bar=0.4, seed=2, block_size=11)
        self.fill(state, 10, rng)
        buffer = [row.copy() for row in state.buffer]
        with pytest.raises(InputError, match=message):
            stream_push(state, point)
        assert state.points_seen == 10 and state.builds == 0
        assert np.array_equal(state.buffer, buffer)
        # the next good point completes the block
        stream_push(state, [0.5, 0.5])
        assert state.points_seen == 11 and state.buffer == []
        assert state.levels == [0]

    @pytest.mark.parametrize("point, message", [
        (3.7, "stream point 6: explicit-metric points must be a 1-D integer"),
        (8.0, "stream point 6: explicit-metric points must be a 1-D integer"),
        ("x", "stream point 6: explicit-metric points must be a 1-D integer"),
        ("3", "stream point 6: explicit-metric points must be a 1-D integer"),
        (None, "stream point 6: explicit-metric points must be a 1-D integer"),
        (20, "stream point 6: point ids out of range \\[0, 20\\)"),
        (-1, "stream point 6: point ids out of range")])
    def test_a_bad_id_changes_nothing(self, point, message):
        metric = metric_from_points(gaussian_mixture(20, 2, 2, seed=5))
        state = StreamState(k=1, eps_bar=0.4, seed=2, block_size=6,
                            metric=metric)
        feed(state, [0, 1, 2, 3, 4])
        with pytest.raises(InputError, match=message):
            stream_push(state, point)
        assert state.points_seen == 5 and state.buffer == [0, 1, 2, 3, 4]
        stream_push(state, np.int64(7))
        stream_push(state, 8)
        assert state.points_seen == 7 and state.buffer == [8]
        assert state.levels == [0]

    def test_the_first_bad_row_sets_no_width(self):
        state = StreamState(k=1, eps_bar=0.4, seed=2, block_size=4)
        with pytest.raises(InputError, match="stream point 1 has non-finite"):
            stream_push(state, [np.nan, 1.0, 2.0])
        stream_push(state, [1.0, 2.0])
        with pytest.raises(InputError, match="stream point 2 has 3"):
            stream_push(state, [1.0, 2.0, 3.0])


class TestCounterLaw:
    def test_occupancy_matches_binary_representation(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(1024, 2))
        state = StreamState(k=1, eps_bar=0.4, seed=1, block_size=64)
        for i, p in enumerate(pts, start=1):
            stream_push(state, p)
            if i % 64 == 0:
                blocks = i // 64
                want = [lvl for lvl in range(blocks.bit_length())
                        if blocks >> lvl & 1]
                assert state.levels == want, f"after {blocks} blocks"

    @settings(max_examples=12, deadline=None)
    @given(k=st.integers(1, 3), block=st.integers(4, 24),
           n=st.integers(0, 150), seed=st.integers(0, 2 ** 32 - 1))
    def test_counter_and_storage_laws(self, k, block, n, seed):
        state = StreamState(k=k, eps_bar=0.4, seed=seed, block_size=block + k)
        size = state.block_size
        for i, p in enumerate(np.random.default_rng(seed).normal(size=(n, 2)),
                              start=1):
            stream_push(state, p)
            blocks = i // size
            # buckets are the binary digits of the block count; each block
            # costs one build and each carry one more
            assert state.levels == [lvl for lvl in range(blocks.bit_length())
                                    if blocks >> lvl & 1]
            assert len(state.buffer) == i % size
            assert state.builds == 2 * blocks - bin(blocks).count("1")
            assert all(len(b) <= size for b in state.buckets.values())
            assert state.stored_points < size * (len(state.levels) + 1)
        assert state.points_seen == n
        assert actual_total_weight(state) == pytest.approx(
            expected_total_weight(state), rel=1e-9)

    def test_two_blocks_single_carry(self):
        rng = np.random.default_rng(1)
        state = feed(StreamState(k=1, eps_bar=0.4, seed=2, block_size=32),
                     rng.normal(size=(64, 2)))
        assert state.levels == [1]

    def test_space_bound(self):
        rng = np.random.default_rng(2)
        state = StreamState(k=2, eps_bar=0.4, seed=3, block_size=32)
        for i, p in enumerate(rng.normal(size=(700, 2)), start=1):
            stream_push(state, p)
            levels = max(state.levels, default=0)
            assert state.stored_points <= 32 * (levels + 2)


class TestQueries:
    def test_exact_before_first_carry(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(20, 2))
        state = feed(StreamState(k=1, eps_bar=0.4, seed=4, block_size=64), pts)
        x = pts[:1]
        assert stream_query(state, x) == pytest.approx(
            cost(PointSet(pts), x), rel=1e-12)

    def test_identical_points_zero_forever(self):
        state = StreamState(k=1, eps_bar=0.4, seed=5, block_size=16)
        feed(state, np.zeros((200, 2)))
        assert stream_query(state, np.zeros((1, 2))) == 0.0

    def test_no_points_rejected(self):
        state = StreamState(k=1, eps_bar=0.4, seed=6, block_size=16)
        with pytest.raises(InputError):
            stream_query(state, np.zeros((1, 2)))


class TestLedger:
    def test_weight_ledger_exact(self):
        rng = np.random.default_rng(7)
        state = StreamState(k=2, eps_bar=0.3, seed=8, block_size=48)
        feed(state, rng.normal(size=(480, 2)))
        assert actual_total_weight(state) == pytest.approx(
            expected_total_weight(state), rel=1e-9)

    def test_the_constructor_takes_only_configuration(self):
        for state_field in ("buffer", "buckets", "ledger", "points_seen",
                            "builds", "delta"):
            with pytest.raises(TypeError, match=state_field):
                StreamState(k=1, eps_bar=0.4, seed=1, **{state_field: 0})
        state = StreamState(k=1, eps_bar=0.4, seed=1, block_size=16)
        assert (state.buffer, state.buckets, state.ledger) == ([], {}, {})
        assert state.points_seen == state.builds == 0

    def test_eps_schedule(self):
        assert level_eps(0.3, 0) == pytest.approx(0.15)
        assert level_eps(0.3, 1) == pytest.approx(0.3 / 8)
        total = sum(level_eps(0.3, lvl) for lvl in range(200))
        assert total < 0.3  # convergent budget


class TestReplay:
    def test_same_stream_same_state(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(300, 2))
        a = feed(StreamState(k=2, eps_bar=0.4, seed=10, block_size=32), pts)
        b = feed(StreamState(k=2, eps_bar=0.4, seed=10, block_size=32), pts)
        assert a.checkpoint() == b.checkpoint()
        x = pts[:2]
        assert stream_query(a, x) == stream_query(b, x)


class TestAccuracy:
    def test_stream_vs_batch_moderate_error(self):
        ok = 0
        for seed in range(6):
            pts = gaussian_mixture(1024, 2, 2, seed + 40)
            state = feed(StreamState(k=2, eps_bar=0.3, seed=seed,
                                     block_size=128), pts)
            P = PointSet(pts)
            rng = np.random.default_rng(seed)
            worst = 0.0
            for _ in range(30):
                x = pts[rng.choice(1024, 2, replace=False)]
                batch = cost(P, x)
                worst = max(worst, abs(stream_query(state, x) - batch) / batch)
            ok += worst <= 0.5
        assert ok >= 5


class TestExplicitMetric:
    def test_ids_stream_through_carries(self):
        # the id path of stream_push and stream_query: 5 blocks of 40 ids
        # make 8 builds, so 3 carries
        coords = gaussian_mixture(200, 2, 2, seed=21)
        metric = metric_from_points(coords)
        ids = np.random.default_rng(22).permutation(200)
        state = StreamState(k=2, eps_bar=0.3, seed=23, metric=metric,
                            block_size=40)
        for i in ids:
            stream_push(state, i)
        assert state.points_seen == 200 and state.builds == 8
        assert state.levels == [0, 2]
        assert state.child_anchor_carries == 3
        assert all(len(b) <= 40 for b in state.buckets.values())
        assert state.stored_points < 40 * (len(state.levels) + 1)
        for core in state.buckets.values():
            assert np.issubdtype(core.points.dtype, np.integer)
        assert actual_total_weight(state) == pytest.approx(
            expected_total_weight(state), rel=1e-9)
        P = PointSet(np.arange(200), metric=metric)
        rng = np.random.default_rng(24)
        for _ in range(5):
            x = rng.choice(200, 2, replace=False)
            true = cost(P, x)
            assert abs(stream_query(state, x) - true) <= 0.3 * true


class TestChildAnchorCarries:
    """A carry takes its k anchors from the anchors its two children hold,
    unless a child is degenerate."""

    @staticmethod
    def spy(monkeypatch):
        """Every build as (children, coreset), in order."""
        builds, reduce = [], streaming._reduce

        def recorded(state, points, weights, level, children=()):
            core = reduce(state, points, weights, level, children)
            builds.append((children, core))
            return core

        monkeypatch.setattr(streaming, "_reduce", recorded)
        return builds

    def test_carried_anchors_come_from_the_children(self, monkeypatch):
        builds = self.spy(monkeypatch)
        state = StreamState(k=3, eps_bar=0.3, seed=31, block_size=48)
        feed(state, gaussian_mixture(48 * 11 + 20, 2, 3, seed=32))
        # 11 blocks = 0b1011: levels [0, 1, 3], 11 - 3 = 8 carries
        assert state.levels == [0, 1, 3] and len(state.buffer) == 20
        assert state.builds == len(builds) == 19
        assert state.stored_points == 48 * 3 + 20
        carried = [(c, core) for c, core in builds if c]
        assert len(carried) == 8 == state.child_anchor_carries
        for children, core in carried:
            cand = np.concatenate([c.points[-c.provenance["anchors"]:]
                                   for c in children])
            anchors = core.points[-core.provenance["anchors"]:]
            assert len(anchors) == 3
            for a in anchors:
                assert np.any(np.all(cand == a, axis=1))
            assert set(core.provenance) == {
                "seed", "t", "eps", "z", "anchors", "inflation", "k", "delta",
                "c", "bicriteria_cost"}
            merged = np.concatenate([c.weights for c in children])
            pts = np.concatenate([c.points for c in children])
            assert core.provenance["bicriteria_cost"] == pytest.approx(
                cost((pts, np.abs(merged), state.metric), anchors), rel=1e-12)
        counters = state.counters()
        assert counters == {
            "block_builds": 11, "carries": 8, "child_anchor_carries": 8,
            "negative_weights": sum(int((b.weights < 0).sum())
                                    for b in state.buckets.values())}

    def test_identical_points_take_the_full_pipeline_and_stay_exact(
            self, monkeypatch):
        builds = self.spy(monkeypatch)
        state = StreamState(k=2, eps_bar=0.3, seed=33, block_size=16)
        feed(state, np.full((16 * 7, 2), 1.5))
        assert state.levels == [0, 1, 2] and state.builds == 11
        assert all(core.provenance.get("degenerate") for _, core in builds)
        assert state.child_anchor_carries == 0
        assert state.counters()["carries"] == 4
        x = np.array([[1.5, 3.5], [-2.5, 1.5]])
        assert stream_query(state, x) == 16 * 7 * 2.0

    def test_anchors_cost_near_the_full_pipelines(self, monkeypatch):
        # the full pipeline's anchors on each build's merged set, with the
        # build's own eps and seed, at the one finish (finish_coreset): a
        # carry's anchors cost at most 5% more, and a block build's are the
        # full pipeline's own, at ratio 1
        ratios, rebuild = [], solvers.k_median_coreset

        def compare(data, B, t, eps, z=1.0, seed=None):
            pts, w, metric = data
            full = constant_factor_metric_kmedian((pts, np.abs(w), metric), 3,
                                                  eps, DELTA, seed)
            ratios.append(cost((pts, np.abs(w), metric), B) / full.cost)
            return rebuild(data, B, t, eps, z=z, seed=seed)

        monkeypatch.setattr(solvers, "k_median_coreset", compare)
        for seed in (1, 2, 3):
            state = StreamState(k=3, eps_bar=0.2, seed=seed, block_size=531)
            feed(state, gaussian_mixture(531 * 8, 2, 3, seed))
        assert len(ratios) == 3 * (8 + 7) and ratios.count(1.0) >= 3 * 8
        assert max(ratios) <= 1.05
