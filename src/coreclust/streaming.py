"""One-pass streaming coresets via a binary merge-and-reduce counter.

Incoming points are buffered; every full block is compressed into a level-0
coreset, and two coresets at the same level merge (concatenate weighted
points) and reduce (rebuild a coreset on the merged weighted set) into the
next level, exactly like binary-counter carries.  Level ell builds use
eps_ell = eps_bar / (2 (ell+1)^2), so the compounded error over any carry
chain stays below eps_bar * pi^2 / 12.

Every build takes its k anchors from a few candidates A, costed on the
build's points at |w| and z = 1.  Let O be an optimal k there and a(o) the
candidate nearest o.  Moving each point p from o to a(o) adds at most
d(o, a(o)) <= d(o, p) + d(p, A) to its cost, so the k points a(O), and the
best k of A, cost at most 2 OPT + cost(A).

A carry re-solves on the anchors its two children already hold (the scheme
of Guha, Meyerson, Mishra, Motwani & O'Callaghan, "Clustering Data
Streams"): A = A1 u A2, and it takes the best k of A.  cost(A) is at most the
children's anchor costs on their coresets, which estimate their inputs'
costs in expectation over the children's draws.  So if each child's anchors
cost at most c OPT_i, then, as OPT1 + OPT2 <= OPT, the chosen k cost at most
(2 + c) OPT, up to the children's sampling error: the constant factor
Feldman & Langberg's construction asks of its anchors.

A block, or a carry with a degenerate child, draws A from its own points:
up to CANDIDATES_PER_K * k distinct points by D^1 sampling at |w|
(_d1_candidates), the k-means++ seeding at power 1 (Arthur & Vassilvitskii,
SODA 2007) oversampled as in k-means|| (Bahmani et al., VLDB 2012).  A's
first k draws are such a seeding, so E[cost(A)] <= O(log k) OPT, and by
the bound above so is the best k of A.  Single-swap local search over A
(weighted_local_search) ends within 5 times the best k of A (Arya et al.,
SICOMP 2004), so the anchors cost O(log k) OPT in expectation: a constant
factor for the stream's fixed k.  Every build ends in finish_coreset.

Space: every bucket holds at most block_size points and the buffer fewer than
block_size, so storage is block_size * (levels + 1) points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    InputError,
    Metric,
    _coordinate_major,
    _scratch,
    as_points,
    check_power,
    cost,
    pairwise_dist,
)
from .sampling import (
    SampleParams,
    check_sample_constant,
    eps_approx_sample_size,
    rng_for,
)
from .construction import MAX_DRAWS, StaticCoreset
from .solvers import finish_coreset, solve_weighted, weighted_local_search


# failure probability of every block build
DELTA = 0.1

# A block build draws up to CANDIDATES_PER_K * k candidates.  Against the
# full static_coreset pipeline's block builds, over seeds 101-200 at 10^4
# points (k = 3, block 531), the p90 of the per-seed worst query error
# moved by:
#   best k of 2k D^1-sampled candidates, by brute force   +0.022
#   best k of 4k, by brute force                          +0.015
#   projecting onto 8k and solving on the projection      +0.013
#   local search over 8k                                  +0.006
CANDIDATES_PER_K = 8


def level_eps(eps_bar: float, level: int) -> float:
    return eps_bar / (2.0 * (level + 1) ** 2)


def default_block_size(k: int, eps_bar: float, c: float = 1.0) -> int | float:
    """Blocks are never smaller than the level-0 statistical floor (inf when
    it overflows); StreamState refuses one above construction.MAX_DRAWS."""
    try:
        floor = eps_approx_sample_size(SampleParams(
            eps=level_eps(eps_bar, 0), delta=DELTA, dim=max(k, 1), c=c))
    except (ZeroDivisionError, OverflowError):  # eps**2 is 0, or the floor inf
        floor = math.inf
    return max(64, floor)


@dataclass
class StreamState:
    k: int
    eps_bar: float
    seed: int
    metric: Metric = field(default_factory=Metric)
    z: float = 1.0
    block_size: int | None = None
    c: float = 1.0
    buffer: list = field(init=False, default_factory=list)
    buckets: dict[int, StaticCoreset] = field(init=False, default_factory=dict)
    # expected weight of each level's bucket, inflation included
    ledger: dict[int, float] = field(init=False, default_factory=dict)
    points_seen: int = field(init=False, default=0)
    builds: int = field(init=False, default=0)
    # carries whose anchors came from their children's anchors (_reduce)
    child_anchor_carries: int = field(init=False, default=0)
    # coordinates of every Euclidean point: the first point's
    width: int | None = field(init=False, default=None)

    def __post_init__(self):
        if self.k < 1:
            raise InputError(f"k must be >= 1, got {self.k}")
        check_power(self.z)
        check_sample_constant(self.c)
        if not 0 < self.eps_bar < 1:
            raise InputError(f"eps_bar must lie in (0, 1), got {self.eps_bar}")
        if self.block_size is None:
            self.block_size = default_block_size(self.k, self.eps_bar, self.c)
        # a block that never fills would keep every point in the buffer
        if self.block_size > MAX_DRAWS:
            raise InputError(f"block size {self.block_size} exceeds "
                             f"{MAX_DRAWS} points")
        if self.block_size <= self.k:
            raise InputError("block_size must exceed k")

    @property
    def stored_points(self) -> int:
        return len(self.buffer) + sum(len(b) for b in self.buckets.values())

    @property
    def levels(self) -> list[int]:
        return sorted(self.buckets)

    def checkpoint(self) -> dict:
        return {
            "points_seen": self.points_seen,
            "stored_points": self.stored_points,
            "bucket_levels": self.levels,
        }

    def counters(self) -> dict:
        """What the stream's builds did, deterministic for a given stream."""
        blocks = self.points_seen // self.block_size
        return {
            "block_builds": blocks,
            "carries": self.builds - blocks,
            "child_anchor_carries": self.child_anchor_carries,
            "negative_weights": sum(int(np.count_nonzero(b.weights < 0))
                                    for b in self.buckets.values()),
        }


def _d1_candidates(metric: Metric, points, weights, count: int,
                   seed: int) -> np.ndarray:
    """The indices of up to `count` distinct points, in index order, drawn
    by seeded D^1 sampling at |w|: the first draw in proportion to |w_p|,
    each later one to |w_p| d(p, drawn so far).  A point at distance 0 from
    a drawn one has no mass, so the draws stop early when none is left.
    Each draw is one uniform looked up in the running cumulative mass, and
    one pairwise_dist pass updates every point's distance to the drawn.
    Euclidean points are laid out coordinate-major once and every pass
    writes into one scratch, so a draw copies and allocates nothing."""
    rng = rng_for(seed, 5)
    mass = np.abs(weights)
    near = np.full(len(points), np.inf)
    cum = np.cumsum(mass)
    drawn, scratch = [], None
    if metric.is_euclidean:
        points, scratch = _coordinate_major(points), _scratch(len(points))
    while len(drawn) < count and cum[-1] > 0:
        # a uniform times the total can round up to it: the last point with
        # mass is the first index of the total
        i = min(np.searchsorted(cum, rng.random() * cum[-1], side="right"),
                np.searchsorted(cum, cum[-1]))
        drawn.append(i)
        np.minimum(near, pairwise_dist(metric, points, points[i:i + 1],
                                       scratch=scratch)[:, 0], out=near)
        cum = np.cumsum(mass * near)
    return np.sort(drawn)


def _reduce(state: StreamState, points, weights, level: int,
            children=()) -> StaticCoreset:
    """One build: a block (no children) or the merge of two child coresets.

    A block, or a carry with a degenerate child, draws its candidates from
    its own points (_d1_candidates) and takes k' = min(k, |A|) of them by
    weighted_local_search.  Any other carry takes the k of its children's
    anchors (the last provenance["anchors"] points of each) that cost least,
    by solve_weighted.  Either way the anchors are costed on the merged
    points at |w| and z = 1 (the module docstring bounds their cost), and
    the build ends in finish_coreset at t = block_size - k, the level's eps
    and the build's seed.
    """
    seed = int(rng_for(state.seed, 9, state.builds).integers(2 ** 63))
    state.builds += 1
    data = (points, weights, state.metric)
    measure = (points, np.abs(weights), state.metric)
    if not children or any(c.provenance.get("degenerate") for c in children):
        candidates = points[_d1_candidates(state.metric, points, weights,
                                           CANDIDATES_PER_K * state.k, seed)]
        anchors = weighted_local_search(measure,
                                        min(state.k, len(candidates)),
                                        candidates, z=1, seed=seed)
    else:
        state.child_anchor_carries += 1
        candidates = np.concatenate([c.points[-c.provenance["anchors"]:]
                                     for c in children])
        anchors = solve_weighted(measure, state.k, candidates, z=1, seed=seed)
    eps, t = level_eps(state.eps_bar, level), state.block_size - state.k
    return finish_coreset(data, state.k, anchors, t, eps, DELTA, seed,
                          state.z, state.c)


def _checked_point(state: StreamState, p):
    """The point as the buffer stores it, or an InputError naming its place
    in the stream (from 1): a finite row as wide as the stream's first, or
    an id that as_points takes."""
    where = f"stream point {state.points_seen + 1}"
    try:
        if not state.metric.is_euclidean:
            return as_points(state.metric, [p])[0]
        row = np.asarray(p, dtype=float).reshape(-1)
    except (TypeError, ValueError) as exc:     # InputError is a ValueError
        raise InputError(f"{where}: {exc}") from None
    if state.width not in (None, len(row)):
        raise InputError(f"{where} has {len(row)} coordinates; the stream's "
                         f"points have {state.width}")
    # one point a call: math.isfinite over a short row's floats costs a
    # fraction of a numpy pass (0.4 against 2.7 us at d = 2)
    if not all(map(math.isfinite, row.tolist())):
        raise InputError(f"{where} has non-finite coordinates")
    state.width = len(row)
    return row


def stream_push(state: StreamState, p) -> StreamState:
    """Buffer one point; compress and carry when the buffer fills.  A bad
    point raises before the state changes (_checked_point)."""
    state.buffer.append(_checked_point(state, p))
    state.points_seen += 1
    if len(state.buffer) < state.block_size:
        return state

    pts = as_points(state.metric, state.buffer)
    w = np.ones(len(pts))
    state.buffer = []
    core = _reduce(state, pts, w, level=0)
    expected = core.provenance.get("inflation", 1.0) * float(len(pts))

    level = 0
    while level in state.buckets:
        other = state.buckets.pop(level)
        expected_other = state.ledger.pop(level)
        merged_pts = np.concatenate([other.points, core.points])
        merged_w = np.concatenate([other.weights, core.weights])
        level += 1
        core = _reduce(state, merged_pts, merged_w, level, (other, core))
        expected = (core.provenance.get("inflation", 1.0)
                    * (expected + expected_other))
    state.buckets[level] = core
    state.ledger[level] = expected
    return state


def stream_query(state: StreamState, centers) -> float:
    """Approximate cost of the points seen so far at the query centers."""
    if state.points_seen == 0:
        raise InputError("no points seen yet")
    total = 0.0
    if state.buffer:
        pts = as_points(state.metric, state.buffer)
        total += cost((pts, np.ones(len(pts)), state.metric), centers, state.z)
    for core in state.buckets.values():
        total += core.cost(centers)
    return total


def expected_total_weight(state: StreamState) -> float:
    """Ledger prediction for the stored weight (inflation-adjusted count)."""
    return sum(state.ledger.values()) + len(state.buffer)


def actual_total_weight(state: StreamState) -> float:
    return sum(b.total_weight for b in state.buckets.values()) + len(state.buffer)
