"""One-pass streaming coresets via a binary merge-and-reduce counter.

Incoming points are buffered; every full block is compressed into a level-0
coreset, and two coresets at the same level merge (concatenate weighted
points) and reduce (rebuild a coreset on the merged weighted set) into the
next level, exactly like binary-counter carries.  Level ell builds use
eps_ell = eps_bar / (2 (ell+1)^2), so the compounded error over any carry
chain stays below eps_bar * pi^2 / 12.

A block build finds its k anchors with the full static_coreset pipeline.  A
carry re-solves on the anchors its two children already hold (the scheme of
Guha, Meyerson, Mishra, Motwani & O'Callaghan, "Clustering Data Streams"):
the best k of A = A1 u A2, costed on the merged points at |w|.  Let O be an
optimal k there and a(o) the candidate nearest o.  Moving each point p from
o to a(o) adds at most d(o, a(o)) <= d(o, p) + d(p, A) to its cost, so the k
points a(O), and the chosen k, cost at most 2 OPT + cost(A).  cost(A) is at
most the children's anchor costs on their coresets, which estimate their
inputs' costs in expectation over the children's draws.  So if each child's
anchors cost at most c OPT_i, then, as OPT1 + OPT2 <= OPT, the chosen k cost
at most (2 + c) OPT, up to the children's sampling error: the constant factor
Feldman & Langberg's construction asks of its anchors.  A carry with a
degenerate child runs static_coreset; every build ends in finish_coreset.

Space: every bucket holds at most block_size points and the buffer fewer than
block_size, so storage is block_size * (levels + 1) points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import InputError, Metric, as_points, check_power, cost
from .sampling import (
    SampleParams,
    check_sample_constant,
    eps_approx_sample_size,
    rng_for,
)
from .construction import StaticCoreset
from .solvers import finish_coreset, solve_weighted, static_coreset


# failure probability of every block build
DELTA = 0.1


def level_eps(eps_bar: float, level: int) -> float:
    return eps_bar / (2.0 * (level + 1) ** 2)


def default_block_size(k: int, eps_bar: float, c: float = 1.0) -> int:
    """Blocks are never smaller than the level-0 statistical floor."""
    floor = eps_approx_sample_size(
        SampleParams(eps=level_eps(eps_bar, 0), delta=DELTA, dim=max(k, 1), c=c))
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


def _reduce(state: StreamState, points, weights, level: int,
            children=()) -> StaticCoreset:
    """One build: a block (no children) or the merge of two child coresets.

    A block, or a carry with a degenerate child, runs static_coreset.  Any
    other carry takes the k of its children's anchors (the last
    provenance["anchors"] points of each) that cost least on the merged
    points at |w|, by solve_weighted at z = 1 (the module docstring bounds
    their cost), then finish_coreset at the full path's t, eps and seed.
    """
    seed = int(rng_for(state.seed, 9, state.builds).integers(2 ** 63))
    state.builds += 1
    data = (points, weights, state.metric)
    eps, t = level_eps(state.eps_bar, level), state.block_size - state.k
    if not children or any(c.provenance.get("degenerate") for c in children):
        core, _ = static_coreset(data, state.k, eps, DELTA, seed, z=state.z,
                                 t=t, c=state.c)
        return core
    state.child_anchor_carries += 1
    candidates = np.concatenate([c.points[-c.provenance["anchors"]:]
                                 for c in children])
    anchors = solve_weighted((points, np.abs(weights), state.metric), state.k,
                             candidates, z=1, seed=seed)
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
