"""Bicriteria approximation by robust-median peeling.

The engine repeatedly asks a provider for a robust median Y_i of the residual
set, removes the ceil((1 - 5 eps) * 3/4 * n_i) weight-copies served best by
Y_i, and recurses until fewer than 10/eps copies remain; the residue is
finished exhaustively.  Each round calls the provider i times and keeps the
set with the smallest trimmed cost, so the per-round failure probability
decays geometrically and the overall success probability needs no dependence
on log n.

The public entry points rescale eps to eps/100 internally, so callers see the
clean (1 + eps) * alpha cost bound; the loop guard uses the internal eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import (
    InputError,
    Metric,
    check_power,
    coerce_weighted,
    nearest_own_center,
    take_smallest,
    weighted_sum,
)
from .sampling import check_delta, check_sample_constant, rng_for
from .robust import check_beta, snap_alpha


@dataclass
class Round:
    """One peeling round: removed mass per point plus the centers used."""

    indices: np.ndarray   # points with positive removed mass
    amounts: np.ndarray   # removed mass, aligned with indices
    centers: np.ndarray


@dataclass
class BicriteriaResult:
    rounds: list[Round]
    B: np.ndarray
    total_cost: float
    beta: int
    alpha: float
    n: float
    # nearest center in B of every input point (ties: lowest index), from the
    # pass that gives total_cost
    assignment: np.ndarray

    @property
    def n_centers(self) -> int:
        return len(self.B)

    def center_bound(self) -> int:
        """beta * ceil(log2 n) cap on the number of centers."""
        return self.beta * max(1, math.ceil(math.log2(max(self.n, 2.0))))


@dataclass
class MedianProvider:
    """Robust-median routine with its (alpha, beta) certificate.

    draw(points, weights, metric, rng) returns a center array of at most beta
    centers that is a (3/4, eps, alpha, beta)-median of the weighted input.
    terminal(points, weights, metric, rng) must return a (1, 0, alpha, beta)-
    median of the small residue; None selects the single-center residue rule.
    """

    draw: Callable
    alpha: float
    beta: int
    terminal: Callable | None = None

    def __post_init__(self):
        check_beta(self.beta)


def _distinct_rows(arr: np.ndarray) -> np.ndarray:
    """Distinct points (rows or ids) in order of first occurrence."""
    if len(arr) == 0:
        return arr
    _, idx = np.unique(arr, axis=0, return_index=True)
    return arr[np.sort(idx)]


def _terminal(k: int, beta: int, z: float) -> Callable:
    """Residue finisher: the residue if it fits in beta, else solve_weighted's
    k centers among its distinct points."""

    def terminal(points, weights, metric, rng):
        distinct = _distinct_rows(points)
        if len(distinct) <= beta:
            return distinct
        from .solvers import solve_weighted
        return solve_weighted((points, weights, metric), k, distinct, z=z,
                              seed=int(rng.integers(2 ** 63))).centers

    return terminal


def peel_bicriteria(points, weights, metric: Metric, eps_internal: float,
                    provider: MedianProvider, rng: np.random.Generator,
                    z: float = 1.0) -> BicriteriaResult:
    """Run the peeling loop at the given internal eps (no rescaling), then
    assign every input point to its nearest center in B and cost it at the
    input's weights."""
    z = check_power(z)
    if not 0 < eps_internal < 0.2:
        raise InputError(
            "internal eps must lie in (0, 0.2) so every round removes a "
            "positive fraction")
    given = np.asarray(weights, dtype=float)
    weights = given.copy()
    n_total = float(weights.sum())
    if n_total <= 0:
        raise InputError("bicriteria needs positive total weight")

    rounds: list[Round] = []
    center_blocks: list[np.ndarray] = []
    guard = 10.0 / eps_internal
    i = 0
    while float(weights.sum()) >= guard:
        i += 1
        alive = np.flatnonzero(weights > 0)
        sub_pts, sub_w = points[alive], weights[alive]
        n_i = float(sub_w.sum())
        trim = min(n_i, math.ceil((1.0 - 5.0 * eps_internal) * 0.75 * n_i - 1e-12))
        best = None
        for _ in range(i):   # amplification: keep the best of i draws
            Y = provider.draw(sub_pts, sub_w, metric, rng)
            _, dY = nearest_own_center(metric, sub_pts, Y, z)
            taken = take_smallest(dY, sub_w, trim)
            c = float(weighted_sum(dY, taken))
            if best is None or c < best[0]:
                best = (c, Y, taken)
        _, Y, taken = best
        keep = taken > 0
        rounds.append(Round(indices=alive[keep], amounts=taken[keep], centers=Y))
        center_blocks.append(Y)
        weights[alive] -= taken

    alive = np.flatnonzero(weights > 0)
    if alive.size:
        finish = provider.terminal or _terminal(1, provider.beta, z)
        Y = finish(points[alive], weights[alive], metric, rng)
        rounds.append(Round(indices=alive, amounts=weights[alive].copy(), centers=Y))
        center_blocks.append(Y)

    B = _distinct_rows(np.concatenate(center_blocks))
    assignment, dz = nearest_own_center(metric, points, B, z)
    return BicriteriaResult(rounds=rounds, B=B,
                            total_cost=float(weighted_sum(dz, given)),
                            beta=provider.beta, alpha=provider.alpha, n=n_total,
                            assignment=assignment)


def bicriteria(P, eps: float, provider: MedianProvider, seed: int,
               z: float = 1.0) -> BicriteriaResult:
    """Peeling with the public contract: cost(P, B) <= (1+eps) alpha opt.

    eps is rescaled to eps/100 internally; the provider must produce
    (3/4, eps/100, alpha, beta)-medians of each residual set.
    """
    if not 0 < eps <= 1:
        raise InputError(f"eps must lie in (0, 1], got {eps}")
    points, weights, metric = coerce_weighted(P)
    return peel_bicriteria(points, weights, metric, eps / 100.0, provider,
                           rng_for(seed, 1), z)


def metric_kmedian_beta(k: int, eps: float, delta: float, c: float = 1.0) -> int:
    """Sample size per round for the metric k-median provider."""
    check_sample_constant(c)
    return int(math.ceil(c * (k + math.log(2.0 / delta)) / eps ** 4))


def make_metric_provider(k: int, beta: int, z: float = 1.0) -> MedianProvider:
    """Provider that returns a whole i.i.d. sample as the round's centers.

    Snapping gives the sample an alpha = 2 certificate at z = 1 (2^z for
    powered distances).  The terminal rule keeps the residue when it fits in
    beta and otherwise solves k-median on the residue's distinct points.
    """
    z = check_power(z)

    def draw(points, weights, metric, rng):
        n = len(points)
        t = min(beta, n)
        idx = rng.choice(n, size=t, replace=True, p=weights / weights.sum())
        return _distinct_rows(points[np.sort(idx)])

    return MedianProvider(draw=draw, alpha=snap_alpha(z), beta=beta,
                          terminal=_terminal(k, beta, z))


def metric_kmedian_bicriteria(P, k: int, eps: float, delta: float, seed: int,
                              z: float = 1.0, c: float = 1.0,
                              beta: int | None = None) -> BicriteriaResult:
    """Bicriteria for k-median over discrete candidates: B subset of the data.

    Returns O(beta log n) centers with cost(P, B) <= (2^z + eps) * opt over
    k-tuples of data points, with probability >= 1 - delta.  beta defaults to
    the ceil(c (k + ln(2/delta)) / eps^4) per-round sample size (clamped to n
    by the draw itself); pass beta explicitly for desk-scale experiments.
    """
    points, weights, metric = coerce_weighted(P)
    n = float(weights.sum())
    if k < 1 or k > n:
        raise InputError(f"need 1 <= k <= n, got k={k}, n={n}")
    check_delta(delta)
    check_sample_constant(c)
    if beta is None:
        beta = metric_kmedian_beta(k, eps, delta, c)
    provider = make_metric_provider(k, beta, z)
    return bicriteria((points, weights, metric), eps, provider, seed, z)
