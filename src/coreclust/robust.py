"""Robust medians: trimmed-cost center quality with outlier tolerance.

A center set Y is a (gamma, eps, alpha, beta)-median of a weighted point set
when the cost of the ceil((1-eps)*gamma*n) points served best by Y is within a
factor alpha of the best gamma-trimmed cost achievable by any single candidate
center.  Verification is always relative to a finite candidate list; the
minimum over a continuous center space is not computable, and the metric
instantiations restrict candidates to the data anyway.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .geometry import (
    InputError,
    Metric,
    PointSet,
    block_rows,
    check_centers,
    check_power,
    coerce_weighted,
    nearest_center,
    table_rows,
    take_smallest,
    trimmed_cost,
)
from .sampling import SampleParams, VerificationReport, rng_for


def check_beta(beta) -> int:
    """A center budget beta: an integer >= 1."""
    if not float(beta).is_integer() or beta < 1:
        raise InputError(f"beta must be a positive integer, got {beta}")
    return int(beta)


@dataclass(frozen=True)
class RobustParams:
    gamma: float
    eps: float
    alpha: float
    beta: int = 1

    def __post_init__(self):
        if not 0 < self.gamma <= 1:
            raise InputError(f"gamma must lie in (0, 1], got {self.gamma}")
        if not 0 <= self.eps < 1:
            raise InputError(f"eps must lie in [0, 1), got {self.eps}")
        if self.alpha <= 0:
            raise InputError(f"alpha must be positive, got {self.alpha}")
        check_beta(self.beta)


class RobustMedian(NamedTuple):
    centers: np.ndarray
    alpha: float          # certificate carried by the construction
    trimmed_cost: float | None = None


def _trim_count(fraction: float, total: float) -> float:
    count = math.ceil(fraction * total - 1e-12)
    return float(min(count, total))


def candidate_trimmed_costs(metric: Metric, points, weights, candidates,
                            gamma: float, z: float) -> np.ndarray:
    """gamma-trimmed cost of every candidate as a single center: trimmed_cost
    of each row of the distance table, bit for bit, with one sort per block
    of rows (geometry.block_rows: about CHUNK_CELLS entries).  Each block is
    filled by geometry.table_rows, as the table's own rows are, so no more
    than a block of the table is held."""
    count = _trim_count(gamma, float(np.sum(weights)))
    fill = table_rows(metric, points, candidates, z)
    m, rows = len(candidates), block_rows(len(points))
    out, buf = np.empty(m), np.empty((min(rows, m), len(points)))
    for s in range(0, m, rows):
        block = fill(slice(s, s + rows), buf[:min(rows, m - s)])
        out[s:s + rows] = np.einsum("ij,ij->i", block,
                                    take_smallest(block, weights, count))
    return out


def verify_robust_median(P, Y, params: RobustParams, candidates,
                         z=1.0, seed: int | None = None) -> VerificationReport:
    """Check the trimmed-cost ratio of Y against the best single candidate.

    G is the ceil((1-eps)*gamma*n) weight-copies closest to Y (ties broken by
    point index); the reference optimum is min over candidates of the cost of
    its ceil(gamma*n) closest copies.  Passes when Cost(G, Y) <= alpha * opt.
    """
    z = check_power(z)
    points, weights, metric = coerce_weighted(P)
    cand = check_centers(metric, candidates)
    Yarr = check_centers(metric, Y)
    n_y = len(Yarr)
    if n_y > params.beta:
        raise InputError(f"|Y| = {n_y} exceeds beta = {params.beta}")
    total = float(weights.sum())
    g_count = _trim_count((1.0 - params.eps) * params.gamma, total)
    if g_count <= 0:
        raise InputError("trim size ceil((1-eps)*gamma*n) is zero")
    _, dY = nearest_center(metric, points, Yarr, z)
    cost_g = trimmed_cost(dY, weights, g_count)
    opt = float(candidate_trimmed_costs(metric, points, weights, cand,
                                        params.gamma, z).min())
    if opt > 0:
        ratio = cost_g / opt
    else:
        ratio = 1.0 if cost_g <= 0 else math.inf
    passed = cost_g <= params.alpha * opt * (1 + 1e-9) + 1e-12
    return VerificationReport(
        kind="robust-median",
        passed=bool(passed),
        max_discrepancy=ratio,
        params={"gamma": params.gamma, "eps": params.eps, "alpha": params.alpha,
                "beta": params.beta, "z": z, "n": total},
        seed=seed,
        details={"trimmed_cost_Y": cost_g, "trimmed_opt": opt,
                 "trim_count_G": g_count},
    )


def exhaustive_robust_median(S, params: RobustParams, candidates,
                             z=1.0) -> RobustMedian:
    """Best single candidate by the ceil((1-eps)*gamma*n)-trimmed cost.

    Over a finite candidate space this realizes a ((1-eps)*gamma, eps, 1)-
    median with beta = 1: enumerating candidates with per-candidate trimming
    is equivalent to enumerating trim subsets but exponentially cheaper.
    """
    z = check_power(z)
    points, weights, metric = coerce_weighted(S)
    cand_arr = check_centers(metric, candidates)
    total = float(weights.sum())
    count = _trim_count((1.0 - params.eps) * params.gamma, total)
    if count <= 0:
        raise InputError("trim size is zero; increase gamma or the set size")
    costs = candidate_trimmed_costs(metric, points, weights, cand_arr,
                                    (1.0 - params.eps) * params.gamma, z)
    best = int(costs.argmin())
    return RobustMedian(centers=cand_arr[best:best + 1], alpha=1.0,
                        trimmed_cost=float(costs[best]))


def robust_sample_size(params: RobustParams, sp: SampleParams) -> int:
    """Draws for the sampling reduction: ceil(c/(eps^4 gamma^2) (dim + ln 1/delta))."""
    t = (sp.c / (params.eps ** 4 * params.gamma ** 2)) * \
        (sp.dim + math.log(1.0 / sp.delta))
    return int(math.ceil(t))


def sampled_robust_median(F: PointSet, params: RobustParams, seed: int,
                          provider: Callable, sp: SampleParams,
                          z=1.0) -> RobustMedian:
    """Run a small-set median routine on an i.i.d. sample of F.

    With a sample of ceil(c/(eps^4 gamma^2)(dim + ln 1/delta)) draws, the
    provider's ((1-eps)gamma, eps, alpha)-median of the sample is a
    (gamma, 4 eps, alpha, beta)-median of F with probability >= 1 - delta.
    The sample size is clamped at |F|; degenerate inputs fall back to running
    the provider on F itself.
    """
    z = check_power(z)
    if params.eps <= 0:
        raise InputError("sampling reduction needs eps > 0")
    n = F.total_weight
    rng = rng_for(seed)
    t = robust_sample_size(params, sp)
    if n < 1.0 / (params.eps * params.gamma) or t >= n:
        sample = F
    else:
        idx = rng.choice(len(F), size=t, replace=True,
                         p=F.multiplicity / F.multiplicity.sum())
        sample = PointSet(points=F.points[idx], metric=F.metric)
    return provider(sample, params, rng, z)


def exhaustive_provider(sample: PointSet, params: RobustParams,
                        rng: np.random.Generator, z: float) -> RobustMedian:
    """Small-set routine: exhaustive search with candidates = the sample.

    The returned center is a ((1-eps)*gamma, eps, 1)-median of the sample,
    which is exactly what the sampling reduction needs.
    """
    return exhaustive_robust_median(sample, params, candidates=sample.points, z=z)


def metric_snap_median(S: PointSet, z=1.0) -> RobustMedian:
    """Return the whole sample as centers with a factor-2 certificate.

    Snapping any center to its nearest sample point at most doubles each
    served distance (triangle inequality), so S itself contains centers within
    factor 2 of the best trimmed cost; the argument is specific to z = 1.
    """
    z = check_power(z)
    if z != 1.0:
        raise InputError(
            "factor-2 snap certificate requires z = 1; use snap_alpha(z) for powers")
    if len(S) == 0:
        raise InputError("sample must be nonempty")
    return RobustMedian(centers=S.points, alpha=2.0, trimmed_cost=None)


def snap_alpha(z: float) -> float:
    """Snap certificate for powered distances: (a+b)^z <= 2^(z-1)(a^z+b^z) twice."""
    return float(2.0 ** check_power(z))
