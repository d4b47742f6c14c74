"""Clustering solvers: exact brute force, swap local search, and the
bicriteria-project pipeline; all double as oracles for the coreset tests.

Candidate center spaces are always finite and explicit (the data, a
bicriteria output, or coreset points).  Every returned result re-computes its
cost from scratch; a mismatch with the solver's bookkeeping is a hard error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import geometry
from .geometry import (
    InputError,
    Metric,
    check_centers,
    check_power,
    coerce_weighted,
    cost,
    distance_table,
    weighted_sum,
)
from .sampling import check_delta, check_sample_constant, rng_for
from .bicriteria import metric_kmedian_bicriteria
from .construction import check_sample_args, k_median_coreset

BRUTE_GUARD = 10 ** 6

# pipeline solvers switch from exact enumeration to local search above this
# combination count; exhaustive search stays available up to BRUTE_GUARD
PIPELINE_BRUTE_LIMIT = 20_000


@dataclass
class SolveResult:
    centers: np.ndarray
    cost: float
    method: str
    evaluations: int

    def to_dict(self) -> dict:
        centers = self.centers.tolist()
        return {"centers": centers, "cost": self.cost, "method": self.method,
                "evaluations": self.evaluations}


def _finalize(metric, points, weights, centers, z, method, evals,
              booked_cost) -> SolveResult:
    actual = cost((points, weights, metric), centers, z)
    if abs(actual - booked_cost) > 1e-9 * max(1.0, abs(actual)):
        raise RuntimeError(
            f"solver bookkeeping drifted: booked {booked_cost}, actual {actual}")
    return SolveResult(centers=centers, cost=actual, method=method,
                       evaluations=evals)


def brute_force_k_median(data, k: int, candidates, z: float = 1.0) -> SolveResult:
    """Exact optimum over all k-subsets of the candidate list.

    Ties go to the earliest combination in index order.  Refuses when the
    number of combinations exceeds BRUTE_GUARD.  Combinations are costed in
    batches of about CHUNK_CELLS gathered distances, whatever n is.
    """
    z = check_power(z)
    points, weights, metric = coerce_weighted(data)
    cand = check_centers(metric, candidates)
    m = len(cand)
    if k < 1 or k > m:
        raise InputError(f"need 1 <= k <= {m} candidates, got k={k}")
    n_combos = math.comb(m, k)
    if n_combos > BRUTE_GUARD:
        raise InputError(f"brute force refused: C({m}, {k}) = {n_combos} "
                         f"exceeds guard {BRUTE_GUARD}")
    DT = distance_table(metric, points, cand, z)
    best_cost, best_combo = math.inf, None
    combos = combinations(range(m), k)
    size = max(1, geometry.CHUNK_CELLS // (k * max(1, len(points))))
    evals = 0
    while True:
        batch = [c for _, c in zip(range(size), combos)]
        if not batch:
            break
        ixs = np.asarray(batch)                      # (b, k)
        costs = weighted_sum(DT[ixs].min(axis=1), weights)   # (b,)
        evals += len(batch)
        j = int(costs.argmin())
        if costs[j] < best_cost:
            best_cost, best_combo = float(costs[j]), batch[j]
    if best_combo is None:
        raise InputError("no k-subset of the candidates has a finite cost; "
                         "distances overflow float64")
    centers = cand[list(best_combo)]
    return _finalize(metric, points, weights, centers, z, "brute", evals,
                     best_cost)


def weighted_local_search(data, k: int, candidates, z: float = 1.0,
                          seed: int = 0, max_iters: int = 200,
                          init=None) -> SolveResult:
    """Single-swap local search on the weighted powered cost.

    Swap slots and replacement candidates are scanned in a seeded random
    order; the first improving swap is accepted.  The cost strictly decreases
    at every accepted swap and the search stops at a local optimum or after
    max_iters sweeps.

    Every d**z is computed once into the candidate-major (m, n)
    distance_table.  A swap slot's candidates are costed in scan order, in
    blocks of about CHUNK_CELLS (2^16) distances, and the scan stops after
    the first block that holds an improving candidate; the first such
    candidate is the one a full scan would pick.  `evaluations` counts the
    candidate costs actually computed: k for the start plus every candidate
    in every block costed, so it depends on CHUNK_CELLS while the centers and
    the cost do not.
    """
    z = check_power(z)
    points, weights, metric = coerce_weighted(data)
    cand = check_centers(metric, candidates)
    m, n = len(cand), len(points)
    if k < 1:
        raise InputError(f"need k >= 1, got k={k}")
    k = min(k, m)
    rng = rng_for(seed, 6)
    DT = distance_table(metric, points, cand, z)

    if init is None:
        chosen = list(rng.choice(m, size=k, replace=False))
    else:
        chosen = list(np.asarray(init, dtype=int))
        if len(chosen) != k:
            raise InputError("init must list exactly k candidate indices")
    cur_cost = float(weighted_sum(DT[chosen].min(axis=0), weights))
    evals = len(chosen)
    step = max(1, geometry.CHUNK_CELLS // max(n, 1))
    buf = np.empty((min(step, m), n))

    for _ in range(max_iters):
        improved = False
        for slot in rng.permutation(k):
            rest = [c for i, c in enumerate(chosen) if i != slot]
            base = DT[rest].min(axis=0) if rest else np.full(n, np.inf)
            order = rng.permutation(m)
            bar = cur_cost * (1 - 1e-12) - 1e-15
            for s in range(0, m, step):
                ids = order[s:s + step]
                # mode="clip" writes straight into buf; "raise" copies first
                trial = np.take(DT, ids, axis=0, out=buf[:len(ids)], mode="clip")
                costs = weighted_sum(np.minimum(trial, base, out=trial), weights)
                evals += len(ids)
                hit = np.flatnonzero(costs < bar)
                if hit.size:
                    chosen[slot] = int(ids[hit[0]])
                    cur_cost = float(costs[hit[0]])
                    improved = True
                    break
            if improved:
                break
        if not improved:
            break

    centers = cand[chosen]
    return _finalize(metric, points, weights, centers, z, "local_search",
                     evals, cur_cost)


def solve_weighted(data, k: int, candidates, z: float = 1.0,
                   seed: int = 0) -> SolveResult:
    """The inner solver: k centers from the candidates for a weighted input.

    k is clamped to the number of candidates; the search is exact brute force
    while C(m, k) <= PIPELINE_BRUTE_LIMIT and seeded local search above it.
    """
    m = len(candidates)
    k = min(k, m)
    if math.comb(m, k) <= PIPELINE_BRUTE_LIMIT:
        return brute_force_k_median(data, k, candidates=candidates, z=z)
    return weighted_local_search(data, k, candidates=candidates, z=z,
                                 seed=seed)


def constant_factor_metric_kmedian(P, k: int, eps: float, delta: float,
                                   seed: int, c: float = 1.0,
                                   beta: int | None = None,
                                   z: float = 1.0) -> SolveResult:
    """Constant-factor k centers: bicriteria, project, solve on the anchors.

    The projection of the data onto the bicriteria centers has at most |B|
    distinct weighted points; the weighted k-median on those (brute force when
    feasible, local search otherwise) is returned and re-costed on the full
    input.  Every step, and the returned cost, uses the power z.
    """
    points, weights, metric = coerce_weighted(P)
    bic = metric_kmedian_bicriteria((points, weights, metric), k, eps, delta,
                                    seed, z=z, c=c, beta=beta)
    masses = np.bincount(bic.assignment, weights=weights, minlength=len(bic.B))
    used = np.flatnonzero(masses > 0)
    proj_pts, proj_w = bic.B[used], masses[used]
    inner = solve_weighted((proj_pts, proj_w, metric), k, proj_pts, z=z,
                           seed=seed)
    return SolveResult(centers=inner.centers,
                       cost=cost((points, weights, metric), inner.centers, z),
                       method="bicriteria_project",
                       evaluations=inner.evaluations)


def strong_coreset_sample_size(n: int, k: int, eps: float, delta: float,
                               metric: Metric, dim: int | None = None,
                               c: float = 1.0) -> int:
    """Sample size for the static strong coreset.

    Metric spaces pay k log n for the candidate-space dimension; Euclidean
    inputs pay k min(d, 1 + log k) instead.
    """
    check_sample_constant(c)
    if metric.is_euclidean and dim is not None:
        complexity = k * min(dim, 1.0 + math.log(max(k, 2)))
    else:
        complexity = k * math.log(max(n, 2))
    t = (c / eps ** 2) * (complexity + math.log(1.0 / delta))
    return int(math.ceil(t))


def static_coreset(data, k: int, eps: float, delta: float, seed: int,
                   z: float = 1.0, t: int | None = None, c: float = 1.0):
    """The static k-median coreset pipeline: constant-factor anchors, a
    sample size t, then k_median_coreset.  Returns (coreset, anchors).

    The anchors are found on the absolute measure |w|: merged stream coresets
    carry signed corrections, and anchor quality only affects the error, not
    the estimator's validity.  t defaults to strong_coreset_sample_size at
    n = round(sum |w|).  z, eps, t and delta are checked before the anchors
    are built.  The provenance records k, delta, c and the anchors' cost.
    """
    z = check_power(z)
    check_sample_args(t, eps)
    check_delta(delta)
    points, weights, metric = coerce_weighted(data)
    if t is None:
        dim = points.shape[1] if metric.is_euclidean else None
        t = strong_coreset_sample_size(round(float(np.abs(weights).sum())), k,
                                       eps, delta, metric, dim=dim, c=c)
    anchors = constant_factor_metric_kmedian(
        (points, np.abs(weights), metric), k, eps, delta, seed, c=c)
    core = k_median_coreset(data, anchors.centers, t, eps, z=z, seed=seed)
    core.provenance.update({"k": k, "delta": delta, "c": c,
                            "bicriteria_cost": anchors.cost})
    return core, anchors


def solve_on_coreset(P, k: int, eps: float, seed: int, delta: float = 0.1,
                     c: float = 1.0, z: float = 1.0,
                     t: int | None = None):
    """Build a static coreset, solve on it, re-audit on the full input.

    Returns (SolveResult, audit) where the audit carries both the coreset
    cost and the true cost at the returned centers plus the build parameters.
    """
    core, anchors = static_coreset(P, k, eps, delta, seed, z=z, t=t, c=c)
    uniq = np.unique(core.points, axis=0)
    inner = solve_weighted(core, k, uniq, z=z, seed=seed)
    true_cost = cost(P, inner.centers, z)
    audit = {
        "coreset_cost": core.cost(inner.centers),
        "true_cost": true_cost,
        "t": core.provenance["t"],
        "coreset_size": len(core),
        "coreset_weight_sum": core.total_weight,
        "anchor_cost": anchors.cost,
    }
    result = SolveResult(centers=inner.centers, cost=true_cost,
                         method="coreset", evaluations=inner.evaluations)
    return result, audit
