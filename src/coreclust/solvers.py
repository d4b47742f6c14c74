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
    weighted_sum,
)
from .sampling import check_delta, check_sample_constant, rng_for
from .bicriteria import metric_kmedian_bicriteria
from .construction import check_sample_args, k_median_coreset

BRUTE_GUARD = 10 ** 6

# pipeline solvers switch from exact enumeration to local search above this
# combination count; exhaustive search stays available up to BRUTE_GUARD
PIPELINE_BRUTE_LIMIT = 20_000

# Per reference, the triangle-inequality bound of weighted_local_search
# costs about what a plain scan pays to read BOUND_CELLS table cells for
# each of the m candidates and n points (26 to 41 measured at n = m = 300
# to 8,000, d = 2; 37 inside the `build` searches).  A scan takes it after
# its first block, and only when the candidates the carried bound leaves in
# the rest of the scan would read BOUND_PAYOFF times what it costs.
#
# Why after one block: at `build` (k = 3, m = n of about 4,330, 15-row
# blocks, rows computed above TABLE_CELLS) a computed row costs about 2.5
# read ones, so the bound costs about 6 computed blocks.  Of the 217 `build`
# scans, 30% end in their first block, 16% in blocks 2 to 6 and 54% run
# past block 6.  A start at 0 puts the bound on the first-block scans too; a
# later start spares the scans that end in blocks 2 to 6 the bound but reads
# more blocks before it on the others, and the carried bound makes both
# kinds of block cheaper.  Measured with the carried bound, the six `build`
# searches of seeds 1 to 4 (best of 3 runs each) took 3.41 s at a 0-block
# start, 3.00 s at 1, 2.92 s at 3, 2.99 s at 6 and 3.01 s at 12: from 1
# to 12 within the runs' spread of about 3%, so the start stays at one
# block.  No `stream`, `metric` or `verify` search takes the bound, so none
# measures a start over the table.
BOUND_CELLS = 40
BOUND_PAYOFF = 4

# A solver holds its candidate-major table while it has at most TABLE_CELLS
# cells (32 MiB); above that it computes each block of rows it scans.  Below
# it the table pays: with TABLE_CELLS = 0 (every row computed), 6 harness
# pairs each read `stream` points_per_s 17,350 -> 8,876 (-49%, m up to 688)
# and the `verify` setup_s 0.66 -> 1.25 s (+91%, m = 873 and 1,306), beyond
# their 25% bounds; `metric` (m = 500) read -6%.
TABLE_CELLS = 1 << 22


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
    batches that read about CHUNK_CELLS candidate-row entries, whatever n
    is.  Rows come from the local search's row source (_CandidateRows), so
    above TABLE_CELLS no table is held: a batch's trial rows are its
    combinations' first candidates' rows, lowered by an elementwise minimum
    with each further candidate's rows, which is exact.
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
    size = geometry.block_rows(k * max(1, len(points)))
    fill = _CandidateRows(metric, points, cand, z).fill
    shape = (min(size, n_combos), len(points))
    # the second buffer only for k >= 2, so k = 1 holds one block
    buf, other = np.empty(shape), np.empty(shape) if k > 1 else None
    best_cost, best_combo = math.inf, None
    combos = combinations(range(m), k)
    evals = 0
    while batch := [c for _, c in zip(range(size), combos)]:
        ixs = np.asarray(batch)
        trial = fill(ixs[:, 0], buf[:len(ixs)])
        for col in range(1, k):
            np.minimum(trial, fill(ixs[:, col], other[:len(ixs)]), out=trial)
        costs = weighted_sum(trial, weights)  # (b,)
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


class _CandidateRows:
    """The one source of rows of distance_table(metric, points, cand, z) for
    the solvers: the table itself while m n <= TABLE_CELLS, else
    geometry.table_rows, which computes each block of rows with the table's
    bits.  fill(ids, out) writes the rows of ids into out; hold(ids) gives
    the rows of ids (the current centers) and keeps only those.
    """

    def __init__(self, metric, points, cand, z):
        self.n = len(points)
        if len(cand) * self.n > TABLE_CELLS:
            self.fill = geometry.table_rows(metric, points, cand, z)
        else:
            table = geometry.distance_table(metric, points, cand, z)
            # mode="clip" writes straight into out; "raise" copies first
            self.fill = lambda ids, out: np.take(table, ids, axis=0, out=out,
                                                 mode="clip")
        self.held = {}

    def hold(self, ids):
        self.held = {r: self.held[r] if r in self.held else
                     self.fill([r], np.empty((1, self.n)))[0] for r in ids}
        return [self.held[r] for r in ids]


def _ramps(keys, weights, at):
    """sum_p weights_p max(0, x - keys_p) for every x of the sorted array
    `at`, from running sums over the sorted keys."""
    order = np.argsort(keys)
    keys, weights = keys[order], weights[order]
    cum_w, cum_wk = np.zeros(len(keys) + 1), np.zeros(len(keys) + 1)
    np.cumsum(weights, out=cum_w[1:])
    np.cumsum(np.multiply(weights, keys, out=weights), out=cum_wk[1:])
    i = np.searchsorted(keys, at)
    return at * cum_w[i] - cum_wk[i]


class _TriangleBound:
    """Lower bounds on every candidate's trial cost in a slot scan of
    weighted_local_search (its docstring states them), one reference per
    current center, whose row `rows` (a _CandidateRows) holds.  Only the
    current centers are kept, each with O(m) floats, so the cache holds
    O(k m) floats.
    """

    def __init__(self, metric, cand, rows, weights):
        self.metric, self.cand, self.rows, self.weights = (metric, cand, rows,
                                                           weights)
        self.total = float(weights.sum())
        n, d = len(weights), cand.shape[1]
        self.rel = 16 * (n + d + 8) * np.finfo(float).eps
        self.refs = {}

    def _reference(self, r, a):
        """What reference r, of row a, keeps across scans: its distances to
        the candidates in sorted order, that order, sum_p w_p d(r, p), and
        the terms of the bound that do not depend on b (the middle ramp less
        the slack's d(c, r) term)."""
        delta = geometry.pairwise_dist(self.metric, self.cand,
                                       self.cand[r:r + 1])[:, 0]
        # in sorted order each binary search of _ramps starts near the last
        # one, about 3 times faster
        order = np.argsort(delta)
        delta, w = delta[order], self.weights
        fixed = 2.0 * _ramps(a, w, delta) - self.rel * self.total * delta
        return delta, order, float(weighted_sum(a, w)), fixed

    def lower(self, chosen, base) -> np.ndarray:
        """A lower bound on every candidate's trial cost against base, less
        the rounding slack: -inf where no reference gives one."""
        rows = dict(zip(chosen, self.rows.hold(chosen)))
        self.refs = {r: self.refs.get(r) or self._reference(r, rows[r])
                     for r in chosen}
        w, W = self.weights, self.total
        B = float(weighted_sum(base, w))
        out = np.full(len(self.cand), -np.inf)
        for r, (delta, order, A, fixed) in self.refs.items():
            if not W * delta[-1] + A + B < 2.0 ** 1000:
                continue        # a running sum could overflow
            a = rows[r]
            bound = fixed - _ramps(a - base, w, delta)
            bound -= _ramps(a + base, w, delta)
            bound += B - self.rel * (A + B) - W * 2.0 ** -500
            out[order] = np.maximum(out[order], bound)
        return out


class _CarriedBound:
    """Lower bounds on every candidate's trial cost in a slot scan of
    weighted_local_search, carried from the last SCANS_PER_SLOT k scans
    (its docstring states them).  Each kept scan j holds its base b_j and
    L_j, a lower bound on each candidate's trial cost against b_j, so the
    cache holds O(k (m + n)) floats.
    """

    # on the six `build` searches of seeds 1 to 3, 3 k kept scans computed
    # 7-14% fewer rows than 2 k and took 7% less time, but CLI
    # `build-coreset` on a `build` set peaked 0.6-0.8 MB above the 39.7 MB
    # it took without the bound, against 0.5-0.6 MB at 2 k
    SCANS_PER_SLOT = 2

    def __init__(self, m, n, k, weights):
        self.weights = weights
        size = self.SCANS_PER_SLOT * k
        self.bases, self.known = np.empty((size, n)), np.empty((size, m))
        self.kept = 0
        self.rel = 8 * (n + 2) * np.finfo(float).eps
        self.abs = n * 2.0 ** -1000

    def lower(self, base) -> np.ndarray:
        """max(0, max_j L_j (1 - rel) - dec_j (1 + rel) - abs) for every
        candidate, with dec_j = sum_p w_p (b_j,p - base_p)+: a lower bound
        on its trial cost against base, less the rounding slack."""
        kept = min(self.kept, len(self.bases))
        if not kept:
            return np.zeros(self.known.shape[1])
        diff = np.subtract(self.bases[:kept], base)
        dec = weighted_sum(np.maximum(diff, 0.0, out=diff), self.weights)
        del diff        # freed before low: the two never add to the peak
        low = np.multiply(self.known[:kept], 1.0 - self.rel)
        low -= ((1.0 + self.rel) * dec + self.abs)[:, None]
        return np.maximum(low.max(axis=0), 0.0)

    def keep(self, base, known):
        """Keep a finished scan: its base and what it knew of every
        candidate, in place of the oldest scan kept."""
        j = self.kept % len(self.bases)
        self.bases[j], self.known[j] = base, known
        self.kept += 1


def _first_improving(rows, ids, base, weights, bar, buf, known):
    """The position in ids of the first candidate whose trial cost against
    base is below bar, and that cost; (None, None) when there is none.
    Candidates are costed in blocks of len(buf) rows from `rows`.  `known`
    holds a lower bound on every candidate's trial cost (-inf where there
    is none): a candidate whose bound is at least bar is skipped unread, and
    a costed candidate's bound becomes its cost."""
    live = np.flatnonzero(known[ids] < bar)
    for s in range(0, len(live), len(buf)):
        at = live[s:s + len(buf)]
        block = ids[at]
        trial = rows.fill(block, buf[:len(block)])
        costs = weighted_sum(np.minimum(trial, base, out=trial), weights)
        known[block] = costs
        hit = np.flatnonzero(costs < bar)
        if hit.size:
            return int(at[hit[0]]), float(costs[hit[0]])
    return None, None


def weighted_local_search(data, k: int, candidates, z: float = 1.0,
                          seed: int = 0, max_iters: int = 200,
                          init=None) -> SolveResult:
    """Single-swap local search on the weighted powered cost.

    Swap slots and replacement candidates are scanned in a seeded random
    order; the first improving swap is accepted.  The cost strictly decreases
    at every accepted swap and the search stops at a local optimum or after
    max_iters sweeps.  k must lie in [1, m], as for brute force
    (solve_weighted lowers a larger k to m).  `init`, when given, lists k
    integer candidate indices in [0, m) to start from; repeats are allowed.

    Candidate rows, each candidate's d**z to every point, come from one
    source (_CandidateRows).  While m n is at most TABLE_CELLS it is the
    candidate-major (m, n) table of d**z, filled once; above that each
    scanned block of rows is computed into the scan's buffer by
    geometry.table_rows with the whole candidate set's terms, so every entry
    has the table's bits, and only the k current centers' rows are held
    (they give the start cost, each slot's b and the bound's references).
    A swap slot's candidates are costed in scan order, in
    blocks of about CHUNK_CELLS (2^16) distances, and the scan stops after
    the first block that holds an improving candidate; the first such
    candidate is the one a full scan would pick.  A candidate c is costed
    as sum_p w_p min(d(c, p), b_p), where b is the distance to the slot's
    other centers, and it improves when that is below `bar`, just under the
    current cost.

    A long scan rules candidates out without reading their rows.  For any
    current center r, the triangle inequality gives d(c, p) >=
    |d(c, r) - d(r, p)|, so with nonnegative weights the trial cost is at
    least sum_p w_p min(|d(c, r) - d(r, p)|, b_p).  That sum is a piecewise
    linear function of d(c, r) with kinks at d(r, p) - b_p, d(r, p) and
    d(r, p) + b_p; sorted prefix sums of those three keys give it for every
    candidate at once, in O((m + n) log n) per reference.  A candidate is
    dropped when, for some r, that bound less a rounding slack is at least
    `bar`, so the costed candidates, the first improving one and every bit
    of the result are those of the plain scan.  The slack is
    16 (n + d + 8) eps M + W 2^-500, with eps the float64 machine epsilon,
    W = sum w and M = W d(c, r) + sum_p w_p d(r, p) + sum_p w_p b_p.  It is
    over five times the rounding it covers, at most 3 (n + d + 8) eps M +
    4 W 2^-531: each distance of the exact form is within a relative
    (d + 3) eps of the true one (2^-531 absolute where its squares
    underflow), and the trial cost and the bound are sums of n terms that
    never exceed 4 M.

    The bound engages only where it holds and pays: Euclidean points,
    z = 1, nonnegative weights, k >= 2 and a table in the exact form
    (geometry.exact_form; then a relative slack is enough).  It costs about
    what a plain scan pays to read k (m + n) BOUND_CELLS table cells.  A
    scan reads one plain block (BOUND_CELLS says why), then takes the
    bound if the candidates the carried bound below leaves in the rest of
    the scan would read BOUND_PAYOFF times as many cells.

    Every scan also carries what earlier scans learned, on any metric and
    at any z.  For reals x, b and b', min(x, b') >= min(x, b) - (b - b')+,
    so with nonnegative weights a candidate's trial cost against b' is at
    least its trial cost against an earlier scan's base b_j less
    dec_j = sum_p w_p (b_j,p - b'_p)+.  The search keeps its last
    2 k scans (_CarriedBound), each as b_j and L_j: the cost of every
    candidate the scan costed and, for every other one, the best lower
    bound the scan had (carried, triangle or 0), so the bound chains.  A
    scan drops a candidate, in its plain blocks as in the rest, when
    max_j L_j - dec_j, less the slack rho (L_j + dec_j) + n 2^-1000 with
    rho = 8 (n + 2) eps, is at least `bar`.  The slack is over five times
    the rounding it covers for n < 10^13, at most (1.02 n + 3.05) eps
    (L_j + dec_j) + (4 n + 2) 2^-1074.  Write g_i = i eps / (2 - i eps):
    a computed sum of n nonnegative products is within g_n of the exact
    one, plus n 2^-1074 where products underflow.  Every entry of L_j is
    at most the cost the plain scan computes against b_j (it is that cost
    or a bound below it), so the exact cost is at least L_j (1 - g_n) -
    n 2^-1074; the exact dec_j is at most the computed one times
    1 + 2 g_(n+1), plus 2 n 2^-1074 (n subtractions and a sum); the cost
    computed against b' is at least (1 - g_n) times the exact one less
    n 2^-1074; and the bound's own four roundings add at most
    2.02 eps (L_j + dec_j) + 2^-1073.  So a dropped candidate is one the
    plain scan finds not improving, and every bound kept is at most the
    exact cost as well as the computed one.  The bound engages for k >= 2
    and nonnegative weights, in every scan whose base has a computed
    sum_p w_p b_p below 2^1000: every cost, dec_j and slack is then finite
    (below 2^1002), and no inf - inf arises.  It holds 2 k (m + n)
    floats, and 2 k max(m, n) more while a scan forms its bound.

    `evaluations` counts the candidates of every block scanned, costed or
    ruled out: k for the start plus every candidate in every block up to
    the one with the first improving candidate, so it depends on
    CHUNK_CELLS while the centers and the cost do not, and the bounds
    change none of the three.
    """
    z = check_power(z)
    points, weights, metric = coerce_weighted(data)
    cand = check_centers(metric, candidates)
    m, n = len(cand), len(points)
    if k < 1 or k > m:
        raise InputError(f"need 1 <= k <= {m} candidates, got k={k}")
    rng = rng_for(seed, 6)

    if init is None:
        chosen = list(rng.choice(m, size=k, replace=False))
    else:
        ids = np.asarray(init)
        if ids.shape != (k,):
            raise InputError("init must list exactly k candidate indices")
        if not np.issubdtype(ids.dtype, np.integer):
            raise InputError("init must list integer candidate indices")
        bad = ids[(ids < 0) | (ids >= m)]
        if bad.size:
            raise InputError(f"init id {bad[0]} is outside [0, {m})")
        chosen = ids.tolist()
    rows = _CandidateRows(metric, points, cand, z)
    cur_cost = float(weighted_sum(np.min(rows.hold(chosen), axis=0), weights))
    evals = len(chosen)
    step = geometry.block_rows(n)
    buf = np.empty((min(step, m), n))
    # every scan costs its first `plain` candidates without the triangle bound
    plain, bound, carried = m, None, None
    if k >= 2 and np.all(weights >= 0):
        carried = _CarriedBound(m, n, k, weights)
        if (metric.is_euclidean and z == 1 and n > 0
                and geometry.exact_form(cand.size, cand.shape[1])):
            bound_cells = k * (m + n) * BOUND_CELLS
            if (m - step) * n >= BOUND_PAYOFF * bound_cells:
                plain, bound = step, _TriangleBound(metric, cand, rows,
                                                    weights)

    for _ in range(max_iters):
        improved = False
        held = rows.hold(chosen)
        for slot in rng.permutation(k):
            rest = held[:slot] + held[slot + 1:]
            base = np.min(rest, axis=0) if rest else np.full(n, np.inf)
            order = rng.permutation(m)
            bar = cur_cost * (1 - 1e-12) - 1e-15
            # every trial cost against base is below 2^1001: no sum overflows
            carry = (carried is not None and
                     weighted_sum(base, weights) < 2.0 ** 1000)
            known = carried.lower(base) if carry else np.full(m, -np.inf)
            pos, trial_cost = _first_improving(rows, order[:plain], base,
                                               weights, bar, buf, known)
            if pos is None and bound is not None:
                later = order[plain:]
                live = np.count_nonzero(known[later] < bar)
                if live * n >= BOUND_PAYOFF * bound_cells:
                    np.maximum(known, bound.lower(chosen, base), out=known)
                j, trial_cost = _first_improving(rows, later, base, weights,
                                                 bar, buf, known)
                pos = None if j is None else plain + j
            if carry:
                carried.keep(base, known)
            evals += m if pos is None else min(m, (pos // step + 1) * step)
            if pos is not None:
                chosen[slot] = int(order[pos])
                cur_cost = trial_cost
                improved = True
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


def finish_coreset(data, k, anchors: SolveResult, t, eps, delta, seed, z, c):
    """static_coreset's and every stream build's last step: k_median_coreset
    at the anchors, its provenance given k, delta, c and bicriteria_cost."""
    core = k_median_coreset(data, anchors.centers, t, eps, z=z, seed=seed)
    core.provenance.update({"k": k, "delta": delta, "c": c,
                            "bicriteria_cost": anchors.cost})
    return core


def static_coreset(data, k: int, eps: float, delta: float, seed: int,
                   z: float = 1.0, t: int | None = None, c: float = 1.0):
    """The static k-median coreset pipeline: constant-factor anchors, a
    sample size t, then finish_coreset.  Returns (coreset, anchors).

    The anchors are found on the absolute measure |w|: a library caller's
    weights may be signed (a coreset's corrections are), and anchor quality
    only affects the error, not the estimator's validity.  t defaults to
    strong_coreset_sample_size at n = round(sum |w|) (inf if it overflows).
    z, eps, delta and t, given or computed, are checked before the anchors
    are built.
    """
    z = check_power(z)
    check_sample_args(t, eps)
    check_delta(delta)
    points, weights, metric = coerce_weighted(data)
    if t is None:
        dim = points.shape[1] if metric.is_euclidean else None
        try:
            t = strong_coreset_sample_size(round(float(np.abs(weights).sum())),
                                           k, eps, delta, metric, dim=dim, c=c)
        except (ZeroDivisionError, OverflowError):  # eps**2 is 0, or t inf
            t = math.inf
        check_sample_args(t, eps)
    anchors = constant_factor_metric_kmedian(
        (points, np.abs(weights), metric), k, eps, delta, seed, c=c)
    return finish_coreset(data, k, anchors, t, eps, delta, seed, z, c), anchors


def solve_on_coreset(P, k: int, eps: float, seed: int, delta: float = 0.1,
                     c: float = 1.0, z: float = 1.0):
    """Build a static coreset, solve on it, re-audit on the full input.

    Returns (SolveResult, audit) where the audit carries both the coreset
    cost and the true cost at the returned centers plus the build parameters.
    """
    core, anchors = static_coreset(P, k, eps, delta, seed, z=z, c=c)
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
