"""Output checks computed apart from coreclust, with plain numpy.

Every function returns a list of problems; an empty list means the output
passed.  True costs come from the input data (coordinates, or the explicit
distance matrix for the metric workload), never from the program.
"""

from __future__ import annotations

import numpy as np


def euclid_cost(X, C, w=None) -> float:
    """Sum (optionally weighted) of distances from rows of X to their nearest row of C."""
    X = np.asarray(X, dtype=float)
    C = np.asarray(C, dtype=float)
    d = np.full(len(X), np.inf)
    for c in C:
        np.minimum(d, np.sqrt(((X - c) ** 2).sum(axis=1)), out=d)
    return float(d.sum() if w is None else np.asarray(w, dtype=float) @ d)


def matrix_cost(D, ids, C, w=None) -> float:
    """Same as euclid_cost for ids into an explicit distance matrix D."""
    d = D[np.ix_(np.asarray(ids), np.asarray(C))].min(axis=1)
    return float(d.sum() if w is None else np.asarray(w, dtype=float) @ d)


def relative_gap(estimate: float, true: float) -> float:
    return abs(estimate - true) / true


def weight_sum_problems(total: float, n: int, eps: float) -> list[str]:
    """Static coreset weights sum to exactly (1 + eps/2) n, to 1e-9 relative."""
    expected = (1.0 + eps / 2.0) * n
    if not abs(total - expected) <= 1e-9 * expected:
        return [f"weight sum {total!r} differs from (1 + eps/2) n = {expected!r}"]
    return []


def coreset_problems(core: dict, n: int, eps: float, reference, D=None) -> list[str]:
    """A coreset JSON document against the data it summarises.

    `reference` lists (query centers, true cost) pairs; the coreset's cost at
    each query is recomputed from the document's points and weights.  With an
    explicit matrix D the points are ids and must lie in [0, n).
    """
    if core.get("type") != "static":
        return [f"coreset type {core.get('type')!r}, expected 'static'"]
    w = np.asarray([p["weight"] for p in core["points"]], dtype=float)
    coords = [p["coords"] for p in core["points"]]
    problems = weight_sum_problems(float(w.sum()), n, eps)
    if D is not None:
        ids = np.asarray(coords)
        if ids.dtype.kind not in "iu" or ids.min() < 0 or ids.max() >= n:
            return problems + [f"coreset ids outside [0, {n})"]
    for i, (query, true) in enumerate(reference):
        est = (matrix_cost(D, ids, query, w) if D is not None
               else euclid_cost(coords, query, w))
        if not relative_gap(est, true) <= eps:
            problems.append(f"query {i}: coreset cost {est!r} is more than "
                            f"eps={eps} off the true cost {true!r}")
    return problems


def verify_problems(report: dict, n: int, eps: float, audit_eps: float,
                    queries: int) -> list[str]:
    """A `verify` report of a coreset built at eps, audited at audit_eps:
    passed, error within audit_eps, all queries asked audited."""
    r = report["results"]
    problems = []
    if r.get("pass") is not True:
        problems.append(f"verify reports pass={r.get('pass')!r}")
    if not r.get("max_relative_error", np.inf) <= audit_eps:
        problems.append(f"max_relative_error {r.get('max_relative_error')!r} "
                        f"> {audit_eps}")
    if r.get("queries") != queries:
        problems.append(f"verify audited {r.get('queries')!r} queries, asked {queries}")
    problems += weight_sum_problems(r.get("weight_sum") or 0.0, n, eps)
    return problems


def stream_levels(n: int, block_size: int) -> list[int]:
    """Binary-counter law: occupied levels are the set bits of n // block_size."""
    blocks = n // block_size
    return [i for i in range(blocks.bit_length()) if blocks >> i & 1]


def stream_problems(report: dict, n: int, block_size: int, eps: float,
                    true_query_cost: float) -> list[str]:
    """A `stream` report: counter law, storage law and query accuracy."""
    r = report["results"]
    final = r["final"]
    levels = stream_levels(n, block_size)
    problems = []
    if final["points_seen"] != n:
        problems.append(f"points_seen {final['points_seen']!r} != n = {n}")
    if final["bucket_levels"] != levels:
        problems.append(f"bucket_levels {final['bucket_levels']!r} != {levels}")
    stored = block_size * len(levels) + n % block_size
    if final["stored_points"] != stored:
        problems.append(f"stored_points {final['stored_points']!r} != {stored}")
    if not relative_gap(r["query_cost"], true_query_cost) <= eps:
        problems.append(f"query_cost {r['query_cost']!r} is more than eps={eps} "
                        f"off the true cost {true_query_cost!r}")
    return problems
