"""Command-line front end: build/verify/solve/stream/bench with JSON reports.

Every randomized command is replayable: the emitted report echoes the full
config including the seed, and rerunning with that config reproduces all
non-timing fields byte-identically.

Exit codes: 0 ok, 1 usage, 2 I/O, 3 validation, 4 guarantee violation under
--strict.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import math
import sys
import time

import numpy as np

from . import __version__
from .geometry import InputError, LoadError, PointSet, costs
from .sampling import check_seed, rng_for
from .bicriteria import metric_kmedian_bicriteria
from .solvers import (
    brute_force_k_median,
    constant_factor_metric_kmedian,
    solve_on_coreset,
    static_coreset,
    weighted_local_search,
)
from .streaming import StreamState, stream_push, stream_query
from . import io as cio

EXIT_OK, EXIT_USAGE, EXIT_IO, EXIT_VALIDATION, EXIT_GUARANTEE = 0, 1, 2, 3, 4

# reports add the exact optimum (an audit query, the bicriteria lower bound)
# only up to this many k-subsets
REPORT_BRUTE_LIMIT = 10 ** 5


class _Parser(argparse.ArgumentParser):
    """Whole flag names only, in every subparser too; a usage error is exit 1."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _query_grid(P: PointSet, k: int, n_queries: int, seed: int,
                extra_centers=None):
    """Seeded k-subsets of the data plus the hardest practical probes:
    the brute optimum when enumeration is feasible, else the given centers."""
    if not 1 <= k <= len(P):
        raise InputError(f"need 1 <= k <= {len(P)} points, got k={k}")
    rng = rng_for(seed, 10)
    queries = [P.points[np.sort(rng.choice(len(P), size=k, replace=False))]
               for _ in range(n_queries)]
    if math.comb(len(P), k) <= REPORT_BRUTE_LIMIT:
        queries.append(brute_force_k_median(P, k, candidates=P.points).centers)
    elif extra_centers is not None:
        queries.append(np.asarray(extra_centers))
    if not queries:
        raise InputError(f"no queries to audit: --queries is {n_queries} and "
                         f"C({len(P)}, {k}) is too large for the brute optimum")
    return queries


def _max_rel_error(P: PointSet, core, queries) -> tuple[float, int]:
    """Worst |true - coreset| / true over the queries; where the true cost is
    0 the error is 0 if the coreset's cost is 0 too, else infinite.  A NaN
    error is the worst of all: the first one is returned.  The true costs
    come from one walk over the data; the coreset is queried one set at a
    time."""
    worst, arg = -1.0, -1
    for i, (x, true) in enumerate(zip(queries, costs(P, queries, z=core.z))):
        true, est = float(true), core.cost(x)
        err = abs(true - est) / true if true > 0 else (0.0 if est == 0 else math.inf)
        if math.isnan(err):
            return err, i
        if err > worst:
            worst, arg = err, i
    return worst, arg


# ---------------------------------------------------------------------------
# subcommands: each returns (results, timings, broken), where broken is the
# message --strict turns into exit 4, or None
# ---------------------------------------------------------------------------

def cmd_build_coreset(args):
    t0 = time.perf_counter()
    P = cio.load_point_set(args.input, args.metric)
    t1 = time.perf_counter()
    core, anchors = static_coreset(P, args.k, args.eps, args.delta, args.seed,
                                   z=args.z, t=args.t, c=args.c)
    core.provenance["input_sha256"] = cio.file_sha256(args.metric or args.input)
    t2 = time.perf_counter()
    cio.save_coreset(args.coreset_out, core)
    t3 = time.perf_counter()

    n = P.total_weight
    inflation = core.provenance.get("inflation", 1.0)
    results = {
        "n": int(n),
        "coreset_size": len(core),
        "t": int(core.provenance["t"]),
        "weight_sum": core.total_weight,
        "min_weight": float(np.min(core.weights)),
        "inflation": inflation,
        "anchor_cost": anchors.cost,
        "coreset_file": str(args.coreset_out),
    }
    timings = {"load_s": t1 - t0, "build_s": t2 - t1, "write_s": t3 - t2}
    gap = abs(core.total_weight - inflation * n)
    broken = None
    if gap > 1e-9 * max(1.0, n):
        broken = f"weight_sum misses inflation*n = {inflation * n!r} by {gap:.3g}"
    return results, timings, broken


def cmd_bicriteria(args):
    t0 = time.perf_counter()
    P = cio.load_point_set(args.input, args.metric)
    res = metric_kmedian_bicriteria(P, args.k, args.eps, args.delta, args.seed,
                                    c=args.c, beta=args.beta)
    t1 = time.perf_counter()
    opt = None
    if math.comb(len(P), args.k) <= REPORT_BRUTE_LIMIT:
        opt = brute_force_k_median(P, args.k, candidates=P.points).cost
    results = {
        "n_centers": res.n_centers,
        "center_bound": res.center_bound(),
        "total_cost": res.total_cost,
        "rounds": [{"size": int(r.amounts.sum()), "centers": len(np.atleast_1d(r.centers))}
                   for r in res.rounds],
        "B": res.B.tolist(),
        "opt_lower_bound": opt,
    }
    broken = None
    if res.n_centers > res.center_bound():
        broken = (f"n_centers {res.n_centers} exceeds center_bound "
                  f"{res.center_bound()} by {res.n_centers - res.center_bound()}")
    return results, {"bicriteria_s": t1 - t0}, broken


def cmd_solve(args):
    P = cio.load_point_set(args.input, args.metric)
    audit = None
    if args.method == "brute":
        res = brute_force_k_median(P, args.k, candidates=P.points, z=args.z)
    elif args.method == "local":
        res = weighted_local_search(P, args.k, candidates=P.points, z=args.z,
                                    seed=args.seed)
    elif args.method == "constant-factor":
        res = constant_factor_metric_kmedian(P, args.k, args.eps, args.delta,
                                             args.seed, c=args.c, z=args.z)
    else:
        res, audit = solve_on_coreset(P, args.k, args.eps, args.seed,
                                      delta=args.delta, c=args.c, z=args.z)
    return {"solution": res.to_dict(), "audit": audit}, {}, None


def cmd_verify(args):
    P = cio.load_point_set(args.input, args.metric)
    core = cio.load_coreset(args.coreset, P.metric)
    source = args.metric or args.input
    recorded = core.provenance.get("input_sha256")
    if recorded is not None and recorded != cio.file_sha256(source):
        raise InputError(f"verify: {source} does not match the coreset's "
                         "provenance hash")
    if P.metric.is_euclidean and core.points.shape[1] != P.points.shape[1]:
        raise InputError("verify: coreset and data dimensions differ")
    k = args.k if args.k is not None else core.provenance.get("k")
    if k is None:
        raise InputError("verify: k not recorded in coreset; pass --k")
    if k < 1:
        raise InputError(f"verify: k must be >= 1, got {k}")
    eps = args.eps if args.eps is not None else core.eps
    if eps is None:
        raise InputError("verify: eps not recorded in coreset; pass --eps")
    if args.query_file:
        queries = [cio.load_centers(args.query_file, P.metric)]
    else:
        queries = _query_grid(P, int(k), args.queries, args.seed)
    worst, arg = _max_rel_error(P, core, queries)
    passed = worst <= eps
    results = {
        "max_relative_error": worst,
        "argmax_query": arg,
        "eps": eps,
        "queries": len(queries),
        "pass": bool(passed),
        "weight_sum": getattr(core, "total_weight", None),
    }
    broken = None if passed else (
        f"max_relative_error {worst!r} exceeds eps {eps!r} by "
        f"{worst - eps:.3g} at argmax_query {arg}")
    return results, {}, broken


def cmd_stream(args):
    state = StreamState(k=args.k, eps_bar=args.eps, seed=args.seed,
                        block_size=args.block_size, z=args.z, c=args.c)
    checkpoints = []
    if not args.input and hasattr(sys.stdin, "reconfigure"):
        # decoded as a point file is (io.open_points), whatever the locale
        sys.stdin.reconfigure(errors="surrogateescape")
    with (cio.open_points(args.input) if args.input
          else contextlib.nullcontext(sys.stdin)) as source:
        for row in cio.csv_rows(source, args.input or "<stdin>"):
            stream_push(state, row)
            if state.points_seen % state.block_size == 0:
                cp = state.checkpoint()
                checkpoints.append(cp)
                if not args.out:
                    sys.stdout.write(cio.json_text(cp) + "\n")
    results = {"checkpoints": checkpoints, "final": state.checkpoint(),
               "block_size": state.block_size, "trace": state.counters()}
    if args.query_file:
        centers = cio.load_points(args.query_file)
        results["query_cost"] = stream_query(state, centers)
    return results, {}, None


def cmd_bench(args):
    for flag, grid in (("--n-grid", args.n_grid), ("--k-grid", args.k_grid),
                       ("--eps-grid", args.eps_grid)):
        if not grid:
            raise InputError(f"bench: {flag} lists no value")
    for eps in args.eps_grid:
        if not 0 < eps < 1:
            raise InputError(f"bench: --eps-grid value {eps} must lie in (0, 1)")
    rows, cell_timings = [], []
    for n in args.n_grid:
        for k in args.k_grid:
            for eps in args.eps_grid:
                cell_mix = n * 1_000_003 + k * 10_007 + int(round(eps * 1e9))
                cell_seed = (check_seed(args.seed) ^ cell_mix) % (2 ** 32)
                P = PointSet(cio.gaussian_mixture(n, args.d, k, cell_seed))
                tb0 = time.perf_counter()
                core, anchors = static_coreset(P, k, eps, args.delta, cell_seed,
                                               c=args.c)
                cell_timings.append(time.perf_counter() - tb0)
                queries = _query_grid(P, k, args.queries, cell_seed,
                                      extra_centers=anchors.centers)
                worst, _ = _max_rel_error(P, core, queries)
                rows.append({"n": n, "k": k, "eps": eps,
                             "t": core.provenance["t"],
                             "coreset_size": len(core),
                             "max_relative_error": worst, "seed": cell_seed})
    if args.csv_out:
        header = ["n", "k", "eps", "t", "coreset_size", "max_relative_error",
                  "seed"]
        lines = [",".join(header) + ",build_s"]
        for r, b in zip(rows, cell_timings):
            lines.append(",".join(str(r[h]) for h in header) + f",{b}")
        cio.atomic_write_text(args.csv_out, "\n".join(lines) + "\n")
    return ({"rows": rows, "cells": len(rows)},
            {"build_s_per_cell": cell_timings}, None)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _int_list(text: str) -> list[int]:
    return [int(x) for x in next(csv.reader([text]), []) if x]


def _float_list(text: str) -> list[float]:
    return [float(x) for x in next(csv.reader([text]), []) if x]


def build_parser() -> _Parser:
    p = _Parser(prog="coreclust",
                description="coreset construction, clustering and verification")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, needs_input=True, strict=False, c=True):
        if needs_input:
            sp.add_argument("--input", required=True, help="points CSV/JSONL")
            sp.add_argument("--metric", default=None,
                            help="optional explicit n x n distance matrix CSV")
        sp.add_argument("--seed", type=int, required=True)
        sp.add_argument("--out", default=None, help="report JSON path (default stdout)")
        if strict:
            sp.add_argument("--strict", action="store_true",
                            help="exit 4 when a checked guarantee fails")
        if c:
            sp.add_argument("--c", type=float, default=1.0,
                            help="sample-size constant")

    sp = sub.add_parser("build-coreset", help="bicriteria -> coreset -> file")
    common(sp, strict=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--z", type=float, default=1.0)
    sp.add_argument("--t", type=int, default=None)
    sp.add_argument("--delta", type=float, default=0.1)
    sp.add_argument("--coreset-out", required=True)
    sp.set_defaults(func=cmd_build_coreset)

    sp = sub.add_parser("bicriteria", help="peeling bicriteria approximation")
    common(sp, strict=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--delta", type=float, default=0.1)
    sp.add_argument("--beta", type=int, default=None)
    sp.set_defaults(func=cmd_bicriteria)

    sp = sub.add_parser("solve", help="k-median solvers")
    common(sp)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--method", required=True,
                    choices=["brute", "local", "constant-factor", "coreset"])
    sp.add_argument("--eps", type=float, default=0.2)
    sp.add_argument("--z", type=float, default=1.0)
    sp.add_argument("--delta", type=float, default=0.1)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("verify", help="check a coreset file against its data")
    common(sp, strict=True, c=False)
    sp.add_argument("--coreset", required=True)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--eps", type=float, default=None)
    sp.add_argument("--queries", type=int, default=200)
    sp.add_argument("--query-file", default=None)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("stream", help="one-pass streaming coreset over stdin")
    common(sp, needs_input=False)
    sp.add_argument("--input", default=None,
                    help="points CSV (default: standard input)")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--z", type=float, default=1.0)
    sp.add_argument("--block-size", type=int, default=None)
    sp.add_argument("--query-file", default=None)
    sp.set_defaults(func=cmd_stream)

    sp = sub.add_parser("bench", help="sweep (n, k, eps) and record error/time")
    common(sp, needs_input=False)
    sp.add_argument("--n-grid", type=_int_list, required=True)
    sp.add_argument("--k-grid", type=_int_list, required=True)
    sp.add_argument("--eps-grid", type=_float_list, required=True)
    sp.add_argument("--d", type=int, default=2)
    sp.add_argument("--delta", type=float, default=0.1)
    sp.add_argument("--queries", type=int, default=50)
    sp.add_argument("--csv-out", default=None)
    sp.set_defaults(func=cmd_bench)

    return p


def main(argv=None) -> int:
    """Run one command; the one place that builds, writes and strict-checks
    its report."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        check_seed(args.seed)
        if hasattr(args, "eps") and args.eps is not None and not 0 < args.eps <= 1:
            raise InputError(f"eps must lie in (0, 1], got {args.eps}")
        if getattr(args, "queries", 0) < 0:
            raise InputError(f"queries must be >= 0, got {args.queries}")
        t0 = time.perf_counter()
        results, timings, broken = args.func(args)
        timings["total_s"] = time.perf_counter() - t0
        report = {
            "tool": {"name": "coreclust", "version": __version__},
            "command": args.command,
            "config": {k: v for k, v in vars(args).items()
                       if k not in ("out", "func")},
            "timings": timings,
            "results": results,
        }
        if args.out:
            cio.dump_json(args.out, report)
        else:
            sys.stdout.write(cio.json_text(report, indent=2) + "\n")
    except (OSError, LoadError) as exc:
        print(f"coreclust: {exc}", file=sys.stderr)
        return EXIT_IO
    except InputError as exc:
        print(f"coreclust: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    # only the commands with --strict ever return a broken guarantee
    if broken and args.strict:
        print(f"{args.command}: --strict: {broken}", file=sys.stderr)
        return EXIT_GUARANTEE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
