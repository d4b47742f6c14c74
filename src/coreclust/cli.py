"""Command-line front end: build/verify/solve/stream/bench with JSON reports.

Every randomized command is replayable: the emitted report echoes the full
config including the seed, and rerunning with that config reproduces all
non-timing fields byte-identically.

Exit codes: 0 ok, 1 usage, 2 I/O, 3 validation, 4 guarantee violation under
--strict.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .geometry import InputError, LoadError, PointSet, costs
from .sampling import check_seed, rng_for
from .bicriteria import metric_kmedian_bicriteria
from .construction import k_median_coreset
from .solvers import (
    brute_force_k_median,
    constant_factor_metric_kmedian,
    solve_on_coreset,
    strong_coreset_sample_size,
    weighted_local_search,
)
from .streaming import StreamState, stream_push, stream_query
from . import io as cio

EXIT_OK, EXIT_USAGE, EXIT_IO, EXIT_VALIDATION, EXIT_GUARANTEE = 0, 1, 2, 3, 4

# reports add the exact optimum (an audit query, the bicriteria lower bound)
# only up to this many k-subsets
REPORT_BRUTE_LIMIT = 10 ** 5


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _report_skeleton(command: str, config: dict) -> dict:
    return {
        "tool": {"name": "coreclust", "version": __version__},
        "command": command,
        "config": config,
        "timings": {},
        "results": {},
    }


def _emit(report: dict, out_path) -> None:
    if out_path:
        cio.dump_json(out_path, report)
    else:
        sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")


def _load_input(args) -> PointSet:
    return cio.load_point_set(args.input, metric_path=args.metric)


def _config_echo(args, skip=("out", "func")) -> dict:
    return {k: v for k, v in sorted(vars(args).items())
            if k not in skip and not k.startswith("_")}


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


def _guarantee_broken(command: str, message: str) -> int:
    print(f"{command}: --strict: {message}", file=sys.stderr)
    return EXIT_GUARANTEE


def _max_rel_error(P: PointSet, core, queries) -> tuple[float, int]:
    """Worst |true - coreset| / true over the queries; where the true cost is
    0 the error is 0 if the coreset's cost is 0 too, else infinite.  The true
    costs come from one walk over the data; the coreset is queried one set at
    a time."""
    worst, arg = -1.0, -1
    for i, (x, true) in enumerate(zip(queries, costs(P, queries, z=core.z))):
        true, est = float(true), core.cost(x)
        err = abs(true - est) / true if true > 0 else (0.0 if est == 0 else math.inf)
        if err > worst:
            worst, arg = err, i
    return worst, arg


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_build_coreset(args) -> int:
    report = _report_skeleton("build-coreset", _config_echo(args))
    t0 = time.perf_counter()
    P = _load_input(args)
    n = P.total_weight
    t1 = time.perf_counter()
    anchors = constant_factor_metric_kmedian(P, args.k, args.eps, args.delta,
                                             args.seed, c=args.c)
    t2 = time.perf_counter()
    t = args.t if args.t is not None else strong_coreset_sample_size(
        n, args.k, args.eps, args.delta, P.metric, dim=P.dim, c=args.c)
    core = k_median_coreset(P, anchors.centers, t, args.eps, z=args.z,
                            seed=args.seed)
    core.provenance.update({
        "k": args.k, "delta": args.delta, "c": args.c,
        "input_sha256": cio.file_sha256(args.metric or args.input),
        "bicriteria_cost": anchors.cost,
    })
    t3 = time.perf_counter()
    cio.save_coreset(args.coreset_out, core)
    t4 = time.perf_counter()

    report["results"] = {
        "n": int(n),
        "coreset_size": len(core),
        "t": int(t),
        "weight_sum": core.total_weight,
        "min_weight": float(np.min(core.weights)),
        "inflation": core.provenance.get("inflation", 1.0),
        "anchor_cost": anchors.cost,
        "coreset_file": str(args.coreset_out),
    }
    report["timings"] = {"load_s": t1 - t0, "anchors_s": t2 - t1,
                         "build_s": t3 - t2, "write_s": t4 - t3,
                         "total_s": t4 - t0}
    _emit(report, args.out)
    expected = core.provenance.get("inflation", 1.0) * n
    gap = abs(core.total_weight - expected)
    if args.strict and gap > 1e-9 * max(1.0, n):
        return _guarantee_broken("build-coreset", (
            f"weight_sum misses inflation*n = {expected!r} by {gap:.3g}"))
    return EXIT_OK


def cmd_bicriteria(args) -> int:
    report = _report_skeleton("bicriteria", _config_echo(args))
    t0 = time.perf_counter()
    P = _load_input(args)
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
    report["results"] = results
    report["timings"] = {"total_s": time.perf_counter() - t0,
                         "bicriteria_s": t1 - t0}
    _emit(report, args.out)
    if args.strict and res.n_centers > res.center_bound():
        return _guarantee_broken("bicriteria", (
            f"n_centers {res.n_centers} exceeds center_bound "
            f"{res.center_bound()} by {res.n_centers - res.center_bound()}"))
    return EXIT_OK


def cmd_solve(args) -> int:
    report = _report_skeleton("solve", _config_echo(args))
    t0 = time.perf_counter()
    P = _load_input(args)
    if args.method == "brute":
        res = brute_force_k_median(P, args.k, candidates=P.points, z=args.z)
        audit = None
    elif args.method == "local":
        res = weighted_local_search(P, args.k, candidates=P.points, z=args.z,
                                    seed=args.seed)
        audit = None
    elif args.method == "constant-factor":
        res = constant_factor_metric_kmedian(P, args.k, args.eps, args.delta,
                                             args.seed, c=args.c)
        audit = None
    else:
        res, audit = solve_on_coreset(P, args.k, args.eps, args.seed,
                                      delta=args.delta, c=args.c, z=args.z)
    report["results"] = {"solution": res.to_dict(), "audit": audit}
    report["timings"] = {"total_s": time.perf_counter() - t0}
    _emit(report, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    report = _report_skeleton("verify", _config_echo(args))
    t0 = time.perf_counter()
    P = _load_input(args)
    core = cio.load_coreset(args.coreset, P.metric)
    source = args.metric or args.input
    recorded = core.provenance.get("input_sha256")
    if recorded is not None and recorded != cio.file_sha256(source):
        print(f"verify: {source} does not match the coreset's provenance hash",
              file=sys.stderr)
        return EXIT_VALIDATION
    if P.metric.is_euclidean and core.points.shape[1] != P.points.shape[1]:
        print("verify: coreset and data dimensions differ", file=sys.stderr)
        return EXIT_VALIDATION
    k = args.k if args.k is not None else core.provenance.get("k")
    if k is None:
        print("verify: k not recorded in coreset; pass --k", file=sys.stderr)
        return EXIT_VALIDATION
    if k < 1:
        print(f"verify: k must be >= 1, got {k}", file=sys.stderr)
        return EXIT_VALIDATION
    eps = args.eps if args.eps is not None else core.eps
    if eps is None:
        print("verify: eps not recorded in coreset; pass --eps", file=sys.stderr)
        return EXIT_VALIDATION
    if args.query_file:
        queries = [cio.load_points(args.query_file)]
    else:
        queries = _query_grid(P, int(k), args.queries, args.seed)
    worst, arg = _max_rel_error(P, core, queries)
    passed = worst <= eps
    report["results"] = {
        "max_relative_error": worst,
        "argmax_query": arg,
        "eps": eps,
        "queries": len(queries),
        "pass": bool(passed),
        "weight_sum": getattr(core, "total_weight", None),
    }
    report["timings"] = {"total_s": time.perf_counter() - t0}
    _emit(report, args.out)
    if args.strict and not passed:
        return _guarantee_broken("verify", (
            f"max_relative_error {worst!r} exceeds eps {eps!r} by "
            f"{worst - eps:.3g} at argmax_query {arg}"))
    return EXIT_OK


def cmd_stream(args) -> int:
    report = _report_skeleton("stream", _config_echo(args))
    t0 = time.perf_counter()
    state = StreamState(k=args.k, eps_bar=args.eps, seed=args.seed,
                        block_size=args.block_size, z=args.z, c=args.c)
    checkpoints = []
    width = None
    source = open(args.input) if args.input else sys.stdin
    try:
        for lineno, line in enumerate(source, start=1):
            line = line.strip()
            if not line:
                continue
            row = cio.parse_row(line.split(","), width,
                                args.input or "<stdin>", lineno)
            width = len(row)
            stream_push(state, row)
            if state.points_seen % state.block_size == 0:
                cp = state.checkpoint()
                checkpoints.append(cp)
                if not args.out:
                    sys.stdout.write(json.dumps(cp, sort_keys=True) + "\n")
    finally:
        if args.input:
            source.close()
    results = {"checkpoints": checkpoints, "final": state.checkpoint(),
               "block_size": state.block_size}
    if args.query_file:
        centers = cio.load_points(args.query_file)
        results["query_cost"] = stream_query(state, centers)
    report["results"] = results
    report["timings"] = {"total_s": time.perf_counter() - t0}
    _emit(report, args.out)
    return EXIT_OK


def cmd_bench(args) -> int:
    report = _report_skeleton("bench", _config_echo(args))
    t0 = time.perf_counter()
    rows, cell_timings = [], []
    for n in args.n_grid:
        for k in args.k_grid:
            for eps in args.eps_grid:
                cell_mix = n * 1_000_003 + k * 10_007 + int(round(eps * 1e9))
                cell_seed = (check_seed(args.seed) ^ cell_mix) % (2 ** 32)
                pts = cio.gaussian_mixture(n, args.d, k, cell_seed)
                P = PointSet(pts)
                tb0 = time.perf_counter()
                anchors = constant_factor_metric_kmedian(P, k, eps, args.delta,
                                                         cell_seed, c=args.c)
                t = strong_coreset_sample_size(n, k, eps, args.delta, P.metric,
                                               dim=args.d, c=args.c)
                core = k_median_coreset(P, anchors.centers, t, eps,
                                        seed=cell_seed)
                cell_timings.append(time.perf_counter() - tb0)
                queries = _query_grid(P, k, args.queries, cell_seed,
                                      extra_centers=anchors.centers)
                worst, _ = _max_rel_error(P, core, queries)
                rows.append({"n": n, "k": k, "eps": eps, "t": t,
                             "coreset_size": len(core),
                             "max_relative_error": worst, "seed": cell_seed})
    report["results"] = {"rows": rows, "cells": len(rows)}
    report["timings"] = {"total_s": time.perf_counter() - t0,
                         "build_s_per_cell": cell_timings}
    _emit(report, args.out)
    if args.csv_out:
        header = ["n", "k", "eps", "t", "coreset_size", "max_relative_error",
                  "seed"]
        lines = [",".join(header) + ",build_s"]
        for r, b in zip(rows, cell_timings):
            lines.append(",".join(str(r[h]) for h in header) + f",{b}")
        cio.atomic_write_text(args.csv_out, "\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x]


def _float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x]


def build_parser() -> _Parser:
    p = _Parser(prog="coreclust",
                description="coreset construction, clustering and verification")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, needs_input=True):
        if needs_input:
            sp.add_argument("--input", required=True, help="points CSV/JSONL")
            sp.add_argument("--metric", default=None,
                            help="optional explicit n x n distance matrix CSV")
        sp.add_argument("--seed", type=int, required=True)
        sp.add_argument("--out", default=None, help="report JSON path (default stdout)")
        sp.add_argument("--strict", action="store_true",
                        help="exit 4 when a checked guarantee fails")
        sp.add_argument("--c", type=float, default=1.0,
                        help="sample-size constant")

    sp = sub.add_parser("build-coreset", help="bicriteria -> coreset -> file")
    common(sp)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--z", type=float, default=1.0)
    sp.add_argument("--t", type=int, default=None)
    sp.add_argument("--delta", type=float, default=0.1)
    sp.add_argument("--coreset-out", required=True)
    sp.set_defaults(func=cmd_build_coreset)

    sp = sub.add_parser("bicriteria", help="peeling bicriteria approximation")
    common(sp)
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
    common(sp)
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if hasattr(args, "seed"):
            check_seed(args.seed)
        if hasattr(args, "eps") and args.eps is not None and not 0 < args.eps <= 1:
            raise InputError(f"eps must lie in (0, 1], got {args.eps}")
        return args.func(args)
    except (OSError, LoadError) as exc:
        print(f"coreclust: {exc}", file=sys.stderr)
        return EXIT_IO
    except InputError as exc:
        print(f"coreclust: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
