"""Measure the query error and push time of the streaming coreset on one or
more source trees.

    python tools/stream_error.py SRC [SRC ...] [--n N] [--k K] [--d D]
                                 [--seeds FIRST-LAST]

For each tree, one child process with SRC on PYTHONPATH and
OPENBLAS_NUM_THREADS=1 runs every seed s:
- it pushes the points of `gaussian_mixture(n, d, k, s)` one at a time into
  `StreamState(k, 0.2, seed=s)` and times the pushes;
- it draws 40 queries of k points each from the data with
  `default_rng([s, 40])` and records the worst relative error of
  `stream_query` against the true cost.
The tool prints one JSON line per tree: the median, p90 and max of the
per-seed worst errors and the median push time.  Points come from the
benchmark's recipe (perfbench/workloads.py) and true costs from numpy here,
not from SRC, so every tree answers the same queries on the same points.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

EPS_BAR = 0.2
QUERIES = 40


def true_cost(points, centers) -> float:
    diff = points[:, None, :] - centers[None, :, :]
    return float(np.sqrt((diff * diff).sum(axis=2)).min(axis=1).sum())


def one_seed(n: int, d: int, k: int, s: int) -> tuple[float, float]:
    """(worst relative error, push seconds) of one seed, on the coreclust
    that is on the path."""
    from coreclust.streaming import StreamState, stream_push, stream_query

    points = workloads.gaussian_mixture(n, d, k, s)
    state = StreamState(k, EPS_BAR, seed=s)
    start = time.perf_counter()
    for p in points:
        stream_push(state, p)
    push_s = time.perf_counter() - start
    rng = np.random.default_rng([s, QUERIES])
    worst = 0.0
    for _ in range(QUERIES):
        x = points[rng.choice(n, k, replace=False)]
        true = true_cost(points, x)
        worst = max(worst, abs(stream_query(state, x) - true) / true)
    return worst, push_s


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", type=Path, nargs="+",
                    help="a tree's source directory")
    ap.add_argument("--n", type=int, default=10_000)
    ap.add_argument("--k", type=int, default=3)
    ap.add_argument("--d", type=int, default=2)
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-20"),
                    help="FIRST-LAST, both included")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    seeds = args.seeds
    label = f"{seeds.start}-{seeds.stop - 1}"
    if args.child:
        # the parent put the tree on PYTHONPATH: one JSON line of results
        print(json.dumps([one_seed(args.n, args.d, args.k, s) for s in seeds]))
        return 0
    for src in args.src:
        env = dict(os.environ, PYTHONPATH=str(src.resolve()),
                   OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, __file__, str(src), "--child", "--n", str(args.n),
             "--k", str(args.k), "--d", str(args.d),
             "--seeds", label],
            env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        errors, push_s = np.array(json.loads(proc.stdout)).T
        print(json.dumps({
            "src": str(src), "n": args.n, "k": args.k, "d": args.d,
            "seeds": label,
            "median": round(float(np.median(errors)), 4),
            "p90": round(float(np.percentile(errors, 90)), 4),
            "max": round(float(errors.max()), 4),
            "median_push_s": round(float(np.median(push_s)), 4)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
