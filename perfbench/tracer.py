"""Spans and counters around calls into coreclust's layers, from outside.

The tracer replaces each traced function under every coreclust module name
that holds it (modules import with `from .geometry import pairwise_dist`), and
`StaticCoreset.cost` on its class.  A span records wall time; a function's
self time is its span minus the traced child spans inside it.  Spans stay in
memory until the benchmark writes them out.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter, defaultdict


def _cells(t, args, kwargs, result):
    cells = result.shape[0] * result.shape[1]
    t.counts["pairwise_dist_cells"] += cells
    t.counts["pairwise_dist_max_cells"] = max(t.counts["pairwise_dist_max_cells"], cells)


def _bicriteria(t, args, kwargs, result):
    t.counts["bicriteria_rounds"] += len(result.rounds)
    t.counts["bicriteria_centers"] += result.n_centers


def _local_search(t, args, kwargs, result):
    t.counts["local_search_evaluations"] += result.evaluations
    cand = args[2] if len(args) > 2 else kwargs["candidates"]
    t.counts["local_search_max_candidates"] = max(
        t.counts["local_search_max_candidates"], len(cand))


def _brute_force(t, args, kwargs, result):
    t.counts["brute_force_evaluations"] += result.evaluations


def _coreset(t, args, kwargs, result):
    t.counts["coreset_points"] += len(result)
    if "stream_push" in t.open_names():
        t.counts["stream_reduces"] += 1


def _file_bytes(key):
    def hook(t, args, kwargs, result):
        t.counts[key] += os.path.getsize(args[0])
    return hook


# (module, function, hook) for every traced function
TARGETS = [
    ("geometry", "pairwise_dist", _cells),
    ("bicriteria", "metric_kmedian_bicriteria", _bicriteria),
    ("solvers", "constant_factor_metric_kmedian", None),
    ("solvers", "weighted_local_search", _local_search),
    ("solvers", "brute_force_k_median", _brute_force),
    ("construction", "k_median_coreset", _coreset),
    ("streaming", "stream_push", None),
    ("io", "load_points", _file_bytes("load_points_bytes")),
    ("io", "load_metric_csv", _file_bytes("load_metric_bytes")),
    ("io", "save_coreset", _file_bytes("save_coreset_bytes")),
    ("io", "load_coreset", _file_bytes("load_coreset_bytes")),
    ("io", "file_sha256", None),
    ("cli", "cmd_stream", None),
    ("cli", "cmd_verify", None),
]


class Tracer:
    def __init__(self):
        self.spans = []        # (id, parent id or None, name, start, end)
        self.stack = []        # open frames: [id, name, child seconds]
        self.stats = defaultdict(lambda: {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0, "max_s": 0.0})
        self.counts = Counter()
        self._patched = []

    def open_names(self):
        return [f[1] for f in self.stack]

    def wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(tracer.spans) + len(tracer.stack)
            parent = tracer.stack[-1][0] if tracer.stack else None
            frame = [sid, name, 0.0]
            tracer.stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer.stack.pop()
                dur = t1 - t0
                if tracer.stack:
                    tracer.stack[-1][2] += dur
                st = tracer.stats[name]
                st["calls"] += 1
                st["total_s"] += dur
                st["self_s"] += dur - frame[2]
                st["max_s"] = max(st["max_s"], dur)
                tracer.spans.append((sid, parent, name, t0, t1))
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result
        return traced

    def install(self):
        """Replace every traced function in the loaded coreclust modules."""
        import coreclust.cli  # noqa: F401  (loads every module on the CLI paths)
        from coreclust.construction import StaticCoreset

        mods = [m for k, m in sys.modules.items()
                if k == "coreclust" or k.startswith("coreclust.")]
        for modname, fname, hook in TARGETS:
            orig = getattr(sys.modules[f"coreclust.{modname}"], fname)
            traced = self.wrap(fname, orig, hook)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._patched.append((mod, attr, orig))
                        setattr(mod, attr, traced)
        orig = StaticCoreset.cost
        self._patched.append((StaticCoreset, "cost", orig))
        StaticCoreset.cost = self.wrap("StaticCoreset.cost", orig, None)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def layer_metrics(self, blocks: int, stored_points: int) -> dict:
        """Per-layer metrics of everything traced since install().

        `blocks` and `stored_points` come from the stream report: every full
        block costs one reduce, and each further reduce is a carry.
        """
        s, c = self.stats, self.counts

        def total(name):
            return s[name]["total_s"] if name in s else 0.0

        def self_s(name):
            return s[name]["self_s"] if name in s else 0.0

        def calls(name):
            return s[name]["calls"] if name in s else 0

        dist_s = total("pairwise_dist")
        return {
            "geometry.pairwise_dist_calls": calls("pairwise_dist"),
            "geometry.pairwise_dist_cells": c["pairwise_dist_cells"],
            "geometry.pairwise_dist_max_cells": c["pairwise_dist_max_cells"],
            "geometry.pairwise_dist_s": dist_s,
            "geometry.cells_per_s": c["pairwise_dist_cells"] / dist_s if dist_s else 0.0,
            "bicriteria.calls": calls("metric_kmedian_bicriteria"),
            "bicriteria.rounds": c["bicriteria_rounds"],
            "bicriteria.centers": c["bicriteria_centers"],
            "bicriteria.self_s": self_s("metric_kmedian_bicriteria"),
            "solvers.anchors_s": total("constant_factor_metric_kmedian"),
            "solvers.local_search_calls": calls("weighted_local_search"),
            "solvers.local_search_evaluations": c["local_search_evaluations"],
            "solvers.local_search_max_candidates": c["local_search_max_candidates"],
            "solvers.local_search_self_s": self_s("weighted_local_search"),
            "solvers.brute_force_calls": calls("brute_force_k_median"),
            "solvers.brute_force_evaluations": c["brute_force_evaluations"],
            "solvers.brute_force_self_s": self_s("brute_force_k_median"),
            "construction.coreset_builds": calls("k_median_coreset"),
            "construction.coreset_points": c["coreset_points"],
            "construction.coreset_build_self_s": self_s("k_median_coreset"),
            "construction.cost_queries": calls("StaticCoreset.cost"),
            "construction.cost_query_s": total("StaticCoreset.cost"),
            "streaming.pushes": calls("stream_push"),
            "streaming.push_self_s": self_s("stream_push"),
            "streaming.push_max_s": s["stream_push"]["max_s"] if "stream_push" in s else 0.0,
            "streaming.reduces": c["stream_reduces"],
            "streaming.carries": c["stream_reduces"] - blocks,
            "streaming.stored_points": stored_points,
            "io.load_points_s": total("load_points"),
            "io.load_points_bytes": c["load_points_bytes"],
            "io.load_metric_s": total("load_metric_csv"),
            "io.load_metric_bytes": c["load_metric_bytes"],
            "io.save_coreset_s": total("save_coreset"),
            "io.save_coreset_bytes": c["save_coreset_bytes"],
            "io.load_coreset_s": total("load_coreset"),
            "io.load_coreset_bytes": c["load_coreset_bytes"],
            "io.file_sha256_s": total("file_sha256"),
            "cli.stream_parse_s": self_s("cmd_stream"),
            "cli.verify_self_s": self_s("cmd_verify"),
        }
