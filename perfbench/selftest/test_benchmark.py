"""Self-test of the benchmark: every workload at toy size, and every check.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/selftest

Each workload runs one round, untraced and traced, and must pass its output
checks.  Then each checked property of the outputs is corrupted on its own,
and the matching check must report it: a check that is removed, or that
always passes, fails this test.
"""

from __future__ import annotations

import copy
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPECS = workloads.SPECS
TOY = {
    "build": replace(SPECS["build"], n=400, queries=10, variants=2),
    "stream": replace(SPECS["stream"], n=750, block_size=100),
    "verify": replace(SPECS["verify"], n=300, queries=10),
    "metric": replace(SPECS["metric"], n=120, queries=10),
}
WORK = BENCH / "work" / "selftest"


@pytest.fixture(scope="module")
def toy_runs():
    """One untraced round per workload: (prepared sets, samples, problems)."""
    out = {}
    for name, spec in TOY.items():
        preps, setup_s, problems = run.setup(spec, 7, WORK / name)
        samples, op_problems, attempted, failed = run.measure(preps, 0.0)
        assert setup_s > 0
        assert (attempted, failed) == (run.ROUND_OPS, 0)
        out[name] = (preps, samples, problems + op_problems)
    return out


@pytest.mark.parametrize("name", sorted(TOY))
def test_toy_workload_passes_its_checks(toy_runs, name):
    preps, samples, problems = toy_runs[name]
    assert problems == []
    (s,) = samples   # one sample per round
    assert s["points_per_s"] > 0 and s["queries_per_s"] > 0
    assert s["peak_rss_mb"] > 0


@pytest.mark.parametrize("name", sorted(TOY))
def test_traced_run_reports_every_layer_metric(toy_runs, name):
    preps = toy_runs[name][0]
    samples, problems, attempted, failed = run.measure_traced(preps, 0.0)
    assert problems == [] and failed == 0 and attempted == run.ROUND_OPS
    per_layer = {m["name"] for m in run.load_spec(ROOT / "BENCHMARK.json")["per_layer"]}
    s = samples[0]
    assert set(s) == per_layer
    assert s["geometry.pairwise_dist_calls"] > 0 and s["geometry.pairwise_dist_cells"] > 0
    if name == "stream":
        spec = TOY[name]
        assert s["streaming.pushes"] == spec.n
        assert s["streaming.reduces"] == spec.n // spec.block_size + s["streaming.carries"]
        assert s["streaming.stored_points"] == 300 + spec.n % spec.block_size
    if name == "verify":
        assert s["construction.cost_queries"] == TOY[name].queries
        assert s["bicriteria.calls"] == 0


def _coreset_mutations(prep):
    """(corruption, word the matching problem must contain)."""
    spec = prep.spec
    center = prep.reference[0][0][0]

    def weight(c):
        c["points"][0]["weight"] += 1.0

    def collapse(c):
        # every point onto a center of the first query: its cost reads 0
        for p in c["points"]:
            p["coords"] = int(center) if prep.D is not None else list(center)

    def kind(c):
        c["type"] = "threshold"

    muts = [(weight, "weight sum"), (collapse, "coreset cost"), (kind, "type")]
    if prep.D is not None:
        def out_of_range(c):
            c["points"][0]["coords"] = spec.n
        muts.append((out_of_range, "ids"))
    return muts


@pytest.mark.parametrize("name", ["build", "metric", "verify"])
def test_coreset_checks_catch_each_corruption(toy_runs, name):
    prep = toy_runs[name][0][0]
    core = workloads.read_json(prep.path("coreset.json"))
    assert checks.coreset_problems(core, prep.spec.n, prep.spec.eps,
                                   prep.reference, prep.D) == []
    for mutate, word in _coreset_mutations(prep):
        bad = copy.deepcopy(core)
        mutate(bad)
        problems = checks.coreset_problems(bad, prep.spec.n, prep.spec.eps,
                                           prep.reference, prep.D)
        assert any(word in p for p in problems), (mutate.__name__, problems)


def test_verify_checks_catch_each_corruption(toy_runs):
    prep = toy_runs["verify"][0][0]
    spec = prep.spec
    report = workloads.read_json(prep.path("verify_report.json"))

    def failed(r):
        r["results"]["pass"] = False

    def too_far(r):
        r["results"]["max_relative_error"] = 1.5 * spec.eps

    def fewer(r):
        r["results"]["queries"] -= 1

    def weight(r):
        r["results"]["weight_sum"] += 1.0

    def check(r):
        return checks.verify_problems(r, spec.n, spec.eps, spec.eps, spec.queries)

    assert check(report) == []
    for mutate, word in [(failed, "pass="), (too_far, "max_relative_error"),
                         (fewer, "queries"), (weight, "weight sum")]:
        bad = copy.deepcopy(report)
        mutate(bad)
        problems = check(bad)
        assert any(word in p for p in problems), (mutate.__name__, problems)


def test_stream_checks_catch_each_corruption(toy_runs):
    prep = toy_runs["stream"][0][0]
    spec = prep.spec
    report = workloads.read_json(prep.path("stream_report.json"))

    def seen(r):
        r["results"]["final"]["points_seen"] += 1

    def levels(r):
        r["results"]["final"]["bucket_levels"].append(99)

    def stored(r):
        r["results"]["final"]["stored_points"] += 1

    def query(r):
        r["results"]["query_cost"] *= 1.0 + 2.0 * spec.eps

    def check(r):
        return checks.stream_problems(r, spec.n, spec.block_size, spec.eps,
                                      prep.stream_true)

    assert check(report) == []
    for mutate, word in [(seen, "points_seen"), (levels, "bucket_levels"),
                         (stored, "stored_points"), (query, "query_cost")]:
        bad = copy.deepcopy(report)
        mutate(bad)
        assert any(word in p for p in check(bad)), mutate.__name__


def test_stream_levels_are_the_set_bits_of_the_block_count():
    assert checks.stream_levels(10_000, 531) == [1, 4]     # 18 blocks
    assert checks.stream_levels(20_000, 531) == [0, 2, 5]  # 37 blocks
    assert checks.stream_levels(100, 531) == []


def test_refuses_to_run_without_the_program_sources():
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / BENCH.name,
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "build",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
