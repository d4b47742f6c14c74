"""Replay a fixed set of CLI runs on one source tree and record what each did.

    python tools/replay.py SRC OUT [--quick]

Every run is a `python -m coreclust ...` child process with SRC on
PYTHONPATH and OPENBLAS_NUM_THREADS=1, started in a fresh work directory
with relative paths, so two trees that behave alike write identical lines.
OUT gets one JSON line per run: its name, argv, exit code, stdout, stderr,
its report without `timings` or paths, and the sha256 of the coreset file it
writes.  Compare two trees with `diff` on their OUT files.

The runs:
- 18 invocations at each of seeds 1 and 7 on `gaussian_mixture(300, 2, 3,
  11)` as points and on the explicit metric of `gaussian_mixture(40, 2, 3,
  12)`;
- thirteen runs on bad input or with a broken guarantee;
- `solve --method local --k 3` on `gaussian_mixture(2100, 2, 3, 13)`, whose
  2,100 x 2,100 candidate rows are above the solvers' TABLE_CELLS, so the
  search computes its rows;
- unless --quick, the six `build-coreset`/`verify` pairs of the benchmark's
  `build` workload at seed 1, the pairs of its `verify` and `metric`
  workloads (`metric`: 1,000 audited queries on a 500 x 500 matrix) and the
  `stream` invocation of its `stream` workload (10,000 points from standard
  input in blocks of 531, so 16 carries at the benchmark's shape).
Inputs come from the benchmark's own recipe (perfbench/workloads.py), not
from SRC, so both trees read the same bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

SEEDS = (1, 7)
# report fields that hold a path, dropped before recording
PATH_KEYS = {"input", "metric", "coreset", "coreset_out", "query_file",
             "csv_out", "coreset_file"}


@dataclass(frozen=True)
class Run:
    name: str
    argv: list
    stdin: str | None = None
    writes: list = field(default_factory=list)   # coreset files it writes


def write_small_inputs(work: Path) -> None:
    X = workloads.gaussian_mixture(300, 2, 3, 11)
    workloads.write_csv(work / "points.csv", X)
    workloads.write_csv(work / "query.csv", X[[0, 100, 200]])
    (work / "ids.csv").write_text("3\n17\n40\n")
    other = X.copy()
    other[0, 0] += 1.0
    workloads.write_csv(work / "other.csv", other)
    Y = workloads.gaussian_mixture(40, 2, 3, 12)
    workloads.write_csv(work / "metric.csv", workloads.distance_matrix(Y))
    (work / "strings.jsonl").write_text('{"coords": [1, 2]}\n'
                                        '{"coords": ["1.5", 2]}\n')
    workloads.write_csv(work / "large.csv",
                        workloads.gaussian_mixture(2100, 2, 3, 13))


def seed_runs(s: int) -> list[Run]:
    """The 18 invocations at one seed."""
    pts = ["--input", "points.csv"]
    met = ["--input", "points.csv", "--metric", "metric.csv"]
    common = ["--seed", str(s), "--out", "report.json"]

    def build(tag, inp, *extra):
        out = f"s{s}_{tag}.json"
        return Run(f"s{s}/build-{tag}", ["build-coreset", *inp, "--k", "3",
                                         "--eps", "0.3", *extra,
                                         "--coreset-out", out, *common], None,
                   [out])

    def verify(tag, inp, core, *extra):
        return Run(f"s{s}/verify-{tag}", ["verify", *inp, "--coreset",
                                          f"s{s}_{core}.json", *extra, *common])

    def solve(tag, inp, method, *extra):
        return Run(f"s{s}/solve-{tag}", ["solve", *inp, "--k", "3",
                                         "--method", method, *extra, *common])

    return [
        build("points-z1", pts),
        build("points-z2", pts, "--z", "2"),
        build("metric-z1", met),
        build("metric-z2", met, "--z", "2"),
        verify("grid", pts, "points-z1"),
        verify("metric-grid", met, "metric-z1"),
        verify("k2", pts, "points-z1", "--k", "2", "--queries", "50"),
        verify("query-file", pts, "points-z1", "--query-file", "query.csv"),
        Run(f"s{s}/bicriteria", ["bicriteria", *pts, "--k", "3", "--eps",
                                 "0.3", *common]),
        Run(f"s{s}/bicriteria-metric", ["bicriteria", *met, "--k", "3",
                                        "--eps", "0.3", *common]),
        solve("brute-metric", met, "brute"),
        solve("local-z1", pts, "local"),
        solve("local-z2", pts, "local", "--z", "2"),
        solve("constant-factor", pts, "constant-factor"),
        solve("coreset", pts, "coreset"),
        solve("coreset-metric-z2", met, "coreset", "--z", "2"),
        Run(f"s{s}/stream", ["stream", *pts, "--k", "3", "--eps", "0.3",
                             "--block-size", "64", "--query-file", "query.csv",
                             *common]),
        Run(f"s{s}/bench", ["bench", "--n-grid", "200,400", "--k-grid", "2,3",
                            "--eps-grid", "0.3", "--queries", "20", *common]),
    ]


def bad_runs() -> list[Run]:
    """Thirteen runs that must fail, each with its documented exit code, or
    that once did.  They read the seed-1 coresets."""
    pts = ["--input", "points.csv", "--seed", "1"]
    out = ["--out", "report.json"]
    verify = ["verify", *pts, "--coreset", "s1_points-z1.json", *out]

    def build(tag, *extra, eps="0.3"):
        return Run(f"bad/build-{tag}", ["build-coreset", *pts, "--k", "3",
                                        "--eps", eps, *extra, "--coreset-out",
                                        "bad.json", *out], None, ["bad.json"])

    return [
        build("z", "--z", "0.5"),
        build("t", "--t", "0"),
        build("eps", eps="1"),
        # t = 8.3e18 draws, refused before the anchors
        build("eps-tiny", eps="1e-9"),
        Run("bad/verify-strict", [*verify, "--eps", "0.001", "--strict"]),
        Run("bad/bicriteria-strict", ["bicriteria", *pts, "--k", "10", "--eps",
                                      "0.3", "--beta", "1", "--strict", *out]),
        Run("bad/unwritable-out", ["bicriteria", *pts, "--k", "3", "--eps",
                                   "0.3", "--out", "points.csv/report.json"]),
        Run("bad/hash-mismatch", ["verify", "--input", "other.csv", "--seed",
                                  "1", "--coreset", "s1_points-z1.json", *out]),
        Run("bad/verify-k0", [*verify, "--k", "0"]),
        Run("bad/constant-factor-z2", ["solve", *pts, "--k", "3", "--method",
                                       "constant-factor", "--z", "2", *out]),
        Run("bad/stream-stdin", ["stream", "--k", "3", "--eps", "0.3", "--seed",
                                 "1", *out], "points.csv"),
        Run("bad/jsonl-string-coordinate", ["bicriteria", "--input",
                                            "strings.jsonl", "--k", "1",
                                            "--eps", "0.3", "--seed", "1",
                                            *out]),
        # id 40 lies outside the 40 x 40 matrix
        Run("bad/verify-metric-query-id", [
            "verify", *pts, "--metric", "metric.csv", "--coreset",
            "s1_metric-z1.json", "--query-file", "ids.csv", *out]),
    ]


def benchmark_runs(work: Path) -> list[Run]:
    """The build, verify, metric and stream workloads' invocations at
    benchmark seed 1."""
    runs = []
    for name in ("build", "verify", "metric", "stream"):
        for p in workloads.prepare(workloads.SPECS[name], 1, work / name):
            s, d = p.spec, p.work.relative_to(work)
            if name == "stream":
                runs.append(Run(f"{d}/stream", [
                    "stream", "--k", str(s.k), "--eps", str(s.eps), "--seed",
                    str(p.seed), "--block-size", str(s.block_size),
                    "--query-file", str(d / "query.csv"), "--out",
                    "report.json"], str(d / "data.csv")))
                continue
            inp = ["--input", str(d / "data.csv"), "--seed", str(p.seed),
                   "--out", "report.json"]
            if p.D is not None:
                inp += ["--metric", str(d / "matrix.csv")]
            core = str(d / "coreset.json")
            runs.append(Run(f"{d}/build", ["build-coreset", *inp, "--k",
                                           str(s.k), "--eps", str(s.eps),
                                           "--coreset-out", core], None, [core]))
            audit = ["--eps", str(s.audit_eps)] if s.audit_eps else []
            runs.append(Run(f"{d}/verify", ["verify", *inp, "--coreset", core,
                                            "--queries", str(s.queries),
                                            *audit]))
    return runs


def quick_runs() -> list[Run]:
    """The runs on the 300-, 40- and 2,100-point inputs, in order."""
    large = Run("large/solve-local", ["solve", "--input", "large.csv", "--k",
                                      "3", "--method", "local", "--seed", "1",
                                      "--out", "report.json"])
    return [r for s in SEEDS for r in seed_runs(s)] + bad_runs() + [large]


def _report(path: Path):
    if not path.exists():
        return None
    report = json.loads(path.read_text())
    report.pop("timings", None)
    for part in ("config", "results"):
        if isinstance(report.get(part), dict):
            for key in PATH_KEYS & report[part].keys():
                del report[part][key]
    return report


def replay(work: Path, run: Run, env: dict) -> dict:
    (work / "report.json").unlink(missing_ok=True)
    for name in run.writes:
        (work / name).unlink(missing_ok=True)
    stdin = open(work / run.stdin, "rb") if run.stdin else subprocess.DEVNULL
    try:
        proc = subprocess.run([sys.executable, "-m", "coreclust", *run.argv],
                              cwd=work, env=env, stdin=stdin,
                              capture_output=True, text=True, errors="replace")
    finally:
        if run.stdin:
            stdin.close()
    return {
        "name": run.name,
        "argv": run.argv,
        "exit": proc.returncode,
        "stdout": proc.stdout,
        "stderr": proc.stderr,
        "report": _report(work / "report.json"),
        "coreset_sha256": {
            name: hashlib.sha256((work / name).read_bytes()).hexdigest()
            for name in run.writes if (work / name).exists()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", type=Path, help="the tree's source directory")
    ap.add_argument("out", type=Path, help="JSON lines file to write")
    ap.add_argument("--quick", action="store_true",
                    help="only the runs on the 300-, 40- and 2,100-point "
                    "inputs")
    args = ap.parse_args(argv)
    src = args.src.resolve()
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    with tempfile.TemporaryDirectory(prefix="replay-") as tmp:
        work = Path(tmp)
        write_small_inputs(work)
        runs = quick_runs()
        if not args.quick:
            runs += benchmark_runs(work)
        with open(args.out, "w") as fh:
            for run in runs:
                fh.write(json.dumps(replay(work, run, env),
                                    sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
