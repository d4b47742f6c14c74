"""End-to-end benchmark of the coreclust CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload build --seed 1 --seconds 20 --trace 0

One harness process runs the CLI as users do, one child process
(`python -m coreclust ...`, with `src/` on PYTHONPATH) per invocation, in a
closed loop with one client: each operation starts when the last one ended,
and operations repeat until `--seconds` have passed.  An operation is the
workload's fixed list of invocations plus the checks of their outputs.

`--trace 0` reports the end-to-end metrics of those child processes.
`--trace 1` runs the same invocations in-process through
`coreclust.cli.main(argv)`, once plain and once with the tracer installed,
and reports the per-layer metrics of the traced runs and the tracing
overhead.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_REPEATS = 3
# Fewest operations per end-to-end sample.  Single operations on a shared
# 2-core machine vary by up to +-30% (often in two modes), so a sample is the
# rate over a round of operations and the metric is the median of the samples.
ROUND_OPS = 3
CALL_TIMEOUT_S = 120.0   # a run must end within 180 s


# Set-up invocations use one BLAS thread, so that set-up time does not depend
# on how much of the second core the machine leaves free: with two, the
# `verify` set-up time rose 27% between two sets of ten runs while the
# single-threaded `verify` throughput fell 13%.  Measured invocations inherit
# the environment.
SETUP_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def child_env(extra: dict) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.update(extra)
    return env


def run_child(call: workloads.Call, cwd: Path,
              extra_env: dict | None = None) -> tuple[int, float, float, str]:
    """Run one invocation; return (exit code, wall s, peak RSS MB, stderr)."""
    err_path = cwd / "stderr.txt"
    stdin = open(call.stdin, "rb") if call.stdin else subprocess.DEVNULL
    try:
        with open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "coreclust", *call.argv], cwd=cwd,
                env=child_env(extra_env or {}), stdin=stdin, stdout=subprocess.DEVNULL,
                stderr=err)
            timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                # wait4 gives the rusage of this child alone
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if call.stdin:
            stdin.close()
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, err_path.read_text()


def run_inprocess(call: workloads.Call) -> tuple[int, float]:
    """Run one invocation through coreclust.cli.main; return (exit code, wall s).

    An exception escaping the CLI counts as exit code 1, as it would for a
    child process.
    """
    from coreclust import cli

    saved = sys.stdin
    stdin = open(call.stdin) if call.stdin else None
    try:
        if stdin:
            sys.stdin = stdin
        t0 = time.perf_counter()
        try:
            code = cli.main(list(call.argv))
        except Exception:
            traceback.print_exc()
            code = 1
        return code, time.perf_counter() - t0
    finally:
        sys.stdin = saved
        if stdin:
            stdin.close()


def clear_outputs(prep, calls) -> None:
    for path in workloads.outputs(prep, calls):
        path.unlink(missing_ok=True)


def setup(spec, seed: int, work: Path):
    """Prepare the run SETUP_REPEATS times; return the input sets, the median
    set-up time and the problems the set-up checks found.

    One set-up writes the inputs, computes the reference costs, starts the
    interpreter once with coreclust imported (so the measured loop does not
    pay first-import costs) and runs the set-up invocations.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        preps = workloads.prepare(spec, seed, work)
        run_checked(workloads.Call(["--version"]), work)
        for prep in preps:
            calls = workloads.setup_calls(prep)
            clear_outputs(prep, calls)
            for call in calls:
                run_checked(call, prep.work)
        times.append(time.perf_counter() - t0)
    problems = [p for prep in preps for p in workloads.check_setup(prep)]
    return preps, statistics.median(times), problems


def run_checked(call: workloads.Call, cwd: Path) -> None:
    code, _, _, err = run_child(call, cwd, SETUP_ENV)
    if code != 0:
        raise SystemExit(f"set-up invocation {call.argv[0]} exited {code}:\n{err}")


def rounds(preps, seconds: float):
    """Yield whole rounds until `seconds` have passed.  A round is one
    operation per input set, and at least ROUND_OPS operations."""
    round_ = [preps[i % len(preps)] for i in range(max(ROUND_OPS, len(preps)))]
    start = time.perf_counter()
    while True:
        yield round_
        if time.perf_counter() - start >= seconds:
            return


def measure(preps, seconds: float):
    """Untraced closed loop of child processes.

    One end-to-end sample per round: the rates over the round's operations
    that did not fail.
    """
    samples, problems, attempted, failed = [], [], 0, 0
    for round_ in rounds(preps, seconds):
        done = []   # (call, result) of the round's completed operations
        for prep in round_:
            attempted += 1
            calls = workloads.op_calls(prep)
            clear_outputs(prep, calls)
            results = [run_child(call, prep.work) for call in calls]
            bad = [(c, r) for c, r in zip(calls, results) if r[0] != 0]
            if bad:
                failed += 1
                for c, r in bad:
                    print(f"{c.argv[0]} exited {r[0]}:\n{r[3]}", file=sys.stderr)
                continue
            problems += workloads.check_op(prep)
            done += zip(calls, results)
        if done:
            answering = [(c, r) for c, r in done if c.queries]
            samples.append({
                "points_per_s": sum(c.points for c, _ in done)
                / sum(r[1] for _, r in done),
                "queries_per_s": sum(c.queries for c, _ in answering)
                / sum(r[1] for _, r in answering),
                "peak_rss_mb": max(r[2] for _, r in done),
            })
    return samples, problems, attempted, failed


def measure_traced(preps, seconds: float):
    """In-process loop: each operation plain, then traced; one per-layer
    sample per operation."""
    import coreclust.cli  # noqa: F401  (imports stay outside the timed calls)
    from tracer import Tracer

    samples, problems, attempted, failed, spans = [], [], 0, 0, []
    for prep in (p for round_ in rounds(preps, seconds) for p in round_):
        attempted += 1
        calls = workloads.op_calls(prep)
        clear_outputs(prep, calls)
        plain = [run_inprocess(call) for call in calls]
        clear_outputs(prep, calls)
        tracer = Tracer()
        tracer.install()
        try:
            traced = [run_inprocess(call) for call in calls]
        finally:
            tracer.uninstall()
        if any(code != 0 for code, _ in plain + traced):
            failed += 1
        else:
            problems += workloads.check_op(prep)
            blocks = stored = 0
            if prep.spec.name == "stream":
                final = workloads.read_json(
                    prep.path("stream_report.json"))["results"]["final"]
                blocks = final["points_seen"] // prep.spec.block_size
                stored = final["stored_points"]
            sample = tracer.layer_metrics(blocks, stored)
            sample["trace.overhead_s"] = (sum(w for _, w in traced)
                                          - sum(w for _, w in plain))
            samples.append(sample)
            spans.append(tracer.spans)
    with open(preps[0].work.parent / "spans.json", "w") as fh:
        json.dump({"fields": ["id", "parent", "name", "start", "end"],
                   "operations": spans}, fh)
    return samples, problems, attempted, failed


def environment() -> dict:
    import numpy

    threads = {k: os.environ.get(k) for k in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"nproc": len(os.sched_getaffinity(0)), "numpy": numpy.__version__,
            "python": sys.version.split()[0], **threads}


def load_spec(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception, so a running child is stopped too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not (SRC / "coreclust" / "cli.py").is_file():
        print(f"no coreclust sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    bench = load_spec(ROOT / "BENCHMARK.json")
    spec = workloads.SPECS[args.workload]
    work = HERE / "work" / args.workload
    preps, setup_s, problems = setup(spec, args.seed, work)
    if args.trace:
        samples, op_problems, attempted, failed = measure_traced(preps, args.seconds)
        wanted = bench["per_layer"]
    else:
        samples, op_problems, attempted, failed = measure(preps, args.seconds)
        wanted = bench["end_to_end"]
    problems += op_problems
    print(json.dumps({"environment": environment(), "setup_s": setup_s,
                      "samples": samples}), file=sys.stderr)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    if not samples:
        print("no operation completed", file=sys.stderr)
        return 1
    values = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    values["setup_s"] = setup_s
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
