"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Calibrated constants recorded by this suite:

* sample-size constant c = 1.0 (the eps-approximation and strong-coreset
  bounds at c = 1 pass every statistical bar below),
* anchor-correction inflation applied at eps/20 (factor 1 + eps/2),
* nonnegativity bound constant c = 4.0.
"""

import json
import math
import time

import numpy as np
import pytest

import coreclust as cc
from coreclust.bicriteria import metric_kmedian_bicriteria
from coreclust.cli import main
from coreclust.construction import (
    INFLATION_SCALE,
    NONNEG_C,
    b_coreset,
    k_median_coreset,
    metric_b_coreset,
    nonneg_sample_size,
    power_z_sample_size,
)
from coreclust.geometry import PointSet, cost, metric_from_points
from coreclust.io import gaussian_mixture
from coreclust.robust import (
    RobustParams,
    exhaustive_robust_median,
    metric_snap_median,
    verify_robust_median,
)
from coreclust.sampling import rng_for, verify_range_eps_approx
from coreclust.solvers import (
    brute_force_k_median,
    constant_factor_metric_kmedian,
    solve_on_coreset,
    strong_coreset_sample_size,
)
from coreclust.streaming import StreamState, stream_push, stream_query

CALIBRATED = {"sample_c": 1.0, "inflation_scale": INFLATION_SCALE,
              "nonneg_c": NONNEG_C}


def report(num, name, passed, budget_s, elapsed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {status} in {elapsed:.1f}s "
          f"(budget {budget_s}s) {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"
    assert elapsed < budget_s, f"criterion {num} exceeded its {budget_s}s budget"


def line_family(vals):
    vals = np.asarray(vals, dtype=float)
    return cc.FunctionFamily(size=len(vals),
                             evaluate=lambda x: np.abs(vals - x))


def test_criterion_1_exact_identity():
    t0 = time.time()
    rng = np.random.default_rng(11)
    # (a) identity collapse of the generic construction
    worst_rel = 0.0
    for _ in range(20):
        vals = rng.normal(scale=rng.uniform(0.5, 20), size=int(rng.integers(3, 40)))
        core = b_coreset(line_family(vals), eps=0.3)
        for x in rng.normal(scale=10, size=100):
            want = float(np.abs(vals - x).sum())
            got = core.cost(x)
            if want > 0:
                worst_rel = max(worst_rel, abs(want - got) / want)
    ok_a = worst_rel <= 1e-12

    # (b) weight-sum identity on every build
    ok_b = True
    for trial in range(25):
        n = int(rng.integers(10, 200))
        pts = rng.normal(size=(n, 2))
        P = PointSet(pts)
        B = pts[rng.choice(n, int(rng.integers(1, 5)), replace=False)]
        eps = float(rng.uniform(0.02, 0.6))
        core = k_median_coreset(P, B, t=int(rng.integers(1, 60)), eps=eps,
                                seed=trial)
        expected = core.provenance.get("inflation", 1.0) * n
        ok_b &= abs(core.total_weight - expected) <= 1e-9 * max(1.0, n)

    # (c) degenerate anchor-cover paths are exact
    ok_c = True
    for trial in range(10):
        base = rng.normal(size=(int(rng.integers(2, 6)), 2))
        reps = rng.integers(1, 5, size=len(base))
        pts = np.repeat(base, reps, axis=0)
        P = PointSet(pts)
        static = k_median_coreset(P, base, t=5, eps=0.2, seed=trial)
        thresh = metric_b_coreset(P, base, t=5, eps=0.2, seed=trial)
        for _ in range(20):
            x = rng.normal(scale=3, size=(2, 2))
            want = cost(P, x)
            ok_c &= abs(static.cost(x) - want) <= 1e-9 * max(1.0, want)
            ok_c &= abs(thresh.cost(x) - want) <= 1e-9 * max(1.0, want)

    report(1, "exact-identity", ok_a and ok_b and ok_c, 5, time.time() - t0,
           f"identity rel err {worst_rel:.2e}; weight-sum ok={ok_b}; "
           f"degenerate ok={ok_c}")


def _range_discrepancy_oracle(values, sample_idx):
    """Independent O(n^2)-per-query threshold scan."""
    values = np.atleast_2d(values.T).T
    n, q = values.shape
    s = len(sample_idx)
    worst = 0.0
    for j in range(q):
        col = values[:, j]
        sub = col[sample_idx]
        for r in np.concatenate([[col.min() - 1.0], np.unique(col)]):
            cf = float((col <= r).sum()) / n
            csub = float((sub <= r).sum()) / s
            worst = max(worst, abs(cf - csub))
    return worst


def test_criterion_2_eps_approx_oracle():
    t0 = time.time()
    rng = np.random.default_rng(22)
    agree = transfer = True
    for trial in range(50):
        n = int(rng.integers(8, 101))
        q = int(rng.integers(2, 6))
        pts = rng.uniform(0, 10, size=n)
        centers = rng.uniform(0, 10, size=q)
        values = np.abs(pts[:, None] - centers[None, :]) ** rng.choice([1.0, 2.0])
        size = int(rng.integers(2, n + 1))
        idx = rng.choice(n, size=size, replace=False)

        rep = verify_range_eps_approx(values, idx, eps=1.0)
        oracle = _range_discrepancy_oracle(values, idx)
        agree &= abs(rep.max_discrepancy - oracle) <= 1e-12

        func = cc.verify_function_eps_approx(values, idx, eps=1.0)
        transfer &= func.max_discrepancy <= \
            5.0 * max(rep.max_discrepancy, 1e-15) + 1e-9
    report(2, "eps-approx-oracle", agree and transfer, 30, time.time() - t0,
           f"oracle agreement={agree}; 5eps transfer={transfer}")


def test_criterion_3_robust_median():
    t0 = time.time()
    rng = np.random.default_rng(33)
    ok_exhaustive = True
    for trial in range(40):
        n = int(rng.integers(2, 16))
        pts = rng.normal(size=(n, 2))
        P = PointSet(pts)
        gamma = float(rng.uniform(0.3, 1.0))
        eps = float(rng.uniform(0.0, 0.4))
        res = exhaustive_robust_median(P, RobustParams(gamma, eps, 1.0),
                                       candidates=pts)
        rep = verify_robust_median(
            P, res.centers, RobustParams((1 - eps) * gamma, eps, 1.0, 1), pts)
        ok_exhaustive &= rep.passed

    ok_snap = True
    for seed in range(50):
        srng = np.random.default_rng(3300 + seed)
        n = int(srng.integers(4, 21))
        metric = metric_from_points(srng.normal(size=(n, 2)))
        P = PointSet(np.arange(n), metric=metric)
        sub = PointSet(np.sort(srng.choice(n, size=max(2, n // 2),
                                           replace=False)), metric=metric)
        res = metric_snap_median(sub)
        rep = verify_robust_median(
            sub, res.centers, RobustParams(0.75, 0.1, 2.0, len(sub)),
            candidates=P.points)
        ok_snap &= rep.passed
    report(3, "robust-median", ok_exhaustive and ok_snap, 60,
           time.time() - t0,
           f"exhaustive alpha=1 ok={ok_exhaustive}; snap alpha=2 ok={ok_snap}")


def test_criterion_4_bicriteria():
    t0 = time.time()
    eps, delta = 0.3, 0.1
    quality_hits, failures = 0, []
    for seed in range(50):
        srng = np.random.default_rng(4400 + seed)
        n = int(srng.integers(8, 26))
        k = int(srng.integers(1, 4))
        k = min(k, n)
        pts = gaussian_mixture(n, 2, k, 4400 + seed, spread=8.0)
        P = PointSet(pts)
        res = metric_kmedian_bicriteria(P, k, eps, delta, seed)

        consumed = np.zeros(n)
        for r in res.rounds:
            consumed[r.indices] += r.amounts
        assert np.allclose(consumed, 1.0), f"partition broken at seed {seed}"
        assert res.n_centers <= res.center_bound(), f"|B| bound at seed {seed}"

        opt = brute_force_k_median(P, k, candidates=pts).cost
        if res.total_cost <= (2 + eps) * opt + 1e-9:
            quality_hits += 1
        else:
            failures.append((seed, res.total_cost, opt))
    passed = quality_hits >= 45
    report(4, "bicriteria", passed, 300, time.time() - t0,
           f"quality {quality_hits}/50; failures={failures}")


def _strong_coreset_run(kind, seed, z, eps, n=1000, k=3):
    if kind == "metric":
        coords = gaussian_mixture(n, 2, k, seed + 9000)
        P = PointSet(np.arange(n), metric=metric_from_points(coords))
    else:
        d = 2 if kind == "euclid-2d" else 10
        P = PointSet(gaussian_mixture(n, d, k, seed + 9000))
    anchors = constant_factor_metric_kmedian(P, k, eps, 0.1, seed,
                                             c=CALIBRATED["sample_c"])
    if z == 1.0:
        t = strong_coreset_sample_size(n, k, eps, 0.1, P.metric, dim=P.dim,
                                       c=CALIBRATED["sample_c"])
        core = k_median_coreset(P, anchors.centers, t, eps, seed=seed)
    else:
        dim = (int(math.ceil(k * math.log(n))) if not P.metric.is_euclidean
               else int(math.ceil(k * min(P.dim, 1 + math.log(k)))))
        t = power_z_sample_size(eps, z, dim=dim, k=k, delta=0.1,
                                c=CALIBRATED["sample_c"])
        core = k_median_coreset(P, anchors.centers, t, eps, z=z, seed=seed)
    rng = rng_for(seed, 77)
    worst = 0.0
    for _ in range(200):
        x = P.points[np.sort(rng.choice(n, k, replace=False))]
        truec = cost(P, x, z=z)
        worst = max(worst, abs(truec - core.cost(x)) / truec)
    x = anchors.centers   # optimum-adjacent probe
    truec = cost(P, x, z=z)
    worst = max(worst, abs(truec - core.cost(x)) / truec)
    return worst, core


def test_criterion_5_strong_coreset():
    t0 = time.time()
    eps, k, n = 0.2, 3, 1000
    kinds = ["metric"] * 10 + ["euclid-2d"] * 10 + ["euclid-10d"] * 10
    hits, errs = 0, []
    for seed, kind in enumerate(kinds):
        worst, _ = _strong_coreset_run(kind, seed, z=1.0, eps=eps)
        errs.append(round(worst, 3))
        hits += worst <= eps

    # nonnegativity whenever t meets the calibrated bound
    nonneg_ok = True
    t_bound = nonneg_sample_size(k, eps, 0.1, c=CALIBRATED["nonneg_c"])
    for seed in range(30):
        pts = gaussian_mixture(n, 2, k, seed + 12000)
        P = PointSet(pts)
        anchors = constant_factor_metric_kmedian(P, k, eps, 0.1, seed)
        core = k_median_coreset(P, anchors.centers, t_bound, eps, seed=seed)
        nonneg_ok &= float(core.weights.min()) >= 0.0
    passed = hits >= 27 and nonneg_ok
    report(5, "strong-coreset", passed, 600, time.time() - t0,
           f"error hits {hits}/30 (max={max(errs)}); nonneg@t>={t_bound} "
           f"100%={nonneg_ok}; calibrated={CALIBRATED}")


def test_criterion_6_power_z():
    t0 = time.time()
    eps = 0.2
    kinds = ["metric"] * 10 + ["euclid-2d"] * 10 + ["euclid-10d"] * 10
    hits, errs = 0, []
    for seed, kind in enumerate(kinds):
        worst, _ = _strong_coreset_run(kind, seed, z=2.0, eps=eps)
        errs.append(round(worst, 3))
        hits += worst <= 0.25
    passed = hits >= math.ceil(0.85 * 30)
    report(6, "power-z", passed, 600, time.time() - t0,
           f"error hits {hits}/30 (max={max(errs)})")


def test_criterion_7_solvers():
    t0 = time.time()
    eps = 0.2
    ok_coreset = ok_cf = True
    worst_ratio = worst_cf = 0.0
    for seed in range(50):
        srng = np.random.default_rng(7700 + seed)
        n = int(srng.integers(6, 21))
        k = int(srng.integers(1, 3))
        pts = gaussian_mixture(n, 2, k, 7700 + seed, spread=6.0)
        P = PointSet(pts)
        opt = brute_force_k_median(P, k, candidates=pts).cost

        res, _ = solve_on_coreset(P, k, eps, seed)
        if opt > 0:
            worst_ratio = max(worst_ratio, res.cost / opt)
            ok_coreset &= res.cost <= (1 + 3 * eps) * opt + 1e-9
        else:
            ok_coreset &= res.cost <= 1e-9

        cf = constant_factor_metric_kmedian(P, k, eps, 0.1, seed)
        if opt > 0:
            worst_cf = max(worst_cf, cf.cost / opt)
            ok_cf &= cf.cost <= 10.0 * opt + 1e-9
        else:
            ok_cf &= cf.cost <= 1e-9
    report(7, "solvers", ok_coreset and ok_cf, 300, time.time() - t0,
           f"coreset-solve worst ratio {worst_ratio:.3f} (bar 1.6); "
           f"constant-factor worst {worst_cf:.3f} (bar 10)")


def test_criterion_8_streaming():
    t0 = time.time()
    n, block, eps_bar = 4096, 256, 0.3
    counter_ok = space_ok = True
    hits = 0
    for seed in range(20):
        pts = gaussian_mixture(n, 2, 2, 8800 + seed)
        state = StreamState(k=2, eps_bar=eps_bar, seed=seed, block_size=block)
        for i, p in enumerate(pts, start=1):
            stream_push(state, p)
            if i % block == 0:
                blocks = i // block
                want = [lvl for lvl in range(blocks.bit_length())
                        if blocks >> lvl & 1]
                counter_ok &= state.levels == want
            levels = max(state.levels, default=0)
            space_ok &= state.stored_points <= block * (levels + 2)
        P = PointSet(pts)
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(25):
            x = pts[rng.choice(n, 2, replace=False)]
            batch = cost(P, x)
            worst = max(worst, abs(stream_query(state, x) - batch) / batch)
        hits += worst <= 0.5
    passed = counter_ok and space_ok and hits >= math.ceil(0.85 * 20)
    report(8, "streaming", passed, 300, time.time() - t0,
           f"counter law={counter_ok}; space bound={space_ok}; "
           f"accuracy hits {hits}/20")


def _run_twice(args, tmp_path, tag):
    outs = []
    for run in (1, 2):
        out = tmp_path / f"{tag}-{run}.json"
        extra = list(args)
        if "--coreset-out" in extra:
            i = extra.index("--coreset-out")
            extra[i + 1] = str(tmp_path / f"{tag}-core-{run}.json")
        code = main(extra + ["--out", str(out)])
        assert code == 0, f"{tag} run {run} exited {code}"
        with open(out) as fh:
            rep = json.load(fh)
        rep.pop("timings", None)
        for key in ("coreset_file",):
            rep.get("results", {}).pop(key, None)
        rep.get("config", {}).pop("coreset_out", None)
        outs.append(json.dumps(rep, sort_keys=True))
    return outs[0] == outs[1]


def test_criterion_9_determinism(tmp_path):
    t0 = time.time()
    pts = gaussian_mixture(80, 2, 2, seed=99)
    data = tmp_path / "pts.csv"
    np.savetxt(data, pts, delimiter=",")
    core_path = tmp_path / "core.json"
    assert main(["build-coreset", "--input", str(data), "--k", "2", "--eps",
                 "0.3", "--seed", "5", "--coreset-out", str(core_path)]) == 0

    checks = {
        "build-coreset": ["build-coreset", "--input", str(data), "--k", "2",
                          "--eps", "0.3", "--seed", "5",
                          "--coreset-out", str(core_path)],
        "bicriteria": ["bicriteria", "--input", str(data), "--k", "2",
                       "--eps", "0.3", "--seed", "5"],
        "solve-brute": ["solve", "--input", str(data), "--k", "2",
                        "--method", "brute", "--seed", "5"],
        "solve-local": ["solve", "--input", str(data), "--k", "2",
                        "--method", "local", "--seed", "5"],
        "solve-cf": ["solve", "--input", str(data), "--k", "2",
                     "--method", "constant-factor", "--seed", "5"],
        "solve-coreset": ["solve", "--input", str(data), "--k", "2",
                          "--method", "coreset", "--seed", "5"],
        "verify": ["verify", "--coreset", str(core_path), "--input",
                   str(data), "--seed", "5", "--queries", "30"],
        "bench": ["bench", "--n-grid", "60", "--k-grid", "2", "--eps-grid",
                  "0.3", "--seed", "5", "--queries", "15"],
    }
    stream_src = tmp_path / "stream.csv"
    np.savetxt(stream_src, gaussian_mixture(256, 2, 2, seed=98), delimiter=",")
    checks["stream"] = ["stream", "--input", str(stream_src), "--k", "2",
                        "--eps", "0.4", "--block-size", "64", "--seed", "5"]

    bad = [tag for tag, args in checks.items()
           if not _run_twice(args, tmp_path, tag)]
    report(9, "determinism", not bad, 300, time.time() - t0,
           f"non-replayable commands: {bad or 'none'}")
