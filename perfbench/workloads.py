"""The four workloads: their inputs, their CLI invocations and their checks.

Inputs are seeded Gaussian mixtures, generated here with the recipe of
`coreclust.io.gaussian_mixture` so that the program receives only the files.
Every file is written with 17 significant digits, so the coordinates the
benchmark checks against are exactly the ones the CLI reads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks


@dataclass(frozen=True)
class Spec:
    name: str
    n: int                 # input points (metric: size of the matrix)
    d: int                 # dimension of the mixture coordinates
    k: int
    eps: float
    queries: int = 0       # `verify --queries`; 0 when the workload runs no verify
    block_size: int = 0    # `stream --block-size`; stream only
    variants: int = 1      # input sets per run, one operation each per round
    audit_eps: float = 0.0 # `verify --eps`, the audit tolerance; 0 audits at eps


SPECS = {
    # at eps itself the worst of 400 audited queries came within 1% of eps on
    # one of 45 input sets, so `build` audits its coreset at 2 eps
    "build": Spec("build", n=6_000, d=2, k=3, eps=0.2, queries=400, variants=6,
                  audit_eps=0.4),
    "stream": Spec("stream", n=10_000, d=2, k=3, eps=0.2, block_size=531),
    "verify": Spec("verify", n=5_000, d=16, k=5, eps=0.3, queries=400),
    "metric": Spec("metric", n=500, d=2, k=3, eps=0.2, queries=1000),
}
WORKLOAD_KEY = {name: i for i, name in enumerate(SPECS)}
CHECK_QUERIES = 8          # seeded k-center queries of the benchmark's own checks


@dataclass(frozen=True)
class Call:
    """One CLI invocation: arguments after `python -m coreclust`."""

    argv: list
    stdin: Path | None = None
    points: int = 0        # input points the invocation consumes
    queries: int = 0       # cost queries it answers


@dataclass
class Prepared:
    """One input set of a run, in its own directory."""

    spec: Spec
    seed: int                     # mixture seed, also passed to the CLI
    work: Path
    D: np.ndarray | None          # explicit metric (metric workload)
    reference: list               # (query centers, true cost) pairs
    stream_true: float | None     # true cost at the stream query file

    def path(self, name: str) -> Path:
        return self.work / name


def gaussian_mixture(n: int, d: int, k: int, seed: int, spread: float = 6.0,
                     sigma: float = 1.0) -> np.ndarray:
    """The recipe of coreclust.io.gaussian_mixture: k spherical clusters."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-spread, spread, size=(k, d))
    labels = rng.integers(0, k, size=n)
    return centers[labels] + sigma * rng.normal(size=(n, d))


def write_csv(path: Path, arr: np.ndarray) -> None:
    np.savetxt(path, arr, delimiter=",", fmt="%.17g")


def distance_matrix(X: np.ndarray) -> np.ndarray:
    """Exactly symmetric Euclidean distances with a zero diagonal."""
    D = np.empty((len(X), len(X)))
    for i, x in enumerate(X):
        D[i] = np.sqrt(((X - x) ** 2).sum(axis=1))
    return D


def prepare(spec: Spec, seed: int, work: Path) -> list[Prepared]:
    """Generate and write every input set of a run with its reference costs."""
    key = WORKLOAD_KEY[spec.name]
    return [_prepare_one(spec, int(np.random.SeedSequence([seed, key, v])
                                   .generate_state(1)[0]), work / f"v{v}")
            for v in range(spec.variants)]


def _prepare_one(spec: Spec, seed: int, work: Path) -> Prepared:
    work.mkdir(parents=True, exist_ok=True)
    X = gaussian_mixture(spec.n, spec.d, spec.k, seed)
    write_csv(work / "data.csv", X)
    rng = np.random.default_rng([seed, 1])
    picks = [np.sort(rng.choice(spec.n, size=spec.k, replace=False))
             for _ in range(CHECK_QUERIES)]
    D = None
    if spec.name == "metric":
        D = distance_matrix(X)
        write_csv(work / "matrix.csv", D)
        reference = [(ids, checks.matrix_cost(D, np.arange(spec.n), ids))
                     for ids in picks]
    else:
        reference = [(X[ids], checks.euclid_cost(X, X[ids])) for ids in picks]
    stream_true = None
    if spec.name == "stream":
        query, stream_true = reference[0]
        write_csv(work / "query.csv", query)
    return Prepared(spec, seed, work, D, reference, stream_true)


def _build_call(p: Prepared) -> Call:
    s = p.spec
    argv = ["build-coreset", "--input", str(p.path("data.csv")),
            "--k", str(s.k), "--eps", str(s.eps), "--seed", str(p.seed),
            "--coreset-out", str(p.path("coreset.json")),
            "--out", str(p.path("build_report.json"))]
    if p.D is not None:
        argv += ["--metric", str(p.path("matrix.csv"))]
    return Call(argv, points=s.n)


def _verify_call(p: Prepared) -> Call:
    s = p.spec
    argv = ["verify", "--input", str(p.path("data.csv")),
            "--coreset", str(p.path("coreset.json")), "--seed", str(p.seed),
            "--queries", str(s.queries),
            "--out", str(p.path("verify_report.json"))]
    if s.audit_eps:
        argv += ["--eps", str(s.audit_eps)]
    if p.D is not None:
        argv += ["--metric", str(p.path("matrix.csv"))]
    return Call(argv, points=s.n, queries=s.queries)


def setup_calls(p: Prepared) -> list[Call]:
    """Invocations that belong to set-up: the coreset `verify` audits."""
    return [_build_call(p)] if p.spec.name == "verify" else []


def op_calls(p: Prepared) -> list[Call]:
    """The invocations of one operation, in order."""
    s = p.spec
    if s.name == "stream":
        argv = ["stream", "--k", str(s.k), "--eps", str(s.eps),
                "--seed", str(p.seed), "--block-size", str(s.block_size),
                "--query-file", str(p.path("query.csv")),
                "--out", str(p.path("stream_report.json"))]
        return [Call(argv, stdin=p.path("data.csv"), points=s.n, queries=1)]
    if s.name == "verify":
        return [_verify_call(p)]
    return [_build_call(p), _verify_call(p)]


def outputs(p: Prepared, calls: list[Call]) -> list[Path]:
    """Files the invocations write, removed before each operation."""
    out = []
    for c in calls:
        for flag in ("--out", "--coreset-out"):
            if flag in c.argv:
                out.append(Path(c.argv[c.argv.index(flag) + 1]))
    return out


def read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def check_coreset(p: Prepared) -> list[str]:
    return checks.coreset_problems(read_json(p.path("coreset.json")), p.spec.n,
                                   p.spec.eps, p.reference, p.D)


def check_setup(p: Prepared) -> list[str]:
    return check_coreset(p) if p.spec.name == "verify" else []


def check_op(p: Prepared) -> list[str]:
    """Problems in the outputs of the operation just run."""
    s = p.spec
    if s.name == "stream":
        return checks.stream_problems(read_json(p.path("stream_report.json")),
                                      s.n, s.block_size, s.eps, p.stream_true)
    problems = checks.verify_problems(read_json(p.path("verify_report.json")),
                                      s.n, s.eps, s.audit_eps or s.eps, s.queries)
    if s.name != "verify":
        problems += check_coreset(p)
    return problems
