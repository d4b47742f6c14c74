"""Sample-size formulas, seeded sampling and epsilon-approximation verifiers.

Sample sizes follow the classic VC/PAC bound t = (c/eps^2) (dim + ln(1/delta))
with natural logarithms.  The constant c is configurable everywhere (the
theory only promises "sufficiently large"); acceptance runs calibrate it.

All randomness flows through numpy's default_rng (PCG64).  Identical inputs
and seed give bit-identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import InputError

U64_MAX = 2 ** 64 - 1


def check_seed(seed: int) -> int:
    seed = int(seed)
    if not 0 <= seed <= U64_MAX:
        raise InputError("seed must fit in an unsigned 64-bit integer")
    return seed


def rng_for(seed: int, *key: int) -> np.random.Generator:
    """Deterministic child generator for a subsystem (seed plus spawn key)."""
    return np.random.default_rng(np.random.SeedSequence(check_seed(seed), spawn_key=key))


def check_sample_constant(c) -> float:
    """The sample-size constant c: a finite c > 0."""
    c = float(c)
    if not math.isfinite(c) or c <= 0:
        raise InputError(f"sample-size constant c must be finite and > 0, got {c}")
    return c


def check_delta(delta) -> float:
    """The failure probability delta: 0 < delta < 1."""
    delta = float(delta)
    if not 0 < delta < 1:
        raise InputError(f"delta must lie in (0, 1), got {delta}")
    return delta


@dataclass(frozen=True)
class SampleParams:
    """Inputs to the epsilon-approximation sample-size bound."""

    eps: float
    delta: float
    dim: int
    c: float = 1.0

    def __post_init__(self):
        if not 0 < self.eps < 1:
            raise InputError(f"eps must lie in (0, 1), got {self.eps}")
        check_delta(self.delta)
        if self.dim < 1 or int(self.dim) != self.dim:
            raise InputError(f"dim must be a positive integer, got {self.dim}")
        check_sample_constant(self.c)


def eps_approx_sample_size(params: SampleParams) -> int:
    """Draws needed for an eps-approximation: ceil((c/eps^2)(dim + ln(1/delta)))."""
    t = (params.c / params.eps ** 2) * (params.dim + math.log(1.0 / params.delta))
    return int(math.ceil(t))


@dataclass
class VerificationReport:
    """Outcome of a brute-force guarantee check, replayable from params+seed."""

    kind: str
    passed: bool
    max_discrepancy: float | None = None
    argmax_x: int | None = None
    argmax_r: float | None = None
    params: dict = field(default_factory=dict)
    seed: int | None = None
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "max_discrepancy": self.max_discrepancy,
            "argmax_x": self.argmax_x,
            "argmax_r": self.argmax_r,
            "pass": self.passed,
            "params": self.params,
            "seed": self.seed,
            "details": self.details,
        }


def _as_value_table(values) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    if v.ndim == 1:
        v = v[:, None]
    if v.ndim != 2 or v.size == 0:
        raise InputError("need a nonempty (n_items, n_queries) value table")
    return v


def _check_sample(sample_idx, n: int) -> np.ndarray:
    """Nonempty sample indices, each in [0, n)."""
    sample_idx = np.asarray(sample_idx, dtype=np.intp)
    if sample_idx.size == 0:
        raise InputError("sample must be nonempty")
    if np.any(sample_idx < 0) or np.any(sample_idx >= n):
        raise InputError("sample indices out of range")
    return sample_idx


def _threshold_scan(kind, values, sample_idx, eps, params, seed, score,
                    below_min=False) -> VerificationReport:
    """Column j's thresholds r are its distinct values (counts and cost sums
    are step functions of r), after one below the minimum if `below_min`.
    score(j, r, col, sub, kf, ks) gets the sorted column and sample column
    and the counts of each at or below every r, and returns one discrepancy
    per r, NaN where r does not count.  The report holds the first maximum in
    (column, threshold) order, or 0 when no threshold counts."""
    v = _as_value_table(values)
    n, q = v.shape
    sample_idx = _check_sample(sample_idx, n)
    best = (-1.0, 0, 0.0)
    for j in range(q):
        col = np.sort(v[:, j])
        sub = np.sort(v[sample_idx, j])
        r = np.unique(col)
        if below_min:
            r = np.concatenate([[r[0] - 1.0], r])
        disc = score(j, r, col, sub, np.searchsorted(col, r, side="right"),
                     np.searchsorted(sub, r, side="right"))
        disc[np.isnan(disc)] = -1.0
        i = int(disc.argmax())
        if disc[i] > best[0]:
            best = (float(disc[i]), j, float(r[i]))
    max_disc = max(best[0], 0.0)
    return VerificationReport(
        kind=kind,
        passed=bool(max_disc <= eps + 1e-12),
        max_discrepancy=max_disc,
        argmax_x=best[1],
        argmax_r=best[2],
        params={"eps": eps, "n": n, "sample": sample_idx.size, **(params or {})},
        seed=seed,
    )


def verify_range_eps_approx(values, sample_idx, eps: float,
                            params: dict | None = None,
                            seed: int | None = None) -> VerificationReport:
    """Check the counting discrepancy of a subset against every range.

    `values` is an (n_items, n_queries) table of f(x); `sample_idx` indexes
    the subset S.  For every query column and every threshold r taken from the
    distinct values, the discrepancy | |range|/n - |S∩range|/|S| | is
    computed; the report carries the maximum and whether it is <= eps.
    """
    def score(j, r, col, sub, kf, ks):
        return np.abs(kf / len(col) - ks / len(sub))

    return _threshold_scan("range-eps-approx", values, sample_idx, eps, params,
                           seed, score, below_min=True)


def verify_function_eps_approx(values, sample_idx, eps: float,
                               params: dict | None = None,
                               seed: int | None = None) -> VerificationReport:
    """Check the r-normalized cost discrepancy of a subset on every range.

    Same threshold enumeration as the counting check, but the per-range
    quantity is | cost(range)/n - cost(S∩range)/|S| | / r.  Zero-radius ranges
    only ever hold zero-valued items, so both cost sums vanish there; such
    ranges are skipped (and flagged if the invariant were ever broken).
    """
    flagged = []

    def score(j, r, col, sub, kf, ks):
        cum_f = np.concatenate([[0.0], np.cumsum(col)])
        cum_s = np.concatenate([[0.0], np.cumsum(sub)])
        gap = np.abs(cum_f[kf] / len(col) - cum_s[ks] / len(sub))
        flagged.extend((j, float(x)) for x in r[(r <= 0) & (gap > 0)])
        return np.divide(gap, r, out=np.full(r.shape, np.nan), where=r > 0)

    rep = _threshold_scan("function-eps-approx", values, sample_idx, eps,
                          params, seed, score)
    rep.passed = rep.passed and not flagged
    rep.details = {"flagged_zero_ranges": flagged}
    return rep
