"""Coreset constructions: the generic two-part builder and its k-median forms.

Every construction here splits the input into a thresholded "projected" part
and an importance-sampled part:

* the generic builder works over an abstract indexed function family with a
  paired family, per-item thresholds and integer importance weights;
* the metric threshold coreset keeps query-dependent weights (a sampled point
  counts only while its projection stays within its threshold, the projected
  copy only once it leaves);
* the k-median coreset collapses everything to static weights by adding the
  anchor centers themselves with a correction weight per cluster.

Importance weights follow m_p = ceil(n * dist^z(p,B) / sum dist^z) + 1; the
static construction's cluster correction inflates each cluster's mass by
(1 + eps/2), which bounds the deliberate upward cost bias by eps/2.  The
corrections stay nonnegative w.h.p. only from nonneg_sample_size draws on
(3,360 at |B| = 3, eps = 0.2, delta = 0.1); the default t is far below that
(strong_coreset_sample_size: 208 at n = 6,000, d = 2, k = 3, eps = 0.2), and
there a static coreset often holds a negative anchor weight.  Measured with
static_coreset at those defaults on the 90 input sets of perfbench's
`build` workload at seeds 100-114 (six sets each): 42 of 90 coresets hold one or two
negative weights, from -2.4 to -377.5; on gaussian_mixture(6000, 2, 3, s)
with seed s for s = 100..111, 6 of 12 do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .geometry import (
    InputError,
    Metric,
    check_centers,
    check_power,
    coerce_weighted,
    cost,
    cost_walk,
    nearest_center,
    nearest_own_center,
    weighted_sum,
)
from .sampling import rng_for

# The anchor correction inflates cluster masses by (1 + 10 * eps/INFLATION_SCALE).
# The 10x inflation constant exists only to keep corrections nonnegative; applied
# at the public eps it would add a systematic +eps*cost(proj) bias that alone
# busts the eps error budget, so it runs at eps/20 (factor 1 + eps/2, measured
# bias ~eps/2 worst case, nonnegativity restored through the sample-size bound).
INFLATION_SCALE = 20.0

# Calibrated constant for the nonnegativity sample bound (measured: 30/30 clean
# runs at n=1000, k=3, eps=0.2 need c=4 under the (1 + eps/2) inflation).
NONNEG_C = 4.0

# The most draws a builder takes, already 16 GiB of drawn indices: a larger t
# is refused (check_sample_args) before anything is allocated.
MAX_DRAWS = 2 ** 31 - 1


def nonneg_sample_size(n_anchors: int, eps: float, delta: float,
                       c: float = NONNEG_C) -> int:
    """Draws above which every anchor correction stays nonnegative w.h.p.:
    ceil((2 c |B| / eps^2)(3 ln |B| + ln(1/delta)))."""
    t = (2.0 * c * n_anchors / eps ** 2) * \
        (3.0 * math.log(max(n_anchors, 2)) + math.log(1.0 / delta))
    return int(math.ceil(t))


# ---------------------------------------------------------------------------
# generic two-part construction over an abstract function family
# ---------------------------------------------------------------------------

@dataclass
class FunctionFamily:
    """Indexed nonnegative functions with a paired family and thresholds.

    evaluate(x) -> (n,) values of f(x); paired(x) -> f'(x) (defaults to f);
    threshold(x) -> s_f(x) (defaults to +inf, meaning "never project");
    m -> integer importance weight per item, all >= 1.
    """

    size: int
    evaluate: Callable[[object], np.ndarray]
    paired: Callable[[object], np.ndarray] | None = None
    threshold: Callable[[object], np.ndarray] | None = None
    m: np.ndarray | None = None

    def __post_init__(self):
        if self.m is None:
            self.m = np.ones(self.size, dtype=np.int64)
        self.m = np.asarray(self.m)
        if not np.issubdtype(self.m.dtype, np.integer):
            raise InputError("importance weights m must be integers")
        if self.m.shape != (self.size,) or np.any(self.m < 1):
            raise InputError("importance weights m must be >= 1, one per item")

    def f(self, x) -> np.ndarray:
        return np.asarray(self.evaluate(x), dtype=float)

    def f_paired(self, x) -> np.ndarray:
        if self.paired is None:
            return self.f(x)
        return np.asarray(self.paired(x), dtype=float)

    def s(self, x) -> np.ndarray:
        if self.threshold is None:
            return np.full(self.size, np.inf)
        return np.asarray(self.threshold(x), dtype=float)


@dataclass
class BCoreset:
    """Evaluable two-part coreset: thresholded pairs plus a scaled sample."""

    family: FunctionFamily
    sample: np.ndarray       # drawn item indices, repetitions allowed
    g_total: int             # sum of importance weights |G|

    def cost(self, x) -> float:
        fp = self.family.f_paired(x)
        s = self.family.s(x)
        over = fp > s
        t_part = float(fp[over].sum())
        if self.sample.size:
            # per-item draw counts: item f weighs count_f |G| / (m_f |S|), which
            # is exactly 1 under the identity sample, so no rounding of tiny
            # f / m_f can creep into the exact collapse
            count = np.bincount(self.sample, minlength=self.family.size)
            keep = (count > 0) & ~over
            w = (count[keep] * self.g_total) / (self.family.m[keep] * self.sample.size)
            u_part = float((self.family.f(x)[keep] * w).sum())
        else:
            u_part = 0.0
        return t_part + u_part


def identity_approximation(family: FunctionFamily, rng=None) -> np.ndarray:
    """The exact eps-approximation S = G: every item m_f times."""
    return np.repeat(np.arange(family.size), family.m)


def b_coreset(family: FunctionFamily, eps: float,
              eps_approx: Callable | None = None,
              seed: int | None = None) -> BCoreset:
    """Split the family into thresholded pairs plus a scaled sample.

    eps_approx(family, rng) must return drawn item indices forming an
    eps-approximation of the m-weighted family; the default takes everything
    (the exact identity), under which the coreset cost reproduces cost(F, x)
    exactly for all x.
    """
    rng = None if seed is None else rng_for(seed, 2)
    routine = eps_approx or identity_approximation
    sample = np.asarray(routine(family, rng), dtype=np.intp)
    return BCoreset(family=family, sample=sample, g_total=int(family.m.sum()))


def weighted_family_sampler(t: int) -> Callable:
    """eps-approximation routine: t draws with probability m_f / sum(m)."""

    def routine(family: FunctionFamily, rng) -> np.ndarray:
        if rng is None:
            raise InputError("sampling routine needs a seed")
        p = family.m / family.m.sum()
        return rng.choice(family.size, size=t, replace=True, p=p)

    return routine


def metric_function_family(P, B, eps: float, z: float = 1.0) -> FunctionFamily:
    """Distance family with projection pairing and distance thresholds.

    f_p(x) = dist^z(p, x), f'_p(x) = dist^z(proj(p,B), x); an item projects
    once f' exceeds projection_threshold's tau_p, as in metric_b_coreset.
    """
    z, points, weights, metric, Bc, idx, dzB, degenerate = _nearest_anchor(
        P, B, None, eps, z)
    if np.any(weights != 1.0):
        raise InputError("function families require unit-multiplicity inputs")
    if degenerate:
        raise InputError("degenerate family: every point lies on a center of B")
    m, _, _ = _importance_weights(weights, dzB)
    tau = projection_threshold(dzB, eps, z)
    proj_pts = Bc[idx]
    return FunctionFamily(
        size=len(points), m=m, threshold=lambda _x: tau,
        evaluate=lambda x: nearest_center(metric, points, x, z)[1],
        paired=lambda x: nearest_center(metric, proj_pts, x, z)[1])


# ---------------------------------------------------------------------------
# concrete coresets over points
# ---------------------------------------------------------------------------

@dataclass
class StaticCoreset:
    """Weighted points with static (query-independent) weights."""

    points: np.ndarray
    weights: np.ndarray
    metric: Metric
    z: float = 1.0
    eps: float | None = None
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.shape != (len(self.points),):
            raise InputError("one weight per coreset point required")

    def __len__(self) -> int:
        return len(self.points)

    @property
    def total_weight(self) -> float:
        # weights that sum past float64 give -inf or inf, which reports spell
        with np.errstate(over="ignore"):
            return float(self.weights.sum())

    @cached_property
    def _walk(self):
        """The coreset's prepared cost walk (geometry.cost_walk), made on
        the first query and kept, an |S| x d copy, for the coreset's
        lifetime: its points, weights, metric and z are not changed after."""
        return cost_walk(self, self.z)

    def cost(self, centers) -> float:
        return float(self._walk([centers])[0])


@dataclass
class ThresholdCoreset:
    """Sampled points plus projected copies with query-dependent activation.

    A sampled point contributes w * dist^z(p, x) while its projection stays
    within tau_p of the query; each projected copy contributes dist^z(p', x)
    once it exceeds its tau_p.  Projected copies are compressed per distinct
    projection target as sorted thresholds with cumulative masses.
    """

    sampled_points: np.ndarray
    sampled_weights: np.ndarray
    sampled_tau: np.ndarray
    sampled_center: np.ndarray       # row into proj_points per sampled point
    proj_points: np.ndarray          # distinct projection targets
    proj_tau: list[np.ndarray]       # sorted thresholds per target
    proj_cum_mass: list[np.ndarray]  # cumulative mass, len = len(tau) + 1
    metric: Metric
    z: float = 1.0
    eps: float | None = None
    provenance: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.sampled_points) + sum(len(t) for t in self.proj_tau)

    @cached_property
    def _threshold_keys(self):
        """Every target's thresholds in one sorted array, tau of target j as
        the complex key j + tau i (numpy orders complex numbers by their real
        part, then their imaginary part), and the cumulative masses
        concatenated, target j's from index (its first key) + j."""
        lens = [len(t) for t in self.proj_tau]
        keys = np.empty(sum(lens), dtype=complex)
        keys.real = np.repeat(np.arange(len(lens)), lens)
        keys.imag = np.concatenate(self.proj_tau)
        return keys, np.concatenate(self.proj_cum_mass)

    def cost(self, centers) -> float:
        _, dzc = nearest_center(self.metric, self.proj_points, centers, self.z)
        total = 0.0
        active = dzc[self.sampled_center] <= self.sampled_tau
        if np.any(active):
            total += cost((self.sampled_points[active], self.sampled_weights[active],
                           self.metric), centers, self.z)
        # copies with tau strictly below dist^z(p', x) are active: one search
        # finds, for every target j, its first key not below j + d_j i
        keys, cum = self._threshold_keys
        query = np.empty(len(dzc), dtype=complex)
        query.real, query.imag = np.arange(len(dzc)), dzc
        at = np.searchsorted(keys, query, side="left") + np.arange(len(dzc))
        mass = cum[at]
        return total + float(weighted_sum(dzc, mass))


def check_sample_args(t: int | None, eps: float) -> None:
    """The builders' 0 < eps < 1 and, when t is given, 1 <= t <= MAX_DRAWS."""
    if not 0 < eps < 1:
        raise InputError(f"eps must lie in (0, 1), got {eps}")
    if t is not None and t < 1:
        raise InputError("sample size t must be >= 1")
    if t is not None and t > MAX_DRAWS:
        raise InputError(f"sample size t = {t} exceeds {MAX_DRAWS} draws")


def _nearest_anchor(P, B, t: int | None, eps: float, z: float):
    """Every builder's input, checked (z, eps, t unless None, the anchors), and
    anchor pass: (z, points, weights, metric, anchors, idx, d^z, degenerate)."""
    z = check_power(z)
    check_sample_args(t, eps)
    points, weights, metric = coerce_weighted(P)
    Bc = check_centers(metric, B)
    idx, dzB = nearest_own_center(metric, points, Bc, z)
    degenerate = float(weighted_sum(dzB, np.abs(weights))) <= 0.0
    return z, points, weights, metric, Bc, idx, dzB, degenerate


def projection_threshold(dzB: np.ndarray, eps: float, z: float) -> np.ndarray:
    """tau_p = d^z(p, B) / eps^z.  Once d^z(p', x) > tau_p, the copy p' =
    proj(p, B) has d(p, p') < eps d(p', x), so by the triangle inequality
    (1 + eps)^-z d^z(p, x) < d^z(p', x) < (1 - eps)^-z d^z(p, x)."""
    return dzB / eps ** z


def _importance_weights(weights: np.ndarray, dzB: np.ndarray):
    """Importance weights m_p = ceil(W d^z / sum w d^z) + 1 and their mass.

    Signed inputs (merge-and-reduce feeds coresets whose anchor corrections
    may be negative) contribute their absolute mass to the sampling measure;
    the sign rides along on the drawn weight.
    """
    aw = np.abs(weights)
    total = float(weighted_sum(dzB, aw))
    W = float(aw.sum())
    m = np.ceil(W * dzB / total - 1e-12).astype(np.int64) + 1
    mass = aw * m
    return m, mass, total


def _importance_sample(weights, dzB, t: int, seed, draws, stream: int):
    """t seeded importance draws (unless draws are given) and their weights
    sum(mass) / (m_p t), signed like the drawn input weights."""
    m, mass, _ = _importance_weights(weights, dzB)
    if draws is None:
        if seed is None:
            raise InputError("seed required for the sampling path")
        draws = rng_for(seed, stream).choice(len(mass), size=t, replace=True,
                                             p=mass / mass.sum())
    draws = np.asarray(draws, dtype=np.intp)
    return draws, np.sign(weights[draws]) * mass.sum() / (m[draws] * len(draws))


def k_median_coreset(P, B, t: int, eps: float, z: float = 1.0,
                     seed: int | None = None) -> StaticCoreset:
    """Static coreset: importance sample plus anchor centers with corrections.

    Cluster the input by nearest anchor in B, importance-sample t points, give
    each draw weight sum(mass)/(m_p t), and give each anchor the inflated
    cluster mass minus the sampled weight landing in its cluster.  The weight
    total is exactly inflation * n every run (inflation = 1 + eps/2, recorded
    in the provenance).  When every point sits on an anchor the exact
    compressed coreset (anchors with cluster masses) is returned instead.
    Anchor distances enter at power z everywhere, so this one builder serves
    every z >= 1 (power_z_sample_size gives a t for z > 1).
    """
    z, points, weights, metric, Bc, idx, dzB, degenerate = _nearest_anchor(
        P, B, t, eps, z)
    n_anchors = len(Bc)
    cluster_mass = np.bincount(idx, weights=weights, minlength=n_anchors)

    prov = {"seed": seed, "t": t, "eps": eps, "z": z, "anchors": int(n_anchors)}
    if degenerate:
        prov["degenerate"] = True
        return StaticCoreset(points=Bc, weights=cluster_mass, metric=metric,
                             z=z, eps=eps, provenance=prov)

    draws, w_sample = _importance_sample(weights, dzB, t, seed, None, 3)

    inflation = 1.0 + 10.0 * (eps / INFLATION_SCALE)
    w_anchor = inflation * cluster_mass - np.bincount(
        idx[draws], weights=w_sample, minlength=n_anchors)

    pts = np.concatenate([points[draws], Bc])
    w = np.concatenate([w_sample, w_anchor])
    prov["inflation"] = inflation
    return StaticCoreset(points=pts, weights=w, metric=metric, z=z, eps=eps,
                         provenance=prov)


def metric_b_coreset(P, B, t: int, eps: float, z: float = 1.0,
                     seed: int | None = None, draws=None) -> ThresholdCoreset:
    """Threshold coreset: importance sample plus all projected copies.

    Thresholds are projection_threshold's, at the public eps.  When every
    point sits on an anchor the construction is exact: no sample, all
    projected copies with tau = 0 (a zero threshold never miscounts because a
    copy at distance zero contributes nothing either way).
    """
    z, points, weights, metric, Bc, idx, dzB, degenerate = _nearest_anchor(
        P, B, t, eps, z)
    prov = {"seed": seed, "t": t, "eps": eps, "z": z}

    if degenerate:
        prov["degenerate"] = True
        tau = np.zeros(len(points))
        s_draws, w_sample = np.empty(0, dtype=np.intp), np.empty(0)
    else:
        tau = projection_threshold(dzB, eps, z)
        s_draws, w_sample = _importance_sample(weights, dzB, t, seed, draws, 4)

    # one stable sort by (anchor, tau); each used anchor is one run of it
    order = np.lexsort((tau, idx))
    tau_s, w_s = tau[order], weights[order]
    runs = np.flatnonzero(np.diff(idx[order], prepend=-1, append=-1))
    used = idx[order][runs[:-1]]
    bounds = list(zip(runs[:-1], runs[1:]))
    proj_tau = [tau_s[a:b] for a, b in bounds]
    proj_cum = [np.concatenate([[0.0], np.cumsum(w_s[a:b])]) for a, b in bounds]

    return ThresholdCoreset(
        sampled_points=points[s_draws],
        sampled_weights=np.asarray(w_sample, dtype=float),
        sampled_tau=tau[s_draws],
        sampled_center=np.searchsorted(used, idx[s_draws]),
        proj_points=Bc[used],
        proj_tau=proj_tau,
        proj_cum_mass=proj_cum,
        metric=metric, z=z, eps=eps, provenance=prov)


def power_z_sample_size(eps: float, z: float, dim: int, k: int,
                        delta: float, c: float = 1.0) -> int:
    """Sample size for powered distances: eps enters as eps^(2z)."""
    z = check_power(z)
    t = (c / eps ** (2 * z)) * (dim + k * math.log(max(k, 2)) + math.log(1 / delta))
    return int(math.ceil(t))
