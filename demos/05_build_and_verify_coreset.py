"""Building a strong coreset and checking it against every kind of query.

Pipeline: constant-factor anchors -> importance weights from anchor distances
-> weighted sample + anchor corrections.  The result is a small weighted set
whose cost matches the full data within eps at every center tuple.
"""

import numpy as np

from coreclust import PointSet, cost, metric_b_coreset, static_coreset
from coreclust.io import gaussian_mixture

n, k, eps = 2000, 3, 0.2
pts = gaussian_mixture(n, 2, k, seed=3)
P = PointSet(pts)

# one call: anchors, the sample size t, then the weighted sample
core, anchors = static_coreset(P, k, eps, 0.1, seed=0)
t = core.provenance["t"]

print(f"coreset: {len(core)} weighted points for {n} originals "
      f"(sample {t} + {k} anchors)")
print("weight sum:", round(core.total_weight, 6),
      "= inflation * n =", core.provenance["inflation"] * n)
print("min weight:", round(float(core.weights.min()), 3))

rng = np.random.default_rng(1)
worst = 0.0
for _ in range(300):
    x = pts[rng.choice(n, k, replace=False)]
    truec = cost(P, x)
    worst = max(worst, abs(truec - core.cost(x)) / truec)
print(f"max relative error over 300 random center tuples: {worst:.3f} "
      f"(target {eps})")

# the threshold variant keeps query-dependent weights instead of anchors:
# sampled points count only near their projection, projected copies far away
thr = metric_b_coreset(P, anchors.centers, t, eps, seed=0)
x = pts[rng.choice(n, k, replace=False)]
print("threshold-coreset relative error at one query:",
      round(abs(cost(P, x) - thr.cost(x)) / cost(P, x), 4))
