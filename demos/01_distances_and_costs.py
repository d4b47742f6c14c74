"""Distances, powered costs and nearest-center assignment.

The whole library runs on one substrate: points (Euclidean coordinates or ids
into an explicit distance matrix), center sets, and the powered cost
sum_p w_p * min_c dist(p, c)^z.  This script walks through the basic moves.
"""

import numpy as np

from coreclust import (
    PointSet,
    cost,
    dist_pow,
    metric_from_points,
    partition_by_nearest,
    project,
)

# --- Euclidean mode ---------------------------------------------------------

P = PointSet(np.array([[0.0, 0.0], [3.0, 4.0], [10.0, 0.0]]))
centers = np.array([[0.0, 0.0], [9.0, 0.0]])

print("nearest-center distance of (3,4):", dist_pow([3.0, 4.0], centers))
print("cost(P, centers), z=1:", cost(P, centers))
print("cost(P, centers), z=2:", cost(P, centers, z=2))

# projection snaps each point to its nearest center (ties: lowest index)
proj = project(P, centers)
print("projected points:\n", proj.points)

parts = partition_by_nearest(P, centers)
print("cluster sizes:", [len(p) for p in parts])

# adding centers can only help
print("cost to bigger set:",
      cost(P, np.concatenate([centers, [[3.0, 4.0]]])))

# --- explicit-metric mode ---------------------------------------------------

# any symmetric matrix with zero diagonal and valid triangles works; here we
# induce one from coordinates so the two modes agree exactly
coords = np.random.default_rng(0).normal(size=(6, 2))
metric = metric_from_points(coords)
Q = PointSet(np.arange(6), metric=metric)
print("metric-mode cost with centers {0, 3}:", cost(Q, np.array([0, 3])))
print("same thing computed in Euclidean mode:",
      cost(PointSet(coords), coords[[0, 3]]))
