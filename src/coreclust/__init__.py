"""Coresets, bicriteria approximations and robust medians for k-median-type
clustering, with brute-force verifiers for every guarantee at desk scale.

The public names below load their module on first use (PEP 562), so a bare
``import coreclust`` loads no numpy: ``python -m coreclust`` can choose its
BLAS thread count before numpy starts (see ``coreclust.__main__``).
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "geometry": (
        "EUCLIDEAN",
        "MATRIX",
        "InputError",
        "LoadError",
        "Metric",
        "PointSet",
        "cost",
        "costs",
        "dist_pow",
        "metric_from_points",
        "nearest_center",
        "pairwise_dist",
        "partition_by_nearest",
        "project",
    ),
    "sampling": (
        "SampleParams",
        "VerificationReport",
        "eps_approx_sample_size",
        "verify_function_eps_approx",
        "verify_range_eps_approx",
    ),
    "robust": (
        "RobustMedian",
        "RobustParams",
        "exhaustive_robust_median",
        "metric_snap_median",
        "sampled_robust_median",
        "verify_robust_median",
    ),
    "bicriteria": (
        "BicriteriaResult",
        "MedianProvider",
        "metric_kmedian_bicriteria",
    ),
    "construction": (
        "BCoreset",
        "FunctionFamily",
        "StaticCoreset",
        "ThresholdCoreset",
        "b_coreset",
        "k_median_coreset",
        "metric_b_coreset",
    ),
    "solvers": (
        "SolveResult",
        "brute_force_k_median",
        "constant_factor_metric_kmedian",
        "solve_on_coreset",
        "solve_weighted",
        "static_coreset",
        "weighted_local_search",
    ),
    "streaming": ("StreamState", "stream_push", "stream_query"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}",
                                                __name__), name)
        globals()[name] = value
        return value
    if name in _EXPORTS:   # a submodule, as when this file imported them all
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF) | set(_EXPORTS))
