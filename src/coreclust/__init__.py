"""Coresets, bicriteria approximations and robust medians for k-median-type
clustering, with brute-force verifiers for every guarantee at desk scale."""

__version__ = "0.1.0"

from .geometry import (
    EUCLIDEAN,
    MATRIX,
    InputError,
    LoadError,
    Metric,
    PointSet,
    cost,
    costs,
    dist_pow,
    metric_from_points,
    nearest_center,
    pairwise_dist,
    partition_by_nearest,
    project,
)
from .sampling import (
    SampleParams,
    VerificationReport,
    eps_approx_sample_size,
    iid_sample,
    verify_function_eps_approx,
    verify_range_eps_approx,
    weighted_iid_sample,
)
from .robust import (
    RobustMedian,
    RobustParams,
    exhaustive_robust_median,
    metric_snap_median,
    sampled_robust_median,
    verify_robust_median,
)
from .bicriteria import (
    BicriteriaResult,
    MedianProvider,
    metric_kmedian_bicriteria,
)
from .construction import (
    BCoreset,
    FunctionFamily,
    StaticCoreset,
    ThresholdCoreset,
    b_coreset,
    k_median_coreset,
    metric_b_coreset,
)
from .solvers import (
    SolveResult,
    brute_force_k_median,
    constant_factor_metric_kmedian,
    solve_on_coreset,
    solve_weighted,
    static_coreset,
    weighted_local_search,
)
from .streaming import StreamState, stream_push, stream_query
