"""Minimum-impurity partitioning of probability-weighted data.

Partition M data points, each carrying a joint distribution over N classes,
into K groups minimizing a concave impurity (entropy, Gini, or a custom
concave f), with closed-form bounds certifying the gap to the optimum and an
exhaustive oracle for verification at small sizes.
"""

from .algorithms import (
    MASK_BUDGET,
    ORACLE_CAP,
    AlgoResult,
    exhaustive_oracle,
    greedy_merge,
    greedy_split,
    iterative_refine,
    max_likelihood_partition,
)
from .bounds import (
    approximation_ratio,
    binary_entropy,
    boyd_chiang_bound,
    fano_bound,
    lower_bound,
    n_min,
    s_value,
    upper_bound,
)
from .errors import (
    ConcavityViolation,
    ConvexityViolation,
    DimensionMismatch,
    EOutOfRange,
    ImpurityPartError,
    IngestWarning,
    InstanceTooLarge,
    InvalidDistribution,
    KNotGreaterThanN,
    KNotLessThanN,
    KTooSmall,
    LabelOutOfRange,
    NegativeEntry,
    NonFinite,
    NotAChannel,
    ParseError,
    ZeroRow,
    ZeroTotal,
)
from .impurity import ImpuritySpec, entropy_spec, gini_spec
from .ingestion import emit, ingest
from .prob import (
    JointDistribution,
    Partition,
    PartitionStats,
    build_joint,
    compute_stats,
)

__version__ = "0.1.0"

__all__ = [
    "AlgoResult",
    "ConcavityViolation",
    "ConvexityViolation",
    "DimensionMismatch",
    "EOutOfRange",
    "ImpurityPartError",
    "ImpuritySpec",
    "IngestWarning",
    "InstanceTooLarge",
    "InvalidDistribution",
    "JointDistribution",
    "KNotGreaterThanN",
    "KNotLessThanN",
    "KTooSmall",
    "LabelOutOfRange",
    "MASK_BUDGET",
    "NegativeEntry",
    "NonFinite",
    "NotAChannel",
    "ORACLE_CAP",
    "ParseError",
    "Partition",
    "PartitionStats",
    "ZeroRow",
    "ZeroTotal",
    "approximation_ratio",
    "binary_entropy",
    "boyd_chiang_bound",
    "build_joint",
    "compute_stats",
    "emit",
    "entropy_spec",
    "exhaustive_oracle",
    "fano_bound",
    "gini_spec",
    "greedy_merge",
    "greedy_split",
    "ingest",
    "iterative_refine",
    "lower_bound",
    "max_likelihood_partition",
    "n_min",
    "s_value",
    "upper_bound",
]
