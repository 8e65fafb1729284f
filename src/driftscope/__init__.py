"""driftscope: subgroup-level model performance drift monitoring.

Mine interpretable subgroups from reference data once, then monitor a model's
performance within every subgroup batch by batch using sparse matrix products
and Beta-posterior Welch statistics, with ranked, pruned, and item-attributed
drift reports.
"""

__version__ = "0.1.0"

from .catalog import (
    DataError,
    IngestStats,
    Item,
    ItemCatalog,
    MetricSpec,
    OutcomeRecord,
    build_catalog,
    ingest_outcomes,
    read_rows,
)
from .mining import MiningConfig, Subgroup, SubgroupCatalog, mine_frequent
from .sgmetrics import (
    EncodedBatch,
    SubgroupStats,
    aggregate,
    build_point_matrix,
    encode_batch,
    membership,
    merge,
    performance,
)
from .detector import (
    DriftReport,
    MonitorState,
    WindowConfig,
    beta_posterior,
    drift_delta,
    score_windows,
    step,
    welch_t,
)
from .explain import (
    ItemAttribution,
    RankedReport,
    make_drift_value_fn,
    rank,
    redundancy_prune,
    shapley_global,
    shapley_local,
)
from .streams import (
    ConceptStreamConfig,
    DriftSchedule,
    StreamBatch,
    TreeModel,
    fit_tree,
    gen_concept_stream,
    inject_label_flip,
)
from .baselines import make_detector
from .evaluation import (
    ExperimentResult,
    correlations,
    detection_scores,
    ndcg_at_k,
    run_concept_suite,
    run_injection_suite,
    timing_bench,
    youden_sweep,
)

__all__ = [
    "__version__",
    "DataError",
    "IngestStats",
    "Item",
    "ItemCatalog",
    "MetricSpec",
    "OutcomeRecord",
    "build_catalog",
    "ingest_outcomes",
    "read_rows",
    "MiningConfig",
    "Subgroup",
    "SubgroupCatalog",
    "mine_frequent",
    "EncodedBatch",
    "SubgroupStats",
    "aggregate",
    "build_point_matrix",
    "encode_batch",
    "membership",
    "merge",
    "performance",
    "DriftReport",
    "MonitorState",
    "WindowConfig",
    "beta_posterior",
    "drift_delta",
    "score_windows",
    "step",
    "welch_t",
    "ItemAttribution",
    "RankedReport",
    "make_drift_value_fn",
    "rank",
    "redundancy_prune",
    "shapley_global",
    "shapley_local",
    "ConceptStreamConfig",
    "DriftSchedule",
    "StreamBatch",
    "TreeModel",
    "fit_tree",
    "gen_concept_stream",
    "inject_label_flip",
    "make_detector",
    "ExperimentResult",
    "correlations",
    "detection_scores",
    "ndcg_at_k",
    "run_concept_suite",
    "run_injection_suite",
    "timing_bench",
    "youden_sweep",
]
