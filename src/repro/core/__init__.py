"""The paper's contribution: MExI feature pipelines, learning, and
expert-driven filtering, layered as DataFrame→DataFrame transformations
(DESIGN.md §3)."""
from repro.core.evaluate import accuracy_row, bootstrap_pvalue, kfold_ids
from repro.core.features import ALL_SETS, FEATURE_SETS, aggregated_features
from repro.core.matrix import history_to_matrix
from repro.core.measures import (
    LABELS,
    attach_labels,
    cognitive_thresholds,
    matcher_measures,
    preprocess_history,
)
from repro.core.mexi import MExIModel, NNParams, PreparedData, prepare

__all__ = [
    "accuracy_row",
    "bootstrap_pvalue",
    "kfold_ids",
    "ALL_SETS",
    "FEATURE_SETS",
    "aggregated_features",
    "history_to_matrix",
    "LABELS",
    "attach_labels",
    "cognitive_thresholds",
    "matcher_measures",
    "preprocess_history",
    "MExIModel",
    "NNParams",
    "PreparedData",
    "prepare",
]
