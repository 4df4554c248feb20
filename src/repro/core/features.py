"""Φ(D) assembly — feature-set registry and the reference Spark join.

:func:`aggregated_features` joins Φ_LRSM + Φ_Beh + Φ_Mou in Spark: the
reference for ``prepare``'s extraction kernel; production never calls
it. The late-fusion sets Φ_Seq / Φ_Spa are appended by
:mod:`repro.core.mexi` after network training. ``FEATURE_SETS`` maps
each paper feature-set name to its columns — the unit of ablation
(Table III) and of importance grouping (Table IV).
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame

from repro.core.behavioral import BEH_FEATURES, behavioral_features
from repro.core.mouse import MOU_FEATURES, mouse_features
from repro.core.predictors import LRSM_FEATURES, lrsm_features
from repro.core.sequential import LABEL_SHORT, SEQ_CHANNELS
from repro.core.spatial import ETYPE_NAMES

__all__ = ["aggregated_features", "FEATURE_SETS", "ALL_SETS", "feature_set_of"]

_SEQ_FEATURES = [
    f"seq_{ch} ({short})" for ch in SEQ_CHANNELS for short in LABEL_SHORT.values()
]
_SPA_FEATURES = [
    f"spa_{name} ({short})" for name in ETYPE_NAMES.values() for short in LABEL_SHORT.values()
]

FEATURE_SETS: dict[str, list[str]] = {
    "LRSM": list(LRSM_FEATURES),
    "Beh": list(BEH_FEATURES),
    "Mou": list(MOU_FEATURES),
    "Seq": _SEQ_FEATURES,
    "Spa": _SPA_FEATURES,
}
ALL_SETS = tuple(FEATURE_SETS)


def feature_set_of(column: str) -> str:
    """Feature-set name owning a feature column."""
    for name, cols in FEATURE_SETS.items():
        if column in cols:
            return name
    raise KeyError(column)


def aggregated_features(
    decisions: DataFrame,
    mouse: DataFrame,
    task_dims: dict[str, tuple[int, int]],
) -> pd.DataFrame:
    """Offline feature sets (Φ_LRSM, Φ_Beh, Φ_Mou) for every matcher.

    The three extractions and the two joins run in Spark; the collected
    frame has one row per (matcher_id, task), including virtual
    sub-matchers if present in the input.
    """
    lrsm = lrsm_features(decisions, task_dims)
    beh = behavioral_features(decisions)
    mou = mouse_features(mouse)
    wide = lrsm.join(beh, ["matcher_id", "task"], "inner").join(
        mou, ["matcher_id", "task"], "left"
    )
    # deterministic row order regardless of Spark partitioning
    pdf = wide.toPandas().sort_values("matcher_id").reset_index(drop=True)
    mou_cols = [c for c in MOU_FEATURES if c in pdf.columns]
    pdf[mou_cols] = pdf[mou_cols].fillna(0.0)
    return pdf
