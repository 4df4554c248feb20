"""§IV-F — utilizing identified experts to improve matching outcomes.

Two pipelines:

1. :func:`performance_table` — mean P / R / Res / |Cal| of the matchers
   each method selects as experts vs the unfiltered population
   (Figs. 10–11 as a table).
2. :func:`fused_match` — the distributed ETL filtering path: every
   correspondence proposed by a selected expert is scored by a pandas
   UDF (confidence vote, bias-corrected by the matcher's
   measured calibration, after Ipeirotis et al. as §II-B suggests),
   votes are aggregated per correspondence, and majority-supported
   correspondences form the fused match, evaluated against M^e.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import types as T

from repro.core.matrix import final_entries
from repro.core.matrix import history_to_matrix  # noqa: F401  (patched by perfbench/tracing.py)
from repro.core.measures import LABELS
from repro.core.mexi import PreparedData

__all__ = ["select_experts", "performance_table", "fused_match"]

VOTE_FRAC = 0.5  # fused-match threshold, relative to the strongest pair's vote


def select_experts(preds: pd.DataFrame) -> list[str]:
    """Matchers predicted expert on ALL four characteristics (§IV-F:
    "identified as precise, thorough, correlated, and calibrated")."""
    mask = (preds[LABELS] == 1).all(axis=1)
    return preds.loc[mask, "matcher_id"].tolist()


def performance_table(
    data: PreparedData, selections: dict[str, list[str]]
) -> pd.DataFrame:
    """Mean matcher performance per selection method.

    ``selections`` maps method name → selected matcher ids; an empty
    selection falls back to the full population (a system must keep
    *some* humans), flagged in the ``n_selected`` column as 0.
    """
    meas = data.measures.set_index("matcher_id")
    rows = []
    for method, ids in selections.items():
        chosen = ids if ids else list(meas.index)
        sub = meas.loc[chosen]
        rows.append(
            {
                "method": method,
                "n_selected": len(ids),
                "P": float(sub["P"].mean()),
                "R": float(sub["R"].mean()),
                "Res": float(sub["res"].mean()),
                "Cal": float(sub["cal"].abs().mean()),
            }
        )
    return pd.DataFrame(rows)


_SCORE_SCHEMA = T.StructType(
    [
        T.StructField("row_i", T.IntegerType()),
        T.StructField("col_j", T.IntegerType()),
        T.StructField("vote", T.DoubleType()),
    ]
)


def fused_match(
    spark: SparkSession,
    data: PreparedData,
    selected_ids: list[str],
) -> dict[str, float]:
    """Fuse the selected matchers' correspondences into one match.

    Correspondence-level filtering before aggregation: each selected
    matcher's Eq. 1 matrix is built from its raw history and its entries
    are scored inside a grouped pandas UDF — the vote is the reported
    confidence, shifted by the matcher's measured calibration (an
    under-confident expert's 0.4 may really mean 0.6, §II-B). A
    correspondence enters the fused match when its summed vote reaches
    :data:`VOTE_FRAC` of the
    strongest correspondence's vote. The threshold is *relative* because
    a matcher only addresses a subset of the pair space (limited
    attention span, §II-B): with a large selection even a universally-
    agreed pair is proposed by well under all selected matchers, so an
    absolute majority is unreachable. Returns fused P/R vs M^e.
    """
    if not selected_ids:
        return {"P": float("nan"), "R": float("nan"), "n_pairs": 0.0}
    cohort = data.cohort
    decisions = spark.createDataFrame(
        cohort.decisions[cohort.decisions["matcher_id"].isin(selected_ids)]
    )
    cal_by_matcher = data.measures.set_index("matcher_id")["cal"].to_dict()

    def _score(history: pd.DataFrame) -> pd.DataFrame:
        entries = final_entries(history)  # Eq. 1 over the raw history
        bias = float(cal_by_matcher.get(history["matcher_id"].iloc[0], 0.0))
        # bias-corrected confidence vote, clipped to [0, 1]
        vote = np.clip(entries["conf"].to_numpy(float) - bias, 0.0, 1.0)
        return pd.DataFrame(
            {"row_i": entries["row_i"], "col_j": entries["col_j"], "vote": vote}
        )

    # One Spark action: the scored entries (one row per selected matcher
    # and proposed pair, a few thousand at cohort scale) are collected;
    # the per-pair vote, the relative threshold and the reference check
    # run on the driver. A Spark aggregation here costs one more shuffle
    # and, on the first call in a process, a second of plan compilation.
    scored = decisions.groupBy("matcher_id").applyInPandas(_score, schema=_SCORE_SCHEMA)
    votes = scored.toPandas().groupby(["row_i", "col_j"])["vote"].sum()
    max_vote = float(votes.max()) if len(votes) else 0.0
    fused = votes[votes >= VOTE_FRAC * max_vote].index
    ref = cohort.task.reference_pairs
    n_pairs = len(fused)
    n_correct = sum(pair in ref for pair in fused)
    n_ref = len(cohort.task.reference)
    return {
        "P": float(n_correct / n_pairs) if n_pairs else float("nan"),
        "R": float(n_correct / n_ref),
        "n_pairs": float(n_pairs),
    }
