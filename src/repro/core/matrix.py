"""Matching-matrix construction from a decision history (Eq. 1).

The matrix entry for element pair (a_i, b_j) is the *latest* confidence
the matcher reported for that pair; pairs never decided are implicitly
zero (long format keeps only non-zero entries, i.e. the match sigma).

:func:`final_entries` builds one matcher's matrix in pandas (the
extraction kernel's path); :func:`history_to_matrix` builds every
matcher's matrix as a Spark window and is its reference.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

__all__ = ["history_to_matrix", "final_entries"]


def history_to_matrix(decisions: DataFrame) -> DataFrame:
    """Latest-confidence matrix entries per (matcher, task, pair).

    Input: long-format history with columns
    ``matcher_id, task, step, row_i, col_j, conf, t``.
    Output: ``matcher_id, task, row_i, col_j, conf`` — one row per pair,
    the non-zero entries of M (the match sigma).

    Ties on ``t`` are broken by ``step`` (the recording order), so the
    result is deterministic even for simultaneous timestamps.
    """
    w = Window.partitionBy("matcher_id", "task", "row_i", "col_j").orderBy(
        F.col("t").desc(), F.col("step").desc()
    )
    return (
        decisions.withColumn("_rn", F.row_number().over(w))
        .where(F.col("_rn") == 1)
        .select("matcher_id", "task", "row_i", "col_j", "conf")
    )


def final_entries(history: pd.DataFrame) -> pd.DataFrame:
    """Eq. 1 for ONE matcher's history: the latest ``(t, step)`` decision
    per pair, ordered by ``(row_i, col_j)`` whatever the input order."""
    r = history["row_i"].to_numpy()
    c = history["col_j"].to_numpy()
    # by pair, then chronologically: the last row of each pair is its entry
    order = np.lexsort((history["step"].to_numpy(), history["t"].to_numpy(), c, r))
    r, c = r[order], c[order]
    last = np.ones(len(order), dtype=bool)
    last[:-1] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
    return history.iloc[order[last]].reset_index(drop=True)
