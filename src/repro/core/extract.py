"""One-pass extraction: every fold-independent product of a matcher in one
grouped pandas step (the Spark side of ``mexi.prepare``).

A matcher's D = (H, G) is small (at most ~150 decisions and ~1k mouse
events) and every §IV-B1 sub-matcher window is a slice of one matcher's
history. So :func:`extract` cogroups the raw decisions and mouse events by
``(matcher_id, task)`` and runs :func:`matcher_rows` once per matcher, in
one ``applyInPandas`` pass. The kernel

1. applies the §IV-A preprocessing and the optional ``decision_limit``;
2. cuts the sub-matcher windows (:func:`repro.core.submatchers.windows`);
3. for the matcher and each window builds the Eq. 1 matrix once and emits
   one row: Φ_LRSM, Φ_Beh, Φ_Mou, the decision sequence, the heat-map bins;
4. for the real matcher also emits the Eqs. 2–5 measures and its matrix
   entries.

Rows are sorted with a total order inside the kernel, so the output does
not depend on how Spark partitions the input. The DataFrame extractors
(``preprocess_history``, ``expand_submatchers``, ``lrsm_features``,
``behavioral_features``, ``mouse_features``, ``heatmap_counts``,
``decision_sequences``, ``history_to_matrix``) compute the same products
one DataFrame at a time; they are the independent reference the kernel is
tested against.
"""
from __future__ import annotations

from functools import partial

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.core.behavioral import BEH_FEATURES
from repro.core.matrix import final_entries
from repro.core.measures import (
    MEASURE_COLUMNS,
    OUT_STD,
    WARMUP_DROP,
    history_measures,
    matcher_measures,
    reference_pairs,
)
from repro.core.mouse import ETYPES, MOU_FEATURES
from repro.core.predictors import LRSM_FEATURES, predictor_vector
from repro.core.submatchers import windows
from repro.humansim.cohort import Cohort
from repro.humansim.schema_gen import SCREEN_H, SCREEN_W

__all__ = [
    "matcher_rows",
    "extract",
    "COUNT_COLUMNS",
    "SEQUENCE_COLUMNS",
    "HEATMAP_COLUMNS",
    "ENTRY_COLUMNS",
]

COUNT_COLUMNS = {
    "beh_nDecisions", "beh_countDistinctCorr", "beh_countMindChange",
    "mou_nEvents", "mou_nMove", "mou_nLeft", "mou_nRight", "mou_nScroll",
    "n_sigma", "n_decisions",
}
SEQUENCE_COLUMNS = ["confs", "dts", "rows", "cols"]
HEATMAP_COLUMNS = ["hm_etype", "hm_bx", "hm_by", "hm_cnt"]
ENTRY_COLUMNS = ["entry_row", "entry_col"]
_MEASURE_ONLY = MEASURE_COLUMNS[2:]  # filled for real matchers only


def _field(name: str) -> T.StructField:
    if name in COUNT_COLUMNS:
        return T.StructField(name, T.LongType())
    if name in ("confs", "dts"):
        return T.StructField(name, T.ArrayType(T.DoubleType()))
    if name == "hm_etype":
        return T.StructField(name, T.ArrayType(T.StringType()))
    if name in ("rows", "cols", "hm_bx", "hm_by", "hm_cnt", *ENTRY_COLUMNS):
        return T.StructField(name, T.ArrayType(T.LongType()))
    return T.StructField(name, T.DoubleType())


_ROW_SCHEMA = T.StructType(
    [T.StructField("matcher_id", T.StringType()), T.StructField("task", T.StringType())]
    + [
        _field(c)
        for c in (
            *LRSM_FEATURES, *BEH_FEATURES, *MOU_FEATURES, *SEQUENCE_COLUMNS,
            *HEATMAP_COLUMNS, *_MEASURE_ONLY, *ENTRY_COLUMNS,
        )
    ]
)


def _std(v: np.ndarray) -> float:
    """Sample standard deviation; 0 with fewer than two values."""
    return float(v.std(ddof=1)) if v.size > 1 else 0.0


def preprocess(history: pd.DataFrame) -> pd.DataFrame:
    """§IV-A preprocessing of ONE matcher's history, ordered by
    ``(t, step)``: drop the first ``WARMUP_DROP`` decisions and every
    decision whose gap to the previous one is more than ``OUT_STD``
    standard deviations above the matcher's mean gap."""
    h = history.sort_values(["t", "step"], kind="mergesort").reset_index(drop=True)
    dt = h["t"].diff()
    keep = h.index >= WARMUP_DROP
    sd = dt.std()  # NaN with fewer than two gaps: no outlier cut
    if not np.isnan(sd):
        keep &= dt.isna() | (dt <= dt.mean() + OUT_STD * sd)
    return h[keep].reset_index(drop=True)


def behavior_vector(history: pd.DataFrame) -> dict:
    """Φ_Beh of one history ordered by ``(t, step)``."""
    t = history["t"].to_numpy(float)
    conf = history["conf"].to_numpy(float)
    dt = np.diff(t)
    n = len(history)
    distinct = len(set(zip(history["row_i"].tolist(), history["col_j"].tolist())))
    return {
        "beh_nDecisions": n,
        "beh_countDistinctCorr": distinct,
        "beh_countMindChange": n - distinct,
        "beh_avgConf": float(conf.mean()),
        "beh_stdConf": _std(conf),
        "beh_minConf": float(conf.min()),
        "beh_maxConf": float(conf.max()),
        "beh_avgTime": float(dt.mean()) if dt.size else 0.0,
        "beh_stdTime": _std(dt),
        "beh_maxTime": float(dt.max()) if dt.size else 0.0,
        "beh_totalTime": float(t.max() - t.min()),
    }


def mouse_vector(mouse: pd.DataFrame) -> dict:
    """Φ_Mou of one mouse map ordered by ``(t, x, y, etype)``; all zeros
    without events."""
    if mouse.empty:
        return {c: 0 if c in COUNT_COLUMNS else 0.0 for c in MOU_FEATURES}
    x = mouse["x"].to_numpy(float)
    y = mouse["y"].to_numpy(float)
    t = mouse["t"].to_numpy(float)
    etype = mouse["etype"].to_numpy()
    n = len(mouse)
    per_type = {e: int((etype == e).sum()) for e in ETYPES}
    total_time = float(t.max() - t.min())
    return {
        "mou_totalLength": float(np.sqrt(np.diff(x) ** 2 + np.diff(y) ** 2).sum()),
        "mou_totalTime": total_time,
        "mou_avgX": float(x.mean()),
        "mou_avgY": float(y.mean()),
        "mou_stdX": _std(x),
        "mou_stdY": _std(y),
        "mou_nEvents": n,
        "mou_nMove": per_type["m"],
        "mou_nLeft": per_type["l"],
        "mou_nRight": per_type["r"],
        "mou_nScroll": per_type["s"],
        "mou_scrollRate": per_type["s"] / n,
        "mou_eventsPerSec": n / max(total_time, 1.0),
    }


def heatmap_bins(mouse: pd.DataFrame, grid: int) -> dict:
    """Non-empty ``grid x grid`` heat-map bins per event type, as arrays."""
    bx = np.minimum(np.floor(mouse["x"].to_numpy(float) / SCREEN_W * grid), grid - 1)
    by = np.minimum(np.floor(mouse["y"].to_numpy(float) / SCREEN_H * grid), grid - 1)
    etypes, code = np.unique(mouse["etype"].to_numpy(str), return_inverse=True)
    bins, counts = np.unique(
        np.stack([code, bx.astype(np.int64), by.astype(np.int64)], axis=1),
        axis=0,
        return_counts=True,
    )
    return {
        "hm_etype": etypes[bins[:, 0]].astype(object),
        "hm_bx": bins[:, 1],
        "hm_by": bins[:, 2],
        "hm_cnt": counts.astype(np.int64),
    }


def _id_row(mid: str, history: pd.DataFrame, entries: pd.DataFrame, mouse: pd.DataFrame,
            dims: tuple[int, int], grid: int) -> dict:
    """Φ_LRSM, Φ_Beh, Φ_Mou, sequence and heat-map bins of one real or
    virtual id (``history`` ordered by ``(t, step)``)."""
    t = history["t"].to_numpy(float)
    row = {"matcher_id": mid, "task": history["task"].iloc[0]}
    row.update({f"lrsm_{k}": v for k, v in predictor_vector(entries, *dims).items()})
    row.update(behavior_vector(history))
    row.update(mouse_vector(mouse))
    row.update(
        confs=history["conf"].to_numpy(float),
        dts=np.diff(t, prepend=t[0]),
        rows=history["row_i"].to_numpy(np.int64),
        cols=history["col_j"].to_numpy(np.int64),
    )
    row.update(heatmap_bins(mouse, grid))
    return row


def matcher_rows(
    history: pd.DataFrame,
    mouse: pd.DataFrame,
    *,
    dims: dict[str, tuple[int, int]],
    references: dict[str, frozenset],
    sub_sizes: list[int],
    grid: int,
    n_perm: int,
    seed: int,
    decision_limit: int | None = None,
) -> pd.DataFrame:
    """The per-matcher kernel: one row for the matcher (features, measures,
    matrix entries) and one per sub-matcher window (features only).

    A matcher whose decisions are all dropped by preprocessing yields no
    row; one without mouse events gets zero Φ_Mou and no heat-map bins.
    """
    kept = preprocess(history)
    if decision_limit is not None:
        kept = kept.iloc[:decision_limit]
    if kept.empty:
        return pd.DataFrame(columns=_ROW_SCHEMA.names)
    mid, task = kept["matcher_id"].iloc[0], kept["task"].iloc[0]
    mouse = mouse.sort_values(["t", "x", "y", "etype"], kind="mergesort")
    if decision_limit is not None:  # mouse map cut at the last kept decision
        mouse = mouse[mouse["t"] <= kept["t"].iloc[-1]]

    entries = final_entries(kept)
    real = _id_row(mid, kept, entries, mouse, dims[task], grid)
    real.update(history_measures(kept, entries, references[task], n_perm=n_perm, seed=seed))
    real.update(entry_row=entries["row_i"].to_numpy(np.int64),
                entry_col=entries["col_j"].to_numpy(np.int64))
    rows = [real]
    t_mouse = mouse["t"].to_numpy(float)
    for size, start in windows(len(kept), sub_sizes):
        win = kept.iloc[start : start + size]
        lo, hi = win["t"].iloc[0], win["t"].iloc[-1]
        win_mouse = mouse[(t_mouse >= lo) & (t_mouse <= hi)]
        row = _id_row(f"{mid}#w{size}#{start}", win, final_entries(win), win_mouse,
                      dims[task], grid)
        rows.append(row | dict.fromkeys((*_MEASURE_ONLY, *ENTRY_COLUMNS)))
    return pd.DataFrame(rows, columns=_ROW_SCHEMA.names)


def extract(
    spark: SparkSession,
    cohort: Cohort,
    *,
    sub_sizes: list[int],
    grid: int,
    n_perm: int,
    seed: int,
    decision_limit: int | None = None,
) -> pd.DataFrame:
    """Every fold-independent product of ``cohort`` in ONE Spark action.

    :func:`matcher_rows` runs once per matcher of the main task, as a
    cogrouped ``applyInPandas`` pass over the raw decisions and mouse
    events. The Thalia warm-up phase, which the baselines read, only needs
    its measures: :func:`~repro.core.measures.matcher_measures` over the
    raw warm-up histories (no preprocessing, no mouse map, no features,
    ``max(20, n_perm // 4)`` permutations). Both outputs are unioned and collected
    together; ``phase`` tells them apart ("main" or "warmup"). Rows are
    sorted by ``(phase, matcher_id, task)``.
    """
    task = cohort.task
    kernel = partial(
        matcher_rows,
        dims={task.name: (task.n_rows, task.n_cols)},
        references=reference_pairs(cohort.reference_df()),
        sub_sizes=sub_sizes,
        grid=grid,
        n_perm=n_perm,
        seed=seed,
        decision_limit=decision_limit,
    )
    keys = ["matcher_id", "task"]
    # Two partitions per task slot, hashed on the group key on both sides
    # (so the cogroup adds no shuffle of its own). Left to itself, adaptive
    # execution coalesces this small input into ONE partition and runs
    # every matcher's kernel in a single Python worker.
    n = 2 * spark.sparkContext.defaultParallelism
    dec = spark.createDataFrame(cohort.decisions).repartition(n, *keys)
    mou = spark.createDataFrame(cohort.mouse).repartition(n, *keys)
    main = dec.groupBy(*keys).cogroup(mou.groupBy(*keys)).applyInPandas(kernel, schema=_ROW_SCHEMA)
    warmup = matcher_measures(
        spark,
        spark.createDataFrame(cohort.warmup_decisions),
        cohort.warmup_reference_df(),
        n_perm=max(20, n_perm // 4),
        seed=seed + 1,
    )
    rows = (
        main.withColumn("phase", F.lit("main"))
        .unionByName(warmup.withColumn("phase", F.lit("warmup")), allowMissingColumns=True)
        .toPandas()
    )
    return rows.sort_values(["phase", *keys], kind="mergesort").reset_index(drop=True)
