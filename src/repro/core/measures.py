"""Expertise measures (Eqs. 2–5), preprocessing (§IV-A), and labels.

:func:`history_measures` is the one implementation of P, R, Res (with its
permutation p-value) and Cal: it works on one matcher's history and
Eq. 1 matrix, which are at most a few hundred rows. The extraction
kernel (:mod:`repro.core.extract`) calls it inside ``prepare``;
:func:`matcher_measures` runs it per matcher with ``applyInPandas`` over
any decision DataFrame. :func:`preprocess_history` and
:func:`matrix_with_correctness` are the DataFrame forms of the same
steps, kept as references for the kernel.
"""
from __future__ import annotations

import zlib

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession, Window
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.core.matrix import final_entries, history_to_matrix
from repro.ml.gamma import gamma_with_pvalue

__all__ = [
    "preprocess_history",
    "matrix_with_correctness",
    "history_measures",
    "reference_pairs",
    "matcher_measures",
    "cognitive_thresholds",
    "attach_labels",
    "train_fold_labels",
    "LABELS",
    "MEASURE_COLUMNS",
    "WARMUP_DROP",
    "OUT_STD",
]

LABELS = ["E_P", "E_R", "E_Res", "E_Cal"]

_DELTA_P = 0.5  # Eq. 2 threshold (paper §II-B1)
_DELTA_R = 0.5  # Eq. 3 threshold
WARMUP_DROP = 3  # §IV-A: decisions dropped at the start of each history
OUT_STD = 2.0  # §IV-A: elapsed-time outlier cut, in standard deviations


def preprocess_history(
    decisions: DataFrame, *, warmup_drop: int = WARMUP_DROP, out_std: float = OUT_STD
) -> DataFrame:
    """§IV-A preprocessing over the raw history.

    1. Drop the first ``warmup_drop`` decisions per matcher (response
       times are not comparable before warm-up).
    2. Drop elapsed-time outliers: decisions whose inter-decision gap is
       more than ``out_std`` standard deviations above the matcher's
       mean gap (methodical pauses / late revisits).
    """
    w_seq = Window.partitionBy("matcher_id", "task").orderBy("t", "step")
    with_dt = decisions.withColumn("_rank", F.row_number().over(w_seq)).withColumn(
        "_dt", F.col("t") - F.lag("t").over(w_seq)
    )
    gaps = with_dt.groupBy("matcher_id", "task").agg(
        F.mean("_dt").alias("_dt_mu"), F.stddev("_dt").alias("_dt_sd")
    )
    return (
        with_dt.join(gaps, ["matcher_id", "task"], "left")
        .where(F.col("_rank") > warmup_drop)
        .where(
            F.col("_dt").isNull()
            | F.col("_dt_sd").isNull()
            | (F.col("_dt") <= F.col("_dt_mu") + out_std * F.col("_dt_sd"))
        )
        .select(*decisions.columns)
    )


def matrix_with_correctness(decisions: DataFrame, reference: DataFrame) -> DataFrame:
    """Final matrix entries flagged against the reference match M^e."""
    matrix = history_to_matrix(decisions)
    ref = reference.select("task", "row_i", "col_j", F.lit(1).alias("_in_ref"))
    return matrix.join(ref, ["task", "row_i", "col_j"], "left").withColumn(
        "correct", F.coalesce(F.col("_in_ref"), F.lit(0)).cast("double")
    ).drop("_in_ref")


_MEASURES_SCHEMA = T.StructType(
    [
        T.StructField("matcher_id", T.StringType()),
        T.StructField("task", T.StringType()),
        T.StructField("n_sigma", T.LongType()),
        T.StructField("P", T.DoubleType()),
        T.StructField("R", T.DoubleType()),
        T.StructField("n_decisions", T.LongType()),
        T.StructField("conf_mean", T.DoubleType()),
        T.StructField("res", T.DoubleType()),
        T.StructField("res_pval", T.DoubleType()),
        T.StructField("cal", T.DoubleType()),
    ]
)
MEASURE_COLUMNS = _MEASURES_SCHEMA.names


def reference_pairs(reference: pd.DataFrame) -> dict[str, frozenset]:
    """Task → set of ``(row_i, col_j)`` pairs of its reference match M^e."""
    return {
        task: frozenset(zip(g["row_i"].tolist(), g["col_j"].tolist()))
        for task, g in reference.groupby("task")
    }


def history_measures(
    history: pd.DataFrame,
    entries: pd.DataFrame,
    reference: frozenset,
    *,
    n_perm: int = 200,
    seed: int = 0,
) -> dict:
    """P, R, Res (+p-value), Cal of ONE matcher — Eqs. 2–5.

    ``history`` is the matcher's (preprocessed) decisions ordered by
    ``(t, step)``, ``entries`` its
    Eq. 1 matrix as :func:`~repro.core.matrix.final_entries` returns it
    (ordered by ``(row_i, col_j)``, so the permutation p-value does not
    depend on the order the rows arrived in), and ``reference`` the
    task's reference pairs.

    - P(H): fraction of matrix entries that are in M^e.
    - R(H): matrix entries in M^e divided by |M^e+| of the task.
    - Res(H): gamma(final confidence, correctness), permutation p-value.
    - Cal(H): mean *reported* confidence over the whole history H minus
      P(H) (the paper averages over decisions, not matrix entries).
    """
    mid = history["matcher_id"].iloc[0]
    task = history["task"].iloc[0]
    correct = np.array(
        [(i, j) in reference for i, j in zip(entries["row_i"], entries["col_j"])], dtype=float
    )
    precision = float(correct.mean())
    conf_mean = float(history["conf"].mean())
    # stable per-matcher seed → deterministic p-values cluster-wide
    mseed = (zlib.crc32(f"{mid}|{task}".encode()) + seed) % (2**31)
    res, res_pval = gamma_with_pvalue(
        entries["conf"].to_numpy(float), correct, n_perm=n_perm, seed=mseed
    )
    return {
        "matcher_id": mid,
        "task": task,
        "n_sigma": len(entries),
        "P": precision,
        "R": float(correct.sum() / len(reference)),
        "n_decisions": len(history),
        "conf_mean": conf_mean,
        "res": res,
        "res_pval": res_pval,
        "cal": conf_mean - precision,
    }


def _make_measures_fn(references: dict[str, frozenset], n_perm: int, seed: int):
    def _measures(pdf: pd.DataFrame) -> pd.DataFrame:
        reference = references.get(pdf["task"].iloc[0])
        if reference is None:  # no reference match for the task: no measures
            return pd.DataFrame(columns=MEASURE_COLUMNS)
        history = pdf.sort_values(["t", "step"], kind="mergesort")  # arrival order varies
        row = history_measures(
            history, final_entries(history), reference, n_perm=n_perm, seed=seed
        )
        return pd.DataFrame([row], columns=MEASURE_COLUMNS)

    return _measures


def matcher_measures(
    spark: SparkSession,
    decisions: DataFrame,
    reference: DataFrame | pd.DataFrame,
    *,
    n_perm: int = 200,
    seed: int = 0,
) -> DataFrame:
    """Per-matcher P, R, Res (+p-value), Cal (:func:`history_measures`)
    over every (matcher_id, task) group of ``decisions``, one
    ``applyInPandas`` pass. The reference match is small and is collected
    once to the driver."""
    if isinstance(reference, DataFrame):
        reference = reference.select("task", "row_i", "col_j").toPandas()
    return decisions.groupBy("matcher_id", "task").applyInPandas(
        _make_measures_fn(reference_pairs(reference), n_perm, seed), schema=_MEASURES_SCHEMA
    )


def cognitive_thresholds(train_measures: pd.DataFrame) -> tuple[float, float]:
    """(delta_Res, delta_Cal) from the *train* population (§II-B2).

    delta_Res is the 80th percentile of train resolution; delta_Cal the
    20th percentile of *signed* train calibration (the paper's worked
    example — "the 20th percentile in our experiments is 0.205" on an
    over-confident population — implies signed, not absolute, values).
    """
    d_res = float(train_measures["res"].quantile(0.8))
    d_cal = float(train_measures["cal"].quantile(0.2))
    return d_res, d_cal


def attach_labels(
    measures: pd.DataFrame, *, delta_res: float, delta_cal: float
) -> pd.DataFrame:
    """Binary expert labels per Eqs. 2–5 given cognitive thresholds."""
    out = measures.copy()
    out["E_P"] = (out["P"] > _DELTA_P).astype(int)
    out["E_R"] = (out["R"] > _DELTA_R).astype(int)
    out["E_Res"] = ((out["res"] > delta_res) & (out["res_pval"] < 0.05)).astype(int)
    out["E_Cal"] = (out["cal"].abs() < abs(delta_cal)).astype(int)
    return out


def train_fold_labels(
    train_measures: pd.DataFrame, train_ids: list[str], measures: pd.DataFrame | None = None
) -> tuple[pd.DataFrame, float, float]:
    """``matcher_id`` + :data:`LABELS` of every row of ``measures``
    (default ``train_measures``) under the cognitive thresholds of the
    ``train_ids`` rows of ``train_measures`` only (§IV-B1), and those
    thresholds (delta_Res, delta_Cal)."""
    train = train_measures[train_measures["matcher_id"].isin(train_ids)]
    d_res, d_cal = cognitive_thresholds(train)
    labels = attach_labels(train_measures if measures is None else measures,
                           delta_res=d_res, delta_cal=d_cal)
    return labels[["matcher_id", *LABELS]], d_res, d_cal
