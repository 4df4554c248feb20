"""Sub-matcher expansion (§IV-B1).

Sub-matchers are consecutive-decision windows of a matcher's history,
used ONLY during training to give the networks (and classifiers) enough
samples. ``MExI_50`` uses windows of 50 decisions; ``MExI_70`` windows
of 30, 40, …, 70 (the paper's over-aggressive variant).

A sub-matcher is materialized as a *virtual matcher* whose id is
``<parent>#w<size>#<start>``; its decisions are the parent's rank-window
and its mouse events are the parent's events inside the window's time
span. Downstream pipelines (matrix, measures, features, heatmaps,
sequences) treat virtual matchers identically to real ones — one code
path, no special cases.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession, Window
from pyspark.sql import functions as F

__all__ = [
    "submatcher_sizes",
    "windows",
    "expand_submatchers",
    "parent_of",
    "spec_of",
    "is_sub",
]

_SPECS = {"none": [], "50": [50], "70": [30, 40, 50, 60, 70]}


def submatcher_sizes(spec: str) -> list[int]:
    """Window sizes for a sub-matcher spec ('none' | '50' | '70')."""
    if spec not in _SPECS:
        raise ValueError(f"unknown submatcher spec {spec!r}; expected one of {sorted(_SPECS)}")
    return list(_SPECS[spec])


def is_sub(matcher_id: str) -> bool:
    return "#" in matcher_id


def parent_of(matcher_id: str) -> str:
    """Real matcher behind a (possibly virtual) id."""
    return matcher_id.split("#", 1)[0]


def spec_of(matcher_id: str) -> int | None:
    """Window size of a virtual id, or None for a real matcher."""
    if not is_sub(matcher_id):
        return None
    return int(matcher_id.split("#")[1].removeprefix("w"))


def windows(n: int, sizes: list[int]) -> list[tuple[int, int]]:
    """``(size, start)`` of every window over a history of ``n`` decisions:
    stride ``size // 2``, each window entirely within the history, so a
    history shorter than ``size`` has no window of that size. ``start``
    is the 0-based position of the window's first decision."""
    return [
        (size, start)
        for size in sizes
        for start in range(0, n - size + 1, max(1, size // 2))
    ]


def expand_submatchers(
    spark: SparkSession,
    decisions: DataFrame,
    mouse: DataFrame,
    *,
    sizes: list[int],
) -> tuple[DataFrame, DataFrame]:
    """Virtual (decisions, mouse) frames for all :func:`windows` of all
    ``sizes``, as DataFrames. The returned frames contain ONLY virtual
    matchers; callers union them with the originals as needed.

    ``prepare`` cuts the same windows inside its per-matcher kernel
    (:mod:`repro.core.extract`); this DataFrame form is its reference.
    """
    if not sizes:
        empty_d = spark.createDataFrame([], decisions.schema)
        empty_m = spark.createDataFrame([], mouse.schema)
        return empty_d, empty_m

    counts = (
        decisions.groupBy("matcher_id", "task").agg(F.count("*").alias("n")).collect()
    )
    defs = [
        {
            "matcher_id": row["matcher_id"],
            "task": row["task"],
            "sub_id": f"{row['matcher_id']}#w{size}#{start}",
            "lo": start + 1,  # ranks are 1-based
            "hi": start + size,
        }
        for row in counts
        for size, start in windows(row["n"], sizes)
    ]
    if not defs:
        empty_d = spark.createDataFrame([], decisions.schema)
        empty_m = spark.createDataFrame([], mouse.schema)
        return empty_d, empty_m
    defs_df = spark.createDataFrame(pd.DataFrame(defs))

    w_seq = Window.partitionBy("matcher_id", "task").orderBy("t", "step")
    ranked = decisions.withColumn("_rank", F.row_number().over(w_seq))
    sub_dec = (
        ranked.join(defs_df, ["matcher_id", "task"])
        .where((F.col("_rank") >= F.col("lo")) & (F.col("_rank") <= F.col("hi")))
        .select(
            F.col("sub_id").alias("matcher_id"),
            "task",
            "step",
            "row_i",
            "col_j",
            "conf",
            "t",
        )
    )
    spans = (
        sub_dec.groupBy(F.col("matcher_id").alias("sub_id"), "task")
        .agg(F.min("t").alias("t_lo"), F.max("t").alias("t_hi"))
        .withColumn("matcher_id", F.split(F.col("sub_id"), "#").getItem(0))
    )
    sub_mouse = (
        mouse.join(spans, ["matcher_id", "task"])
        .where((F.col("t") >= F.col("t_lo")) & (F.col("t") <= F.col("t_hi")))
        .select(F.col("sub_id").alias("matcher_id"), "task", "x", "y", "etype", "t")
    )
    return sub_dec, sub_mouse
