"""Shared SparkSession builder for the spark-submit job entrypoints, the
test session (``conftest.py``) and the benchmark, so all three run under
one session config (32 shuffle partitions, Arrow on, broadcast joins
disabled); and the jobs' one scale switch: full scale, or with
``--fast`` the benchmarks' reduced scale (``benchmarks/_config.py``).
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

from pyspark.sql import SparkSession


def get_spark(app: str) -> SparkSession:
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        "--master local[*] --driver-memory "
        f"{os.environ.get('SPARK_DRIVER_MEM', '8g')} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    s = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", os.environ.get("SPARK_SHUFFLE_PARTITIONS", "32"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s


def bench_config():
    """``benchmarks/_config.py``, the reduced scale of the benchmarks and
    of the jobs' ``--fast`` runs."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from benchmarks import _config

    return _config


def po_experiment(spark: SparkSession, fast: bool):
    """The seed-0 PO experiment at full scale, or at the benchmarks'
    scale with ``fast``."""
    from repro.experiments import run_po_experiment

    if not fast:
        return run_po_experiment(spark, seed=0, n_perm=100)
    cfg = bench_config()
    return run_po_experiment(
        spark, n_matchers=cfg.BENCH_N_MATCHERS, k=cfg.BENCH_K, seed=0,
        nn=cfg.BENCH_NN, n_perm=cfg.BENCH_N_PERM, grid=cfg.BENCH_GRID,
    )
