"""Benchmark: Table IIa pipeline (PO expert identification, k-fold CV).

Covers cohort generation, Spark feature extraction, network training,
all baselines and the accuracy aggregation at benchmark scale.
"""
import pytest

from jobs._common import po_experiment


@pytest.mark.benchmark(group="table2a")
def test_table2a_pipeline(benchmark, spark):
    from repro.experiments import table2a

    result = benchmark.pedantic(
        lambda: table2a(po_experiment(spark, fast=True)), rounds=1, iterations=1
    )
    assert len(result) == 10  # 7 baselines + 3 MExI variants
    assert {"A_P", "A_R", "A_Res", "A_Cal", "A_ML"} <= set(result.columns)
