"""Benchmark: Table IIa pipeline (PO expert identification, k-fold CV).

Covers cohort generation, Spark feature extraction, network training,
all baselines and the accuracy aggregation at benchmark scale. The
experiment it builds is the one the later benchmarks' ``exp`` fixture
hands on.
"""
import pytest

from jobs._common import po_experiment


@pytest.mark.benchmark(group="table2a")
def test_table2a_pipeline(benchmark, spark, built):
    from repro.experiments import table2a

    def run():
        built["exp"] = po_experiment(spark, fast=True)
        return table2a(built["exp"])

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(result) == 10  # 7 baselines + 3 MExI variants
    assert {"A_P", "A_R", "A_Res", "A_Cal", "A_ML"} <= set(result.columns)
