"""Benchmark: §IV-F utilization (expert filtering, early identification,
fused-match vote aggregation in Spark)."""
import pytest


@pytest.mark.benchmark(group="utilize")
def test_utilization_pipeline(benchmark, spark, exp):
    from repro.experiments import utilization_tables

    result = benchmark.pedantic(
        lambda: utilization_tables(spark, exp, early_limit=15), rounds=1, iterations=1
    )
    assert set(result) == {"perf_full", "perf_early", "fused"}
