"""Benchmark: Table IV permutation importance over the fold models."""
import pytest


@pytest.mark.benchmark(group="table4")
def test_table4_importance(benchmark, exp):
    from repro.experiments import table4

    result = benchmark.pedantic(lambda: table4(exp, n_rep=3), rounds=1, iterations=1)
    assert {"set", "label", "rank", "feature"} <= set(result.columns)
