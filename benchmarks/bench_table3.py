"""Benchmark: Table III ablation (classifier refits over a shared
transform stage — the network-reuse fast path)."""
import pytest


@pytest.mark.benchmark(group="table3")
def test_table3_ablation(benchmark, exp):
    from repro.experiments import table3

    result = benchmark.pedantic(lambda: table3(exp), rounds=1, iterations=1)
    assert len(result) == 11  # MExI_50 + 5 include + 5 exclude
