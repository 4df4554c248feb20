"""Benchmark: Table IIb pipeline (PO-trained model tested on OAEI)."""
import pytest

from benchmarks._config import BENCH_GRID, BENCH_N_MATCHERS, BENCH_N_PERM, BENCH_NN, BENCH_OAEI_N


@pytest.mark.benchmark(group="table2b")
def test_table2b_pipeline(benchmark, spark):
    from repro.experiments import table2b

    def run():
        return table2b(
            spark, po_n=BENCH_N_MATCHERS, oaei_n=BENCH_OAEI_N, seed=0,
            nn=BENCH_NN, n_perm=BENCH_N_PERM, grid=BENCH_GRID,
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(result) == 10
