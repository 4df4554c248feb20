"""Table IIb — generalizability to ontology alignment (OAEI).

Trains every learned method on the 106 PO matchers and tests on the 34
OAEI matchers (cross-domain transfer).

Run: ``spark-submit jobs/table2b_oaei.py [--fast]``.
"""
from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _common import bench_config, get_spark  # noqa: E402


def main(fast: bool = False) -> None:
    spark = get_spark("table2b-oaei")
    from repro.experiments import table2b

    if fast:
        cfg = bench_config()
        t = table2b(spark, po_n=cfg.BENCH_N_MATCHERS, oaei_n=cfg.BENCH_OAEI_N, seed=0,
                    nn=cfg.BENCH_NN, n_perm=cfg.BENCH_N_PERM, grid=cfg.BENCH_GRID)
    else:
        t = table2b(spark, seed=0, n_perm=100)
    print("\nTable IIb — Ontology Alignment (OAEI):")
    print(t.round(2).to_string(index=False))
    spark.stop()


if __name__ == "__main__":
    main(fast="--fast" in sys.argv)
