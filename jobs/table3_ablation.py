"""Table III — feature-set ablation of MExI_50 over the PO task.

Include (single feature set) and exclude (all-but-one) configurations;
networks are trained once per fold and reused across configurations.

Run: ``spark-submit jobs/table3_ablation.py [--fast]``.
"""
from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _common import get_spark  # noqa: E402


def main(fast: bool = False) -> None:
    spark = get_spark("table3-ablation")
    from repro.core.mexi import NNParams
    from repro.experiments import run_po_experiment, table3

    if fast:
        nn = NNParams(lstm_hidden=16, lstm_dense=16, lstm_epochs=8,
                      cnn_filters=4, cnn_epochs=10)
        exp = run_po_experiment(spark, n_matchers=40, k=3, seed=0, nn=nn,
                                n_perm=40, grid=16)
    else:
        exp = run_po_experiment(spark, seed=0, n_perm=100)
    print("\nTable III — MExI_50 feature-set ablation (PO):")
    print(table3(exp).round(2).to_string(index=False))
    spark.stop()


if __name__ == "__main__":
    main(fast="--fast" in sys.argv)
