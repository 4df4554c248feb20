"""Table IV — top-2 informative features per feature set per label.

Permutation importance (SHAP substitute, DESIGN.md §2) over the per-fold
MExI_50 models, averaged across folds.

Run: ``spark-submit jobs/table4_importance.py [--fast]``.
"""
from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _common import get_spark  # noqa: E402


def main(fast: bool = False) -> None:
    spark = get_spark("table4-importance")
    from repro.core.mexi import NNParams
    from repro.experiments import run_po_experiment, table4

    if fast:
        nn = NNParams(lstm_hidden=16, lstm_dense=16, lstm_epochs=8,
                      cnn_filters=4, cnn_epochs=10)
        exp = run_po_experiment(spark, n_matchers=40, k=3, seed=0, nn=nn,
                                n_perm=40, grid=16)
    else:
        exp = run_po_experiment(spark, seed=0, n_perm=100)
    print("\nTable IV — top-2 informative features per set per label:")
    print(table4(exp).round(4).to_string(index=False))
    spark.stop()


if __name__ == "__main__":
    main(fast="--fast" in sys.argv)
