"""Table IIb — generalizability to ontology alignment (OAEI).

Trains every learned method on the 106 PO matchers and tests on the 34
OAEI matchers (cross-domain transfer).

Run: ``spark-submit jobs/table2b_oaei.py [--fast]``.
"""
from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _common import get_spark  # noqa: E402


def main(fast: bool = False) -> None:
    spark = get_spark("table2b-oaei")
    from repro.core.mexi import NNParams
    from repro.experiments import table2b

    if fast:
        nn = NNParams(lstm_hidden=16, lstm_dense=16, lstm_epochs=8,
                      cnn_filters=4, cnn_epochs=10)
        t = table2b(spark, po_n=40, oaei_n=16, seed=0, nn=nn, n_perm=40, grid=16)
    else:
        t = table2b(spark, seed=0, n_perm=100)
    print("\nTable IIb — Ontology Alignment (OAEI):")
    print(t.round(2).to_string(index=False))
    spark.stop()


if __name__ == "__main__":
    main(fast="--fast" in sys.argv)
