"""Table I worked example (Example 1): history → matrix → measures.

Prints the paper's Table I, the derived matching matrix (Eq. 1), and the
resulting measures (P = R = 3/4, Res = 1.0 with insignificant p-value,
under-confident calibration), matching §II's worked example. The matrix
and the measures come from ``final_entries`` and ``history_measures``,
the functions ``prepare``'s per-matcher extraction kernel runs.

Run: ``python jobs/table1_example.py`` (needs no Spark session).
"""
from __future__ import annotations

import pandas as pd

from repro.core.matrix import final_entries
from repro.core.measures import history_measures, reference_pairs


def example() -> tuple[pd.DataFrame, pd.DataFrame, dict]:
    """Table I's decision history, its Eq. 1 matrix and its measures."""
    hist = pd.DataFrame(
        [
            ("h", "PO", 0, 3, 4, 1.0, 3.0),
            ("h", "PO", 1, 1, 1, 0.9, 8.0),
            ("h", "PO", 2, 1, 2, 0.5, 15.0),
            ("h", "PO", 3, 1, 1, 0.5, 16.0),
            ("h", "PO", 4, 2, 1, 0.45, 34.0),
        ],
        columns=["matcher_id", "task", "step", "row_i", "col_j", "conf", "t"],
    )
    ref = pd.DataFrame(
        [("PO", 1, 1), ("PO", 1, 2), ("PO", 2, 3), ("PO", 3, 4)],
        columns=["task", "row_i", "col_j"],
    )
    entries = final_entries(hist)
    return hist, entries, history_measures(hist, entries, reference_pairs(ref)["PO"], n_perm=400)


def main() -> None:
    hist, entries, measures = example()
    print("Table I (decision history):")
    print(hist.to_string(index=False))
    print("\nMatching matrix entries (Eq. 1, latest confidence wins):")
    print(entries[["row_i", "col_j", "conf"]].to_string(index=False))
    print("\nMeasures (Eqs. 2-5):")
    print(pd.DataFrame([measures]).round(3).to_string(index=False))


if __name__ == "__main__":
    main()
