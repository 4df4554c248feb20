"""Output checks. Each returns a list of problems; an empty list passes."""
from __future__ import annotations

import numpy as np
import pandas as pd

LABELS = ["E_P", "E_R", "E_Res", "E_Cal"]
TOL = 1e-9

# Table I of the paper (Example 1): history h and its reference match.
TABLE1_HISTORY = pd.DataFrame(
    [
        ("h", "PO", 0, 3, 4, 1.0, 3.0),
        ("h", "PO", 1, 1, 1, 0.9, 8.0),
        ("h", "PO", 2, 1, 2, 0.5, 15.0),
        ("h", "PO", 3, 1, 1, 0.5, 16.0),
        ("h", "PO", 4, 2, 1, 0.45, 34.0),
    ],
    columns=["matcher_id", "task", "step", "row_i", "col_j", "conf", "t"],
)
TABLE1_REFERENCE = pd.DataFrame(
    [("PO", 1, 1, 0.1), ("PO", 1, 2, 0.1), ("PO", 2, 3, 0.1), ("PO", 3, 4, 0.1)],
    columns=["task", "row_i", "col_j", "difficulty"],
)


def table1(measures: pd.DataFrame) -> list[str]:
    """The paper's worked example: P = R = 3/4 and Res = 1.0."""
    if len(measures) != 1:
        return [f"Table I: expected one matcher, got {len(measures)}"]
    row = measures.iloc[0]
    want = {"P": 0.75, "R": 0.75, "res": 1.0}
    return [f"Table I: {k}={row[k]!r}, expected {v}"
            for k, v in want.items() if abs(float(row[k]) - v) > TOL]


def prepared(data) -> list[str]:
    """Every real matcher has each product, and Spark's P and R equal a
    pandas recomputation from ``matrix_entries`` and the reference match."""
    ids = set(data.cohort.matcher_ids)
    problems = []
    for name, frame in [("measures", data.measures), ("features", data.features),
                        ("sequences", data.sequences)]:
        missing = ids - set(frame["matcher_id"])
        if missing:
            problems.append(f"{name}: missing {sorted(missing)[:3]}")
    with_maps = {mid for mid, _ in data.heatmaps}
    if ids - with_maps:
        problems.append(f"heatmaps: missing {sorted(ids - with_maps)[:3]}")

    ref = set(map(tuple, data.cohort.reference_df()[["row_i", "col_j"]].to_numpy().tolist()))
    entries = data.matrix_entries
    hit = [(int(i), int(j)) in ref for i, j in zip(entries["row_i"], entries["col_j"])]
    by = entries.assign(hit=hit).groupby("matcher_id")["hit"].agg(["sum", "count"])
    spark = data.measures.set_index("matcher_id").loc[by.index]
    p_err = np.abs(by["sum"] / by["count"] - spark["P"]).max()
    r_err = np.abs(by["sum"] / len(ref) - spark["R"]).max()
    if not (p_err <= TOL and r_err <= TOL):
        problems.append(f"P/R differ from the pandas reference (max |dP|={p_err}, |dR|={r_err})")
    if set(by.index) != ids:
        problems.append("matrix_entries do not cover exactly the real matchers")
    return problems


def early(data, limit: int) -> list[str]:
    lengths = data.sequences["confs"].map(len)
    over = data.sequences.loc[lengths > limit, "matcher_id"].tolist()
    return [f"early sequences longer than {limit}: {over[:3]}"] if over else []


def fused(result: dict) -> list[str]:
    return [f"fused {k}={result[k]!r} outside [0, 1]"
            for k in ("P", "R") if not 0.0 <= result[k] <= 1.0]


def performance(table: pd.DataFrame, measures: pd.DataFrame) -> list[str]:
    row = table.set_index("method").loc["no_filter"]
    want = {"P": measures["P"].mean(), "R": measures["R"].mean(),
            "Res": measures["res"].mean(), "Cal": measures["cal"].abs().mean()}
    return [f"performance_table no_filter {k}={row[k]!r}, mean is {v!r}"
            for k, v in want.items() if abs(float(row[k]) - v) > TOL]


def predictions(pred: pd.DataFrame, test_ids: list[str]) -> list[str]:
    problems = []
    if sorted(pred["matcher_id"]) != sorted(test_ids) or pred["matcher_id"].duplicated().any():
        problems.append("predictions do not cover exactly the test ids")
    values = set(np.unique(pred[LABELS].to_numpy()).tolist())
    if not values <= {0, 1}:
        problems.append(f"non-binary predictions {sorted(values)}")
    return problems


def same_predictions(a: pd.DataFrame, b: pd.DataFrame) -> list[str]:
    """DESIGN §7: a repeated cell with the same seed predicts identically."""
    a = a.sort_values("matcher_id").reset_index(drop=True)
    b = b.sort_values("matcher_id").reset_index(drop=True)
    return [] if a.equals(b) else ["repeated cell changed its predictions"]
