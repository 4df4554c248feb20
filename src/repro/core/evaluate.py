"""Evaluation measures (Eqs. 6–7), k-fold splitting, bootstrap test.

- ``A_c`` — per-characteristic accuracy (Eq. 6).
- ``A_ML`` — multi-label Jaccard accuracy (Eq. 7); a matcher with no
  positive true and no positive predicted labels scores 1 (the 0/0
  Jaccard convention — documented because the paper leaves it open).
- ``bootstrap_pvalue`` — the paper's two-sample bootstrap hypothesis
  test over per-matcher scores (§IV-D).
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.measures import LABELS

__all__ = [
    "accuracy_per_label",
    "matcher_scores",
    "multilabel_accuracy",
    "accuracy_row",
    "kfold_ids",
    "bootstrap_pvalue",
]


def _aligned(y_true: pd.DataFrame, y_pred: pd.DataFrame) -> tuple[np.ndarray, np.ndarray]:
    t = y_true.set_index("matcher_id")[LABELS]
    p = y_pred.set_index("matcher_id")[LABELS]
    if set(t.index) != set(p.index):
        raise ValueError("matcher_id sets differ between truth and prediction")
    p = p.loc[t.index]
    return t.to_numpy(dtype=int), p.to_numpy(dtype=int)


def matcher_scores(y_true: pd.DataFrame, y_pred: pd.DataFrame) -> dict[str, np.ndarray]:
    """Per-matcher scores, in ``y_true``'s order: each label's 0/1 hit
    (the summand of Eq. 6) as ``A_P`` … ``A_Cal``, and the Jaccard of the
    positive-label sets (the summand of Eq. 7) as ``A_ML``."""
    t, p = _aligned(y_true, y_pred)
    out = {
        f"A_{lab.removeprefix('E_')}": (t[:, i] == p[:, i]).astype(float)
        for i, lab in enumerate(LABELS)
    }
    inter = ((t == 1) & (p == 1)).sum(axis=1)
    union = ((t == 1) | (p == 1)).sum(axis=1)
    out["A_ML"] = np.where(union == 0, 1.0, inter / np.maximum(union, 1))
    return out


def accuracy_row(y_true: pd.DataFrame, y_pred: pd.DataFrame) -> dict[str, float]:
    """One Table-II-style row: the four A_c values plus A_ML, each the
    mean of its :func:`matcher_scores`."""
    return {metric: float(s.mean()) for metric, s in matcher_scores(y_true, y_pred).items()}


def accuracy_per_label(y_true: pd.DataFrame, y_pred: pd.DataFrame) -> dict[str, float]:
    """Eq. 6 per characteristic: {'A_P': …, 'A_R': …, 'A_Res': …, 'A_Cal': …}."""
    row = accuracy_row(y_true, y_pred)
    del row["A_ML"]
    return row


def multilabel_accuracy(y_true: pd.DataFrame, y_pred: pd.DataFrame) -> float:
    """Eq. 7: mean per-matcher Jaccard."""
    return accuracy_row(y_true, y_pred)["A_ML"]


def kfold_ids(ids: list[str], *, k: int = 5, seed: int = 0) -> list[tuple[list[str], list[str]]]:
    """Deterministic k-fold (train, test) id splits (§IV-B1's 5-fold CV)."""
    rng = np.random.default_rng(seed)
    order = list(ids)
    rng.shuffle(order)
    folds = [order[i::k] for i in range(k)]
    return [
        (sorted(x for j, f in enumerate(folds) if j != i for x in f), sorted(folds[i]))
        for i in range(k)
    ]


def bootstrap_pvalue(
    scores_a: np.ndarray, scores_b: np.ndarray, *, n_boot: int = 2000, seed: int = 0
) -> float:
    """Two-sample bootstrap p-value for mean(a) > mean(b) (one-sided).

    Resamples both score vectors under the null of equal means (shift
    both to the pooled mean) and counts how often the resampled mean
    difference reaches the observed one.
    """
    a = np.asarray(scores_a, dtype=float)
    b = np.asarray(scores_b, dtype=float)
    obs = a.mean() - b.mean()
    pooled = np.concatenate([a, b]).mean()
    a0 = a - a.mean() + pooled
    b0 = b - b.mean() + pooled
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(n_boot):
        da = rng.choice(a0, a.size, replace=True).mean()
        db = rng.choice(b0, b.size, replace=True).mean()
        if da - db >= obs - 1e-12:
            hits += 1
    return (hits + 1) / (n_boot + 1)
