"""Feature importance (Table IV substitute for SHAP — DESIGN.md §2).

Permutation importance: shuffle one feature column at a time across the
evaluation rows and measure the drop in that label's accuracy; average
over repetitions. Model-agnostic like SHAP, and enough to rank the top
informative features per (feature set, characteristic).
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.features import feature_set_of
from repro.core.measures import LABELS
from repro.core.mexi import MExIModel

__all__ = ["permutation_importance", "top_features"]


def permutation_importance(
    model: MExIModel,
    y_true: pd.DataFrame,
    ids: list[str],
    *,
    n_rep: int = 5,
    seed: int = 0,
) -> pd.DataFrame:
    """Long frame (feature, set, label, importance) over ``ids``.

    ``y_true`` carries ground-truth label columns per matcher_id.
    """
    X = model.features(ids)
    t = y_true.set_index("matcher_id").loc[ids]
    rng = np.random.default_rng(seed)
    out = []
    for lab in LABELS:
        clf = model.classifiers[lab]
        y = t[lab].to_numpy(dtype=int)
        base = float((clf.predict(X) == y).mean())
        for fi, feat in enumerate(model.feature_cols):
            drops = []
            for _ in range(n_rep):
                Xp = X.copy()
                Xp[:, fi] = rng.permutation(Xp[:, fi])
                drops.append(base - float((clf.predict(Xp) == y).mean()))
            out.append(
                {
                    "feature": feat,
                    "set": feature_set_of(feat),
                    "label": lab,
                    "importance": float(np.mean(drops)),
                }
            )
    return pd.DataFrame(out)


def top_features(importance: pd.DataFrame, *, k: int = 2) -> pd.DataFrame:
    """Table IV layout: top-k features per (feature set, characteristic)."""
    rows = []
    for (s, lab), g in importance.groupby(["set", "label"]):
        top = g.sort_values("importance", ascending=False).head(k)
        for rank, (_, r) in enumerate(top.iterrows(), start=1):
            rows.append(
                {
                    "set": s,
                    "label": lab,
                    "rank": rank,
                    "feature": r["feature"],
                    "importance": r["importance"],
                }
            )
    return pd.DataFrame(rows).sort_values(["set", "label", "rank"]).reset_index(drop=True)
