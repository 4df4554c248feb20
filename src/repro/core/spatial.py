"""Φ_Spa — spatial heat-map features via CNN late fusion (§III-B).

Four CNNs are trained, one per movement type — move-over (Move), left
click (LMouse), right click (RMouse), scrolling (SMouse), matching the
paper's G_∅/G_l/G_r/G_s networks, as the members of one stacked
``CNNClassifier``. Each emits four label coefficients;
the 4 x 4 block is the Φ_Spa feature set, named ``spa_<Type> (<label>)``
after Table IV.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.measures import LABELS
from repro.core.sequential import LABEL_SHORT
from repro.ml.cnn import CNNClassifier

__all__ = ["heatmap_tensors", "SpaFeatureExtractor", "ETYPE_NAMES"]

ETYPE_NAMES = {"m": "Move", "l": "LMouse", "r": "RMouse", "s": "SMouse"}


def heatmap_tensors(hm_counts: pd.DataFrame, *, grid: int) -> dict[tuple[str, str], np.ndarray]:
    """(matcher_id, etype) → grid x grid heat map from binned counts
    (the collected output of :func:`repro.core.mouse.heatmap_counts`)."""
    out: dict[tuple[str, str], np.ndarray] = {}
    for (mid, etype), g in hm_counts.groupby(["matcher_id", "etype"]):
        img = np.zeros((grid, grid))
        img[g["by"].to_numpy(int), g["bx"].to_numpy(int)] = g["cnt"].to_numpy(float)
        out[(mid, etype)] = img
    return out


class SpaFeatureExtractor:
    """Trains one 4-member CNN (a network per movement type); emits the
    16 Φ_Spa late-fusion features."""

    def __init__(self, *, filters: int = 8, epochs: int = 60, seed: int = 0) -> None:
        self.filters = filters
        self.epochs = epochs
        self.seed = seed
        self.model: CNNClassifier | None = None

    @staticmethod
    def _stack(bundle, ids: list[str]) -> np.ndarray:
        """(N, 4, grid, grid): each id's heat map per movement type."""
        zero = np.zeros((bundle.grid, bundle.grid))  # a matcher without events of this type
        return np.array([[bundle.heatmaps.get((mid, e), zero) for e in ETYPE_NAMES] for mid in ids])

    def fit(self, bundle, labels: pd.DataFrame) -> "SpaFeatureExtractor":
        """Train on the ids of ``labels`` (matcher_id + :data:`LABELS`), in
        that order, reading their ``bundle.grid``-sized maps from
        ``bundle.heatmaps`` (see :func:`heatmap_tensors`). The member of
        the e-th movement type is seeded ``seed + e``."""
        ids = labels["matcher_id"].tolist()
        Y = labels[LABELS].to_numpy(dtype=float)
        self.model = CNNClassifier(
            bundle.grid,
            len(ETYPE_NAMES),
            len(LABELS),
            filters=self.filters,
            epochs=self.epochs,
            seed=self.seed,
        ).fit(self._stack(bundle, ids), Y)
        return self

    def transform(self, bundle, ids: list[str]) -> pd.DataFrame:
        """matcher_id + the 16 coefficients for ``ids``, in that order."""
        if self.model is None:
            raise RuntimeError("fit() first")
        out = pd.DataFrame({"matcher_id": list(ids)})
        for name, P in zip(ETYPE_NAMES.values(), self.model.predict_proba(self._stack(bundle, ids))):
            for li, lab in enumerate(LABELS):
                out[f"spa_{name} ({LABEL_SHORT[lab]})"] = P[:, li]
        return out
