"""Φ_Seq — sequential decision features via LSTM late fusion (§III-B).

The per-decision sequence of a matcher has three channels (§III-B):
confidence ``(h_1.c … h_T.c)``, decision time deltas
``(h_2.t − h_1.t, …)``, and consensus ``π_i`` — the number of *training*
matchers whose final matrix contains the pair decided at step i.

One single-channel LSTM is trained per channel (so Table IV can report
channel-level importances like "consensus (P)"), the three as members of
one stacked ``LSTMClassifier``; each outputs four label coefficients.
The 3 x 4 coefficients are the Φ_Seq feature block, named
``seq_<channel> (<label>)`` after Table IV.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.core.measures import LABELS
from repro.ml.lstm import LSTMClassifier

__all__ = [
    "decision_sequences",
    "consensus_map",
    "SeqFeatureExtractor",
    "SEQ_CHANNELS",
    "LABEL_SHORT",
    "MAX_LEN",
]

SEQ_CHANNELS = ["conf", "time", "consensus"]
MAX_LEN = 70  # the LSTMs read the first MAX_LEN steps of a sequence
LABEL_SHORT = {"E_P": "P", "E_R": "R", "E_Res": "Res", "E_Cal": "Cal"}


def decision_sequences(decisions: DataFrame) -> pd.DataFrame:
    """Ordered per-matcher decision sequences, collected to the driver.

    The ordering window and time-delta run in Spark; the result is one
    row per matcher with array columns (confs, dts, rows, cols) — cohort
    scale, so collecting is the correct aggregation level (DESIGN.md §3).
    """
    w_seq = Window.partitionBy("matcher_id", "task").orderBy("t", "step")
    with_dt = decisions.withColumn(
        "_dt", F.coalesce(F.col("t") - F.lag("t").over(w_seq), F.lit(0.0))
    )
    agg = with_dt.groupBy("matcher_id", "task").agg(
        F.sort_array(
            F.collect_list(F.struct("t", "step", "conf", "_dt", "row_i", "col_j"))
        ).alias("seq")
    )
    # sort by id: collect order depends on Spark partitioning, and the
    # network batch order (hence training) must be run-deterministic
    pdf = agg.toPandas().sort_values("matcher_id").reset_index(drop=True)
    pdf["confs"] = pdf["seq"].map(lambda s: np.array([e["conf"] for e in s]))
    pdf["dts"] = pdf["seq"].map(lambda s: np.array([e["_dt"] for e in s]))
    pdf["rows"] = pdf["seq"].map(lambda s: np.array([e["row_i"] for e in s], dtype=int))
    pdf["cols"] = pdf["seq"].map(lambda s: np.array([e["col_j"] for e in s], dtype=int))
    return pdf.drop(columns=["seq"])


def consensus_map(matrix_entries: pd.DataFrame, train_ids: list[str]) -> dict[tuple[int, int], int]:
    """π: element pair → number of train matchers with the pair in their
    final matrix (computed on the training fold only — no leakage).

    ``matrix_entries`` has one row per (matcher_id, row_i, col_j) entry
    of a final matrix, as ``PreparedData.matrix_entries``."""
    sub = matrix_entries[matrix_entries["matcher_id"].isin(train_ids)]
    counts = sub.groupby(["row_i", "col_j"])["matcher_id"].nunique()
    return {(int(i), int(j)): int(n) for (i, j), n in counts.items()}


class SeqFeatureExtractor:
    """Trains one 3-member LSTM (a network per channel); emits the 12
    Φ_Seq late-fusion features.

    ``consensus`` is the train-fold map π (see :func:`consensus_map`); it
    feeds the consensus channel both when fitting and when transforming.
    """

    def __init__(self, consensus: dict, *, hidden: int = 64, dense: int = 100,
                 epochs: int = 40, seed: int = 0) -> None:
        self.consensus = consensus
        self.hidden = hidden
        self.dense = dense
        self.epochs = epochs
        self.seed = seed
        self.model: LSTMClassifier | None = None

    def _sequences(self, sequences: pd.DataFrame) -> list[np.ndarray]:
        """One (T_i, 3) array per row of the :data:`SEQ_CHANNELS`, cut to
        the first :data:`MAX_LEN` steps."""
        out = []
        for confs, dts, rows, cols in sequences[["confs", "dts", "rows", "cols"]].to_numpy():
            pairs = zip(rows[:MAX_LEN].tolist(), cols[:MAX_LEN].tolist())
            pi = [self.consensus.get(p, 0) for p in pairs]
            out.append(np.column_stack([confs[:MAX_LEN], dts[:MAX_LEN], np.array(pi, dtype=float)]))
        return out

    def fit(self, bundle, labels: pd.DataFrame) -> "SeqFeatureExtractor":
        """Train on the ids of ``labels`` (matcher_id + :data:`LABELS`),
        reading their sequences from ``bundle.sequences`` (the columns of
        :func:`decision_sequences`), in bundle order. Channel c's member
        is seeded ``seed + c``."""
        joined = bundle.sequences.merge(labels[["matcher_id", *LABELS]], on="matcher_id")
        Y = joined[LABELS].to_numpy(dtype=float)
        self.model = LSTMClassifier(
            len(SEQ_CHANNELS),
            len(LABELS),
            hidden=self.hidden,
            dense=self.dense,
            epochs=self.epochs,
            seed=self.seed,
        ).fit(self._sequences(joined), Y)
        return self

    def transform(self, bundle, ids: list[str]) -> pd.DataFrame:
        """matcher_id + the 12 coefficients for the ``ids`` of
        ``bundle.sequences``, in bundle order."""
        if self.model is None:
            raise RuntimeError("fit() first")
        seqs = bundle.sequences[bundle.sequences["matcher_id"].isin(ids)]
        out = seqs[["matcher_id"]].copy()
        for ch, P in zip(SEQ_CHANNELS, self.model.predict_proba(self._sequences(seqs))):
            for li, lab in enumerate(LABELS):
                out[f"seq_{ch} ({LABEL_SHORT[lab]})"] = P[:, li]
        return out
