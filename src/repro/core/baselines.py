"""The seven baselines of §IV-B2.

- ``Rand`` — uniform random labels.
- ``Rand_Freq`` — labels drawn with the training-set label frequencies.
- ``Conf`` — trust self-reported confidence [31]: a matcher is an expert
  (all four labels) iff her mean reported confidence exceeds the train
  median.
- ``Qual. Test`` — the warm-up phase as qualification test [45]: expert
  iff warm-up precision > 0.5.
- ``Self-Assess`` — Gadiraju-style pre-selection [14]: expert iff
  warm-up |Cal| < 0.2 and warm-up P > 0.6 (the paper's exact rule).
- ``LRSM`` [16] — learned classifier over Φ_LRSM only.
- ``BEH`` [19] — learned classifier over the aggregated behavioral
  feature sets (Φ_Beh + Φ_Mou).

The learning-based baselines are include-masks of the MExI_∅ stage, as
Table III's are of MExI_50: MExI's classifier selection over the real
train matchers (no sub-matchers), reading no network output.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.measures import LABELS
from repro.core.mexi import PreparedData, _TransformStage, fit_from_stage

__all__ = ["BASELINE_NAMES", "baseline_predictions"]

BASELINE_NAMES = ["Rand", "Rand_Freq", "Conf", "Qual. Test", "Self-Assess", "LRSM", "BEH"]


def _uniform(ids: list[str], rng: np.random.Generator) -> pd.DataFrame:
    out = pd.DataFrame({"matcher_id": ids})
    for lab in LABELS:
        out[lab] = rng.integers(0, 2, len(ids))
    return out


def _freq(ids: list[str], train_labels: pd.DataFrame, rng: np.random.Generator) -> pd.DataFrame:
    out = pd.DataFrame({"matcher_id": ids})
    for lab in LABELS:
        p = float(train_labels[lab].mean())
        out[lab] = (rng.random(len(ids)) < p).astype(int)
    return out


def _all_same(ids: list[str], expert: pd.Series) -> pd.DataFrame:
    out = pd.DataFrame({"matcher_id": ids})
    bit = expert.reindex(ids).fillna(0).astype(int).to_numpy()
    for lab in LABELS:
        out[lab] = bit
    return out


def baseline_predictions(
    data: PreparedData,
    stage: _TransformStage,
    test_ids: list[str],
    *,
    seed: int = 0,
    test_data: PreparedData | None = None,
) -> dict[str, pd.DataFrame]:
    """Predictions of all seven baselines for ``test_ids``.

    ``stage`` is the split's MExI_∅ stage of ``data``: its fit ids are
    the real train matchers and its labels their ground truth under
    train-fold thresholds. ``test_data`` supports cross-cohort testing
    (Table IIb): test matchers' measures, warm-up phase and features come
    from that bundle, while everything learned (frequencies, medians,
    classifiers) comes from ``data``.
    """
    test_data = test_data or data
    rng = np.random.default_rng(seed)
    train_meas = data.measures.set_index("matcher_id")
    test_meas = test_data.measures.set_index("matcher_id")
    warm = test_data.warmup_measures.set_index("matcher_id")

    out: dict[str, pd.DataFrame] = {}
    out["Rand"] = _uniform(test_ids, rng)
    out["Rand_Freq"] = _freq(test_ids, stage.labels_for(stage.fit_ids), rng)

    conf_median = float(train_meas.loc[stage.fit_ids, "conf_mean"].median())
    out["Conf"] = _all_same(test_ids, test_meas["conf_mean"] > conf_median)
    out["Qual. Test"] = _all_same(test_ids, warm["P"] > 0.5)
    out["Self-Assess"] = _all_same(
        test_ids, (warm["P"] > 0.6) & (warm["cal"].abs() < 0.2)
    )

    for name, mask in [("LRSM", ("LRSM",)), ("BEH", ("Beh", "Mou"))]:
        out[name] = fit_from_stage(stage, mask, seed=seed).predict(test_ids, data=test_data)
    return out
