"""MExI — Matching Expert Identification (§III, Fig. 7).

Two-stage API designed around the experiment structure:

- :func:`prepare` runs every fold-independent extraction ONCE over the
  cohort plus all sub-matcher windows (measures, Φ_LRSM/Φ_Beh/Φ_Mou,
  sequences, heat maps, final matrices) as one cogrouped Spark pass with
  a per-matcher kernel (:mod:`repro.core.extract`) and collects
  cohort-scale frames to the driver.
- :func:`train_mexi` / :meth:`MExIModel.predict` then run per fold /
  per configuration entirely on the prepared bundle: train-fold
  thresholds → labels, train-only consensus, LSTM/CNN late fusion,
  binary-relevance classifier selection (logistic regression vs random
  forest, 3-fold CV as §IV-B2's "top performing classifier").
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.extract import (
    COUNT_COLUMNS,
    ENTRY_COLUMNS,
    HEATMAP_COLUMNS,
    SEQUENCE_COLUMNS,
    extract,
)
from repro.core.features import ALL_SETS, FEATURE_SETS
from repro.core.measures import LABELS, MEASURE_COLUMNS, attach_labels, cognitive_thresholds
from repro.core.sequential import SeqFeatureExtractor
from repro.core.spatial import SpaFeatureExtractor, heatmap_tensors
from repro.core.submatchers import is_sub, parent_of, spec_of, submatcher_sizes
from repro.humansim.cohort import Cohort
from repro.ml.forest import RandomForest
from repro.ml.logreg import LogisticRegression

# Imported only so that perfbench/tracing.py, which patches these names
# when it installs, finds them; ``prepare`` calls none of them.
from repro.core.features import aggregated_features  # noqa: F401
from repro.core.matrix import history_to_matrix  # noqa: F401
from repro.core.measures import matcher_measures  # noqa: F401
from repro.core.mouse import heatmap_counts  # noqa: F401
from repro.core.sequential import decision_sequences  # noqa: F401
from repro.core.submatchers import expand_submatchers  # noqa: F401

__all__ = [
    "NNParams",
    "PreparedData",
    "MExIModel",
    "prepare",
    "train_mexi",
    "build_transform_stage",
    "fit_from_stage",
]


@dataclass(frozen=True)
class NNParams:
    """Network hyper-parameters (§IV-B1 defaults, scaled-down options
    for tests)."""

    lstm_hidden: int = 64
    lstm_dense: int = 100
    lstm_epochs: int = 40
    max_len: int = 70
    grid: int = 24
    cnn_filters: int = 8
    cnn_epochs: int = 60


@dataclass
class PreparedData:
    """Fold-independent extraction products for a cohort (+ submatchers)."""

    cohort: Cohort
    features: pd.DataFrame  # Φ_LRSM+Φ_Beh+Φ_Mou per (real or virtual) id
    measures: pd.DataFrame  # P/R/res/res_pval/cal/conf_mean per id
    sequences: pd.DataFrame  # ordered decision sequences per id
    heatmaps: dict  # (id, etype) → grid x grid tensor
    matrix_entries: pd.DataFrame  # final matrix pairs of REAL matchers
    warmup_measures: pd.DataFrame  # measures on the Thalia phase (baselines)
    grid: int

    @property
    def full_ids(self) -> list[str]:
        return self.cohort.matcher_ids

    def sub_ids_for(self, parents: list[str], spec: str) -> list[str]:
        sizes = set(submatcher_sizes(spec))
        pset = set(parents)
        return [
            m
            for m in self.features["matcher_id"]
            if spec_of(m) in sizes and parent_of(m) in pset
        ]


def _ints(frame: pd.DataFrame) -> pd.DataFrame:
    """Count columns back to int64: real, virtual and warm-up rows share
    one collected frame, whose nulls turned them into floats."""
    return frame.astype({c: "int64" for c in COUNT_COLUMNS.intersection(frame.columns)})


def _explode(rows: pd.DataFrame, columns: list[str], names: list[str]) -> pd.DataFrame:
    """Long frame from per-id array columns, keyed by matcher_id."""
    lengths = rows[columns[0]].map(len).to_numpy()
    out = {"matcher_id": np.repeat(rows["matcher_id"].to_numpy(), lengths)}
    for col, name in zip(columns, names):
        parts = rows[col].tolist()
        out[name] = np.concatenate(parts) if parts else np.array([], dtype=np.int64)
    return pd.DataFrame(out)


def prepare(
    spark: SparkSession,
    cohort: Cohort,
    *,
    sub_sizes: list[int] | None = None,
    n_perm: int = 200,
    grid: int = 24,
    decision_limit: int | None = None,
    seed: int = 0,
) -> PreparedData:
    """Run all Spark-side extraction once (see module docstring).

    ``decision_limit`` truncates each matcher's preprocessed history to its
    first N decisions — the §IV-F early-identification setting.
    ``sub_sizes`` defaults to the union needed by MExI_50 and MExI_70.
    Measures are only computed for REAL matchers: sub-matchers inherit
    their parent's labels (features from the window, labels of the
    matcher — which is what lets a trained MExI judge a *partial* history
    in the §IV-F early-identification setting).
    """
    if sub_sizes is None:
        sub_sizes = sorted(set(submatcher_sizes("50")) | set(submatcher_sizes("70")))
    rows = extract(
        spark,
        cohort,
        sub_sizes=sub_sizes,
        grid=grid,
        n_perm=n_perm,
        seed=seed,
        decision_limit=decision_limit,
    )
    main = rows[rows["phase"] == "main"].reset_index(drop=True)
    real = main[~main["matcher_id"].map(is_sub)].reset_index(drop=True)
    warmup = rows[rows["phase"] == "warmup"].reset_index(drop=True)
    keys = ["matcher_id", "task"]
    aggregated = [c for s in ("LRSM", "Beh", "Mou") for c in FEATURE_SETS[s]]
    hm = _explode(main, HEATMAP_COLUMNS, ["etype", "bx", "by", "cnt"])
    return PreparedData(
        cohort=cohort,
        features=_ints(main[keys + aggregated]),
        measures=_ints(real[MEASURE_COLUMNS]),
        sequences=main[keys + SEQUENCE_COLUMNS],
        heatmaps=heatmap_tensors(hm, grid=grid),
        matrix_entries=_explode(real, ENTRY_COLUMNS, ["row_i", "col_j"]),
        warmup_measures=_ints(warmup[MEASURE_COLUMNS]),
        grid=grid,
    )


def _consensus_from_entries(matrix_entries: pd.DataFrame, train_ids: list[str]) -> dict:
    sub = matrix_entries[matrix_entries["matcher_id"].isin(train_ids)]
    counts = sub.groupby(["row_i", "col_j"])["matcher_id"].nunique()
    return {(int(i), int(j)): int(n) for (i, j), n in counts.items()}


class _Constant:
    """Degenerate classifier for single-class training labels."""

    def __init__(self, value: int) -> None:
        self.value = value

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.full(len(X), self.value, dtype=int)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return np.full(len(X), float(self.value))


class _Thresholded:
    """Classifier with a tuned decision threshold.

    Expert labels are imbalanced (≈15% thorough, ≈20% correlated), so
    the default 0.5 cutoff under-predicts rare positives and the
    all-four expert conjunction of §IV-F would select nobody. The
    threshold maximizing F1 on held-out CV predictions restores the
    positive class."""

    def __init__(self, clf, threshold: float) -> None:
        self.clf = clf
        self.threshold = threshold

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.clf.predict_proba(X) >= self.threshold).astype(int)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return self.clf.predict_proba(X)


def _f1(proba: np.ndarray, y: np.ndarray, thr: float) -> float:
    pred = proba >= thr
    tp = float((pred & (y == 1)).sum())
    fp = float((pred & (y == 0)).sum())
    fn = float((~pred & (y == 1)).sum())
    return 2 * tp / max(2 * tp + fp + fn, 1e-9)


def _best_f1_threshold(proba: np.ndarray, y: np.ndarray) -> float:
    """Threshold tuned downward only: lowering the cutoff rescues rare
    positive labels; raising it never helps this problem and overfits
    on noisy CV probabilities. 0.5 is kept unless a lower cutoff beats
    it by a clear F1 margin."""
    base = _f1(proba, y, 0.5)
    best_thr, best_f1 = 0.5, base
    for thr in np.linspace(0.25, 0.45, 5):
        f1 = _f1(proba, y, thr)
        if f1 > best_f1 + 0.05:
            best_f1, best_thr = f1, float(thr)
    return best_thr


def _fit_best_classifier(X: np.ndarray, y: np.ndarray, *, seed: int):
    """§IV-B2: train candidate classifiers, keep the top performer
    (3-fold CV accuracy on the training rows), then tune its decision
    threshold for F1 on the same CV predictions."""
    if len(np.unique(y)) == 1:
        return _Constant(int(y[0]))
    candidates = [
        lambda s: LogisticRegression(seed=s),
        lambda s: RandomForest(n_estimators=60, seed=s),
    ]
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(y))
    scores = []
    cv_probas = []
    for make in candidates:
        accs = []
        proba = np.full(len(y), np.nan)
        for f in range(3):
            te = order[f::3]
            tr = np.setdiff1d(order, te)
            if len(np.unique(y[tr])) == 1:
                accs.append(float((y[te] == y[tr][0]).mean()))
                proba[te] = float(y[tr][0])
                continue
            clf = make(seed).fit(X[tr], y[tr])
            proba[te] = clf.predict_proba(X[te])
            accs.append(float(((proba[te] >= 0.5).astype(int) == y[te]).mean()))
        scores.append(float(np.mean(accs)))
        cv_probas.append(proba)
    k = int(np.argmax(scores))
    thr = _best_f1_threshold(cv_probas[k], y)
    return _Thresholded(candidates[k](seed).fit(X, y), thr)


@dataclass
class MExIModel:
    """A trained expert characterizer f: D → Y (Problem 1)."""

    include_sets: tuple[str, ...]
    feature_cols: list[str]
    classifiers: dict[str, object]
    delta_res: float
    delta_cal: float
    transformed: pd.DataFrame = field(repr=False)  # Φ(D) rows for every id
    consensus: dict = field(repr=False, default_factory=dict)
    seq_ex: SeqFeatureExtractor | None = field(repr=False, default=None)
    spa_ex: SpaFeatureExtractor | None = field(repr=False, default=None)

    def transform_bundle(self, data: "PreparedData", ids: list[str]) -> pd.DataFrame:
        """Φ(D) rows for ``ids`` of a *different* prepared bundle, using
        this model's trained extractors and train-time consensus map.

        Used for cross-domain prediction (Table IIb: PO-trained model on
        OAEI matchers) and early identification (§IV-F: features from
        truncated histories)."""
        rows = data.features[data.features["matcher_id"].isin(ids)].copy()
        if self.seq_ex is not None:
            seqs = data.sequences[data.sequences["matcher_id"].isin(ids)]
            rows = rows.merge(
                self.seq_ex.transform(seqs, self.consensus),
                on=["matcher_id", "task"],
                how="left",
            )
        if self.spa_ex is not None:
            rows = rows.merge(
                self.spa_ex.transform(
                    data.heatmaps, rows["matcher_id"].tolist(), rows["task"].tolist()
                ),
                on=["matcher_id", "task"],
                how="left",
            )
        return rows

    def predict_on(self, data: "PreparedData", ids: list[str]) -> pd.DataFrame:
        """Predict labels for matchers of another prepared bundle."""
        rows = self.transform_bundle(data, ids).set_index("matcher_id").loc[ids]
        X = rows[self.feature_cols].to_numpy(dtype=float)
        out = pd.DataFrame({"matcher_id": ids})
        for lab in LABELS:
            out[lab] = self.classifiers[lab].predict(X)
        return out

    def predict(self, ids: list[str]) -> pd.DataFrame:
        """Binary-relevance predictions for the four expertise labels."""
        rows = self.transformed.set_index("matcher_id").loc[ids]
        X = rows[self.feature_cols].to_numpy(dtype=float)
        out = pd.DataFrame({"matcher_id": ids})
        for lab in LABELS:
            out[lab] = self.classifiers[lab].predict(X)
        return out

    def predict_proba(self, ids: list[str]) -> pd.DataFrame:
        rows = self.transformed.set_index("matcher_id").loc[ids]
        X = rows[self.feature_cols].to_numpy(dtype=float)
        out = pd.DataFrame({"matcher_id": ids})
        for lab in LABELS:
            out[lab] = self.classifiers[lab].predict_proba(X)
        return out


@dataclass
class _TransformStage:
    """Networks + transformed feature table for one (fold, submatcher)
    configuration — shared across ablation configs (Table III) because
    the network outputs do not depend on the final classifier's
    feature-set mask."""

    transformed: pd.DataFrame
    label_lookup: pd.DataFrame  # labels of REAL matchers, matcher_id-indexed
    fit_ids: list[str]
    consensus: dict
    delta_res: float
    delta_cal: float
    seq_ex: SeqFeatureExtractor | None
    spa_ex: SpaFeatureExtractor | None

    def labels_for(self, ids: list[str]) -> pd.DataFrame:
        """Labels for real or virtual ids (virtuals inherit the parent's)."""
        return _labels_for(self.label_lookup, ids)


def _labels_for(label_lookup: pd.DataFrame, ids: list[str]) -> pd.DataFrame:
    rows = label_lookup.loc[[parent_of(m) for m in ids]].reset_index(drop=True)
    rows.insert(0, "matcher_id", ids)
    return rows


def _overlay_oof(full: pd.DataFrame, oof: pd.DataFrame) -> pd.DataFrame:
    """Replace the full-fit network coefficients with out-of-fold ones
    for the rows that have them (the classifier-training rows)."""
    out = full.set_index("matcher_id")
    oof = oof.set_index("matcher_id")
    cols = [c for c in oof.columns if c != "task"]
    out.loc[oof.index, cols] = oof[cols]
    return out.reset_index()


def build_transform_stage(
    data: PreparedData,
    train_ids: list[str],
    *,
    submatcher: str = "50",
    need_seq: bool = True,
    need_spa: bool = True,
    nn: NNParams = NNParams(),
    seed: int = 0,
    label_data: PreparedData | None = None,
) -> _TransformStage:
    """Stage 1: thresholds, labels, consensus, late-fusion networks.

    ``label_data`` lets labels come from a different bundle than the
    features — the §IV-F early-identification setting trains on
    *truncated-history* features with *full-history* labels ("does not
    require labels for those decisions": the full-history train labels
    already exist).
    """
    label_source = (label_data or data).measures
    # 1. cognitive thresholds + labels from the train fold (Eqs. 4–5)
    train_meas = label_source[label_source["matcher_id"].isin(train_ids)]
    delta_res, delta_cal = cognitive_thresholds(train_meas)
    label_lookup = attach_labels(
        label_source, delta_res=delta_res, delta_cal=delta_cal
    )[["matcher_id", *LABELS]].set_index("matcher_id")

    # 2. training rows: real train matchers + their sub-matchers
    fit_ids = list(train_ids) + data.sub_ids_for(train_ids, submatcher)

    # 3. train-only consensus for the sequential channel
    consensus = _consensus_from_entries(data.matrix_entries, train_ids)

    # 4. late fusion: train networks on fit rows, transform every id.
    # The classifier must NOT see the networks' optimistic predictions on
    # their own training rows (that over-weights the fused features and
    # hurts test accuracy), so fit rows get OUT-OF-FOLD coefficients:
    # the fit set is split in halves, a network trained on each half
    # scores the other, while the final full-fit networks score all
    # remaining (test-time) rows.
    transformed = data.features.copy()
    fit_labels = _labels_for(label_lookup, fit_ids)
    rng = np.random.default_rng(seed + 101)
    order = rng.permutation(len(fit_ids))
    use_oof = len(fit_ids) >= 8  # tiny test fixtures skip cross-fitting
    halves = [
        [fit_ids[i] for i in order[: len(fit_ids) // 2]],
        [fit_ids[i] for i in order[len(fit_ids) // 2 :]],
    ]
    seq_ex = spa_ex = None
    if need_seq:
        seq_ex = SeqFeatureExtractor(
            hidden=nn.lstm_hidden, dense=nn.lstm_dense, epochs=nn.lstm_epochs,
            max_len=nn.max_len, seed=seed,
        )
        fit_seqs = data.sequences[data.sequences["matcher_id"].isin(fit_ids)]
        seq_ex.fit(fit_seqs, fit_labels, consensus, LABELS)
        seq_feats = seq_ex.transform(data.sequences, consensus)
        oof_parts = []
        for h in (0, 1) if use_oof else ():
            tr_h, te_h = halves[h], halves[1 - h]
            ex_h = SeqFeatureExtractor(
                hidden=nn.lstm_hidden, dense=nn.lstm_dense, epochs=nn.lstm_epochs,
                max_len=nn.max_len, seed=seed + 7 + h,
            )
            ex_h.fit(
                fit_seqs[fit_seqs["matcher_id"].isin(tr_h)],
                _labels_for(label_lookup, tr_h),
                consensus,
                LABELS,
            )
            oof_parts.append(
                ex_h.transform(
                    data.sequences[data.sequences["matcher_id"].isin(te_h)], consensus
                )
            )
        if oof_parts:
            seq_feats = _overlay_oof(seq_feats, pd.concat(oof_parts, ignore_index=True))
        transformed = transformed.merge(seq_feats, on=["matcher_id", "task"], how="left")
    if need_spa:
        spa_ex = SpaFeatureExtractor(
            grid=data.grid, filters=nn.cnn_filters, epochs=nn.cnn_epochs, seed=seed
        )
        spa_ex.fit(data.heatmaps, fit_labels, LABELS)
        spa_feats = spa_ex.transform(
            data.heatmaps,
            transformed["matcher_id"].tolist(),
            transformed["task"].tolist(),
        )
        oof_parts = []
        for h in (0, 1) if use_oof else ():
            tr_h, te_h = halves[h], halves[1 - h]
            ex_h = SpaFeatureExtractor(
                grid=data.grid, filters=nn.cnn_filters, epochs=nn.cnn_epochs,
                seed=seed + 13 + h,
            )
            ex_h.fit(data.heatmaps, _labels_for(label_lookup, tr_h), LABELS)
            te_tasks = (
                transformed.set_index("matcher_id")["task"].loc[te_h].tolist()
            )
            oof_parts.append(ex_h.transform(data.heatmaps, te_h, te_tasks))
        if oof_parts:
            spa_feats = _overlay_oof(spa_feats, pd.concat(oof_parts, ignore_index=True))
        transformed = transformed.merge(spa_feats, on=["matcher_id", "task"], how="left")
    return _TransformStage(
        transformed=transformed,
        label_lookup=label_lookup,
        fit_ids=fit_ids,
        consensus=consensus,
        delta_res=delta_res,
        delta_cal=delta_cal,
        seq_ex=seq_ex,
        spa_ex=spa_ex,
    )


def fit_from_stage(
    stage: _TransformStage, include_sets: tuple[str, ...], *, seed: int = 0
) -> MExIModel:
    """Stage 2: binary-relevance classifiers with model selection
    (§IV-B2) over the feature-set mask ``include_sets``."""
    unknown = set(include_sets) - set(ALL_SETS)
    if unknown:
        raise ValueError(f"unknown feature sets: {sorted(unknown)}")
    feature_cols = [
        c for s in include_sets for c in FEATURE_SETS[s] if c in stage.transformed.columns
    ]
    fit_rows = stage.transformed[
        stage.transformed["matcher_id"].isin(stage.fit_ids)
    ].merge(stage.labels_for(stage.fit_ids), on="matcher_id")
    X = fit_rows[feature_cols].to_numpy(dtype=float)
    classifiers = {}
    for li, lab in enumerate(LABELS):
        y = fit_rows[lab].to_numpy(dtype=int)
        classifiers[lab] = _fit_best_classifier(X, y, seed=seed + 17 * li)
    return MExIModel(
        include_sets=tuple(include_sets),
        feature_cols=feature_cols,
        classifiers=classifiers,
        delta_res=stage.delta_res,
        delta_cal=stage.delta_cal,
        transformed=stage.transformed,
        consensus=stage.consensus,
        seq_ex=stage.seq_ex if "Seq" in include_sets else None,
        spa_ex=stage.spa_ex if "Spa" in include_sets else None,
    )


def train_mexi(
    data: PreparedData,
    train_ids: list[str],
    *,
    submatcher: str = "50",
    include_sets: tuple[str, ...] = ALL_SETS,
    nn: NNParams = NNParams(),
    seed: int = 0,
) -> MExIModel:
    """Train MExI on the given real train matchers.

    ``submatcher`` ∈ {'none', '50', '70'} (MExI_∅ / MExI_50 / MExI_70).
    ``include_sets`` restricts the feature sets — the ablation axis of
    Table III and the mechanism behind the LRSM/BEH baselines.
    """
    stage = build_transform_stage(
        data,
        train_ids,
        submatcher=submatcher,
        need_seq="Seq" in include_sets,
        need_spa="Spa" in include_sets,
        nn=nn,
        seed=seed,
    )
    return fit_from_stage(stage, tuple(include_sets), seed=seed)
