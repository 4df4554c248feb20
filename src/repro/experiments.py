"""Experiment harness — one function per paper table (DESIGN.md §5).

Everything is deterministic in ``seed``. Every (train, test) split runs
through :func:`_run_split`; the PO experiment object bundles its folds'
outputs, so Tables IIa, III and IV (and the §IV-F utilization analysis)
share one expensive extraction + training pass.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.baselines import baseline_predictions
from repro.core.evaluate import accuracy_row, bootstrap_pvalue, kfold_ids, matcher_scores
from repro.core.importance import permutation_importance, top_features
from repro.core.measures import attach_labels, cognitive_thresholds, train_fold_labels
from repro.core.mexi import (  # noqa: F401 (MExIModel re-exported)
    MExIModel,
    NNParams,
    PreparedData,
    _TransformStage,
    build_transform_stage,
    fit_from_stage,
    prepare,
)
from repro.core.utilize import fused_match, performance_table, select_experts
from repro.humansim import build_cohort

__all__ = [
    "POExperiment",
    "run_po_experiment",
    "table2a",
    "table2b",
    "table3",
    "table4",
    "utilization_tables",
    "population_tables",
    "MEXI_VARIANTS",
]

MEXI_VARIANTS = {"MExI_none": "none", "MExI_50": "50", "MExI_70": "70"}
# MExI's five feature sets, in the classifiers' column and Table III row order
MEXI_SETS = ("LRSM", "Mou", "Beh", "Seq", "Spa")
REFERENCE_METHOD = "LRSM"  # Table II's significance stars compare against it
METRICS = ["A_P", "A_R", "A_Res", "A_Cal", "A_ML"]
# Table III's refit masks; its full-mask row is Table IIa's MExI_50
ABLATION_MASKS = {
    **{f"include {s}": (s,) for s in MEXI_SETS},
    **{f"exclude {s}": tuple(x for x in MEXI_SETS if x != s) for s in MEXI_SETS},
}
# §IV-F selections: method → the Table IIa predictions it selects from
SELECTION_SOURCES = {"MExI": "MExI_50"} | {m: m for m in ["Conf", "Qual. Test", "Self-Assess"]}


@dataclass
class POExperiment:
    """Shared state of the PO 5-fold experiment."""

    data: PreparedData
    folds: list[tuple[list[str], list[str]]]
    truth: list[pd.DataFrame]  # per-fold test ground truth (train thresholds)
    preds: dict[str, list[pd.DataFrame]]  # method → per-fold test predictions
    stages_50: list = field(repr=False, default_factory=list)  # per-fold MExI_50 stage
    models_50: list[MExIModel] = field(repr=False, default_factory=list)
    nn: NNParams = NNParams()
    seed: int = 0


def _fold_seed(seed: int, fi: int) -> int:
    """Seed of fold ``fi``'s baselines, networks and classifiers."""
    return seed + 1000 * (fi + 1)


def _truth_for(
    data: PreparedData, train_ids: list[str], ids: list[str], test_data: PreparedData | None = None
) -> pd.DataFrame:
    """Ground-truth labels for ``ids`` of ``test_data`` (default ``data``)
    with thresholds from ``train_ids`` of ``data``."""
    lab, _, _ = train_fold_labels(data.measures, train_ids, (test_data or data).measures)
    return lab[lab["matcher_id"].isin(ids)]


def _run_split(
    data: PreparedData, train_ids: list[str], test_ids: list[str], *, nn: NNParams, seed: int,
    test_data: PreparedData | None = None,
) -> tuple[pd.DataFrame, dict[str, pd.DataFrame], _TransformStage, MExIModel]:
    """One (train, test) split of §IV-B1: the test matchers' ground truth,
    every method's predictions for them (7 baselines, LRSM and BEH as
    masks on the MExI_∅ stage, + 3 MExI variants) and the MExI_50 stage
    and model that Tables III and IV reuse.
    ``test_data`` is the test matchers' bundle when it is not the train
    one (Table IIb)."""
    truth = _truth_for(data, train_ids, test_ids, test_data)
    stages = {
        name: build_transform_stage(data, train_ids, submatcher=spec, nn=nn, seed=seed)
        for name, spec in MEXI_VARIANTS.items()
    }
    preds = baseline_predictions(
        data, stages["MExI_none"], test_ids, seed=seed, test_data=test_data
    )
    models = {name: fit_from_stage(stage, MEXI_SETS, seed=seed) for name, stage in stages.items()}
    for name, model in models.items():
        preds[name] = model.predict(test_ids, data=test_data)
    return truth, preds, stages["MExI_50"], models["MExI_50"]


def run_po_experiment(
    spark: SparkSession,
    *,
    n_matchers: int | None = None,
    k: int = 5,
    seed: int = 0,
    nn: NNParams = NNParams(),
    n_perm: int = 100,
    grid: int = 24,
) -> POExperiment:
    """Prepare the PO cohort and collect per-fold predictions of every
    method (7 baselines + 3 MExI variants) — §IV-B1's 5-fold protocol."""
    cohort = build_cohort("PO", n_matchers=n_matchers, seed=seed)
    data = prepare(spark, cohort, n_perm=n_perm, grid=grid, seed=seed)
    folds = kfold_ids(data.full_ids, k=k, seed=seed)
    splits = [
        _run_split(data, tr, te, nn=nn, seed=_fold_seed(seed, fi))
        for fi, (tr, te) in enumerate(folds)
    ]
    truth, fold_preds, stages_50, models_50 = map(list, zip(*splits))
    preds = {name: [p[name] for p in fold_preds] for name in fold_preds[0]}
    return POExperiment(
        data=data, folds=folds, truth=truth, preds=preds,
        stages_50=stages_50, models_50=models_50, nn=nn, seed=seed,
    )


def _pooled(dfs: list[pd.DataFrame]) -> pd.DataFrame:
    return pd.concat(dfs, ignore_index=True)


def _fold_mean(truth_by_fold: list[pd.DataFrame], fold_preds: list[pd.DataFrame]) -> dict:
    """One method's accuracies (:data:`METRICS`), each the mean over folds."""
    per_fold = [accuracy_row(t, p) for t, p in zip(truth_by_fold, fold_preds)]
    return {metric: float(np.mean([f[metric] for f in per_fold])) for metric in METRICS}


def _accuracy_table(
    truth_by_fold: list[pd.DataFrame],
    preds: dict[str, list[pd.DataFrame]],
    *,
    seed: int = 0,
) -> pd.DataFrame:
    """Table II layout: per-method mean accuracies over folds plus a
    bootstrap significance flag vs the paper's top baseline (LRSM)."""
    truth_all = _pooled(truth_by_fold)
    rows = []
    ref_scores = (
        matcher_scores(truth_all, _pooled(preds[REFERENCE_METHOD]))
        if REFERENCE_METHOD in preds
        else None
    )
    for method, fold_preds in preds.items():
        row = {"method": method, **_fold_mean(truth_by_fold, fold_preds)}
        if ref_scores is not None and method != REFERENCE_METHOD:
            scores = matcher_scores(truth_all, _pooled(fold_preds))
            row["sig_vs_LRSM"] = all(
                bootstrap_pvalue(scores[m], ref_scores[m], seed=seed) < 0.05
                for m in ["A_P", "A_ML"]
            )
        else:
            row["sig_vs_LRSM"] = False
        rows.append(row)
    return pd.DataFrame(rows)


def table2a(exp: POExperiment) -> pd.DataFrame:
    """Table IIa — expert identification accuracy on the PO task."""
    return _accuracy_table(exp.truth, exp.preds, seed=exp.seed)


def table2b(
    spark: SparkSession,
    *,
    po_n: int | None = None,
    oaei_n: int | None = None,
    seed: int = 0,
    nn: NNParams = NNParams(),
    n_perm: int = 100,
    grid: int = 24,
) -> pd.DataFrame:
    """Table IIb — generalizability: train on the PO cohort, test on the
    OAEI cohort (cross-bundle prediction)."""
    po = build_cohort("PO", n_matchers=po_n, seed=seed)
    oaei = build_cohort("OAEI", n_matchers=oaei_n, seed=seed)
    data_po = prepare(spark, po, n_perm=n_perm, grid=grid, seed=seed)
    data_oa = prepare(spark, oaei, sub_sizes=[], n_perm=n_perm, grid=grid, seed=seed)
    truth, preds, _, _ = _run_split(
        data_po, data_po.full_ids, data_oa.full_ids, nn=nn, seed=seed, test_data=data_oa
    )
    return _accuracy_table([truth], {name: [p] for name, p in preds.items()}, seed=seed)


def table3(exp: POExperiment) -> pd.DataFrame:
    """Table III — feature-set ablation of MExI_50 (include / exclude).

    The full-mask row is Table IIa's MExI_50 predictions; every other
    mask refits only the final classifiers on the per-fold MExI_50
    transform stages, so the networks are trained once per fold.
    """
    preds = {"MExI_50": exp.preds["MExI_50"]}
    for cname, mask in ABLATION_MASKS.items():
        preds[cname] = [
            fit_from_stage(stage, mask, seed=_fold_seed(exp.seed, fi)).predict(te)
            for fi, (stage, (_, te)) in enumerate(zip(exp.stages_50, exp.folds))
        ]
    return pd.DataFrame(
        [{"config": cname, **_fold_mean(exp.truth, p)} for cname, p in preds.items()]
    )


def table4(exp: POExperiment, *, n_rep: int = 5) -> pd.DataFrame:
    """Table IV — top-2 informative features per feature set per label
    (permutation importance over the per-fold test sets, averaged)."""
    imps = []
    for fi, (_, te) in enumerate(exp.folds):
        imps.append(
            permutation_importance(
                exp.models_50[fi], exp.truth[fi], te, n_rep=n_rep, seed=exp.seed + fi
            )
        )
    mean_imp = (
        pd.concat(imps)
        .groupby(["feature", "set", "label"], as_index=False)["importance"]
        .mean()
    )
    return top_features(mean_imp, k=2)


def utilization_tables(
    spark: SparkSession, exp: POExperiment, *, early_limit: int = 30
) -> dict[str, pd.DataFrame]:
    """§IV-F — matching-outcome improvement (Figs. 10 & 11 as tables).

    Selections: every matcher appears in exactly one test fold, so
    pooling per-fold test selections yields one selection over the whole
    cohort per method. Early identification re-extracts features from
    the first ``early_limit`` decisions and predicts with the
    full-history-trained fold models; performance is always evaluated on
    the full history.
    """
    data = exp.data
    # -- full-history identification (Fig. 10)
    selections = {"no_filter": list(data.full_ids)}
    for method, source in SELECTION_SOURCES.items():
        selections[method] = sorted(m for p in exp.preds[source] for m in select_experts(p))
    perf_full = performance_table(data, selections)

    # -- early identification (Fig. 11): MExI retrained on the train
    # matchers' TRUNCATED-history features with their FULL-history labels
    # (§IV-F — "does not require labels for those decisions"; the early
    # bundle keeps the full-history measures), then applied to the test
    # matchers' truncated histories.
    data_early = prepare(
        spark, data.cohort, sub_sizes=[], n_perm=20, grid=data.grid,
        decision_limit=early_limit, seed=exp.seed,
    )
    data_early = replace(data_early, measures=data.measures)
    early_sel: list[str] = []
    for fi, (tr, te) in enumerate(exp.folds):
        fold_seed = _fold_seed(exp.seed, fi)
        stage = build_transform_stage(data_early, tr, submatcher="none", nn=exp.nn, seed=fold_seed)
        early_sel += select_experts(fit_from_stage(stage, MEXI_SETS, seed=fold_seed).predict(te))
    early_selections = {m: ids for m, ids in selections.items() if m != "MExI"}
    early_selections["MExI (early)"] = sorted(early_sel)
    perf_early = performance_table(data, early_selections)

    # -- fused match: correspondence filtering + vote aggregation
    fused = pd.DataFrame(
        [{"method": m, **fused_match(spark, data, ids)} for m, ids in selections.items()]
    )
    return {"perf_full": perf_full, "perf_early": perf_early, "fused": fused}


def population_tables(spark: SparkSession, *, seed: int = 0, n_perm: int = 100) -> pd.DataFrame:
    """§IV-C / Figs. 8–9 — population-level measure means and expert
    proportions for both cohorts."""
    rows = []
    for kind in ["PO", "OAEI"]:
        cohort = build_cohort(kind, seed=seed)
        data = prepare(spark, cohort, sub_sizes=[], n_perm=n_perm, seed=seed)
        m = data.measures
        d_res, d_cal = cognitive_thresholds(m)
        lab = attach_labels(m, delta_res=d_res, delta_cal=d_cal)
        under = m[m["cal"] < 0]
        pos = m[m["res"] > 0]
        rows.append(
            {
                "cohort": kind,
                "n_matchers": len(m),
                "n_decisions": int(len(cohort.decisions)),
                "mean_P": m["P"].mean(),
                "mean_R": m["R"].mean(),
                "mean_abs_Res": m["res"].abs().mean(),
                "mean_pos_Res": pos["res"].mean() if len(pos) else float("nan"),
                "mean_abs_Cal": m["cal"].abs().mean(),
                "mean_underconf_abs_Cal": under["cal"].abs().mean() if len(under) else float("nan"),
                "frac_precise": lab["E_P"].mean(),
                "frac_thorough": lab["E_R"].mean(),
                "frac_correlated": lab["E_Res"].mean(),
                "frac_calibrated": lab["E_Cal"].mean(),
            }
        )
    return pd.DataFrame(rows)
