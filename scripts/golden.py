"""Bench-scale golden of the MExI driver learning layer.

Pins what the learning layer computes before a refactor of it, so the
refactor can be shown to change nothing. ``dump`` runs one checkout at
bench scale (``benchmarks/_config.py``: 36 PO matchers, k=3, n_perm=30,
grid=16, ``BENCH_NN``; fold 0, fold seed 1000) and pickles one frame per
item:

- ``transformed.<variant>``: the Φ(D) table of the MExI_none/50/70
  transform stages and of the §IV-F early-identification stage;
- ``stage.labels`` / ``stage.thresholds``: each of those stages' label
  lookup, cognitive thresholds and number of fit rows;
- ``predict.<variant>``: test-fold predictions of each stage's model;
- ``proba.<variant>``: each label's ``predict_proba`` of the MExI_none/50/70
  models on the test fold, so the classifiers' probabilities are pinned,
  not only the labels they threshold to;
- ``selection.<variant>``: per label of the MExI_none/50/70 models, the
  winning classifier, both candidates' 3-fold CV accuracies and the
  tuned threshold (a constant label has no scores and no threshold);
- ``predict.early_bundle`` / ``predict.oaei_bundle``: the MExI_50 model
  predicting the test matchers of the early (first 15 decisions) bundle
  and every matcher of a 12-matcher OAEI bundle;
- ``ablation.predictions`` / ``ablation.winners`` /
  ``ablation.thresholds``: the eleven Table III masks refit on the
  MExI_50 stage;
- ``importance``: permutation importance of the MExI_50 model;
- ``baselines.own`` / ``baselines.oaei``: the seven baselines on the
  test fold and on the OAEI bundle;
- ``truth.fold0`` / ``truth.oaei``: ground-truth labels from train-fold
  thresholds;
- ``tables.<name>``: every frame the table harness returns at bench
  scale (all ``k`` folds, seed 0): ``table2a``, ``table3``, ``table4``
  and ``utilize_perf_full`` / ``utilize_perf_early`` / ``utilize_fused``
  (``utilization_tables``, early limit 15) of one ``run_po_experiment``,
  and ``table2b`` (bench-scale PO cohort, 12 OAEI matchers).

``compare`` prints, per item, whether the two dumps are
``DataFrame.equals`` with the same columns and dtypes, and exits 1 if
any item differs or is missing. For an item whose values differ it also
prints how many rows differ and, per numeric column, the largest
absolute difference, so a change that is not bit-equal says how far off
it is.

Run (the hash seed is fixed to 0, re-executing if needed, because the
cohort depends on it; 65–80 s on 4 cores):

    python scripts/golden.py dump OUT_DIR [--repo CHECKOUT]
    python scripts/golden.py compare A_DIR B_DIR

``--repo`` names the checkout whose ``src/``, ``jobs/`` and
``benchmarks/`` are imported (default: this one).
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

import numpy as np
import pandas as pd

ROOT = Path(__file__).resolve().parent.parent
FULL = ("LRSM", "Mou", "Beh", "Seq", "Spa")
VARIANTS = {"MExI_none": "none", "MExI_50": "50", "MExI_70": "70"}
EARLY_LIMIT = 15
OAEI_N = 12
FOLD_SEED = 1000  # the experiments' seed of fold 0


def _masks() -> dict[str, tuple[str, ...]]:
    masks = {"MExI_50": FULL}
    masks.update({f"include {s}": (s,) for s in FULL})
    masks.update({f"exclude {s}": tuple(x for x in FULL if x != s) for s in FULL})
    return masks


def _predict_other(model, data, ids: list[str]) -> pd.DataFrame:
    """Predictions for matchers of another bundle; checkouts older than
    the single ``predict(ids, data=)`` path call it ``predict_on``."""
    if hasattr(model, "predict_on"):
        return model.predict_on(data, ids)
    return model.predict(ids, data=data)


def _truth(train_data, train_ids: list[str], data, ids: list[str]) -> pd.DataFrame:
    """Labels of ``ids`` in ``data``, thresholds from ``train_ids`` of
    ``train_data``; built from the two functions every checkout has, so
    that older checkouts can be dumped too."""
    from repro.core.measures import LABELS, attach_labels, cognitive_thresholds

    meas = train_data.measures
    d_res, d_cal = cognitive_thresholds(meas[meas["matcher_id"].isin(train_ids)])
    lab = attach_labels(data.measures, delta_res=d_res, delta_cal=d_cal)
    return lab[lab["matcher_id"].isin(ids)][["matcher_id", *LABELS]].reset_index(drop=True)


def _cv_scores(X: np.ndarray, y: np.ndarray, seed: int) -> dict[str, float]:
    """Both candidates' 3-fold CV accuracies as the per-label selection
    computes them, for checkouts whose classifiers do not keep them."""
    from repro.ml.forest import RandomForest
    from repro.ml.logreg import LogisticRegression

    order = np.random.default_rng(seed).permutation(len(y))
    candidates = {
        "LogisticRegression": lambda s: LogisticRegression(seed=s),
        "RandomForest": lambda s: RandomForest(n_estimators=60, seed=s),
    }
    scores = {}
    for name, make in candidates.items():
        accs = []
        for f in range(3):
            te = order[f::3]
            tr = np.setdiff1d(order, te)
            if len(np.unique(y[tr])) == 1:
                pred = np.full(len(te), y[tr][0])
            else:
                pred = (make(seed).fit(X[tr], y[tr]).predict_proba(X[te]) >= 0.5).astype(int)
            accs.append(float((pred == y[te]).mean()))
        scores[name] = float(np.mean(accs))
    return scores


def _selection(stage, model, seed: int) -> pd.DataFrame:
    """Per label: the winner, both CV accuracies and the threshold."""
    from repro.core.measures import LABELS

    fit_rows = stage.transformed[stage.transformed["matcher_id"].isin(stage.fit_ids)].merge(
        stage.labels_for(stage.fit_ids), on="matcher_id"
    )
    X = fit_rows[model.feature_cols].to_numpy(dtype=float)
    rows = []
    for li, lab in enumerate(LABELS):
        clf = model.classifiers[lab]
        row = {"label": lab, "clf": type(getattr(clf, "clf", clf)).__name__,
               "cv_LogisticRegression": np.nan, "cv_RandomForest": np.nan, "threshold": np.nan}
        if hasattr(clf, "threshold"):
            scores = getattr(clf, "cv_scores", None)
            if scores is None:
                scores = _cv_scores(X, fit_rows[lab].to_numpy(dtype=int), seed + 17 * li)
            row.update({f"cv_{name}": acc for name, acc in scores.items()}, threshold=clf.threshold)
        rows.append(row)
    return pd.DataFrame(rows)


def _stacked(parts: dict[str, pd.DataFrame], key: str) -> pd.DataFrame:
    return pd.concat(
        [p.assign(**{key: name}) for name, p in parts.items()], ignore_index=True
    )


def _tables(spark, cfg) -> dict[str, pd.DataFrame]:
    """The harness's tables at bench scale, one item per returned frame."""
    from repro import experiments as E

    kw = dict(seed=0, nn=cfg.BENCH_NN, n_perm=cfg.BENCH_N_PERM, grid=cfg.BENCH_GRID)
    exp = E.run_po_experiment(spark, n_matchers=cfg.BENCH_N_MATCHERS, k=cfg.BENCH_K, **kw)
    items = {"tables.table2a": E.table2a(exp), "tables.table3": E.table3(exp),
             "tables.table4": E.table4(exp)}
    for name, frame in E.utilization_tables(spark, exp, early_limit=EARLY_LIMIT).items():
        items[f"tables.utilize_{name}"] = frame
    items["tables.table2b"] = E.table2b(spark, po_n=cfg.BENCH_N_MATCHERS, oaei_n=OAEI_N, **kw)
    return items


def dump(out: Path) -> None:
    from _common import get_spark

    from benchmarks import _config as cfg
    from repro.core import mexi
    from repro.core.baselines import baseline_predictions
    from repro.core.evaluate import kfold_ids
    from repro.core.importance import permutation_importance
    from repro.humansim import build_cohort

    t0 = time.time()
    spark = get_spark("golden")
    kw = dict(n_perm=cfg.BENCH_N_PERM, grid=cfg.BENCH_GRID, seed=0)
    data = mexi.prepare(spark, build_cohort("PO", n_matchers=cfg.BENCH_N_MATCHERS, seed=0), **kw)
    early = mexi.prepare(spark, data.cohort, sub_sizes=[], decision_limit=EARLY_LIMIT, **kw)
    oaei = mexi.prepare(spark, build_cohort("OAEI", n_matchers=OAEI_N, seed=0), sub_sizes=[], **kw)
    tr, te = kfold_ids(data.full_ids, k=cfg.BENCH_K, seed=0)[0]
    items: dict[str, pd.DataFrame] = {}
    models, stages = {}, {}
    for name, spec in VARIANTS.items():
        stages[name] = mexi.build_transform_stage(
            data, tr, submatcher=spec, nn=cfg.BENCH_NN, seed=FOLD_SEED
        )
        models[name] = mexi.fit_from_stage(stages[name], FULL, seed=FOLD_SEED)
        items[f"transformed.{name}"] = stages[name].transformed
        items[f"predict.{name}"] = models[name].predict(te)
        X = models[name].features(te)
        probas = {lab: clf.predict_proba(X) for lab, clf in models[name].classifiers.items()}
        items[f"proba.{name}"] = pd.DataFrame({"matcher_id": te, **probas})
        items[f"selection.{name}"] = _selection(stages[name], models[name], FOLD_SEED)
    stage_e = mexi.build_transform_stage(
        early, tr, submatcher="none", nn=cfg.BENCH_NN, seed=FOLD_SEED, label_data=data
    )
    items["transformed.early"] = stage_e.transformed
    stages["early"] = stage_e
    items["stage.labels"] = _stacked(
        {name: st.label_lookup.reset_index() for name, st in stages.items()}, "variant"
    )
    items["stage.thresholds"] = pd.DataFrame(
        [
            {"variant": name, "delta_res": st.delta_res, "delta_cal": st.delta_cal,
             "n_fit": len(st.fit_ids)}
            for name, st in stages.items()
        ]
    )
    items["predict.early"] = mexi.fit_from_stage(stage_e, FULL, seed=FOLD_SEED).predict(te)
    m50 = models["MExI_50"]
    items["predict.early_bundle"] = _predict_other(m50, early, te)
    items["predict.oaei_bundle"] = _predict_other(m50, oaei, oaei.full_ids)

    preds, winners, thresholds = {}, [], []
    for cname, mask in _masks().items():
        model = mexi.fit_from_stage(stages["MExI_50"], mask, seed=FOLD_SEED)
        preds[cname] = model.predict(te)
        for lab, clf in model.classifiers.items():
            inner = getattr(clf, "clf", clf)
            winners.append({"config": cname, "label": lab, "clf": type(inner).__name__})
            thresholds.append(
                {"config": cname, "label": lab, "threshold": getattr(clf, "threshold", None)}
            )
    items["ablation.predictions"] = _stacked(preds, "config")
    items["ablation.winners"] = pd.DataFrame(winners)
    items["ablation.thresholds"] = pd.DataFrame(thresholds)

    truth = _truth(data, tr, data, te)
    items["truth.fold0"] = truth
    items["truth.oaei"] = _truth(data, tr, oaei, oaei.full_ids)
    items["importance"] = permutation_importance(m50, truth, te, n_rep=2, seed=FOLD_SEED)
    train_labels = _truth(data, tr, data, tr)
    items["baselines.own"] = _stacked(
        baseline_predictions(data, tr, te, train_labels, seed=FOLD_SEED), "method"
    )
    items["baselines.oaei"] = _stacked(
        baseline_predictions(
            data, tr, oaei.full_ids, train_labels, seed=FOLD_SEED, test_data=oaei
        ),
        "method",
    )
    items.update(_tables(spark, cfg))
    spark.stop()
    out.mkdir(parents=True, exist_ok=True)
    for name, frame in items.items():
        frame.to_pickle(out / f"{name}.pkl")
    print(f"{len(items)} items in {out} ({time.time() - t0:.1f} s)")


def _value_diff(fa: pd.DataFrame, fb: pd.DataFrame) -> str:
    """Differing rows of two frames with the same columns, and the largest
    absolute difference of each numeric column that differs."""
    if len(fa) != len(fb):
        return f"{len(fa)} vs {len(fb)} rows"
    fa, fb = fa.reset_index(drop=True), fb.reset_index(drop=True)
    rows = np.zeros(len(fa), dtype=bool)
    worst = []
    for col in fa.columns:
        x, y = fa[col], fb[col]
        if pd.api.types.is_numeric_dtype(x) and not pd.api.types.is_bool_dtype(x):
            xv, yv = x.to_numpy(dtype=float), y.to_numpy(dtype=float)
            diff = ~((xv == yv) | (np.isnan(xv) & np.isnan(yv)))
            if diff.any():
                worst.append(f"{col} {np.abs(xv - yv)[diff].max():.3g}")
        else:
            diff = (x.astype(str) != y.astype(str)).to_numpy()
        rows |= diff
    out = f"{rows.sum()} of {len(rows)} rows differ"
    return out + (f"; max |diff|: {', '.join(worst)}" if worst else "")


def compare(a: Path, b: Path) -> int:
    names = sorted({p.stem for p in a.glob("*.pkl")} | {p.stem for p in b.glob("*.pkl")})
    bad = 0
    for name in names:
        pa, pb = a / f"{name}.pkl", b / f"{name}.pkl"
        if not (pa.exists() and pb.exists()):
            verdict = "MISSING in " + (str(a) if not pa.exists() else str(b))
        else:
            fa, fb = pd.read_pickle(pa), pd.read_pickle(pb)
            if list(fa.columns) != list(fb.columns):
                verdict = "DIFFERENT columns"
            elif not fa.dtypes.equals(fb.dtypes):
                verdict = "DIFFERENT dtypes"
            elif not fa.equals(fb):
                verdict = "DIFFERENT values (" + _value_diff(fa, fb) + ")"
            else:
                verdict = "equal"
        bad += verdict != "equal"
        print(f"{name:28s} {verdict}")
    print(f"{len(names) - bad} of {len(names)} items equal")
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_dump = sub.add_parser("dump")
    p_dump.add_argument("out", type=Path)
    p_dump.add_argument("--repo", type=Path, default=ROOT)
    p_cmp = sub.add_parser("compare")
    p_cmp.add_argument("a", type=Path)
    p_cmp.add_argument("b", type=Path)
    args = parser.parse_args()
    if args.cmd == "compare":
        return compare(args.a, args.b)
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})
    repo = args.repo.resolve()
    sys.path[:0] = [str(repo / "src"), str(repo / "jobs"), str(repo)]
    # Spark's Python workers import the checkout's ``repro`` too
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(repo / "src"), os.environ.get("PYTHONPATH")])
    )
    dump(args.out.resolve())
    return 0


if __name__ == "__main__":
    sys.exit(main())
