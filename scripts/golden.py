"""Bench-scale golden of the MExI driver learning layer.

Pins what the learning layer computes before a refactor of it, so the
refactor can be shown to change nothing. ``dump`` runs one checkout at
bench scale (``benchmarks/_config.py``: 36 PO matchers, k=3, n_perm=30,
grid=16, ``BENCH_NN``; fold 0 under the harness's fold-0 seed) and
pickles one frame per item:

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
  and every matcher of the ``BENCH_OAEI_N``-matcher OAEI bundle;
- ``ablation.predictions`` / ``ablation.winners`` /
  ``ablation.thresholds``: the eleven Table III masks (the full mask
  and ``ABLATION_MASKS``) refit on the MExI_50 stage;
- ``importance``: permutation importance of the MExI_50 model;
- ``baselines.own`` / ``baselines.oaei``: the seven baselines of the
  MExI_none stage on the test fold and on the OAEI bundle;
- ``truth.fold0`` / ``truth.oaei``: ground-truth labels from train-fold
  thresholds;
- ``tables.<name>``: every frame the table harness returns at bench
  scale (all ``k`` folds, seed 0): ``table2a``, ``table3``, ``table4``
  and ``utilize_perf_full`` / ``utilize_perf_early`` / ``utilize_fused``
  (``utilization_tables``, early limit 15) of one ``run_po_experiment``,
  and ``table2b`` (bench-scale PO cohort and OAEI bundle).

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
from dataclasses import replace
from pathlib import Path

import numpy as np
import pandas as pd

ROOT = Path(__file__).resolve().parent.parent
EARLY_LIMIT = 15


def _selection(model) -> pd.DataFrame:
    """Per label: the winner, both CV accuracies and the threshold."""
    rows = []
    for lab, clf in model.classifiers.items():
        row = {"label": lab, "clf": type(getattr(clf, "clf", clf)).__name__,
               "cv_LogisticRegression": np.nan, "cv_RandomForest": np.nan, "threshold": np.nan}
        if hasattr(clf, "threshold"):
            row.update({f"cv_{name}": acc for name, acc in clf.cv_scores.items()},
                       threshold=clf.threshold)
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
    items["tables.table2b"] = E.table2b(
        spark, po_n=cfg.BENCH_N_MATCHERS, oaei_n=cfg.BENCH_OAEI_N, **kw
    )
    return items


def dump(out: Path) -> None:
    from _common import get_spark

    from benchmarks import _config as cfg
    from repro import experiments as E
    from repro.core import mexi
    from repro.core.baselines import baseline_predictions
    from repro.core.evaluate import kfold_ids
    from repro.core.importance import permutation_importance
    from repro.humansim import build_cohort

    t0 = time.time()
    fold_seed = E._fold_seed(0, 0)
    spark = get_spark("golden")
    kw = dict(n_perm=cfg.BENCH_N_PERM, grid=cfg.BENCH_GRID, seed=0)
    data = mexi.prepare(spark, build_cohort("PO", n_matchers=cfg.BENCH_N_MATCHERS, seed=0), **kw)
    early = mexi.prepare(spark, data.cohort, sub_sizes=[], decision_limit=EARLY_LIMIT, **kw)
    oaei = mexi.prepare(
        spark, build_cohort("OAEI", n_matchers=cfg.BENCH_OAEI_N, seed=0), sub_sizes=[], **kw
    )
    tr, te = kfold_ids(data.full_ids, k=cfg.BENCH_K, seed=0)[0]
    items: dict[str, pd.DataFrame] = {}
    models, stages = {}, {}
    for name, spec in E.MEXI_VARIANTS.items():
        stages[name] = mexi.build_transform_stage(
            data, tr, submatcher=spec, nn=cfg.BENCH_NN, seed=fold_seed
        )
        models[name] = mexi.fit_from_stage(stages[name], E.MEXI_SETS, seed=fold_seed)
        items[f"transformed.{name}"] = stages[name].transformed
        items[f"predict.{name}"] = models[name].predict(te)
        X = models[name].features(te)
        probas = {lab: clf.predict_proba(X) for lab, clf in models[name].classifiers.items()}
        items[f"proba.{name}"] = pd.DataFrame({"matcher_id": te, **probas})
        items[f"selection.{name}"] = _selection(models[name])
    stage_e = mexi.build_transform_stage(
        replace(early, measures=data.measures), tr, submatcher="none", nn=cfg.BENCH_NN,
        seed=fold_seed,
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
    items["predict.early"] = mexi.fit_from_stage(stage_e, E.MEXI_SETS, seed=fold_seed).predict(te)
    m50 = models["MExI_50"]
    items["predict.early_bundle"] = m50.predict(te, data=early)
    items["predict.oaei_bundle"] = m50.predict(oaei.full_ids, data=oaei)

    preds, winners, thresholds = {}, [], []
    for cname, mask in ({"MExI_50": E.MEXI_SETS} | E.ABLATION_MASKS).items():
        model = mexi.fit_from_stage(stages["MExI_50"], mask, seed=fold_seed)
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

    truth = E._truth_for(data, tr, te).reset_index(drop=True)
    items["truth.fold0"] = truth
    items["truth.oaei"] = E._truth_for(data, tr, oaei.full_ids, oaei).reset_index(drop=True)
    items["importance"] = permutation_importance(m50, truth, te, n_rep=2, seed=fold_seed)
    stage_none = stages["MExI_none"]
    items["baselines.own"] = _stacked(
        baseline_predictions(data, stage_none, te, seed=fold_seed), "method"
    )
    items["baselines.oaei"] = _stacked(
        baseline_predictions(data, stage_none, oaei.full_ids, seed=fold_seed, test_data=oaei),
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
