"""MExI end-to-end: prepare, transform stage, training, prediction."""
import dataclasses

import numpy as np
import pandas as pd
import pytest

from repro.core.evaluate import kfold_ids
from repro.core.features import ALL_SETS, FEATURE_SETS
from repro.core.measures import LABELS
from repro.core.mexi import (
    NNParams,
    _best_f1_threshold,
    _Constant,
    _select_classifiers,
    _Thresholded,
    build_transform_stage,
    fit_from_stage,
    prepare,
)
from repro.core.submatchers import is_sub
from repro.humansim import build_cohort
from repro.ml.forest import RandomForest
from repro.ml.logreg import LogisticRegression

_NN = NNParams(lstm_hidden=6, lstm_dense=6, lstm_epochs=3, cnn_filters=3, cnn_epochs=3)


@pytest.fixture(scope="module")
def data(spark):
    cohort = build_cohort("PO", n_matchers=14, seed=3)
    return prepare(spark, cohort, sub_sizes=[20], n_perm=25, grid=12, seed=0)


@pytest.fixture(scope="module")
def split(data):
    ids = data.full_ids
    return ids[:10], ids[10:]


class TestPrepare:
    def test_measures_only_real_matchers(self, data):
        assert not data.measures["matcher_id"].map(is_sub).any()
        assert len(data.measures) == 14

    def test_features_include_submatchers(self, data):
        assert data.features["matcher_id"].map(is_sub).any()

    def test_aggregated_feature_columns(self, data):
        for s in ["LRSM", "Beh", "Mou"]:
            for c in FEATURE_SETS[s]:
                assert c in data.features.columns, c

    def test_aggregated_features_finite(self, data):
        cols = [c for s in ["LRSM", "Beh", "Mou"] for c in FEATURE_SETS[s]]
        assert np.isfinite(data.features[cols].to_numpy(float)).all()

    def test_warmup_measures_present(self, data):
        assert len(data.warmup_measures) == 14

    def test_sub_ids_filtering(self, data, split):
        tr, te = split
        subs = data.sub_ids_for(tr, "none")
        assert subs == []
        # windows of size 20 exist (histories are longer than 20)
        subs50 = data.sub_ids_for(tr, "50")
        assert subs50 == []  # no 50-sized windows were materialized

    def test_matrix_entries_real_only(self, data):
        assert not data.matrix_entries["matcher_id"].map(is_sub).any()


class TestTransformStage:
    @pytest.fixture(scope="class")
    def stage(self, data, split):
        tr, _ = split
        return build_transform_stage(data, tr, submatcher="none", nn=_NN, seed=0)

    def test_transformed_has_all_feature_sets(self, stage):
        for s in ALL_SETS:
            for c in FEATURE_SETS[s]:
                assert c in stage.transformed.columns, c

    def test_labels_for_virtual_inherit_parent(self, stage, data):
        parent = data.full_ids[0]
        got = stage.labels_for([parent, f"{parent}#w20#0"])
        assert (got.iloc[0][LABELS].values == got.iloc[1][LABELS].values).all()

    def test_thresholds_are_floats(self, stage):
        assert isinstance(stage.delta_res, float)
        assert isinstance(stage.delta_cal, float)

    def test_fit_rows_carry_out_of_fold_coefficients(self, stage, data, split):
        """Fit rows hold the out-of-fold networks' coefficients, so they
        differ from what the full-fit networks give them; every other row
        holds exactly the full-fit coefficients."""
        _, te = split
        rows = stage.transformed.set_index("matcher_id")
        assert set(stage.networks) == {"Seq", "Spa"}
        for name, net in stage.networks.items():
            cols = FEATURE_SETS[name]
            full = net.transform(data, data.features["matcher_id"].tolist())
            full = full.set_index("matcher_id")[cols]
            pd.testing.assert_frame_equal(rows.loc[te, cols], full.loc[te], check_exact=True)
            differs = (rows.loc[stage.fit_ids, cols] != full.loc[stage.fit_ids]).any(axis=1)
            assert differs.all(), name

    def test_rows_of_own_bundle_equal_stage_rows(self, stage, data, split):
        """Rebuilding the Φ(D) rows of non-fit ids from the bundle gives
        the stage's rows bit for bit, in every feature column."""
        _, te = split
        model = fit_from_stage(stage, ALL_SETS, seed=0)
        assert model.feature_cols == [c for s in ALL_SETS for c in FEATURE_SETS[s]]
        np.testing.assert_array_equal(model.features(te, data), model.features(te))


class TestTrainPredict:
    @pytest.fixture(scope="class")
    def model(self, data, split):
        tr, _ = split
        stage = build_transform_stage(data, tr, submatcher="none", nn=_NN, seed=0)
        return fit_from_stage(stage, ALL_SETS, seed=0)

    def test_predict_shape(self, model, split):
        _, te = split
        p = model.predict(te)
        assert list(p.columns) == ["matcher_id", *LABELS]
        assert len(p) == len(te)
        assert p[LABELS].isin([0, 1]).all().all()

    def test_predict_deterministic(self, data, split):
        tr, te = split
        m1, m2 = (
            fit_from_stage(
                build_transform_stage(data, tr, submatcher="none", nn=_NN, seed=7),
                ALL_SETS, seed=7,
            )
            for _ in range(2)
        )
        pd.testing.assert_frame_equal(m1.predict(te), m2.predict(te))

    def test_predict_proba_in_range(self, model, split):
        _, te = split
        X = model.features(te)
        for lab in LABELS:
            p = model.classifiers[lab].predict_proba(X)
            assert ((p >= 0) & (p <= 1)).all()

    def test_predict_on_same_bundle_consistent(self, model, data, split):
        _, te = split
        direct = model.predict(te)
        via_bundle = model.predict(te, data=data)
        pd.testing.assert_frame_equal(direct, via_bundle)

    def test_include_sets_restrict_columns(self, data, split):
        tr, te = split
        stage = build_transform_stage(
            data, tr, submatcher="none", include_sets=("LRSM",), nn=_NN, seed=0
        )
        m = fit_from_stage(stage, ("LRSM",), seed=0)
        assert set(m.feature_cols) == set(FEATURE_SETS["LRSM"])
        assert m.networks == {}

    def test_unknown_set_raises(self, data, split):
        tr, _ = split
        with pytest.raises(ValueError):
            stage = build_transform_stage(data, tr, include_sets=("Bogus",), nn=_NN, seed=0)
            fit_from_stage(stage, ("Bogus",), seed=0)

    def test_submatcher_spec_changes_fit_rows(self, data, split):
        tr, _ = split
        s_none = build_transform_stage(
            data, tr, submatcher="none", include_sets=("LRSM", "Beh", "Mou"), nn=_NN
        )
        # the prepared bundle only materialized 20-windows, so both named
        # specs resolve to no extra rows here; the fit id bookkeeping
        # must still be exact
        assert s_none.fit_ids == list(tr)

    def test_ablation_reuse(self, data, split):
        """fit_from_stage over one stage supports multiple masks."""
        tr, te = split
        stage = build_transform_stage(data, tr, submatcher="none", nn=_NN, seed=0)
        for mask in [("LRSM",), ("Beh", "Mou"), ALL_SETS]:
            m = fit_from_stage(stage, tuple(mask), seed=0)
            p = m.predict(te)
            assert len(p) == len(te)


class TestEarlyBundle:
    def test_decision_limit_truncates(self, spark):
        cohort = build_cohort("PO", n_matchers=5, seed=4)
        full = prepare(spark, cohort, sub_sizes=[], n_perm=10, grid=12, seed=0)
        early = prepare(spark, cohort, sub_sizes=[], n_perm=10, grid=12,
                        decision_limit=10, seed=0)
        nf = full.features.set_index("matcher_id")["beh_nDecisions"]
        ne = early.features.set_index("matcher_id")["beh_nDecisions"]
        assert (ne <= 10).all()
        assert (ne <= nf.loc[ne.index]).all()

    def test_cross_bundle_predict(self, spark, data, split):
        tr, te = split
        stage = build_transform_stage(data, tr, submatcher="none", nn=_NN, seed=0)
        model = fit_from_stage(stage, ALL_SETS, seed=0)
        early = prepare(spark, data.cohort, sub_sizes=[], n_perm=10, grid=12,
                        decision_limit=12, seed=0)
        p = model.predict(te, data=early)
        assert len(p) == len(te)
        assert p[LABELS].isin([0, 1]).all().all()


class TestDroppedMatcher:
    def test_matcher_without_measures_leaves_the_folds(self, spark):
        """A matcher whose every decision the §IV-A preprocessing drops
        (three decisions) has no measures row: it is not in ``full_ids``,
        and no train fold asks for its labels."""
        c = build_cohort("PO", n_matchers=9, seed=5)
        dec = c.decisions
        cut = dec[dec["matcher_id"] == "po_004"].sort_values(["t", "step"]).head(3)
        c = dataclasses.replace(
            c, decisions=pd.concat([dec[dec["matcher_id"] != "po_004"], cut], ignore_index=True)
        )
        data = prepare(spark, c, sub_sizes=[], n_perm=10, grid=12, seed=0)
        assert data.full_ids == [m for m in c.matcher_ids if m != "po_004"]
        for tr, _ in kfold_ids(data.full_ids, k=3, seed=0):
            stage = build_transform_stage(
                data, tr, submatcher="none", include_sets=("LRSM",), nn=_NN, seed=0
            )
            assert stage.fit_ids == tr


class TestFitBestClassifierDegenerate:
    """§IV-B2 model selection on labels too degenerate for 3-fold CV."""

    def test_single_class_is_constant(self):
        X = np.random.default_rng(0).normal(size=(12, 5))
        clf = _select_classifiers(X, [np.ones(12, dtype=int)], [3])[0]
        assert isinstance(clf, _Constant)
        assert clf.predict(X).tolist() == [1] * 12

    def test_cv_fold_without_positives(self):
        # one positive: the CV fold that tests it trains on negatives only
        rng = np.random.default_rng(1)
        X = rng.normal(size=(30, 6))
        y = np.zeros(30, dtype=int)
        y[7] = 1
        clf = _select_classifiers(X, [y], [11])[0]
        assert isinstance(clf, _Thresholded)
        assert clf.threshold == 0.5 or np.isclose(clf.threshold, np.linspace(0.25, 0.45, 5)).any()
        pred = clf.predict(X)
        assert set(pred.tolist()) <= {0, 1}
        again = _select_classifiers(X, [y], [11])[0]
        assert again.threshold == clf.threshold
        np.testing.assert_array_equal(again.predict_proba(X), clf.predict_proba(X))
        np.testing.assert_array_equal(again.predict(X), pred)


def _frozen_fit_best_classifier(X: np.ndarray, y: np.ndarray, *, seed: int):
    """Per-label model selection before the batched one: each label's
    candidates fit one at a time. Returns the classifier and the
    candidates' CV accuracies."""
    if len(np.unique(y)) == 1:
        return _Constant(int(y[0])), None
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
    return _Thresholded(candidates[k](seed).fit(X, y), thr, {}), scores


class TestBatchedSelectionMatchesPerLabel:
    """The batched selection picks, per label, what the per-label loop
    picks: the same class, threshold and probabilities, bit for bit."""

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_mixed_labels(self, order):
        # fit_from_stage's matrix comes from a DataFrame: column-major
        rng = np.random.default_rng(21)
        X = np.asarray(rng.normal(size=(40, 7)), order=order)
        ys = [
            np.zeros(40, dtype=int),  # constant
            (np.arange(40) == 5).astype(int),  # one positive: a single-class CV fold
            (X[:, 0] + rng.normal(0, 0.5, 40) > 0).astype(int),
            (X[:, 1] * X[:, 2] > 0.2).astype(int),
        ]
        seeds = [1000 + 17 * li for li in range(4)]
        picked = _select_classifiers(X, ys, seeds)
        X_new = rng.normal(size=(15, 7))
        kinds = set()
        for y, seed, clf in zip(ys, seeds, picked):
            ref, scores = _frozen_fit_best_classifier(X, y, seed=seed)
            assert type(clf) is type(ref)
            if isinstance(ref, _Constant):
                assert clf.value == ref.value
                continue
            assert type(clf.clf) is type(ref.clf)
            kinds.add(type(clf.clf).__name__)
            assert clf.threshold == ref.threshold
            assert list(clf.cv_scores.values()) == scores
            for Z in (X, X_new):
                np.testing.assert_array_equal(clf.predict_proba(Z), ref.predict_proba(Z))
        # both refit paths ran: a stacked logreg refit and a forest refit
        assert isinstance(picked[0], _Constant)
        assert kinds == {"LogisticRegression", "RandomForest"}

    def test_all_labels_constant_fit_nothing(self, monkeypatch):
        calls = []

        def refuse(self, X, y):
            calls.append(np.shape(X))
            raise AssertionError("no fit expected")

        monkeypatch.setattr(LogisticRegression, "fit", refuse)
        monkeypatch.setattr(RandomForest, "fit", refuse)
        X = np.random.default_rng(2).normal(size=(10, 4))
        ys = [np.full(10, v, dtype=int) for v in (0, 1, 1, 0)]
        picked = _select_classifiers(X, ys, [0, 17, 34, 51])
        assert calls == []
        assert [type(c) for c in picked] == [_Constant] * 4
        assert [c.value for c in picked] == [0, 1, 1, 0]
