"""Baselines (§IV-B2), permutation importance (Table IV), utilization (§IV-F)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.baselines import BASELINE_NAMES, baseline_predictions
from repro.core.features import ALL_SETS, FEATURE_SETS
from repro.core.importance import permutation_importance, top_features
from repro.core.measures import LABELS, attach_labels, cognitive_thresholds
from repro.core.mexi import NNParams, build_transform_stage, fit_from_stage, prepare
from repro.core.utilize import fused_match, performance_table, select_experts
from repro.humansim import build_cohort

_NN = NNParams(lstm_hidden=6, lstm_dense=6, lstm_epochs=3, cnn_filters=3, cnn_epochs=3)


@pytest.fixture(scope="module")
def data(spark):
    cohort = build_cohort("PO", n_matchers=14, seed=5)
    return prepare(spark, cohort, sub_sizes=[], n_perm=25, grid=12, seed=0)


@pytest.fixture(scope="module")
def split(data):
    return data.full_ids[:10], data.full_ids[10:]


@pytest.fixture(scope="module")
def stage(data, split):
    """The split's MExI_∅ stage."""
    tr, _ = split
    return build_transform_stage(data, tr, submatcher="none", nn=_NN, seed=0)


@pytest.fixture(scope="module")
def preds(data, split, stage):
    _, te = split
    return baseline_predictions(data, stage, te, seed=0)


class TestBaselines:
    def test_all_seven_present(self, preds):
        assert sorted(preds) == sorted(BASELINE_NAMES)

    def test_shapes(self, preds, split):
        _, te = split
        for name, p in preds.items():
            assert list(p.columns) == ["matcher_id", *LABELS], name
            assert sorted(p["matcher_id"]) == sorted(te), name
            assert p[LABELS].isin([0, 1]).all().all(), name

    def test_single_bit_baselines_uniform_labels(self, preds):
        """Conf / Qual.Test / Self-Assess assign one expert bit to all
        four characteristics."""
        for name in ["Conf", "Qual. Test", "Self-Assess"]:
            p = preds[name]
            assert (p[LABELS].nunique(axis=1) == 1).all(), name

    def test_deterministic(self, data, split, stage):
        _, te = split
        p1 = baseline_predictions(data, stage, te, seed=3)
        p2 = baseline_predictions(data, stage, te, seed=3)
        for name in BASELINE_NAMES:
            pd.testing.assert_frame_equal(p1[name], p2[name])

    def test_rand_changes_with_seed(self, data, split, stage):
        _, te = split
        p1 = baseline_predictions(data, stage, te, seed=1)["Rand"]
        p2 = baseline_predictions(data, stage, te, seed=2)["Rand"]
        assert not p1[LABELS].equals(p2[LABELS])

    def test_cross_bundle(self, spark, data, stage):
        oa = build_cohort("OAEI", n_matchers=6, seed=5)
        data_oa = prepare(spark, oa, sub_sizes=[], n_perm=20, grid=12, seed=0)
        out = baseline_predictions(data, stage, data_oa.full_ids, seed=0, test_data=data_oa)
        for name, p in out.items():
            assert sorted(p["matcher_id"]) == sorted(data_oa.full_ids), name

    def test_learned_baselines_read_no_network_output(self, data, split, stage):
        """LRSM and BEH are masks without Φ_Seq/Φ_Spa: MExI_∅ stages whose
        networks differ give the same LRSM and BEH predictions (for every
        matcher, so that a mask reading network columns shows)."""
        tr, _ = split
        nn = NNParams(lstm_hidden=4, lstm_dense=5, lstm_epochs=2, cnn_filters=2, cnn_epochs=2)
        other = build_transform_stage(data, tr, submatcher="none", nn=nn, seed=0)
        nets = FEATURE_SETS["Seq"] + FEATURE_SETS["Spa"]
        assert not stage.transformed[nets].equals(other.transformed[nets])
        p1 = baseline_predictions(data, stage, data.full_ids, seed=0)
        p2 = baseline_predictions(data, other, data.full_ids, seed=0)
        for name in ["LRSM", "BEH"]:
            pd.testing.assert_frame_equal(p1[name], p2[name])


class TestImportance:
    @pytest.fixture(scope="class")
    def model_truth(self, data, split, stage):
        tr, te = split
        model = fit_from_stage(stage, ALL_SETS, seed=0)
        m = data.measures
        d_res, d_cal = cognitive_thresholds(m[m.matcher_id.isin(tr)])
        lab = attach_labels(m, delta_res=d_res, delta_cal=d_cal)
        truth = lab[lab.matcher_id.isin(te)][["matcher_id", *LABELS]]
        return model, truth, te

    def test_long_format(self, model_truth):
        model, truth, te = model_truth
        imp = permutation_importance(model, truth, te, n_rep=2, seed=0)
        assert set(imp.columns) == {"feature", "set", "label", "importance"}
        assert len(imp) == len(model.feature_cols) * len(LABELS)

    def test_top_features_layout(self, model_truth):
        model, truth, te = model_truth
        imp = permutation_importance(model, truth, te, n_rep=2, seed=0)
        top = top_features(imp, k=2)
        assert (top.groupby(["set", "label"]).size() <= 2).all()
        assert set(top["set"]) <= {"LRSM", "Beh", "Mou", "Seq", "Spa"}

    def test_informative_feature_detected(self):
        """A feature the model fully depends on must rank first."""
        from repro.ml.logreg import LogisticRegression
        from repro.core.mexi import MExIModel

        rng = np.random.default_rng(0)
        n = 120
        x_signal = rng.normal(0, 1, n)
        X = pd.DataFrame(
            {
                "matcher_id": [f"m{i}" for i in range(n)],
                "task": "PO",
                "lrsm_dom": x_signal,
                "lrsm_pca1": rng.normal(0, 1, n),
            }
        )
        y = (x_signal > 0).astype(int)
        clf = LogisticRegression(epochs=300).fit(X[["lrsm_dom", "lrsm_pca1"]].to_numpy(), y)
        model = MExIModel(
            include_sets=("LRSM",),
            feature_cols=["lrsm_dom", "lrsm_pca1"],
            classifiers={lab: clf for lab in LABELS},
            transformed=X, networks={},
        )
        truth = pd.DataFrame({"matcher_id": X["matcher_id"]})
        for lab in LABELS:
            truth[lab] = y
        imp = permutation_importance(model, truth, X["matcher_id"].tolist(), n_rep=3, seed=0)
        by_feat = imp.groupby("feature")["importance"].mean()
        assert by_feat["lrsm_dom"] > by_feat["lrsm_pca1"] + 0.1


class TestUtilize:
    def test_select_experts_all_four(self):
        p = pd.DataFrame(
            {
                "matcher_id": ["a", "b", "c"],
                "E_P": [1, 1, 0],
                "E_R": [1, 1, 1],
                "E_Res": [1, 0, 1],
                "E_Cal": [1, 1, 1],
            }
        )
        assert select_experts(p) == ["a"]

    def test_performance_table_no_filter(self, data):
        t = performance_table(data, {"no_filter": list(data.full_ids)})
        row = t.iloc[0]
        m = data.measures
        assert row["P"] == pytest.approx(m["P"].mean())
        assert row["Cal"] == pytest.approx(m["cal"].abs().mean())

    def test_performance_table_empty_selection_falls_back(self, data):
        t = performance_table(data, {"empty": []})
        assert t.iloc[0]["n_selected"] == 0
        assert t.iloc[0]["P"] == pytest.approx(data.measures["P"].mean())

    def test_selecting_best_improves(self, data):
        best = data.measures.nlargest(3, "P")["matcher_id"].tolist()
        t = performance_table(data, {"all": list(data.full_ids), "best": best})
        assert t.set_index("method").loc["best", "P"] > t.set_index("method").loc["all", "P"]

    def test_fused_match_range(self, spark, data):
        out = fused_match(spark, data, data.full_ids[:6])
        assert 0 <= out["R"] <= 1
        assert out["n_pairs"] >= 0
        if out["n_pairs"]:
            assert 0 <= out["P"] <= 1

    def test_fused_match_empty_selection(self, spark, data):
        out = fused_match(spark, data, [])
        assert np.isnan(out["P"])
        assert out["n_pairs"] == 0

    def test_fused_beats_individual_average(self, spark):
        """Vote fusion filters idiosyncratic errors: fused precision of
        the top half should beat the population's mean precision."""
        cohort = build_cohort("PO", n_matchers=20, seed=8)
        d = prepare(spark, cohort, sub_sizes=[], n_perm=10, grid=12, seed=0)
        top = d.measures.nlargest(8, "P")["matcher_id"].tolist()
        out = fused_match(spark, d, top)
        assert out["n_pairs"] > 0
        assert out["P"] > d.measures["P"].mean()
