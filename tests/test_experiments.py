"""Experiment harness integration tests (reduced scale, full code path)."""
import numpy as np
import pytest

from repro.core.measures import LABELS
from repro.core.mexi import NNParams, fit_from_stage
from repro.experiments import (
    MEXI_VARIANTS,
    population_tables,
    run_po_experiment,
    table2a,
    table2b,
    table3,
    table4,
    utilization_tables,
)

_NN = NNParams(lstm_hidden=8, lstm_dense=8, lstm_epochs=3, cnn_filters=3, cnn_epochs=3)


@pytest.fixture(scope="module")
def exp(spark):
    return run_po_experiment(
        spark, n_matchers=18, k=2, seed=0, nn=_NN, n_perm=20, grid=12
    )


class TestRunPO:
    def test_all_methods_predicted(self, exp):
        assert len(exp.preds) == 10
        for name, fold_preds in exp.preds.items():
            assert len(fold_preds) == 2, name

    def test_every_matcher_tested_once(self, exp):
        tested = [m for _, te in exp.folds for m in te]
        assert sorted(tested) == sorted(exp.data.full_ids)

    def test_truth_covers_test_folds(self, exp):
        for (_, te), truth in zip(exp.folds, exp.truth):
            assert sorted(truth["matcher_id"]) == sorted(te)

    def test_models_stored(self, exp):
        assert len(exp.models_50) == 2
        assert len(exp.stages_50) == 2


class TestTables:
    def test_table2a_layout(self, exp):
        t = table2a(exp)
        assert list(t["method"]) == [
            "Rand", "Rand_Freq", "Conf", "Qual. Test", "Self-Assess",
            "LRSM", "BEH", "MExI_none", "MExI_50", "MExI_70",
        ]
        metrics = t[["A_P", "A_R", "A_Res", "A_Cal", "A_ML"]].to_numpy()
        assert ((metrics >= 0) & (metrics <= 1)).all()

    def test_table3_layout(self, exp):
        t = table3(exp)
        assert len(t) == 11
        assert t.iloc[0]["config"] == "MExI_50"
        assert {"include LRSM", "exclude Spa"} <= set(t["config"])

    def test_table3_mexi_row_matches_table2a(self, exp):
        """The MExI_50 ablation row is the Table IIa MExI_50 row (the same
        per-fold predictions), so the two are equal exactly."""
        a = table2a(exp).set_index("method").loc["MExI_50"]
        b = table3(exp).set_index("config").loc["MExI_50"]
        for m in ["A_P", "A_R", "A_Res", "A_Cal", "A_ML"]:
            assert a[m] == b[m]

    def test_table3_refits_only_the_ten_masks(self, exp, monkeypatch):
        """Table III reuses the stored MExI_50 fold models for its full-mask
        row: it fits the 5 include and 5 exclude masks once per fold."""
        import repro.experiments as E

        calls = []

        def counting(stage, include_sets, **kw):
            calls.append(include_sets)
            return fit_from_stage(stage, include_sets, **kw)

        monkeypatch.setattr(E, "fit_from_stage", counting)
        table3(exp)
        assert len(calls) == 10 * len(exp.folds)
        assert E.MEXI_SETS not in calls

    def test_table4_layout(self, exp):
        t = table4(exp, n_rep=2)
        assert (t.groupby(["set", "label"]).size() <= 2).all()
        assert set(t["label"]) <= set(LABELS)

    def test_utilization_layout(self, spark, exp):
        ut = utilization_tables(spark, exp, early_limit=10)
        pf = ut["perf_full"]
        assert "no_filter" in pf["method"].values and "MExI" in pf["method"].values
        pe = ut["perf_early"]
        assert "MExI (early)" in pe["method"].values
        assert {"P", "R", "n_pairs"} <= set(ut["fused"].columns)

    def test_variant_names(self):
        assert MEXI_VARIANTS == {"MExI_none": "none", "MExI_50": "50", "MExI_70": "70"}


class TestTable2b:
    def test_cross_domain(self, spark):
        t = table2b(spark, po_n=16, oaei_n=8, seed=0, nn=_NN, n_perm=20, grid=12)
        assert len(t) == 10
        metrics = t[["A_P", "A_R", "A_Res", "A_Cal", "A_ML"]].to_numpy()
        assert ((metrics >= 0) & (metrics <= 1)).all()


class TestPopulation:
    def test_population_tables(self, spark, monkeypatch):
        import repro.experiments as E
        import repro.humansim as H

        # shrink cohorts for the test run
        orig = H.build_cohort
        monkeypatch.setattr(
            E, "build_cohort", lambda kind, **kw: orig(kind, n_matchers=10, seed=0)
        )
        t = population_tables(spark, seed=0, n_perm=20)
        assert list(t["cohort"]) == ["PO", "OAEI"]
        for col in ["mean_P", "mean_R", "frac_precise", "frac_thorough"]:
            assert t[col].between(0, 1).all()
