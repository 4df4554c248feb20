"""The one-pass extraction kernel behind ``prepare`` against the DataFrame
extractors it replaced, its partition independence, and degenerate inputs."""
import dataclasses

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import Window
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.core.behavioral import BEH_FEATURES
from repro.core.extract import matcher_rows
from repro.core.features import aggregated_features
from repro.core.matrix import history_to_matrix
from repro.core.measures import (
    MEASURE_COLUMNS,
    _make_measures_fn,
    matrix_with_correctness,
    preprocess_history,
    reference_pairs,
)
from repro.core.mexi import prepare
from repro.core.mouse import MOU_FEATURES, heatmap_counts
from repro.core.predictors import LRSM_FEATURES
from repro.core.sequential import decision_sequences
from repro.core.spatial import heatmap_tensors
from repro.core.submatchers import expand_submatchers, is_sub
from repro.core.utilize import fused_match
from repro.humansim import build_cohort
from repro.ml.gamma import gamma_with_pvalue

N_PERM, GRID, SEED = 15, 12, 3
_INTS = ["beh_nDecisions", "beh_countDistinctCorr", "beh_countMindChange",
         "mou_nEvents", "mou_nMove", "mou_nLeft", "mou_nRight", "mou_nScroll"]


def _degenerate_cohort():
    """Six PO matchers, three of them degenerate on purpose:
    ``po_003`` has no mouse events, ``po_004`` has one decision left after
    preprocessing (four evenly spaced decisions, the first three dropped),
    and ``po_005`` has every decision dropped (three decisions)."""
    c = build_cohort("PO", n_matchers=6, seed=1)
    dec, mouse = c.decisions, c.mouse
    short = dec[dec["matcher_id"] == "po_004"].sort_values(["t", "step"]).head(4).copy()
    short["t"] = [10.0, 20.0, 30.0, 40.0]
    dropped = dec[dec["matcher_id"] == "po_005"].sort_values(["t", "step"]).head(3)
    dec = pd.concat(
        [dec[~dec["matcher_id"].isin(["po_004", "po_005"])], short, dropped], ignore_index=True
    )
    mouse = mouse[mouse["matcher_id"] != "po_003"].reset_index(drop=True)
    return dataclasses.replace(c, decisions=dec, mouse=mouse)


@pytest.fixture(scope="module")
def cohort():
    return _degenerate_cohort()


# ---------------------------------------------------------------- reference
_RES_SCHEMA = T.StructType([
    T.StructField("matcher_id", T.StringType()),
    T.StructField("res", T.DoubleType()),
    T.StructField("res_pval", T.DoubleType()),
])


def _reference_measures(spark, dec, reference, *, n_perm, seed):
    """Eqs. 2–5 as DataFrame aggregations over ``matrix_with_correctness``;
    only Res runs per matcher, on entries ordered by (row_i, col_j)."""
    import zlib

    mwc = matrix_with_correctness(dec, reference)
    n_ref = reference.count()
    pr = mwc.groupBy("matcher_id", "task").agg(
        F.count("*").alias("n_sigma"), F.avg("correct").alias("P"),
        (F.sum("correct") / n_ref).alias("R"),
    )
    conf = dec.groupBy("matcher_id", "task").agg(
        F.count("*").alias("n_decisions"), F.avg("conf").alias("conf_mean")
    )

    def _res(pdf):
        pdf = pdf.sort_values(["row_i", "col_j"])
        mid, task = pdf["matcher_id"].iloc[0], pdf["task"].iloc[0]
        mseed = (zlib.crc32(f"{mid}|{task}".encode()) + seed) % (2**31)
        g, p = gamma_with_pvalue(pdf["conf"].to_numpy(), pdf["correct"].to_numpy(),
                                 n_perm=n_perm, seed=mseed)
        return pd.DataFrame({"matcher_id": [mid], "res": [g], "res_pval": [p]})

    res = mwc.groupBy("matcher_id", "task").applyInPandas(_res, schema=_RES_SCHEMA)
    out = (
        pr.join(conf, ["matcher_id", "task"]).join(res, "matcher_id")
        .withColumn("cal", F.col("conf_mean") - F.col("P"))
        .toPandas()
    )
    return out[MEASURE_COLUMNS].sort_values("matcher_id").reset_index(drop=True)


def _reference_prepare(spark, cohort, *, sub_sizes, decision_limit):
    """``prepare`` assembled from the DataFrame extractors."""
    dims = {cohort.task.name: (cohort.task.n_rows, cohort.task.n_cols)}
    dec = preprocess_history(spark.createDataFrame(cohort.decisions))
    mouse = spark.createDataFrame(cohort.mouse)
    if decision_limit is not None:
        w = Window.partitionBy("matcher_id", "task").orderBy("t", "step")
        dec = dec.withColumn("_r", F.row_number().over(w)).where(
            F.col("_r") <= decision_limit).drop("_r")
        spans = dec.groupBy("matcher_id", "task").agg(F.max("t").alias("_hi"))
        mouse = mouse.join(spans, ["matcher_id", "task"]).where(
            F.col("t") <= F.col("_hi")).drop("_hi")
    sub_dec, sub_mouse = expand_submatchers(spark, dec, mouse, sizes=sub_sizes)
    all_dec, all_mouse = dec.unionByName(sub_dec), mouse.unionByName(sub_mouse)
    hm = heatmap_counts(all_mouse, grid=GRID).toPandas()
    return {
        "features": aggregated_features(all_dec, all_mouse, dims),
        "measures": _reference_measures(
            spark, dec, spark.createDataFrame(cohort.reference_df()), n_perm=N_PERM, seed=SEED),
        "sequences": decision_sequences(all_dec),
        "heatmaps": heatmap_tensors(hm, grid=GRID),
        "matrix_entries": history_to_matrix(dec).select("matcher_id", "row_i", "col_j")
        .toPandas().sort_values(["matcher_id", "row_i", "col_j"]).reset_index(drop=True),
        "warmup_measures": _reference_measures(
            spark, spark.createDataFrame(cohort.warmup_decisions),
            spark.createDataFrame(cohort.warmup_reference_df()),
            n_perm=max(20, N_PERM // 4), seed=SEED + 1),
    }


def _assert_frames_match(got: pd.DataFrame, want: pd.DataFrame, floats: list[str]):
    """Exact on every column but ``floats``, which agree to 1e-9 relative."""
    assert list(got.columns) == list(want.columns)
    assert got["matcher_id"].tolist() == want["matcher_id"].tolist()
    for col in got.columns:
        if col in floats:
            np.testing.assert_allclose(got[col].to_numpy(float), want[col].to_numpy(float),
                                       rtol=1e-9, atol=1e-12, err_msg=col)
        else:
            assert got[col].tolist() == want[col].tolist(), col


_CASES = {
    "windows": dict(sub_sizes=[20], decision_limit=None),
    "no_windows": dict(sub_sizes=[], decision_limit=None),
    "decision_limit": dict(sub_sizes=[10], decision_limit=25),
}


@pytest.fixture(scope="module", params=list(_CASES))
def both(request, spark, cohort):
    kw = _CASES[request.param]
    got = prepare(spark, cohort, n_perm=N_PERM, grid=GRID, seed=SEED, **kw)
    return got, _reference_prepare(spark, cohort, **kw), kw


class TestAgainstDataFrameExtractors:
    def test_features(self, both):
        got, want, _ = both
        exact = {"matcher_id", "task", "lrsm_nEntries", *_INTS}
        _assert_frames_match(got.features, want["features"],
                             [c for c in got.features.columns if c not in exact])
        assert got.features[_INTS].dtypes.eq("int64").all()

    def test_measures(self, both):
        got, want, _ = both
        _assert_frames_match(got.measures, want["measures"], ["conf_mean", "cal"])

    def test_warmup_measures(self, both):
        got, want, _ = both
        _assert_frames_match(got.warmup_measures, want["warmup_measures"], ["conf_mean", "cal"])

    def test_sequences(self, both):
        got, want, _ = both
        assert got.sequences["matcher_id"].tolist() == want["sequences"]["matcher_id"].tolist()
        for col in ("confs", "dts", "rows", "cols"):
            for a, b in zip(got.sequences[col], want["sequences"][col]):
                assert a.dtype == b.dtype and np.array_equal(a, b), col

    def test_heatmaps(self, both):
        """Equal for every id with features. The DataFrame path also binned
        the mouse map of a matcher that has no decision left (po_005);
        the kernel emits nothing at all for such a matcher."""
        got, want, _ = both
        ids = set(want["features"]["matcher_id"])
        assert set(got.heatmaps) == {k for k in want["heatmaps"] if k[0] in ids}
        for key, img in got.heatmaps.items():
            assert np.array_equal(img, want["heatmaps"][key]), key

    def test_matrix_entries(self, both):
        got, want, _ = both
        pd.testing.assert_frame_equal(got.matrix_entries, want["matrix_entries"])

    def test_windows_present_as_configured(self, both):
        got, _, kw = both
        assert got.features["matcher_id"].map(is_sub).any() == bool(kw["sub_sizes"])


class TestPartitionIndependence:
    def test_same_frames_at_1_and_32_partitions(self, spark, cohort):
        """Also with the input rows shuffled: the kernel orders every group
        with a total order, so nothing depends on arrival order."""
        key = "spark.sql.shuffle.partitions"
        before = spark.conf.get(key)
        shuffled = dataclasses.replace(
            cohort,
            decisions=cohort.decisions.sample(frac=1.0, random_state=0),
            mouse=cohort.mouse.sample(frac=1.0, random_state=1),
        )
        try:
            spark.conf.set(key, "1")
            one = prepare(spark, cohort, sub_sizes=[20], n_perm=N_PERM, grid=GRID, seed=SEED)
            spark.conf.set(key, "32")
            many = prepare(spark, shuffled, sub_sizes=[20], n_perm=N_PERM, grid=GRID, seed=SEED)
        finally:
            spark.conf.set(key, before)
        for name in ("features", "measures", "sequences", "matrix_entries", "warmup_measures"):
            pd.testing.assert_frame_equal(getattr(one, name), getattr(many, name),
                                          check_exact=True, obj=name)
        assert one.heatmaps.keys() == many.heatmaps.keys()
        assert all(np.array_equal(one.heatmaps[k], many.heatmaps[k]) for k in one.heatmaps)


class TestDegenerateInputs:
    @pytest.fixture(scope="class")
    def data(self, spark, cohort):
        return prepare(spark, cohort, sub_sizes=[20], n_perm=N_PERM, grid=GRID, seed=SEED)

    def test_no_mouse_events_zero_mou_and_no_heatmap(self, data):
        row = data.features.set_index("matcher_id").loc["po_003"]
        assert (row[MOU_FEATURES] == 0).all()
        assert not any(mid == "po_003" for mid, _ in data.heatmaps)
        assert any(mid == "po_000" for mid, _ in data.heatmaps)

    def test_all_decisions_dropped_emits_no_row(self, data):
        for frame in (data.features, data.measures, data.sequences, data.matrix_entries):
            assert "po_005" not in set(frame["matcher_id"])

    def test_single_kept_decision_has_zero_std(self, data):
        row = data.features.set_index("matcher_id").loc["po_004"]
        assert row["beh_nDecisions"] == 1
        stds = ["beh_stdConf", "beh_stdTime", "beh_avgTime", "beh_maxTime", "lrsm_stdev"]
        assert (row[stds] == 0).all()
        cols = LRSM_FEATURES + BEH_FEATURES + MOU_FEATURES
        assert np.isfinite(data.features[cols].to_numpy(float)).all()

    def test_history_shorter_than_every_window(self, cohort):
        hist = cohort.decisions[cohort.decisions["matcher_id"] == "po_000"]
        mouse = cohort.mouse[cohort.mouse["matcher_id"] == "po_000"]
        rows = matcher_rows(
            hist, mouse,
            dims={cohort.task.name: (cohort.task.n_rows, cohort.task.n_cols)},
            references=reference_pairs(cohort.reference_df()),
            sub_sizes=[len(hist), 10_000], grid=GRID, n_perm=N_PERM, seed=SEED,
        )
        assert rows["matcher_id"].tolist() == ["po_000"]  # preprocessing shortened it


class TestResolutionOrder:
    def test_pvalue_independent_of_row_order(self):
        """The permutation p-value pairs confidences with shuffled
        correctness flags, so it must not depend on the order the group's
        rows arrive in from a shuffle."""
        c = build_cohort("PO", n_matchers=2, seed=4)
        group = c.decisions[c.decisions["matcher_id"] == "po_000"]
        fn = _make_measures_fn(reference_pairs(c.reference_df()), 50, 0)
        base = fn(group)
        for seed in range(3):
            again = fn(group.sample(frac=1.0, random_state=seed))
            pd.testing.assert_frame_equal(base, again, check_exact=True)


def test_fused_match_against_pandas(spark, cohort):
    """The single-action fused match equals a pandas recomputation of the
    Eq. 1 matrices, bias-corrected votes and relative threshold."""
    data = prepare(spark, cohort, sub_sizes=[], n_perm=N_PERM, grid=GRID, seed=SEED)
    ids = data.full_ids[:4]
    dec = cohort.decisions[cohort.decisions["matcher_id"].isin(ids)]
    last = dec.sort_values(["t", "step"]).groupby(["matcher_id", "row_i", "col_j"]).tail(1)
    cal = data.measures.set_index("matcher_id")["cal"]
    vote = np.clip(last["conf"] - last["matcher_id"].map(cal).fillna(0.0), 0.0, 1.0)
    votes = vote.groupby([last["row_i"], last["col_j"]]).sum()
    fused = votes[votes >= 0.5 * votes.max()]
    n_correct = sum(pair in cohort.task.reference_pairs for pair in fused.index)
    out = fused_match(spark, data, ids)
    assert out["n_pairs"] == len(fused)
    assert out["P"] == pytest.approx(n_correct / len(fused))
    assert out["R"] == pytest.approx(n_correct / len(cohort.task.reference))
