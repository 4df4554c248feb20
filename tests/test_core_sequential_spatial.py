"""Φ_Seq (LSTM late fusion) and Φ_Spa (CNN late fusion) extractors."""
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pandas as pd
import pytest

from repro.core.features import FEATURE_SETS
from repro.core.measures import LABELS
from repro.core.mouse import heatmap_counts
from repro.core.sequential import (
    SEQ_CHANNELS,
    SeqFeatureExtractor,
    consensus_map,
    decision_sequences,
)
from repro.core.spatial import ETYPE_NAMES, SpaFeatureExtractor, heatmap_tensors
from repro.core.matrix import history_to_matrix
from repro.humansim import build_cohort


@pytest.fixture(scope="module")
def cohort():
    return build_cohort("PO", n_matchers=10, seed=6)


@pytest.fixture(scope="module")
def seqs(spark, cohort):
    return decision_sequences(spark.createDataFrame(cohort.decisions))


@pytest.fixture(scope="module")
def labels(cohort):
    rng = np.random.default_rng(0)
    lab = pd.DataFrame({"matcher_id": cohort.matcher_ids})
    for l in LABELS:
        lab[l] = rng.integers(0, 2, len(lab))
    return lab


class TestDecisionSequences:
    def test_one_row_per_matcher(self, seqs, cohort):
        assert sorted(seqs["matcher_id"]) == sorted(cohort.matcher_ids)

    def test_sequences_ordered_and_complete(self, seqs, cohort):
        for _, row in seqs.iterrows():
            g = cohort.decisions[cohort.decisions.matcher_id == row.matcher_id]
            assert len(row["confs"]) == len(g)
            expected = g.sort_values(["t", "step"])["conf"].to_numpy()
            np.testing.assert_allclose(row["confs"], expected)

    def test_dts_nonnegative_first_zero(self, seqs):
        for _, row in seqs.iterrows():
            assert row["dts"][0] == 0.0
            assert (row["dts"] >= 0).all()


class TestConsensus:
    @pytest.fixture(scope="class")
    def entries(self, spark, cohort):
        """Final-matrix entries from the Spark Eq. 1 reference."""
        return history_to_matrix(spark.createDataFrame(cohort.decisions)).toPandas()

    def test_counts_match_pandas(self, entries, cohort):
        ids = cohort.matcher_ids[:5]
        expected = Counter()
        for mid in ids:
            mine = entries[entries["matcher_id"] == mid]
            expected.update(set(zip(mine["row_i"].tolist(), mine["col_j"].tolist())))
        assert max(expected.values()) > 1  # pairs shared across matchers
        assert consensus_map(entries, ids) == dict(expected)

    def test_reference_pairs_popular(self, entries, cohort):
        """Consensus is higher on reference pairs than on decoys —
        the signal the Seq channel exploits."""
        cm = consensus_map(entries, cohort.matcher_ids)
        ref = cohort.task.reference_pairs
        ref_counts = [n for p, n in cm.items() if p in ref]
        other = [n for p, n in cm.items() if p not in ref]
        assert np.mean(ref_counts) > np.mean(other)


class TestSeqExtractor:
    @pytest.fixture(scope="class")
    def fitted(self, seqs, labels):
        ex = SeqFeatureExtractor({}, hidden=4, dense=4, epochs=2, seed=0)
        ex.fit(SimpleNamespace(sequences=seqs), labels)
        return ex

    def test_feature_names(self, fitted):
        names = FEATURE_SETS["Seq"]
        assert len(names) == len(SEQ_CHANNELS) * len(LABELS)
        assert "seq_conf (P)" in names and "seq_consensus (Cal)" in names

    def test_transform_shape_and_range(self, fitted, seqs):
        out = fitted.transform(SimpleNamespace(sequences=seqs), seqs["matcher_id"].tolist())
        assert len(out) == len(seqs)
        assert list(out.columns) == ["matcher_id", *FEATURE_SETS["Seq"]]
        vals = out[FEATURE_SETS["Seq"]].to_numpy()
        assert ((vals >= 0) & (vals <= 1)).all()

    def test_transform_before_fit_raises(self, seqs):
        with pytest.raises(RuntimeError):
            SeqFeatureExtractor({}).transform(
                SimpleNamespace(sequences=seqs), seqs["matcher_id"].tolist()
            )

    def test_learns_confidence_signal(self, spark):
        """Labels derived from mean confidence are recoverable by the
        conf-channel LSTM."""
        c = build_cohort("PO", n_matchers=30, seed=7)
        seqs = decision_sequences(spark.createDataFrame(c.decisions))
        med = np.median([s.mean() for s in seqs["confs"]])
        lab = pd.DataFrame({"matcher_id": seqs["matcher_id"]})
        y = np.array([float(s.mean() > med) for s in seqs["confs"]])
        for l in LABELS:
            lab[l] = y.astype(int)
        ex = SeqFeatureExtractor({}, hidden=8, dense=8, epochs=40, seed=0)
        bundle = SimpleNamespace(sequences=seqs)
        ex.fit(bundle, lab)
        out = ex.transform(bundle, seqs["matcher_id"].tolist())
        pred = (out["seq_conf (P)"].to_numpy() > 0.5).astype(float)
        assert (pred == y).mean() > 0.8


class TestSpaExtractor:
    @pytest.fixture(scope="class")
    def tensors(self, spark, cohort):
        hm = heatmap_counts(spark.createDataFrame(cohort.mouse), grid=12).toPandas()
        return heatmap_tensors(hm, grid=12)

    def test_tensor_shapes_and_mass(self, tensors, cohort):
        for (mid, etype), img in tensors.items():
            assert img.shape == (12, 12)
            assert img.sum() > 0
        n_events = len(cohort.mouse)
        assert sum(img.sum() for img in tensors.values()) == n_events

    def test_fit_transform(self, tensors, labels, cohort):
        bundle = SimpleNamespace(heatmaps=tensors, grid=12)
        ex = SpaFeatureExtractor(filters=3, epochs=2, seed=0)
        ex.fit(bundle, labels)
        ids = cohort.matcher_ids
        out = ex.transform(bundle, ids)
        assert len(out) == len(ids)
        assert list(out.columns) == ["matcher_id", *FEATURE_SETS["Spa"]]
        assert len(FEATURE_SETS["Spa"]) == len(ETYPE_NAMES) * len(LABELS)
        assert "spa_SMouse (Res)" in FEATURE_SETS["Spa"]
        vals = out[FEATURE_SETS["Spa"]].to_numpy()
        assert ((vals >= 0) & (vals <= 1)).all()

    def test_missing_tensor_is_zero_image(self, tensors, labels, cohort):
        bundle = SimpleNamespace(heatmaps=tensors, grid=12)
        ex = SpaFeatureExtractor(filters=3, epochs=1, seed=0)
        ex.fit(bundle, labels)
        out = ex.transform(bundle, ["ghost_matcher"])
        assert np.isfinite(out[FEATURE_SETS["Spa"]].to_numpy()).all()

    def test_transform_before_fit_raises(self, tensors):
        with pytest.raises(RuntimeError):
            SpaFeatureExtractor().transform(SimpleNamespace(heatmaps=tensors, grid=12), ["x"])
