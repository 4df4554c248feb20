"""Evaluation measures (Eqs. 6-7), k-fold splits, bootstrap test."""
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.evaluate import (
    accuracy_per_label,
    accuracy_row,
    bootstrap_pvalue,
    kfold_ids,
    matcher_scores,
    multilabel_accuracy,
)
from repro.core.measures import LABELS


def _df(rows):
    return pd.DataFrame(rows, columns=["matcher_id", *LABELS])


class TestAccuracy:
    def test_perfect(self):
        t = _df([("a", 1, 0, 1, 0), ("b", 0, 1, 0, 1)])
        acc = accuracy_per_label(t, t.copy())
        assert all(v == 1.0 for v in acc.values())
        assert multilabel_accuracy(t, t.copy()) == 1.0

    def test_single_flip(self):
        t = _df([("a", 1, 0, 1, 0), ("b", 0, 1, 0, 1)])
        p = _df([("a", 0, 0, 1, 0), ("b", 0, 1, 0, 1)])
        acc = accuracy_per_label(t, p)
        assert acc["A_P"] == 0.5
        assert acc["A_R"] == acc["A_Res"] == acc["A_Cal"] == 1.0

    def test_eq7_worked_example(self):
        # truth {P,Res}; pred {P,Cal} → |∩|=1, |∪|=3 → 1/3
        t = _df([("a", 1, 0, 1, 0)])
        p = _df([("a", 1, 0, 0, 1)])
        assert multilabel_accuracy(t, p) == pytest.approx(1 / 3)

    def test_empty_sets_convention(self):
        # no true positives, no predicted positives → Jaccard 1
        t = _df([("a", 0, 0, 0, 0)])
        p = _df([("a", 0, 0, 0, 0)])
        assert multilabel_accuracy(t, p) == 1.0

    def test_disjoint_sets_zero(self):
        t = _df([("a", 1, 1, 0, 0)])
        p = _df([("a", 0, 0, 1, 1)])
        assert multilabel_accuracy(t, p) == 0.0

    def test_row_order_irrelevant(self):
        t = _df([("a", 1, 0, 1, 0), ("b", 0, 1, 0, 1)])
        p = _df([("b", 0, 1, 0, 1), ("a", 1, 0, 1, 0)])
        assert multilabel_accuracy(t, p) == 1.0

    def test_id_mismatch_raises(self):
        t = _df([("a", 1, 0, 1, 0)])
        p = _df([("z", 1, 0, 1, 0)])
        with pytest.raises(ValueError):
            accuracy_per_label(t, p)

    def test_accuracy_row_keys(self):
        t = _df([("a", 1, 0, 1, 0)])
        row = accuracy_row(t, t.copy())
        assert set(row) == {"A_P", "A_R", "A_Res", "A_Cal", "A_ML"}

    def test_jaccard_scores_per_matcher(self):
        t = _df([("a", 1, 1, 0, 0), ("b", 1, 0, 0, 0)])
        p = _df([("a", 1, 0, 0, 0), ("b", 1, 0, 0, 0)])
        s = matcher_scores(t, p)["A_ML"]
        assert s.tolist() == [0.5, 1.0]


class TestKFold:
    def test_partition(self):
        ids = [f"m{i}" for i in range(23)]
        folds = kfold_ids(ids, k=5, seed=0)
        assert len(folds) == 5
        all_test = [x for _, te in folds for x in te]
        assert sorted(all_test) == sorted(ids)  # each id tested once

    def test_train_test_disjoint(self):
        ids = [f"m{i}" for i in range(20)]
        for tr, te in kfold_ids(ids, k=4, seed=1):
            assert not set(tr) & set(te)
            assert sorted(tr + te) == sorted(ids)

    def test_deterministic(self):
        ids = [f"m{i}" for i in range(10)]
        assert kfold_ids(ids, k=3, seed=2) == kfold_ids(ids, k=3, seed=2)

    @given(st.integers(min_value=6, max_value=40), st.integers(min_value=2, max_value=5))
    @settings(max_examples=20, deadline=None)
    def test_property_partition(self, n, k):
        ids = [f"m{i}" for i in range(n)]
        folds = kfold_ids(ids, k=k, seed=0)
        all_test = sorted(x for _, te in folds for x in te)
        assert all_test == sorted(ids)


class TestBootstrap:
    def test_clear_difference_significant(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0.9, 0.05, 100)
        b = rng.normal(0.5, 0.05, 100)
        assert bootstrap_pvalue(a, b, seed=0) < 0.01

    def test_no_difference_insignificant(self):
        rng = np.random.default_rng(1)
        a = rng.normal(0.7, 0.1, 100)
        b = rng.normal(0.7, 0.1, 100)
        assert bootstrap_pvalue(a, b, seed=0) > 0.05

    def test_wrong_direction_near_one(self):
        rng = np.random.default_rng(2)
        a = rng.normal(0.4, 0.05, 100)
        b = rng.normal(0.9, 0.05, 100)
        assert bootstrap_pvalue(a, b, seed=0) > 0.9

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        a, b = rng.random(30), rng.random(30)
        assert bootstrap_pvalue(a, b, seed=5) == bootstrap_pvalue(a, b, seed=5)
