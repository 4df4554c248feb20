"""Logistic regression and random forest substrate tests."""
import numpy as np
import pytest

from repro.ml import forest
from repro.ml.forest import DecisionTree, RandomForest
from repro.ml.logreg import LogisticRegression


def _blobs(n=200, d=4, sep=2.5, seed=0):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, n)
    X = rng.normal(0, 1, (n, d))
    X[:, 0] += sep * y
    return X, y


class TestLogisticRegression:
    def test_separable_accuracy(self):
        X, y = _blobs(sep=4.0)
        clf = LogisticRegression(epochs=500).fit(X, y)
        assert (clf.predict(X) == y).mean() > 0.95

    def test_proba_in_unit_interval(self):
        X, y = _blobs()
        p = LogisticRegression().fit(X, y).predict_proba(X)
        assert np.all((p >= 0) & (p <= 1))

    def test_deterministic(self):
        X, y = _blobs()
        p1 = LogisticRegression(seed=3).fit(X, y).predict_proba(X)
        p2 = LogisticRegression(seed=3).fit(X, y).predict_proba(X)
        np.testing.assert_array_equal(p1, p2)

    def test_generalizes(self):
        Xtr, ytr = _blobs(seed=0)
        Xte, yte = _blobs(seed=1)
        clf = LogisticRegression(epochs=500).fit(Xtr, ytr)
        assert (clf.predict(Xte) == yte).mean() > 0.85

    def test_constant_feature_no_nan(self):
        X, y = _blobs()
        X[:, 1] = 7.0
        p = LogisticRegression().fit(X, y).predict_proba(X)
        assert np.all(np.isfinite(p))

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            LogisticRegression().predict(np.zeros((2, 3)))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            LogisticRegression().fit(np.zeros((5, 2)), np.zeros(4))

    def test_l2_shrinks_weights(self):
        X, y = _blobs(sep=4.0)
        w_small = LogisticRegression(l2=1e-4, epochs=500).fit(X, y).w_
        w_big = LogisticRegression(l2=1.0, epochs=500).fit(X, y).w_
        assert np.linalg.norm(w_big) < np.linalg.norm(w_small)


class TestDecisionTree:
    def test_pure_leaf_on_separable(self):
        X = np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]])
        y = np.array([0, 0, 0, 1, 1, 1])
        tree = DecisionTree(min_samples_leaf=1).fit(X, y)
        assert (tree.predict_proba(X) >= 0.5).astype(int).tolist() == y.tolist()

    def test_single_class(self):
        X = np.random.default_rng(0).random((10, 3))
        y = np.ones(10, dtype=int)
        tree = DecisionTree().fit(X, y)
        assert np.all(tree.predict_proba(X) == 1.0)

    def test_max_depth_zero_is_prior(self):
        X, y = _blobs()
        tree = DecisionTree(max_depth=0).fit(X, y)
        assert np.allclose(tree.predict_proba(X), y.mean())

    def test_xor_needs_depth(self):
        rng = np.random.default_rng(0)
        X = rng.random((400, 2))
        y = ((X[:, 0] > 0.5) ^ (X[:, 1] > 0.5)).astype(int)
        deep = DecisionTree(max_depth=4, min_samples_leaf=1).fit(X, y)
        assert ((deep.predict_proba(X) >= 0.5).astype(int) == y).mean() > 0.9


def _gini(counts: np.ndarray) -> float:
    """Gini impurity of class counts, as the reference computes it."""
    n = counts.sum()
    if n == 0:
        return 0.0
    p = counts / n
    return 1.0 - float(np.sum(p * p))


class _LoopTree(DecisionTree):
    """Reference CART: the per-feature loop split search, the np.unique
    purity test and the per-row predict walk, kept as the independent
    check of the vectorized ``DecisionTree``."""

    def _best_split(self, X, y, rng):
        n, d = X.shape
        k = self.max_features or d
        feats = rng.choice(d, size=min(k, d), replace=False)
        parent_gini = _gini(np.bincount(y, minlength=2))
        best = None
        best_gain = 1e-9
        msl = self.min_samples_leaf
        for f in feats:
            col = X[:, f]
            order = np.argsort(col, kind="stable")
            cs = col[order]
            ys = y[order]
            cut = np.nonzero(cs[:-1] < cs[1:])[0]
            if cut.size == 0:
                continue
            nl = cut + 1
            nr = n - nl
            ok = (nl >= msl) & (nr >= msl)
            if not ok.any():
                continue
            cut, nl, nr = cut[ok], nl[ok], nr[ok]
            c1l = np.cumsum(ys)[cut].astype(float)
            c1r = ys.sum() - c1l
            p1l = c1l / nl
            p1r = c1r / nr
            gl = 1.0 - p1l**2 - (1 - p1l) ** 2
            gr = 1.0 - p1r**2 - (1 - p1r) ** 2
            gain = parent_gini - (nl * gl + nr * gr) / n
            i = int(np.argmax(gain))
            if gain[i] > best_gain:
                best_gain = float(gain[i])
                best = (int(f), float((cs[cut[i]] + cs[cut[i] + 1]) / 2.0))
        return best

    def _grow(self, X, y, depth, rng):
        idx = len(self._feat)
        self._feat.append(-1)
        self._thr.append(0.0)
        self._left.append(-1)
        self._right.append(-1)
        self._val.append(float(y.mean()) if y.size else 0.5)
        if depth >= self.max_depth or y.size < 2 * self.min_samples_leaf or len(np.unique(y)) == 1:
            return idx
        split = self._best_split(X, y, rng)
        if split is None:
            return idx
        f, thr = split
        mask = X[:, f] <= thr
        self._feat[idx] = f
        self._thr[idx] = thr
        self._left[idx] = self._grow(X[mask], y[mask], depth + 1, rng)
        self._right[idx] = self._grow(X[~mask], y[~mask], depth + 1, rng)
        return idx

    def predict_proba(self, X):
        X = np.asarray(X, dtype=float)
        out = np.empty(X.shape[0])
        for i, row in enumerate(X):
            node = 0
            while self._feat[node] >= 0:
                f = self._feat[node]
                node = self._left[node] if row[f] <= self._thr[node] else self._right[node]
            out[i] = self._val[node]
        return out


def _tree_case(seed):
    """Random node data with tied values, constant columns and duplicated
    (bootstrap) rows, n from 4 to 200."""
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(4, 201)), int(rng.integers(1, 12))
    X = rng.normal(0, 1, (n, d))
    tied = rng.random(d) < 0.4
    X[:, tied] = rng.integers(0, 4, (n, int(tied.sum()))).astype(float)
    X[:, rng.random(d) < 0.15] = 2.5
    y = (rng.random(n) < rng.uniform(0.05, 0.95)).astype(int)
    boot = rng.integers(0, n, n)
    return X[boot], y[boot]


def _on_thresholds(tree, X, rng):
    """Rows of ``X`` with one split feature set exactly to its threshold."""
    rows = [X]
    for f, thr in zip(tree._feat, tree._thr):
        if f >= 0:
            row = X[rng.integers(0, len(X))].copy()
            row[f] = thr
            rows.append(row[None])
    return np.vstack(rows)


class TestVectorizedTreeMatchesLoop:
    @pytest.mark.parametrize("msl", [1, 2, 5])
    @pytest.mark.parametrize("mf", ["all", "one", "sqrt"])
    def test_same_nodes_and_probabilities(self, msl, mf):
        for case in range(12):
            X, y = _tree_case(1000 * msl + case)
            d = X.shape[1]
            k = {"all": None, "one": 1, "sqrt": max(1, int(np.sqrt(d)))}[mf]
            kw = dict(max_depth=6, min_samples_leaf=msl, max_features=k, seed=case)
            new = DecisionTree(**kw).fit(X, y)
            ref = _LoopTree(**kw).fit(X, y)
            for attr in ("_feat", "_thr", "_left", "_right", "_val"):
                assert getattr(new, attr) == getattr(ref, attr), attr
            Q = _on_thresholds(ref, X, np.random.default_rng(case))
            np.testing.assert_array_equal(new.predict_proba(Q), ref.predict_proba(Q))

    def test_value_on_threshold_goes_left(self):
        X = np.array([[0.0], [0.0], [1.0], [1.0]])
        tree = DecisionTree(min_samples_leaf=1).fit(X, np.array([0, 0, 1, 1]))
        assert tree._thr[0] == 0.5
        assert tree.predict_proba(np.array([[0.5], [np.nextafter(0.5, 1)]])).tolist() == [0.0, 1.0]

    def test_rounding_gain_is_no_split(self):
        # both sides keep the parent's 1/3 rate: the gain is 0, computed
        # as 5.6e-17, and must not pass the 1e-9 floor
        X = np.array([[0.0], [0.0], [0.0], [1.0], [1.0], [1.0]])
        y = np.array([0, 0, 1, 0, 0, 1])
        new = DecisionTree(min_samples_leaf=1).fit(X, y)
        assert new._feat == _LoopTree(min_samples_leaf=1).fit(X, y)._feat == [-1]

    @pytest.mark.parametrize("seed", [5, 1007])
    def test_forest_probabilities(self, seed, monkeypatch):
        X, y = _tree_case(seed)
        new = RandomForest(n_estimators=15, seed=seed).fit(X, y)
        monkeypatch.setattr(forest, "DecisionTree", _LoopTree)
        ref = RandomForest(n_estimators=15, seed=seed).fit(X, y)
        assert all(type(t) is _LoopTree for t in ref.trees_)
        for a, b in zip(new.trees_, ref.trees_):
            assert (a._feat, a._thr, a._val) == (b._feat, b._thr, b._val)
        Q = _on_thresholds(ref.trees_[0], X, np.random.default_rng(seed))
        ref_p = np.mean([t.predict_proba(Q) for t in ref.trees_], axis=0)
        np.testing.assert_array_equal(new.predict_proba(Q), ref_p)


class TestRandomForest:
    def test_separable_accuracy(self):
        X, y = _blobs(sep=3.0)
        clf = RandomForest(n_estimators=30).fit(X, y)
        assert (clf.predict(X) == y).mean() > 0.95

    def test_generalizes(self):
        Xtr, ytr = _blobs(seed=0)
        Xte, yte = _blobs(seed=1)
        clf = RandomForest(n_estimators=30).fit(Xtr, ytr)
        assert (clf.predict(Xte) == yte).mean() > 0.8

    def test_deterministic(self):
        X, y = _blobs()
        p1 = RandomForest(n_estimators=10, seed=5).fit(X, y).predict_proba(X)
        p2 = RandomForest(n_estimators=10, seed=5).fit(X, y).predict_proba(X)
        np.testing.assert_array_equal(p1, p2)

    def test_proba_in_unit_interval(self):
        X, y = _blobs()
        p = RandomForest(n_estimators=10).fit(X, y).predict_proba(X)
        assert np.all((p >= 0) & (p <= 1))

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            RandomForest().predict(np.zeros((2, 3)))

    def test_nonlinear_beats_logreg(self):
        """XOR-style target: forest should clearly beat a linear model."""
        rng = np.random.default_rng(0)
        X = rng.random((500, 2))
        y = ((X[:, 0] > 0.5) ^ (X[:, 1] > 0.5)).astype(int)
        rf_acc = (RandomForest(n_estimators=30, max_depth=6).fit(X, y).predict(X) == y).mean()
        lr_acc = (LogisticRegression(epochs=300).fit(X, y).predict(X) == y).mean()
        assert rf_acc > lr_acc + 0.2
