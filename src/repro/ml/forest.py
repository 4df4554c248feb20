"""Random forest over CART trees (gini impurity), implemented in numpy.

This is the reproduction's "classic classifier" #2 (stand-in for the
scikit-learn Random Forest the paper uses; see DESIGN.md §2). Bootstrap
sampling + sqrt-feature subsampling per split. Each node's split search
is one vectorized pass over all its candidate features: one stable sort
of the candidate columns, one gather of the sorted values, cumulative
positive counts (the right side's are the node's count minus the
left's), and the gini gain of every (distinct threshold, feature) pair
(exact CART, no quantile capping). Prediction moves all rows down the
node arrays together, one gather per level; a forest walks all its
trees at once.
"""
from __future__ import annotations

import numpy as np

__all__ = ["DecisionTree", "RandomForest"]


class DecisionTree:
    """CART classifier stored as parallel node arrays (no recursion at
    predict time). Leaves store the positive-class fraction."""

    def __init__(
        self,
        *,
        max_depth: int = 6,
        min_samples_leaf: int = 2,
        max_features: int | None = None,
        seed: int = 0,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.seed = seed
        # node arrays: feature (-1 for leaf), threshold, left, right, value
        self._feat: list[int] = []
        self._thr: list[float] = []
        self._left: list[int] = []
        self._right: list[int] = []
        self._val: list[float] = []

    def _best_split(
        self, X: np.ndarray, y: np.ndarray, rng: np.random.Generator
    ) -> tuple[int, float] | None:
        """Exact split search over the node's candidate features at once:
        the first feature (in draw order) whose best cut reaches the
        largest gini gain, and that cut's first occurrence."""
        n, d = X.shape
        k = self.max_features or d
        feats = rng.choice(d, size=min(k, d), replace=False)
        n1 = int(y.sum())
        p0, p1 = (n - n1) / n, n1 / n
        parent_gini = 1.0 - (p0 * p0 + p1 * p1)
        Xf = X[:, feats]
        order = np.argsort(Xf, axis=0, kind="stable")
        cols = np.arange(len(feats))
        cs = Xf[order, cols]
        # cut i: left = the first i+1 sorted rows of a column; the counts
        # are exact floats, so the divisions below cast nothing
        c1l = np.cumsum(y[order[:-1]], axis=0, dtype=float)
        c1r = n1 - c1l
        nl = np.arange(1.0, n)[:, None]
        nr = n - nl
        p1l = c1l / nl
        p1r = c1r / nr
        gl = 1.0 - p1l**2 - (1 - p1l) ** 2
        gr = 1.0 - p1r**2 - (1 - p1r) ** 2
        gain = parent_gini - (nl * gl + nr * gr) / n
        ok = (cs[:-1] < cs[1:]) & (nl >= self.min_samples_leaf) & (nr >= self.min_samples_leaf)
        gain = np.where(ok, gain, -np.inf)
        cut = np.argmax(gain, axis=0)
        best = gain[cut, cols]
        j = int(np.argmax(best))
        if not best[j] > 1e-9:
            return None
        i = cut[j]
        return int(feats[j]), float((cs[i, j] + cs[i + 1, j]) / 2.0)

    def _grow(self, X: np.ndarray, y: np.ndarray, depth: int, rng) -> int:
        idx = len(self._feat)
        val = float(y.sum() / y.size) if y.size else 0.5
        self._feat.append(-1)
        self._thr.append(0.0)
        self._left.append(-1)
        self._right.append(-1)
        self._val.append(val)
        # labels are 0/1, so the mean is 0 or 1 exactly when the node is pure
        if depth >= self.max_depth or y.size < 2 * self.min_samples_leaf or val in (0.0, 1.0):
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

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTree":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=int).ravel()
        rng = np.random.default_rng(self.seed)
        self._feat, self._thr, self._left, self._right, self._val = [], [], [], [], []
        self._grow(X, y, 0, rng)
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        nodes = (self._feat, self._thr, self._left, self._right, self._val)
        return _walk(*map(np.asarray, nodes), np.zeros(1, dtype=int), X, self.max_depth)[0]


def _walk(feat, thr, left, right, val, roots, X, depth: int) -> np.ndarray:
    """Leaf value reached from each root (axis 0) by each row of ``X``
    (axis 1): all rows move down the node arrays together, one gather per
    level. A leaf's feature is -1, so its rows compare against the last
    column and stay put; after ``depth`` steps every row is in a leaf."""
    X = np.asarray(X, dtype=float)
    rows = np.arange(X.shape[0])
    node = np.repeat(roots[:, None], X.shape[0], axis=1)
    for _ in range(depth):
        f = feat[node]
        go = np.where(X[rows, f] <= thr[node], left[node], right[node])
        node = np.where(f >= 0, go, node)
    return val[node]


class RandomForest:
    """Bagged CART ensemble; predict_proba averages leaf fractions."""

    def __init__(
        self,
        *,
        n_estimators: int = 60,
        max_depth: int = 6,
        min_samples_leaf: int = 2,
        seed: int = 0,
    ) -> None:
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.seed = seed
        self.trees_: list[DecisionTree] = []

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForest":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=int).ravel()
        n, d = X.shape
        k = max(1, int(np.sqrt(d)))
        rng = np.random.default_rng(self.seed)
        self.trees_ = []
        for t in range(self.n_estimators):
            boot = rng.integers(0, n, n)
            tree = DecisionTree(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=k,
                seed=int(rng.integers(0, 2**31 - 1)),
            )
            tree.fit(X[boot], y[boot])
            self.trees_.append(tree)
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Mean leaf fraction over the trees, all trees walked at once on
        their concatenated node arrays."""
        if not self.trees_:
            raise RuntimeError("fit() first")
        sizes = [len(t._feat) for t in self.trees_]
        roots = np.cumsum([0, *sizes[:-1]])
        base = np.repeat(roots, sizes)
        feat, thr, left, right, val = (
            np.concatenate([getattr(t, a) for t in self.trees_])
            for a in ("_feat", "_thr", "_left", "_right", "_val")
        )
        p = _walk(feat, thr, left + base, right + base, val, roots, X, self.max_depth)
        return p.mean(axis=0)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.predict_proba(X) >= 0.5).astype(int)
