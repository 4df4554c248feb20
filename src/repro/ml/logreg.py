"""L2-regularized binary logistic regression trained with Adam.

scikit-learn is unavailable offline, so this is the reproduction's
"classic classifier" #1 (the paper trains a set of classic classifiers
and keeps the top performer; see `repro.core.mexi._fit_best_classifier`).
Features are standardized internally so callers pass raw feature frames.
The sigmoid and the Adam step are those of ``repro.ml.train``.
"""
from __future__ import annotations

import numpy as np

from repro.ml.train import Adam, sigmoid

__all__ = ["LogisticRegression"]

# Full-batch Adam on cohort-sized frames needs a rate above the networks'
# 1e-3 to converge within the epoch budget.
LR = 0.05


class LogisticRegression:
    """Binary classifier: p(y=1|x) = sigmoid(w·x_std + b).

    Optimized with full-batch Adam (beta1=.9, beta2=.999, η = ``LR``)
    on cross-entropy, as in §IV-B.
    """

    def __init__(
        self,
        *,
        l2: float = 1e-2,
        epochs: int = 800,
        seed: int = 0,
    ) -> None:
        self.l2 = l2
        self.epochs = epochs
        self.seed = seed
        self.w_: np.ndarray | None = None
        self.b_: float = 0.0
        self.mu_: np.ndarray | None = None
        self.sd_: np.ndarray | None = None

    def _standardize(self, X: np.ndarray) -> np.ndarray:
        return (X - self.mu_) / self.sd_

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LogisticRegression":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if X.ndim != 2 or X.shape[0] != y.size:
            raise ValueError(f"bad shapes X{X.shape} y{y.shape}")
        self.mu_ = X.mean(axis=0)
        self.sd_ = X.std(axis=0)
        self.sd_[self.sd_ < 1e-12] = 1.0
        Xs = self._standardize(X)
        n, d = Xs.shape
        rng = np.random.default_rng(self.seed)
        theta = np.append(rng.normal(0, 0.01, d), 0.0)  # the weights, then the intercept
        w, b = theta[:-1], theta[-1:]
        grad = np.empty_like(theta)  # written in place each epoch, laid out as theta
        adam = Adam({"theta": theta}, LR)
        for _ in range(self.epochs):
            err = sigmoid(Xs @ w + b) - y
            np.add(Xs.T @ err / n, self.l2 * w, out=grad[:-1])
            grad[-1] = np.add.reduce(err) / n
            adam.step({"theta": grad})
        self.w_, self.b_ = w, float(b[0])
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self.w_ is None:
            raise RuntimeError("fit() first")
        Xs = self._standardize(np.asarray(X, dtype=float))
        return sigmoid(Xs @ self.w_ + self.b_)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.predict_proba(X) >= 0.5).astype(int)
