"""L2-regularized binary logistic regression trained with Adam.

scikit-learn is unavailable offline, so this is the reproduction's
"classic classifier" #1 (the paper trains a set of classic classifiers
and keeps the top performer; see `repro.core.mexi._select_classifiers`).
Features are standardized internally so callers pass raw feature frames.
The sigmoid and the Adam step are those of ``repro.ml.train``.

One fit may train a stack of G independent regressions on a leading
member axis, X (G, n, d) and y (G, n): member g standardizes its own
rows and draws its initial weights from ``default_rng(seed[g])``. Every
member equals a separate fit on its own (n, d) array bit for bit when
it is laid out in that array's memory order and starts on a 16-byte
boundary, as a separate array does. The caller's stack sets the order
(``np.stack`` keeps the order of arrays of one order); ``fit`` builds
its standardized members in that order, each on the boundary. Members
must share n: padding would change the order of the row sums.
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
    on cross-entropy, as in §IV-B. ``seed`` is one int, or one per
    member of a stacked fit.
    """

    def __init__(
        self,
        *,
        l2: float = 1e-2,
        epochs: int = 800,
        seed: int | list[int] = 0,
    ) -> None:
        self.l2 = l2
        self.epochs = epochs
        self.seed = seed
        self.w_: np.ndarray | None = None
        self.b_: float | np.ndarray = 0.0
        self.mu_: np.ndarray | None = None
        self.sd_: np.ndarray | None = None

    def _standardize(self, X: np.ndarray) -> np.ndarray:
        return (X - self.mu_) / self.sd_

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LogisticRegression":
        """Fit on X (n, d) and y (n,), or a stack of G members on X
        (G, n, d) and y (G, n); a stacked fit keeps (G, ...) arrays and
        :meth:`member` gives each member as a single classifier."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        single = X.ndim == 2
        if single:
            X, y = X[None], y.ravel()[None]
        if X.ndim != 3 or X.shape[:2] != y.shape:
            raise ValueError(f"bad shapes X{X.shape} y{y.shape}")
        G, n, d = X.shape
        mu = X.mean(axis=1, keepdims=True)
        sd = X.std(axis=1, keepdims=True)
        sd[sd < 1e-12] = 1.0
        # Each member in X's memory order and on a 16-byte boundary, as a
        # separate array is: BLAS dgemv sums in another order off it. So
        # the member stride is rounded up to an even number of elements.
        size = n * d
        buf = np.empty((G, size + size % 2))[:, :size]
        column_major = X.strides[1] < X.strides[2]
        Xs = buf.reshape(G, d, n).transpose(0, 2, 1) if column_major else buf.reshape(G, n, d)
        np.subtract(X, mu, out=Xs)
        Xs /= sd
        XsT = Xs.transpose(0, 2, 1)
        seeds = np.broadcast_to(self.seed, (G,))
        # per member: the weights, then the intercept
        theta = np.stack(
            [np.append(np.random.default_rng(s).normal(0, 0.01, d), 0.0) for s in seeds]
        )
        w, b = theta[:, :-1], theta[:, -1:]
        grad = np.empty_like(theta)  # written in place each epoch, laid out as theta
        adam = Adam({"theta": theta}, LR)
        for _ in range(self.epochs):
            # (G, n, d) @ (G, d, 1): one matrix-vector product per member
            err = sigmoid((Xs @ w[..., None])[..., 0] + b) - y
            np.add((XsT @ err[..., None])[..., 0] / n, self.l2 * w, out=grad[:, :-1])
            grad[:, -1] = np.add.reduce(err, axis=1) / n
            adam.step({"theta": grad})
        self.w_, self.b_, self.mu_, self.sd_ = w, b[:, 0], mu[:, 0], sd[:, 0]
        if single:
            one = self.member(0)
            self.w_, self.b_, self.mu_, self.sd_ = one.w_, one.b_, one.mu_, one.sd_
        return self

    def member(self, g: int) -> "LogisticRegression":
        """Member ``g`` of a stacked fit as a fitted single classifier."""
        one = LogisticRegression(l2=self.l2, epochs=self.epochs)
        one.w_, one.b_, one.mu_, one.sd_ = self.w_[g], float(self.b_[g]), self.mu_[g], self.sd_[g]
        return one

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self.w_ is None:
            raise RuntimeError("fit() first")
        Xs = self._standardize(np.asarray(X, dtype=float))
        return sigmoid(Xs @ self.w_ + self.b_)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.predict_proba(X) >= 0.5).astype(int)
