"""The shared training core: the one sigmoid, the Adam clip and the
logistic-regression loop, each against a frozen reference."""
import numpy as np
import pytest

from repro.ml.logreg import LR, LogisticRegression
from repro.ml.train import CLIP, Adam, sigmoid


def _two_branch(z: np.ndarray) -> np.ndarray:
    """Reference logistic: 1/(1+e^-z) for z >= 0, e^z/(1+e^z) below."""
    out = np.empty_like(z)
    pos = z >= 0
    with np.errstate(under="ignore"):
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _where_form(z: np.ndarray) -> np.ndarray:
    """The one-exp ``np.where`` logistic the numpy learners used before
    the ``np.maximum`` numerator."""
    with np.errstate(under="ignore"):
        e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.int64)


def _value_set() -> np.ndarray:
    rng = np.random.default_rng(0)
    return np.concatenate(
        [
            np.linspace(-800.0, 800.0, 400_001),
            rng.normal(0.0, 5.0, 100_000),
            [0.0, -0.0, 1e-300, -1e-300, 708.5, -708.5, 745.0, -745.0],
        ]
    )


class TestSigmoid:
    def test_bit_equal_to_two_branch_form(self):
        z = _value_set()
        # the second array has no |z| above 708, where the underflow switch stays off
        for part in (z, z[np.abs(z) <= 700.0]):
            np.testing.assert_array_equal(_bits(sigmoid(part)), _bits(_two_branch(part)))

    def test_no_floating_point_warning_in_the_tails(self):
        big = np.finfo(float).max
        z = np.array([720.0, -720.0, 745.0, -745.0, 746.0, -746.0, 800.0, -800.0])
        z = np.append(z, [big, -big, np.inf, -np.inf])
        with np.errstate(all="raise"):
            p = sigmoid(z)
        np.testing.assert_array_equal(_bits(p), _bits(_two_branch(z)))
        assert np.all(p[::2] == 1.0) and np.all(p[1::2] < 1e-300)

    def test_bit_equal_to_where_form(self):
        z = _value_set()
        np.testing.assert_array_equal(_bits(sigmoid(z)), _bits(_where_form(z)))


class TestAdamClip:
    def test_clip_equals_np_clip(self):
        """Adam's min/max clip gives the updates of an ``np.clip`` step."""
        rng = np.random.default_rng(4)
        g = rng.normal(0.0, 8.0, 2000)
        g[:6] = [CLIP, -CLIP, np.nextafter(CLIP, 9), -0.0, np.inf, -np.inf]
        np.testing.assert_array_equal(
            _bits(np.minimum(np.maximum(g, -CLIP), CLIP)), _bits(np.clip(g, -CLIP, CLIP))
        )
        p_new = rng.normal(0, 1, g.size)
        p_ref = p_new.copy()
        adam = Adam({"w": p_new}, 0.01)
        m, v = np.zeros_like(g), np.zeros_like(g)
        for t in range(1, 4):
            adam.step({"w": g * t})
            # the frozen np.clip update, in Adam's order of operations
            gc = np.clip(g * t, -CLIP, CLIP)
            m *= 0.9
            m += (1 - 0.9) * gc
            v *= 0.999
            v += (1 - 0.999) * gc**2
            p_ref -= 0.01 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
        np.testing.assert_array_equal(_bits(p_new), _bits(p_ref))


def _frozen_logreg_fit(X, y, *, l2, epochs, seed):
    """The logistic-regression loop before the preallocated gradient:
    ``np.append`` of the weight gradient and ``err.mean()`` each epoch."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    mu, sd = X.mean(axis=0), X.std(axis=0)
    sd[sd < 1e-12] = 1.0
    Xs = (X - mu) / sd
    n, d = Xs.shape
    theta = np.append(np.random.default_rng(seed).normal(0, 0.01, d), 0.0)
    w, b = theta[:-1], theta[-1:]
    adam = Adam({"theta": theta}, LR)
    for _ in range(epochs):
        err = _where_form(Xs @ w + b) - y
        adam.step({"theta": np.append(Xs.T @ err / n + l2 * w, err.mean())})
    return w, float(b[0]), mu, sd


class TestLogRegLoop:
    @pytest.mark.parametrize("case", ["constant_column", "separable"])
    def test_equal_to_frozen_loop(self, case):
        rng = np.random.default_rng(7)
        X = rng.normal(0, 1, (90, 12))
        if case == "constant_column":
            X[:, 4] = 3.0
            y = (X[:, 0] - X[:, 1] + rng.normal(0, 1, 90) > 0).astype(float)
        else:
            y = (X[:, 2] > 0).astype(float)
            X[:, 2] += np.where(y > 0, 2.0, -2.0)
        for l2, seed in [(1e-2, 0), (1e-4, 5)]:
            m = LogisticRegression(l2=l2, epochs=300, seed=seed).fit(X, y)
            w, b, mu, sd = _frozen_logreg_fit(X, y, l2=l2, epochs=300, seed=seed)
            np.testing.assert_array_equal(m.w_, w)
            assert m.b_ == b
            np.testing.assert_array_equal(m.predict_proba(X), _where_form((X - mu) / sd @ w + b))


def _assert_member_equals_frozen(m, X, y, *, l2, seed, epochs=300):
    w, b, mu, sd = _frozen_logreg_fit(X, y, l2=l2, epochs=epochs, seed=seed)
    np.testing.assert_array_equal(_bits(m.w_), _bits(w))
    assert m.b_ == b
    np.testing.assert_array_equal(_bits(m.mu_), _bits(mu))
    np.testing.assert_array_equal(_bits(m.sd_), _bits(sd))
    np.testing.assert_array_equal(_bits(m.predict_proba(X)), _bits(_where_form((X - mu) / sd @ w + b)))


class TestStackedLogReg:
    """Every member of a stacked fit equals its own single fit, bit for bit."""

    @staticmethod
    def _members(rng, G, n, d=9):
        X = rng.normal(0, 1, (G, n, d)) * rng.uniform(0.5, 3.0, (G, 1, d))
        X[:, :, 3] = 1.5  # a constant column: sd falls back to 1
        y = (X[..., 0] + rng.normal(0, 1, (G, n)) > 0).astype(float)
        return X, y

    @pytest.mark.parametrize("l2", [1e-2, 1e-4])
    @pytest.mark.parametrize("G", [1, 4])
    def test_members_equal_single_fits(self, l2, G):
        rng = np.random.default_rng(3)
        X, y = self._members(rng, G, 37)
        seeds = [11 * g + 2 for g in range(G)]
        stack = LogisticRegression(l2=l2, epochs=300, seed=seeds).fit(X, y)
        assert stack.w_.shape == (G, 9)
        for g in range(G):
            _assert_member_equals_frozen(stack.member(g), X[g], y[g], l2=l2, seed=seeds[g])

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_two_row_counts_in_one_call(self, order, monkeypatch):
        """``_fit_logregs`` stacks the fits of equal row count, keeps each
        fit's own rows, labels, seed and memory order (a DataFrame's
        matrix is column-major), and pads nothing."""
        from repro.core.mexi import _fit_logregs

        rng = np.random.default_rng(5)
        X = self._members(rng, 1, 40)[0][0]
        Y = (rng.random((5, 40)) < 0.4).astype(float)
        rows = [np.setdiff1d(np.arange(40), np.arange(f, 40, 3)) for f in (0, 1, 0, 2, 1)]
        fits = [(np.asarray(X[r], order=order), Y[i, r], 100 + i) for i, r in enumerate(rows)]
        seen = []
        original = LogisticRegression.fit

        def spy(self, X, y):
            seen.append(np.shape(X))
            return original(self, X, y)

        monkeypatch.setattr(LogisticRegression, "fit", spy)
        models = _fit_logregs(fits)
        monkeypatch.undo()
        for (Xm, y, s), m in zip(fits, models):
            _assert_member_equals_frozen(m, Xm, y, l2=1e-2, seed=s, epochs=800)
        assert sorted(seen) == [(2, 26, 9), (3, 27, 9)]
