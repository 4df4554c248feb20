"""CNN substrate: im2col, gradient check, learnability."""
import numpy as np
import pytest

from repro.ml.cnn import CNNClassifier, _im2col


class TestIm2col:
    def test_identity_kernel_size(self):
        X = np.arange(16, dtype=float).reshape(1, 4, 4)
        cols, out = _im2col(X, 4, 1)
        assert out == 1
        np.testing.assert_array_equal(cols[0], X.ravel())

    def test_output_size(self):
        X = np.zeros((2, 8, 8))
        cols, out = _im2col(X, 3, 2)
        assert out == 3
        assert cols.shape == (2 * 9, 9)

    def test_patch_values(self):
        X = np.arange(9, dtype=float).reshape(1, 3, 3)
        cols, out = _im2col(X, 2, 1)
        assert out == 2
        np.testing.assert_array_equal(cols[0], [0, 1, 3, 4])
        np.testing.assert_array_equal(cols[3], [4, 5, 7, 8])


def _num_grad(model, X, Y, pname, idx, eps=1e-5):
    p = getattr(model, pname)
    flat = p.ravel()
    orig = flat[idx]
    flat[idx] = orig + eps
    lp, _ = model._loss_and_grads(X, Y)
    flat[idx] = orig - eps
    lm, _ = model._loss_and_grads(X, Y)
    flat[idx] = orig
    return (lp - lm) / (2 * eps)


class TestGradients:
    """Finite-difference check on a stacked batch of two members; the
    loss is the members' sum."""

    @pytest.mark.parametrize("pname", ["Wc", "bc", "Wd", "bd"])
    def test_gradcheck(self, pname):
        model = CNNClassifier(10, 2, 2, filters=3, kernel=3, stride=1, seed=0)
        rng = np.random.default_rng(1)
        X = rng.random((2, 3, 10, 10))
        Y = rng.integers(0, 2, (2, 3, 2)).astype(float)
        _, grads = model._loss_and_grads(X, Y)
        g = grads[pname].ravel()
        idxs = np.random.default_rng(2).choice(g.size, size=min(6, g.size), replace=False)
        for i in idxs:
            num = _num_grad(model, X, Y, pname, i)
            assert num == pytest.approx(g[i], rel=1e-3, abs=1e-6), f"{pname}[{i}]"


class TestLearning:
    def test_learns_quadrant_signal(self):
        """Label = which half of the image carries the bright blob —
        the archetype of 'which screen region did the matcher visit'."""
        rng = np.random.default_rng(0)
        X, Y = [], []
        for _ in range(120):
            img = rng.random((12, 12)) * 0.1
            lab = int(rng.integers(0, 2))
            if lab:
                img[:6, :6] += 1.0
            else:
                img[6:, 6:] += 1.0
            X.append([img])
            Y.append([float(lab)])
        X, Y = np.array(X), np.array(Y)
        model = CNNClassifier(12, 1, 1, filters=4, kernel=5, stride=2, epochs=60, seed=0)
        model.fit(X, Y)
        acc = ((model.predict_proba(X)[0, :, 0] >= 0.5) == (Y[:, 0] >= 0.5)).mean()
        assert acc > 0.9

    def test_multilabel_shape(self):
        rng = np.random.default_rng(1)
        X = rng.random((8, 2, 16, 16))
        Y = rng.integers(0, 2, (8, 4)).astype(float)
        model = CNNClassifier(16, 2, 4, epochs=2, seed=0)
        p = model.fit(X, Y).predict_proba(X)
        assert p.shape == (2, 8, 4)  # one block per member
        assert np.all((p >= 0) & (p <= 1))

    def test_scale_invariant_normalization(self):
        """Heatmaps are max-normalized, so intensity scaling is a no-op."""
        rng = np.random.default_rng(2)
        X = rng.random((4, 1, 12, 12))
        Y = rng.integers(0, 2, (4, 1)).astype(float)
        model = CNNClassifier(12, 1, 1, epochs=3, seed=0).fit(X, Y)
        p1 = model.predict_proba(X)
        p2 = model.predict_proba(X * 50.0)
        np.testing.assert_allclose(p1, p2)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        X = rng.random((6, 1, 12, 12))
        Y = rng.integers(0, 2, (6, 2)).astype(float)
        p1 = CNNClassifier(12, 1, 2, epochs=3, seed=4).fit(X, Y).predict_proba(X)
        p2 = CNNClassifier(12, 1, 2, epochs=3, seed=4).fit(X, Y).predict_proba(X)
        np.testing.assert_array_equal(p1, p2)

    def test_too_small_image_raises(self):
        with pytest.raises(ValueError):
            CNNClassifier(4, 1, 1, kernel=5, stride=2)

    def test_zero_image_no_nan(self):
        model = CNNClassifier(12, 1, 1, epochs=1, seed=0)
        X = np.zeros((2, 1, 12, 12))
        Y = np.array([[0.0], [1.0]])
        p = model.fit(X, Y).predict_proba(X)
        assert np.all(np.isfinite(p))
