"""LSTM substrate: padding, gradient check, learnability."""
import numpy as np
import pytest

from repro.ml.lstm import LSTMClassifier, pad_sequences


class TestPadSequences:
    def test_shapes_and_mask(self):
        seqs = [np.ones((3, 2)), np.ones((5, 2))]
        X, M = pad_sequences(seqs)
        assert X.shape == (2, 5, 2)
        assert M.tolist() == [[1, 1, 1, 0, 0], [1, 1, 1, 1, 1]]

    def test_truncation(self):
        X, M = pad_sequences([np.arange(10).reshape(5, 2)], max_len=3)
        assert X.shape == (1, 3, 2)
        assert M.sum() == 3

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            pad_sequences([])

    def test_values_preserved(self):
        s = np.random.default_rng(0).random((4, 3))
        X, _ = pad_sequences([s], max_len=6)
        np.testing.assert_array_equal(X[0, :4], s)
        assert np.all(X[0, 4:] == 0)


def _num_grad(model, X, M, Y, pname, idx, eps=1e-5):
    rngs = [np.random.default_rng(99)] * model.G
    p = getattr(model, pname)
    flat = p.ravel()
    orig = flat[idx]
    flat[idx] = orig + eps
    lp, _ = model._loss_and_grads(X, M, Y, rngs)
    flat[idx] = orig - eps
    lm, _ = model._loss_and_grads(X, M, Y, rngs)
    flat[idx] = orig
    return (lp - lm) / (2 * eps)


class TestGradients:
    """Finite-difference check of BPTT on a stacked batch of two members
    (dropout off for determinism); the loss is the members' sum."""

    @pytest.mark.parametrize("pname", ["Wx", "Wh", "b", "W1", "b1", "W2", "b2"])
    def test_gradcheck(self, pname):
        model = LSTMClassifier(2, 2, hidden=4, dense=3, dropout=0.0, seed=0)
        rng = np.random.default_rng(1)
        X = rng.normal(0, 1, (2, 3, 5, 1))
        M = np.array([[1, 1, 1, 0, 0], [1, 1, 1, 1, 1], [1, 0, 0, 0, 0]], dtype=float)
        M = np.stack([M, M[::-1]])
        X = X * M[..., None]
        Y = rng.integers(0, 2, (2, 3, 2)).astype(float)
        _, grads = model._loss_and_grads(X, M, Y, [np.random.default_rng(99)] * 2)
        g = grads[pname].ravel()
        idxs = np.random.default_rng(2).choice(g.size, size=min(5, g.size), replace=False)
        for i in idxs:
            num = _num_grad(model, X, M, Y, pname, i)
            assert num == pytest.approx(g[i], rel=1e-3, abs=1e-6), f"{pname}[{i}]"

    def test_mask_blocks_padded_steps(self):
        """Changing padded-step inputs must not change the loss."""
        model = LSTMClassifier(2, 1, hidden=4, dense=3, dropout=0.0, seed=0)
        rng = np.random.default_rng(1)
        X = rng.normal(0, 1, (2, 2, 4, 1))
        M = np.broadcast_to(np.array([[1, 1, 0, 0], [1, 1, 1, 1]], dtype=float), (2, 2, 4))
        Y = np.broadcast_to(np.array([[1.0], [0.0]]), (2, 2, 1))
        l1, _ = model._loss_and_grads(X, M, Y, [np.random.default_rng(0)] * 2)
        X2 = X.copy()
        X2[:, 0, 2:] = 100.0  # padded region of sequence 0
        l2, _ = model._loss_and_grads(X2, M, Y, [np.random.default_rng(0)] * 2)
        assert l1 == pytest.approx(l2)


class TestLearning:
    def test_learns_last_step_signal(self):
        """Label = whether the final step's first channel is positive;
        channel 0's member sees that channel."""
        rng = np.random.default_rng(0)
        seqs, Y = [], []
        for _ in range(80):
            T = int(rng.integers(4, 9))
            s = rng.normal(0, 1, (T, 2))
            seqs.append(s)
            Y.append([1.0 if s[-1, 0] > 0 else 0.0])
        model = LSTMClassifier(2, 1, hidden=8, dense=8, dropout=0.0, epochs=120, seed=0)
        model.fit(seqs, np.array(Y))
        p = model.predict_proba(seqs)[0]
        acc = ((p[:, 0] >= 0.5) == (np.array(Y)[:, 0] >= 0.5)).mean()
        assert acc > 0.85

    def test_learns_mean_signal(self):
        """Label = whether the sequence mean exceeds 0 (global signal)."""
        rng = np.random.default_rng(1)
        seqs, Y = [], []
        for _ in range(80):
            T = int(rng.integers(5, 12))
            mu = rng.choice([-0.8, 0.8])
            seqs.append(rng.normal(mu, 1, (T, 1)))
            Y.append([1.0 if mu > 0 else 0.0])
        model = LSTMClassifier(1, 1, hidden=8, dense=8, dropout=0.0, epochs=120, seed=0)
        model.fit(seqs, np.array(Y))
        p = model.predict_proba(seqs)[0]
        acc = ((p[:, 0] >= 0.5) == (np.array(Y)[:, 0] >= 0.5)).mean()
        assert acc > 0.85

    def test_multilabel_output_shape(self):
        rng = np.random.default_rng(2)
        seqs = [rng.normal(0, 1, (5, 3)) for _ in range(10)]
        Y = rng.integers(0, 2, (10, 4)).astype(float)
        model = LSTMClassifier(3, 4, hidden=4, dense=4, epochs=2, seed=0)
        p = model.fit(seqs, Y).predict_proba(seqs)
        assert p.shape == (3, 10, 4)  # one block per member
        assert np.all((p >= 0) & (p <= 1))

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        seqs = [rng.normal(0, 1, (4, 2)) for _ in range(8)]
        Y = rng.integers(0, 2, (8, 1)).astype(float)
        p1 = LSTMClassifier(2, 1, hidden=4, dense=4, epochs=5, seed=9).fit(seqs, Y).predict_proba(seqs)
        p2 = LSTMClassifier(2, 1, hidden=4, dense=4, epochs=5, seed=9).fit(seqs, Y).predict_proba(seqs)
        np.testing.assert_array_equal(p1, p2)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            LSTMClassifier(2, 1).predict_proba([np.zeros((3, 2))])
