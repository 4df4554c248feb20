"""Stacked late-fusion networks against frozen single-network references.

``LSTMClassifier`` and ``CNNClassifier`` hold one network per input
channel on a leading member axis. Member c must be bit for bit the
single-channel network seeded ``seed + c``: the references below are
frozen copies of the one-network-per-instance classifiers and of the
training core they ran on (one rng per fit, the two-branch sigmoid,
``np.clip``, a scalar BCE).
"""
import numpy as np
import pytest

from repro.ml.cnn import CNNClassifier, _im2col
from repro.ml.lstm import LSTMClassifier, pad_sequences

# ---------------------------------------------------------------- frozen core


def _ref_sigmoid(z):
    a = np.abs(z)
    with np.errstate(under="ignore"):
        e = np.exp(-a)
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _ref_bce(p, Y):
    eps = 1e-9
    loss = -np.mean(Y * np.log(p + eps) + (1 - Y) * np.log(1 - p + eps))
    return loss, (p - Y) / Y.size


class _RefAdam:
    def __init__(self, params, lr):
        self.params, self.lr, self.t = params, lr, 0
        self.m = {k: np.zeros_like(p) for k, p in params.items()}
        self.v = {k: np.zeros_like(p) for k, p in params.items()}

    def step(self, grads):
        self.t += 1
        c1, c2 = 1 - 0.9**self.t, 1 - 0.999**self.t
        for k, p in self.params.items():
            g = np.clip(grads[k], -5.0, 5.0)
            m, v = self.m[k], self.v[k]
            m *= 0.9
            m += (1 - 0.9) * g
            v *= 0.999
            v += (1 - 0.999) * g**2
            p -= self.lr * (m / c1) / (np.sqrt(v / c2) + 1e-8)


def _ref_fit_minibatches(loss_and_grads, params, arrays, epochs, rng):
    adam = _RefAdam(params, 1e-3)
    n = len(arrays[0])
    for _ in range(epochs):
        order = rng.permutation(n)
        for s in range(0, n, 32):
            idx = order[s : s + 32]
            _, grads = loss_and_grads(*(a[idx] for a in arrays))
            adam.step(grads)


# ---------------------------------------------------------------- frozen LSTM


class _RefLSTM:
    """One LSTM over (T_i, d) sequences, as before the member axis."""

    def __init__(self, input_dim, n_labels, *, hidden, dense, dropout, epochs, seed):
        self.K, self.H, self.dropout, self.epochs, self.seed = n_labels, hidden, dropout, epochs, seed
        rng = np.random.default_rng(seed)
        H, d, D, K = hidden, input_dim, dense, n_labels
        sc = 1.0 / np.sqrt(d + H)
        self.Wx = rng.normal(0, sc, (d, 4 * H))
        self.Wh = rng.normal(0, sc, (H, 4 * H))
        self.b = np.zeros(4 * H)
        self.b[H : 2 * H] = 1.0
        self.W1 = rng.normal(0, 1.0 / np.sqrt(H), (H, D))
        self.b1 = np.zeros(D)
        self.W2 = rng.normal(0, 1.0 / np.sqrt(D), (D, K))
        self.b2 = np.zeros(K)
        self._params = ["Wx", "Wh", "b", "W1", "b1", "W2", "b2"]

    def _forward_lstm(self, X, M):
        N, T, _ = X.shape
        H = self.H
        h, c = np.zeros((N, H)), np.zeros((N, H))
        cache = []
        for t in range(T):
            x_t = X[:, t, :]
            m = M[:, t][:, None]
            z = x_t @ self.Wx + h @ self.Wh + self.b
            gates = _ref_sigmoid(z[:, : 3 * H])
            i, f, o = gates[:, :H], gates[:, H : 2 * H], gates[:, 2 * H :]
            g = np.tanh(z[:, 3 * H :])
            c_new = f * c + i * g
            h_new = o * np.tanh(c_new)
            c_next = m * c_new + (1 - m) * c
            h_next = m * h_new + (1 - m) * h
            cache.append((x_t, h, c, i, f, o, g, c_new, m))
            h, c = h_next, c_next
        return h, cache

    def _forward_head(self, h, drop_mask):
        hd = h * drop_mask if drop_mask is not None else h
        a1 = hd @ self.W1 + self.b1
        r1 = np.maximum(a1, 0.0)
        return _ref_sigmoid(r1 @ self.W2 + self.b2), (hd, a1, r1)

    def _loss_and_grads(self, X, M, Y, rng):
        N = X.shape[0]
        h, cache = self._forward_lstm(X, M)
        drop = (rng.random(h.shape) >= self.dropout) / (1 - self.dropout) if self.dropout > 0 else None
        p, (hd, a1, r1) = self._forward_head(h, drop)
        loss, dlogits = _ref_bce(p, Y)
        gW2 = r1.T @ dlogits
        gb2 = dlogits.sum(axis=0)
        da1 = (dlogits @ self.W2.T) * (a1 > 0)
        gW1 = hd.T @ da1
        gb1 = da1.sum(axis=0)
        dh = da1 @ self.W1.T
        if drop is not None:
            dh = dh * drop
        dWx, dWh, db = np.zeros_like(self.Wx), np.zeros_like(self.Wh), np.zeros_like(self.b)
        dc = np.zeros((N, self.H))
        for t in reversed(range(X.shape[1])):
            x_t, h_prev, c_prev, i, f, o, g, c_new, m = cache[t]
            dh_step, dc_step = dh * m, dc * m
            dh_carry, dc_carry = dh * (1 - m), dc * (1 - m)
            tc = np.tanh(c_new)
            do = dh_step * tc
            dc_new = dc_step + dh_step * o * (1 - tc**2)
            di, df, dg = dc_new * g, dc_new * c_prev, dc_new * i
            dz = np.concatenate(
                [di * i * (1 - i), df * f * (1 - f), do * o * (1 - o), dg * (1 - g**2)], axis=1
            )
            dWx += x_t.T @ dz
            dWh += h_prev.T @ dz
            db += dz.sum(axis=0)
            dh = dh_carry + dz @ self.Wh.T
            dc = dc_carry + dc_new * f
        return loss, {"Wx": dWx, "Wh": dWh, "b": db, "W1": gW1, "b1": gb1, "W2": gW2, "b2": gb2}

    def fit(self, seqs, Y):
        X, M = pad_sequences(seqs)
        Y = np.asarray(Y, dtype=float).reshape(len(seqs), self.K)
        valid = M.astype(bool)
        flat = X[valid]
        self.mu_, self.sd_ = flat.mean(axis=0), flat.std(axis=0)
        self.sd_[self.sd_ < 1e-12] = 1.0
        X = np.where(valid[:, :, None], (X - self.mu_) / self.sd_, 0.0)
        rng = np.random.default_rng(self.seed + 1)
        params = {pn: getattr(self, pn) for pn in self._params}
        _ref_fit_minibatches(
            lambda *b: self._loss_and_grads(*b, rng=rng), params, (X, M, Y), self.epochs, rng
        )
        return self

    def predict_proba(self, seqs):
        X, M = pad_sequences(seqs)
        valid = M.astype(bool)
        X = np.where(valid[:, :, None], (X - self.mu_) / self.sd_, 0.0)
        h, _ = self._forward_lstm(X, M)
        return self._forward_head(h, None)[0]


# ---------------------------------------------------------------- frozen CNN


class _RefCNN:
    """One CNN over (N, S, S) heat maps, as before the member axis."""

    def __init__(self, img_size, n_labels, *, filters, kernel, stride, epochs, seed):
        self.K, self.C, self.k, self.stride, self.epochs, self.seed = (
            n_labels, filters, kernel, stride, epochs, seed)
        rng = np.random.default_rng(seed)
        self.pool_out = ((img_size - kernel) // stride + 1) // 2
        self.Wc = rng.normal(0, 1.0 / kernel, (kernel * kernel, filters))
        self.bc = np.zeros(filters)
        flat = self.pool_out * self.pool_out * filters
        self.Wd = rng.normal(0, 1.0 / np.sqrt(flat), (flat, n_labels))
        self.bd = np.zeros(n_labels)
        self._params = ["Wc", "bc", "Wd", "bd"]

    @staticmethod
    def _max_normalized(X):
        X = np.asarray(X, dtype=float)
        mx = X.reshape(X.shape[0], -1).max(axis=1)
        mx[mx < 1e-12] = 1.0
        return X / mx[:, None, None]

    def _forward(self, X):
        N = X.shape[0]
        cols, out = _im2col(X, self.k, self.stride)
        a = (cols @ self.Wc + self.bc).reshape(N, out, out, self.C)
        r = np.maximum(a, 0.0)
        P = self.pool_out
        rp = r[:, : 2 * P, : 2 * P, :].reshape(N, P, 2, P, 2, self.C)
        pooled = rp.max(axis=(2, 4))
        flat = pooled.reshape(N, -1)
        return _ref_sigmoid(flat @ self.Wd + self.bd), (cols, a, r, rp, pooled, flat)

    def _loss_and_grads(self, X, Y):
        N = X.shape[0]
        p, (cols, a, r, rp, pooled, flat) = self._forward(X)
        loss, dlogits = _ref_bce(p, Y)
        gWd = flat.T @ dlogits
        gbd = dlogits.sum(axis=0)
        P = self.pool_out
        dpooled = (dlogits @ self.Wd.T).reshape(N, P, P, self.C)
        is_max = rp == pooled[:, :, None, :, None, :]
        counts = is_max.sum(axis=(2, 4), keepdims=True)
        drp = is_max * (dpooled[:, :, None, :, None, :] / counts)
        dr = np.zeros_like(r)
        dr[:, : 2 * P, : 2 * P, :] = drp.reshape(N, 2 * P, 2 * P, self.C)
        da_flat = (dr * (a > 0)).reshape(-1, self.C)
        return loss, {"Wc": cols.T @ da_flat, "bc": da_flat.sum(axis=0), "Wd": gWd, "bd": gbd}

    def fit(self, X, Y):
        X = self._max_normalized(X)
        Y = np.asarray(Y, dtype=float).reshape(X.shape[0], self.K)
        params = {pn: getattr(self, pn) for pn in self._params}
        _ref_fit_minibatches(
            self._loss_and_grads, params, (X, Y), self.epochs, np.random.default_rng(self.seed + 1)
        )
        return self

    def predict_proba(self, X):
        return self._forward(self._max_normalized(X))[0]


# ---------------------------------------------------------------- cases


def _seq_case(n, C, max_len, rng):
    """n sequences of C channels with lengths 1..max_len (both ends
    included); channel 1, if any, is constant."""
    lens = rng.integers(1, max_len + 1, n)
    lens[:2] = [1, max_len]
    seqs = []
    for T in lens:
        s = rng.normal(0, 1, (T, C)) * np.arange(1, C + 1)
        if C > 1:
            s[:, 1] = 3.0  # constant channel: sd falls back to 1
        seqs.append(s)
    return seqs, rng.integers(0, 2, (n, 3)).astype(float)


LSTM_CASES = [  # (n, channels, max_len, dropout)
    (20, 3, 9, 0.5),  # n < 32
    (45, 3, 12, 0.0),  # n not a multiple of 32
    (70, 2, 7, 0.5),
    (33, 1, 6, 0.5),  # one member
]


class TestStackedLSTM:
    @pytest.mark.parametrize("n,C,max_len,dropout", LSTM_CASES)
    def test_members_equal_single_networks(self, n, C, max_len, dropout):
        rng = np.random.default_rng(n + C)
        seqs, Y = _seq_case(n, C, max_len, rng)
        kw = dict(hidden=5, dense=6, dropout=dropout, epochs=3)
        seed = 17
        new = LSTMClassifier(C, 3, seed=seed, **kw).fit(seqs, Y)
        query, _ = _seq_case(11, C, max_len + 2, rng)  # lengths past the fit's pad length
        P = new.predict_proba(query)
        assert P.shape == (C, 11, 3)
        for c in range(C):
            ref = _RefLSTM(1, 3, seed=seed + c, **kw).fit([s[:, c : c + 1] for s in seqs], Y)
            for pn in ref._params:
                got = getattr(new, pn)[c]
                np.testing.assert_array_equal(got.reshape(getattr(ref, pn).shape), getattr(ref, pn), pn)
            assert new.mu_[c] == ref.mu_[0] and new.sd_[c] == ref.sd_[0]
            np.testing.assert_array_equal(P[c], ref.predict_proba([s[:, c : c + 1] for s in query]))

    def test_constant_channel_scale_is_one(self):
        seqs, Y = _seq_case(10, 3, 5, np.random.default_rng(0))
        m = LSTMClassifier(3, 3, hidden=3, dense=3, epochs=1).fit(seqs, Y)
        assert m.sd_[1] == 1.0 and m.mu_[1] == 3.0

    def test_wrong_channel_count_raises(self):
        seqs, Y = _seq_case(10, 2, 5, np.random.default_rng(0))
        with pytest.raises(ValueError):
            LSTMClassifier(3, 3, hidden=3, dense=3, epochs=1).fit(seqs, Y)


def _image_case(n, C, size, rng):
    X = rng.random((n, C, size, size)) ** 3
    X[:, -1] = 0.0  # the last member sees only all-zero heat maps
    X[0, 0] = 0.0
    return X, rng.integers(0, 2, (n, 4)).astype(float)


CNN_CASES = [  # (n, channels, image size)
    (24, 4, 12),  # n < 32
    (70, 4, 10),  # n not a multiple of 32
    (40, 1, 12),  # one member
]


class TestStackedCNN:
    @pytest.mark.parametrize("n,C,size", CNN_CASES)
    def test_members_equal_single_networks(self, n, C, size):
        rng = np.random.default_rng(n)
        X, Y = _image_case(n, C, size, rng)
        kw = dict(filters=3, kernel=5, stride=2, epochs=4)
        seed = 23
        new = CNNClassifier(size, C, 4, seed=seed, **kw).fit(X, Y)
        Q = rng.random((9, C, size, size)) * 7.0
        P = new.predict_proba(Q)
        assert P.shape == (C, 9, 4)
        for c in range(C):
            ref = _RefCNN(size, 4, seed=seed + c, **kw).fit(X[:, c], Y)
            for pn in ref._params:
                got = getattr(new, pn)[c]
                np.testing.assert_array_equal(got.reshape(getattr(ref, pn).shape), getattr(ref, pn), pn)
            np.testing.assert_array_equal(P[c], ref.predict_proba(Q[:, c]))
