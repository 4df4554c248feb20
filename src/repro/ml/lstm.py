"""From-scratch numpy LSTM for sequential matcher-behavior features.

Reproduces the Φ_Seq network of §IV-B1: an LSTM hidden layer (64 units)
→ dropout 0.5 → dense 100 + ReLU → K sigmoid outputs (one per expertise
label). Keras/TensorFlow are unavailable offline, so forward and full
BPTT are implemented here; a finite-difference gradient check in
``tests/test_ml_lstm.py`` pins the backward pass. Training (binary
cross-entropy, minibatch Adam at η=1e-3) is the shared recipe of
``repro.ml.train``.

Sequences are padded at the tail; a mask carries (h, c) through padded
steps so the readout is each sequence's true last hidden state.
"""
from __future__ import annotations

from functools import partial

import numpy as np

from repro.ml.train import bce, fit_minibatches, sigmoid

__all__ = ["LSTMClassifier", "pad_sequences"]


def pad_sequences(seqs: list[np.ndarray], max_len: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Stack variable-length (T_i, d) sequences into (N, T, d) + mask (N, T)."""
    if not seqs:
        raise ValueError("empty sequence list")
    d = seqs[0].shape[1]
    T = max_len or max(s.shape[0] for s in seqs)
    N = len(seqs)
    X = np.zeros((N, T, d))
    M = np.zeros((N, T))
    for i, s in enumerate(seqs):
        t = min(T, s.shape[0])
        X[i, :t] = s[:t]
        M[i, :t] = 1.0
    return X, M


class LSTMClassifier:
    """Multi-label sequence classifier (K independent sigmoid outputs)."""

    def __init__(
        self,
        input_dim: int,
        n_labels: int,
        *,
        hidden: int = 64,
        dense: int = 100,
        dropout: float = 0.5,
        epochs: int = 60,
        seed: int = 0,
    ) -> None:
        self.K = n_labels
        self.H = hidden
        self.dropout = dropout
        self.epochs = epochs
        self.seed = seed
        rng = np.random.default_rng(seed)
        H, d, D, K = hidden, input_dim, dense, n_labels
        sc = 1.0 / np.sqrt(d + H)
        self.Wx = rng.normal(0, sc, (d, 4 * H))
        self.Wh = rng.normal(0, sc, (H, 4 * H))
        self.b = np.zeros(4 * H)
        self.b[H : 2 * H] = 1.0  # forget-gate bias init
        self.W1 = rng.normal(0, 1.0 / np.sqrt(H), (H, D))
        self.b1 = np.zeros(D)
        self.W2 = rng.normal(0, 1.0 / np.sqrt(D), (D, K))
        self.b2 = np.zeros(K)
        self._params = ["Wx", "Wh", "b", "W1", "b1", "W2", "b2"]
        self.mu_: np.ndarray | None = None
        self.sd_: np.ndarray | None = None

    # ---------------- forward ----------------

    def _forward_lstm(self, X: np.ndarray, M: np.ndarray):
        """Run the recurrence; returns final h and a cache for BPTT."""
        N, T, _ = X.shape
        H = self.H
        h = np.zeros((N, H))
        c = np.zeros((N, H))
        cache = []
        for t in range(T):
            x_t = X[:, t, :]
            m = M[:, t][:, None]
            z = x_t @ self.Wx + h @ self.Wh + self.b
            gates = sigmoid(z[:, : 3 * H])
            i, f, o = gates[:, :H], gates[:, H : 2 * H], gates[:, 2 * H :]
            g = np.tanh(z[:, 3 * H :])
            c_new = f * c + i * g
            h_new = o * np.tanh(c_new)
            # padded steps carry state through unchanged
            c_next = m * c_new + (1 - m) * c
            h_next = m * h_new + (1 - m) * h
            cache.append((x_t, h, c, i, f, o, g, c_new, m))
            h, c = h_next, c_next
        return h, cache

    def _forward_head(self, h: np.ndarray, drop_mask: np.ndarray | None):
        hd = h * drop_mask if drop_mask is not None else h
        a1 = hd @ self.W1 + self.b1
        r1 = np.maximum(a1, 0.0)
        logits = r1 @ self.W2 + self.b2
        p = sigmoid(logits)
        return p, (hd, a1, r1)

    def _loss_and_grads(self, X, M, Y, rng):
        N = X.shape[0]
        h, cache = self._forward_lstm(X, M)
        if self.dropout > 0:
            drop = (rng.random(h.shape) >= self.dropout) / (1 - self.dropout)
        else:
            drop = None
        p, (hd, a1, r1) = self._forward_head(h, drop)
        loss, dlogits = bce(p, Y)
        # head backward
        gW2 = r1.T @ dlogits
        gb2 = dlogits.sum(axis=0)
        dr1 = dlogits @ self.W2.T
        da1 = dr1 * (a1 > 0)
        gW1 = hd.T @ da1
        gb1 = da1.sum(axis=0)
        dh = da1 @ self.W1.T
        if drop is not None:
            dh = dh * drop
        # LSTM BPTT
        H = self.H
        dWx = np.zeros_like(self.Wx)
        dWh = np.zeros_like(self.Wh)
        db = np.zeros_like(self.b)
        dc = np.zeros((N, H))
        for t in reversed(range(X.shape[1])):
            x_t, h_prev, c_prev, i, f, o, g, c_new, m = cache[t]
            # split incoming grads between the computed step (mask=1) and
            # the carried-through path (mask=0)
            dh_step = dh * m
            dc_step = dc * m
            dh_carry = dh * (1 - m)
            dc_carry = dc * (1 - m)
            tc = np.tanh(c_new)
            do = dh_step * tc
            dc_new = dc_step + dh_step * o * (1 - tc**2)
            di = dc_new * g
            df = dc_new * c_prev
            dg = dc_new * i
            dz = np.concatenate(
                [di * i * (1 - i), df * f * (1 - f), do * o * (1 - o), dg * (1 - g**2)],
                axis=1,
            )
            dWx += x_t.T @ dz
            dWh += h_prev.T @ dz
            db += dz.sum(axis=0)
            dh = dh_carry + dz @ self.Wh.T
            dc = dc_carry + dc_new * f
        grads = {"Wx": dWx, "Wh": dWh, "b": db, "W1": gW1, "b1": gb1, "W2": gW2, "b2": gb2}
        return loss, grads

    # ---------------- public API ----------------

    def fit(self, seqs: list[np.ndarray], Y: np.ndarray) -> "LSTMClassifier":
        X, M = pad_sequences(seqs)
        Y = np.asarray(Y, dtype=float).reshape(len(seqs), self.K)
        # per-dimension standardization over valid steps only
        valid = M.astype(bool)
        flat = X[valid]
        self.mu_ = flat.mean(axis=0)
        self.sd_ = flat.std(axis=0)
        self.sd_[self.sd_ < 1e-12] = 1.0
        X = np.where(valid[:, :, None], (X - self.mu_) / self.sd_, 0.0)
        rng = np.random.default_rng(self.seed + 1)
        params = {pn: getattr(self, pn) for pn in self._params}
        fit_minibatches(partial(self._loss_and_grads, rng=rng), params, (X, M, Y), self.epochs, rng)
        return self

    def predict_proba(self, seqs: list[np.ndarray]) -> np.ndarray:
        if self.mu_ is None:
            raise RuntimeError("fit() first")
        X, M = pad_sequences(seqs)
        valid = M.astype(bool)
        X = np.where(valid[:, :, None], (X - self.mu_) / self.sd_, 0.0)
        h, _ = self._forward_lstm(X, M)
        p, _ = self._forward_head(h, None)
        return p
