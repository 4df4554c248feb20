"""From-scratch numpy LSTM for sequential matcher-behavior features.

Reproduces the Φ_Seq network of §IV-B1: an LSTM hidden layer (64 units)
→ dropout 0.5 → dense 100 + ReLU → K sigmoid outputs (one per expertise
label). Keras/TensorFlow are unavailable offline, so forward and full
BPTT are implemented here; a finite-difference gradient check in
``tests/test_ml_lstm.py`` pins the backward pass. Training (binary
cross-entropy, minibatch Adam at η=1e-3) is the shared recipe of
``repro.ml.train``.

One instance is a late-fusion set: a single-input network per channel,
stacked on a leading member axis and trained in one minibatch loop.

Sequences are padded at the tail; a mask carries (h, c) through padded
steps so the readout is each sequence's true last hidden state.
"""
from __future__ import annotations

from functools import partial

import numpy as np

from repro.ml.train import bce, fit_minibatches, sigmoid, stacked_draws

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
    """One multi-label LSTM per channel of (T_i, C) sequences. Member c
    standardizes channel c, is drawn from ``default_rng(seed + c)`` and
    trains on ``default_rng(seed + c + 1)``."""

    def __init__(
        self,
        n_channels: int,
        n_labels: int,
        *,
        hidden: int = 64,
        dense: int = 100,
        dropout: float = 0.5,
        epochs: int = 60,
        seed: int = 0,
    ) -> None:
        G = self.G = n_channels
        self.K = n_labels
        self.H = hidden
        self.dropout = dropout
        self.epochs = epochs
        self.seed = seed
        H, D, K = hidden, dense, n_labels
        sc = 1.0 / np.sqrt(1 + H)
        self.Wx, self.Wh, self.W1, self.W2 = stacked_draws(seed, G, lambda rng: (
            rng.normal(0, sc, (1, 4 * H)), rng.normal(0, sc, (H, 4 * H)),
            rng.normal(0, 1.0 / np.sqrt(H), (H, D)), rng.normal(0, 1.0 / np.sqrt(D), (D, K))))
        self.b = np.zeros((G, 1, 4 * H))
        self.b[..., H : 2 * H] = 1.0  # forget-gate bias init
        self.b1 = np.zeros((G, 1, D))
        self.b2 = np.zeros((G, 1, K))
        self._params = ["Wx", "Wh", "b", "W1", "b1", "W2", "b2"]
        self.mu_: np.ndarray | None = None
        self.sd_: np.ndarray | None = None

    # ---------------- forward ----------------

    def _forward_lstm(self, X: np.ndarray, M: np.ndarray, cache: list | None = None):
        """Final h (G, N, H) of the recurrence on X (G, N, T, 1) under mask
        M (G, N, T); each step's BPTT state goes to ``cache`` if given."""
        G, N, T, _ = X.shape
        H = self.H
        h = c = np.zeros((G, N, H))  # both are replaced, never written in place
        keep = M.astype(bool)
        for t in range(T):
            x_t = X[:, :, t]
            m = keep[:, :, t, None]
            z = x_t @ self.Wx + h @ self.Wh + self.b
            gates = sigmoid(z[..., : 3 * H])
            i, f, o = gates[..., :H], gates[..., H : 2 * H], gates[..., 2 * H :]
            g = np.tanh(z[..., 3 * H :])
            c_new = f * c + i * g
            tc = np.tanh(c_new)
            if cache is not None:
                cache.append((x_t, h, c, gates, g, tc, m))
            # padded steps carry state through unchanged
            h = np.where(m, o * tc, h)
            c = np.where(m, c_new, c)
        return h

    def _forward_head(self, h: np.ndarray, drop_mask: np.ndarray | None):
        hd = h * drop_mask if drop_mask is not None else h
        a1 = hd @ self.W1 + self.b1
        r1 = np.maximum(a1, 0.0)
        logits = r1 @ self.W2 + self.b2
        p = sigmoid(logits)
        return p, (hd, a1, r1)

    def _loss_and_grads(self, X, M, Y, rngs):
        """Summed member losses and per-member gradients on one stacked
        batch: X (G, n, T, 1), M (G, n, T), Y (G, n, K)."""
        cache: list = []
        h = self._forward_lstm(X, M, cache)
        q = self.dropout
        drop = np.stack([(r.random(h.shape[1:]) >= q) / (1 - q) for r in rngs]) if q > 0 else None
        p, (hd, a1, r1) = self._forward_head(h, drop)
        loss, dlogits = bce(p, Y)
        # head backward; member reductions run over the row axis 1
        gW2 = r1.transpose(0, 2, 1) @ dlogits
        gb2 = dlogits.sum(axis=1, keepdims=True)
        da1 = (dlogits @ self.W2.transpose(0, 2, 1)) * (a1 > 0)
        gW1 = hd.transpose(0, 2, 1) @ da1
        gb1 = da1.sum(axis=1, keepdims=True)
        dh = da1 @ self.W1.transpose(0, 2, 1)
        if drop is not None:
            dh = dh * drop
        # LSTM BPTT
        H = self.H
        WhT = self.Wh.transpose(0, 2, 1)
        dWx, dWh, db, dc = map(np.zeros_like, (self.Wx, self.Wh, self.b, h))
        dz = np.empty(h.shape[:2] + (4 * H,))
        for x_t, h_prev, c_prev, gates, g, tc, m in reversed(cache):
            i, f, o = gates[..., :H], gates[..., H : 2 * H], gates[..., 2 * H :]
            # split incoming grads between the computed step (mask on) and
            # the carried-through path (mask off)
            dh_step = np.where(m, dh, 0.0)
            dc_new = np.where(m, dc, 0.0) + dh_step * o * (1 - tc**2)
            np.multiply(dc_new, g, out=dz[..., :H])
            np.multiply(dc_new, c_prev, out=dz[..., H : 2 * H])
            np.multiply(dh_step, tc, out=dz[..., 2 * H : 3 * H])
            dgates = dz[..., : 3 * H]
            dgates *= gates
            dgates *= 1 - gates
            np.multiply(dc_new * i, 1 - g**2, out=dz[..., 3 * H :])
            dWx += x_t.transpose(0, 2, 1) @ dz
            dWh += h_prev.transpose(0, 2, 1) @ dz
            db += dz.sum(axis=1, keepdims=True)
            dh = np.where(m, 0.0, dh) + dz @ WhT
            dc = np.where(m, 0.0, dc) + dc_new * f
        grads = {"Wx": dWx, "Wh": dWh, "b": db, "W1": gW1, "b1": gb1, "W2": gW2, "b2": gb2}
        return float(loss.sum()), grads

    # ---------------- public API ----------------

    def _members(self, X: np.ndarray, M: np.ndarray) -> np.ndarray:
        """Padded (N, T, G) input → standardized (G, N, T, 1) member
        inputs, zero on padded steps."""
        if X.shape[2] != self.G:
            raise ValueError(f"{X.shape[2]} channels for {self.G} members")
        Xs = np.where(M.astype(bool)[:, :, None], (X - self.mu_) / self.sd_, 0.0)
        return np.ascontiguousarray(Xs.transpose(2, 0, 1)[..., None])

    def fit(self, seqs: list[np.ndarray], Y: np.ndarray) -> "LSTMClassifier":
        X, M = pad_sequences(seqs)
        Y = np.asarray(Y, dtype=float).reshape(len(seqs), self.K)
        # per-channel standardization over valid steps only, each channel
        # summed as its own (n_valid, 1) column
        valid = M.astype(bool)
        flat = [X[:, :, c : c + 1][valid] for c in range(X.shape[2])]
        self.mu_ = np.concatenate([v.mean(axis=0) for v in flat])
        self.sd_ = np.concatenate([v.std(axis=0) for v in flat])
        self.sd_[self.sd_ < 1e-12] = 1.0
        X = self._members(X, M)
        rngs = [np.random.default_rng(self.seed + c + 1) for c in range(self.G)]
        params = {pn: getattr(self, pn) for pn in self._params}
        stacked = (X, *(np.broadcast_to(a, (self.G, *a.shape)) for a in (M, Y)))
        fit_minibatches(partial(self._loss_and_grads, rngs=rngs), params, stacked, self.epochs, rngs)
        return self

    def predict_proba(self, seqs: list[np.ndarray]) -> np.ndarray:
        """(G, N, K): one block of label probabilities per member."""
        if self.mu_ is None:
            raise RuntimeError("fit() first")
        X, M = pad_sequences(seqs)
        h = self._forward_lstm(self._members(X, M), np.broadcast_to(M, (self.G, *M.shape)))
        p, _ = self._forward_head(h, None)
        return p
