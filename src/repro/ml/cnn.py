"""From-scratch numpy CNN for spatial (heatmap) matcher features.

Reproduces the Φ_Spa networks of §IV-B1. The paper fine-tunes a
pretrained ResNet; no pretrained weights exist offline, so we train a
compact CNN from scratch on down-sampled heatmaps (DESIGN.md §2):

    conv(5x5, C filters, stride 2) → ReLU → max-pool(2x2)
    → flatten → dense K → sigmoid (one output per expertise label)

One instance is a late-fusion set: a CNN per image channel, stacked on
a leading member axis and trained in one minibatch loop.

Convolution uses im2col so both passes are matrix multiplies; the
backward pass is gradient-checked in ``tests/test_ml_cnn.py``. Training
(binary cross-entropy, minibatch Adam at η=1e-3) is the shared recipe of
``repro.ml.train``.
"""
from __future__ import annotations

import numpy as np

from repro.ml.train import bce, fit_minibatches, sigmoid, stacked_draws

__all__ = ["CNNClassifier"]


def _max_normalized(X: np.ndarray) -> np.ndarray:
    """Each (..., S, S) image divided by its maximum (heatmaps have
    arbitrary total mass); all-zero images stay zero."""
    X = np.asarray(X, dtype=float)
    mx = X.reshape(*X.shape[:-2], -1).max(axis=-1)
    mx[mx < 1e-12] = 1.0
    return X / mx[..., None, None]


def _im2col(X: np.ndarray, k: int, stride: int) -> tuple[np.ndarray, int]:
    """(..., N, H, W) → (..., N * out*out, k*k) patch matrix (valid padding)."""
    *lead, H, W = X.shape
    out = (H - k) // stride + 1
    cols = np.empty((*lead, out, out, k * k))
    for i in range(out):
        for j in range(out):
            patch = X[..., i * stride : i * stride + k, j * stride : j * stride + k]
            cols[..., i, j, :] = patch.reshape(*lead, -1)
    return cols.reshape(*lead[:-1], -1, k * k), out


class CNNClassifier:
    """One multi-label CNN per channel of (N, G, S, S) heat-map stacks.
    Member c is drawn from ``default_rng(seed + c)`` and trains on
    ``default_rng(seed + c + 1)``."""

    def __init__(
        self,
        img_size: int,
        n_channels: int,
        n_labels: int,
        *,
        filters: int = 8,
        kernel: int = 5,
        stride: int = 2,
        epochs: int = 80,
        seed: int = 0,
    ) -> None:
        self.G = n_channels
        self.K = n_labels
        self.C = filters
        self.k = kernel
        self.stride = stride
        self.epochs = epochs
        self.seed = seed
        self.conv_out = (img_size - kernel) // stride + 1
        if self.conv_out < 2:
            raise ValueError("image too small for kernel/stride")
        self.pool_out = self.conv_out // 2
        flat = self.pool_out * self.pool_out * filters
        self.Wc, self.Wd = stacked_draws(seed, n_channels, lambda rng: (
            rng.normal(0, 1.0 / kernel, (kernel * kernel, filters)),
            rng.normal(0, 1.0 / np.sqrt(flat), (flat, n_labels))))
        self.bc = np.zeros((n_channels, 1, filters))
        self.bd = np.zeros((n_channels, 1, n_labels))
        self._params = ["Wc", "bc", "Wd", "bd"]

    def _forward(self, X: np.ndarray):
        """X (G, N, S, S) → probabilities (G, N, K) and the backward cache."""
        G, N = X.shape[:2]
        cols, out = _im2col(X, self.k, self.stride)
        a = (cols @ self.Wc + self.bc).reshape(G, N, out, out, self.C)
        r = np.maximum(a, 0.0)
        P = self.pool_out
        rp = r[:, :, : 2 * P, : 2 * P, :].reshape(G, N, P, 2, P, 2, self.C)
        pooled = rp.max(axis=(3, 5))
        flat = pooled.reshape(G, N, -1)
        logits = flat @ self.Wd + self.bd
        p = sigmoid(logits)
        return p, (cols, a, r, rp, pooled, flat)

    def _loss_and_grads(self, X: np.ndarray, Y: np.ndarray):
        """Summed member losses and per-member gradients on one stacked
        batch: X (G, n, S, S), Y (G, n, K)."""
        G, N = X.shape[:2]
        p, (cols, a, r, rp, pooled, flat) = self._forward(X)
        loss, dlogits = bce(p, Y)
        # member reductions run over the row axis 1
        gWd = flat.transpose(0, 2, 1) @ dlogits
        gbd = dlogits.sum(axis=1, keepdims=True)
        P = self.pool_out
        dpooled = (dlogits @ self.Wd.transpose(0, 2, 1)).reshape(G, N, P, P, self.C)
        # route pooled grads back to the argmax positions
        is_max = rp == pooled[:, :, :, None, :, None, :]
        # break ties by normalizing (max positions share the gradient)
        counts = is_max.sum(axis=(3, 5), keepdims=True)
        drp = is_max * (dpooled[:, :, :, None, :, None, :] / counts)
        dr = np.zeros_like(r)
        dr[:, :, : 2 * P, : 2 * P, :] = drp.reshape(G, N, 2 * P, 2 * P, self.C)
        da_flat = (dr * (a > 0)).reshape(G, -1, self.C)
        gWc = cols.transpose(0, 2, 1) @ da_flat
        gbc = da_flat.sum(axis=1, keepdims=True)
        return float(loss.sum()), {"Wc": gWc, "bc": gbc, "Wd": gWd, "bd": gbd}

    def _members(self, X: np.ndarray) -> np.ndarray:
        """(N, G, S, S) heat maps → max-normalized (G, N, S, S) member inputs."""
        X = np.asarray(X)
        if X.shape[1] != self.G:
            raise ValueError(f"{X.shape[1]} channels for {self.G} members")
        return _max_normalized(np.ascontiguousarray(X.transpose(1, 0, 2, 3)))

    def fit(self, X: np.ndarray, Y: np.ndarray) -> "CNNClassifier":
        X = self._members(X)
        Y = np.asarray(Y, dtype=float).reshape(X.shape[1], self.K)
        rngs = [np.random.default_rng(self.seed + c + 1) for c in range(self.G)]
        params = {pn: getattr(self, pn) for pn in self._params}
        stacked = (X, np.broadcast_to(Y, (self.G, *Y.shape)))
        fit_minibatches(self._loss_and_grads, params, stacked, self.epochs, rngs)
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """(G, N, K): one block of label probabilities per member."""
        p, _ = self._forward(self._members(X))
        return p
