"""From-scratch numpy CNN for spatial (heatmap) matcher features.

Reproduces the Φ_Spa networks of §IV-B1. The paper fine-tunes a
pretrained ResNet; no pretrained weights exist offline, so we train a
compact CNN from scratch on down-sampled heatmaps (DESIGN.md §2):

    conv(5x5, C filters, stride 2) → ReLU → max-pool(2x2)
    → flatten → dense K → sigmoid (one output per expertise label)

Convolution uses im2col so both passes are matrix multiplies; the
backward pass is gradient-checked in ``tests/test_ml_cnn.py``. Training
(binary cross-entropy, minibatch Adam at η=1e-3) is the shared recipe of
``repro.ml.train``.
"""
from __future__ import annotations

import numpy as np

from repro.ml.train import bce, fit_minibatches, sigmoid

__all__ = ["CNNClassifier"]


def _max_normalized(X: np.ndarray) -> np.ndarray:
    """Each image divided by its maximum (heatmaps have arbitrary total
    mass); all-zero images stay zero."""
    X = np.asarray(X, dtype=float)
    mx = X.reshape(X.shape[0], -1).max(axis=1)
    mx[mx < 1e-12] = 1.0
    return X / mx[:, None, None]


def _im2col(X: np.ndarray, k: int, stride: int) -> tuple[np.ndarray, int]:
    """(N, H, W) → (N * out*out, k*k) patch matrix (valid padding)."""
    N, H, W = X.shape
    out = (H - k) // stride + 1
    cols = np.empty((N, out, out, k * k))
    for i in range(out):
        for j in range(out):
            patch = X[:, i * stride : i * stride + k, j * stride : j * stride + k]
            cols[:, i, j, :] = patch.reshape(N, -1)
    return cols.reshape(N * out * out, k * k), out


class CNNClassifier:
    """Multi-label image classifier over single-channel square heatmaps."""

    def __init__(
        self,
        img_size: int,
        n_labels: int,
        *,
        filters: int = 8,
        kernel: int = 5,
        stride: int = 2,
        epochs: int = 80,
        seed: int = 0,
    ) -> None:
        self.K = n_labels
        self.C = filters
        self.k = kernel
        self.stride = stride
        self.epochs = epochs
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.conv_out = (img_size - kernel) // stride + 1
        if self.conv_out < 2:
            raise ValueError("image too small for kernel/stride")
        self.pool_out = self.conv_out // 2
        self.Wc = rng.normal(0, 1.0 / kernel, (kernel * kernel, filters))
        self.bc = np.zeros(filters)
        flat = self.pool_out * self.pool_out * filters
        self.Wd = rng.normal(0, 1.0 / np.sqrt(flat), (flat, n_labels))
        self.bd = np.zeros(n_labels)
        self._params = ["Wc", "bc", "Wd", "bd"]

    def _forward(self, X: np.ndarray):
        N = X.shape[0]
        cols, out = _im2col(X, self.k, self.stride)
        a = (cols @ self.Wc + self.bc).reshape(N, out, out, self.C)
        r = np.maximum(a, 0.0)
        P = self.pool_out
        rp = r[:, : 2 * P, : 2 * P, :].reshape(N, P, 2, P, 2, self.C)
        pooled = rp.max(axis=(2, 4))
        flat = pooled.reshape(N, -1)
        logits = flat @ self.Wd + self.bd
        p = sigmoid(logits)
        return p, (cols, a, r, rp, pooled, flat)

    def _loss_and_grads(self, X: np.ndarray, Y: np.ndarray):
        N = X.shape[0]
        p, (cols, a, r, rp, pooled, flat) = self._forward(X)
        loss, dlogits = bce(p, Y)
        gWd = flat.T @ dlogits
        gbd = dlogits.sum(axis=0)
        dflat = dlogits @ self.Wd.T
        P = self.pool_out
        dpooled = dflat.reshape(N, P, P, self.C)
        # route pooled grads back to the argmax positions
        is_max = rp == pooled[:, :, None, :, None, :]
        # break ties by normalizing (max positions share the gradient)
        counts = is_max.sum(axis=(2, 4), keepdims=True)
        drp = is_max * (dpooled[:, :, None, :, None, :] / counts)
        dr = np.zeros_like(r)
        dr[:, : 2 * P, : 2 * P, :] = drp.reshape(N, 2 * P, 2 * P, self.C)
        da = dr * (a > 0)
        da_flat = da.reshape(-1, self.C)
        gWc = cols.T @ da_flat
        gbc = da_flat.sum(axis=0)
        return loss, {"Wc": gWc, "bc": gbc, "Wd": gWd, "bd": gbd}

    def fit(self, X: np.ndarray, Y: np.ndarray) -> "CNNClassifier":
        X = _max_normalized(X)
        Y = np.asarray(Y, dtype=float).reshape(X.shape[0], self.K)
        params = {pn: getattr(self, pn) for pn in self._params}
        fit_minibatches(
            self._loss_and_grads, params, (X, Y), self.epochs, np.random.default_rng(self.seed + 1)
        )
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        p, _ = self._forward(_max_normalized(X))
        return p
