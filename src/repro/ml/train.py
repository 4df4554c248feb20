"""The one training recipe of the numpy learners (§IV-B1, DESIGN.md §2).

Every learner in ``repro.ml`` except the forest has sigmoid outputs
trained on binary cross-entropy with bias-corrected Adam (Kingma & Ba,
ICLR 2015; β = (.9, .999)). The LSTM and the CNN run
:func:`fit_minibatches` at η = :data:`NET_LR` on a stack of networks,
one member per late-fusion channel; logistic regression takes
full-batch :class:`Adam` steps at its own rate (``repro.ml.logreg``).
"""
from __future__ import annotations

from contextlib import nullcontext
from typing import Callable

import numpy as np

__all__ = ["sigmoid", "bce", "Adam", "stacked_draws", "fit_minibatches", "NET_LR", "BATCH_SIZE"]

NET_LR = 1e-3  # η of §IV-B1
BATCH_SIZE = 32
CLIP = 5.0  # every gradient entry is clipped to ±CLIP before the Adam update
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Overflow-safe logistic function with one ``exp`` per element.

    ``exp(-|z|)`` cannot overflow. Its underflow for |z| > 708 gives the
    exact limit and is not reported; ``errstate`` is entered only then,
    because it costs more than the rest of a small call.
    """
    a = np.abs(z)
    with np.errstate(under="ignore") if a.max(initial=0.0) > 708.0 else nullcontext():
        e = np.exp(-a)
    # the numerator is 1 where z >= 0 and e below (0 <= e <= 1)
    return np.maximum(e, z >= 0) / (1.0 + e)


def bce(p: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each member's mean binary cross-entropy of sigmoid outputs ``p``
    (G, n, K) against ``Y``, and its gradient with respect to the logits."""
    eps = 1e-9
    loss = -np.mean(Y * np.log(p + eps) + (1 - Y) * np.log(1 - p + eps), axis=(-2, -1))
    return loss, (p - Y) / (Y.shape[-2] * Y.shape[-1])


class Adam:
    """Bias-corrected Adam over named arrays, which it updates in place."""

    def __init__(self, params: dict[str, np.ndarray], lr: float) -> None:
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(p) for k, p in params.items()}
        self.v = {k: np.zeros_like(p) for k, p in params.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        c1, c2 = 1 - BETA1**self.t, 1 - BETA2**self.t
        for k, p in self.params.items():
            g = np.minimum(np.maximum(grads[k], -CLIP), CLIP)
            m, v = self.m[k], self.v[k]
            m *= BETA1
            m += (1 - BETA1) * g
            v *= BETA2
            v += (1 - BETA2) * g**2
            p -= self.lr * (m / c1) / (np.sqrt(v / c2) + EPS)


def stacked_draws(seed: int, members: int, draw: Callable) -> list[np.ndarray]:
    """Member c's initial arrays ``draw(default_rng(seed + c))``, stacked:
    one (members, ...) array per array drawn."""
    return [np.stack(a) for a in zip(*(draw(np.random.default_rng(seed + c)) for c in range(members)))]


def fit_minibatches(
    loss_and_grads: Callable, params: dict, arrays: tuple, epochs: int, rngs: list
) -> None:
    """Shuffled-minibatch Adam on G stacked networks, whose ``arrays`` all
    have a leading member axis (G, N, ...). Each epoch draws one row
    permutation per member from ``rngs[g]``; every batch gathers member
    g's next BATCH_SIZE rows of it and steps on ``loss_and_grads(*batch)``,
    which may draw from the same ``rngs`` (the LSTM's dropout masks)."""
    adam = Adam(params, NET_LR)
    n = arrays[0].shape[1]
    members = np.arange(len(rngs))[:, None]
    for _ in range(epochs):
        order = np.stack([rng.permutation(n) for rng in rngs])
        for s in range(0, n, BATCH_SIZE):
            idx = order[:, s : s + BATCH_SIZE]
            _, grads = loss_and_grads(*(a[members, idx] for a in arrays))
            adam.step(grads)
