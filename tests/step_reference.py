"""The reference definition of one training step.

These are the forward, sigmoid and loss/gradient functions that
``fairvec.toymodel`` used before its step was rewritten to work in place
(one exp per sigmoid, the loss as a sum over the row count, one np.errstate
per training call), copied unchanged. The tests hold the package's step to
these bytes.
"""

import numpy as np


def _product(X: np.ndarray, W1: np.ndarray, panels) -> np.ndarray:
    """X @ W1, or with panels the left-to-right sum of X[:, p] @ W1[p]."""
    if panels is None:
        return X @ W1
    Z = np.zeros((len(X), W1.shape[1]), dtype=W1.dtype)
    for p in panels:
        Z += X[:, p] @ W1[p]
    return Z


def _forward(arrays: dict[str, np.ndarray], X: np.ndarray, panels=None):
    Z = _product(X, arrays["W1"], panels) + arrays["b1"]
    H = np.tanh(Z)
    logit = H @ arrays["w2"] + arrays["b2"]
    return Z, H, logit


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def loss_and_grads(
    arrays: dict[str, np.ndarray],
    X: np.ndarray,
    y: np.ndarray,
    panels=None,
):
    """Mean BCE on sigmoid(logit) and its gradients w.r.t. all parameters.

    With panels, X holds the touched columns only and arrays["W1"] their
    rows (see _layout); the W1 gradient is then of those rows.
    """
    _, H, logit = _forward(arrays, X, panels)
    # softplus(z) - y*z is BCE-with-logits, stable for large |z|
    with np.errstate(invalid="ignore"):
        loss = float(np.mean(np.logaddexp(0.0, logit) - y * logit))
    dlogit = (_sigmoid(logit) - y) / len(y)
    dw2 = H.T @ dlogit
    db2 = dlogit.sum(dtype=dlogit.dtype).reshape(())
    dH = np.outer(dlogit, arrays["w2"])
    dZ = dH * (1.0 - H * H)
    dW1 = X.T @ dZ
    db1 = dZ.sum(axis=0)
    return loss, {"W1": dW1, "b1": db1, "w2": dw2, "b2": db2}
