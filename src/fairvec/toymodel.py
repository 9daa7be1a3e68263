"""Tiny differentiable classifier: D -> H (tanh) -> sigmoid.

Trained with plain mini-batch gradient descent on binary cross-entropy.
Training is single-threaded and deterministic given the seed: the base
initialization, the shuffle stream, and the LoRA init are all derived from
independent substreams of the same seed, so pooled and per-subgroup runs
share an identical starting point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ckpt import Checkpoint, Dtype, Tensor
from .errors import DivergedTraining, EmptyGroup, IncompatibleCheckpoint
from .features import featurize_all
from .metrics import PredictionRecord, binarize

TENSOR_NAMES = ("W1", "b1", "w2", "b2")

DEFAULT_DIM = 4096
DEFAULT_HIDDEN = 32


@dataclass
class ToyModel:
    W1: np.ndarray  # (D, H)
    b1: np.ndarray  # (H,)
    w2: np.ndarray  # (H,)
    b2: np.ndarray  # scalar ()

    @property
    def dim(self) -> int:
        return self.W1.shape[0]

    @property
    def hidden(self) -> int:
        return self.W1.shape[1]

    def arrays(self) -> dict[str, np.ndarray]:
        return {"W1": self.W1, "b1": self.b1, "w2": self.w2, "b2": self.b2}

    def copy(self) -> "ToyModel":
        return ToyModel(*(self.arrays()[n].copy() for n in TENSOR_NAMES))

    def astype(self, dtype) -> "ToyModel":
        return ToyModel(*(self.arrays()[n].astype(dtype) for n in TENSOR_NAMES))

    def to_checkpoint(self, metadata: dict[str, str] | None = None) -> Checkpoint:
        return Checkpoint(
            tensors={
                name: Tensor.from_numpy(arr, Dtype.F32)
                for name, arr in self.astype(np.float32).arrays().items()
            },
            metadata=dict(metadata or {}),
        )

    @classmethod
    def from_checkpoint(cls, ckpt: Checkpoint) -> "ToyModel":
        if set(ckpt.names()) != set(TENSOR_NAMES):
            raise IncompatibleCheckpoint(
                f"expected tensors {sorted(TENSOR_NAMES)}, found {ckpt.names()}"
            )
        arrs = {name: ckpt.tensors[name].to_numpy() for name in TENSOR_NAMES}
        d, h = arrs["W1"].shape if arrs["W1"].ndim == 2 else (0, 0)
        if (
            arrs["W1"].ndim != 2
            or arrs["b1"].shape != (h,)
            or arrs["w2"].shape != (h,)
            or arrs["b2"].shape != ()
        ):
            raise IncompatibleCheckpoint("tensor shapes do not form a D->H->1 model")
        return cls(arrs["W1"], arrs["b1"], arrs["w2"], arrs["b2"])


@dataclass
class Hyper:
    epochs: int = 200
    lr: float = 0.1
    batch_size: int = 32
    seed: int = 13


def init_model(dim: int = DEFAULT_DIM, hidden: int = DEFAULT_HIDDEN, seed: int = 13) -> ToyModel:
    """Fixed-seed small-variance initialization; biases start at zero."""
    rng = np.random.default_rng([seed, 0])
    return ToyModel(
        W1=rng.normal(0.0, 0.01, size=(dim, hidden)).astype(np.float32),
        b1=np.zeros(hidden, dtype=np.float32),
        w2=rng.normal(0.0, 0.01, size=hidden).astype(np.float32),
        b2=np.zeros((), dtype=np.float32),
    )


def _forward(arrays: dict[str, np.ndarray], X: np.ndarray):
    Z = X @ arrays["W1"] + arrays["b1"]
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


def loss_and_grads(arrays: dict[str, np.ndarray], X: np.ndarray, y: np.ndarray):
    """Mean BCE on sigmoid(logit) and its gradients w.r.t. all parameters."""
    _, H, logit = _forward(arrays, X)
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


def _labels(examples) -> np.ndarray:
    return np.array([ex.y_true for ex in examples], dtype=np.float32)


def _degenerate(y: np.ndarray) -> bool:
    return bool(np.all(y == y[0]))


def train(
    examples,
    hyper: Hyper,
    dim: int = DEFAULT_DIM,
    hidden: int = DEFAULT_HIDDEN,
    base: Checkpoint | None = None,
    metadata: dict[str, str] | None = None,
) -> Checkpoint:
    """Full fine-tuning analogue: mini-batch GD on the pooled examples."""
    if not examples:
        raise EmptyGroup("cannot train on an empty dataset")
    model = (
        ToyModel.from_checkpoint(base) if base is not None
        else init_model(dim, hidden, hyper.seed)
    ).copy()
    X = featurize_all(examples, model.dim)
    y = _labels(examples)

    meta = {"seed": str(hyper.seed), "subset": "all"}
    meta.update(metadata or {})
    if _degenerate(y):
        meta["degenerate_labels"] = "true"

    shuffle = np.random.default_rng([hyper.seed, 1])
    arrays = model.arrays()
    lr = np.float32(hyper.lr)
    for _ in range(hyper.epochs):
        order = shuffle.permutation(len(examples))
        for start in range(0, len(examples), hyper.batch_size):
            idx = order[start : start + hyper.batch_size]
            loss, grads = loss_and_grads(arrays, X[idx], y[idx])
            if not math.isfinite(loss):
                raise DivergedTraining(f"non-finite training loss {loss}")
            for name in TENSOR_NAMES:
                arrays[name] = (arrays[name] - lr * grads[name]).astype(np.float32)
    return ToyModel(*(arrays[n] for n in TENSOR_NAMES)).to_checkpoint(meta)


def train_subgroup(
    examples,
    attribute: str,
    group: str,
    hyper: Hyper,
    dim: int = DEFAULT_DIM,
    hidden: int = DEFAULT_HIDDEN,
    base: Checkpoint | None = None,
) -> Checkpoint:
    subset = [ex for ex in examples if ex.groups.get(attribute) == group]
    if not subset:
        raise EmptyGroup(f"no training examples for {attribute}={group!r}")
    return train(
        subset, hyper, dim=dim, hidden=hidden, base=base,
        metadata={"subset": group},
    )


@dataclass
class LoraAdapter:
    A: np.ndarray  # (D, r)
    B: np.ndarray  # (r, H)
    rank: int
    alpha: float

    def delta(self) -> np.ndarray:
        return (self.alpha / self.rank) * (self.A @ self.B)


def train_lora(
    examples,
    base: Checkpoint,
    hyper: Hyper,
    rank: int = 8,
    alpha: float = 16.0,
    train_bias: bool = True,
) -> tuple[Checkpoint, LoraAdapter]:
    """Low-rank analogue: W1 frozen, only the (A, B) factors are trained.

    A starts from zero-mean N(0, 0.01) draws and B from zero, so the initial
    delta is exactly zero. The merged checkpoint carries W1 + (alpha/r) A B.
    """
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    if not examples:
        raise EmptyGroup("cannot train on an empty dataset")
    model = ToyModel.from_checkpoint(base).copy()
    X = featurize_all(examples, model.dim)
    y = _labels(examples)

    rng = np.random.default_rng([hyper.seed, 2])
    A = rng.normal(0.0, 0.01, size=(model.dim, rank)).astype(np.float32)
    B = np.zeros((rank, model.hidden), dtype=np.float32)
    scaling = np.float32(alpha / rank)

    shuffle = np.random.default_rng([hyper.seed, 3])
    arrays = model.arrays()
    lr = np.float32(hyper.lr)
    for _ in range(hyper.epochs):
        order = shuffle.permutation(len(examples))
        for start in range(0, len(examples), hyper.batch_size):
            idx = order[start : start + hyper.batch_size]
            eff = dict(arrays)
            eff["W1"] = arrays["W1"] + scaling * (A @ B)
            loss, grads = loss_and_grads(eff, X[idx], y[idx])
            if not math.isfinite(loss):
                raise DivergedTraining(f"non-finite training loss {loss}")
            A, B = (
                (A - lr * scaling * (grads["W1"] @ B.T)).astype(np.float32),
                (B - lr * scaling * (A.T @ grads["W1"])).astype(np.float32),
            )
            if train_bias:
                arrays["b2"] = (arrays["b2"] - lr * grads["b2"]).astype(np.float32)

    adapter = LoraAdapter(A=A, B=B, rank=rank, alpha=alpha)
    merged_arrays = dict(arrays)
    merged_arrays["W1"] = (arrays["W1"] + scaling * (A @ B)).astype(np.float32)
    merged = ToyModel(*(merged_arrays[n] for n in TENSOR_NAMES)).to_checkpoint(
        {
            "seed": str(hyper.seed),
            "subset": "all",
            "lora_rank": str(rank),
            "lora_alpha": repr(float(alpha)),
        }
    )
    return merged, adapter


def predict(ckpt: Checkpoint, examples, threshold: float = 0.5) -> list[PredictionRecord]:
    """Score examples with a serialized toy model; y_pred via the threshold."""
    model = ToyModel.from_checkpoint(ckpt)
    return score_features(model, featurize_all(examples, model.dim), examples, threshold)


def score_features(
    model: ToyModel, X: np.ndarray, examples, threshold: float = 0.5
) -> list[PredictionRecord]:
    """Score examples whose features are the rows of X; the one forward path
    shared by predict and the sweeps, so sweep rows equal predict bit for bit."""
    _, _, logit = _forward(model.arrays(), X)
    scores = _sigmoid(logit.astype(np.float64))
    return [
        PredictionRecord(
            id=ex.id,
            y_true=ex.y_true,
            score=float(s),
            y_pred=binarize(float(s), threshold),
            groups=dict(ex.groups),
        )
        for ex, s in zip(examples, scores, strict=True)
    ]


def grad_check(
    model: ToyModel,
    examples,
    eps: float = 1e-4,
    n_params: int = 120,
    seed: int = 0,
    grads_override: dict[str, np.ndarray] | None = None,
) -> float:
    """Max relative error of analytic gradients vs central finite differences.

    Evaluated in float64 on >= n_params randomly sampled parameters across
    every tensor. grads_override substitutes the analytic gradients (used by
    negative-control tests).
    """
    if not 1e-6 <= eps <= 1e-3:
        raise ValueError(f"eps {eps} outside [1e-6, 1e-3]")
    X = featurize_all(examples, model.dim).astype(np.float64)
    y = _labels(examples).astype(np.float64)
    arrays = {n: a.astype(np.float64) for n, a in model.arrays().items()}
    _, analytic = loss_and_grads(arrays, X, y)
    if grads_override is not None:
        analytic = grads_override

    rng = np.random.default_rng(seed)
    sizes = {n: arrays[n].size for n in TENSOR_NAMES}
    total = sum(sizes.values())
    picks = rng.choice(total, size=min(max(n_params, 100), total), replace=False)

    worst = 0.0
    for flat in np.sort(picks):
        offset = int(flat)
        for name in TENSOR_NAMES:
            if offset < sizes[name]:
                break
            offset -= sizes[name]
        view = arrays[name].reshape(-1)
        orig = view[offset]
        view[offset] = orig + eps
        lo_hi = [loss_and_grads(arrays, X, y)[0]]
        view[offset] = orig - eps
        lo_hi.append(loss_and_grads(arrays, X, y)[0])
        view[offset] = orig
        fd = (lo_hi[0] - lo_hi[1]) / (2 * eps)
        g = float(analytic[name].reshape(-1)[offset])
        # denominator floored: FD noise on near-zero gradients is ~1e-12
        rel = abs(g - fd) / max(abs(g), abs(fd), 1e-6)
        worst = max(worst, rel)
    return worst
