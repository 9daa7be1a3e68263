"""Tiny differentiable classifier: D -> H (tanh) -> sigmoid.

Trained with plain mini-batch gradient descent on binary cross-entropy.
Training is single-threaded and deterministic given the seed: the base
initialization, the shuffle stream, and the LoRA init are all derived from
independent substreams of the same seed, so pooled and per-subgroup runs
share an identical starting point.

Hashed features are sparse: a subgroup's examples touch only a few hundred
of the 4096 buckets, and while the loss is finite a W1 row whose bucket no
example touches gets an exact +0 gradient at every step. When at most half
of the buckets are touched, ``train`` therefore computes the W1 gradient and
applies the update only for the touched rows (``W1[active] -= lr * dW1``);
untouched rows keep their starting bytes. Each touched gradient element is
the same sum over the batch as in the dense product, but the BLAS kernel a
matrix product takes depends on its shape, and some kernels sum in another
order (OpenBLAS on AVX-512 does for hidden sizes with 1-8 columns past a
multiple of 16). ``_trained_rows`` therefore checks once per call, on random
data of the call's own shapes and rows, that the compacted product gives
the dense product's bytes, and trains densely if it does not; either way
the checkpoints are byte-identical to dense training. The forward pass
stays the dense ``X @ W1``: compacting it to the touched columns changes how
BLAS blocks the sum over D and with it the output bytes, and the dense
forward keeps a non-finite weight in an untouched row poisoning the loss
(``0 * NaN``), so divergence is still reported.
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


def loss_and_grads(
    arrays: dict[str, np.ndarray],
    X: np.ndarray,
    y: np.ndarray,
    grad_input: np.ndarray | None = None,
):
    """Mean BCE on sigmoid(logit) and its gradients w.r.t. all parameters.

    grad_input, if given, replaces X in the W1 gradient, so dW1 is
    grad_input.T @ dZ: passing the touched columns X[:, active] yields the
    gradient of the rows W1[active] only.
    """
    _, H, logit = _forward(arrays, X)
    # softplus(z) - y*z is BCE-with-logits, stable for large |z|
    with np.errstate(invalid="ignore"):
        loss = float(np.mean(np.logaddexp(0.0, logit) - y * logit))
    dlogit = (_sigmoid(logit) - y) / len(y)
    dw2 = H.T @ dlogit
    db2 = dlogit.sum(dtype=dlogit.dtype).reshape(())
    dH = np.outer(dlogit, arrays["w2"])
    dZ = dH * (1.0 - H * H)
    dW1 = (X if grad_input is None else grad_input).T @ dZ
    db1 = dZ.sum(axis=0)
    return loss, {"W1": dW1, "b1": db1, "w2": dw2, "b2": db2}


def _labels(examples) -> np.ndarray:
    return np.array([ex.y_true for ex in examples], dtype=np.float32)


def _degenerate(y: np.ndarray) -> bool:
    return bool(np.all(y == y[0]))


def _trained_rows(X: np.ndarray, hidden: int, batch_size: int):
    """The W1 rows train updates: the buckets some row of X touches, or all
    rows (a full slice) when more than half are touched or when this BLAS
    sums the compacted W1 gradient in another order than the dense one."""
    active = np.flatnonzero(X.max(axis=0) > 0)  # feature counts are non-negative
    # batch_size < 1 runs no step (the loop raises or is empty), so no probe
    if 2 * len(active) > X.shape[1] or batch_size < 1:
        return slice(None)
    # an output row of X.T @ dZ reads only its own column of X, and BLAS picks
    # its kernel by shape, not by value, so other columns may stay zero
    rng = np.random.default_rng(0)
    probe = np.zeros((min(batch_size, len(X)), X.shape[1]), dtype=np.float32)
    probe[:, active] = rng.standard_normal((len(probe), len(active)), dtype=np.float32)
    dZ = rng.standard_normal((len(probe), hidden), dtype=np.float32)
    for rows in {len(probe), len(X) % batch_size} - {0}:
        Xb, dZb = probe[:rows], dZ[:rows]
        if (Xb.T @ dZb)[active].tobytes() != (Xb[:, active].T @ dZb).tobytes():
            return slice(None)
    return active


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

    rows = _trained_rows(X, model.hidden, hyper.batch_size)
    shuffle = np.random.default_rng([hyper.seed, 1])
    arrays = model.arrays()
    lr = np.float32(hyper.lr)
    for epoch in range(hyper.epochs):
        order = shuffle.permutation(len(examples))
        for step, start in enumerate(range(0, len(examples), hyper.batch_size)):
            idx = order[start : start + hyper.batch_size]
            Xb = X[idx]
            loss, grads = loss_and_grads(arrays, Xb, y[idx], grad_input=Xb[:, rows])
            if not math.isfinite(loss):
                raise DivergedTraining(
                    f"non-finite training loss {loss} at epoch {epoch}, step {step}"
                )
            arrays["W1"][rows] -= lr * grads["W1"]
            for name in ("b1", "w2", "b2"):
                arrays[name] -= lr * grads[name]
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
    for epoch in range(hyper.epochs):
        order = shuffle.permutation(len(examples))
        for step, start in enumerate(range(0, len(examples), hyper.batch_size)):
            idx = order[start : start + hyper.batch_size]
            eff = dict(arrays)
            eff["W1"] = arrays["W1"] + scaling * (A @ B)
            loss, grads = loss_and_grads(eff, X[idx], y[idx])
            if not math.isfinite(loss):
                raise DivergedTraining(
                    f"non-finite training loss {loss} at epoch {epoch}, step {step}"
                )
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
