"""Tiny differentiable classifier: D -> H (tanh) -> sigmoid.

Trained with plain mini-batch gradient descent on binary cross-entropy.
Training is single-threaded and deterministic given the seed: the base
initialization, the shuffle stream, and the LoRA init are all derived from
independent substreams of the same seed, so pooled and per-subgroup runs
share an identical starting point. ``train`` and ``train_lora`` step
through one loop, ``_descend``: one schedule, ``_minibatches``, yields each
step's epoch, step and batch rows from its substream (1 for ``train``, 3
for ``train_lora``), and the update is the trainers' only difference.

A step (``loss_and_grads``) builds each intermediate in one fresh array
and works on it in place: the hidden activations, the logits, their
gradient and dZ; it writes each gradient into the array it is given
(``out=``). Its sigmoid takes ``exp(-|z|)`` for the denominator and
``exp(min(z, 0))`` for the numerator, and its loss is the sum of the
per-row terms over the row count. Each gives the bytes of the plain
expressions it replaces (``tests/step_reference.py``), and the loss is
finite exactly when their mean is. ``train`` holds its parameters (W1's
layout rows, b1, w2 and b2) as views of one flat float32 buffer and their
gradients as views of a second (``_flat``), so its update is one scaling
and one subtraction, ``g *= lr; p -= g``: a step is ~30 numpy calls. A
diverging run overflows and makes NaNs before its loss turns non-finite,
so the loop runs under one ``np.errstate`` that ignores "over" and
"invalid", and the non-finite loss raises ``DivergedTraining`` naming the
epoch and step.

Hashed features are sparse: a subgroup's examples touch only a few hundred
of the 4096 buckets, and while the loss is finite a W1 row whose bucket no
example touches gets an exact +0 gradient at every step. So every product
over the features runs in a layout: columns (``cols``, a dense W1 row each
or -1 for a pad), the features over them, and a plan of how the forward
sums. The compact layout holds the touched columns
(``features.touched_buckets``). Dense is the all-columns layout: every
column, the dense matrix, and the single product ``X @ W1``. The features
are counted straight into the layout (``_counts``), so no second, compact
copy of them is held. The loop is
the same for both: the W1 gradient is ``X.T @ dZ`` over the layout's
batch, of W1's layout rows. ``train`` trains those rows in place and
scatters the real ones back at the end, so untouched rows keep their
starting bytes. ``train_lora`` forms its effective ``W1 + (alpha/r) A B``
on those rows only and trains the same rows of A, whose untouched rows
never change (their dW1 rows are exact zeros); ``dB = A.T @ dW1`` has
K = dim, so it sums in the layout's plan too, ``plan[rank]``.

The compact forward cannot always be the single product ``Xc @ W1[cols]``:
that is a plain left-to-right sum over the touched columns, while OpenBLAS
(``driver/level3.c``) cuts the K axis of the dense ``X @ W1`` into panels,
sums each panel from zero and adds the panel sums in order (Goto and van de
Geijn 2008, "Anatomy of High-Performance Matrix Multiplication"). ``_panels``
applies that rule for a panel width q (panels of q; a remainder between q
and 2q splits into two halves rounded up to the kernel unroll) and maps
each panel to its slice of the touched columns. ``_padded`` lays those
slices out as equal blocks: each panel's touched columns, then pads up to
the widest panel's count, where the features and W1's rows are +0. Then
``_product`` is one stacked ``np.matmul`` of the blocks and one
``np.add.reduce`` over them, the panel sums added in the dense order (for a
whole split, whose stacked result would be megabytes, a loop adds the same
block products in the same order); a plan entry is that panel count, or
None for one plain product over the layout's columns (pads add exact
zeros). The width, and whether a product
is blocked at all, depend on the BLAS build and on the shapes, so
``_layouts`` offers the one-panel layout and then the padded layout of each
width in ``_PANEL_WIDTHS``, and a probe on random weights (``_plan``) keeps
the first whose product gives the dense product's bytes: BLAS picks its
kernel and blocking by shape, not by value.

Both trainers take their layout from ``_layout``. It probes once per
call, on random rows at its own columns, for the full-batch and for the
remainder row count and, for ``train_lora``, for the ``rank`` rows of the
column-major ``A.T``, each at the padded shapes the step will use; it
checks that the layout rows of the backward (and of ``A @ B`` and
``dW1 @ B.T``) are the dense ones and +0 at the pads. (With OpenBLAS 0.3.31
on AVX-512, a README-scale model takes one product at both batch sizes; at
dim 4096, hidden 32 a full batch takes the padded panels of width 448 and a
remainder of 2-7 rows one product over the padded columns. No width fits
hidden sizes with 1-8 columns past a multiple of 16, and the backward
matches because batches are row-major: a column-gathered batch
``X[:, cols]`` is column-major and sums ``X.T @ dZ`` in another order.) A
trainer works in the all-columns layout when an untouched W1 row is not
finite (the dense forward turns it into a NaN loss, ``0 * NaN``, and so
reports divergence), when no layout matches every entry, or when a
layout's backward does not give the dense bytes, and compact otherwise: no
other condition, as for ``SplitScorer``. Either way the checkpoints are
byte-identical to dense training. Pad rows stay +0 under ``train``: their
gradient is a sum of ``0 * dZ``, +0 while the loss is finite.
``train_lora``'s effective untouched rows change as B grows, so a guard
checks them at every step (a bound, and the rows themselves only when it
trips) and makes the next loss NaN when one is not finite, as the dense
forward's ``0 * inf`` does; a pad's effective row, ``(alpha/r) 0 B``, is
in the layout, so the forward itself turns a non-finite B into NaN there.

Scoring runs the same ``_forward``. ``score_features`` of the dense
features (``featurize_all``) is the definition. ``SplitScorer`` scores one
split under a series of models (the sweep points, or ``predict``'s one
model): it picks its layout once, at the split's own shape, in the rows
that its probes hold (the first and last ``_PROBE_ROWS`` and those around
the middle; every other row is zero), and then counts the split's features
over that layout. BLAS blocks by shape, not by value, so that layout gives
every row's dense bytes, and the probe's N x dim matrix costs only the
pages of its real rows: the rest is never written and reads as the
kernel's zero page. When no layout matches, the split becomes the
all-columns layout, the dense matrix.
A model with a non-finite untouched W1 row is scored by the definition
itself, on the split's ``featurize_all``. Every score it returns has the
definition's bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import is_finite_f32
from .ckpt import Checkpoint, Dtype, Tensor
from .errors import DivergedTraining, EmptyGroup, IncompatibleCheckpoint
from .features import featurize_all, touched_buckets
from .metrics import DEFAULT_THRESHOLD, PredictionRecord, binarize, check_threshold

TENSOR_NAMES = ("W1", "b1", "w2", "b2")

DEFAULT_DIM = 4096
DEFAULT_HIDDEN = 32
# train_lora's adapter rank and alpha
DEFAULT_RANK = 8
DEFAULT_ALPHA = 16.0


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

    def to_checkpoint(self, metadata: dict[str, str] | None = None) -> Checkpoint:
        return Checkpoint(
            tensors={
                name: Tensor.from_numpy(arr, Dtype.F32)
                for name, arr in self.arrays().items()
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

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {self.batch_size}")
        if not (is_finite_f32(self.lr) and self.lr > 0):
            raise ValueError(f"learning rate must be finite and > 0, got {self.lr}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def init_model(dim: int = DEFAULT_DIM, hidden: int = DEFAULT_HIDDEN, seed: int = 13) -> ToyModel:
    """Fixed-seed small-variance initialization; biases start at zero."""
    if dim < 1 or hidden < 1:
        raise ValueError(f"dim and hidden must be >= 1, got {dim} and {hidden}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng([seed, 0])
    return ToyModel(
        W1=rng.normal(0.0, 0.01, size=(dim, hidden)).astype(np.float32),
        b1=np.zeros(hidden, dtype=np.float32),
        w2=rng.normal(0.0, 0.01, size=hidden).astype(np.float32),
        b2=np.zeros((), dtype=np.float32),
    )


# the most values _product stacks: a training batch's P x B x H panel
# products, not a whole split's (at 2,837 rows, 10 panels and hidden 32 that
# is 3.6 MB, and it raised protocol-paper's peak RSS by ~3.5 MB)
_STACKED = 1 << 16


def _product(X: np.ndarray, W1: np.ndarray, panels) -> np.ndarray:
    """X @ W1 over a layout's columns: panels None is one product, and a
    panel count P the in-order sum of the products of P equal column blocks.
    Those are one stacked matmul and one reduce over the blocks, or, beyond
    _STACKED values, a loop that adds each block's product in turn: the same
    products added in the same order."""
    if panels is None:
        return X @ W1
    Xb, Wb = X.reshape(len(X), panels, -1).transpose(1, 0, 2), W1.reshape(panels, -1, W1.shape[1])
    if panels * len(X) * W1.shape[1] <= _STACKED:
        return np.add.reduce(np.matmul(Xb, Wb), axis=0)
    Z = np.zeros((len(X), W1.shape[1]), W1.dtype)
    for x, w in zip(Xb, Wb):
        Z += x @ w
    return Z


def _forward(arrays: dict[str, np.ndarray], X: np.ndarray, panels=None):
    """The hidden activations H and the logits of the rows of X, each built
    in place in one fresh array."""
    H = _product(X, arrays["W1"], panels)
    H += arrays["b1"]
    np.tanh(H, out=H)
    logit = H @ arrays["w2"]
    logit += arrays["b2"]
    return H, logit


def _sigmoid(z):
    """1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)) below, in z's
    dtype, so no exp overflows: exp(min(z, 0)) is 1 at z >= 0 and exp(-|z|)
    below (an np.where of the two takes longer than this second exp)."""
    e = np.exp(-np.abs(z))
    out = np.exp(np.minimum(z, 0))
    e += 1
    out /= e
    return out


def loss_and_grads(
    arrays: dict[str, np.ndarray],
    X: np.ndarray,
    y: np.ndarray,
    panels=None,
    out: dict[str, np.ndarray] | None = None,
):
    """Mean BCE on sigmoid(logit) and its gradients w.r.t. all parameters.

    X holds a layout's columns and arrays["W1"] their rows (see _layout),
    and the W1 gradient is of those rows; panels is _product's. The
    gradients are written into out's arrays (fresh ones by default), which
    are returned. The loss is the dtype's sum of the per-row terms over the
    row count, so it is finite exactly when np.mean of the terms is. A
    diverging model sets numpy's "over" and "invalid" flags (logaddexp(0,
    nan) is invalid); the training loops ignore both.
    """
    H, logit = _forward(arrays, X, panels)
    if out is None:
        shapes = {"W1": (X.shape[1], H.shape[1]), "b1": H.shape[1:], "w2": H.shape[1:], "b2": ()}
        out = {name: np.empty(shape, H.dtype) for name, shape in shapes.items()}
    # softplus(z) - y*z is BCE-with-logits, stable for large |z|
    terms = np.logaddexp(0.0, logit)
    terms -= y * logit
    loss = float(np.add.reduce(terms)) / len(y)
    dlogit = _sigmoid(logit)
    dlogit -= y
    dlogit /= len(y)
    np.matmul(H.T, dlogit, out=out["w2"])
    np.add.reduce(dlogit, out=out["b2"])
    # dZ = (1 - H*H) * outer(dlogit, w2), built in one array
    dZ = H * H
    np.subtract(1.0, dZ, out=dZ)
    dZ *= np.multiply.outer(dlogit, arrays["w2"])
    np.matmul(X.T, dZ, out=out["W1"])
    np.add.reduce(dZ, axis=0, out=out["b1"])
    return loss, out


def _minibatches(n: int, hyper: Hyper, stream: int):
    """(epoch, step, idx) for each step of training on n rows: every epoch
    draws a permutation of range(n) from default_rng([hyper.seed, stream])
    and cuts it into batches of hyper.batch_size, the last one possibly
    shorter."""
    shuffle = np.random.default_rng([hyper.seed, stream])
    for epoch in range(hyper.epochs):
        order = shuffle.permutation(n)
        for step, start in enumerate(range(0, n, hyper.batch_size)):
            yield epoch, step, order[start : start + hyper.batch_size]


def _labels(examples) -> np.ndarray:
    return np.array([ex.y_true for ex in examples], dtype=np.float32)


def _degenerate(y: np.ndarray) -> bool:
    return bool(np.all(y == y[0]))


# K-panel widths (GEMM_Q) to try: OpenBLAS 0.3.31's sgemm uses 448 on an
# AVX-512 CPU; the others are widths of other kernels, and the probe rejects
# a wrong one
_PANEL_WIDTHS = (448, 384, 512, 320, 256)
# the kernel unroll a split remainder is rounded up to; with that OpenBLAS a
# K of 1000 splits as 448 + 276 + 276, so the unroll divides 4
_UNROLL = 4


def _panels(dim: int, cols: np.ndarray, q: int) -> list[slice]:
    """The slices of the sorted columns cols that fall in each K panel of
    width q that OpenBLAS's level-3 driver sums separately for a K of dim,
    in order; panels no column falls in are dropped."""
    ends, start = [], 0
    while start < dim:
        width = dim - start
        if width >= 2 * q:
            width = q
        elif width > q:
            width = -(-(width // 2) // _UNROLL) * _UNROLL
        start += width
        ends.append(start)
    edges = np.searchsorted(cols, ends).tolist()
    return [slice(a, b) for a, b in zip([0, *edges], edges) if b > a]


def _padded(dim: int, cols: np.ndarray, q: int):
    """(pcols, panels): the layout of the sorted columns cols for the K
    panels of width q (see _panels). One panel is (cols, None). Otherwise
    each panel's columns are padded with -1, a pad, to the widest panel's
    count, and panels is the panel count."""
    slices = _panels(dim, cols, q)
    if len(slices) < 2:
        return cols, None
    pcols = np.full((len(slices), max(p.stop - p.start for p in slices)), -1, cols.dtype)
    for row, p in zip(pcols, slices):
        row[: p.stop - p.start] = cols[p]
    return pcols.reshape(-1), len(slices)


def _counts(n: int, pcols: np.ndarray, cols: np.ndarray, rows, at) -> np.ndarray:
    """The n x len(pcols) float32 token counts over the layout pcols of the
    touched columns cols, +0 at the pads: rows and at are a token's row and
    column index in cols (features.touched_buckets). Featurizing straight
    into the layout holds no second, compact copy of the features."""
    X = np.zeros((n, len(pcols)), np.float32)
    np.add.at(X, (rows, np.flatnonzero(np.isin(pcols, cols))[at]), np.float32(1.0))
    return X


def _rows(M: np.ndarray, pcols: np.ndarray) -> np.ndarray:
    """The rows pcols of M, a +0 row at each pad."""
    rows = M[pcols]
    rows[pcols < 0] = 0
    return rows


def _put_rows(M: np.ndarray, pcols: np.ndarray, rows: np.ndarray) -> None:
    """Write the layout rows rows into M's rows pcols; pad rows go nowhere."""
    real = pcols >= 0
    M[pcols[real]] = rows[real]


def _untouched(M: np.ndarray, pcols: np.ndarray) -> np.ndarray:
    """The rows of M that the layout pcols does not hold."""
    return np.delete(M, pcols[pcols >= 0], axis=0)


def _layouts(dim: int, cols: np.ndarray):
    """_padded's layout of cols for one panel, then for each width in
    _PANEL_WIDTHS."""
    return (_padded(dim, cols, q) for q in (dim, *_PANEL_WIDTHS))


def _plan(X: np.ndarray, W: np.ndarray, panels, want: bytes, rows=slice(None)):
    """The first of panels and None (one product) whose _product(X, W, .)
    gives the bytes want in the rows rows, or False when neither does."""
    return next(
        (p for p in dict.fromkeys((panels, None)) if _product(X, W, p)[rows].tobytes() == want),
        False,
    )


def _layout(cols: np.ndarray, n: int, W1: np.ndarray, batch_size: int, rank: int = 0):
    """(cols, plan) for training on n examples that touch the columns cols:
    the W1 rows a trainer works on (-1 for a pad), and {rows: panels} for
    each batch size a step sees and, with a rank, for the rank rows of
    train_lora's dB = A.T @ dW1. The first of _layouts' compact layouts in
    which every untouched W1 row is finite, each entry is one product or the
    panel sum that gives this BLAS's dense bytes (_plan), and the backward
    and, with a rank, A[pcols] @ B and dW1 @ B.T give the dense products'
    rows and +0 pad rows. Otherwise all columns: (arange(dim), and None,
    one product, for each entry). Only W1's untouched rows are tested here:
    train_lora's guard watches its effective ones."""
    dim, hidden = W1.shape
    # OpenBLAS takes a product with few rows (2-7 at dim 4096, hidden 32)
    # as one panel and blocks a larger one, so the full batch and the
    # remainder may need different plans
    sizes = {min(batch_size, n), n % batch_size} - {0}
    if np.isfinite(_untouched(W1, cols)).all():
        # random data at the call's own columns and batch shapes stands in
        # for X (row-major, like the batches X[idx] train takes)
        rng = np.random.default_rng(0)
        compact = rng.standard_normal((max(sizes), len(cols)), dtype=np.float32)
        dense = np.zeros((len(compact), dim), np.float32)
        dense[:, cols] = compact
        W = rng.standard_normal((dim, hidden), dtype=np.float32)
        dZ = rng.standard_normal((len(compact), hidden), dtype=np.float32)
        want = {m: (dense[:m] @ W).tobytes() for m in sizes}
        if rank:
            # A.T is column-major too, which BLAS may sum in another order
            # than a row-major batch of as many rows, so it is matched alone
            A = np.zeros((dim, rank), dtype=np.float32)
            A[cols] = rng.standard_normal((len(cols), rank), dtype=np.float32)
            B = rng.standard_normal((rank, hidden), dtype=np.float32)
        for pcols, panels in _layouts(dim, cols):
            X, Wp = np.zeros((len(compact), len(pcols)), np.float32), _rows(W, pcols)
            X[:, pcols >= 0] = compact
            plan = {m: _plan(X[:m], Wp, panels, want[m]) for m in sizes}
            # (P, Pc, Q): products whose layout rows Pc @ Q must be the
            # rows pcols of P @ Q; the backward's P is a row-major batch's X.T
            products = [(dense[:m].T, X[:m].T, dZ[:m]) for m in sizes]
            if rank:
                Ap = _rows(A, pcols)
                entry = _plan(Ap.T, Wp, panels, (A.T @ W).tobytes())
                plan[rank] = entry if plan.get(rank, entry) == entry else False
                products += [(A, Ap, B), (W, Wp, B.T)]
            if False not in plan.values() and all(
                _rows(P @ Q, pcols).tobytes() == (Pc @ Q).tobytes() for P, Pc, Q in products
            ):
                return pcols, plan
    return np.arange(dim), dict.fromkeys(sizes | {rank} - {0})


def _flat(tensors: dict[str, np.ndarray]):
    """(flat, views): one float32 buffer holding a copy of each of tensors
    in order, and {name: the view of flat in that tensor's shape}."""
    flat = np.empty(sum(t.size for t in tensors.values()), np.float32)
    views, start = {}, 0
    for name, t in tensors.items():
        views[name] = flat[start : start + t.size].reshape(t.shape)
        views[name][...] = t
        start += t.size
    return flat, views


def _descend(examples, model: ToyModel, hyper: Hyper, stream: int, updater, rank: int = 0):
    """The one training loop, of train and train_lora: mini-batch descent on
    the examples from model in _layout's layout, one loss_and_grads per step
    of _minibatches(stream). The parameters (model's tensors, W1 narrowed to
    the layout's rows cols with +0 pad rows) and their gradients are each
    one flat buffer seen through a dict of views (_flat); loss_and_grads
    writes the gradients in place. updater(params, grads, cols, plan), with
    params and grads each a (flat, views) pair and called once under the
    loop's errstate, returns the step's update(lr). Returns (cols, the
    parameter views). A non-finite loss raises DivergedTraining naming its
    epoch and step."""
    if not examples:
        raise EmptyGroup("cannot train on an empty dataset")
    tokens = touched_buckets(examples, model.dim)
    y = _labels(examples)
    cols, plan = _layout(tokens[0], len(y), model.W1, hyper.batch_size, rank)
    X = _counts(len(y), cols, *tokens)
    del tokens  # a training run does not hold its token arrays
    params = _flat({**model.arrays(), "W1": _rows(model.W1, cols)})
    grads = _flat(params[1])
    arrays, out = params[1], grads[1]
    lr = np.float32(hyper.lr)
    with np.errstate(over="ignore", invalid="ignore"):
        update = updater(params, grads, cols, plan)
        for epoch, step, idx in _minibatches(len(y), hyper, stream):
            loss, _ = loss_and_grads(arrays, X[idx], y[idx], plan[len(idx)], out)
            if not math.isfinite(loss):
                raise DivergedTraining(
                    f"non-finite training loss {loss} at epoch {epoch}, step {step}"
                )
            update(lr)
    return cols, arrays


def _metadata(hyper: Hyper, metadata: dict[str, str] | None, **fields) -> dict[str, str]:
    """A trained checkpoint's metadata: the seed, subset "all" and fields,
    each overridden by metadata."""
    return {"seed": str(hyper.seed), "subset": "all", **fields, **(metadata or {})}


def _sgd(params, grads, cols, plan):
    """train's update: every tensor steps down its gradient, in place, as
    one scaling and one subtraction of the flat buffers."""
    (p, _), (g, _) = params, grads

    def update(lr):
        np.multiply(g, lr, out=g)
        np.subtract(p, g, out=p)
    return update


def train(
    examples,
    hyper: Hyper,
    dim: int = DEFAULT_DIM,
    hidden: int = DEFAULT_HIDDEN,
    base: Checkpoint | None = None,
    metadata: dict[str, str] | None = None,
) -> Checkpoint:
    """Full fine-tuning analogue: mini-batch GD on the pooled examples."""
    model = (
        ToyModel.from_checkpoint(base) if base is not None
        else init_model(dim, hidden, hyper.seed)
    )
    cols, arrays = _descend(examples, model, hyper, 1, _sgd)
    _put_rows(model.W1, cols, arrays["W1"])
    model.b1, model.w2, model.b2 = arrays["b1"], arrays["w2"], arrays["b2"]
    meta = _metadata(hyper, metadata)
    if _degenerate(_labels(examples)):
        meta["degenerate_labels"] = "true"
    return model.to_checkpoint(meta)


def train_subgroup(
    examples,
    attribute: str,
    group: str,
    hyper: Hyper,
    dim: int = DEFAULT_DIM,
    hidden: int = DEFAULT_HIDDEN,
    base: Checkpoint | None = None,
) -> Checkpoint:
    return train(
        subgroup(examples, attribute, group), hyper, dim=dim, hidden=hidden,
        base=base, metadata={"subset": group},
    )


def subgroup(examples, attribute: str, group: str) -> list:
    """The examples whose attribute is group; EmptyGroup when there are none."""
    subset = [ex for ex in examples if ex.groups.get(attribute) == group]
    if not subset:
        raise EmptyGroup(f"no training examples for {attribute}={group!r}")
    return subset


@dataclass
class LoraAdapter:
    A: np.ndarray  # (D, r)
    B: np.ndarray  # (r, H)
    rank: int
    alpha: float

    def delta(self) -> np.ndarray:
        return (self.alpha / self.rank) * (self.A @ self.B)


# below half of float32's largest value, a bound on an effective W1 row
# proves the row finite whatever the rounding of its sums
_HEADROOM = np.finfo(np.float32).max / 2


def train_lora(
    examples,
    base: Checkpoint,
    hyper: Hyper,
    rank: int = DEFAULT_RANK,
    alpha: float = DEFAULT_ALPHA,
    metadata: dict[str, str] | None = None,
) -> tuple[Checkpoint, LoraAdapter]:
    """Low-rank analogue: W1 frozen, the (A, B) factors and b2 are trained.

    A starts from zero-mean N(0, 0.01) draws and B from zero, so the initial
    delta is exactly zero. The merged checkpoint carries W1 + (alpha/r) A B.
    Every operand is float32, so every update stays float32, and alpha/r
    must be finite in float32 (arith.is_finite_f32).

    It runs train's loop (_descend) with the adapter update as the only
    difference. Each step's effective W1 + (alpha/r) A B is formed on the
    layout's rows only, and dB = A.T @ dW1 sums over them as plan[rank]
    says. A row no example touches gets a zero dW1 row, so its A row never
    changes; its effective row still enters the dense forward, where a
    non-finite one makes the loss NaN (0 * inf). A pad row is such a row of
    the layout (+0 in W1 and A), so the forward itself does that for it; for
    the rows outside the layout a guard does it: when
    the bound max|W1_u| + (alpha/r) max_i sum_k |A_u[i,k]| max|B| over the
    untouched rows u reaches _HEADROOM and the exact rows are not finite, it
    sets b1 to NaN, so the next loss is NaN.
    """
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    if not is_finite_f32(alpha / rank):
        raise ValueError(f"alpha must be finite, got {alpha}")
    model = ToyModel.from_checkpoint(base)
    rng = np.random.default_rng([hyper.seed, 2])
    A = rng.normal(0.0, 0.01, size=(model.dim, rank)).astype(np.float32)
    B = np.zeros((rank, model.hidden), dtype=np.float32)
    scaling = np.float32(alpha / rank)

    def adapter(params, grads, cols, plan):
        # A's layout rows train in arrays["A"], as W1's do in train; W1 keeps
        # the frozen rows, and arrays["W1"] becomes the effective ones
        (_, arrays), (_, grads) = params, grads
        W1, arrays["A"] = arrays["W1"], _rows(A, cols)
        W1u, Au = _untouched(model.W1, cols), _untouched(A, cols)
        reach = np.abs(W1u).max(initial=0), np.abs(scaling * Au).sum(axis=1).max(initial=0)

        def effective():
            arrays["W1"] = W1 + scaling * (arrays["A"] @ B)
            if not (reach[0] + reach[1] * np.abs(B).max() < _HEADROOM
                    or np.isfinite(W1u + scaling * (Au @ B)).all()):
                arrays["b1"] = np.full_like(model.b1, np.nan)

        def update(lr):
            dB = _product(arrays["A"].T, grads["W1"], plan[rank])
            arrays["A"] -= lr * scaling * (grads["W1"] @ B.T)
            B[...] -= lr * scaling * dB
            arrays["b2"] -= lr * grads["b2"]
            effective()

        effective()
        return update

    cols, arrays = _descend(examples, model, hyper, 3, adapter, rank)
    _put_rows(A, cols, arrays["A"])
    model.b2 = arrays["b2"]
    meta = _metadata(hyper, metadata, lora_rank=str(rank), lora_alpha=repr(float(alpha)))
    # under the loop's errstate: an effective row that the last step
    # overflowed is written as inf, with no warning, as train writes its W1
    with np.errstate(over="ignore", invalid="ignore"):
        model.W1 = model.W1 + scaling * (A @ B)
    return model.to_checkpoint(meta), LoraAdapter(A=A, B=B, rank=rank, alpha=alpha)


def predict(ckpt: Checkpoint, examples, threshold=DEFAULT_THRESHOLD) -> list[PredictionRecord]:
    """Score examples with a serialized toy model; y_pred via the threshold.
    The scores are SplitScorer's, the bytes of score_features on the dense
    features, built without the dense N x dim matrix unless a W1 row that no
    example touches is not finite."""
    check_threshold(threshold)
    model = ToyModel.from_checkpoint(ckpt)
    scores = SplitScorer(examples, model.dim, model.hidden).scores(model)
    return [
        PredictionRecord(
            id=ex.id,
            y_true=ex.y_true,
            score=s,
            y_pred=binarize(s, threshold),
            groups=dict(ex.groups),
        )
        for ex, s in zip(examples, scores.tolist(), strict=True)
    ]


def score_features(
    model: ToyModel, X: np.ndarray, cols: np.ndarray | None = None, panels=None
) -> np.ndarray:
    """Float64 scores of the examples whose features are the rows of X. On
    the dense features (featurize_all) it is the definition of a score; with
    cols, a layout's columns, X holds only those feature columns and the
    forward takes _product over W1's rows cols with panels (see
    SplitScorer), which predict and the sweeps use."""
    arrays = model.arrays()
    if cols is not None:
        arrays["W1"] = _rows(model.W1, cols)
    _, logit = _forward(arrays, X, panels)
    return _sigmoid(logit.astype(np.float64))


# the real rows SplitScorer's probe holds at each end of a split (and around
# its middle, where a two-thread BLAS splits the rows)
_PROBE_ROWS = 64


def _probe_rows(n: int) -> np.ndarray:
    """The first and last _PROBE_ROWS of n rows and those around n/2."""
    at = np.arange(n)
    return at[(at < _PROBE_ROWS) | (at >= n - _PROBE_ROWS)
              | (np.abs(at - n // 2) < _PROBE_ROWS // 2)]


class SplitScorer:
    """Scores one split under a series of float32 models of one shape, dim x
    hidden: the edited models of a sweep, or predict's one model.

    The split's layout is picked once, at the split's own shape, on random
    weights and on a probe of the split: its features in _probe_rows' rows
    and zeros in every other. np.zeros maps its pages without writing them,
    so a probe holds memory for its real rows only (a page never written
    reads as the kernel's zero page), even the dense N x dim one. The layout
    is the first of _layouts' whose one product or panel sum (_plan) gives
    the dense product's bytes in the probe's rows. BLAS blocks by shape, not
    by value, so it gives every row's dense bytes under every model; then
    the split is featurized once, over that layout (cols, X), and no N x dim
    matrix was resident. When none matches, the split becomes the
    all-columns layout, the dense matrix. A model with a non-finite
    untouched W1 row is scored by the definition itself, score_features on
    featurize_all of the split, which turns that row into NaN (``0 * NaN``).
    """

    def __init__(self, examples, dim: int, hidden: int):
        cols, rows, at = touched_buckets(examples, dim)
        n, probe = len(examples), _probe_rows(len(examples))
        W = np.random.default_rng(0).standard_normal((dim, hidden), dtype=np.float32)
        held = np.isin(rows, probe)
        tokens = cols, rows[held], at[held]
        want = (_counts(n, np.arange(dim), *tokens) @ W)[probe].tobytes()
        for pcols, panels in _layouts(dim, cols):
            plan = _plan(_counts(n, pcols, *tokens), _rows(W, pcols), panels, want, probe)
            if plan is not False:
                break
        else:
            pcols, plan = np.arange(dim), None
        self.examples, self.cols, self.panels = examples, pcols, plan
        self.X = _counts(n, pcols, cols, rows, at)

    def scores(self, model: ToyModel) -> np.ndarray:
        """score_features of the split's dense features under model. Like
        training, it runs under an errstate that ignores "over" and
        "invalid": a non-finite weight gives the definition's NaN or inf
        scores and no warning."""
        with np.errstate(over="ignore", invalid="ignore"):
            if np.isfinite(_untouched(model.W1, self.cols)).all():
                return score_features(model, self.X, self.cols, self.panels)
            return score_features(model, featurize_all(self.examples, model.dim))


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
    rng = np.random.default_rng(seed)
    sizes = {n: arrays[n].size for n in TENSOR_NAMES}
    total = sum(sizes.values())
    picks = rng.choice(total, size=min(max(n_params, 100), total), replace=False)

    worst = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        _, analytic = loss_and_grads(arrays, X, y)
        if grads_override is not None:
            analytic = grads_override
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
