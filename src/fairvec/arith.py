"""Pure weight-space algebra: task vectors, merging, and injection.

All arithmetic runs in float32; half-precision tensors are upcast on entry.
Operations are pure functions of their inputs and deterministic, including
the left-to-right accumulation order inside merge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ckpt import Checkpoint, Dtype, Tensor
from .errors import NameSetMismatch, NonFiniteCoefficient, ShapeMismatch, ZeroVector


@dataclass
class TaskVector:
    """A weight-space displacement: name -> F32 tensor, plus provenance."""

    deltas: dict[str, Tensor]
    source: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        for name, t in self.deltas.items():
            if t.dtype is not Dtype.F32:
                raise ValueError(f"task vector tensor {name!r} must be F32")
        self.deltas = dict(sorted(self.deltas.items()))

    def names(self) -> list[str]:
        return list(self.deltas)

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: t.to_numpy() for name, t in self.deltas.items()}

    def to_checkpoint(self) -> Checkpoint:
        meta = {"role": "task_vector"}
        for key in ("base_id", "task_id"):
            if key in self.source:
                meta[key] = self.source[key]
        return Checkpoint(tensors=dict(self.deltas), metadata=meta)

    @classmethod
    def from_checkpoint(cls, ckpt: Checkpoint) -> "TaskVector":
        deltas = {
            name: t if t.dtype is Dtype.F32 else Tensor.from_numpy(t.to_numpy())
            for name, t in ckpt.tensors.items()
        }
        source = {
            k: v for k, v in ckpt.metadata.items() if k in ("base_id", "task_id")
        }
        return cls(deltas=deltas, source=source)

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray], source=None) -> "TaskVector":
        return cls(
            deltas={n: Tensor.from_numpy(a) for n, a in arrays.items()},
            source=dict(source or {}),
        )


@dataclass(frozen=True)
class WeightedVector:
    vector: TaskVector
    coefficient: float

    def __post_init__(self):
        if not math.isfinite(self.coefficient):
            raise NonFiniteCoefficient(f"coefficient {self.coefficient!r} not finite")


def _check_compat(a_names, a_shapes, b_names, b_shapes, intersect: bool):
    """Return the name list to operate on, enforcing shape equality."""
    a_set, b_set = set(a_names), set(b_names)
    if intersect:
        names = sorted(a_set & b_set)
    else:
        if a_set != b_set:
            raise NameSetMismatch(missing=b_set - a_set, extra=a_set - b_set)
        names = sorted(a_set)
    for name in names:
        if a_shapes[name] != b_shapes[name]:
            raise ShapeMismatch(name, a_shapes[name], b_shapes[name])
    return names


def _shapes(tensors) -> dict[str, tuple[int, ...]]:
    return {name: t.shape for name, t in tensors.items()}


def diff(task: Checkpoint, base: Checkpoint, intersect: bool = False) -> TaskVector:
    """Task vector: per-element task minus base, in F32."""
    names = _check_compat(
        task.names(), _shapes(task.tensors), base.names(), _shapes(base.tensors),
        intersect,
    )
    arrays = {
        name: task.tensors[name].to_numpy() - base.tensors[name].to_numpy()
        for name in names
    }
    source = {
        "base_id": base.metadata.get("id", ""),
        "task_id": task.metadata.get("id", ""),
    }
    if intersect:
        skipped = sorted(
            (set(task.names()) | set(base.names())) - set(names)
        )
        if skipped:
            source["skipped_names"] = ",".join(skipped)
    return TaskVector.from_arrays(arrays, source=source)


def add(a: TaskVector, b: TaskVector) -> TaskVector:
    names = _check_compat(
        a.names(), _shapes(a.deltas), b.names(), _shapes(b.deltas), False
    )
    arrays = {
        name: a.deltas[name].to_numpy() + b.deltas[name].to_numpy() for name in names
    }
    return TaskVector.from_arrays(arrays)


def negate(tv: TaskVector) -> TaskVector:
    return TaskVector.from_arrays(
        {name: -t.to_numpy() for name, t in tv.deltas.items()}, source=tv.source
    )


def scale(tv: TaskVector, coefficient: float) -> TaskVector:
    if not math.isfinite(coefficient):
        raise NonFiniteCoefficient(f"coefficient {coefficient!r} not finite")
    lam = np.float32(coefficient)
    return TaskVector.from_arrays(
        {name: lam * t.to_numpy() for name, t in tv.deltas.items()}, source=tv.source
    )


def merge(
    base: Checkpoint,
    parts: list[WeightedVector | tuple[TaskVector, float]],
) -> Checkpoint:
    """theta_0 + sum_i lambda_i * delta_i, folded left-to-right in caller order.

    An empty parts list returns base unchanged bitwise (metadata included).
    """
    parts = [
        p if isinstance(p, WeightedVector) else WeightedVector(p[0], p[1])
        for p in parts
    ]
    if not parts:
        return Checkpoint(tensors=dict(base.tensors), metadata=dict(base.metadata))

    base_shapes = _shapes(base.tensors)
    for part in parts:
        _check_compat(
            base.names(), base_shapes, part.vector.names(), _shapes(part.vector.deltas),
            False,
        )

    acc = {name: t.to_numpy() for name, t in base.tensors.items()}
    for part in parts:
        if part.coefficient == 0.0:
            # adding 0*delta would flip -0.0 payloads to +0.0; skip to keep
            # the zero-coefficient row bitwise identical to the base
            continue
        lam = np.float32(part.coefficient)
        for name in acc:
            acc[name] = acc[name] + lam * part.vector.deltas[name].to_numpy()

    meta = dict(base.metadata)
    meta["edited"] = "merge[" + ",".join(repr(p.coefficient) for p in parts) + "]"
    return Checkpoint(
        tensors={n: Tensor.from_numpy(a) for n, a in acc.items()},
        metadata=meta,
    )


def apply(base: Checkpoint, tv: TaskVector) -> Checkpoint:
    """theta_base + delta."""
    ck = merge(base, [WeightedVector(tv, 1.0)])
    ck.metadata["edited"] = "apply"
    return ck


def inject(sft: Checkpoint, worst: TaskVector, coefficient: float) -> Checkpoint:
    """theta_SFT + lambda * delta_worst; identical to a one-part merge."""
    return merge(sft, [WeightedVector(worst, coefficient)])


def vector_norm(tv: TaskVector) -> float:
    """Global L2 norm over every element of every tensor."""
    total = 0.0
    for t in tv.deltas.values():
        arr = t.to_numpy().astype(np.float64).ravel()
        total += float(arr @ arr)
    return math.sqrt(total)


def vector_cosine(a: TaskVector, b: TaskVector) -> float:
    names = _check_compat(
        a.names(), _shapes(a.deltas), b.names(), _shapes(b.deltas), False
    )
    dot = 0.0
    for name in names:
        x = a.deltas[name].to_numpy().astype(np.float64).ravel()
        y = b.deltas[name].to_numpy().astype(np.float64).ravel()
        dot += float(x @ y)
    na, nb = vector_norm(a), vector_norm(b)
    if na == 0.0 or nb == 0.0:
        raise ZeroVector("cosine undefined for a zero task vector")
    return dot / (na * nb)


def zero_like(ckpt: Checkpoint) -> TaskVector:
    return TaskVector.from_arrays(
        {name: np.zeros(t.shape, dtype=np.float32) for name, t in ckpt.tensors.items()}
    )
