"""Pure weight-space algebra: task vectors, merging, and injection.

All arithmetic runs in float32; half-precision tensors are upcast on entry.
Operations are pure functions of their inputs and deterministic, including
the left-to-right accumulation order inside merge.

Inputs are read through ``Tensor.f32``, a read-only view of each F32
payload, and every result array becomes its tensor's payload without a copy.
``diff``, ``add``, ``negate`` and ``scale`` each build their result with one
elementwise step (``_elementwise``): a ufunc over those views, under the
errstate ``merge`` folds in, so an element beyond float32's range is inf or
NaN and no operation prints a warning. ``merge`` takes ``WeightedVector``
parts from any iterable and folds each into one float32 buffer per tensor
as it arrives, so a caller that reads its vectors lazily (``fairvec
merge``, ``apply`` and ``inject``) holds one vector at a time.

A coefficient must be finite in float32 (``is_finite_f32``), the one test
that the CLI's coefficients, sweep grids and the trainers' ``lr`` and
``alpha / rank`` also pass.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
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
            name: t if t.dtype is Dtype.F32 else Tensor._own(t.to_numpy())
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


def is_finite_f32(x) -> bool:
    """Whether x is finite as a float32: a float past float32's range (about
    3.4e38) passes math.isfinite but turns into inf in float32 arithmetic.
    The cast's overflow warning is silenced: the inf it warns of is the
    answer."""
    with np.errstate(over="ignore"):
        return bool(np.isfinite(np.float32(x)))


@dataclass(frozen=True)
class WeightedVector:
    vector: TaskVector
    coefficient: float

    def __post_init__(self):
        if not is_finite_f32(self.coefficient):
            raise NonFiniteCoefficient(f"coefficient {self.coefficient!r} not finite")


def _check_compat(a: dict[str, Tensor], b: dict[str, Tensor], intersect: bool = False):
    """The sorted names to operate on, of two name -> tensor dicts: every
    name, NameSetMismatch unless a and b have the same ones, or with
    intersect the common ones; ShapeMismatch unless each has one shape."""
    if intersect:
        names = sorted(a.keys() & b.keys())
    else:
        if a.keys() != b.keys():
            raise NameSetMismatch(missing=b.keys() - a.keys(), extra=a.keys() - b.keys())
        names = sorted(a)
    for name in names:
        if a[name].shape != b[name].shape:
            raise ShapeMismatch(name, a[name].shape, b[name].shape)
    return names


def _elementwise(ufunc, names, *operands: dict[str, Tensor]) -> dict[str, Tensor]:
    """{name: an F32 tensor of ufunc over the operands' float32 views} for
    each of names, under merge's errstate: an element beyond float32's
    range is inf or NaN, with no warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return {
            name: Tensor._own(ufunc(*(op[name].f32() for op in operands)))
            for name in names
        }


def diff(task: Checkpoint, base: Checkpoint, intersect: bool = False) -> TaskVector:
    """Task vector: per-element task minus base, in F32."""
    names = _check_compat(task.tensors, base.tensors, intersect)
    deltas = _elementwise(np.subtract, names, task.tensors, base.tensors)
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
    return TaskVector(deltas, source)


def add(a: TaskVector, b: TaskVector) -> TaskVector:
    names = _check_compat(a.deltas, b.deltas)
    return TaskVector(_elementwise(np.add, names, a.deltas, b.deltas))


def negate(tv: TaskVector) -> TaskVector:
    return TaskVector(_elementwise(np.negative, tv.deltas, tv.deltas), dict(tv.source))


def scale(tv: TaskVector, coefficient: float) -> TaskVector:
    if not is_finite_f32(coefficient):
        raise NonFiniteCoefficient(f"coefficient {coefficient!r} not finite")
    lam = np.float32(coefficient)
    return TaskVector(_elementwise(lambda x: lam * x, tv.deltas, tv.deltas), dict(tv.source))


def merge(
    base: Checkpoint,
    parts: Iterable[WeightedVector],
) -> Checkpoint:
    """theta_0 + sum_i lambda_i * delta_i, folded left-to-right in caller order.

    parts is any iterable of WeightedVectors, a generator included. Each
    part is checked against base as it arrives, before the next one is
    drawn, and is added in place into one float32 buffer per tensor; a part with a zero
    coefficient is checked but not added. An empty parts list returns base
    unchanged bitwise (metadata included). Like training and scoring, the
    fold runs under an errstate that ignores "over" and "invalid": a
    product or sum beyond float32's range gives an inf or NaN weight and no
    warning.
    """
    acc = None
    coefficients = []
    for part in parts:
        _check_compat(base.tensors, part.vector.deltas)
        coefficients.append(part.coefficient)
        if acc is None:
            acc = {name: t.to_numpy() for name, t in base.tensors.items()}
        # adding 0*delta would flip -0.0 payloads to +0.0; skip to keep
        # the zero-coefficient row bitwise identical to the base
        if part.coefficient != 0.0:
            lam = np.float32(part.coefficient)
            with np.errstate(over="ignore", invalid="ignore"):
                for name, a in acc.items():
                    a += lam * part.vector.deltas[name].f32()
        del part  # let this vector go before parts yields the next
    if acc is None:
        return Checkpoint(tensors=dict(base.tensors), metadata=dict(base.metadata))

    meta = dict(base.metadata)
    meta["edited"] = "merge[" + ",".join(repr(c) for c in coefficients) + "]"
    return Checkpoint(
        tensors={n: Tensor._own(a) for n, a in acc.items()}, metadata=meta
    )


def apply(base: Checkpoint, tv: TaskVector) -> Checkpoint:
    """theta_base + delta."""
    ck = merge(base, [WeightedVector(tv, 1.0)])
    ck.metadata["edited"] = "apply"
    return ck


def inject(sft: Checkpoint, worst: TaskVector, coefficient: float) -> Checkpoint:
    """theta_SFT + lambda * delta_worst; identical to a one-part merge."""
    return merge(sft, [WeightedVector(worst, coefficient)])


def _dot(a: TaskVector, b: TaskVector) -> float:
    """The dot product of a and b in float64, summed tensor by tensor in name
    order."""
    total = 0.0
    for name in _check_compat(a.deltas, b.deltas):
        x, y = (v.deltas[name].f32().astype(np.float64).ravel() for v in (a, b))
        total += float(x @ y)
    return total


def vector_norm(tv: TaskVector) -> float:
    """Global L2 norm over every element of every tensor."""
    return math.sqrt(_dot(tv, tv))


def vector_cosine(a: TaskVector, b: TaskVector) -> float:
    dot = _dot(a, b)
    na, nb = vector_norm(a), vector_norm(b)
    if na == 0.0 or nb == 0.0:
        raise ZeroVector("cosine undefined for a zero task vector")
    return dot / (na * nb)

