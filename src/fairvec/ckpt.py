"""Bit-exact reader/writer for the checkpoint container format.

Layout: an unsigned 64-bit little-endian header length, a UTF-8 JSON header
mapping tensor names to {dtype, shape, data_offsets}, then the raw
little-endian tensor payloads, laid out back to back in lexicographic name
order. The reserved header key "__metadata__" carries flat string->string
metadata.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .atomic import atomic_open
from .errors import (
    IoFailure,
    MalformedHeader,
    OverlappingOffsets,
    TruncatedData,
    UnsupportedDtype,
)

METADATA_KEY = "__metadata__"


class Dtype(str, Enum):
    F32 = "F32"
    F16 = "F16"
    BF16 = "BF16"

    @property
    def itemsize(self) -> int:
        return 4 if self is Dtype.F32 else 2


@dataclass(frozen=True)
class Tensor:
    """Dense row-major tensor: dtype, shape, raw little-endian bytes."""

    dtype: Dtype
    shape: tuple[int, ...]
    data: bytes

    def __post_init__(self):
        if any(d < 0 for d in self.shape):
            raise ValueError(f"negative extent in shape {self.shape}")
        expected = self.numel * self.dtype.itemsize
        if len(self.data) != expected:
            raise ValueError(
                f"buffer holds {len(self.data)} bytes, expected {expected} "
                f"for {self.dtype.value} {self.shape}"
            )

    @property
    def numel(self) -> int:
        return math.prod(self.shape)

    @classmethod
    def from_numpy(cls, arr: np.ndarray, dtype: Dtype = Dtype.F32) -> "Tensor":
        arr = np.asarray(arr)  # ascontiguousarray would promote 0-d to 1-d
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.copy(arr, order="C")
        if dtype is Dtype.F32:
            raw = arr.astype("<f4", copy=False)
        elif dtype is Dtype.F16:
            raw = arr.astype("<f2")
        else:  # BF16: round-to-nearest-even on the f32 bit pattern
            bits = arr.astype("<f4").view(np.uint32)
            rounded = (bits + 0x7FFF + ((bits >> 16) & 1)) >> 16
            raw = rounded.astype("<u2")
        return cls(dtype, tuple(int(d) for d in arr.shape), raw.tobytes())

    def to_numpy(self) -> np.ndarray:
        """Materialize as float32 (half-precision payloads are upcast)."""
        if self.dtype is Dtype.F32:
            out = np.frombuffer(self.data, dtype="<f4")
        elif self.dtype is Dtype.F16:
            out = np.frombuffer(self.data, dtype="<f2").astype(np.float32)
        else:  # BF16
            bits = np.frombuffer(self.data, dtype="<u2").astype(np.uint32) << 16
            out = bits.view(np.float32)
        return out.reshape(self.shape).copy()


@dataclass
class Checkpoint:
    """Named tensors plus string metadata; iteration is lexicographic."""

    tensors: dict[str, Tensor] = field(default_factory=dict)
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        for name in self.tensors:
            if not name:
                raise ValueError("tensor name must be non-empty")
            if name == METADATA_KEY:
                raise ValueError(f"tensor name {METADATA_KEY!r} is reserved")
        for k, v in self.metadata.items():
            if not isinstance(k, str) or not isinstance(v, str):
                raise ValueError("metadata must map strings to strings")
        self.tensors = dict(sorted(self.tensors.items()))

    def names(self) -> list[str]:
        return list(self.tensors)

    def __eq__(self, other):
        if not isinstance(other, Checkpoint):
            return NotImplemented
        return self.tensors == other.tensors and self.metadata == other.metadata


def tensor_names(ckpt: Checkpoint) -> list[str]:
    return ckpt.names()


_ALLOWED_ENTRY_KEYS = {"dtype", "shape", "data_offsets"}


def _parse_header(blob: bytes) -> dict:
    try:
        header = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedHeader(f"header is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise MalformedHeader("header must be a JSON object")
    return header


def read_checkpoint(path: str | os.PathLike) -> Checkpoint:
    with open(path, "rb") as fh:
        return parse_checkpoint(fh.read())


def parse_checkpoint(blob: bytes) -> Checkpoint:
    """The checkpoint a file of these bytes holds; each tensor's payload is
    copied once, out of a view of blob."""
    if len(blob) < 8:
        raise MalformedHeader("file shorter than the 8-byte length prefix")
    (header_len,) = struct.unpack("<Q", blob[:8])
    if header_len > len(blob) - 8:
        raise MalformedHeader(
            f"declared header length {header_len} exceeds file size"
        )
    header = _parse_header(blob[8 : 8 + header_len])
    data = memoryview(blob)[8 + header_len :]

    metadata: dict[str, str] = {}
    if METADATA_KEY in header:
        meta = header.pop(METADATA_KEY)
        if not isinstance(meta, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in meta.items()
        ):
            raise MalformedHeader(f"{METADATA_KEY} must map strings to strings")
        metadata = meta

    entries = []
    for name in sorted(header):
        if not name:
            raise MalformedHeader("empty tensor name")
        entry = header[name]
        if not isinstance(entry, dict) or set(entry) != _ALLOWED_ENTRY_KEYS:
            raise MalformedHeader(f"bad entry for tensor {name!r}")
        try:
            dtype = Dtype(entry["dtype"])
        except ValueError:
            raise UnsupportedDtype(
                f"tensor {name!r} has unsupported dtype {entry['dtype']!r}"
            ) from None
        shape = entry["shape"]
        if not isinstance(shape, list) or not all(
            isinstance(d, int) and not isinstance(d, bool) and d >= 0 for d in shape
        ):
            raise MalformedHeader(f"bad shape for tensor {name!r}: {shape!r}")
        offs = entry["data_offsets"]
        if (
            not isinstance(offs, list)
            or len(offs) != 2
            or not all(isinstance(o, int) and not isinstance(o, bool) for o in offs)
            or offs[0] < 0
            or offs[1] < offs[0]
        ):
            raise MalformedHeader(f"bad data_offsets for tensor {name!r}: {offs!r}")
        nbytes = math.prod(shape) * dtype.itemsize
        if offs[1] - offs[0] != nbytes:
            raise MalformedHeader(
                f"tensor {name!r} spans {offs[1] - offs[0]} bytes, "
                f"expected {nbytes}"
            )
        entries.append((name, dtype, tuple(shape), offs[0], offs[1]))

    # Offsets must tile the data region exactly, in lexicographic name order.
    cursor = 0
    for name, _, _, begin, end in entries:
        if begin < cursor:
            raise OverlappingOffsets(
                f"tensor {name!r} begins at {begin}, overlapping byte {cursor}"
            )
        if begin > cursor:
            raise MalformedHeader(
                f"gap before tensor {name!r}: expected offset {cursor}, got {begin}"
            )
        cursor = end
    if cursor > len(data):
        raise TruncatedData(
            f"data region holds {len(data)} bytes but offsets reach {cursor}"
        )
    if cursor < len(data):
        raise MalformedHeader(
            f"{len(data) - cursor} trailing bytes beyond declared offsets"
        )

    tensors = {
        name: Tensor(dtype, shape, data[begin:end].tobytes())
        for name, dtype, shape, begin, end in entries
    }
    return Checkpoint(tensors=tensors, metadata=metadata)


def write_checkpoint(ckpt: Checkpoint, path: str | os.PathLike) -> None:
    """Write atomically (temp file + rename); byte-deterministic."""
    header: dict = {}
    if ckpt.metadata:
        header[METADATA_KEY] = ckpt.metadata
    cursor = 0
    payloads = []
    for name, tensor in ckpt.tensors.items():
        end = cursor + len(tensor.data)
        header[name] = {
            "dtype": tensor.dtype.value,
            "shape": list(tensor.shape),
            "data_offsets": [cursor, end],
        }
        payloads.append(tensor.data)
        cursor = end
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")

    try:
        with atomic_open(path, "wb") as fh:
            fh.write(struct.pack("<Q", len(blob)))
            fh.write(blob)
            for chunk in payloads:
                fh.write(chunk)
    except OSError as exc:
        raise IoFailure(f"cannot write checkpoint to {path}: {exc}") from exc
