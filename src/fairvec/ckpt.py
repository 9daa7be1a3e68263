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
from .errors import MalformedHeader, OverlappingOffsets, TruncatedData, UnsupportedDtype

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
    """Dense row-major tensor: dtype, shape, raw little-endian payload.

    data is a bytes-like object whose len() is the payload's size in bytes:
    the bytes from_numpy encodes, or a read-only view into the buffer that
    parse_checkpoint was given or into a float32 array that arith computed.
    """

    dtype: Dtype
    shape: tuple[int, ...]
    data: bytes | memoryview

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
        arr = np.asarray(arr)  # tobytes() below writes any layout in C order
        # a value beyond the dtype's range is cast to inf, with no warning
        with np.errstate(over="ignore"):
            if dtype is Dtype.F32:
                raw = arr.astype("<f4", copy=False)
            elif dtype is Dtype.F16:
                raw = arr.astype("<f2")
            else:  # BF16: round-to-nearest-even on the f32 bit pattern
                # 1-d, so that a 0-d arr also gives arrays below
                f32 = arr.astype("<f4").reshape(-1)
                bits = f32.view(np.uint32)
                rounded = (bits + 0x7FFF + ((bits >> 16) & 1)) >> 16
                # the rounding would carry a NaN's mantissa into its exponent
                # or sign: a NaN keeps its sign and top bits, made quiet
                nan = np.isnan(f32)
                rounded[nan] = (bits[nan] >> 16) | 0x40
                raw = rounded.astype("<u2")
        return cls(dtype, tuple(int(d) for d in arr.shape), raw.tobytes())

    @classmethod
    def _own(cls, arr: np.ndarray) -> "Tensor":
        """An F32 tensor whose payload is arr itself, frozen and not copied.
        For a float32 array its caller has just computed and hands over."""
        arr = np.require(arr, "<f4", "C")
        arr.flags.writeable = False
        return cls(Dtype.F32, arr.shape, memoryview(arr.reshape(-1).view(np.uint8)))

    def _decode(self) -> np.ndarray:
        if self.dtype is Dtype.F32:
            out = np.frombuffer(self.data, dtype="<f4")
        elif self.dtype is Dtype.F16:
            out = np.frombuffer(self.data, dtype="<f2").astype(np.float32)
        else:  # BF16
            bits = np.frombuffer(self.data, dtype="<u2").astype(np.uint32) << 16
            out = bits.view(np.float32)
        return out.reshape(self.shape)

    def f32(self) -> np.ndarray:
        """The values as a read-only float32 array: a view of the payload for
        F32 (no copy, possibly unaligned), a fresh upcast for F16 and BF16."""
        out = self._decode()
        out.flags.writeable = False
        return out

    def to_numpy(self) -> np.ndarray:
        """The values as a fresh, writable float32 array (half-precision
        payloads are upcast)."""
        out = self._decode()
        return out.copy() if self.dtype is Dtype.F32 else out


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
    """The checkpoint a file of these bytes holds. Each tensor's payload is a
    read-only view of blob, not a copy, so the tensors keep blob alive."""
    if len(blob) < 8:
        raise MalformedHeader("file shorter than the 8-byte length prefix")
    (header_len,) = struct.unpack("<Q", blob[:8])
    if header_len > len(blob) - 8:
        raise MalformedHeader(
            f"declared header length {header_len} exceeds file size"
        )
    header = _parse_header(blob[8 : 8 + header_len])
    data = memoryview(blob).toreadonly()[8 + header_len :]

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
        name: Tensor(dtype, shape, data[begin:end])
        for name, dtype, shape, begin, end in entries
    }
    return Checkpoint(tensors=tensors, metadata=metadata)


def write_checkpoint(ckpt: Checkpoint, path: str | os.PathLike) -> None:
    """Write atomically (temp file + rename); byte-deterministic. Each
    payload buffer is written as it is."""
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

    with atomic_open(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for chunk in payloads:
            fh.write(chunk)
