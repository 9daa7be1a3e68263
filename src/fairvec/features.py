"""Hashed bag-of-tokens featurization.

Tokens are hashed with FNV-1a (64-bit, standard offset basis and prime) over
their UTF-8 bytes and bucketed modulo the feature dimension. The hash is
fixed so feature vectors are portable across platforms and processes.
"""

from __future__ import annotations

import numpy as np

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def fnv1a_64(token: str) -> int:
    h = FNV_OFFSET
    for byte in token.encode("utf-8"):
        h = ((h ^ byte) * FNV_PRIME) & _MASK64
    return h


def bucket(token: str, dim: int) -> int:
    return fnv1a_64(token) % dim


def featurize(tokens, dim: int) -> np.ndarray:
    """Dense float32 count vector of hashed token buckets."""
    vec = np.zeros(dim, dtype=np.float32)
    for token in tokens:
        vec[bucket(token, dim)] += 1.0
    return vec


def _hashed(examples, dim: int) -> np.ndarray:
    """Flat indices row * dim + bucket, one per token; each distinct token is hashed once."""
    buckets: dict[str, int] = {}
    flat = []
    for i, ex in enumerate(examples):
        row = i * dim
        for token in ex.tokens:
            b = buckets.get(token)
            if b is None:
                b = buckets[token] = bucket(token, dim)
            flat.append(row + b)
    return np.array(flat, dtype=np.intp)


def featurize_all(examples, dim: int) -> np.ndarray:
    """Row i equals featurize(examples[i].tokens, dim)."""
    mat = np.zeros(len(examples) * dim, dtype=np.float32)
    np.add.at(mat, _hashed(examples, dim), np.float32(1.0))
    return mat.reshape(len(examples), dim)


def touched_buckets(examples, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cols, rows, at): the sorted buckets some example touches and, for
    each token of the examples in order, its example's row and its bucket's
    index in cols."""
    rows, buckets = np.divmod(_hashed(examples, dim), dim)
    cols, at = np.unique(buckets, return_inverse=True)
    return cols, rows, at


def featurize_compact(examples, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(cols, Xc): the sorted buckets some example touches and their float32
    counts, N x len(cols), so that featurize_all(examples, dim)[:, cols] == Xc."""
    cols, rows, at = touched_buckets(examples, dim)
    mat = np.zeros((len(examples), len(cols)), dtype=np.float32)
    np.add.at(mat, (rows, at), np.float32(1.0))
    return cols, mat
