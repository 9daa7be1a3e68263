"""Hashed bag-of-tokens featurization.

Tokens are hashed with FNV-1a (64-bit, standard offset basis and prime) over
their UTF-8 bytes and bucketed modulo the feature dimension. The hash is
fixed so feature vectors are portable across platforms and processes.

``featurize`` is the definition of a row. ``touched_buckets`` reads a whole
split's tokens: it maps the token stream to buckets in one C-level pass over
a lookup table and hashes each distinct token once per call. ``token_counts``
is the one counter of those tokens into columns, a trainer's or a scorer's
layout, and ``featurize_all`` is that count over all ``dim`` columns.
"""

from __future__ import annotations

from itertools import chain

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


class _Buckets(dict):
    """token -> bucket(token, dim), each token hashed on its first lookup."""

    def __init__(self, dim: int):
        super().__init__()
        self.dim = dim

    def __missing__(self, token: str) -> int:
        b = self[token] = bucket(token, self.dim)
        return b


def touched_buckets(examples, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cols, rows, at), each np.intp: the sorted buckets some example
    touches and, for each token of the examples in order, its example's row
    and its bucket's index in cols."""
    lens = [len(ex.tokens) for ex in examples]
    lookup = _Buckets(dim)
    tokens = chain.from_iterable(ex.tokens for ex in examples)
    buckets = np.fromiter(map(lookup.__getitem__, tokens), np.intp, sum(lens))
    rows = np.repeat(np.arange(len(lens), dtype=np.intp), lens)
    present = np.zeros(dim, bool)
    present[buckets] = True
    index = np.cumsum(present, dtype=np.intp) - 1  # a touched bucket's index in cols
    return np.flatnonzero(present), rows, index[buckets]


def token_counts(n: int, pcols: np.ndarray, cols: np.ndarray, rows, at) -> np.ndarray:
    """The n x len(pcols) float32 token counts over the layout pcols of the
    touched columns cols, +0 at a pad (-1): rows and at are a token's row
    and column index in cols (touched_buckets). Counting straight into the
    layout holds no second, compact copy of the features."""
    X = np.zeros((n, len(pcols)), np.float32)
    np.add.at(X, (rows, np.flatnonzero(np.isin(pcols, cols))[at]), np.float32(1.0))
    return X


def featurize_all(examples, dim: int) -> np.ndarray:
    """Row i equals featurize(examples[i].tokens, dim)."""
    return token_counts(len(examples), np.arange(dim), *touched_buckets(examples, dim))
