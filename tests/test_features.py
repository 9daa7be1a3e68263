import numpy as np
import pytest

from fairvec.corpus import CorpusSpec, Example, gen_corpus
from fairvec.features import (
    FNV_OFFSET,
    bucket,
    featurize,
    featurize_all,
    fnv1a_64,
    touched_buckets,
)


def test_known_hash_values():
    # published FNV-1a 64-bit test vectors
    assert fnv1a_64("") == FNV_OFFSET == 0xCBF29CE484222325
    assert fnv1a_64("a") == 0xAF63DC4C8601EC8C
    assert fnv1a_64("foobar") == 0x85944171F73967E8


def test_empty_token_list():
    assert not featurize([], 64).any()


def test_repeated_token_counts():
    vec = featurize(["x"] * 5, 64)
    assert vec[bucket("x", 64)] == 5.0
    assert vec.sum() == 5.0


def test_bag_semantics():
    a = featurize(["p", "q", "r", "q"], 128)
    b = featurize(["q", "r", "q", "p"], 128)
    np.testing.assert_array_equal(a, b)


def test_dim_and_dtype():
    vec = featurize(["p"], 32)
    assert vec.shape == (32,) and vec.dtype == np.float32


# dims 1 and 7 force bucket collisions: the corpus has hundreds of distinct
# tokens
@pytest.mark.parametrize("dim", [7, 512, 1])
def test_featurize_all_rows_match_featurize(dim):
    train, test = gen_corpus(CorpusSpec(total=200, seed=13))
    extra = Example("u", ("café", "ünï", "café", "tok1", "日本"), 1, {"gender": "Women"})
    examples = [*train, *test, extra, Example("e", (), 0, {"gender": "Men"})]
    mat = featurize_all(examples, dim)
    assert mat.shape == (len(examples), dim) and mat.dtype == np.float32
    assert featurize_all([], dim).shape == (0, dim)
    for i, ex in enumerate(examples):
        assert mat[i].tobytes() == featurize(ex.tokens, dim).tobytes(), i
    cols, rows, at = touched_buckets(examples, dim)
    # token_counts and SplitScorer index with them
    assert [a.dtype for a in (cols, rows, at)] == [np.dtype(np.intp)] * 3
    assert np.array_equal(cols, np.flatnonzero(mat.any(axis=0)))
    assert [(int(r), int(cols[a])) for r, a in zip(rows, at)] == [
        (i, bucket(token, dim)) for i, ex in enumerate(examples) for token in ex.tokens
    ]
    assert [len(a) for a in touched_buckets([], dim)] == [0, 0, 0]
