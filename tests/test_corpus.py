import hashlib
import io

import numpy as np
import pytest

from fairvec import corpus
from fairvec.corpus import (
    CorpusSpec,
    _example,
    _gen_example,
    default_proportions,
    gen_corpus,
    parse_examples,
    save_corpus,
)
from fairvec.errors import InvalidSpec


def small_spec(**kw):
    defaults = dict(
        attribute="g",
        proportions={"A": 0.5, "B": 0.5},
        total=1000,
        seed=13,
    )
    defaults.update(kw)
    return CorpusSpec(**defaults)


def test_default_proportions_sum():
    props = default_proportions()
    assert len(props) == 7
    assert sum(props.values()) == pytest.approx(1.0, abs=1e-12)
    assert props["Women"] > props["Men"] > props["Other"]


def test_determinism():
    a = gen_corpus(small_spec())
    b = gen_corpus(small_spec())
    assert a == b


def test_seed_changes_corpus():
    a = gen_corpus(small_spec(seed=13))
    b = gen_corpus(small_spec(seed=14))
    assert a != b


def test_group_counts_and_split():
    spec = small_spec()
    train, test = gen_corpus(spec)
    assert len(train) + len(test) == spec.total
    for g in ("A", "B"):
        n_train = sum(ex.groups["g"] == g for ex in train)
        n_test = sum(ex.groups["g"] == g for ex in test)
        n = n_train + n_test
        # proportions hold up to binomial noise (5 sigma around 500)
        assert abs(n - 500) < 5 * (1000 * 0.25) ** 0.5
        # 80/20 split per subgroup, exact up to rounding
        assert n_test == max(1, round(0.2 * n))


def test_partition_disjoint_union():
    spec = small_spec()
    train, test = gen_corpus(spec)
    train_ids = {ex.id for ex in train}
    test_ids = {ex.id for ex in test}
    assert not train_ids & test_ids
    assert len(train_ids | test_ids) == spec.total


def test_token_count_in_range():
    spec = small_spec(tokens_min=4, tokens_max=9, bias=0.0)
    train, test = gen_corpus(spec)
    for ex in train + test:
        # content tokens plus exactly two marker tokens when unbiased... plus
        # possible extras only when bias > 0
        content = [t for t in ex.tokens if not t.startswith("grp=")]
        assert 4 <= len(content) <= 9


def test_markers_present():
    train, test = gen_corpus(small_spec())
    for ex in train[:50]:
        g = ex.groups["g"]
        assert f"grp={g}" in ex.tokens


def test_label_base_rate():
    spec = small_spec(base_rates=0.3, total=2000)
    train, test = gen_corpus(spec)
    rate = sum(ex.y_true for ex in train + test) / spec.total
    assert abs(rate - 0.3) < 5 * (0.3 * 0.7 / 2000) ** 0.5


@pytest.mark.parametrize(
    "kw",
    [
        dict(proportions={"A": 0.6, "B": 0.6}),
        dict(proportions={}),
        dict(total=15),
        dict(base_rates=0.0),
        dict(base_rates=1.5),
        dict(bias=-1.0),
        dict(tokens_min=0),
        dict(vocab_size=2),
        dict(signal_frac=-3.0),
        dict(signal_frac=1.5),
        dict(p_signal_pos=7.0),
        dict(p_signal_neg=-0.1),
        dict(seed=-1),
        dict(total=2**32 + 1),
    ],
)
def test_invalid_specs(kw):
    with pytest.raises(InvalidSpec):
        small_spec(**kw)


@pytest.mark.parametrize("value", [0.0, 1.0])
@pytest.mark.parametrize("name", ["signal_frac", "p_signal_pos", "p_signal_neg"])
def test_probability_fields_accept_their_bounds(name, value):
    assert getattr(small_spec(**{name: value}), name) == value


@pytest.mark.parametrize(
    "text, reason",
    [
        ('{"bogus": 1}', "unknown spec field 'bogus'"),
        ("[1]", "spec must be a JSON object, got [1]"),
        ('"spec"', "spec must be a JSON object, got 'spec'"),
        ('{"total": "many"}', "spec field 'total' has the wrong type: 'many'"),
        ('{"total": 1.5}', "spec field 'total' has the wrong type: 1.5"),
        ('{"seed": true}', "spec field 'seed' has the wrong type: True"),
        ('{"attribute": 3}', "spec field 'attribute' has the wrong type: 3"),
        ('{"proportions": [1]}', "spec field 'proportions' has the wrong type: [1]"),
        ('{"proportions": {"A": "half"}}', "spec field 'proportions' has the wrong type"),
        ('{"signal_frac": NaN}', "spec field 'signal_frac' has the wrong type: nan"),
        ('{"bias": {"A": null}}', "spec field 'bias' has the wrong type"),
        ('{"base_rates": "0.3"}', "spec field 'base_rates' has the wrong type"),
    ],
)
def test_spec_from_json_rejects_bad_fields(text, reason):
    with pytest.raises(InvalidSpec) as info:
        CorpusSpec.from_json(text)
    assert reason in str(info.value)


def test_spec_from_json_types():
    with pytest.raises(InvalidSpec, match="proportions must be positive"):
        CorpusSpec.from_json('{"proportions": {"A": 1, "B": 0}, "total": 40}')
    spec = CorpusSpec.from_json(
        '{"proportions": {"A": 0.5, "B": 0.5}, "total": 40, "signal_frac": 1,'
        ' "base_rates": {"A": 0.2}, "bias": 2}'
    )
    assert spec.signal_frac == 1 and spec.base_rates == {"A": 0.2} and spec.bias == 2


def test_spec_json_roundtrip():
    spec = small_spec(bias={"A": 2.0, "B": 0.0})
    back = CorpusSpec.from_json(spec.to_json())
    assert back == spec


def test_save_load_corpus(tmp_path):
    spec = small_spec(total=100)
    train, test = gen_corpus(spec)
    save_corpus(spec, train, test, tmp_path / "data")
    spec2 = CorpusSpec.from_json((tmp_path / "data" / "spec.json").read_text(encoding="utf-8"))
    train2, test2 = (_read_examples(tmp_path / "data" / f"{name}.jsonl")
                     for name in ("train", "test"))
    assert spec2 == spec and train2 == train and test2 == test


def _read_examples(path):
    with open(path, encoding="utf-8") as fh:
        return parse_examples(fh, path)


@pytest.mark.parametrize(
    "text, label",
    [("true", 1), ("1.0", 1), ("false", 0), ("0.0", 0), ("-0.0", 0)],
)
def test_corpus_labels_take_bools_and_integral_floats(monkeypatch, text, label):
    """A corpus line's y_true is binary_label's, as a log line's is: true and
    false and the floats 1.0, 0.0 and -0.0 are labels (pinned as it is), and
    _example reads each line."""
    read = []
    monkeypatch.setattr(corpus, "_example", lambda obj: read.append(obj) or _example(obj))
    line = f'{{"id": "x", "tokens": ["a"], "y_true": {text}, "groups": {{"g": "A"}}}}'
    (example,) = parse_examples(io.StringIO(line + "\n"), "c.jsonl")
    assert example.y_true == label and type(example.y_true) is int
    assert [obj["id"] for obj in read] == ["x"]


# sha256 of save_corpus's train.jsonl and test.jsonl for the default 7-group
# spec at seed 13 (the paper scale and the README scale)
@pytest.mark.parametrize(
    "total, train_sha, test_sha",
    [
        (3546, "65422728b7c5caf05a8b6e4859e14e48a71e60ce99e50aba6b6b68748903d657",
         "663470fa8f6d75cc91a555546b2b82fabb0acaad1dc8130326b14aa3372614d0"),
        (700, "0fd9cc6463eb26fcaf04a307150edd45c3d17c0c6767cb0fa53f5611d6e3e569",
         "56b587bfadffa34e3b6fbc3c2b220957b44d16f30040f8bb3c2137bc5d3d055e"),
    ],
)
def test_corpus_bytes_pinned(tmp_path, total, train_sha, test_sha):
    spec = CorpusSpec(total=total, seed=13)
    save_corpus(spec, *gen_corpus(spec), tmp_path)
    digests = [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("train.jsonl", "test.jsonl")]
    assert digests == [train_sha, test_sha]


def scalar_corpus(spec):
    """gen_corpus by its definition: every example from its own generator,
    then each group's members split by that group's permutation."""
    examples = [_gen_example(spec, i) for i in range(spec.total)]
    train, test = [], []
    for gi, group in enumerate(spec.groups()):
        members = [ex for ex in examples if ex.groups[spec.attribute] == group]
        rng = np.random.default_rng([spec.seed, 1_000_000 + gi])
        order = rng.permutation(len(members))
        n_test = max(1, round(0.2 * len(members))) if len(members) > 1 else 0
        picked = set(order[:n_test].tolist())
        for j, ex in enumerate(members):
            (test if j in picked else train).append(ex)
    return sorted(train, key=lambda ex: ex.id), sorted(test, key=lambda ex: ex.id)


def random_spec(case):
    """A valid spec drawn from case: 2-7 groups, any token range, signal
    sizes, label rates and biases."""
    rng = np.random.default_rng([7, case])
    k = int(rng.integers(2, 8))
    weights = rng.random(k) + 0.1
    tokens_min = int(rng.integers(1, 12))
    base_rates = {f"G{j}": float(rng.uniform(0.05, 0.95)) for j in range(k)}
    return CorpusSpec(
        attribute="g",
        proportions={f"G{j}": float(w) for j, w in enumerate(weights / weights.sum())},
        total=int(rng.integers(10 * k, 300)),
        base_rates=base_rates if rng.random() < 0.5 else float(rng.uniform(0.1, 0.9)),
        bias=[0.0, float(rng.uniform(0.1, 3.0)), {"G0": 1.5}][int(rng.integers(3))],
        vocab_size=int(rng.integers(10, 5000)),
        tokens_min=tokens_min,
        tokens_max=tokens_min + int(rng.integers(0, 40)),
        signal_frac=float(rng.uniform(0.0, 1.0)),
        p_signal_pos=float(rng.random()),
        p_signal_neg=float(rng.random()),
        seed=int(rng.integers(0, 2**31)),
    )


# Each case names which rows the raw-word layout reads: "all" of them, "none"
# (the whole spec runs _gen_example) or "some" (rows with a rejected or a
# poisson draw run _gen_example).
PROPERTY_CASES = [
    (dict(seed=13), "all"),
    (dict(seed=21, total=700), "all"),
    (dict(seed=14, bias=1.0), "some"),
    (dict(seed=15, bias={"Women": 2.0, "Other": 0.5}), "some"),
    (dict(seed=16, tokens_min=7, tokens_max=7), "none"),
    (dict(seed=17, vocab_size=11, signal_frac=0.05), "none"),
    (dict(seed=18, tokens_min=1, tokens_max=1, vocab_size=11, signal_frac=0.05), "none"),
    (dict(seed=19, proportions={"A": 0.3, "B": 0.7}, attribute="g"), "all"),
    (dict(seed=20, tokens_min=1, tokens_max=2), "all"),
    # ~25% of the token draws are rejected, so nearly every row falls back
    (dict(seed=22, vocab_size=3 * 2**30), "some"),
    # ~1% of the draws are rejected: the two paths share most blocks
    (dict(seed=23, vocab_size=4_250_000_000), "some"),
    (dict(seed=24, vocab_size=2**32), "none"),
    # the largest seed whose raw words are computed as arrays, and the
    # smallest that takes the generator's constructor
    (dict(seed=2**32 - 1), "all"),
    (dict(seed=2**32), "all"),
]


@pytest.mark.parametrize("kw, layout", PROPERTY_CASES)
def test_gen_corpus_equals_scalar_definition(monkeypatch, kw, layout):
    spec = CorpusSpec(**{"total": 400, **kw})
    expected = scalar_corpus(spec)
    fallback = []
    monkeypatch.setattr(
        corpus, "_gen_example", lambda s, i: fallback.append(i) or _gen_example(s, i)
    )
    assert gen_corpus(spec) == expected
    if layout == "all":
        assert fallback == []
    elif layout == "none":
        assert fallback == list(range(spec.total))
    else:
        assert 0 < len(fallback) < spec.total


@pytest.mark.parametrize("case", range(40))
def test_gen_corpus_equals_scalar_definition_random_specs(case):
    spec = random_spec(case)
    assert gen_corpus(spec) == scalar_corpus(spec)


def test_total_bound_is_inclusive():
    assert small_spec(total=2**32).total == 2**32


@pytest.mark.parametrize("n", [1, 3, 48])
@pytest.mark.parametrize("seed", [0, 13, 2**32 - 1, 2**32])
def test_raw_words_equal_pcg64(seed, n):
    """_raw_words against numpy's generator at the edge rows: the first two,
    either side of gen_corpus's first block boundary at the default spec's 48
    words per row, and the last row index a spec can have."""
    step = corpus._BLOCK_WORDS // 48
    for lo, hi in ((0, 2), (step - 1, step + 1), (2**32 - 1, 2**32)):
        got = corpus._raw_words(seed, range(lo, hi), n)
        want = np.array([np.random.PCG64([seed, i]).random_raw(n) for i in range(lo, hi)])
        assert got.dtype == np.uint64 and np.array_equal(got, want), (lo, hi)


@pytest.mark.parametrize("seed", [13, 21])
def test_each_distinct_token_is_one_string(seed):
    """Every row of the default spec at these seeds is read off raw words
    (none falls back), so the train split's tokens come from one table: as
    many distinct str objects as distinct token values."""
    train, _ = gen_corpus(CorpusSpec(seed=seed))
    tokens = [t for ex in train for t in ex.tokens]
    assert len({id(t) for t in tokens}) == len(set(tokens))
