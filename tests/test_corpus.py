import pytest

from fairvec.corpus import (
    CorpusSpec,
    default_proportions,
    gen_corpus,
    load_corpus,
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
    ],
)
def test_invalid_specs(kw):
    with pytest.raises(InvalidSpec):
        small_spec(**kw)


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
    spec2, train2, test2 = load_corpus(tmp_path / "data")
    assert spec2 == spec and train2 == train and test2 == test
