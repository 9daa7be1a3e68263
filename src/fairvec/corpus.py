"""Synthetic subgroup-annotated corpus generator.

Each example is a bag of tokens: shared content tokens (some drawn from a
"signal" sub-vocabulary whose frequency depends on the label), plus a couple
of group-marker tokens. A per-group bias knob appends extra marker tokens on
positive examples, making the marker predictive of the label inside that
group and thereby inducing measurable subgroup disparities. With bias 0 the
markers carry no label information.

Example ``index`` is defined by the draws of its own generator,
``np.random.default_rng([seed, index])`` (``_gen_example``). ``gen_corpus``
reads those draws off the generator's raw PCG64 words, as arrays over many
examples at once. ``random()`` is ``(word >> 11) * 2**-53``; ``integers(n)``
takes a 32-bit half (low half first, the high half kept for the next one)
and maps it by Lemire's rule (arXiv 1805.10941). So word 0 gives the group,
word 1 the label and word 2's low half the length, and token t takes its
double from word ``3 + t + t // 2`` and its integer from the high half of
the word before (t even) or the low half of the word after (t odd). A row
for which Lemire's rule rejects a draw it uses, or a positive row in a group
with bias > 0 (a ``poisson`` draw), comes from ``_gen_example``; so does
every row of a spec with an integer range of size 1 (which draws no word)
or of 2**32 or more.

A split is saved as JSONL by ``metrics.write_jsonl`` and read back by
``parse_examples``.

Default subgroup proportions follow a 7-group gender-style split with one
dominant group, one small catch-all "Other", and several small groups.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, asdict

import numpy as np

from .atomic import atomic_open
from .errors import InvalidSpec
from .metrics import binary_label, is_json_number, parse_jsonl, string_map, write_jsonl

# 7-subgroup default mix (counts 817/114/178/173/148/2057/59, total 3546)
DEFAULT_GROUP_COUNTS = {
    "Men": 817,
    "Non-binary": 114,
    "Trans men": 178,
    "Trans unspecified": 173,
    "Trans women": 148,
    "Women": 2057,
    "Other": 59,
}


# the largest mean numpy's Generator.poisson takes (its POISSON_LAM_MAX)
_POISSON_MAX = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)


def default_proportions() -> dict[str, float]:
    total = sum(DEFAULT_GROUP_COUNTS.values())
    return {g: c / total for g, c in DEFAULT_GROUP_COUNTS.items()}


@dataclass
class CorpusSpec:
    attribute: str = "gender"
    proportions: dict[str, float] = field(default_factory=default_proportions)
    total: int = 2000
    base_rates: dict[str, float] | float = 0.35
    bias: dict[str, float] | float = 0.0
    vocab_size: int = 500
    tokens_min: int = 5
    tokens_max: int = 30
    signal_frac: float = 0.1      # fraction of the vocabulary that is signal
    p_signal_pos: float = 0.6     # chance a content token is signal when y=1
    p_signal_neg: float = 0.1     # ... when y=0
    seed: int = 13

    def __post_init__(self):
        if not self.proportions:
            raise InvalidSpec("no subgroups")
        total_p = sum(self.proportions.values())
        if abs(total_p - 1.0) > 1e-9:
            raise InvalidSpec(f"proportions sum to {total_p}, expected 1")
        if any(p <= 0 for p in self.proportions.values()):
            raise InvalidSpec("proportions must be positive")
        if self.total < 10 * len(self.proportions):
            raise InvalidSpec(
                f"total {self.total} < 10 x {len(self.proportions)} groups"
            )
        for rate in self.rate_for_all().values():
            if not 0.0 < rate < 1.0:
                raise InvalidSpec(f"base rate {rate} outside (0,1)")
        for b in self.bias_for_all().values():
            if b < 0:
                raise InvalidSpec(f"bias strength {b} < 0")
            if b > _POISSON_MAX:
                raise InvalidSpec(f"bias strength {b} > {_POISSON_MAX:.6g}, numpy's Poisson limit")
        if not 1 <= self.tokens_min <= self.tokens_max:
            raise InvalidSpec("bad token count range")
        # integers(tokens_min, tokens_max + 1) and integers(vocab_size) draw
        # int64s below their high end
        if self.tokens_max >= 2**63:
            raise InvalidSpec("tokens_max must be < 2**63, the int64 draws' range")
        if self.vocab_size < 10:
            raise InvalidSpec("vocabulary too small")
        if self.vocab_size > 2**63:
            raise InvalidSpec("vocab_size must be <= 2**63, the int64 draws' range")
        for name in ("signal_frac", "p_signal_pos", "p_signal_neg"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise InvalidSpec(f"{name} {getattr(self, name)} outside [0,1]")
        if self.seed < 0:
            raise InvalidSpec(f"seed must be >= 0, got {self.seed}")

    def groups(self) -> list[str]:
        return sorted(self.proportions)

    def rate_for_all(self) -> dict[str, float]:
        if isinstance(self.base_rates, dict):
            return {g: self.base_rates.get(g, 0.35) for g in self.proportions}
        return {g: self.base_rates for g in self.proportions}

    def bias_for_all(self) -> dict[str, float]:
        if isinstance(self.bias, dict):
            return {g: self.bias.get(g, 0.0) for g in self.proportions}
        return {g: self.bias for g in self.proportions}

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "CorpusSpec":
        """InvalidSpec unless text is a JSON object whose every key is a field
        and whose every value has that field's type."""
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise InvalidSpec(f"spec must be a JSON object, got {obj!r}")
        defaults = asdict(cls())
        for key, value in obj.items():
            if key not in defaults:
                raise InvalidSpec(f"unknown spec field {key!r}")
            per_group = key in ("base_rates", "bias") and _like(value, {})
            if not (per_group or _like(value, defaults[key])):
                raise InvalidSpec(f"spec field {key!r} has the wrong type: {value!r}")
        return cls(**obj)


def _like(value, default) -> bool:
    """Whether a JSON value has the type of a field whose default is default:
    a float field takes a number is_json_number takes, a dict one an object
    of them."""
    if isinstance(default, dict):
        return isinstance(value, dict) and all(map(is_json_number, value.values()))
    if isinstance(default, float):
        return is_json_number(value)
    return type(value) is type(default)


@dataclass(frozen=True)
class Example:
    id: str
    tokens: tuple[str, ...]
    y_true: int
    groups: dict[str, str]


def _gen_example(spec: CorpusSpec, index: int) -> Example:
    # per-example RNG stream keyed on (seed, index): parallel-safe, stable
    rng = np.random.default_rng([spec.seed, index])
    groups = spec.groups()
    cum = np.cumsum([spec.proportions[g] for g in groups])
    group = groups[int(np.searchsorted(cum, rng.random(), side="right"))]

    rate = spec.rate_for_all()[group]
    y = int(rng.random() < rate)

    n_sig = max(1, int(spec.vocab_size * spec.signal_frac))
    p_sig = spec.p_signal_pos if y else spec.p_signal_neg
    length = int(rng.integers(spec.tokens_min, spec.tokens_max + 1))
    tokens = []
    for _ in range(length):
        if rng.random() < p_sig:
            tokens.append(f"sig{int(rng.integers(n_sig))}")
        else:
            tokens.append(f"tok{int(rng.integers(spec.vocab_size))}")

    marker = f"grp={group}"
    tokens.extend([marker, marker + "#2"])
    if y:
        tokens.extend([marker] * int(rng.poisson(spec.bias_for_all()[group])))

    return Example(
        id=f"ex{index:06d}",
        tokens=tuple(tokens),
        y_true=y,
        groups={spec.attribute: group},
    )


# Raw words per block of rows, so gen_corpus's transient arrays stay small
# (170 rows at the defaults). Blocks of 1365 rows were no faster and left
# ~0.3 MB more resident after a README-scale run.
_BLOCK_WORDS = 1 << 13
_LOW32 = np.uint64(0xFFFFFFFF)


def _unit(words):
    """Generator.random() from each raw word."""
    return (words >> np.uint64(11)) * 2.0**-53


def _lemire(draws, n):
    """Generator.integers(n) from each 32-bit draw, and whether Lemire's rule
    rejects the draw (numpy would then draw again)."""
    m = draws * n
    return m >> np.uint64(32), (m & _LOW32) < (2**32 - n) % n


def _gen_examples(spec: CorpusSpec) -> list[Example]:
    """[_gen_example(spec, i) for i in range(spec.total)], read off raw words."""
    n_sig = max(1, int(spec.vocab_size * spec.signal_frac))
    n_len = spec.tokens_max - spec.tokens_min + 1
    if 1 in (n_sig, n_len) or max(n_sig, n_len, spec.vocab_size) >= 2**32:
        return [_gen_example(spec, i) for i in range(spec.total)]
    groups = spec.groups()
    cum = np.cumsum([spec.proportions[g] for g in groups])
    rates = np.array([spec.rate_for_all()[g] for g in groups])
    biased = np.array([spec.bias_for_all()[g] > 0 for g in groups])
    markers = [(f"grp={g}", f"grp={g}#2") for g in groups]
    t = np.arange(spec.tokens_max)  # token t's words, as in the module docstring
    double_at = 3 + t + t // 2
    int_at = np.where(t % 2, double_at + 1, double_at - 1)
    int_shift = np.where(t % 2, 0, 32).astype(np.uint64)
    nw = 3 + spec.tokens_max + spec.tokens_max // 2
    step = max(1, _BLOCK_WORDS // nw)
    examples = []
    for lo in range(0, spec.total, step):
        idx = range(lo, min(lo + step, spec.total))
        w = np.array([np.random.PCG64([spec.seed, i]).random_raw(nw) for i in idx])
        g = np.searchsorted(cum, _unit(w[:, 0]), side="right")
        y = _unit(w[:, 1]) < rates[g]
        length, bad = _lemire(w[:, 2] & _LOW32, n_len)
        length = length.astype(np.int64) + spec.tokens_min
        p_sig = np.where(y, spec.p_signal_pos, spec.p_signal_neg)
        sig = _unit(w[:, double_at]) < p_sig[:, None]
        n = np.where(sig, np.uint64(n_sig), np.uint64(spec.vocab_size))
        value, rejected = _lemire((w[:, int_at] >> int_shift) & _LOW32, n)
        bad |= (rejected & (t < length[:, None])).any(axis=1) | y & biased[g]
        rows = zip(idx, bad.tolist(), g.tolist(), y.tolist(), length.tolist(),
                   sig.tolist(), value.tolist())
        for i, b, gi, yi, k, s, v in rows:
            if b:
                examples.append(_gen_example(spec, i))
                continue
            tokens = [f"sig{x}" if si else f"tok{x}" for si, x in zip(s[:k], v[:k])]
            examples.append(Example(f"ex{i:06d}", (*tokens, *markers[gi]), int(yi),
                                    {spec.attribute: groups[gi]}))
    return examples


def gen_corpus(spec: CorpusSpec) -> tuple[list[Example], list[Example]]:
    """Generate examples and a stratified 80/20 train/test split per subgroup."""
    examples = _gen_examples(spec)
    members: dict[str, list[int]] = {}
    for i, ex in enumerate(examples):
        members.setdefault(ex.groups[spec.attribute], []).append(i)
    in_test = [False] * len(examples)
    for gi, group in enumerate(spec.groups()):
        rows = members.get(group, [])
        if len(rows) > 1:
            rng = np.random.default_rng([spec.seed, 1_000_000 + gi])
            order = rng.permutation(len(rows))
            for j in order[: max(1, round(0.2 * len(rows)))].tolist():
                in_test[rows[j]] = True
    train: list[Example] = []
    test: list[Example] = []
    for ex, is_test in zip(examples, in_test):
        (test if is_test else train).append(ex)
    # index order is id order only below index 10**6 ("ex1000000" < "ex100001")
    train.sort(key=lambda ex: ex.id)
    test.sort(key=lambda ex: ex.id)
    return train, test


def save_examples(examples, path: str | os.PathLike) -> None:
    write_jsonl((vars(ex) for ex in examples), path)


def _example(obj) -> Example:
    rec_id, tokens = str(obj["id"]), obj["tokens"]
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
        raise ValueError(f"tokens must be a list of strings, got {tokens!r}")
    return Example(
        id=rec_id,
        tokens=tuple(tokens),
        y_true=binary_label("y_true", obj["y_true"]),
        groups=dict(string_map("groups", obj["groups"])),
    )


def parse_examples(lines, path="<corpus>") -> list[Example]:
    """The examples of a JSONL corpus file (lines: an open text file); a
    malformed line is a ValueError naming path:line, as for prediction logs."""
    return list(parse_jsonl(lines, path, _example))


def save_corpus(spec: CorpusSpec, train, test, out_dir: str | os.PathLike) -> None:
    os.makedirs(out_dir, exist_ok=True)
    save_examples(train, os.path.join(out_dir, "train.jsonl"))
    save_examples(test, os.path.join(out_dir, "test.jsonl"))
    with atomic_open(os.path.join(out_dir, "spec.json")) as fh:
        fh.write(spec.to_json() + "\n")
