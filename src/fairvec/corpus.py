"""Synthetic subgroup-annotated corpus generator.

Each example is a bag of tokens: shared content tokens (some drawn from a
"signal" sub-vocabulary whose frequency depends on the label), plus a couple
of group-marker tokens. A per-group bias knob appends extra marker tokens on
positive examples, making the marker predictive of the label inside that
group and thereby inducing measurable subgroup disparities. With bias 0 the
markers carry no label information.

Default subgroup proportions follow a 7-group gender-style split with one
dominant group, one small catch-all "Other", and several small groups.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, asdict

import numpy as np

from .atomic import atomic_open
from .errors import InvalidSpec
from .metrics import binary_label, parse_jsonl, string_map

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
        if not 1 <= self.tokens_min <= self.tokens_max:
            raise InvalidSpec("bad token count range")
        if self.vocab_size < 10:
            raise InvalidSpec("vocabulary too small")

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
    a float field takes any finite number, a dict one an object of them."""
    if isinstance(default, dict):
        return isinstance(value, dict) and all(_like(v, 0.0) for v in value.values())
    if isinstance(default, float):
        return type(value) is int or type(value) is float and math.isfinite(value)
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


def gen_corpus(spec: CorpusSpec) -> tuple[list[Example], list[Example]]:
    """Generate examples and a stratified 80/20 train/test split per subgroup."""
    examples = [_gen_example(spec, i) for i in range(spec.total)]

    train: list[Example] = []
    test: list[Example] = []
    groups = spec.groups()
    for gi, group in enumerate(groups):
        members = [ex for ex in examples if ex.groups[spec.attribute] == group]
        if not members:
            continue
        rng = np.random.default_rng([spec.seed, 1_000_000 + gi])
        order = rng.permutation(len(members))
        n_test = max(1, round(0.2 * len(members))) if len(members) > 1 else 0
        picked = set(order[:n_test].tolist())
        for j, ex in enumerate(members):
            (test if j in picked else train).append(ex)
    train.sort(key=lambda ex: ex.id)
    test.sort(key=lambda ex: ex.id)
    return train, test


def save_examples(examples, path: str | os.PathLike) -> None:
    with atomic_open(path) as fh:
        for ex in examples:
            fh.write(
                json.dumps(
                    {
                        "id": ex.id,
                        "tokens": list(ex.tokens),
                        "y_true": ex.y_true,
                        "groups": ex.groups,
                    },
                    sort_keys=True,
                )
                + "\n"
            )


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


def load_examples(path: str | os.PathLike) -> list[Example]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_examples(fh, path)


def save_corpus(spec: CorpusSpec, train, test, out_dir: str | os.PathLike) -> None:
    os.makedirs(out_dir, exist_ok=True)
    save_examples(train, os.path.join(out_dir, "train.jsonl"))
    save_examples(test, os.path.join(out_dir, "test.jsonl"))
    with atomic_open(os.path.join(out_dir, "spec.json")) as fh:
        fh.write(spec.to_json() + "\n")


def load_spec(data_dir: str | os.PathLike) -> CorpusSpec:
    with open(os.path.join(data_dir, "spec.json"), "r", encoding="utf-8") as fh:
        return CorpusSpec.from_json(fh.read())


def load_corpus(data_dir: str | os.PathLike):
    spec = load_spec(data_dir)
    train = load_examples(os.path.join(data_dir, "train.jsonl"))
    test = load_examples(os.path.join(data_dir, "test.jsonl"))
    return spec, train, test
