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
examples at once: ``_raw_words`` computes the words of a block of rows with
numpy's ``SeedSequence`` hashing and PCG64's seeding and output function
(O'Neill 2014) run on uint64 arrays, so no generator object is built per
row. ``random()`` is ``(word >> 11) * 2**-53``; ``integers(n)`` takes a
32-bit half (low half first, the high half kept for the next one) and maps
it by Lemire's rule (arXiv 1805.10941). So word 0 gives the group, word 1
the label and word 2's low half the length, and token t takes its double
from word ``3 + t + t // 2`` and its integer from the high half of the word
before (t even) or the low half of the word after (t odd). A row for which
Lemire's rule rejects a draw it uses, or a positive row in a group with
bias > 0 (a ``poisson`` draw), comes from ``_gen_example``; so does every
row of a spec with an integer range of size 1 (which draws no word) or of
2**32 or more. Every other row's content tokens come from one table of
strings per corpus, so each distinct token is one ``str`` object.

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
from .metrics import binary_label, is_json_kind, is_json_number, json_text, parse_jsonl
from .metrics import record_id, string_map, write_jsonl

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
        # each row index must be one uint32 entropy word (see _raw_words)
        if self.total > 2**32:
            raise InvalidSpec(f"total must be <= 2**32, got {self.total}")
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
        return self._per_group(self.base_rates, 0.35)

    def bias_for_all(self) -> dict[str, float]:
        return self._per_group(self.bias, 0.0)

    def _per_group(self, value, default: float) -> dict[str, float]:
        """value for every group: a scalar for all, or a dict by group whose
        missing groups take default."""
        if isinstance(value, dict):
            return {g: value.get(g, default) for g in self.proportions}
        return dict.fromkeys(self.proportions, value)

    def to_json(self) -> str:
        return json_text(asdict(self))

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
    """Whether a JSON value has the kind of a field whose default is default
    (is_json_kind); a dict field takes an object of numbers is_json_number
    takes."""
    return is_json_kind(value, type(default)) and (
        type(value) is not dict or all(map(is_json_number, value.values())))


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
# (341 rows at the defaults). At paper scale, blocks of 1 << 14 words took
# 49 ms per corpus against 57 ms at 1 << 13 and peaked ~2 MB above the
# corpus they build, against ~1 MB; 1 << 15 was no faster and peaked ~4 MB
# above it.
_BLOCK_WORDS = 1 << 14
_LOW32 = np.uint64(0xFFFFFFFF)

# numpy's SeedSequence hash constants and PCG64's 128-bit LCG multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint64(0xCA01F9DD), np.uint64(0x4973F715)
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK128 = (1 << 128) - 1


def _hash_consts(const: int, mult: int):
    """SeedSequence's running hash constant: for each hashmix call, the
    constant it xors in and the next one, which it multiplies by."""
    while True:
        nxt = const * mult & 0xFFFFFFFF
        yield np.uint64(const), np.uint64(nxt)
        const = nxt


def _hashmix(x, consts):
    """SeedSequence's hashmix of the uint32 values x (held in uint64)."""
    xor, mult = next(consts)
    x = (x ^ xor) * mult & _LOW32
    return x ^ x >> np.uint64(16)


def _mul128(ah, al, bh, bl):
    """The low 128 bits of a * b, each given as (high, low) uint64 halves;
    al * bl's high half comes from 32-bit partial products."""
    a0, a1, b0, b1 = al & _LOW32, al >> np.uint64(32), bl & _LOW32, bl >> np.uint64(32)
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> np.uint64(32)) + (p01 & _LOW32) + (p10 & _LOW32)
    carry = (p01 >> np.uint64(32)) + (p10 >> np.uint64(32)) + (mid >> np.uint64(32))
    return a1 * b1 + carry + al * bh + ah * bl, al * bl


def _halves(values):
    """The (high, low) uint64 halves of 128-bit Python ints."""
    return (np.array([v >> 64 for v in values], np.uint64),
            np.array([v & 0xFFFFFFFFFFFFFFFF for v in values], np.uint64))


def _raw_words(seed: int, rows, n: int) -> np.ndarray:
    """np.random.PCG64([seed, i]).random_raw(n) for each i of rows (each
    below 2**32), one row each. Below 2**32 seed and i are one uint32
    entropy word each, so SeedSequence's pool mixing and generate_state(4,
    uint64), PCG64's seeding (two LCG steps) and its XSL-RR output all run
    on arrays: word k's state is A_k * s + C_k * inc (mod 2**128) for the
    seeded s and inc, with A_k and C_k computed once per call. A larger seed
    has more entropy words and takes the generator's own constructor."""
    if seed >= 2**32:
        words = [np.random.PCG64([seed, i]).random_raw(n) for i in rows]
        return np.array(words, np.uint64).reshape(len(rows), n)
    with np.errstate(over="ignore"):
        i = np.array(rows, np.uint64)
        zero = np.zeros_like(i)
        a = _hash_consts(_INIT_A, _MULT_A)
        pool = [_hashmix(x, a) for x in (np.full_like(i, seed), i, zero, zero)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    m = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * _hashmix(pool[src], a) & _LOW32
                    pool[dst] = m ^ m >> np.uint64(16)
        b = _hash_consts(_INIT_B, _MULT_B)
        w = [_hashmix(pool[j % 4], b) for j in range(8)]
        s_hi, s_lo, q_hi, q_lo = (w[j] | w[j + 1] << np.uint64(32) for j in range(0, 8, 2))
        inc_hi, inc_lo = q_hi << np.uint64(1) | q_lo >> np.uint64(63), q_lo << np.uint64(1) | np.uint64(1)
        coef_a, coef_c = [], []
        ca, cc = _PCG_MULT, _PCG_MULT + 1  # the seeded state is M * s + (M + 1) * inc
        for _ in range(n):
            ca, cc = ca * _PCG_MULT & _MASK128, (cc * _PCG_MULT + 1) & _MASK128
            coef_a.append(ca)
            coef_c.append(cc)
        x_hi, x_lo = _mul128(*_halves(coef_a), s_hi[:, None], s_lo[:, None])
        y_hi, y_lo = _mul128(*_halves(coef_c), inc_hi[:, None], inc_lo[:, None])
        lo = x_lo + y_lo
        hi = x_hi + y_hi + (lo < x_lo)
        x, rot = hi ^ lo, hi >> np.uint64(58)
        return x >> rot | x << (np.uint64(64) - rot & np.uint64(63))


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
    # a content token's code is its draw v, v for sig{v} and ~v for tok{v};
    # names holds one string per code, shared by every row that draws it
    names: dict[int, str] = {}
    examples = []
    for lo in range(0, spec.total, step):
        idx = range(lo, min(lo + step, spec.total))
        w = _raw_words(spec.seed, idx, nw)
        g = np.searchsorted(cum, _unit(w[:, 0]), side="right")
        y = _unit(w[:, 1]) < rates[g]
        length, bad = _lemire(w[:, 2] & _LOW32, n_len)
        length = length.astype(np.int64) + spec.tokens_min
        p_sig = np.where(y, spec.p_signal_pos, spec.p_signal_neg)
        sig = _unit(w[:, double_at]) < p_sig[:, None]
        n = np.where(sig, np.uint64(n_sig), np.uint64(spec.vocab_size))
        value, rejected = _lemire((w[:, int_at] >> int_shift) & _LOW32, n)
        used = t < length[:, None]
        bad |= (rejected & used).any(axis=1) | y & biased[g]
        value = value.astype(np.int64)
        codes = np.where(sig, value, ~value)
        for c in np.unique(codes[used & ~bad[:, None]]).tolist():
            if c not in names:
                names[c] = f"sig{c}" if c >= 0 else f"tok{~c}"
        rows = zip(idx, bad.tolist(), g.tolist(), y.tolist(), length.tolist(), codes.tolist())
        for i, b, gi, yi, k, c in rows:
            if b:
                examples.append(_gen_example(spec, i))
                continue
            tokens = (*map(names.__getitem__, c[:k]), *markers[gi])
            examples.append(Example(f"ex{i:06d}", tokens, int(yi), {spec.attribute: groups[gi]}))
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


def _example(obj) -> Example:
    rec_id, tokens = record_id(obj["id"]), obj["tokens"]
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
    for name, examples in (("train", train), ("test", test)):
        write_jsonl((vars(ex) for ex in examples), os.path.join(out_dir, f"{name}.jsonl"))
    with atomic_open(os.path.join(out_dir, "spec.json")) as fh:
        fh.write(spec.to_json())
