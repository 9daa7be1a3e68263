import copy
import os
import platform
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import step_reference as ref
from conftest import SRC, measured_on
from fairvec.ckpt import Checkpoint, Tensor, write_checkpoint
from fairvec.corpus import CorpusSpec, gen_corpus
from fairvec.errors import DivergedTraining, EmptyGroup, IncompatibleCheckpoint
from fairvec.metrics import evaluate
from fairvec.arith import diff
from fairvec.features import featurize, featurize_all, touched_buckets
from fairvec import features, toymodel
from fairvec.toymodel import (
    Hyper,
    SplitScorer,
    ToyModel,
    grad_check,
    init_model,
    TENSOR_NAMES,
    _forward,
    _labels,
    _flat,
    _layout,
    _panels,
    _product,
    _rows,
    _sgd,
    _sigmoid,
    loss_and_grads,
    predict,
    score_features,
    subgroup,
    train,
    train_lora,
    train_subgroup,
)

DIM, HID = 128, 8


@pytest.fixture(scope="module")
def corpus():
    spec = CorpusSpec(
        attribute="g", proportions={"A": 0.5, "B": 0.5}, total=400, seed=13
    )
    return spec, *gen_corpus(spec)


# the README's scale: the default 7-group mix and 700 examples (with dim 512
# and hidden 16)
README = CorpusSpec(attribute="gender", total=700, seed=13)


@pytest.fixture(scope="module")
def readme_split():
    """The full training split at the README's scale."""
    return gen_corpus(README)[0]


@pytest.fixture(scope="module")
def scoring_splits(readme_split):
    """The train and test splits of seed 13 at the paper's scale (the
    default mix, 3,546 examples: 2,837 and 709 rows) and at the README's
    (560 and 140 rows)."""
    paper = gen_corpus(CorpusSpec(attribute="gender", total=3546, seed=13))
    return {
        "paper-train": paper[0], "paper-test": paper[1],
        "readme-train": readme_split, "readme-test": gen_corpus(README)[1],
    }


def separable_examples(n=50):
    """Labels decided by a single token: trivially separable."""
    from fairvec.corpus import Example

    out = []
    for i in range(n):
        y = i % 2
        tokens = ("hot",) if y else ("cold",)
        out.append(Example(id=f"s{i}", tokens=tokens, y_true=y, groups={"g": "A"}))
    return out


def test_zero_epochs_returns_init():
    ex = separable_examples()
    ckpt = train(ex, Hyper(epochs=0, seed=7), dim=DIM, hidden=HID)
    init = init_model(DIM, HID, 7).to_checkpoint()
    assert ckpt.tensors == init.tensors


def test_training_determinism(corpus):
    _, tr, _ = corpus
    hy = Hyper(epochs=5, seed=13)
    a = train(tr, hy, dim=DIM, hidden=HID)
    b = train(tr, hy, dim=DIM, hidden=HID)
    assert a.tensors == b.tensors and a.metadata == b.metadata


def test_separable_data_fits():
    ex = separable_examples()
    ckpt = train(ex, Hyper(epochs=200, lr=0.5, seed=1), dim=DIM, hidden=HID)
    preds = predict(ckpt, ex)
    assert all(p.y_pred == p.y_true for p in preds)


def test_diverged_training():
    ex = separable_examples()
    nan_base = init_model(DIM, HID, 1).to_checkpoint()
    bad = dict(nan_base.tensors)
    bad["W1"] = Tensor.from_numpy(np.full((DIM, HID), np.nan, np.float32))
    with pytest.raises(DivergedTraining, match="epoch 0, step 0"):
        train(ex, Hyper(epochs=1, seed=1), base=Checkpoint(tensors=bad))
    with pytest.raises(DivergedTraining, match="epoch 0, step 0"):
        train_lora(ex, Checkpoint(tensors=bad), Hyper(epochs=1, seed=1))


def test_negative_seed():
    with pytest.raises(ValueError, match="seed must be >= 0, got -5"):
        Hyper(seed=-5)
    with pytest.raises(ValueError, match="seed must be >= 0, got -5"):
        init_model(DIM, HID, -5)


@pytest.mark.parametrize("lr", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_bad_learning_rate(lr):
    with pytest.raises(ValueError, match="learning rate must be finite and > 0"):
        Hyper(lr=lr)


def test_empty_dataset():
    with pytest.raises(EmptyGroup):
        train([], Hyper(epochs=1))


def test_subgroup_training(corpus):
    spec, tr, _ = corpus
    hy = Hyper(epochs=40, seed=13)
    base = init_model(DIM, HID, 13).to_checkpoint()
    sub = train_subgroup(tr, "g", "A", hy, dim=DIM, hidden=HID)
    assert sub.metadata["subset"] == "A"
    assert diff(sub, base).names() == ["W1", "b1", "b2", "w2"]

    own = [ex for ex in tr if ex.groups["g"] == "A"]
    acc_base = np.mean([p.y_pred == p.y_true for p in predict(base, own)])
    acc_sub = np.mean([p.y_pred == p.y_true for p in predict(sub, own)])
    assert acc_sub > acc_base


def test_subgroup_missing(corpus):
    _, tr, _ = corpus
    with pytest.raises(EmptyGroup):
        train_subgroup(tr, "g", "Nope", Hyper(epochs=1))


def test_degenerate_labels_metadata():
    from fairvec.corpus import Example

    ex = [
        Example(id=f"d{i}", tokens=("t",), y_true=1, groups={"g": "A"})
        for i in range(10)
    ]
    ckpt = train(ex, Hyper(epochs=1, seed=3), dim=DIM, hidden=HID)
    assert ckpt.metadata.get("degenerate_labels") == "true"


class TestLora:
    def test_zero_init_merged_equals_base(self, corpus):
        _, tr, _ = corpus
        base = init_model(DIM, HID, 13).to_checkpoint()
        merged, adapter = train_lora(tr, base, Hyper(epochs=0, seed=13))
        assert merged.tensors["W1"] == base.tensors["W1"]
        assert not adapter.B.any()

    def test_rank_bound(self, corpus):
        _, tr, _ = corpus
        base = init_model(DIM, HID, 13).to_checkpoint()
        merged, adapter = train_lora(tr, base, Hyper(epochs=10, seed=13), rank=4)
        delta = merged.tensors["W1"].to_numpy() - base.tensors["W1"].to_numpy()
        sv = np.linalg.svd(delta, compute_uv=False)
        assert int((sv > 1e-5 * sv[0]).sum()) <= 4
        np.testing.assert_allclose(delta, adapter.delta(), rtol=1e-4, atol=1e-6)

    def test_w1_frozen(self, corpus):
        _, tr, _ = corpus
        base = init_model(DIM, HID, 13).to_checkpoint()
        merged, adapter = train_lora(tr, base, Hyper(epochs=5, seed=13))
        reconstructed = base.tensors["W1"].to_numpy() + adapter.delta()
        np.testing.assert_allclose(
            merged.tensors["W1"].to_numpy(), reconstructed, rtol=1e-5, atol=1e-6
        )

    def test_bad_rank(self, corpus):
        _, tr, _ = corpus
        base = init_model(DIM, HID, 13).to_checkpoint()
        with pytest.raises(ValueError):
            train_lora(tr, base, Hyper(epochs=1), rank=0)

    # 3e39 / 8, the default rank, is finite as a float, inf in float32
    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf, 3e39])
    def test_non_finite_alpha(self, corpus, alpha):
        _, tr, _ = corpus
        base = init_model(DIM, HID, 13).to_checkpoint()
        with pytest.raises(ValueError, match="alpha must be finite"):
            train_lora(tr, base, Hyper(epochs=1), alpha=alpha)

    def test_updates_stay_float32(self, corpus):
        _, tr, _ = corpus
        base = init_model(DIM, HID, 13).to_checkpoint()
        merged, adapter = train_lora(tr, base, Hyper(epochs=2, seed=13), metadata={"subset": "A"})
        assert adapter.A.dtype == adapter.B.dtype == np.float32
        assert merged.metadata["subset"] == "A"


def lora_train_reference(examples, base, hyper, rank=8, alpha=16.0, metadata=None):
    """The LoRA loop that train_lora must reproduce, written out in full: its
    own shuffle stream default_rng([seed, 3]), epoch loop and batch slicing.
    Returns the merged checkpoint, A and B. A non-finite loss raises
    DivergedTraining naming its epoch and step."""
    model = ToyModel.from_checkpoint(base)
    X = featurize_all(examples, model.dim)
    y = _labels(examples)
    rng = np.random.default_rng([hyper.seed, 2])
    A = rng.normal(0.0, 0.01, size=(model.dim, rank)).astype(np.float32)
    B = np.zeros((rank, model.hidden), dtype=np.float32)
    scaling = np.float32(alpha / rank)
    shuffle = np.random.default_rng([hyper.seed, 3])
    arrays = model.arrays()
    lr = np.float32(hyper.lr)
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(hyper.epochs):
            order = shuffle.permutation(len(examples))
            for step, start in enumerate(range(0, len(examples), hyper.batch_size)):
                idx = order[start : start + hyper.batch_size]
                eff = dict(arrays)
                eff["W1"] = arrays["W1"] + scaling * (A @ B)
                loss, grads = loss_and_grads(eff, X[idx], y[idx])
                if not np.isfinite(loss):
                    raise DivergedTraining(
                        f"reference loss {loss} at epoch {epoch}, step {step}"
                    )
                A, B = (
                    A - lr * scaling * (grads["W1"] @ B.T),
                    B - lr * scaling * (A.T @ grads["W1"]),
                )
                arrays["b2"] = arrays["b2"] - lr * grads["b2"]
    arrays["W1"] = arrays["W1"] + scaling * (A @ B)
    meta = {"seed": str(hyper.seed), "subset": "all", "lora_rank": str(rank),
            "lora_alpha": repr(float(alpha))}
    meta.update(metadata or {})
    return ToyModel(*(arrays[n] for n in TENSOR_NAMES)).to_checkpoint(meta), A, B


class TestLoraReference:
    """train_lora gives the bytes of lora_train_reference: the merged
    checkpoint, A and B, and the epoch and step of a divergence."""

    @pytest.mark.parametrize(
        "group, metadata, hyper",
        [
            (None, None, Hyper(epochs=3, seed=13)),
            ("A", None, Hyper(epochs=4, batch_size=24, seed=14)),
            (None, {"subset": "B", "note": "x"}, Hyper(epochs=2, lr=0.3, seed=15)),
        ],
        ids=["seeded init", "group subset", "metadata"],
    )
    def test_bytes_equal_reference(self, corpus, tmp_path, group, metadata, hyper):
        _, tr, _ = corpus
        examples = tr if group is None else subgroup(tr, "g", group)
        base = init_model(DIM, HID, hyper.seed).to_checkpoint()
        want, want_A, want_B = lora_train_reference(
            examples, base, hyper, rank=4, alpha=8.0, metadata=metadata
        )
        got, adapter = train_lora(
            examples, base, hyper, rank=4, alpha=8.0, metadata=metadata
        )
        write_checkpoint(want, tmp_path / "want.ckpt")
        write_checkpoint(got, tmp_path / "got.ckpt")
        assert (tmp_path / "got.ckpt").read_bytes() == (tmp_path / "want.ckpt").read_bytes()
        assert adapter.A.tobytes() == want_A.tobytes()
        assert adapter.B.tobytes() == want_B.tobytes()

    def test_diverges_where_the_reference_does(self, corpus):
        _, tr, _ = corpus
        hy = Hyper(epochs=3, lr=1e38, seed=13)
        base = init_model(DIM, HID, 13).to_checkpoint()
        with pytest.raises(DivergedTraining) as want:
            lora_train_reference(tr, base, hy)
        with pytest.raises(DivergedTraining) as got:
            train_lora(tr, base, hy)
        where = r"at epoch \d+, step \d+$"
        assert re.search(where, str(got.value))[0] == re.search(where, str(want.value))[0]

    @staticmethod
    def assert_reference_bytes(examples, base, hyper, tmp_path, rank=8):
        want, want_A, want_B = lora_train_reference(examples, base, hyper, rank=rank)
        got, adapter = train_lora(examples, base, hyper, rank=rank)
        write_checkpoint(want, tmp_path / "want.ckpt")
        write_checkpoint(got, tmp_path / "got.ckpt")
        assert (tmp_path / "got.ckpt").read_bytes() == (tmp_path / "want.ckpt").read_bytes()
        assert adapter.A.tobytes() == want_A.tobytes()
        assert adapter.B.tobytes() == want_B.tobytes()

    @pytest.mark.parametrize("group", [None, *README.groups()])
    def test_readme_splits_bytes_equal_reference(self, readme_split, tmp_path, group):
        """The full split and each subgroup of one README-scale seed, in
        whichever layout _layout picks for rank 8; the full split's is
        compact, so the effective W1 is formed on its touched rows and
        plan[8] sums dB."""
        subset = readme_split if group is None else subgroup(readme_split, "gender", group)
        base = init_model(512, 16, 13)
        if group is None:
            cols = touched_buckets(subset, 512)[0]
            layout, plan = _layout(cols, len(subset), base.W1, 32, 8)
            if measured_on("SkylakeX", "Nehalem"):
                assert layout is cols
            assert set(plan) == {32, len(subset) % 32, 8} - {0}
        hy = Hyper(epochs=3, seed=13)
        self.assert_reference_bytes(subset, base.to_checkpoint(), hy, tmp_path)

    def test_readme_full_split_all_columns_bytes(self, readme_split, tmp_path, monkeypatch):
        """With no plan, the all-columns layout is the dense loop."""
        monkeypatch.setattr(toymodel, "_plan", lambda *args: False)
        base = init_model(512, 16, 13)
        cols = touched_buckets(readme_split, 512)[0]
        layout, plan = _layout(cols, len(readme_split), base.W1, 32, 8)
        assert np.array_equal(layout, np.arange(512))
        assert plan == dict.fromkeys({32, len(readme_split) % 32, 8})
        hy = Hyper(epochs=3, seed=13)
        self.assert_reference_bytes(readme_split, base.to_checkpoint(), hy, tmp_path)

    @pytest.mark.parametrize("dim, hidden, rank", [(1024, 32, 2), (512, 32, 8), (4096, 32, 16)])
    def test_readme_women_shapes_bytes_equal_reference(
        self, readme_split, tmp_path, dim, hidden, rank
    ):
        """Shapes where BLAS sums some rows of dW1 @ B.T differently from
        the same rows alone (1024/32/2 here): _layout must then train all
        columns, and elsewhere plan[rank] must fit."""
        subset = subgroup(readme_split, "gender", "Women")
        base = init_model(dim, hidden, 13).to_checkpoint()
        self.assert_reference_bytes(subset, base, Hyper(epochs=2, seed=13), tmp_path, rank)

    def test_lora_untouched_row_overflow_diverges_where_the_reference_does(self, readme_split):
        """Untouched W1 rows at 3.4e38 train compact, and a huge alpha and lr
        grow B until W1_u + (alpha/r) A_u B overflows: the dense forward's
        0 * inf makes that step's loss NaN, and the guard must too."""
        subset = subgroup(readme_split, "gender", "Women")
        model = init_model(512, 16, 13)
        cols = touched_buckets(subset, 512)[0]
        model.W1[np.delete(np.arange(512), cols)] = 3.4e38
        if measured_on("SkylakeX", "Nehalem"):
            assert _layout(cols, len(subset), model.W1, 32, 8)[0] is cols
        hy, base = Hyper(epochs=2, lr=1e10, seed=13), model.to_checkpoint()
        with pytest.raises(DivergedTraining, match="epoch 0, step 1$"):
            lora_train_reference(subset, base, hy, alpha=8e16)
        with pytest.raises(DivergedTraining, match="epoch 0, step 1$"):
            train_lora(subset, base, hy, alpha=8e16)


class TestPredict:
    def test_zero_weights_boundary(self):
        model = ToyModel(
            W1=np.zeros((DIM, HID), np.float32),
            b1=np.zeros(HID, np.float32),
            w2=np.zeros(HID, np.float32),
            b2=np.zeros((), np.float32),
        )
        ex = separable_examples(4)
        preds = predict(model.to_checkpoint(), ex)
        assert all(p.score == 0.5 and p.y_pred == 1 for p in preds)

    @pytest.mark.parametrize("examples", [[], separable_examples(2)])
    def test_bad_threshold_raises_before_scoring(self, examples):
        ckpt = init_model(DIM, HID, 1).to_checkpoint()
        with pytest.raises(ValueError, match="threshold must lie in"):
            predict(ckpt, examples, threshold=7.0)
        assert predict(ckpt, []) == []

    def test_incompatible_checkpoint(self):
        bad = Checkpoint(
            tensors={"weird": Tensor.from_numpy(np.zeros(3, np.float32))}
        )
        with pytest.raises(IncompatibleCheckpoint):
            predict(bad, separable_examples(2))

    def test_order_independent(self, corpus):
        _, tr, te = corpus
        ckpt = train(tr, Hyper(epochs=3, seed=13), dim=DIM, hidden=HID)
        fwd = {p.id: p.score for p in predict(ckpt, te)}
        rev = {p.id: p.score for p in predict(ckpt, te[::-1])}
        assert fwd == rev

    def test_matches_independent_forward_pass(self, corpus):
        _, tr, te = corpus
        ckpt = train(tr, Hyper(epochs=5, seed=13), dim=DIM, hidden=HID)
        model = ToyModel.from_checkpoint(ckpt)
        preds = predict(ckpt, te)
        for p, ex in zip(preds, te):
            x = featurize(ex.tokens, DIM).astype(np.float64)
            hidden = np.tanh(x @ model.W1.astype(np.float64) + model.b1)
            logit = float(hidden @ model.w2 + model.b2)
            score = 1.0 / (1.0 + np.exp(-logit))
            assert abs(p.score - score) < 1e-6

    def test_carries_group_annotations(self, corpus):
        _, tr, te = corpus
        ckpt = train(tr, Hyper(epochs=1, seed=13), dim=DIM, hidden=HID)
        report = evaluate(predict(ckpt, te), "g")
        assert {r.group for r in report.rows} == {"A", "B"}


class TestGradCheck:
    def test_random_data(self, corpus):
        _, tr, _ = corpus
        model = init_model(DIM, HID, 5)
        assert grad_check(model, tr[:40], eps=1e-4) < 1e-4

    def test_zero_loss_configuration(self):
        ex = separable_examples(20)
        ckpt = train(ex, Hyper(epochs=300, lr=0.5, seed=2), dim=DIM, hidden=HID)
        model = ToyModel.from_checkpoint(ckpt)
        assert grad_check(model, ex, eps=1e-4) < 1e-4

    def test_corrupted_gradient_detected(self, corpus):
        _, tr, _ = corpus
        model = init_model(DIM, HID, 5)
        from fairvec.features import featurize_all

        X = featurize_all(tr[:40], DIM).astype(np.float64)
        y = np.array([e.y_true for e in tr[:40]], np.float64)
        arrays = {n: a.astype(np.float64) for n, a in model.arrays().items()}
        _, grads = loss_and_grads(arrays, X, y)
        # the true gradients, in reversed key order: flattened in the
        # model's tensor order, they still match
        reversed_order = dict(reversed(grads.items()))
        assert grad_check(model, tr[:40], eps=1e-4, grads_override=reversed_order) < 1e-4
        grads["w2"] = -grads["w2"]  # sign-flip one tensor
        assert grad_check(model, tr[:40], eps=1e-4, grads_override=grads) > 1e-2

    def test_eps_domain(self):
        model = init_model(DIM, HID, 5)
        with pytest.raises(ValueError):
            grad_check(model, separable_examples(4), eps=1e-2)


def dense_train_reference(examples, hyper, dim, hidden, base=None):
    """The dense training loop that compact training must reproduce:
    the reference step (a full X.T @ dZ gradient) and a fresh copy of every
    tensor per step. A non-finite loss raises DivergedTraining naming its
    epoch and step."""
    model = (
        ToyModel.from_checkpoint(base) if base is not None
        else init_model(dim, hidden, hyper.seed)
    )
    X = featurize_all(examples, model.dim)
    y = _labels(examples)
    shuffle = np.random.default_rng([hyper.seed, 1])
    arrays = model.arrays()
    lr = np.float32(hyper.lr)
    for epoch in range(hyper.epochs):
        order = shuffle.permutation(len(examples))
        for step, start in enumerate(range(0, len(examples), hyper.batch_size)):
            idx = order[start : start + hyper.batch_size]
            with np.errstate(over="ignore", invalid="ignore"):
                loss, grads = ref.loss_and_grads(arrays, X[idx], y[idx])
            if not np.isfinite(loss):
                raise DivergedTraining(f"reference loss {loss} at epoch {epoch}, step {step}")
            for name in TENSOR_NAMES:
                arrays[name] = (arrays[name] - lr * grads[name]).astype(np.float32)
    return ToyModel(*(arrays[n] for n in TENSOR_NAMES)).to_checkpoint()


class TestSparseTraining:
    """train works on the touched columns when BLAS gives the compact
    forward and backward the dense bytes at every batch size, and in the
    all-columns layout when an untouched W1 row is not finite, some batch
    size has no panel plan or the compact backward differs; either way its
    bytes equal the dense loop."""

    SPARSE_DIM = 1024

    @staticmethod
    def touched(examples, dim):
        return featurize_all(examples, dim).any(axis=0)

    # sparse: at most half of the buckets are touched; the cases cover both
    @pytest.mark.parametrize(
        "dim, hidden, group, sparse",
        [
            (DIM, HID, None, False),
            (DIM, 16, "A", False),
            (SPARSE_DIM, 16, "A", True),
            (SPARSE_DIM, 32, None, True),
            (SPARSE_DIM, HID, "B", True),
            (4096, 32, "A", True),
        ],
    )
    def test_bytes_equal_dense_reference(self, corpus, dim, hidden, group, sparse):
        _, tr, _ = corpus
        subset = [ex for ex in tr if group is None or ex.groups["g"] == group]
        touched = self.touched(subset, dim)
        assert (2 * touched.sum() <= dim) == sparse
        tokens = touched_buckets(subset, dim)
        cols = tokens[0]
        assert np.array_equal(cols, np.flatnonzero(touched))
        layout, plan = _layout(cols, len(subset), init_model(dim, hidden, 13).W1, 32)
        assert set(plan) == {32, len(subset) % 32} - {0}
        if np.array_equal(layout[layout >= 0], cols):
            # compact: the touched columns in order, padded (-1) to equal
            # panels, and the features over them, +0 at the pads
            Xl = features.token_counts(len(subset), layout, *tokens)
            assert np.array_equal(Xl[:, layout >= 0], featurize_all(subset, dim)[:, cols])
            assert not Xl[:, layout < 0].any()
            for panels in plan.values():
                assert panels is None or len(layout) % panels == 0
        else:
            assert np.array_equal(layout, np.arange(dim))
            assert set(plan.values()) == {None}
        hy = Hyper(epochs=4, seed=13)
        got = train(subset, hy, dim=dim, hidden=hidden)
        assert got.tensors == dense_train_reference(subset, hy, dim, hidden).tensors

    def test_from_base_bytes_equal_dense_reference(self, corpus):
        _, tr, _ = corpus
        hy = Hyper(epochs=3, seed=13)
        base = dense_train_reference(tr, hy, self.SPARSE_DIM, 16)
        subset = [ex for ex in tr if ex.groups["g"] == "B"]
        got = train_subgroup(tr, "g", "B", hy, base=base)
        assert got.tensors == dense_train_reference(subset, hy, None, None, base).tensors

    @pytest.mark.parametrize("dim", [DIM, SPARSE_DIM])
    def test_untouched_rows_keep_their_bytes(self, corpus, dim):
        _, tr, _ = corpus
        subset = [ex for ex in tr if ex.groups["g"] == "A"]
        untouched = ~self.touched(subset, dim)
        assert untouched.any()
        start = init_model(dim, 16, 13).W1
        W1 = ToyModel.from_checkpoint(
            train(subset, Hyper(epochs=3, seed=13), dim=dim, hidden=16)
        ).W1
        assert W1[untouched].tobytes() == start[untouched].tobytes()
        assert W1[~untouched].tobytes() != start[~untouched].tobytes()

    def test_nan_in_untouched_row_still_diverges(self, corpus):
        _, tr, _ = corpus
        subset = [ex for ex in tr if ex.groups["g"] == "A"]
        row = int(np.flatnonzero(~self.touched(subset, self.SPARSE_DIM))[0])
        model = init_model(self.SPARSE_DIM, 16, 13)
        model.W1[row, 0] = np.nan
        with pytest.raises(DivergedTraining, match="epoch 0, step 0"):
            train(subset, Hyper(epochs=1, seed=13), base=model.to_checkpoint())

    def test_readme_full_split_all_columns_bytes(self, readme_split, monkeypatch):
        """With no panel plan, the all-columns layout trains the full split
        from the seeded init and from a base with the dense loop's bytes,
        whichever layout this BLAS would pick."""
        monkeypatch.setattr(toymodel, "_plan", lambda *args: False)
        tokens = touched_buckets(readme_split, 512)
        layout, plan = _layout(tokens[0], len(readme_split), init_model(512, 16, 13).W1, 32)
        assert np.array_equal(layout, np.arange(512))
        assert plan == dict.fromkeys({32, len(readme_split) % 32} - {0})
        dense = features.token_counts(len(readme_split), layout, *tokens)
        assert dense.tobytes() == featurize_all(readme_split, 512).tobytes()
        hy = Hyper(epochs=3, seed=13)
        base = dense_train_reference(readme_split, Hyper(epochs=2, seed=14), 512, 16)
        for start in (None, base):
            got = train(readme_split, hy, dim=512, hidden=16, base=start)
            want = dense_train_reference(readme_split, hy, 512, 16, start)
            assert got.tensors == want.tensors

    @pytest.mark.parametrize("group", [None, *README.groups()])
    def test_readme_splits_bytes_equal_dense_reference(self, readme_split, group):
        """The full split and each subgroup of one README-scale seed, in
        whichever layout _layout picks."""
        subset = readme_split if group is None else subgroup(readme_split, "gender", group)
        hy = Hyper(epochs=3, seed=13)
        got = train(subset, hy, dim=512, hidden=16)
        assert got.tensors == dense_train_reference(subset, hy, 512, 16).tensors

    def test_readme_full_split_from_base_bytes(self, readme_split):
        base = dense_train_reference(readme_split, Hyper(epochs=2, seed=14), 512, 16)
        hy = Hyper(epochs=3, seed=13)
        got = train(readme_split, hy, base=base)
        assert got.tensors == dense_train_reference(readme_split, hy, None, None, base).tensors

    @pytest.mark.parametrize("case", ["untouched nan", "touched nan", "huge lr"])
    def test_readme_full_split_diverges_where_the_reference_does(self, readme_split, case):
        model = init_model(512, 16, 13)
        touched = self.touched(readme_split, 512)
        assert not touched.all()
        lr = 1e38 if case == "huge lr" else 0.1
        if case != "huge lr":
            model.W1[int(np.flatnonzero(touched == (case == "touched nan"))[0]), 0] = np.nan
        hy, base = Hyper(epochs=3, lr=lr, seed=13), model.to_checkpoint()
        with pytest.raises(DivergedTraining) as want:
            dense_train_reference(readme_split, hy, None, None, base)
        with pytest.raises(DivergedTraining) as got:
            train(readme_split, hy, base=base)
        where = r"at epoch \d+, step \d+$"
        assert re.search(where, str(got.value))[0] == re.search(where, str(want.value))[0]


class TestPanels:
    """_panels follows OpenBLAS's K-loop rule, and whenever _layout returns a
    compact plan the panel sum and the compact gradient have the dense
    products' bytes on data the probe never saw."""

    @pytest.mark.parametrize(
        "dim, q, widths",
        [
            (4096, 448, [448] * 8 + [256, 256]),
            (1000, 448, [448, 276, 276]),
            (512, 448, [256, 256]),
            (512, 512, [512]),
            (4096, 4096, [4096]),
        ],
    )
    def test_rule_on_all_columns(self, dim, q, widths):
        panels = _panels(dim, np.arange(dim), q)
        assert [p.stop - p.start for p in panels] == widths
        assert panels[0].start == 0 and panels[-1].stop == dim

    def test_drops_empty_panels(self):
        cols = np.array([3, 5, 3000, 4095])
        assert _panels(4096, cols, 448) == [slice(0, 2), slice(2, 3), slice(3, 4)]
        assert _panels(4096, cols[:0], 448) == []

    @pytest.mark.parametrize("dim", [4096, 1024, 1000, 512])
    @pytest.mark.parametrize("hidden", [8, 16, 32])
    @pytest.mark.parametrize("remainder", [21, 5])
    def test_panel_sum_is_dense_product(self, dim, hidden, remainder):
        rng = np.random.default_rng([dim, hidden, remainder])
        n, batch = 3 * 32 + remainder, 32
        # an eighth and three quarters of the buckets touched
        for touched in (dim // 8, 3 * dim // 4):
            cols = np.sort(rng.choice(dim, touched, replace=False))
            layout, plan = _layout(
                cols, n, rng.standard_normal((dim, hidden), dtype=np.float32), batch
            )
            real = layout >= 0
            if not np.array_equal(layout[real], cols):
                continue
            for rows, panels in plan.items():
                Xc = rng.standard_normal((rows, len(cols)), dtype=np.float32)
                X = np.zeros((rows, dim), np.float32)
                X[:, cols] = Xc
                Xl = np.zeros((rows, len(layout)), np.float32)
                Xl[:, real] = Xc
                W = rng.standard_normal((dim, hidden), dtype=np.float32)
                Wl = np.where(real[:, None], W[layout], np.float32(0))
                dZ = rng.standard_normal((rows, hidden), dtype=np.float32)
                assert _product(Xl, Wl, panels).tobytes() == (X @ W).tobytes()
                dW = Xl.T @ dZ
                assert dW[real].tobytes() == (X.T @ dZ)[cols].tobytes()
                assert dW[~real].tobytes() == bytes(4 * hidden * (~real).sum())


class TestScoringPanels:
    """Whichever layout SplitScorer picks from the split and the shape alone,
    its scores have the bytes score_features gives on the dense features:
    for a first model, a later one at 100x its W1, models with a NaN in the
    first or the last untouched W1 row, and a finite model scored after an
    all-NaN one. When no layout matches, the split is the all-columns
    layout."""

    @pytest.mark.parametrize("dim, hidden", [(4096, 32), (4096, 16), (512, 16), (DIM, HID)])
    def test_scores_bytes_equal_dense(self, corpus, dim, hidden):
        _, tr, _ = corpus
        dense = featurize_all(tr, dim)
        first, later = init_model(dim, hidden, 13), init_model(dim, hidden, 14)
        later.W1 *= 100
        untouched = np.flatnonzero(~dense.any(axis=0))
        nan_row, last_nan_row = copy.deepcopy(later), copy.deepcopy(later)
        nan_row.W1[untouched[0], 0] = np.nan
        # the last row: a pad column (-1) must not stand for it
        last_nan_row.W1[untouched[-1], 0] = np.nan
        all_nan = copy.deepcopy(first)
        all_nan.W1[:] = np.nan
        scorer = SplitScorer(tr, dim, hidden)
        if not np.array_equal(scorer.cols[scorer.cols >= 0], np.flatnonzero(dense.any(axis=0))):
            assert np.array_equal(scorer.cols, np.arange(dim))
            assert scorer.X.tobytes() == dense.tobytes()
        for model in (first, later, nan_row, last_nan_row, all_nan, later):
            assert scorer.scores(model).tobytes() == score_features(model, dense).tobytes()

    def test_no_plan_is_all_columns(self, corpus, monkeypatch):
        """When no layout's product matches, the scorer holds the dense
        matrix and scores with one product over every column."""
        _, tr, _ = corpus
        monkeypatch.setattr(toymodel, "_plan", lambda *args: False)
        dense = featurize_all(tr, 4096)
        scorer = SplitScorer(tr, 4096, 32)
        assert np.array_equal(scorer.cols, np.arange(4096)) and scorer.panels is None
        assert scorer.X.tobytes() == dense.tobytes()
        model = init_model(4096, 32, 13)
        assert scorer.scores(model).tobytes() == score_features(model, dense).tobytes()

    @pytest.mark.parametrize(
        "split, dim, hidden",
        [
            ("paper-train", 4096, 32), ("paper-test", 4096, 32),
            ("readme-train", 512, 16), ("readme-test", 512, 16),
            ("readme-train", 32, 4), ("readme-test", 128, 17), ("paper-train", 1000, 33),
        ],
    )
    def test_predict_and_scorer_bytes_equal_definition(self, scoring_splits, split, dim, hidden):
        """predict and SplitScorer.scores give the bytes of score_features on
        the dense features at every row, though the panels were matched on
        the probe's rows only: for the seeded init, its W1 x 50 and, where a
        bucket is untouched, that model with a NaN in an untouched W1 row."""
        examples = scoring_splits[split]
        dense = featurize_all(examples, dim)
        init = init_model(dim, hidden, 13)
        big = copy.deepcopy(init)
        big.W1 *= 50
        models = [init, big]
        untouched = np.flatnonzero(~dense.any(axis=0))
        if len(untouched):
            nan_row = copy.deepcopy(big)
            nan_row.W1[untouched[0], 0] = np.nan
            models.append(nan_row)
        scorer = SplitScorer(examples, dim, hidden)
        for model in models:
            want = score_features(model, dense).tobytes()
            assert scorer.scores(model).tobytes() == want
            scores = [p.score for p in predict(model.to_checkpoint(), examples)]
            assert np.array(scores, dtype=np.float64).tobytes() == want

    def test_compact_scoring_builds_no_dense_matrix(self, scoring_splits, monkeypatch):
        """On the paper-scale train split, SplitScorer and predict score in
        the compact layout and do not call featurize_all, so no N x dim
        matrix is written (its pages' RSS depends on the environment, so it
        is not asserted). A model with a non-finite untouched W1 row is
        scored by the definition, one featurize_all of the split."""
        calls = []

        def recording(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        for module in (features, toymodel):
            recording(module, "featurize_all")
        examples = scoring_splits["paper-train"]
        model = init_model(4096, 32, 13)
        scorer = SplitScorer(examples, 4096, 32)
        compact = measured_on("SkylakeX", "Sandybridge", "Nehalem")
        if compact:
            assert scorer.panels is not None
            assert scorer.X.shape == (len(examples), len(scorer.cols)) < (len(examples), 4096)
        scorer.scores(model)
        predict(model.to_checkpoint(), examples)
        assert calls == []
        if compact:  # the all-columns layout has no untouched row
            model.W1[np.delete(np.arange(4096), scorer.cols)[0], 0] = np.nan
            scorer.scores(model)
            assert calls == ["featurize_all"]

    @pytest.mark.parametrize("row", ["touched", "untouched"])
    def test_non_finite_weight_scores_without_a_warning(self, readme_split, row):
        """predict of a model with an inf in a touched or an untouched W1 row
        warns nothing, and its scores have the bytes of score_features on
        the dense features."""
        dense = featurize_all(readme_split, 512)
        touched = dense.any(axis=0)
        model = init_model(512, 16, 13)
        model.W1[np.flatnonzero(touched if row == "touched" else ~touched)[0], 3] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scores = [p.score for p in predict(model.to_checkpoint(), readme_split)]
        with np.errstate(over="ignore", invalid="ignore"):
            want = score_features(model, dense)
        assert np.array(scores, dtype=np.float64).tobytes() == want.tobytes()


# logits at the edges of the sigmoid and the loss: signed zeros, tiny values,
# where float32 exp(-|z|) nears its smallest normal, near float32's largest
# value, infinities and NaN
SPECIAL_LOGITS = (0.0, -0.0, 1e-30, -1e-30, 88.0, -88.0, 1e38, -1e38,
                  np.inf, -np.inf, np.nan)


def same_bits(a, b):
    """a and b have one dtype and shape and the same bytes, except that a NaN
    may be any NaN."""
    a, b = np.asarray(a), np.asarray(b)
    nan = np.isnan(a)
    return (
        a.dtype == b.dtype and a.shape == b.shape
        and np.array_equal(nan, np.isnan(b))
        and a[~nan].tobytes() == b[~nan].tobytes()
    )


class TestLeanStep:
    """The package's step (in place, one exp per sigmoid, the loss as a sum
    over the row count) gives the reference step's gradient bytes and loss
    (tests/step_reference.py), and its loss is finite exactly when the
    reference's is."""

    DIM, HIDDEN = 64, 8

    @staticmethod
    def assert_same_step(arrays, X, y, panels=None, ref_panels=None):
        """The package's step with panels (a panel count) against the
        reference's with ref_panels (the same panels as slices)."""
        with np.errstate(over="ignore", invalid="ignore"):
            loss, grads = loss_and_grads(arrays, X, y, panels)
            want_loss, want = ref.loss_and_grads(arrays, X, y, ref_panels)
        assert np.isfinite(loss) == np.isfinite(want_loss)
        if np.isfinite(loss):
            # the float32 mean and the float64 quotient of the float32 sum
            # round to the same float32
            assert np.dtype(X.dtype).type(loss) == np.dtype(X.dtype).type(want_loss)
        for name in TENSOR_NAMES:
            assert same_bits(grads[name], want[name]), name

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_bytes(self, dtype):
        tiny = np.finfo(dtype).smallest_subnormal
        rng = np.random.default_rng(0)
        z = np.concatenate([
            np.array(SPECIAL_LOGITS + (tiny, -tiny, 5 * tiny, -5 * tiny), dtype),
            rng.standard_normal(200).astype(dtype) * dtype(30),
        ])
        with np.errstate(over="ignore", invalid="ignore"):
            got = _sigmoid(z)
        assert same_bits(got, ref._sigmoid(z))
        assert not np.signbit(got[~np.isnan(got)]).any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("compact", [False, True])
    @pytest.mark.parametrize("b2", [None, *SPECIAL_LOGITS])
    def test_step_bytes(self, dtype, compact, b2):
        """Random models at batch sizes 1-32; b2 sets every logit to a
        special value (w2 = 0) or shifts random ones."""
        rng = np.random.default_rng(int(compact))
        arrays = {
            "W1": rng.standard_normal((self.DIM, self.HIDDEN)).astype(dtype),
            "b1": rng.standard_normal(self.HIDDEN).astype(dtype),
            "w2": rng.standard_normal(self.HIDDEN).astype(dtype) * dtype(4),
            "b2": np.array(0.0 if b2 is None else b2, dtype),
        }
        if b2 is not None and abs(b2) < 1:
            arrays["w2"][:] = 0
        X = rng.poisson(0.3, (32, self.DIM)).astype(dtype)
        y = (rng.random(32) < 0.5).astype(dtype)
        slices = _panels(self.DIM, np.arange(self.DIM), 16) if compact else None
        panels = len(slices) if compact else None
        for rows in range(1, 33):
            self.assert_same_step(arrays, X[:rows], y[:rows], panels, slices)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_step_bytes_on_given_logits(self, dtype, monkeypatch):
        """Every special logit in one batch, next to finite ones, and hidden
        activations at exactly 0 and +-1: the forward is replaced by one
        that returns them, for both steps."""
        rng = np.random.default_rng(1)
        logit = np.concatenate([
            np.array(SPECIAL_LOGITS, dtype), rng.standard_normal(21).astype(dtype)
        ])
        H = np.tanh(rng.standard_normal((32, self.HIDDEN)) * 3).astype(dtype)
        H[:3] = [[0.0], [1.0], [-1.0]]
        arrays = {"W1": None, "b1": None, "w2": rng.standard_normal(self.HIDDEN).astype(dtype)}
        X = rng.poisson(0.3, (32, self.DIM)).astype(dtype)
        y = (rng.random(32) < 0.5).astype(dtype)
        for rows in range(1, 33):
            order = rng.permutation(32)[:rows]
            monkeypatch.setattr(
                "fairvec.toymodel._forward",
                lambda *_: (H[order].copy(), logit[order].copy()),
            )
            monkeypatch.setattr(
                ref, "_forward",
                lambda *_: (None, H[order].copy(), logit[order].copy()),
            )
            self.assert_same_step(arrays, X[order], y[order])

    def test_float32_sum_overflow_diverges(self):
        """Finite logits whose float32 sum of losses overflows: every row's
        loss is 1.1e37, and 32 of them pass float32's 3.4e38."""
        ex = [ex for ex in separable_examples(80) if ex.y_true == 0]
        model = init_model(DIM, HID, 1)
        model.w2[:] = 0
        model.b2[...] = 1.1e37
        _, logit = _forward(model.arrays(), featurize_all(ex[:32], DIM))
        assert np.isfinite(logit).all()
        with pytest.raises(DivergedTraining, match=r"loss inf at epoch 0, step 0"):
            train(ex, Hyper(epochs=1, seed=1), base=model.to_checkpoint())


class TestLeanStepLayouts:
    """A float32 training step in each layout a trainer works in (all
    columns, one product over the touched columns, and the touched columns
    padded to equal panels, a stacked product) gives the dense reference
    step's gradient bytes, and train's update of the flat buffers gives the
    reference update's bytes, at batch sizes 1-32 and with the special
    logits; pad rows stay +0. A non-finite untouched W1 row, or a non-finite
    LoRA B, makes the next loss NaN where the dense definition does."""

    # (dim, hidden, Poisson mean of a feature): ~20 nonzeros per row, and
    # some buckets untouched
    SHAPES = {"all columns": (512, 16, 0.04), "one product": (512, 16, 0.04),
              "padded panels": (4096, 32, 0.005)}

    @pytest.mark.parametrize("kind", list(SHAPES))
    def test_step_and_update_bytes(self, kind):
        """The reference is the dense step, on every column; the package
        steps in _layout's layout for each batch size (or, for "all
        columns", in the all-columns layout)."""
        dim, hidden, mean = self.SHAPES[kind]
        rng = np.random.default_rng(2)
        X = rng.poisson(mean, (32, dim)).astype(np.float32)
        y = (rng.random(32) < 0.5).astype(np.float32)
        cols = np.flatnonzero(X.any(axis=0))
        assert len(cols) < dim
        W1 = rng.standard_normal((dim, hidden)).astype(np.float32)
        kinds, lr = set(), np.float32(0.3)
        for rows in range(1, 33):
            if kind == "all columns":
                pcols, Xl, plan = np.arange(dim), X[:rows], {rows: None}
            else:
                pcols, plan = _layout(cols, rows, W1, rows)
                Xl = np.where(pcols >= 0, X[:rows][:, pcols], np.float32(0))
            real = pcols >= 0
            kinds.add("all columns" if len(pcols) == dim else
                      "padded panels" if plan[rows] else "one product")
            for b2 in (None, *SPECIAL_LOGITS):
                tensors = {
                    "b1": rng.standard_normal(hidden).astype(np.float32),
                    "w2": rng.standard_normal(hidden).astype(np.float32) * np.float32(4),
                    "b2": np.array(0.0 if b2 is None else b2, np.float32),
                }
                if b2 is not None and abs(b2) < 1:
                    tensors["w2"][:] = 0
                params = _flat({"W1": _rows(W1, pcols), **tensors})
                grads = _flat(params[1])
                dense = {"W1": W1, **tensors}
                with np.errstate(over="ignore", invalid="ignore"):
                    loss, got = loss_and_grads(params[1], Xl, y[:rows], plan[rows], grads[1])
                    want_loss, want = ref.loss_and_grads(dense, X[:rows], y[:rows])
                assert got is grads[1]
                assert np.isfinite(loss) == np.isfinite(want_loss)
                assert same_bits(got["W1"][real], want["W1"][pcols[real]])
                for name in ("b1", "w2", "b2"):
                    assert same_bits(got[name], want[name]), name
                if not np.isfinite(loss):
                    continue  # training raises before it updates
                assert np.float32(loss) == np.float32(want_loss)
                zero = np.zeros_like(W1)
                untouched = want["W1"][np.delete(np.arange(dim), cols)]
                assert untouched.tobytes() == zero[cols.size:].tobytes()
                assert got["W1"][~real].tobytes() == zero[: (~real).sum()].tobytes()
                with np.errstate(over="ignore", invalid="ignore"):
                    _sgd(params, grads, pcols, plan)(lr)
                    updated = {n: (a - lr * want[n]).astype(np.float32) for n, a in dense.items()}
                assert same_bits(params[1]["W1"][real], updated["W1"][pcols[real]])
                assert params[1]["W1"][~real].tobytes() == zero[: (~real).sum()].tobytes()
                for name in ("b1", "w2", "b2"):
                    assert same_bits(params[1][name], updated[name]), name
        # OpenBLAS 0.3.31's Haswell and Sandybridge kernels give no "one product"
        if kind != "one product" or measured_on("SkylakeX", "Nehalem"):
            assert kind in kinds

    @staticmethod
    def padded_split(corpus, n=None):
        """Group A of the corpus (its first n examples), whose layout at dim
        4096, hidden 32 is padded panels."""
        _, tr, _ = corpus
        subset = subgroup(tr, "g", "A")[:n]
        cols = touched_buckets(subset, 4096)[0]
        layout, plan = _layout(cols, len(subset), init_model(4096, 32, 13).W1, 32, 8)
        if measured_on("SkylakeX", "Sandybridge", "Nehalem"):
            assert (layout < 0).any() and 32 in plan and plan[32] is not None
        return subset

    def test_pad_rows_stay_zero_in_training(self, corpus):
        """After training, the pad rows of the layout W1 still hold +0, and
        the checkpoint has the dense loop's bytes."""
        subset, hy = self.padded_split(corpus), Hyper(epochs=3, seed=13)
        y = _labels(subset)
        cols, arrays = toymodel._descend(subset, y, init_model(4096, 32, 13), hy, 1, _sgd)
        pads = cols < 0
        if measured_on("SkylakeX", "Sandybridge", "Nehalem"):
            assert pads.any()
        assert arrays["W1"][pads].tobytes() == bytes(4 * 32 * pads.sum())
        got = train(subset, hy, dim=4096, hidden=32)
        assert got.tensors == dense_train_reference(subset, hy, 4096, 32).tensors

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_untouched_row_diverges_where_the_dense_loop_does(self, corpus, value):
        """Such a row makes the layout all columns, where the dense forward
        turns it into a NaN loss (0 * inf, 0 * NaN) at the first step."""
        subset = self.padded_split(corpus)
        model = init_model(4096, 32, 13)
        cols = touched_buckets(subset, 4096)[0]
        model.W1[np.delete(np.arange(4096), cols)[0], 5] = value
        assert np.array_equal(_layout(cols, len(subset), model.W1, 32)[0], np.arange(4096))
        hy, base = Hyper(epochs=1, seed=13), model.to_checkpoint()
        with pytest.raises(DivergedTraining, match="epoch 0, step 0$"):
            dense_train_reference(subset, hy, None, None, base)
        with pytest.raises(DivergedTraining, match="epoch 0, step 0$"):
            train(subset, hy, base=base)

    def test_non_finite_lora_b_diverges_where_the_reference_does(self, corpus):
        """A large w2 and lr * alpha/r near float32's largest value overflow
        some entries of B in the first step, while A stays finite (B starts
        at 0); the next loss is NaN, in the padded layout as in the dense
        reference, whose untouched and pad rows alike are 0 * inf."""
        subset = self.padded_split(corpus, 32)
        model = init_model(4096, 32, 13)
        model.w2[:] = 1e3
        base = model.to_checkpoint()
        one = Hyper(epochs=1, lr=1e38, seed=13)
        with np.errstate(over="ignore", invalid="ignore"):
            _, want_A, want_B = lora_train_reference(subset, base, one, alpha=24.0)
        _, adapter = train_lora(subset, base, one, alpha=24.0)
        assert np.isfinite(adapter.A).all() and not np.isfinite(adapter.B).all()
        assert same_bits(adapter.A, want_A) and same_bits(adapter.B, want_B)
        two = Hyper(epochs=2, lr=1e38, seed=13)
        with pytest.raises(DivergedTraining, match="epoch 1, step 0$"):
            lora_train_reference(subset, base, two, alpha=24.0)
        with pytest.raises(DivergedTraining, match="epoch 1, step 0$"):
            train_lora(subset, base, two, alpha=24.0)


# Trains the paper-scale seed-13 Women subgroup for 2 epochs and scores the
# whole train split, in the layouts this BLAS kernel matches and then with
# _plan patched to match nothing (every layout dense); exits 1 unless the
# checkpoint and the score bytes are equal.
_KERNEL_RUN = """
import sys
from fairvec import toymodel
from fairvec.corpus import CorpusSpec, gen_corpus

train, _ = gen_corpus(CorpusSpec(total=3546, seed=13))
women = toymodel.subgroup(train, "gender", "Women")

def run():
    ckpt = toymodel.train(women, toymodel.Hyper(epochs=2, seed=13), dim=4096, hidden=32)
    scorer = toymodel.SplitScorer(train, 4096, 32)
    scores = scorer.scores(toymodel.ToyModel.from_checkpoint(ckpt))
    return ckpt.tensors, scores.tobytes(), (len(scorer.cols), scorer.panels)

compact = run()
toymodel._plan = lambda *args, **kwargs: False
dense = run()
print("scorer layout (columns, panels):", compact[2], "forced dense:", dense[2])
sys.exit(compact[:2] != dense[:2])
"""

# the instructions each OpenBLAS kernel needs, as /proc/cpuinfo names them
_KERNEL_FLAGS = {"Haswell": {"avx2", "fma"}, "Sandybridge": {"avx"}, "Nehalem": {"sse4_2"}}


def _cpu_flags() -> set[str]:
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        return set()
    return {f for line in lines if line.startswith("flags") for f in line.split(":", 1)[1].split()}


@pytest.mark.parametrize("kernel", sorted(_KERNEL_FLAGS))
def test_compact_bytes_equal_dense_under_blas_kernel(kernel):
    """OPENBLAS_CORETYPE switches a DYNAMIC_ARCH OpenBLAS (numpy's wheels)
    to another sgemm kernel, with its own K blocking. Whatever layout the
    probes pick under it, training and scoring give the bytes of the
    all-columns layout."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip("OpenBLAS x86 kernels")
    if not _KERNEL_FLAGS[kernel] <= _cpu_flags():
        pytest.skip(f"this CPU lacks the {kernel} kernel's instructions")
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel, PYTHONWARNINGS="error::RuntimeWarning")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _KERNEL_RUN], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
