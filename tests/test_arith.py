import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairvec.arith import (
    TaskVector,
    WeightedVector,
    add,
    apply,
    diff,
    inject,
    merge,
    negate,
    scale,
    vector_cosine,
    vector_norm,
)
from fairvec.ckpt import Checkpoint, Dtype, Tensor, parse_checkpoint
from fairvec.errors import (
    NameSetMismatch,
    NonFiniteCoefficient,
    ShapeMismatch,
    ZeroVector,
)

from conftest import random_checkpoint_pair


def ckpt(**arrays):
    return Checkpoint(
        tensors={
            name: Tensor.from_numpy(np.asarray(arr, dtype=np.float32))
            for name, arr in arrays.items()
        }
    )


def tv(**arrays):
    return TaskVector.from_arrays(
        {name: np.asarray(arr, dtype=np.float32) for name, arr in arrays.items()}
    )


def arrays_of(vec_or_ckpt):
    src = vec_or_ckpt.deltas if isinstance(vec_or_ckpt, TaskVector) else vec_or_ckpt.tensors
    return {name: t.to_numpy() for name, t in src.items()}


def test_diff_elementwise():
    d = diff(ckpt(w=[3, 3]), ckpt(w=[1, 2]))
    np.testing.assert_array_equal(d.deltas["w"].to_numpy(), [2, 1])


def test_diff_self_is_zero():
    c = ckpt(w=[[1.5, -2.0], [0.25, 7.0]])
    d = diff(c, c)
    assert not d.deltas["w"].to_numpy().any()


def test_diff_name_mismatch_lists_offender():
    with pytest.raises(NameSetMismatch) as err:
        diff(ckpt(w=[1.0]), ckpt(w=[1.0], v=[2.0]))
    assert "v" in err.value.missing


def test_diff_intersect_mode():
    d = diff(ckpt(w=[3.0], x=[9.0]), ckpt(w=[1.0], v=[2.0]), intersect=True)
    assert d.names() == ["w"]
    assert set(d.source["skipped_names"].split(",")) == {"v", "x"}


def test_add_and_inverse():
    s = add(tv(w=[1, 2]), tv(w=[3, -2]))
    np.testing.assert_array_equal(s.deltas["w"].to_numpy(), [4, 0])
    a = tv(w=[0.3, -1.7, 2.5])
    z = add(a, negate(a))
    assert not z.deltas["w"].to_numpy().any()


def test_negate_involution_bitwise():
    a = tv(w=np.random.default_rng(0).standard_normal(10))
    assert negate(negate(a)).deltas == a.deltas


def test_negate_values():
    n = negate(tv(w=[1, -2, 0]))
    np.testing.assert_array_equal(n.deltas["w"].to_numpy(), [-1, 2, 0])


def test_scale_zero_one():
    a = tv(w=[0.7, -3.1])
    assert not scale(a, 0.0).deltas["w"].to_numpy().any()
    assert scale(a, 1.0).deltas == a.deltas


def test_scale_nonfinite():
    with pytest.raises(NonFiniteCoefficient):
        scale(tv(w=[1.0]), float("nan"))
    with pytest.raises(NonFiniteCoefficient):
        WeightedVector(tv(w=[1.0]), float("inf"))
    # finite as floats, inf in float32; float32's largest value is finite
    for c in (1e39, -1e39):
        with pytest.raises(NonFiniteCoefficient):
            scale(tv(w=[1.0]), c)
        with pytest.raises(NonFiniteCoefficient):
            WeightedVector(tv(w=[1.0]), c)
    big = float(np.finfo(np.float32).max)
    assert scale(tv(w=[0.5]), big).deltas["w"].to_numpy().tolist() == [np.float32(big / 2)]
    assert WeightedVector(tv(w=[1.0]), -big).coefficient == -big


def test_apply_reconstructs_finetune(rng):
    base, ft = random_checkpoint_pair(rng)
    rebuilt = apply(base, diff(ft, base))
    for name in ft.names():
        a = rebuilt.tensors[name].to_numpy()
        b = ft.tensors[name].to_numpy()
        np.testing.assert_allclose(a, b, rtol=1e-6, atol=1e-6)


def test_apply_zero_vector_bitwise(rng):
    base, _ = random_checkpoint_pair(rng)
    zero = TaskVector.from_arrays(
        {name: np.zeros(t.shape, np.float32) for name, t in base.tensors.items()}
    )
    out = apply(base, zero)
    assert out.tensors == base.tensors


def test_apply_shape_mismatch():
    with pytest.raises(ShapeMismatch) as err:
        apply(ckpt(w=[1.0, 2.0]), tv(w=[1.0, 2.0, 3.0]))
    assert err.value.name == "w"


def test_negate_applied_gives_reflection(rng):
    base, ft = random_checkpoint_pair(rng)
    out = apply(base, negate(diff(ft, base)))
    for name in base.names():
        expect = 2 * base.tensors[name].to_numpy() - ft.tensors[name].to_numpy()
        np.testing.assert_allclose(
            out.tensors[name].to_numpy(), expect, rtol=1e-6, atol=1e-6
        )


def test_merge_zero_lambdas_bitwise(rng):
    base, ft = random_checkpoint_pair(rng)
    v = diff(ft, base)
    out = merge(base, [(v, 0.0), (v, 0.0)])
    assert out.tensors == base.tensors


def test_merge_empty_is_identity(rng):
    base, _ = random_checkpoint_pair(rng)
    out = merge(base, [])
    assert out == base


def test_merge_single_unit_equals_apply(rng):
    base, ft = random_checkpoint_pair(rng)
    v = diff(ft, base)
    assert merge(base, [(v, 1.0)]).tensors == apply(base, v).tensors


def test_merge_uniform_many_vectors(rng):
    base = ckpt(w=np.zeros(4))
    vectors = [tv(w=rng.standard_normal(4)) for _ in range(7)]
    out = merge(base, [(v, 0.8) for v in vectors])
    expect = np.zeros(4, np.float32)
    for v in vectors:
        expect = expect + np.float32(0.8) * v.deltas["w"].to_numpy()
    np.testing.assert_array_equal(out.tensors["w"].to_numpy(), expect)


def test_inject_equals_merge_bitwise(rng):
    sft, ft = random_checkpoint_pair(rng)
    v = diff(ft, sft)
    assert inject(sft, v, 0.4).tensors == merge(sft, [(v, 0.4)]).tensors
    assert inject(sft, v, 0.0).tensors == sft.tensors
    assert inject(sft, v, 1.0).tensors == apply(sft, v).tensors


def test_merge_determinism(rng):
    base, ft = random_checkpoint_pair(rng)
    v = diff(ft, base)
    parts = [(v, 0.3), (v, 0.4)]
    assert merge(base, parts).tensors == merge(base, parts).tensors


def test_lambda_split_consistency(rng):
    base, ft = random_checkpoint_pair(rng)
    v = diff(ft, base)
    one = merge(base, [(v, 0.7)])
    two = merge(merge(base, [(v, 0.3)]), [(v, 0.4)])
    for name in base.names():
        np.testing.assert_allclose(
            one.tensors[name].to_numpy(),
            two.tensors[name].to_numpy(),
            rtol=1e-6,
            atol=1e-6,
        )


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31), lam=st.floats(-2, 2, allow_nan=False))
def test_linearity_property(seed, lam):
    gen = np.random.default_rng(seed)
    a = tv(w=gen.standard_normal(8))
    b = tv(w=gen.standard_normal(8))
    lhs = scale(add(a, b), lam).deltas["w"].to_numpy()
    rhs = add(scale(a, lam), scale(b, lam)).deltas["w"].to_numpy()
    np.testing.assert_allclose(lhs, rhs, rtol=1e-6, atol=1e-6)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_add_commutes_bitwise(seed):
    gen = np.random.default_rng(seed)
    a = tv(w=gen.standard_normal(8))
    b = tv(w=gen.standard_normal(8))
    assert add(a, b).deltas == add(b, a).deltas


def test_norm_and_cosine():
    assert vector_norm(tv(w=np.zeros(5))) == 0.0
    a = tv(w=[3.0, 4.0])
    assert vector_norm(a) == pytest.approx(5.0)
    assert vector_cosine(a, a) == pytest.approx(1.0, abs=1e-6)
    assert vector_cosine(a, negate(a)) == pytest.approx(-1.0, abs=1e-6)
    with pytest.raises(ZeroVector):
        vector_cosine(a, tv(w=np.zeros(2)))


def test_half_precision_upcast_on_entry():
    base = Checkpoint(
        tensors={"w": Tensor.from_numpy(np.array([1.0, 2.0], np.float32), Dtype.F16)}
    )
    task = ckpt(w=[2.0, 4.0])
    d = diff(task, base)
    assert d.deltas["w"].dtype is Dtype.F32
    np.testing.assert_array_equal(d.deltas["w"].to_numpy(), [1.0, 2.0])


def test_task_vector_serialization_roundtrip(tmp_path, rng):
    base, ft = random_checkpoint_pair(rng)
    v = diff(ft, base)
    as_ckpt = v.to_checkpoint()
    assert as_ckpt.metadata["role"] == "task_vector"
    back = TaskVector.from_checkpoint(as_ckpt)
    assert back.deltas == v.deltas


def _unaligned_file(ck, residue):
    """The bytes of a file holding ck's tensors, its header built by hand and
    padded with spaces so that the data region starts at residue mod 4."""
    header, data, cursor = {}, b"", 0
    for name, t in ck.tensors.items():
        header[name] = {"dtype": t.dtype.value, "shape": list(t.shape),
                        "data_offsets": [cursor, cursor + len(t.data)]}
        data += bytes(t.data)
        cursor += len(t.data)
    blob = json.dumps(header).encode()
    blob += b" " * ((residue - 8 - len(blob)) % 4)
    return struct.pack("<Q", len(blob)) + blob + data


@pytest.mark.parametrize("residue", [1, 2, 3])
def test_unaligned_payloads_give_the_bytes_of_copies(rng, residue):
    base, ft = random_checkpoint_pair(rng, n_tensors=4, max_dim=9)
    other = Checkpoint({
        n: Tensor.from_numpy(rng.standard_normal(t.shape).astype(np.float32))
        for n, t in base.tensors.items()
    })
    v_ref = {n: ft.tensors[n].to_numpy() - base.tensors[n].to_numpy() for n in base.names()}

    blobs = [_unaligned_file(c, residue) for c in (base, ft)]
    if residue % 2:
        assert all(struct.unpack("<Q", b[:8])[0] % 2 for b in blobs)  # odd header length
    base_u, ft_u = (parse_checkpoint(b) for b in blobs)
    assert not any(t.f32().flags.aligned for t in base_u.tensors.values())

    v = diff(ft_u, base_u)
    assert {n: bytes(t.data) for n, t in v.deltas.items()} == {
        n: a.tobytes() for n, a in v_ref.items()
    }
    # the vector read back unaligned, folded twice onto an unaligned model
    v_u = TaskVector.from_checkpoint(parse_checkpoint(_unaligned_file(v.to_checkpoint(), residue)))
    model_u = parse_checkpoint(_unaligned_file(other, residue))
    out = merge(model_u, [(v_u, 0.3), (v_u, -1.5)])
    for name, t in out.tensors.items():
        expect = other.tensors[name].to_numpy()
        for lam in (0.3, -1.5):
            expect = expect + np.float32(lam) * v_ref[name]
        assert bytes(t.data) == expect.tobytes()


def test_results_are_read_only_and_sized(rng):
    base, ft = random_checkpoint_pair(rng)
    v = diff(ft, base)
    results = [v, add(v, v), negate(v), scale(v, 0.5),
               TaskVector.from_checkpoint(Checkpoint(
                   {n: Tensor.from_numpy(t.to_numpy(), Dtype.BF16) for n, t in v.deltas.items()}
               ))]
    tensors = [t for r in results for t in r.deltas.values()]
    tensors += merge(base, [(v, 0.5)]).tensors.values()
    for t in tensors:
        assert len(t.data) == t.numel * 4
        with pytest.raises(ValueError, match="read-only"):
            t.f32()[...] = 1.0


def test_merge_folds_a_generator_like_a_list(rng):
    base, ft = random_checkpoint_pair(rng)
    v = diff(ft, base)
    parts = [(v, 0.3), (negate(v), 0.0), (scale(v, 2.0), -0.7)]
    assert merge(base, iter(parts)) == merge(base, parts)
    assert merge(base, iter([])) == base


def test_merge_stops_at_an_incompatible_part_before_drawing_the_next():
    base = ckpt(w=[1.0, 2.0])
    drawn = []

    def parts():
        for vec in (tv(w=[1.0, 1.0]), tv(w=[1.0, 1.0, 1.0]), tv(w=[0.0, 0.0])):
            drawn.append(vec)
            yield vec, 0.5

    with pytest.raises(ShapeMismatch):
        merge(base, parts())
    assert len(drawn) == 2
