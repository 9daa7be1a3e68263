import json
import struct
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fairvec.ckpt import (
    Checkpoint,
    Dtype,
    Tensor,
    parse_checkpoint,
    read_checkpoint,
    tensor_names,
    write_checkpoint,
)
from fairvec.errors import (
    CheckpointError,
    MalformedHeader,
    OverlappingOffsets,
    TruncatedData,
    UnsupportedDtype,
)

from conftest import random_checkpoint


def build_file(header: dict, data: bytes) -> bytes:
    blob = json.dumps(header, separators=(",", ":")).encode()
    return struct.pack("<Q", len(blob)) + blob + data


def test_read_single_tensor(tmp_path):
    data = np.array([1, 2, 3, 4], dtype="<f4").tobytes()
    raw = build_file(
        {"w": {"dtype": "F32", "shape": [2, 2], "data_offsets": [0, 16]}}, data
    )
    path = tmp_path / "a.ckpt"
    path.write_bytes(raw)
    ckpt = read_checkpoint(path)
    assert ckpt.names() == ["w"]
    t = ckpt.tensors["w"]
    assert t.dtype is Dtype.F32 and t.shape == (2, 2)
    np.testing.assert_array_equal(t.to_numpy(), [[1, 2], [3, 4]])


def test_read_empty_with_metadata(tmp_path):
    raw = build_file({"__metadata__": {"seed": "13"}}, b"")
    path = tmp_path / "meta.ckpt"
    path.write_bytes(raw)
    ckpt = read_checkpoint(path)
    assert ckpt.tensors == {} and ckpt.metadata == {"seed": "13"}


def test_truncated_by_one_byte(tmp_path):
    ckpt = Checkpoint(
        tensors={"w": Tensor.from_numpy(np.ones((3,), np.float32))}
    )
    path = tmp_path / "full.ckpt"
    write_checkpoint(ckpt, path)
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(TruncatedData):
        read_checkpoint(cut)


def test_overlapping_offsets(tmp_path):
    data = np.zeros(8, dtype="<f4").tobytes()
    raw = build_file(
        {
            "a": {"dtype": "F32", "shape": [4], "data_offsets": [0, 16]},
            "b": {"dtype": "F32", "shape": [4], "data_offsets": [8, 24]},
        },
        data,
    )
    path = tmp_path / "ovl.ckpt"
    path.write_bytes(raw)
    with pytest.raises(OverlappingOffsets):
        read_checkpoint(path)


def test_gap_between_offsets(tmp_path):
    data = np.zeros(9, dtype="<f4").tobytes()
    raw = build_file(
        {
            "a": {"dtype": "F32", "shape": [4], "data_offsets": [0, 16]},
            "b": {"dtype": "F32", "shape": [4], "data_offsets": [20, 36]},
        },
        data,
    )
    path = tmp_path / "gap.ckpt"
    path.write_bytes(raw)
    with pytest.raises(MalformedHeader):
        read_checkpoint(path)


def test_unsupported_dtype(tmp_path):
    raw = build_file(
        {"w": {"dtype": "I8", "shape": [4], "data_offsets": [0, 4]}}, b"\0" * 4
    )
    path = tmp_path / "dtype.ckpt"
    path.write_bytes(raw)
    with pytest.raises(UnsupportedDtype):
        read_checkpoint(path)


@pytest.mark.parametrize(
    "raw",
    [
        b"",
        b"\x01\x02\x03",
        struct.pack("<Q", 1 << 40),
        struct.pack("<Q", 4) + b"nope",
        struct.pack("<Q", 2) + b"[]",
    ],
)
def test_malformed_prefixes(tmp_path, raw):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(raw)
    with pytest.raises(MalformedHeader):
        read_checkpoint(path)


F32_ENTRY = {"dtype": "F32", "shape": [1], "data_offsets": [0, 4]}


@pytest.mark.parametrize(
    "header, data, reason",
    [
        ({"__metadata__": {"seed": 13}, "w": F32_ENTRY}, b"\0" * 4,
         "__metadata__ must map strings to strings"),
        ({"": F32_ENTRY}, b"\0" * 4, "empty tensor name"),
        ({"w": {**F32_ENTRY, "shape": [-1]}}, b"", "bad shape for tensor 'w': [-1]"),
        ({"w": {**F32_ENTRY, "shape": [1.0]}}, b"\0" * 4, "bad shape for tensor 'w'"),
        ({"w": {**F32_ENTRY, "shape": [True]}}, b"\0" * 4, "bad shape for tensor 'w'"),
        ({"w": {**F32_ENTRY, "shape": "1"}}, b"\0" * 4, "bad shape for tensor 'w'"),
        ({"w": {**F32_ENTRY, "data_offsets": [0]}}, b"\0" * 4,
         "bad data_offsets for tensor 'w': [0]"),
        ({"w": {**F32_ENTRY, "data_offsets": [4, 0]}}, b"\0" * 4, "bad data_offsets"),
        ({"w": {**F32_ENTRY, "data_offsets": [-4, 0]}}, b"\0" * 4, "bad data_offsets"),
        ({"w": {**F32_ENTRY, "data_offsets": [0, True]}}, b"\0" * 4, "bad data_offsets"),
        ({"w": {**F32_ENTRY, "data_offsets": [0, 4.0]}}, b"\0" * 4, "bad data_offsets"),
        ({"w": F32_ENTRY}, b"\0" * 7, "3 trailing bytes beyond declared offsets"),
    ],
)
def test_malformed_header_fields(header, data, reason):
    """Each header check of parse_checkpoint raises MalformedHeader naming
    what is wrong."""
    with pytest.raises(MalformedHeader) as exc:
        parse_checkpoint(build_file(header, data))
    assert reason in str(exc.value)


def test_reserved_and_empty_names_rejected():
    t = Tensor.from_numpy(np.zeros(1, np.float32))
    with pytest.raises(ValueError):
        Checkpoint(tensors={"__metadata__": t})
    with pytest.raises(ValueError):
        Checkpoint(tensors={"": t})


def test_tensor_invariants():
    with pytest.raises(ValueError):
        Tensor(Dtype.F32, (2, 2), b"\0" * 8)  # 16 bytes required
    with pytest.raises(ValueError):
        Tensor(Dtype.F32, (-1,), b"")
    scalar = Tensor(Dtype.F32, (), np.float32(3.5).tobytes())
    assert scalar.numel == 1 and float(scalar.to_numpy()) == 3.5


def _three_dtypes(tmp_path, arr):
    """arr as an F32, an F16 and a BF16 tensor, each read back from a file."""
    path = tmp_path / "three.ckpt"
    tensors = {d.value: Tensor.from_numpy(arr, d) for d in Dtype}
    write_checkpoint(Checkpoint(tensors=tensors), path)
    return read_checkpoint(path).tensors


def test_f32_is_a_read_only_view(tmp_path):
    arr = np.array([[0.5, -0.0, 3.0], [1.25, -2.0, 8.0]], np.float32)
    read = _three_dtypes(tmp_path, arr)
    for t in (*read.values(), Tensor.from_numpy(arr)):
        view = t.f32()
        assert view.dtype == np.float32 and view.shape == (2, 3)
        assert view.tobytes() == arr.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            view[0, 0] = 7.0
    for t in (read["F32"], Tensor.from_numpy(arr)):  # F32 reads copy nothing
        assert np.shares_memory(t.f32(), np.frombuffer(t.data, np.uint8))


def test_to_numpy_is_a_writable_copy(tmp_path):
    arr = np.array([0.5, -1.25, 3.0], np.float32)
    for t in _three_dtypes(tmp_path, arr).values():
        payload = bytes(t.data)
        out = t.to_numpy()
        assert out.flags.writeable
        out[:] = 7.0
        assert bytes(t.data) == payload
        assert t.f32().tobytes() == arr.tobytes()


def test_from_numpy_copies_its_input():
    arr = np.array([0.5, -1.25, 3.0], np.float32)
    tensors = [Tensor.from_numpy(arr, d) for d in Dtype]
    payloads = [bytes(t.data) for t in tensors]
    arr[:] = 9.0
    assert [bytes(t.data) for t in tensors] == payloads


@pytest.mark.parametrize("dtype", list(Dtype))
@pytest.mark.parametrize("source", [np.float32, np.float64])
@pytest.mark.parametrize("layout", ["transposed", "strided", "fortran"])
def test_from_numpy_of_a_non_contiguous_array(dtype, source, layout):
    """A transposed, strided or Fortran-order array encodes to the bytes of
    its C-contiguous copy."""
    a = np.random.default_rng(3).standard_normal((6, 10)).astype(source)
    arr = {"transposed": a.T, "strided": a[::2, 1::3], "fortran": np.asfortranarray(a)}[layout]
    assert not arr.flags["C_CONTIGUOUS"]
    got, want = Tensor.from_numpy(arr, dtype), Tensor.from_numpy(np.ascontiguousarray(arr), dtype)
    assert got.shape == want.shape == arr.shape
    assert bytes(got.data) == bytes(want.data)


def test_len_of_data_is_the_payload_size(tmp_path):
    arr = np.zeros((3, 5), np.float32)
    for t in _three_dtypes(tmp_path, arr).values():
        assert len(t.data) == t.numel * t.dtype.itemsize


def test_tensor_names_sorted():
    t = Tensor.from_numpy(np.zeros(1, np.float32))
    ckpt = Checkpoint(tensors={"b": t, "a": t})
    assert tensor_names(ckpt) == ["a", "b"]
    assert tensor_names(Checkpoint()) == []


def test_half_precision_preserved(tmp_path):
    arr = np.array([0.5, -1.25, 3.0], np.float32)
    ckpt = Checkpoint(
        tensors={
            "h": Tensor.from_numpy(arr, Dtype.F16),
            "b": Tensor.from_numpy(arr, Dtype.BF16),
        }
    )
    path = tmp_path / "half.ckpt"
    write_checkpoint(ckpt, path)
    back = read_checkpoint(path)
    assert back.tensors["h"].dtype is Dtype.F16
    assert back.tensors["b"].dtype is Dtype.BF16
    assert back == ckpt
    # these values are exactly representable in both half formats
    np.testing.assert_array_equal(back.tensors["h"].to_numpy(), arr)
    np.testing.assert_array_equal(back.tensors["b"].to_numpy(), arr)


def test_half_precision_nan_and_overflow(tmp_path):
    """A NaN encodes as a NaN of its sign in BF16 (the rounding add would
    carry its mantissa into the exponent or sign), a value beyond F16's range
    as inf with no warning, and every other BF16 value keeps its
    round-to-nearest-even bits."""
    bits = np.array([0x7FFFFFFF, 0xFFFFFFFF, 0x7F800001, 0x7F800000, 0xFF800000,
                     0x7F7FFFFF, 0x3F808000, 0x3F818000, 0x00000001], np.uint32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        read = _three_dtypes(tmp_path, bits.view(np.float32))
        f16 = _three_dtypes(tmp_path, np.float32([1e5, -1e5]))["F16"]
    assert np.frombuffer(read["BF16"].data, "<u2").tolist() == [
        0x7FFF, 0xFFFF, 0x7FC0, 0x7F80, 0xFF80, 0x7F80, 0x3F80, 0x3F82, 0x0000,
    ]
    assert np.isnan(read["BF16"].to_numpy()[:3]).all()
    assert np.isnan(read["F16"].to_numpy()[:3]).all()
    assert read["F32"].f32().tobytes() == bits.tobytes()
    assert f16.to_numpy().tolist() == [np.inf, -np.inf]


def test_write_determinism(tmp_path, rng):
    ckpt = random_checkpoint(rng, dtypes=tuple(Dtype))
    p1, p2 = tmp_path / "one.ckpt", tmp_path / "two.ckpt"
    write_checkpoint(ckpt, p1)
    write_checkpoint(ckpt, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_roundtrip_many(tmp_path, rng):
    path = tmp_path / "rt.ckpt"
    for _ in range(200):
        ckpt = random_checkpoint(rng, dtypes=tuple(Dtype))
        write_checkpoint(ckpt, path)
        assert read_checkpoint(path) == ckpt


@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    names=st.lists(
        st.text(
            alphabet=st.characters(min_codepoint=33, max_codepoint=126),
            min_size=1,
            max_size=8,
        ).filter(lambda s: s != "__metadata__"),
        unique=True,
        max_size=4,
    ),
    seed=st.integers(0, 2**31),
)
def test_roundtrip_property(tmp_path, names, seed):
    gen = np.random.default_rng(seed)
    tensors = {
        name: Tensor.from_numpy(
            gen.standard_normal(int(gen.integers(0, 5))).astype(np.float32)
        )
        for name in names
    }
    ckpt = Checkpoint(tensors=tensors, metadata={"k": "v"})
    path = tmp_path / "prop.ckpt"
    write_checkpoint(ckpt, path)
    assert read_checkpoint(path) == ckpt


def test_fuzz_never_crashes(tmp_path, rng):
    base = tmp_path / "seed.ckpt"
    write_checkpoint(
        Checkpoint(
            tensors={"w": Tensor.from_numpy(np.ones((2, 3), np.float32))},
            metadata={"s": "1"},
        ),
        base,
    )
    template = bytearray(base.read_bytes())
    path = tmp_path / "fuzz.ckpt"
    for _ in range(500):
        blob = bytearray(template)
        for _ in range(int(rng.integers(1, 6))):
            blob[int(rng.integers(len(blob)))] = int(rng.integers(256))
        if rng.random() < 0.3:
            blob = blob[: int(rng.integers(len(blob) + 1))]
        path.write_bytes(bytes(blob))
        try:
            read_checkpoint(path)
        except CheckpointError:
            pass
