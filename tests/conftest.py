import ctypes
import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fairvec.ckpt import Checkpoint, Dtype, Tensor
from fairvec.metrics import PredictionRecord


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(args, cwd=None, **kw):
    """Run `python -m fairvec.cli` with this checkout's src importable from any
    cwd; kw goes to subprocess.run. A RuntimeWarning in the child is an
    error, so a numpy warning shows as a traceback on stderr, which the
    tests' stderr checks reject."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env["PYTHONWARNINGS"] = "error::RuntimeWarning"
    return subprocess.run(
        [sys.executable, "-m", "fairvec.cli", *args],
        cwd=cwd, env=env, capture_output=True, text=True, **kw,
    )


@functools.cache
def blas_kernel() -> str | None:
    """The kernel name numpy's bundled OpenBLAS runs with ("SkylakeX",
    "Haswell", ...; OPENBLAS_CORETYPE overrides the CPU's pick), or None
    when it cannot be read. numpy 1.24's wheels name the getter without the
    scipy_ prefix."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        for getter in ("scipy_openblas_get_corename64_", "openblas_get_corename64_"):
            try:
                fn = getattr(ctypes.CDLL(str(lib)), getter)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_char_p
            return fn().decode()
    return None


def measured_on(*kernels: str) -> bool:
    """Whether an assertion on the layout kind _layout or SplitScorer picks,
    a property of the BLAS kernel, applies here: the running kernel is one
    of the kernels it was measured on, or cannot be read."""
    kernel = blas_kernel()
    return kernel is None or kernel in kernels


def random_checkpoint(rng, max_tensors=3, max_dim=4, dtypes=(Dtype.F32,), with_meta=True):
    names = [f"t{i}" for i in range(rng.integers(0, max_tensors + 1))]
    tensors = {}
    for name in names:
        ndim = int(rng.integers(0, 3))
        shape = tuple(int(rng.integers(1, max_dim + 1)) for _ in range(ndim))
        arr = rng.standard_normal(shape).astype(np.float32)
        dtype = dtypes[int(rng.integers(len(dtypes)))]
        tensors[name] = Tensor.from_numpy(arr, dtype)
    meta = {}
    if with_meta and rng.random() < 0.5:
        meta = {"seed": str(int(rng.integers(100)))}
    return Checkpoint(tensors=tensors, metadata=meta)


def random_checkpoint_pair(rng, n_tensors=3, max_dim=5):
    """Two checkpoints over the same names and shapes."""
    a, b = {}, {}
    for i in range(n_tensors):
        ndim = int(rng.integers(0, 3))
        shape = tuple(int(rng.integers(1, max_dim + 1)) for _ in range(ndim))
        a[f"t{i}"] = Tensor.from_numpy(rng.standard_normal(shape).astype(np.float32))
        b[f"t{i}"] = Tensor.from_numpy(rng.standard_normal(shape).astype(np.float32))
    return Checkpoint(tensors=a), Checkpoint(tensors=b)


def random_records(rng, n, groups=("A", "B"), attribute="attr"):
    return [
        PredictionRecord(
            id=f"r{i}",
            y_true=int(rng.integers(2)),
            score=float(rng.random()),
            y_pred=int(rng.integers(2)),
            groups={attribute: groups[int(rng.integers(len(groups)))]},
        )
        for i in range(n)
    ]


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
