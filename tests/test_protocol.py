"""fairvec.protocol.run and the script that prints its result."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import SRC
from fairvec import metrics, protocol, sweep, toymodel

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_pipeline.py"
GROUPS = ["Men", "Non-binary", "Other", "Trans men", "Trans unspecified",
          "Trans women", "Women"]
SWEEP_FILES = ["acc.svg", "dpd.svg", "eod.svg", "manifest.json", "result.csv",
               "result.json"]
TINY = dict(total=700, dim=32, hidden=4, epochs=1)


def tree(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("seeds", [[], [13, 13]])
def test_bad_seeds_fail_before_any_work(tmp_path, seeds):
    with pytest.raises(ValueError, match="seeds must be"):
        protocol.run(tmp_path / "runs", seeds, total=700, dim=32, hidden=4, epochs=1)
    assert not (tmp_path / "runs").exists()


def test_seeds_may_be_an_iterator(tmp_path):
    """The seed list is read once, so an iterator of seeds runs as its list."""
    protocol.run(tmp_path / "list", [13], **TINY)
    protocol.run(tmp_path / "iter", iter([13]), **TINY)
    assert tree(tmp_path / "iter") == tree(tmp_path / "list")


def test_one_reporter_per_seed(tmp_path, monkeypatch):
    """Each seed's train split gets one SplitScorer and one GroupColumns,
    which give the fft report and both grids; predict and evaluate are
    not called."""
    calls = {"scorer": 0, "columns": 0}

    class CountedScorer(toymodel.SplitScorer):
        def __init__(self, *args):
            calls["scorer"] += 1
            super().__init__(*args)

    columns_of = metrics.GroupColumns.of.__func__

    def counted_of(cls, *args):
        calls["columns"] += 1
        return columns_of(cls, *args)

    def forbidden(*args, **kw):
        raise AssertionError("protocol.run scores through its split reporter only")

    monkeypatch.setattr(toymodel, "SplitScorer", CountedScorer)
    monkeypatch.setattr(metrics.GroupColumns, "of", classmethod(counted_of))
    monkeypatch.setattr(toymodel, "predict", forbidden)
    monkeypatch.setattr(metrics, "evaluate", forbidden)
    protocol.run(tmp_path / "runs", [13, 14], **TINY)
    assert calls == {"scorer": 2, "columns": 2}


@pytest.mark.byte_identity
def test_results_equal_the_sweep_drivers(tmp_path):
    """Across two seeds, the protocol's grid-major results are the sweep
    drivers' on the same bases, vectors and train splits, and each seed's
    fft report is evaluate(predict(fft, train))."""
    res = protocol.run(tmp_path / "runs", [13, 14], **TINY)
    runs = res.seeds
    trains = {s: r.train for s, r in runs.items()}
    merge_cfg, inject_cfg = (
        sweep.SweepConfig(grid=grid, seeds=[13, 14], attribute=protocol.ATTRIBUTE)
        for grid in (sweep.MERGE_GRID, sweep.INJECT_GRID)
    )
    merge = sweep.lambda_sweep(
        {s: r.base for s, r in runs.items()},
        {s: list(r.vectors.values()) for s, r in runs.items()}, merge_cfg, trains,
    )
    inject = sweep.inject_sweep(
        {s: r.fft for s, r in runs.items()},
        {s: r.vectors[r.worst[0]] for s, r in runs.items()}, inject_cfg, trains,
    )
    assert res.merge.to_dict() == merge.to_dict()
    assert res.inject.to_dict() == inject.to_dict()
    for r in runs.values():
        assert r.report == metrics.evaluate(toymodel.predict(r.fft, r.train), protocol.ATTRIBUTE)


def test_run_pipeline_script(tmp_path):
    """One seed at a tiny scale, run as a user runs it: the tree it writes
    and the lines it prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    out = tmp_path / "runs"
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--out", str(out), "--seeds", "13",
         "--total", "700", "--dim", "32", "--hidden", "4", "--epochs", "1"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr

    files = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
    assert files == sorted(
        [f"seed13/data/{n}" for n in ("spec.json", "test.jsonl", "train.jsonl")]
        + ["seed13/base.ckpt", "seed13/fft.ckpt"]
        + [f"seed13/vec_{g}.ckpt" for g in GROUPS]
        + [f"{d}/{n}" for d in ("merge_sweep", "inject_sweep") for n in SWEEP_FILES]
    )
    assert len(files) == 24

    num = r"\d+\.\d{4}"
    group = "|".join(re.escape(g) for g in GROUPS)
    patterns = [
        re.escape("[seed 13] corpus: 560 train / 140 test"),
        rf"\[seed 13\] full fine-tune macro accuracy {num}",
        rf"merge sweep: lambda\*=\d\.\d macro accuracy {num} \+/- {num}",
        rf"\[seed 13\] worst subgroups: ({group}), ({group})",
        rf"inject sweep: best mean EOD {num} across grid",
        rf"done in \d+\.\ds -> {re.escape(str(out))}/",
    ]
    lines = proc.stdout.splitlines()
    assert len(lines) == len(patterns), proc.stdout
    for line, pattern in zip(lines, patterns):
        assert re.fullmatch(pattern, line), (line, pattern)
