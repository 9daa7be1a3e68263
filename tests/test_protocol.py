"""fairvec.protocol.run and the script that prints its result."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import SRC
from fairvec import protocol

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_pipeline.py"
GROUPS = ["Men", "Non-binary", "Other", "Trans men", "Trans unspecified",
          "Trans women", "Women"]
SWEEP_FILES = ["acc.svg", "dpd.svg", "eod.svg", "manifest.json", "result.csv",
               "result.json"]


@pytest.mark.parametrize("seeds", [[], [13, 13]])
def test_bad_seeds_fail_before_any_work(tmp_path, seeds):
    with pytest.raises(ValueError, match="seeds must be"):
        protocol.run(tmp_path / "runs", seeds, total=700, dim=32, hidden=4, epochs=1)
    assert not (tmp_path / "runs").exists()


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
