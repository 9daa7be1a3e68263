import json
import os
import stat

import pytest

from conftest import random_records
from fairvec.atomic import atomic_open
from fairvec.ckpt import write_checkpoint
from fairvec.corpus import CorpusSpec, gen_corpus, save_corpus
from fairvec.errors import IoFailure
from fairvec.metrics import evaluate, write_jsonl
from fairvec.sweep import SweepConfig, SweepResult, SweepRow, emit
from fairvec.toymodel import init_model


def temp_files(directory):
    return sorted(p.name for p in directory.iterdir() if p.name.endswith(".tmp"))


def small_result(rng):
    report = evaluate(random_records(rng, 20), "attr")
    cfg = SweepConfig(grid=[0.0], seeds=[1], attribute="attr")
    return SweepResult(config=cfg, rows=[SweepRow(0.0, 1, report)])


def test_failed_write_keeps_target_and_leaves_no_temp(tmp_path):
    target = tmp_path / "out.txt"
    target.write_text("old")
    with pytest.raises(RuntimeError):
        with atomic_open(target) as fh:
            fh.write("new")
            raise RuntimeError("interrupted")
    assert target.read_text() == "old"
    assert temp_files(tmp_path) == []


def test_failed_replace_leaves_no_temp(tmp_path, rng):
    (tmp_path / "out.ckpt").mkdir()
    with pytest.raises(IoFailure):
        write_checkpoint(init_model(4, 2).to_checkpoint(), tmp_path / "out.ckpt")
    (tmp_path / "run" / "result.json").mkdir(parents=True)
    with pytest.raises(IoFailure):
        emit(small_result(rng), tmp_path / "run")
    assert temp_files(tmp_path) == [] and temp_files(tmp_path / "run") == []


def test_emit_ignores_a_directory_named_like_a_temp_file(tmp_path, rng):
    (tmp_path / "result.json.tmp").mkdir()
    written = emit(small_result(rng), tmp_path)
    assert [os.path.basename(p) for p in written] == [
        "result.json", "result.csv", "acc.svg", "dpd.svg", "eod.svg", "manifest.json"
    ]
    assert json.loads((tmp_path / "result.json").read_text())["rows"]
    assert temp_files(tmp_path) == ["result.json.tmp"]


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_outputs_get_the_mode_open_gives(tmp_path, rng, umask):
    old = os.umask(umask)
    try:
        write_checkpoint(init_model(4, 2).to_checkpoint(), tmp_path / "m.ckpt")
        emit(small_result(rng), tmp_path / "run")
        spec = CorpusSpec(attribute="g", proportions={"A": 0.5, "B": 0.5}, total=20)
        save_corpus(spec, *gen_corpus(spec), tmp_path / "data")
        write_jsonl((vars(r) for r in random_records(rng, 3)), tmp_path / "preds.jsonl")
        with open(tmp_path / "plain.txt", "w") as fh:
            fh.write("x")
    finally:
        os.umask(old)
    expected = 0o666 & ~umask
    assert stat.S_IMODE((tmp_path / "plain.txt").stat().st_mode) == expected
    for path in ("m.ckpt", "run/result.json", "data/train.jsonl", "data/spec.json",
                 "preds.jsonl"):
        assert stat.S_IMODE((tmp_path / path).stat().st_mode) == expected, path
