"""Self-tests of the benchmark, at a scale that runs in seconds.

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import editcli  # noqa: E402
import protocol  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# the per-layer metrics the benchmark was specified with
NAMED_LAYER_METRICS = """
corpus.gen_s corpus.examples corpus.save_s corpus.bytes_written
features.calls features.rows features.s features.useful_ratio
toymodel.train_calls toymodel.steps toymodel.step_s toymodel.train_self_s toymodel.step_gflop
toymodel.predict_calls toymodel.predict_rows toymodel.predict_self_s
arith.merge_calls arith.merge_s arith.merge_bytes arith.diff_s
ckpt.read_calls ckpt.read_s ckpt.read_bytes ckpt.write_calls ckpt.write_s ckpt.write_bytes
ckpt.codec_bytes metrics.load_s metrics.load_records metrics.evaluate_calls
metrics.evaluate_s metrics.records sweep.lambda_sweep_s sweep.inject_sweep_s sweep.self_s
sweep.emit_s sweep.emit_bytes svg.s cli.commands cli.self_s cli.digest_bytes
trace.overhead_s
""".split()
PROTOCOL_ONLY = {"sweep_points_per_s": "1/s", "train_steps_per_s": "1/s"}
EDIT_ONLY = {"edit_mb_per_s": "MB/s", "eval_records_per_s": "1/s"}


def bench(*argv, cwd=ROOT, timeout=300):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *argv],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def table(lines, workload):
    """name -> unit from the printed table of one workload."""
    out, inside = {}, False
    for line in lines:
        if line.startswith("workload "):
            inside = line.startswith(f"workload {workload}:")
        elif inside and line.startswith("  ") and not line.startswith("  per-layer"):
            parts = line.split()
            if len(parts) >= 3 and not line.startswith("  FAILED"):
                out[parts[0]] = parts[2]
    return out


@pytest.fixture(scope="module")
def untraced():
    return parse(bench("--workload", "all", "--scale", "tiny", "--seconds", "0.5"))


@pytest.fixture(scope="module")
def traced():
    return parse(bench("--workload", "all", "--scale", "tiny", "--seconds", "0.5",
                       "--trace", "1"))


def test_smoke_all_workloads_correct(untraced):
    lines, result = untraced
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 3
    for wl in run.WORKLOADS:
        for name, unit in E2E.items():
            metric = result["metrics"][f"{wl}.{name}"]
            assert metric["unit"] == unit
            assert metric["value"] > 0
    assert any(line.startswith("env ") for line in lines)


def test_every_named_e2e_metric_printed_with_unit(untraced):
    lines, _ = untraced
    common = {**E2E, "failed_frac": "ratio"}
    for wl, extra in (("protocol-paper", PROTOCOL_ONLY), ("protocol-small", PROTOCOL_ONLY),
                      ("edit-cli", EDIT_ONLY)):
        assert table(lines, wl) == {**common, **extra}


def test_single_workload_prints_exactly_the_contract_metrics():
    _, result = parse(bench("--workload", "edit-cli", "--scale", "tiny", "--seconds", "0.2"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == E2E


def test_traced_run_reports_every_layer_metric(traced):
    lines, result = traced
    assert result["correct"] is True
    for wl in run.WORKLOADS:
        got = {k.split(".", 1)[1]: v for k, v in result["metrics"].items()
               if k.startswith(wl + ".")}
        assert {k: v["unit"] for k, v in got.items()} == PER_LAYER
    assert set(NAMED_LAYER_METRICS) <= set(PER_LAYER)
    edit = table(lines, "edit-cli")
    assert "trace.overhead_s" in edit and "trace.untraced_wall_s" in edit


def test_traced_self_times_nonnegative_and_add_up(traced):
    _, result = traced
    for wl in run.WORKLOADS:
        m = {k.split(".", 1)[1]: v["value"] for k, v in result["metrics"].items()
             if k.startswith(wl + ".")}
        assert all(m[name] >= 0 for name in spans.SELF_TIME_METRICS)
        total = math.fsum(m[name] for name in spans.SELF_TIME_METRICS)
        assert total == pytest.approx(m["trace.wall_s"], rel=1e-9)
        with open(run.WORK / "spans" / f"{wl}-seed13.jsonl", encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        assert records and min(r["self_s"] for r in records) >= -1e-12
        roots = [r for r in records if r["parent"] is None]
        assert all(r["name"] == spans.ROOT_SPAN for r in roots)


def test_protocol_layers_see_calls_made_inside_the_package(traced):
    _, result = traced
    m = {k: v["value"] for k, v in result["metrics"].items()}
    # featurize_all is only ever called from inside toymodel
    assert m["protocol-small.features.calls"] > 0
    assert m["protocol-small.toymodel.steps"] > 0
    # read_checkpoint is only ever called from inside cli
    assert m["edit-cli.ckpt.read_calls"] > 0
    assert m["edit-cli.cli.digest_bytes"] > 0
    assert m["edit-cli.features.calls"] == 0


def test_tracer_restores_every_patched_function():
    import fairvec.cli
    import fairvec.toymodel
    from fairvec.ckpt import Tensor

    before = (fairvec.toymodel.featurize_all, fairvec.cli.read_checkpoint,
              Tensor.__dict__["from_numpy"], Tensor.__dict__["to_numpy"])
    tracer = spans.Tracer()
    tracer.install()
    assert fairvec.cli.read_checkpoint is not before[1]
    tracer.uninstall()
    after = (fairvec.toymodel.featurize_all, fairvec.cli.read_checkpoint,
             Tensor.__dict__["from_numpy"], Tensor.__dict__["to_numpy"])
    assert after == before


def test_protocol_run_matches_run_pipeline(tmp_path):
    sc = protocol.TINY
    script = tmp_path / "script"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("FAIRVEC_THREADS", None)
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_pipeline.py"), "--out", str(script),
         "--seeds", "13", "--total", str(sc.total), "--dim", str(sc.dim),
         "--hidden", str(sc.hidden), "--epochs", str(sc.epochs)],
        check=True, env=env, capture_output=True, timeout=300,
    )
    ours = tmp_path / "ours"
    protocol.run_protocol(protocol.make_inputs(13, sc, ours), ours)

    def files(root):
        return {p.relative_to(root).as_posix(): p.read_bytes()
                for p in root.rglob("*") if p.is_file()}

    got, want = files(ours), files(script)
    assert "merge_sweep/result.json" in want and "inject_sweep/result.json" in want
    assert got == want


def test_edit_checks_catch_wrong_outputs(tmp_path):
    inp = editcli.make_inputs(5, editcli.TINY, tmp_path / "in")
    out = tmp_path / "out"
    stats = editcli.run_edit(inp, out)
    assert stats["failed_ops"] == 0 and stats["ops"] == 10
    assert editcli.check(inp, out) == []

    merged = out / "merged.ckpt"
    blob = bytearray(merged.read_bytes())
    blob[-1] ^= 1  # flip one bit of the last tensor's payload
    merged.write_bytes(bytes(blob))
    assert {path for path, _ in editcli.check(inp, out)} == {"merged.ckpt"}

    report = json.loads((out / "report.json").read_text())
    report["rows"][0]["n"] += 1
    (out / "report.json").write_text(json.dumps(report))
    assert {path for path, _ in editcli.check(inp, out)} == {"merged.ckpt", "report.json"}


def test_inputs_depend_only_on_the_seed(tmp_path):
    a = editcli.make_inputs(3, editcli.TINY, tmp_path / "a")
    b = editcli.make_inputs(3, editcli.TINY, tmp_path / "b")
    c = editcli.make_inputs(4, editcli.TINY, tmp_path / "c")
    for x, y in zip([a.base, *a.tasks, a.preds], [b.base, *b.tasks, b.preds]):
        assert x.read_bytes() == y.read_bytes()
    assert a.preds.read_bytes() != c.preds.read_bytes()
    assert protocol.make_inputs(13, protocol.PAPER, tmp_path).seeds == [13, 14, 15]


def test_digest_mismatch_is_reported():
    assert run.diff_digests({"a": "1", "b": "2"}, {"a": "1", "b": "3", "c": "4"}, "x") == [
        ("b", "x"), ("c", "x")]
    assert run.diff_digests({"a": "1"}, {"a": "1"}, "x") == []
    assert run.describe([("f", "r1"), ("f", "r2"), ("g", "r3")]) == ["f: r1 (+1 more)", "g: r3"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "edit-cli", "--seconds", "1", cwd=tmp_path, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
