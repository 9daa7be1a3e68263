import hashlib
import json
import shutil
import threading
from pathlib import Path

import pytest

from conftest import run_cli
from fairvec import TaskVector, read_checkpoint
from fairvec.cli import build_parser, main

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Corpus, base init, one subgroup vector, and an FFT checkpoint."""
    wd = tmp_path_factory.mktemp("cli")
    spec = {
        "attribute": "g",
        "proportions": {"A": 0.5, "B": 0.5},
        "total": 200,
        "seed": 13,
    }
    (wd / "spec.json").write_text(json.dumps(spec))
    common = ["--dim", "128", "--hidden", "8", "--seed", "13"]
    steps = [
        ["gen-data", "--spec", "spec.json", "-o", "data"],
        ["train-toy", "--data", "data", *common, "--init-only", "-o", "base.ckpt"],
        ["train-toy", "--data", "data", *common, "--epochs", "10", "-o", "fft.ckpt"],
        ["train-toy", "--data", "data", *common, "--epochs", "10", "--group", "A",
         "-o", "subA.ckpt"],
        ["diff", "subA.ckpt", "base.ckpt", "-o", "vA.ckpt"],
    ]
    for step in steps:
        proc = run_cli(step, wd)
        assert proc.returncode == 0, proc.stderr
    return wd


def test_merge_zero_lambda_roundtrip(workdir):
    assert run_cli(
        ["merge", "base.ckpt", "--vec", "vA.ckpt:0.0", "-o", "m0.ckpt"], workdir
    ).returncode == 0
    assert run_cli(
        ["diff", "m0.ckpt", "base.ckpt", "-o", "zero.ckpt"], workdir
    ).returncode == 0
    z = TaskVector.from_checkpoint(read_checkpoint(workdir / "zero.ckpt"))
    assert all(not t.to_numpy().any() for t in z.deltas.values())


def test_inject_and_apply(workdir):
    assert run_cli(
        ["inject", "fft.ckpt", "vA.ckpt", "--lambda", "0.4", "-o", "inj.ckpt"],
        workdir,
    ).returncode == 0
    assert run_cli(
        ["apply", "base.ckpt", "vA.ckpt", "--lambda", "1.0", "-o", "applied.ckpt"],
        workdir,
    ).returncode == 0
    assert (workdir / "inj.ckpt.manifest.json").exists()


def write_hand_built_preds(path):
    """The two-group counting fixture: rates 0.75 vs 0.25 -> DPD 0.5."""
    lines = (
        [{"id": f"a{i}", "y_true": 0, "score": 0.9, "y_pred": 1, "groups": {"g": "A"}}
         for i in range(3)]
        + [{"id": "a3", "y_true": 0, "score": 0.1, "y_pred": 0, "groups": {"g": "A"}}]
        + [{"id": "b0", "y_true": 0, "score": 0.9, "y_pred": 1, "groups": {"g": "B"}}]
        + [{"id": f"b{i}", "y_true": 0, "score": 0.1, "y_pred": 0, "groups": {"g": "B"}}
           for i in range(1, 4)]
    )
    path.write_text("\n".join(json.dumps(x) for x in lines) + "\n")


def test_eval_hand_built(workdir):
    write_hand_built_preds(workdir / "hand.jsonl")
    proc = run_cli(["eval", "--preds", "hand.jsonl", "--attribute", "g"], workdir)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["overall"]["overall_dpd"] == 0.5


def test_eval_outputs_ignore_directories_named_like_temp_files(tmp_path):
    write_hand_built_preds(tmp_path / "hand.jsonl")
    for name in ("report.json.tmp", "report.csv.tmp", "report.json.manifest.json.tmp"):
        (tmp_path / name).mkdir()
    proc = run_cli(
        ["eval", "--preds", "hand.jsonl", "--attribute", "g",
         "--output", "report.json", "--csv", "report.csv"],
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["overall"]["overall_dpd"] == 0.5
    assert (tmp_path / "report.csv").read_text().startswith("group,")
    assert (tmp_path / "report.json.manifest.json").exists()


def test_unknown_flag_exit_2_no_files(workdir):
    proc = run_cli(
        ["merge", "base.ckpt", "--bogus", "x", "-o", "never.ckpt"], workdir
    )
    assert proc.returncode == 2
    assert "usage" in proc.stderr
    assert not (workdir / "never.ckpt").exists()


def test_missing_file_exit_2(workdir):
    proc = run_cli(["diff", "absent.ckpt", "base.ckpt", "-o", "x.ckpt"], workdir)
    assert proc.returncode == 2
    assert not (workdir / "x.ckpt").exists()


def test_runtime_error_exit_1(workdir):
    # incompatible shapes: diff of a model against a vector works (same names),
    # so use a checkpoint with different tensor names
    proc = run_cli(["diff", "hand.jsonl", "base.ckpt", "-o", "x.ckpt"], workdir)
    assert proc.returncode == 1
    assert not (workdir / "x.ckpt").exists()


def test_bad_vec_syntax_exit_2(workdir):
    proc = run_cli(["merge", "base.ckpt", "--vec", "novalue", "-o", "x.ckpt"], workdir)
    assert proc.returncode == 2


def test_idempotent_reruns(workdir):
    for out in ("rerun1.ckpt", "rerun2.ckpt"):
        assert run_cli(
            ["merge", "base.ckpt", "--vec", "vA.ckpt:0.3", "-o", out], workdir
        ).returncode == 0
    a = (workdir / "rerun1.ckpt").read_bytes()
    b = (workdir / "rerun2.ckpt").read_bytes()
    assert a == b
    m1 = json.loads((workdir / "rerun1.ckpt.manifest.json").read_text())
    m2 = json.loads((workdir / "rerun2.ckpt.manifest.json").read_text())
    m1.pop("duration_s"), m2.pop("duration_s")
    assert m1 == m2


def test_sweep_cli(workdir):
    cfg = {
        "mode": "merge",
        "grid": [0.0, 0.5, 1.0],
        "seeds": [13],
        "attribute": "g",
        "data_dir": "data",
        "runs": {"13": {"base": "base.ckpt", "vectors": ["vA.ckpt"]}},
    }
    (workdir / "sweep.json").write_text(json.dumps(cfg))
    proc = run_cli(["sweep", "--config", "sweep.json", "-o", "run"], workdir)
    assert proc.returncode == 0, proc.stderr
    assert "selected_lambda" in proc.stdout
    for name in ("result.json", "result.csv", "acc.svg", "dpd.svg", "eod.svg",
                 "manifest.json"):
        assert (workdir / "run" / name).exists()


@pytest.mark.parametrize(
    "change, reason",
    [
        ({"criterion": "bogus"}, "criterion must be one of"),
        ({"threshold": 1.5}, "threshold must lie in (0,1)"),
        ({"seeds": [13, 14]}, "seed 14 has no entry in runs"),
    ],
)
def test_sweep_bad_config_exit_2(workdir, tmp_path, change, reason):
    cfg = {
        "mode": "merge",
        "grid": [0.0, 1.0],
        "seeds": [13],
        "attribute": "g",
        "data_dir": str(workdir / "data"),
        "runs": {"13": {"base": str(workdir / "base.ckpt"),
                        "vectors": [str(workdir / "vA.ckpt")]}},
    }
    cfg.update(change)
    (tmp_path / "sweep.json").write_text(json.dumps(cfg))
    proc = run_cli(["sweep", "--config", "sweep.json", "-o", "run"], tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and reason in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert not (tmp_path / "run").exists()


def test_sweep_bad_mode(workdir):
    cfg = {"mode": "nope", "data_dir": "data", "runs": {}}
    (workdir / "bad.json").write_text(json.dumps(cfg))
    proc = run_cli(["sweep", "--config", "bad.json", "-o", "runx"], workdir)
    assert proc.returncode == 2


def test_version():
    proc = run_cli(["--version"])
    assert proc.returncode == 0


def test_help_golden_files():
    parser = build_parser()
    assert parser.format_help() == (DATA / "help_main.txt").read_text()
    subs = next(a for a in parser._actions if hasattr(a, "choices") and a.choices)
    for name, sub in subs.choices.items():
        golden = DATA / f"help_{name.replace('-', '_')}.txt"
        assert sub.format_help() == golden.read_text(), name


def test_help_enumerates_every_flag():
    parser = build_parser()
    subs = next(a for a in parser._actions if hasattr(a, "choices") and a.choices)
    for name, sub in subs.choices.items():
        text = sub.format_help()
        for action in sub._actions:
            for opt in action.option_strings:
                assert opt in text, (name, opt)


def test_train_toy_missing_spec_exit_1(workdir, tmp_path):
    (tmp_path / "train.jsonl").write_bytes((workdir / "data" / "train.jsonl").read_bytes())
    proc = run_cli(
        ["train-toy", "--data", str(tmp_path), "--seed", "13", "--dim", "16",
         "--hidden", "2", "--epochs", "1", "-o", "never.ckpt"],
        tmp_path,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and "spec.json" in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert not (tmp_path / "never.ckpt").exists()


@pytest.mark.parametrize(
    "flag, value, reason",
    [
        ("--dim", "0", "dim and hidden must be >= 1"),
        ("--hidden", "0", "dim and hidden must be >= 1"),
        ("--batch-size", "0", "batch size must be >= 1"),
        ("--epochs", "-3", "epochs must be >= 0"),
    ],
)
def test_train_toy_bad_size_exit_2(workdir, flag, value, reason):
    args = {"--dim": "16", "--hidden": "2", "--batch-size": "32", "--epochs": "1"}
    args[flag] = value
    proc = run_cli(
        ["train-toy", "--data", "data", "--seed", "13",
         *(x for kv in args.items() for x in kv), "-o", "never.ckpt"],
        workdir,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: invalid input: ") and reason in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert not (workdir / "never.ckpt").exists()


@pytest.mark.parametrize("threshold", ["7", "0", "-0.5", "nan"])
def test_eval_bad_threshold_exit_2(tmp_path, threshold):
    # every record carries y_pred, so no score is ever binarized
    write_hand_built_preds(tmp_path / "hand.jsonl")
    proc = run_cli(
        ["eval", "--preds", "hand.jsonl", "--attribute", "g", "--threshold", threshold,
         "-o", "report.json"],
        tmp_path,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: invalid input: threshold must lie in (0,1)")
    assert len(proc.stderr.splitlines()) == 1
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize(
    "line, reason",
    [
        ('{"id": "x", "y_true": 1, "groups": {"g": "A"}', "Expecting"),
        ('{"id": "x", "y_true": 1, "groups": {"g": "A"}}', "missing field 'score'"),
        ('{"y_true": 1, "score": 0.5, "groups": {"g": "A"}}', "missing field 'id'"),
        ('{"id": "x", "score": 0.5, "groups": {"g": "A"}}', "missing field 'y_true'"),
        ('{"id": "x", "y_true": 1, "score": 0.5}', "missing field 'groups'"),
        ('[1, 2]', "list indices"),
        ('{"id": "x", "y_true": 1, "score": 0.5, "y_pred": 2, "groups": {"g": "A"}}',
         "y_pred must be 0 or 1, got 2"),
        ('{"id": "x", "y_true": 7, "score": 0.5, "groups": {"g": "A"}}',
         "y_true must be 0 or 1, got 7"),
        ('{"id": "x", "y_true": "1", "score": 0.5, "groups": {"g": "A"}}',
         "y_true must be 0 or 1, got '1'"),
        ('{"id": "x", "y_true": 1, "score": 0.5, "groups": {"g": 1}}',
         "groups must map names to strings"),
        ('{"id": "x", "y_true": 1, "score": 0.5, "groups": ["x"]}',
         "groups must map names to strings"),
    ],
)
def test_eval_malformed_line_names_location(tmp_path, line, reason):
    good = {"id": "a", "y_true": 0, "score": 0.9, "groups": {"g": "A"}}
    (tmp_path / "p.jsonl").write_text(json.dumps(good) + "\n\n" + line + "\n")
    proc = run_cli(["eval", "--preds", "p.jsonl", "--attribute", "g"], tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: invalid input: p.jsonl:3: ")
    assert reason in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.mark.parametrize(
    "argv, inputs",
    [
        (["diff", "subA.ckpt", "base.ckpt", "-o", "out.ckpt"], ["subA.ckpt", "base.ckpt"]),
        (["apply", "base.ckpt", "vA.ckpt", "--lambda", "0.5", "-o", "out.ckpt"],
         ["base.ckpt", "vA.ckpt"]),
        (["merge", "base.ckpt", "--vec", "vA.ckpt:0.3", "--vec", "subA.ckpt:0.2",
          "-o", "out.ckpt"], ["base.ckpt", "vA.ckpt", "subA.ckpt"]),
        (["inject", "fft.ckpt", "vA.ckpt", "--lambda", "0.4", "-o", "out.ckpt"],
         ["fft.ckpt", "vA.ckpt"]),
        (["eval", "--preds", "hand.jsonl", "--attribute", "g", "-o", "out.ckpt"],
         ["hand.jsonl"]),
    ],
)
def test_manifest_digests_are_of_the_inputs(workdir, tmp_path, argv, inputs):
    for name in ("subA.ckpt", "base.ckpt", "vA.ckpt", "fft.ckpt"):
        shutil.copy(workdir / name, tmp_path / name)
    write_hand_built_preds(tmp_path / "hand.jsonl")
    before = {p: _sha256(tmp_path / p) for p in inputs}
    proc = run_cli(argv, tmp_path)
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((tmp_path / "out.ckpt.manifest.json").read_text())
    assert manifest["input_digests"] == before


def test_manifest_digest_of_an_input_the_output_overwrites(workdir, tmp_path):
    shutil.copy(workdir / "subA.ckpt", tmp_path / "t.ckpt")
    shutil.copy(workdir / "base.ckpt", tmp_path / "b.ckpt")
    before = {p: _sha256(tmp_path / p) for p in ("t.ckpt", "b.ckpt")}
    proc = run_cli(["diff", "t.ckpt", "b.ckpt", "-o", "t.ckpt"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert _sha256(tmp_path / "t.ckpt") != before["t.ckpt"]
    manifest = json.loads((tmp_path / "t.ckpt.manifest.json").read_text())
    assert manifest["input_digests"] == before


@pytest.mark.parametrize(
    "argv, code",
    [
        (["diff", "subA.ckpt", "base.ckpt", "-o", "out.ckpt"], 0),
        (["diff", "bad.ckpt", "base.ckpt", "-o", "out.ckpt"], 1),
        (["merge", "base.ckpt", "--vec", "vA.ckpt:0.3", "--vec", "bad.ckpt:0.1",
          "-o", "out.ckpt"], 1),
        (["eval", "--preds", "bad.ckpt", "--attribute", "g"], 2),
    ],
)
def test_no_thread_outlives_main(workdir, tmp_path, monkeypatch, capsys, argv, code):
    for name in ("subA.ckpt", "base.ckpt", "vA.ckpt"):
        shutil.copy(workdir / name, tmp_path / name)
    (tmp_path / "bad.ckpt").write_bytes(b"{" * 4096)
    monkeypatch.chdir(tmp_path)
    before = threading.enumerate()
    assert main(argv) == code
    assert threading.enumerate() == before


def test_eval_malformed_line_wins_over_missing_attribute(tmp_path):
    lines = ['{"id": "a", "y_true": 0, "score": 0.9, "groups": {"h": "A"}}',
             '{"id": "b", "y_true": 0, "score": 0.9, "groups": {"g": "A"}}',
             '{"id": "c", "y_true": 0, "score": 0.9}']
    (tmp_path / "p.jsonl").write_text("\n".join(lines) + "\n")
    proc = run_cli(["eval", "--preds", "p.jsonl", "--attribute", "g"], tmp_path)
    assert proc.returncode == 2
    assert proc.stderr == "error: invalid input: p.jsonl:3: missing field 'groups'\n"


@pytest.mark.parametrize(
    "text, reason",
    [
        ('{"id": "a", "y_true": 0, "score": 0.9, "groups": {"g": "A"}}\n'
         '{"id": "b", "y_true": 0, "score": 0.9, "groups": {"h": "A"}}\n',
         "record 'b' lacks attribute 'g'"),
        ("", "no records to evaluate"),
        ("\n  \r\n\n", "no records to evaluate"),
    ],
)
def test_eval_empty_group_exit_1(tmp_path, text, reason):
    (tmp_path / "p.jsonl").write_text(text)
    proc = run_cli(
        ["eval", "--preds", "p.jsonl", "--attribute", "g", "-o", "report.json"], tmp_path
    )
    assert proc.returncode == 1
    assert proc.stderr == f"error: EmptyGroup: {reason}\n"
    assert not (tmp_path / "report.json").exists()


def test_eval_crlf_and_u2028_lines(tmp_path):
    lines = [{"id": "a\u2028b", "y_true": 1, "score": 0.5, "groups": {"g": "A"}},
             {"id": "c", "y_true": 0, "score": 0.2, "groups": {"g": "B\u2028"}}]
    text = "\r\n\r\n".join(json.dumps(x, ensure_ascii=False) for x in lines)
    (tmp_path / "p.jsonl").write_bytes(text.encode("utf-8"))
    proc = run_cli(["eval", "--preds", "p.jsonl", "--attribute", "g"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert [(r["group"], r["n"], r["selection_rate"]) for r in doc["rows"]] == [
        ("A", 1, 1.0), ("B\u2028", 1, 0.0)]


@pytest.mark.parametrize(
    "line, reason",
    [
        ('{"id": "x", "tokens": ["a"], "y_true": 2, "groups": {"g": "A"}}',
         "y_true must be 0 or 1, got 2"),
        ('{"id": "x", "tokens": ["a"], "groups": {"g": "A"}}', "missing field 'y_true'"),
        ('{"tokens": ["a"], "y_true": 1, "groups": {"g": "A"}}', "missing field 'id'"),
        ('{"id": "x", "tokens": ["a"], "y_true": 1', "Expecting"),
        ('{"id": "x", "tokens": "ab", "y_true": 1, "groups": {"g": "A"}}',
         "tokens must be a list of strings"),
        ('{"id": "x", "tokens": ["a", 3], "y_true": 1, "groups": {"g": "A"}}',
         "tokens must be a list of strings"),
        ('{"id": "x", "tokens": ["a"], "y_true": 1, "groups": {"g": 1}}',
         "groups must map names to strings"),
        ('{"id": "x", "tokens": ["a"], "y_true": 1, "groups": ["g"]}',
         "groups must map names to strings"),
    ],
)
def test_train_toy_bad_corpus_line_exit_2(workdir, tmp_path, line, reason):
    data = tmp_path / "data"
    data.mkdir()
    shutil.copy(workdir / "data" / "spec.json", data / "spec.json")
    first = (workdir / "data" / "train.jsonl").read_text().splitlines()[0]
    (data / "train.jsonl").write_text(first + "\n\n" + line + "\n")
    proc = run_cli(
        ["train-toy", "--data", "data", "--seed", "13", "--dim", "16", "--hidden", "2",
         "--epochs", "1", "-o", "never.ckpt"],
        tmp_path,
    )
    assert proc.returncode == 2
    prefix = f"error: invalid input: {Path('data', 'train.jsonl')}:3: "
    assert proc.stderr.startswith(prefix) and reason in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert not (tmp_path / "never.ckpt").exists()
