import contextlib
import hashlib
import io
import json
import re
import shutil
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_cli
from fairvec import Checkpoint, TaskVector, Tensor, read_checkpoint, write_checkpoint
from fairvec import sweep, toymodel
from fairvec.cli import UsageError, _Run, build_parser, main
from fairvec.corpus import CorpusSpec, gen_corpus, parse_examples, save_corpus
from fairvec.features import touched_buckets

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
    # both are model + lambda * vector: the same inputs give the same bytes
    assert run_cli(
        ["apply", "fft.ckpt", "vA.ckpt", "--lambda", "0.4", "-o", "applied04.ckpt"],
        workdir,
    ).returncode == 0
    assert (workdir / "applied04.ckpt").read_bytes() == (workdir / "inj.ckpt").read_bytes()
    manifests = [json.loads((workdir / f"{name}.ckpt.manifest.json").read_text())
                 for name in ("inj", "applied04")]
    assert [m["command"] for m in manifests] == ["inject", "apply"]
    assert [m["config"] for m in manifests] == [{"lambda": 0.4}] * 2


def test_apply_negative_exponent_lambda_equals_form(workdir, tmp_path):
    """"--lambda -1e-3", after a space, is the value and not an option: it
    writes the bytes of "--lambda=-1e-3" and of "--lambda -0.001"."""
    common = ["apply", str(workdir / "base.ckpt"), str(workdir / "vA.ckpt")]
    for name, value in [("eq", ["--lambda=-1e-3"]), ("sp", ["--lambda", "-1e-3"]),
                        ("dec", ["--lambda", "-0.001"])]:
        proc = run_cli([*common, *value, "-o", f"{name}.ckpt"], tmp_path)
        assert (proc.returncode, proc.stderr) == (0, "")
    want = (tmp_path / "eq.ckpt").read_bytes()
    assert (tmp_path / "sp.ckpt").read_bytes() == want
    assert (tmp_path / "dec.ckpt").read_bytes() == want


@pytest.mark.parametrize(
    "argv, dest",
    [
        (["apply", "b", "v", "-o", "x", "--lambda"], "lam"),
        (["inject", "b", "v", "-o", "x", "--lambda"], "lam"),
        (["eval", "--preds", "p", "--attribute", "g", "--threshold"], "threshold"),
        (["train-toy", "--data", "d", "--seed", "1", "-o", "x", "--lr"], "lr"),
        (["train-toy", "--data", "d", "--seed", "1", "-o", "x", "--alpha"], "alpha"),
    ],
)
@pytest.mark.parametrize("value", ["-1e-3", "-2.5E+1", "-.5e1", "-inf", "-Infinity", "-nan"])
def test_float_flags_take_negative_values_after_a_space(argv, dest, value):
    """Every float flag parses "FLAG VALUE" as "FLAG=VALUE" for a negative
    VALUE in any form float() reads."""
    *head, flag = argv
    spaced = vars(build_parser().parse_args([*head, flag, value]))[dest]
    joined = vars(build_parser().parse_args([*head, f"{flag}={value}"]))[dest]
    assert repr(spaced) == repr(joined) == repr(float(value))


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


def test_eval_csv_without_output_drops_a_manifest_by_the_csv(tmp_path):
    """Without -o the report goes to stdout and the manifest next to the CSV."""
    write_hand_built_preds(tmp_path / "hand.jsonl")
    proc = run_cli(
        ["eval", "--preds", "hand.jsonl", "--attribute", "g", "--csv", "r.csv"], tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["overall"]["overall_dpd"] == 0.5
    manifest = json.loads((tmp_path / "r.csv.manifest.json").read_text())
    assert manifest["input_digests"] == {"hand.jsonl": _sha256(tmp_path / "hand.jsonl")}
    assert manifest["config"] == {"attribute": "g", "threshold": 0.5}
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "hand.jsonl", "r.csv", "r.csv.manifest.json"
    ]


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


def test_output_directory_missing_exit_1_one_line(tmp_path):
    """An output that cannot be opened is an OSError: exit 1, one line,
    nothing written."""
    write_hand_built_preds(tmp_path / "hand.jsonl")
    proc = run_cli(
        ["eval", "--preds", "hand.jsonl", "--attribute", "g", "-o", "missing/out.json"],
        tmp_path,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and "No such file or directory" in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["hand.jsonl"]


def test_bad_vec_syntax_exit_2(workdir):
    proc = run_cli(["merge", "base.ckpt", "--vec", "novalue", "-o", "x.ckpt"], workdir)
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["apply", "absent.ckpt", "vA.ckpt", "--lambda", "nan"],
         "error: --lambda must be finite, got nan\n"),
        (["inject", "absent.ckpt", "vA.ckpt", "--lambda=-inf"],
         "error: --lambda must be finite, got -inf\n"),
        (["merge", "absent.ckpt", "--vec", "vA.ckpt:0.5", "--vec", "vA.ckpt:inf"],
         "error: lambda in --vec 'vA.ckpt:inf' must be finite\n"),
        (["apply", "absent.ckpt", "vA.ckpt", "--lambda", "-inf"],
         "error: --lambda must be finite, got -inf\n"),
        # finite as floats, but inf in float32
        (["apply", "absent.ckpt", "vA.ckpt", "--lambda", "1e39"],
         "error: --lambda must be finite, got 1e+39\n"),
        (["inject", "absent.ckpt", "vA.ckpt", "--lambda", "-1e39"],
         "error: --lambda must be finite, got -1e+39\n"),
        (["merge", "absent.ckpt", "--vec", "vA.ckpt:0.5", "--vec", "vA.ckpt:1e39"],
         "error: lambda in --vec 'vA.ckpt:1e39' must be finite\n"),
    ],
)
def test_non_finite_coefficient_exit_2_before_any_read(workdir, argv, message):
    """The base does not exist, so a read would fail with no such file. A
    coefficient is finite when it is finite in float32, the arithmetic's type."""
    proc = run_cli([*argv, "-o", "never.ckpt"], workdir)
    assert proc.returncode == 2
    assert proc.stderr == message
    assert not (workdir / "never.ckpt").exists()


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
        ({"grid": 5}, "sweep config 'grid' must be a list, got 5"),
        ({"seeds": 13}, "sweep config 'seeds' must be a list, got 13"),
        ({"runs": [13]}, "sweep config 'runs' must be an object, got [13]"),
        ({"data_dir": 7}, "sweep config 'data_dir' must be a string, got 7"),
        ({"split": "dev"}, "split must be train or test, got 'dev'"),
        ({"runs": {"13": ["b.ckpt"]}},
         "sweep config 'runs'['13'] must be an object, got ['b.ckpt']"),
        ({"grid": [0.0, None]}, "sweep config 'grid'[1] must be a number, got None"),
        ({"seeds": [None]}, "sweep config 'seeds'[0] must be an integer, got None"),
        ({"threshold": None}, "sweep config 'threshold' must be a number, got None"),
        ({"attribute": ["g"]}, "sweep config 'attribute' must be a string, got ['g']"),
        # a number would otherwise be opened as a file descriptor (0: stdin)
        ({"runs": {"13": {"base": 0, "vectors": []}}},
         "sweep config 'runs'['13']['base'] must be a string, got 0"),
        ({"runs": {"13": {"base": "b.ckpt", "vectors": [1]}}},
         "sweep config 'runs'['13']['vectors'][0] must be a string, got 1"),
        ({"mode": "inject", "runs": {"13": {"sft": "s.ckpt", "vector": 3}}},
         "sweep config 'runs'['13']['vector'] must be a string, got 3"),
        ({"seeds": [13, 13]}, "invalid input: seeds must be distinct, got [13, 13]"),
        ({"threshold": float("nan")}, "sweep config 'threshold' must be a number, got nan"),
        ({"grid": [0.0, float("inf")]}, "sweep config 'grid'[1] must be a number, got inf"),
        # numbers beyond float range are the wrong type, not an OverflowError
        pytest.param({"grid": [10**400]}, "sweep config 'grid'[0] must be a number, got 1000",
                     id="grid-beyond-float-range"),
        pytest.param({"threshold": 10**400}, "sweep config 'threshold' must be a number, got 1000",
                     id="threshold-beyond-float-range"),
        ({"grid": [0.0, 1e39]}, "invalid input: grid values must be finite"),
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


def test_sweep_undefined_criterion_exit_1_one_line(workdir, tmp_path):
    """Group A has only positives and B only negatives, so no grid point has
    an overall EOD; the run directory is written, then selection fails."""
    (tmp_path / "data").mkdir()
    examples = [
        {"id": f"{g}{i}", "tokens": [f"tok{i}"], "y_true": y, "groups": {"g": g}}
        for g, y in (("A", 1), ("B", 0)) for i in range(4)
    ]
    (tmp_path / "data" / "train.jsonl").write_text(
        "".join(json.dumps(ex) + "\n" for ex in examples)
    )
    cfg = {"mode": "merge", "grid": [0.0, 1.0], "seeds": [13], "attribute": "g",
           "criterion": "overall_eod", "data_dir": "data",
           "runs": {"13": {"base": str(workdir / "base.ckpt"),
                           "vectors": [str(workdir / "vA.ckpt")]}}}
    (tmp_path / "sweep.json").write_text(json.dumps(cfg))
    proc = run_cli(["sweep", "--config", "sweep.json", "-o", "run"], tmp_path)
    assert proc.returncode == 1
    assert proc.stderr == (
        "error: InsufficientGroups: overall_eod is undefined at every grid point\n"
    )
    assert (tmp_path / "run" / "result.json").exists()


def test_sweep_base_not_a_toy_model_exit_1(workdir, tmp_path):
    """A base with the toy model's tensor names whose shapes do not form a
    D->H->1 model, and a vector that merges with it."""
    shapes = {"W1": (128, 8), "b1": (8,), "w2": (3,), "b2": ()}
    for name in ("odd_base.ckpt", "odd_vec.ckpt"):
        write_checkpoint(Checkpoint({n: Tensor.from_numpy(np.zeros(s, np.float32))
                                     for n, s in shapes.items()}), tmp_path / name)
    cfg = {"mode": "merge", "grid": [0.0, 1.0], "seeds": [13], "attribute": "g",
           "data_dir": str(workdir / "data"),
           "runs": {"13": {"base": "odd_base.ckpt", "vectors": ["odd_vec.ckpt"]}}}
    (tmp_path / "sweep.json").write_text(json.dumps(cfg))
    proc = run_cli(["sweep", "--config", "sweep.json", "-o", "run"], tmp_path)
    assert proc.returncode == 1
    assert proc.stderr == (
        "error: IncompatibleCheckpoint: tensor shapes do not form a D->H->1 model\n"
    )
    assert not (tmp_path / "run").exists()


def test_sweep_config_not_an_object_exit_2(tmp_path):
    (tmp_path / "sweep.json").write_text("[1]")
    proc = run_cli(["sweep", "--config", "sweep.json", "-o", "run"], tmp_path)
    assert proc.returncode == 2
    assert proc.stderr == "error: sweep config must be a JSON object, got [1]\n"
    assert not (tmp_path / "run").exists()


def test_sweep_non_finite_weight_exit_0_no_warning(tmp_path):
    """A base with an inf in an untouched W1 row scores NaN, as the dense
    definition does, and the sweep prints no numpy warning."""
    spec = CorpusSpec(attribute="gender", total=700, seed=13)  # the README's corpus
    save_corpus(spec, *gen_corpus(spec), tmp_path / "data")
    train = parse_examples((tmp_path / "data" / "train.jsonl").read_text().splitlines())
    cols = touched_buckets(train, 512)[0]
    model = toymodel.init_model(512, 16, 13)
    model.W1[np.setdiff1d(np.arange(512), cols)[0], 3] = np.inf
    write_checkpoint(model.to_checkpoint(), tmp_path / "base.ckpt")
    zero = {n: Tensor.from_numpy(np.zeros_like(a)) for n, a in model.arrays().items()}
    write_checkpoint(Checkpoint(zero), tmp_path / "zero.ckpt")
    cfg = {"mode": "merge", "grid": [0.0, 1.0], "seeds": [13], "attribute": "gender",
           "data_dir": "data", "runs": {"13": {"base": "base.ckpt", "vectors": ["zero.ckpt"]}}}
    (tmp_path / "sweep.json").write_text(json.dumps(cfg))
    proc = run_cli(["sweep", "--config", "sweep.json", "-o", "run"], tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_sweep_inject_matches_in_process(tmp_path):
    """fairvec sweep in inject mode writes the six files, and its result.json
    and result.csv are the bytes inject_sweep and emit give in process on
    the same checkpoints and split (the default injection grid)."""
    spec = {"attribute": "g", "proportions": {"A": 0.5, "B": 0.5}, "total": 200, "seed": 13}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    common = ["--data", "data", "--dim", "32", "--hidden", "4", "--seed", "13"]
    for argv in (
        ["gen-data", "--spec", "spec.json", "-o", "data"],
        ["train-toy", *common, "--init-only", "-o", "base.ckpt"],
        ["train-toy", *common, "--epochs", "5", "-o", "sft.ckpt"],
        ["train-toy", *common, "--epochs", "5", "--group", "B", "-o", "subB.ckpt"],
        ["diff", "subB.ckpt", "base.ckpt", "-o", "vB.ckpt"],
    ):
        assert run_cli(argv, tmp_path).returncode == 0
    cfg = {"mode": "inject", "seeds": [13], "attribute": "g", "data_dir": "data",
           "runs": {"13": {"sft": "sft.ckpt", "vector": "vB.ckpt"}}}
    (tmp_path / "sweep.json").write_text(json.dumps(cfg))
    proc = run_cli(["sweep", "--config", "sweep.json", "-o", "run"], tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == [
        "acc.svg", "dpd.svg", "eod.svg", "manifest.json", "result.csv", "result.json",
        "run_manifest.json",
    ]

    result = sweep.inject_sweep(
        {13: read_checkpoint(tmp_path / "sft.ckpt")},
        {13: TaskVector.from_checkpoint(read_checkpoint(tmp_path / "vB.ckpt"))},
        sweep.SweepConfig(grid=sweep.INJECT_GRID, seeds=[13], attribute="g"),
        parse_examples((tmp_path / "data" / "train.jsonl").read_text().splitlines()),
    )
    sweep.emit(result, tmp_path / "in-process")
    for name in ("result.json", "result.csv"):
        assert (tmp_path / "run" / name).read_bytes() == (
            tmp_path / "in-process" / name).read_bytes()


def test_sweep_manifest_digests_are_of_what_it_read(workdir, tmp_path):
    """run_manifest.json holds the config, the evaluated split and every
    checkpoint; the corpus's spec.json and other split are not read."""
    (tmp_path / "data").mkdir()
    shutil.copy(workdir / "data" / "train.jsonl", tmp_path / "data" / "train.jsonl")
    for name in ("base.ckpt", "vA.ckpt"):
        shutil.copy(workdir / name, tmp_path / name)
    cfg = {"mode": "merge", "grid": [0.0, 1.0], "seeds": [13], "attribute": "g",
           "data_dir": "data",
           "runs": {"13": {"base": "base.ckpt", "vectors": ["vA.ckpt"]}}}
    (tmp_path / "sweep.json").write_text(json.dumps(cfg))
    proc = run_cli(["sweep", "--config", "sweep.json", "-o", "run"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    checkpoints = {p: _sha256(tmp_path / p) for p in ("base.ckpt", "vA.ckpt")}
    manifest = json.loads((tmp_path / "run" / "run_manifest.json").read_text())
    assert manifest["command"] == "sweep"
    assert manifest["input_digests"] == {
        "sweep.json": _sha256(tmp_path / "sweep.json"),
        str(Path("data", "train.jsonl")): _sha256(tmp_path / "data" / "train.jsonl"),
        **checkpoints,
    }
    emitted = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert emitted["input_digests"] == checkpoints

    cfg["split"] = "test"
    (tmp_path / "sweep.json").write_text(json.dumps(cfg))
    proc = run_cli(["sweep", "--config", "sweep.json", "-o", "run2"], tmp_path)
    assert proc.returncode == 2
    assert proc.stderr == f"error: no such file: {Path('data', 'test.jsonl')}\n"
    assert not (tmp_path / "run2").exists()


def test_run_reads_only_string_paths():
    run = _Run("test")
    try:
        with pytest.raises(UsageError, match="input path must be a string, got 0"):
            run.read(0)
    finally:
        run.close()


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


def test_train_toy_missing_spec_exit_2(workdir, tmp_path):
    (tmp_path / "train.jsonl").write_bytes((workdir / "data" / "train.jsonl").read_bytes())
    proc = run_cli(
        ["train-toy", "--data", str(tmp_path), "--seed", "13", "--dim", "16",
         "--hidden", "2", "--epochs", "1", "-o", "never.ckpt"],
        tmp_path,
    )
    assert proc.returncode == 2
    assert proc.stderr == f"error: no such file: {tmp_path / 'spec.json'}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["train.jsonl"]


def test_train_toy_manifest_digests_spec(workdir, tmp_path):
    """The manifest records the digest of each file train-toy reads:
    train.jsonl, spec.json and --base."""
    shutil.copytree(workdir / "data", tmp_path / "data")
    shutil.copy(workdir / "base.ckpt", tmp_path / "base.ckpt")
    inputs = [str(Path("data", name)) for name in ("train.jsonl", "spec.json")]
    proc = run_cli(
        ["train-toy", "--data", "data", "--seed", "13", "--epochs", "1",
         "--base", "base.ckpt", "-o", "t.ckpt"],
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    digests = json.loads((tmp_path / "t.ckpt.manifest.json").read_text())["input_digests"]
    assert digests == {p: _sha256(tmp_path / p) for p in [*inputs, "base.ckpt"]}


@pytest.mark.parametrize(
    "flag, value, reason",
    [
        ("--dim", "0", "dim and hidden must be >= 1"),
        ("--hidden", "0", "dim and hidden must be >= 1"),
        ("--batch-size", "0", "batch size must be >= 1"),
        ("--epochs", "-3", "epochs must be >= 0"),
        ("--lr", "nan", "learning rate must be finite and > 0"),
        ("--lr", "inf", "learning rate must be finite and > 0"),
        ("--lr", "0", "learning rate must be finite and > 0"),
        ("--lr", "-1", "learning rate must be finite and > 0"),
        ("--seed", "-5", "seed must be >= 0, got -5"),
        ("--lr", "1e39", "learning rate must be finite and > 0"),
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


@pytest.mark.parametrize(
    "message, line",
    [
        ("Unable to allocate 3.73 TiB for an array with shape (1000000000, 1024)",
         "error: Unable to allocate 3.73 TiB for an array with shape (1000000000, 1024)"),
        ("", "error: out of memory"),
    ],
    ids=["numpy", "bare"],
)
def test_train_toy_out_of_memory_exit_1_one_line(
    workdir, tmp_path, monkeypatch, capsys, message, line
):
    """A failed allocation exits 1 with one error line and writes no file;
    the failure is simulated, so nothing large is allocated."""
    def no_memory(*args):
        raise MemoryError(message)

    monkeypatch.setattr(toymodel, "init_model", no_memory)
    shutil.copytree(workdir / "data", tmp_path / "data")
    monkeypatch.chdir(tmp_path)
    argv = ["train-toy", "--data", "data", "--seed", "13", "--init-only",
            "--dim", "1000000000", "-o", "out.ckpt"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", line + "\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data"]


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
        pytest.param(
            '{"id": "x", "y_true": 1, "score": 1' + "0" * 400 + ', "groups": {"g": "A"}}',
            "int too large to convert to float", id="score-beyond-float",
        ),
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


def test_apply_missing_vector_exit_2(workdir):
    proc = run_cli(["apply", "base.ckpt", "absent.ckpt", "-o", "x.ckpt"], workdir)
    assert proc.returncode == 2
    assert proc.stderr == "error: no such file: absent.ckpt\n"
    assert not (workdir / "x.ckpt").exists()


def test_merge_first_bad_vector_decides_the_exit_code(workdir, tmp_path):
    """Each --vec is read and checked in turn, so an incompatible 2nd vector
    fails before the missing 3rd is looked for."""
    for name in ("base.ckpt", "vA.ckpt"):
        shutil.copy(workdir / name, tmp_path / name)
    write_checkpoint(Checkpoint({"w": Tensor.from_numpy(np.zeros(2, np.float32))}),
                     tmp_path / "odd.ckpt")
    proc = run_cli(
        ["merge", "base.ckpt", "--vec", "vA.ckpt:0.3", "--vec", "odd.ckpt:0.2",
         "--vec", "absent.ckpt:0.1", "-o", "out.ckpt"],
        tmp_path,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: NameSetMismatch: ")
    assert len(proc.stderr.splitlines()) == 1
    assert not (tmp_path / "out.ckpt").exists()


def test_merge_memory_does_not_grow_with_the_vector_count(tmp_path, monkeypatch):
    """merge holds one vector at a time: with 8 vectors its traced peak is
    within one checkpoint's size of the same merge with 2."""
    rng = np.random.default_rng(5)
    shapes = {f"t{i}": (128, 512) for i in range(4)}  # 1 MiB of F32 per file

    def write(name, sd):
        tensors = {n: Tensor.from_numpy(rng.normal(0.0, sd, s).astype(np.float32))
                   for n, s in shapes.items()}
        write_checkpoint(Checkpoint(tensors), tmp_path / name)

    write("base.ckpt", 1.0)
    for i in range(8):
        write(f"v{i}.ckpt", 0.01)
    size = (tmp_path / "base.ckpt").stat().st_size
    monkeypatch.chdir(tmp_path)

    def peak(n):
        argv = ["merge", "base.ckpt", "-o", "out.ckpt"]
        for i in range(n):
            argv += ["--vec", f"v{i}.ckpt:0.25"]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2)  # lazy imports and first-call allocations happen here, not traced below
    two, eight = peak(2), peak(8)
    assert eight - two < size, (two, eight, size)


def test_apply_non_checkpoint_exit_1(workdir):
    write_hand_built_preds(workdir / "hand.jsonl")
    proc = run_cli(["apply", "base.ckpt", "hand.jsonl", "-o", "x.ckpt"], workdir)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: MalformedHeader: ")
    assert len(proc.stderr.splitlines()) == 1
    assert not (workdir / "x.ckpt").exists()


def test_gen_data_missing_spec_exit_2(tmp_path):
    proc = run_cli(["gen-data", "--spec", "absent.json", "-o", "data"], tmp_path)
    assert proc.returncode == 2
    assert proc.stderr == "error: no such file: absent.json\n"
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize(
    "text, reason",
    [
        ('{"bogus": 1}', "unknown spec field 'bogus'"),
        ("[1]", "spec must be a JSON object, got [1]"),
        ('{"total": "many"}', "spec field 'total' has the wrong type: 'many'"),
        ('{"proportions": {"A": 0.5, "B": 0.6}}', "proportions sum to"),
        ('{"total": 200, "p_signal_pos": 7}', "p_signal_pos 7 outside [0,1]"),
        ('{"total": 200, "seed": -1}', "seed must be >= 0, got -1"),
        # numbers beyond float range are the wrong type, not an OverflowError
        pytest.param('{"proportions": {"A": 1%s}}' % ("0" * 400),
                     "spec field 'proportions' has the wrong type", id="proportions-beyond-float"),
        pytest.param('{"bias": 1%s}' % ("0" * 400),
                     "spec field 'bias' has the wrong type", id="bias-beyond-float"),
        pytest.param('{"bias": {"Men": 1%s}}' % ("0" * 400),
                     "spec field 'bias' has the wrong type", id="group-bias-beyond-float"),
        # values numpy's int64 and Poisson draws cannot take, which ended
        # in a traceback or a ValueError from generation
        pytest.param('{"vocab_size": 1%s}' % ("0" * 400), "vocab_size must be <= 2**63",
                     id="vocab-beyond-float"),
        pytest.param('{"vocab_size": %d}' % 10**20, "vocab_size must be <= 2**63",
                     id="vocab-beyond-int64"),
        pytest.param('{"vocab_size": %d}' % (2**63 + 1), "vocab_size must be <= 2**63",
                     id="vocab-past-int64"),
        pytest.param('{"tokens_max": %d}' % 10**20, "tokens_max must be < 2**63",
                     id="tokens-beyond-int64"),
        pytest.param('{"tokens_max": %d}' % 2**63, "tokens_max must be < 2**63",
                     id="tokens-at-int64"),
        pytest.param('{"bias": 1e19}', "bias strength 1e+19 > 9.22337e+18",
                     id="bias-beyond-poisson"),
        pytest.param('{"bias": {"Men": 1e19}}', "bias strength 1e+19 > 9.22337e+18",
                     id="group-bias-beyond-poisson"),
    ],
)
def test_gen_data_invalid_spec_exit_1(tmp_path, text, reason):
    (tmp_path / "spec.json").write_text(text)
    proc = run_cli(["gen-data", "--spec", "spec.json", "-o", "data"], tmp_path)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: InvalidSpec: ") and reason in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert not (tmp_path / "data").exists()


def test_train_toy_missing_base_exit_2(workdir):
    proc = run_cli(
        ["train-toy", "--data", "data", "--seed", "13", "--dim", "16", "--hidden", "2",
         "--epochs", "1", "--base", "absent.ckpt", "-o", "never.ckpt"],
        workdir,
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: no such file: absent.ckpt\n"
    assert not (workdir / "never.ckpt").exists()


@pytest.mark.parametrize(
    "extra, shape",
    [([], [128, 8]), (["--lora"], [128, 8]), (["--init-only"], [16, 2])],
)
def test_train_toy_manifest_records_written_shape(workdir, tmp_path, extra, shape):
    """With --base the model takes the base's shape, and the manifest says so;
    --init-only ignores --base and writes a --dim x --hidden model."""
    proc = run_cli(
        ["train-toy", "--data", str(workdir / "data"), "--seed", "13", "--dim", "16",
         "--hidden", "2", "--epochs", "1", "--base", str(workdir / "base.ckpt"),
         *extra, "-o", "t.ckpt"],
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert list(read_checkpoint(str(tmp_path / "t.ckpt")).tensors["W1"].shape) == shape
    config = json.loads((tmp_path / "t.ckpt.manifest.json").read_text())["config"]
    assert [config["dim"], config["hidden"]] == shape


@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_train_toy_lora_bad_alpha_exit_2(workdir, alpha):
    proc = run_cli(
        ["train-toy", "--data", "data", "--seed", "13", "--dim", "16", "--hidden", "2",
         "--epochs", "1", "--lora", "--alpha", alpha, "-o", "never.ckpt"],
        workdir,
    )
    assert proc.returncode == 2
    assert proc.stderr == f"error: invalid input: alpha must be finite, got {alpha}\n"
    assert not (workdir / "never.ckpt").exists()


@pytest.mark.parametrize("lora", [[], ["--lora"]])
def test_train_toy_diverging_exit_1_one_line(workdir, lora):
    """A learning rate that overflows the weights fails with the one
    DivergedTraining line and no numpy warning before it."""
    proc = run_cli(
        ["train-toy", "--data", "data", "--seed", "13", "--dim", "128", "--hidden", "8",
         "--epochs", "3", "--lr", "1e38", *lora, "-o", "never.ckpt"],
        workdir,
    )
    assert proc.returncode == 1
    assert re.fullmatch(
        r"error: DivergedTraining: non-finite training loss \S+ at epoch \d+, step \d+\n",
        proc.stderr,
    ), proc.stderr
    assert not (workdir / "never.ckpt").exists()


def test_train_toy_lora_overflowing_merge_exit_0_no_warning(tmp_path):
    """The README-scale Women split with untouched W1 rows at 3.4e38 and one
    step: the step overflows no loss, but the merged W1 + (alpha/r) A B does.
    As train-toy without --lora, it writes the inf and prints nothing; the
    bytes are train_lora's, which raises no warning either."""
    from fairvec import corpus

    (tmp_path / "spec.json").write_text('{"total": 700, "seed": 13}')
    assert run_cli(["gen-data", "--spec", "spec.json", "-o", "data"], tmp_path).returncode == 0
    lines = (tmp_path / "data" / "train.jsonl").read_text().splitlines()
    women = toymodel.subgroup(corpus.parse_examples(lines), "gender", "Women")
    model = toymodel.init_model(512, 16, 13)
    model.W1[np.delete(np.arange(512), touched_buckets(women, 512)[0])] = 3.4e38
    write_checkpoint(model.to_checkpoint(), tmp_path / "base.ckpt")
    proc = run_cli(
        ["train-toy", "--data", "data", "--seed", "13", "--group", "Women", "--lora",
         "--base", "base.ckpt", "--alpha", "8e16", "--lr", "1e10", "--epochs", "1",
         "--batch-size", "1000", "-o", "out.ckpt"],
        tmp_path,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    got = read_checkpoint(str(tmp_path / "out.ckpt"))
    assert np.isinf(got.tensors["W1"].to_numpy()).any()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want, _ = toymodel.train_lora(
            women, model.to_checkpoint(), toymodel.Hyper(epochs=1, lr=1e10, batch_size=1000,
                                                         seed=13),
            alpha=8e16, metadata={"subset": "Women"},
        )
    assert got.tensors == want.tensors


def test_train_toy_lora_trains_on_its_group(workdir, tmp_path):
    from fairvec import corpus, toymodel

    common = ["train-toy", "--data", str(workdir / "data"), "--seed", "13",
              "--dim", "128", "--hidden", "8", "--epochs", "2", "--lora"]
    for name, group in [("all", []), ("A", ["--group", "A"])]:
        proc = run_cli([*common, *group, "-o", f"{name}.ckpt"], tmp_path)
        assert proc.returncode == 0, proc.stderr
    got = read_checkpoint(str(tmp_path / "A.ckpt"))
    assert got.metadata["subset"] == "A"
    assert got.tensors != read_checkpoint(str(tmp_path / "all.ckpt")).tensors

    lines = (workdir / "data" / "train.jsonl").read_bytes().decode().splitlines()
    examples = corpus.parse_examples(lines, "train.jsonl")
    want, _ = toymodel.train_lora(
        toymodel.subgroup(examples, "g", "A"), toymodel.init_model(128, 8, 13).to_checkpoint(),
        toymodel.Hyper(epochs=2, seed=13),
    )
    assert got.tensors == want.tensors

    proc = run_cli([*common, "--group", "NoSuchGroup", "-o", "never.ckpt"], tmp_path)
    assert proc.returncode == 1
    assert proc.stderr == "error: EmptyGroup: no training examples for g='NoSuchGroup'\n"
    assert not (tmp_path / "never.ckpt").exists()


class TestCheckpointFuzz:
    """Corrupted checkpoints (truncated, with a flipped byte or with a bad
    header length) fed to every command that reads one: each run exits 0, 1
    or 2, writes at most one stderr line and no warning, and a failing run
    leaves no -o file."""

    @pytest.fixture(scope="class")
    def fuzzdir(self, tmp_path_factory):
        wd = tmp_path_factory.mktemp("fuzz")
        spec = {"attribute": "g", "proportions": {"A": 0.5, "B": 0.5}, "total": 24, "seed": 1}
        (wd / "spec.json").write_text(json.dumps(spec))
        common = ["--data", str(wd / "data"), "--dim", "8", "--hidden", "2", "--seed", "1"]
        for argv in (
            ["gen-data", "--spec", str(wd / "spec.json"), "-o", str(wd / "data")],
            ["train-toy", *common, "--init-only", "-o", str(wd / "base.ckpt")],
            ["train-toy", *common, "--epochs", "2", "-o", str(wd / "sub.ckpt")],
            ["diff", str(wd / "sub.ckpt"), str(wd / "base.ckpt"), "-o", str(wd / "vec.ckpt")],
        ):
            assert main(argv) == 0
        return wd

    @staticmethod
    def commands(wd, bad):
        """Each command's argv with the corrupted file bad in one input slot."""
        base, vec = str(wd / "base.ckpt"), str(wd / "vec.ckpt")
        toy = ["train-toy", "--data", str(wd / "data"), "--seed", "1", "--epochs", "1"]
        return [
            ["diff", bad, base], ["diff", base, bad],
            ["apply", bad, vec], ["apply", base, bad, "--lambda=0.5"],
            ["inject", bad, vec, "--lambda=2"], ["inject", base, bad, "--lambda=-1"],
            ["merge", bad, "--vec", f"{vec}:1"], ["merge", base, "--vec", f"{bad}:0.5"],
            [*toy, "--base", bad], [*toy, "--base", bad, "--lora", "--rank", "2"],
        ]

    @settings(max_examples=150, deadline=None)
    @given(
        source=st.sampled_from(["base.ckpt", "vec.ckpt"]),
        how=st.sampled_from(["truncate", "flip", "header length"]),
        at=st.integers(min_value=0),
        value=st.integers(min_value=0, max_value=2**64 - 1),
        command=st.integers(min_value=0, max_value=9),
    )
    def test_corrupt_checkpoint_exit_code_one_line_no_output(
        self, fuzzdir, source, how, at, value, command
    ):
        blob = bytearray((fuzzdir / source).read_bytes())
        if how == "truncate":
            blob = blob[: at % len(blob)]
        elif how == "flip":
            blob[at % len(blob)] ^= 1 + value % 255
        else:
            blob[:8] = value.to_bytes(8, "little")
        bad, out = fuzzdir / "bad.ckpt", fuzzdir / "out.ckpt"
        bad.write_bytes(bytes(blob))
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            code = main([*self.commands(fuzzdir, str(bad))[command], "-o", str(out)])
        assert code in (0, 1, 2)
        assert len(err.getvalue().splitlines()) <= 1, err.getvalue()
        assert not [str(w.message) for w in caught]
        assert out.exists() == (code == 0)
        for path in fuzzdir.glob("out.ckpt*"):
            path.unlink()


@pytest.mark.parametrize("command", ["eval", "gen-data", "sweep", "train-toy"])
def test_deeply_nested_json_exit_2_one_line(tmp_path, command):
    """JSON nested past the parser's recursion limit is invalid input, with
    the file and line named where the input is JSON lines."""
    deep = "[" * 100_000
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "train.jsonl").write_text(deep + "\n")
    (tmp_path / "in.json").write_text(deep)
    argv = {
        "eval": ["eval", "--preds", "data/train.jsonl", "--attribute", "g", "-o", "out"],
        "gen-data": ["gen-data", "--spec", "in.json", "-o", "out"],
        "sweep": ["sweep", "--mode", "merge", "--config", "in.json", "-o", "out"],
        "train-toy": ["train-toy", "--data", "data", "--seed", "1", "-o", "out"],
    }[command]
    if command == "train-toy":
        (tmp_path / "data" / "spec.json").write_text("{}")
    proc = run_cli(argv, tmp_path)
    assert proc.returncode == 2
    where = "data/train.jsonl:1: " if command in ("eval", "train-toy") else ""
    assert proc.stderr.startswith(f"error: invalid input: {where}maximum recursion depth")
    assert len(proc.stderr.splitlines()) == 1
    assert not (tmp_path / "out").exists()


class TestTextInputFuzz:
    """Mutated prediction lines fed to eval, mutated corpus specs fed to
    gen-data, mutated sweep configs fed to sweep and mutated corpus lines
    fed to train-toy (truncated, with a flipped byte, with a field dropped
    or with an odd value or odd JSON text in a field, among them NaN, the
    infinities and integers beyond float range): each run exits 0, 1 or 2,
    writes at most one stderr line and no warning, and a failing run leaves
    no output. The one exception is a sweep whose criterion is undefined at
    every grid point: it exits 1 after writing its run directory. The odd
    values stay small in a spec's total, vocab_size and tokens_max, which
    generation does not bound (ROADMAP item 5)."""

    PREDICTION = {"id": "r1", "y_true": 1, "score": 0.75, "y_pred": 1, "groups": {"g": "B"}}
    SPEC = {"attribute": "g", "proportions": {"A": 0.5, "B": 0.5}, "total": 24, "seed": 1,
            "base_rates": {"A": 0.3}, "bias": 0.5, "vocab_size": 50, "tokens_min": 2,
            "tokens_max": 6, "signal_frac": 0.2}
    UNBOUNDED = ("total", "vocab_size", "tokens_max")
    EXAMPLE = {"id": "ex9", "tokens": ["tok1", "grp=B"], "y_true": 1, "groups": {"g": "B"}}
    ODD_VALUES = (None, True, 0, 1, -1, 2, 0.5, -0.5, 1e308, "", "x", "\ud800", [], [1], {},
                  {"A": 1}, {"g": "B"}, {"A": None}, 999)
    # integers beyond float range, alone and in a list or an object
    HUGE_VALUES = (10**400, -(10**400), [10**400], {"A": 10**400}, {"g": 10**400})
    ODD_TEXT = ("NaN", "Infinity", "-Infinity", "[NaN]", '{"A": Infinity}', "-0", "1e400",
                "[" * 100_000, "9" * 5000, '"\\ud800"', '"\\u0000"', '{"g": "B", "g": 1}')

    mutation = dict(
        how=st.sampled_from(["truncate", "flip", "drop", "value", "text"]),
        at=st.integers(min_value=0),
        pick=st.integers(min_value=0, max_value=2**16),
    )

    @classmethod
    def mutate(cls, obj, how, at, pick, unbounded=()) -> bytes:
        """obj's JSON text, mutated; a key in unbounded takes no integer
        beyond float range."""
        text = json.dumps(obj).encode()
        key = sorted(obj)[at % len(obj)]
        if how == "truncate":
            return text[: at % len(text)]
        if how == "flip":
            blob = bytearray(text)
            blob[at % len(blob)] ^= 1 + pick % 255
            return bytes(blob)
        if how == "drop":
            return json.dumps({k: v for k, v in obj.items() if k != key}).encode()
        if how == "value":
            odd = cls.ODD_VALUES + (() if key in unbounded else cls.HUGE_VALUES)
            return json.dumps({**obj, key: odd[pick % len(odd)]}).encode()
        field = f"{json.dumps(key)}: {json.dumps(obj[key])}"
        odd = cls.ODD_TEXT[pick % len(cls.ODD_TEXT)]
        return text.replace(field.encode(), f"{json.dumps(key)}: {odd}".encode())

    @staticmethod
    def run_main(argv):
        """main(argv)'s exit code and stderr, checked."""
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            code = main(argv)
        assert code in (0, 1, 2)
        assert len(err.getvalue().splitlines()) <= 1, err.getvalue()
        assert not [str(w.message) for w in caught]
        return code, err.getvalue()

    @pytest.fixture(scope="class")
    def models(self, tmp_path_factory):
        """A tiny corpus (spec.json, train.jsonl), a base and one vector."""
        wd = tmp_path_factory.mktemp("models")
        (wd / "spec.json").write_text(json.dumps({**self.SPEC, "bias": 0.0}))
        common = ["--data", str(wd / "data"), "--dim", "8", "--hidden", "2", "--seed", "1"]
        for argv in (
            ["gen-data", "--spec", str(wd / "spec.json"), "-o", str(wd / "data")],
            ["train-toy", *common, "--init-only", "-o", str(wd / "base.ckpt")],
            ["train-toy", *common, "--epochs", "2", "--group", "A", "-o", str(wd / "sub.ckpt")],
            ["diff", str(wd / "sub.ckpt"), str(wd / "base.ckpt"), "-o", str(wd / "vec.ckpt")],
        ):
            assert main(argv) == 0
        return wd

    @settings(max_examples=150, deadline=None)
    @given(**mutation)
    def test_mutated_prediction_line_eval(self, tmp_path_factory, how, at, pick):
        wd = tmp_path_factory.mktemp("eval")
        good = json.dumps({**self.PREDICTION, "id": "r0", "groups": {"g": "A"}}).encode()
        (wd / "p.jsonl").write_bytes(
            b"\n".join([good, self.mutate(self.PREDICTION, how, at, pick), good]) + b"\n"
        )
        out, csv = wd / "report.json", wd / "report.csv"
        code, _ = self.run_main(["eval", "--preds", str(wd / "p.jsonl"), "--attribute", "g",
                                 "-o", str(out), "--csv", str(csv)])
        assert out.exists() == csv.exists() == (code == 0)
        shutil.rmtree(wd)

    @settings(max_examples=150, deadline=None)
    @given(**mutation)
    def test_mutated_spec_gen_data(self, tmp_path_factory, how, at, pick):
        wd = tmp_path_factory.mktemp("gen")
        (wd / "spec.json").write_bytes(self.mutate(self.SPEC, how, at, pick, self.UNBOUNDED))
        code, _ = self.run_main(
            ["gen-data", "--spec", str(wd / "spec.json"), "-o", str(wd / "data")]
        )
        assert (wd / "data").exists() == (code == 0)
        shutil.rmtree(wd)

    @settings(max_examples=150, deadline=None)
    @given(**mutation)
    def test_mutated_sweep_config(self, models, tmp_path_factory, how, at, pick):
        wd = tmp_path_factory.mktemp("sweep")
        config = {"mode": "merge", "grid": [0.0, 0.5, 1.0], "seeds": [1], "attribute": "g",
                  "threshold": 0.5, "criterion": "macro_accuracy", "split": "train",
                  "data_dir": str(models / "data"),
                  "runs": {"1": {"base": str(models / "base.ckpt"),
                                 "vectors": [str(models / "vec.ckpt")]}}}
        (wd / "sweep.json").write_bytes(self.mutate(config, how, at, pick))
        code, err = self.run_main(["sweep", "--config", str(wd / "sweep.json"),
                                   "-o", str(wd / "run")])
        undefined = code == 1 and "undefined at every grid point" in err
        assert (wd / "run").exists() == (code == 0 or undefined)
        shutil.rmtree(wd)

    @settings(max_examples=150, deadline=None)
    @given(**mutation)
    def test_mutated_corpus_line_train_toy(self, models, tmp_path_factory, how, at, pick):
        wd = tmp_path_factory.mktemp("train")
        (wd / "data").mkdir()
        shutil.copy(models / "data" / "spec.json", wd / "data" / "spec.json")
        lines = (models / "data" / "train.jsonl").read_bytes().splitlines()
        lines.insert(at % len(lines), self.mutate(self.EXAMPLE, how, at, pick))
        (wd / "data" / "train.jsonl").write_bytes(b"\n".join(lines) + b"\n")
        out = wd / "out.ckpt"
        code, _ = self.run_main(["train-toy", "--data", str(wd / "data"), "--dim", "8",
                                 "--hidden", "2", "--seed", "1", "--epochs", "1",
                                 "-o", str(out)])
        assert out.exists() == (wd / "out.ckpt.manifest.json").exists() == (code == 0)
        shutil.rmtree(wd)
