"""Command-line interface: one binary, stable subcommands, machine-readable
exit codes (0 success, 1 runtime error, 2 validation error).

A command reads every input file through its ``_Run``, once, as bytes: a
missing file is a usage error at that read, and the bytes are hashed on one
worker thread while the command parses them. Every file-producing command
writes its outputs atomically and drops a JSON run manifest recording the
command, the resolved configuration, the digest of each file it read (of the
bytes as read, even when the output overwrites that input), the tool version
and the wall-clock duration. ``eval`` reads its log straight into columns
(``metrics.prediction_columns``) and builds no per-record objects.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import re
import sys
import time

from . import __version__, arith, corpus, metrics, sweep as sweep_mod, toymodel
from .atomic import atomic_open
from .ckpt import Checkpoint, parse_checkpoint, write_checkpoint
from .errors import FairvecError
from .sweep import SweepConfig

# The commands call neither name; both stay importable from this module
# because perfbench's tracer patches them here by name.
from .ckpt import read_checkpoint  # noqa: F401
from .sweep import sha256_file  # noqa: F401

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


def _sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


class _Run:
    """One command's name, start time and input files. Each read starts the
    sha256 of the bytes read on one worker thread (hashlib releases the GIL on
    large buffers); the first read of a path is the one its digest records."""

    def __init__(self, command):
        # imported here, not at the top: the import adds ~0.5 MB of RSS to
        # every process that imports this module without running a command
        from concurrent.futures import ThreadPoolExecutor

        self.command = command
        self.started = time.monotonic()
        self._pool = ThreadPoolExecutor(max_workers=1)
        self._digests = {}
        self._last = None

    def read(self, path: str) -> bytes:
        if not isinstance(path, str):
            raise UsageError(f"input path must be a string, got {path!r}")
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except FileNotFoundError:
            raise UsageError(f"no such file: {path}") from None
        if path not in self._digests:
            # Hash one file at a time: a queue of unhashed files would hold
            # all their bytes at once.
            if self._last is not None:
                self._last.result()
            self._digests[path] = self._last = self._pool.submit(_sha256, blob)
        return blob

    def text(self, path) -> io.TextIOWrapper:
        """The file as open(path, encoding="utf-8") reads it: same line
        splitting, same decode errors."""
        return io.TextIOWrapper(io.BytesIO(self.read(path)), encoding="utf-8")

    def checkpoint(self, path) -> Checkpoint:
        return parse_checkpoint(self.read(path))

    def digests(self, paths) -> dict[str, str]:
        return {p: self._digests[p].result() for p in paths}

    def write_manifest(self, path, config):
        """The manifest records the digest of every file this run read."""
        manifest = {
            "command": self.command,
            "config": config,
            "input_digests": self.digests(self._digests),
            "version": __version__,
            "duration_s": time.monotonic() - self.started,
        }
        with atomic_open(path) as fh:
            json.dump(manifest, fh, sort_keys=True, indent=2)
            fh.write("\n")

    def close(self):
        """Join the worker; a digest not yet started is dropped."""
        self._pool.shutdown(wait=True, cancel_futures=True)


def _parse_vec_arg(text):
    path, sep, lam = text.rpartition(":")
    if not sep or not path:
        raise UsageError(f"--vec expects path:lambda, got {text!r}")
    try:
        lam = float(lam)
    except ValueError:
        raise UsageError(f"bad lambda in --vec {text!r}") from None
    if not arith.is_finite_f32(lam):
        raise UsageError(f"lambda in --vec {text!r} must be finite")
    return path, lam


def cmd_diff(args, run):
    task = run.checkpoint(args.task)
    base = run.checkpoint(args.base)
    tv = arith.diff(task, base, intersect=args.intersect)
    write_checkpoint(tv.to_checkpoint(), args.output)
    run.write_manifest(args.output + ".manifest.json", {"intersect": args.intersect})


def cmd_edit(args, run):
    """apply and inject: model + lambda * vector, one-part merge."""
    if not arith.is_finite_f32(args.lam):
        raise UsageError(f"--lambda must be finite, got {args.lam}")
    model = run.checkpoint(args.model)
    tv = arith.TaskVector.from_checkpoint(run.checkpoint(args.vector))
    write_checkpoint(arith.inject(model, tv, args.lam), args.output)
    run.write_manifest(args.output + ".manifest.json", {"lambda": args.lam})


def cmd_merge(args, run):
    vecs = [_parse_vec_arg(spec) for spec in args.vec or []]
    base = run.checkpoint(args.base)
    # Each vector is read when the fold reaches it and let go once it is
    # added, so one vector's bytes are live at a time, however many there are.
    parts = (
        arith.WeightedVector(arith.TaskVector.from_checkpoint(run.checkpoint(path)), lam)
        for path, lam in vecs
    )
    out = arith.merge(base, parts)
    write_checkpoint(out, args.output)
    run.write_manifest(
        args.output + ".manifest.json", {"vectors": [list(v) for v in vecs]}
    )


def cmd_eval(args, run):
    columns, y_pred = metrics.prediction_columns(
        run.text(args.preds), args.attribute, args.threshold, args.preds
    )
    report = columns.report(y_pred)
    text = json.dumps(report.to_dict(), sort_keys=True, indent=2)
    if args.output:
        with atomic_open(args.output) as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if args.csv:
        with atomic_open(args.csv) as fh:
            fh.write(report.to_csv())
    if args.output or args.csv:
        run.write_manifest(
            (args.output or args.csv) + ".manifest.json",
            {"attribute": args.attribute, "threshold": args.threshold},
        )


def cmd_gen_data(args, run):
    spec = corpus.CorpusSpec.from_json(run.text(args.spec).read())
    train, test = corpus.gen_corpus(spec)
    corpus.save_corpus(spec, train, test, args.output)
    run.write_manifest(
        os.path.join(args.output, "manifest.json"), json.loads(spec.to_json())
    )


def cmd_train_toy(args, run):
    train_path = os.path.join(args.data, "train.jsonl")
    lines = run.text(train_path)
    spec_path = os.path.join(args.data, "spec.json")
    spec = corpus.CorpusSpec.from_json(run.text(spec_path).read())
    train_ex = corpus.parse_examples(lines, train_path)
    hyper = toymodel.Hyper(
        epochs=args.epochs, lr=args.lr, batch_size=args.batch_size, seed=args.seed
    )
    config = {
        "seed": args.seed, "epochs": args.epochs, "lr": args.lr,
        "batch_size": args.batch_size, "group": args.group, "lora": args.lora,
        "init_only": args.init_only,
    }
    if args.init_only:
        ckpt = toymodel.init_model(args.dim, args.hidden, args.seed).to_checkpoint(
            {"seed": str(args.seed), "subset": "init"}
        )
    else:
        base = run.checkpoint(args.base) if args.base else None
        meta = None
        if args.group:
            train_ex = toymodel.subgroup(train_ex, spec.attribute, args.group)
            meta = {"subset": args.group}
        if args.lora:
            if base is None:
                base = toymodel.init_model(args.dim, args.hidden, args.seed).to_checkpoint()
            ckpt, _ = toymodel.train_lora(
                train_ex, base, hyper, rank=args.rank, alpha=args.alpha, metadata=meta
            )
            config.update({"rank": args.rank, "alpha": args.alpha})
        else:
            ckpt = toymodel.train(
                train_ex, hyper, dim=args.dim, hidden=args.hidden, base=base,
                metadata=meta,
            )
    # the written model's shape: with --base it is the base's, not --dim/--hidden
    config["dim"], config["hidden"] = ckpt.tensors["W1"].shape
    write_checkpoint(ckpt, args.output)
    run.write_manifest(args.output + ".manifest.json", config)


_KINDS = {dict: "an object", list: "a list", str: "a string", int: "an integer",
          float: "a number"}


def _config_value(value, kind, name):
    """value; UsageError unless it is a kind (float: a number that
    metrics.is_json_number takes; no kind takes a bool)."""
    if not (metrics.is_json_number(value) if kind is float
            else isinstance(value, kind) and not isinstance(value, bool)):
        raise UsageError(f"sweep config {name} must be {_KINDS[kind]}, got {value!r}")
    return value


def _config_field(cfg, key, kind, default=None, within=""):
    """cfg[key] (default if absent); UsageError unless it is a kind. within
    names cfg's place in the config ("" at the top level)."""
    return _config_value(cfg.get(key, default), kind, _config_name(key, within))


def _config_list(cfg, key, kind, default=None, within=""):
    """cfg[key] (default if absent); UsageError unless it is a list of kinds."""
    name = _config_name(key, within)
    items = _config_value(cfg.get(key, default), list, name)
    return [_config_value(v, kind, f"{name}[{j}]") for j, v in enumerate(items)]


def _config_name(key, within):
    return f"{within}[{key!r}]" if within else repr(key)


def cmd_sweep(args, run):
    cfg = json.load(run.text(args.config))
    if not isinstance(cfg, dict):
        raise UsageError(f"sweep config must be a JSON object, got {cfg!r}")
    mode = args.mode or cfg.get("mode")
    if mode not in ("merge", "inject"):
        raise UsageError(f"sweep mode must be merge or inject, got {mode!r}")

    grid = _config_list(cfg, "grid", float, []) or (
        sweep_mod.MERGE_GRID if mode == "merge" else sweep_mod.INJECT_GRID
    )
    config = SweepConfig(
        grid=[float(v) for v in grid],
        seeds=_config_list(cfg, "seeds", int, sweep_mod.DEFAULT_SEEDS),
        attribute=_config_field(cfg, "attribute", str, SweepConfig.attribute),
        threshold=float(_config_field(cfg, "threshold", float, SweepConfig.threshold)),
        criterion=cfg.get("criterion", SweepConfig.criterion),
        split=cfg.get("split", SweepConfig.split),
    )
    data_dir = _config_field(cfg, "data_dir", str)
    runs = _config_field(cfg, "runs", dict)
    # each seed's checkpoint paths: (base, [vectors]) or (sft, [vector])
    first, rest = ("base", "vectors") if mode == "merge" else ("sft", "vector")
    paths = {}
    for seed_str, entry in runs.items():
        within = f"'runs'[{seed_str!r}]"
        _config_value(entry, dict, within)
        paths[int(seed_str)] = (
            _config_field(entry, first, str, within=within),
            _config_list(entry, rest, str, within=within) if mode == "merge"
            else [_config_field(entry, rest, str, within=within)],
        )
    for seed in config.seeds:
        if seed not in paths:
            raise UsageError(f"seed {seed} has no entry in runs")
    split_path = os.path.join(data_dir, f"{config.split}.jsonl")
    eval_data = corpus.parse_examples(run.text(split_path), split_path)

    models, vectors, checkpoints = {}, {}, []
    for seed, (one, many) in paths.items():
        models[seed] = run.checkpoint(one)
        vectors[seed] = [
            arith.TaskVector.from_checkpoint(run.checkpoint(p)) for p in many
        ]
        checkpoints += [one, *many]
    if mode == "merge":
        result = sweep_mod.lambda_sweep(models, vectors, config, eval_data)
    else:
        worst = {seed: vecs[0] for seed, vecs in vectors.items()}
        result = sweep_mod.inject_sweep(models, worst, config, eval_data)

    sweep_mod.emit(result, args.output, input_digests=run.digests(checkpoints))
    run.write_manifest(os.path.join(args.output, "run_manifest.json"), cfg)
    best = sweep_mod.select_lambda(result)
    print(json.dumps({"selected_lambda": best}))


class _Parser(argparse.ArgumentParser):
    """Takes "-1e-3", "-inf" and "-nan" after a float flag for its value:
    argparse's own negative-number test knows only forms like "-1" and
    "-0.5", and takes any other word that starts with "-" for an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fairvec",
        description="Task-vector model editing and subgroup fairness evaluation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("diff", help="task vector = task - base")
    p.add_argument("task")
    p.add_argument("base")
    p.add_argument("--intersect", action="store_true",
                   help="operate on the common tensor names only")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_diff)

    p = sub.add_parser("apply", help="base + lambda * vector")
    p.add_argument("model", metavar="base")
    p.add_argument("vector")
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_edit)

    p = sub.add_parser("merge", help="base + sum_i lambda_i * vector_i")
    p.add_argument("base")
    p.add_argument("--vec", action="append", metavar="PATH:LAMBDA",
                   help="repeatable; order-significant")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_merge)

    p = sub.add_parser("inject", help="sft + lambda * worst-subgroup vector")
    p.add_argument("model", metavar="sft")
    p.add_argument("vector")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_edit)

    p = sub.add_parser("eval", help="fairness report from a prediction log")
    p.add_argument("--preds", required=True)
    p.add_argument("--attribute", required=True)
    p.add_argument("--threshold", type=float, default=metrics.DEFAULT_THRESHOLD)
    p.add_argument("-o", "--output", help="write report JSON here instead of stdout")
    p.add_argument("--csv", help="also write the report as CSV")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("gen-data", help="generate a synthetic corpus")
    p.add_argument("--spec", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train-toy", help="train the toy classifier")
    p.add_argument("--data", required=True)
    p.add_argument("--group")
    p.add_argument("--base", help="starting checkpoint (defaults to seeded init)")
    p.add_argument("--lora", action="store_true")
    p.add_argument("--rank", type=int, default=toymodel.DEFAULT_RANK)
    p.add_argument("--alpha", type=float, default=toymodel.DEFAULT_ALPHA)
    p.add_argument("--init-only", action="store_true",
                   help="emit the seeded initialization without training")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--epochs", type=int, default=toymodel.Hyper.epochs)
    p.add_argument("--lr", type=float, default=toymodel.Hyper.lr)
    p.add_argument("--batch-size", type=int, default=toymodel.Hyper.batch_size)
    p.add_argument("--dim", type=int, default=toymodel.DEFAULT_DIM)
    p.add_argument("--hidden", type=int, default=toymodel.DEFAULT_HIDDEN)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_train_toy)

    p = sub.add_parser("sweep", help="run a merge or injection sweep")
    p.add_argument("--mode", choices=["merge", "inject"])
    p.add_argument("--config", required=True)
    p.add_argument("-o", "--output", required=True, help="run directory")
    p.set_defaults(fn=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    run = _Run(args.command)
    try:
        args.fn(args, run)
        return EXIT_OK
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (KeyError, ValueError, RecursionError) as exc:
        # RecursionError: a spec or config whose JSON nests too deeply
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FairvecError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RUNTIME
    finally:
        run.close()


if __name__ == "__main__":
    sys.exit(main())
