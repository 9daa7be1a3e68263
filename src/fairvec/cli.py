"""Command-line interface: one binary, stable subcommands, machine-readable
exit codes (0 success, 1 runtime error, 2 validation error).

Every file-producing command writes its outputs atomically and drops a JSON
run manifest recording the resolved configuration, input digests, tool
version, and wall-clock duration.

A command reads each input file once, as bytes, and hashes those bytes on
one worker thread while it parses them and does its work, so a manifest
records the digest of each input as the command read it, even when the
command's output overwrites that input. ``eval`` reads its log straight into
columns (``metrics.prediction_columns``) and builds no per-record objects.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
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


def _require_files(*paths):
    for p in paths:
        if not os.path.exists(p):
            raise UsageError(f"no such file: {p}")


def _sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


class _Run:
    """One command's start time and input files. Each read starts the sha256
    of the bytes read on one worker thread (hashlib releases the GIL on large
    buffers); the first read of a path is the one its digest records."""

    def __init__(self):
        # imported here, not at the top: the import adds ~0.5 MB of RSS to
        # every process that imports this module without running a command
        from concurrent.futures import ThreadPoolExecutor

        self.started = time.monotonic()
        self._pool = ThreadPoolExecutor(max_workers=1)
        self._digests = {}
        self._last = None

    def read(self, path) -> bytes:
        with open(path, "rb") as fh:
            blob = fh.read()
        if path not in self._digests:
            # Hash one file at a time: a queue of unhashed files would hold
            # all their bytes at once (merge reads the base and every vector
            # before it merges).
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

    def write_manifest(self, path, command, config, inputs):
        manifest = {
            "command": command,
            "config": config,
            "input_digests": self.digests(inputs),
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
        return path, float(lam)
    except ValueError:
        raise UsageError(f"bad lambda in --vec {text!r}") from None


def cmd_diff(args, run):
    _require_files(args.task, args.base)
    task = run.checkpoint(args.task)
    base = run.checkpoint(args.base)
    tv = arith.diff(task, base, intersect=args.intersect)
    write_checkpoint(tv.to_checkpoint(), args.output)
    run.write_manifest(
        args.output + ".manifest.json", "diff", {"intersect": args.intersect},
        [args.task, args.base],
    )
    return EXIT_OK


def cmd_apply(args, run):
    _require_files(args.base, args.vector)
    base = run.checkpoint(args.base)
    tv = arith.TaskVector.from_checkpoint(run.checkpoint(args.vector))
    out = arith.merge(base, [arith.WeightedVector(tv, args.lam)])
    write_checkpoint(out, args.output)
    run.write_manifest(
        args.output + ".manifest.json", "apply", {"lambda": args.lam},
        [args.base, args.vector],
    )
    return EXIT_OK


def cmd_merge(args, run):
    _require_files(args.base)
    parts = []
    inputs = [args.base]
    for spec in args.vec or []:
        path, lam = _parse_vec_arg(spec)
        _require_files(path)
        inputs.append(path)
        tv = arith.TaskVector.from_checkpoint(run.checkpoint(path))
        parts.append(arith.WeightedVector(tv, lam))
    base = run.checkpoint(args.base)
    out = arith.merge(base, parts)
    write_checkpoint(out, args.output)
    run.write_manifest(
        args.output + ".manifest.json", "merge",
        {"vectors": [list(_parse_vec_arg(v)) for v in args.vec or []]},
        inputs,
    )
    return EXIT_OK


def cmd_inject(args, run):
    _require_files(args.sft, args.vector)
    sft = run.checkpoint(args.sft)
    tv = arith.TaskVector.from_checkpoint(run.checkpoint(args.vector))
    out = arith.inject(sft, tv, args.lam)
    write_checkpoint(out, args.output)
    run.write_manifest(
        args.output + ".manifest.json", "inject", {"lambda": args.lam},
        [args.sft, args.vector],
    )
    return EXIT_OK


def cmd_eval(args, run):
    _require_files(args.preds)
    columns, y_pred = metrics.prediction_columns(
        run.text(args.preds), args.attribute, args.threshold, args.preds
    )
    report = columns.report(y_pred)
    text = json.dumps(report.to_dict(), sort_keys=True, indent=2)
    if args.output:
        with atomic_open(args.output) as fh:
            fh.write(text + "\n")
        run.write_manifest(
            args.output + ".manifest.json", "eval",
            {"attribute": args.attribute, "threshold": args.threshold},
            [args.preds],
        )
    else:
        print(text)
    if args.csv:
        with atomic_open(args.csv) as fh:
            fh.write(report.to_csv())
    return EXIT_OK


def cmd_gen_data(args, run):
    _require_files(args.spec)
    spec = corpus.CorpusSpec.from_json(run.text(args.spec).read())
    train, test = corpus.gen_corpus(spec)
    corpus.save_corpus(spec, train, test, args.output)
    run.write_manifest(
        os.path.join(args.output, "manifest.json"), "gen-data",
        json.loads(spec.to_json()), [args.spec],
    )
    return EXIT_OK


def cmd_train_toy(args, run):
    train_path = os.path.join(args.data, "train.jsonl")
    _require_files(train_path)
    spec = corpus.load_spec(args.data)
    train_ex = corpus.parse_examples(run.text(train_path), train_path)
    hyper = toymodel.Hyper(
        epochs=args.epochs, lr=args.lr, batch_size=args.batch_size, seed=args.seed
    )
    inputs = [train_path]
    config = {
        "seed": args.seed, "epochs": args.epochs, "lr": args.lr,
        "batch_size": args.batch_size, "dim": args.dim, "hidden": args.hidden,
        "group": args.group, "lora": args.lora, "init_only": args.init_only,
    }
    if args.init_only:
        ckpt = toymodel.init_model(args.dim, args.hidden, args.seed).to_checkpoint(
            {"seed": str(args.seed), "subset": "init"}
        )
    else:
        base = None
        if args.base:
            base = run.checkpoint(args.base)
            inputs.append(args.base)
        if args.lora:
            if base is None:
                base = toymodel.init_model(args.dim, args.hidden, args.seed).to_checkpoint()
            ckpt, _ = toymodel.train_lora(
                train_ex, base, hyper, rank=args.rank, alpha=args.alpha
            )
            config.update({"rank": args.rank, "alpha": args.alpha})
        elif args.group:
            ckpt = toymodel.train_subgroup(
                train_ex, spec.attribute, args.group, hyper, dim=args.dim,
                hidden=args.hidden, base=base,
            )
        else:
            ckpt = toymodel.train(
                train_ex, hyper, dim=args.dim, hidden=args.hidden, base=base
            )
    write_checkpoint(ckpt, args.output)
    run.write_manifest(args.output + ".manifest.json", "train-toy", config, inputs)
    return EXIT_OK


def cmd_sweep(args, run):
    _require_files(args.config)
    cfg = json.load(run.text(args.config))
    mode = args.mode or cfg.get("mode")
    if mode not in ("merge", "inject"):
        raise UsageError(f"sweep mode must be merge or inject, got {mode!r}")

    grid = cfg.get("grid") or (
        sweep_mod.MERGE_GRID if mode == "merge" else sweep_mod.INJECT_GRID
    )
    config = SweepConfig(
        grid=[float(v) for v in grid],
        seeds=[int(s) for s in cfg.get("seeds", sweep_mod.DEFAULT_SEEDS)],
        attribute=cfg.get("attribute", "gender"),
        threshold=float(cfg.get("threshold", 0.5)),
        criterion=cfg.get("criterion", "macro_accuracy"),
        split=cfg.get("split", "train"),
    )
    data_dir = cfg["data_dir"]
    _require_files(os.path.join(data_dir, "train.jsonl"))
    _, train_ex, test_ex = corpus.load_corpus(data_dir)
    eval_data = train_ex if config.split == "train" else test_ex

    runs = cfg["runs"]
    run_seeds = {int(s) for s in runs}
    for seed in config.seeds:
        if seed not in run_seeds:
            raise UsageError(f"seed {seed} has no entry in runs")
    checkpoints = []
    if mode == "merge":
        bases, vectors = {}, {}
        for seed_str, paths in runs.items():
            seed = int(seed_str)
            _require_files(paths["base"], *paths["vectors"])
            bases[seed] = run.checkpoint(paths["base"])
            vectors[seed] = [
                arith.TaskVector.from_checkpoint(run.checkpoint(p))
                for p in paths["vectors"]
            ]
            checkpoints += [paths["base"], *paths["vectors"]]
        result = sweep_mod.lambda_sweep(bases, vectors, config, eval_data)
    else:
        sfts, worst = {}, {}
        for seed_str, paths in runs.items():
            seed = int(seed_str)
            _require_files(paths["sft"], paths["vector"])
            sfts[seed] = run.checkpoint(paths["sft"])
            worst[seed] = arith.TaskVector.from_checkpoint(
                run.checkpoint(paths["vector"])
            )
            checkpoints += [paths["sft"], paths["vector"]]
        result = sweep_mod.inject_sweep(sfts, worst, config, eval_data)

    sweep_mod.emit(result, args.output, input_digests=run.digests(checkpoints))
    run.write_manifest(
        os.path.join(args.output, "run_manifest.json"), "sweep", cfg, [args.config]
    )
    best = sweep_mod.select_lambda(result)
    print(json.dumps({"selected_lambda": best}))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.add_argument("base")
    p.add_argument("vector")
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_apply)

    p = sub.add_parser("merge", help="base + sum_i lambda_i * vector_i")
    p.add_argument("base")
    p.add_argument("--vec", action="append", metavar="PATH:LAMBDA",
                   help="repeatable; order-significant")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_merge)

    p = sub.add_parser("inject", help="sft + lambda * worst-subgroup vector")
    p.add_argument("sft")
    p.add_argument("vector")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_inject)

    p = sub.add_parser("eval", help="fairness report from a prediction log")
    p.add_argument("--preds", required=True)
    p.add_argument("--attribute", required=True)
    p.add_argument("--threshold", type=float, default=0.5)
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
    p.add_argument("--rank", type=int, default=8)
    p.add_argument("--alpha", type=float, default=16.0)
    p.add_argument("--init-only", action="store_true",
                   help="emit the seeded initialization without training")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--batch-size", type=int, default=32)
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
    run = _Run()
    try:
        return args.fn(args, run)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (KeyError, ValueError) as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FairvecError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    finally:
        run.close()


if __name__ == "__main__":
    sys.exit(main())
