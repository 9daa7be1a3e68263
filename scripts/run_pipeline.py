#!/usr/bin/env python3
"""End-to-end demo: corpus -> models -> vectors -> sweeps -> emitted runs.

Generates a synthetic multi-subgroup corpus for each seed, trains a shared
base, a full fine-tune, and one model per subgroup, builds the subgroup task
vectors, then runs the merge sweep and the worst-subgroup injection sweep and
writes both run directories (JSON, CSV, SVG charts, manifest) under --out.
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

from fairvec.arith import diff
from fairvec.corpus import CorpusSpec, gen_corpus, save_corpus
from fairvec.ckpt import write_checkpoint
from fairvec.metrics import evaluate
from fairvec.sweep import (
    INJECT_GRID,
    MERGE_GRID,
    SweepConfig,
    emit,
    inject_sweep,
    lambda_sweep,
    select_lambda,
    sha256_file,
    worst_subgroups,
)
from fairvec.toymodel import Hyper, init_model, predict, train, train_subgroup


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=Path("runs"), help="output root")
    ap.add_argument("--seeds", type=int, nargs="+", default=[13, 14, 15])
    ap.add_argument("--total", type=int, default=700, help="examples per corpus")
    ap.add_argument("--dim", type=int, default=512)
    ap.add_argument("--hidden", type=int, default=16)
    ap.add_argument("--epochs", type=int, default=200)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    attr = "gender"
    bases, vectors, ffts, trains, groups = {}, {}, {}, {}, None
    digests = {}

    for seed in args.seeds:
        spec = CorpusSpec(total=args.total, seed=seed)
        groups = spec.groups()
        tr, te = gen_corpus(spec)
        data_dir = args.out / f"seed{seed}" / "data"
        save_corpus(spec, tr, te, data_dir)
        print(f"[seed {seed}] corpus: {len(tr)} train / {len(te)} test")

        hy = Hyper(epochs=args.epochs, seed=seed)
        base = init_model(args.dim, args.hidden, seed).to_checkpoint()
        fft = train(tr, hy, dim=args.dim, hidden=args.hidden)
        vecs = []
        for g in groups:
            sub = train_subgroup(tr, attr, g, hy, dim=args.dim, hidden=args.hidden)
            vecs.append(diff(sub, base))

        ckpt_dir = args.out / f"seed{seed}"
        write_checkpoint(base, ckpt_dir / "base.ckpt")
        write_checkpoint(fft, ckpt_dir / "fft.ckpt")
        for g, v in zip(groups, vecs):
            write_checkpoint(v.to_checkpoint(), ckpt_dir / f"vec_{g}.ckpt")
        digests[f"seed{seed}/base.ckpt"] = sha256_file(ckpt_dir / "base.ckpt")
        digests[f"seed{seed}/fft.ckpt"] = sha256_file(ckpt_dir / "fft.ckpt")

        bases[seed], vectors[seed], ffts[seed], trains[seed] = base, vecs, fft, tr
        acc = evaluate(predict(fft, tr), attr).macro_accuracy
        print(f"[seed {seed}] full fine-tune macro accuracy {acc:.4f}")

    cfg = SweepConfig(grid=MERGE_GRID, seeds=args.seeds, attribute=attr)
    res = lambda_sweep(bases, vectors, cfg, trains)
    lam = select_lambda(res)
    agg = res.aggregates()[lam]["macro_accuracy"]
    emit(res, args.out / "merge_sweep", input_digests=digests)
    print(f"merge sweep: lambda*={lam} "
          f"macro accuracy {agg['mean']:.4f} +/- {agg['stderr']:.4f}")

    # per-seed worst subgroup drives the injection sweep
    worst_vec = {}
    for seed in args.seeds:
        report = evaluate(predict(ffts[seed], trains[seed]), attr)
        worst = worst_subgroups(report, k=2)
        worst_vec[seed] = vectors[seed][groups.index(worst[0])]
        print(f"[seed {seed}] worst subgroups: {', '.join(worst)}")

    inj_cfg = SweepConfig(grid=INJECT_GRID, seeds=args.seeds, attribute=attr)
    inj = inject_sweep(ffts, worst_vec, inj_cfg, trains)
    emit(inj, args.out / "inject_sweep", input_digests=digests)
    inj_agg = inj.aggregates()
    best_eod = min(inj_agg[l]["overall_eod"]["mean"] for l in INJECT_GRID)
    print(f"inject sweep: best mean EOD {best_eod:.4f} across grid")

    print(f"done in {time.perf_counter() - started:.1f}s -> {args.out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
