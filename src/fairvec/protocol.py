"""The paper's experiment as one call. Per seed: a corpus, a seeded base, a
full fine-tune (fft) and one fine-tune per subgroup, each trained from that
base, and their task vectors, all written under out; then, off one reporter
of the seed's train split (``sweep.split_reporter``), the fft's report, the
merge grid of the subgroup vectors into the base and the injection grid of
the worst-subgroup vector into the fft. The reporter is dropped before the
next seed; after the last seed both sweeps are assembled grid-major and
emitted as two run directories."""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from . import arith, corpus, metrics, sweep, toymodel
from .ckpt import Checkpoint, write_checkpoint

ATTRIBUTE = "gender"


@dataclass
class SeedRun:
    train: list[corpus.Example]
    test: list[corpus.Example]
    base: Checkpoint
    fft: Checkpoint
    vectors: dict[str, arith.TaskVector]  # subgroup -> its fine-tune minus base
    report: metrics.GroupReport  # the fft evaluated on train
    worst: list[str]  # the report's two worst subgroups, worst first


@dataclass
class ProtocolResult:
    seeds: dict[int, SeedRun]
    merge: sweep.SweepResult
    inject: sweep.SweepResult


def run(out, seeds=tuple(sweep.DEFAULT_SEEDS), total=700, dim=512, hidden=16,
        epochs=200) -> ProtocolResult:
    """Run the protocol into out; bad seeds fail before any training."""
    out = Path(out)
    merge_cfg = sweep.SweepConfig(grid=sweep.MERGE_GRID, seeds=list(seeds), attribute=ATTRIBUTE)
    inject_cfg = replace(merge_cfg, grid=sweep.INJECT_GRID)
    runs, digests, merged, injected = {}, {}, {}, {}
    for seed in merge_cfg.seeds:
        spec = corpus.CorpusSpec(attribute=ATTRIBUTE, total=total, seed=seed)
        tr, te = corpus.gen_corpus(spec)
        seed_dir = out / f"seed{seed}"
        corpus.save_corpus(spec, tr, te, seed_dir / "data")

        hy = toymodel.Hyper(epochs=epochs, seed=seed)
        base = toymodel.init_model(dim, hidden, seed).to_checkpoint()
        fft = toymodel.train(tr, hy, base=base)
        vectors = {}
        for g in spec.groups():
            sub = toymodel.train_subgroup(tr, ATTRIBUTE, g, hy, base=base)
            vectors[g] = arith.diff(sub, base)
        write_checkpoint(base, seed_dir / "base.ckpt")
        write_checkpoint(fft, seed_dir / "fft.ckpt")
        for g, v in vectors.items():
            write_checkpoint(v.to_checkpoint(), seed_dir / f"vec_{g}.ckpt")
        for name in ("base.ckpt", "fft.ckpt"):
            digests[f"seed{seed}/{name}"] = sweep.sha256_file(seed_dir / name)

        report = sweep.split_reporter(tr, ATTRIBUTE, merge_cfg.threshold, base)
        fft_report = report(fft)
        worst = sweep.worst_subgroups(fft_report, k=2)
        runs[seed] = SeedRun(tr, te, base, fft, vectors, fft_report, worst)
        merged[seed] = sweep.grid_reports(report, base, list(vectors.values()), merge_cfg.grid)
        injected[seed] = sweep.grid_reports(report, fft, [vectors[worst[0]]], inject_cfg.grid)
        del report  # before the next seed trains: one seed's arrays at a time

    merge = sweep.assemble(merge_cfg, merged, "merge")
    sweep.emit(merge, out / "merge_sweep", input_digests=digests)
    inject = sweep.assemble(inject_cfg, injected, "inject")
    sweep.emit(inject, out / "inject_sweep", input_digests=digests)
    return ProtocolResult(runs, merge, inject)
