"""The paper's experiment as one call. Per seed: a corpus, a seeded base, a
full fine-tune (fft) and one fine-tune per subgroup, each trained from that
base, and their task vectors, all written under out; then the merge sweep
and the injection sweep of each seed's worst-subgroup vector into its fft,
emitted as two run directories."""

from __future__ import annotations

from dataclasses import dataclass
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
    merge_cfg, inject_cfg = (
        sweep.SweepConfig(grid=grid, seeds=list(seeds), attribute=ATTRIBUTE)
        for grid in (sweep.MERGE_GRID, sweep.INJECT_GRID)
    )
    runs, digests = {}, {}
    for seed in seeds:
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

        report = metrics.evaluate(toymodel.predict(fft, tr), ATTRIBUTE)
        worst = sweep.worst_subgroups(report, k=2)
        runs[seed] = SeedRun(tr, te, base, fft, vectors, report, worst)

    trains = {s: r.train for s, r in runs.items()}
    merge = sweep.lambda_sweep(
        {s: r.base for s, r in runs.items()},
        {s: list(r.vectors.values()) for s, r in runs.items()}, merge_cfg, trains,
    )
    sweep.emit(merge, out / "merge_sweep", input_digests=digests)
    inject = sweep.inject_sweep(
        {s: r.fft for s, r in runs.items()},
        {s: r.vectors[r.worst[0]] for s, r in runs.items()}, inject_cfg, trains,
    )
    sweep.emit(inject, out / "inject_sweep", input_digests=digests)
    return ProtocolResult(runs, merge, inject)
