"""The paper's protocol, driven through fairvec's public functions.

``run_protocol`` makes the same calls, in the same order and with the same
arguments, as ``scripts/run_pipeline.py``: per seed it generates and saves a
corpus, trains the full fine-tune and one model per subgroup, builds the
subgroup task vectors and writes the checkpoints; then it runs the 11-point
merge sweep and the 6-point worst-subgroup injection sweep and emits both run
directories. It prints nothing. Every call goes through a module attribute
(``toymodel.train`` rather than an imported name) so the tracer in
``spans.py`` sees it.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from fairvec import arith, ckpt, corpus, metrics, sweep, toymodel


@dataclass(frozen=True)
class Scale:
    seeds: int
    total: int
    dim: int
    hidden: int
    epochs: int


# The paper's experiment: the 7-group default mix at full size.
PAPER = Scale(seeds=3, total=3546, dim=4096, hidden=32, epochs=20)
# The README default of scripts/run_pipeline.py.
SMALL = Scale(seeds=3, total=700, dim=512, hidden=16, epochs=200)
# Warm-up and self-tests: every code path, a fraction of a second.
TINY = Scale(seeds=1, total=700, dim=32, hidden=4, epochs=1)


@dataclass
class Inputs:
    seeds: list[int]
    scale: Scale


def make_inputs(seed: int, scale: Scale, _work: Path) -> Inputs:
    """Corpus seeds seed, seed+1, ...; the pinned seed 13 gives the paper's 13/14/15."""
    return Inputs(seeds=[seed + i for i in range(scale.seeds)], scale=scale)


def run_protocol(inp: Inputs, out: Path) -> dict:
    """One full protocol run into out; returns the timings the metrics need."""
    sc = inp.scale
    attr = "gender"
    bases, vectors, ffts, trains, groups = {}, {}, {}, {}, None
    digests = {}
    train_s = sweep_s = 0.0
    steps = 0

    for seed in inp.seeds:
        spec = corpus.CorpusSpec(total=sc.total, seed=seed)
        groups = spec.groups()
        tr, te = corpus.gen_corpus(spec)
        data_dir = out / f"seed{seed}" / "data"
        corpus.save_corpus(spec, tr, te, data_dir)

        hy = toymodel.Hyper(epochs=sc.epochs, seed=seed)
        base = toymodel.init_model(sc.dim, sc.hidden, seed).to_checkpoint()
        t = time.perf_counter()
        fft = toymodel.train(tr, hy, dim=sc.dim, hidden=sc.hidden)
        train_s += time.perf_counter() - t
        steps += hy.epochs * math.ceil(len(tr) / hy.batch_size)
        sizes = Counter(ex.groups.get(attr) for ex in tr)
        vecs = []
        for g in groups:
            t = time.perf_counter()
            sub = toymodel.train_subgroup(tr, attr, g, hy, dim=sc.dim, hidden=sc.hidden)
            train_s += time.perf_counter() - t
            steps += hy.epochs * math.ceil(sizes[g] / hy.batch_size)
            vecs.append(arith.diff(sub, base))

        ckpt_dir = out / f"seed{seed}"
        ckpt.write_checkpoint(base, ckpt_dir / "base.ckpt")
        ckpt.write_checkpoint(fft, ckpt_dir / "fft.ckpt")
        for g, v in zip(groups, vecs):
            ckpt.write_checkpoint(v.to_checkpoint(), ckpt_dir / f"vec_{g}.ckpt")
        digests[f"seed{seed}/base.ckpt"] = sweep.sha256_file(ckpt_dir / "base.ckpt")
        digests[f"seed{seed}/fft.ckpt"] = sweep.sha256_file(ckpt_dir / "fft.ckpt")

        bases[seed], vectors[seed], ffts[seed], trains[seed] = base, vecs, fft, tr
        # run_pipeline.py prints this report's macro accuracy
        metrics.evaluate(toymodel.predict(fft, tr), attr)

    cfg = sweep.SweepConfig(grid=sweep.MERGE_GRID, seeds=inp.seeds, attribute=attr)
    t = time.perf_counter()
    res = sweep.lambda_sweep(bases, vectors, cfg, trains)
    sweep_s += time.perf_counter() - t
    sweep.select_lambda(res)
    res.aggregates()  # run_pipeline.py prints the selected row
    sweep.emit(res, out / "merge_sweep", input_digests=digests)

    worst_vec = {}
    for seed in inp.seeds:
        report = metrics.evaluate(toymodel.predict(ffts[seed], trains[seed]), attr)
        worst = sweep.worst_subgroups(report, k=2)
        worst_vec[seed] = vectors[seed][groups.index(worst[0])]

    inj_cfg = sweep.SweepConfig(grid=sweep.INJECT_GRID, seeds=inp.seeds, attribute=attr)
    t = time.perf_counter()
    inj = sweep.inject_sweep(ffts, worst_vec, inj_cfg, trains)
    sweep_s += time.perf_counter() - t
    sweep.emit(inj, out / "inject_sweep", input_digests=digests)
    inj.aggregates()  # run_pipeline.py prints the best mean EOD

    return {
        "ops": 1,
        "failed_ops": 0,
        "train_s": train_s,
        "train_steps": steps,
        "sweep_s": sweep_s,
        "sweep_points": len(res.rows) + len(inj.rows),
    }

