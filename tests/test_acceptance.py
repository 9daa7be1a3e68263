"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Every criterion carries its own runtime budget where
one is stated.
"""

import json
import statistics
import struct
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from fairvec.arith import add, apply, diff, inject, merge, negate, scale
from fairvec.arith import WeightedVector
from fairvec.ckpt import read_checkpoint, write_checkpoint
from fairvec.corpus import CorpusSpec, gen_corpus
from fairvec import protocol
from fairvec.errors import CheckpointError
from fairvec.metrics import (
    PredictionRecord,
    accuracy_parity_gap,
    dpd,
    eod,
    evaluate,
    group_accuracy,
)
from fairvec.svg import line_chart
from fairvec.sweep import (
    INJECT_GRID,
    MERGE_GRID,
    SweepConfig,
    emit,
    lambda_sweep,
    select_lambda,
)
from fairvec.toymodel import (
    Hyper,
    grad_check,
    init_model,
    predict,
    train,
    train_lora,
    train_subgroup,
)

from conftest import random_checkpoint, random_checkpoint_pair, run_cli
from oracle import (
    binary_dpd_fraction,
    binary_eod_fraction,
    oracle_accuracy,
    oracle_accuracy_parity,
    oracle_dpd,
    oracle_eod,
)


@contextmanager
def criterion(n, label):
    try:
        yield
    except BaseException:
        print(f"criterion {n} ({label}): FAIL")
        raise
    print(f"criterion {n} ({label}): PASS")


def test_criterion_1_checkpoint_roundtrip(tmp_path):
    with criterion(1, "checkpoint round-trip and fuzzing"):
        started = time.perf_counter()
        rng = np.random.default_rng(1001)
        path = tmp_path / "rt.ckpt"

        for _ in range(1000):
            ckpt = random_checkpoint(rng, max_tensors=4, max_dim=5)
            write_checkpoint(ckpt, path)
            first = path.read_bytes()
            back = read_checkpoint(path)
            assert back == ckpt
            write_checkpoint(back, path)
            assert path.read_bytes() == first

        # fuzz: mutate a valid container and require typed errors or success
        seed_ckpt = random_checkpoint(rng, max_tensors=3, max_dim=4)
        write_checkpoint(seed_ckpt, path)
        blob = path.read_bytes()
        fuzz_path = tmp_path / "fuzz.ckpt"
        for _ in range(10_000):
            kind = int(rng.integers(4))
            if kind == 0:  # truncate
                cut = int(rng.integers(0, len(blob)))
                mutated = blob[:cut]
            elif kind == 1:  # flip one byte
                pos = int(rng.integers(len(blob)))
                mutated = (
                    blob[:pos]
                    + bytes([blob[pos] ^ int(rng.integers(1, 256))])
                    + blob[pos + 1:]
                )
            elif kind == 2:  # random garbage
                mutated = rng.integers(0, 256, int(rng.integers(0, 64)), np.uint8).tobytes()
            else:  # lie about the header length
                mutated = struct.pack("<Q", int(rng.integers(0, 1 << 34))) + blob[8:]
            fuzz_path.write_bytes(mutated)
            try:
                read_checkpoint(fuzz_path)
            except CheckpointError:
                pass  # typed failure is the contract; anything else propagates

        assert time.perf_counter() - started < 30.0


def test_criterion_2_task_arithmetic_algebra():
    with criterion(2, "task-vector algebra"):
        started = time.perf_counter()
        rng = np.random.default_rng(2002)
        for _ in range(200):
            a, b = random_checkpoint_pair(rng)
            v = diff(a, b)

            zero_merged = merge(b, [WeightedVector(v, 0.0)])
            assert zero_merged.tensors == b.tensors  # bitwise

            rebuilt = apply(b, v)
            for name in a.names():
                np.testing.assert_allclose(
                    rebuilt.tensors[name].to_numpy(),
                    a.tensors[name].to_numpy(),
                    rtol=1e-6,
                    atol=1e-6,
                )

            twice = scale(v, 2.0)
            summed = add(v, v)
            for name in v.names():
                np.testing.assert_allclose(
                    twice.deltas[name].to_numpy(),
                    summed.deltas[name].to_numpy(),
                    rtol=1e-6,
                    atol=0,
                )

            assert negate(negate(v)).deltas == v.deltas  # bitwise involution

            lam = float(rng.uniform(-2, 2))
            injected = inject(b, v, lam)
            merged = merge(b, [WeightedVector(v, lam)])
            assert injected.tensors == merged.tensors  # bitwise
        assert time.perf_counter() - started < 30.0


def _random_prediction_set(rng):
    n = int(rng.integers(2, 13))
    n_groups = int(rng.integers(2, 5))
    names = [chr(ord("A") + i) for i in range(n_groups)]
    records = []
    for i in range(n):
        # force the first two records into distinct groups so >=2 are present
        g = names[i % 2] if i < 2 else names[int(rng.integers(n_groups))]
        records.append(
            PredictionRecord(
                id=f"r{i}",
                y_true=int(rng.integers(2)),
                score=0.0,
                y_pred=int(rng.integers(2)),
                groups={"g": g},
            )
        )
    return records


def test_criterion_3_metric_oracle_equivalence():
    with criterion(3, "fairness-metric oracle equivalence"):
        started = time.perf_counter()
        rng = np.random.default_rng(3003)
        for _ in range(10_000):
            records = _random_prediction_set(rng)

            d = dpd(records, "g")
            per_group, overall = oracle_dpd(records, "g")
            assert d.overall == overall
            assert {g: d.per_group[g] for g in per_group} == per_group

            e = eod(records, "g")
            per_group, overall, tpr_gap, fpr_gap = oracle_eod(records, "g")
            assert e.overall == overall
            assert e.tpr_gap == tpr_gap and e.fpr_gap == fpr_gap
            assert {g: e.per_group[g] for g in per_group} == per_group

            acc = group_accuracy(records, "g")
            per_group, macro = oracle_accuracy(records, "g")
            assert {g: acc.per_group[g] for g in per_group} == per_group
            # macro differs only in float summation order across the groups
            assert abs(acc.macro - macro) < 1e-12
            assert accuracy_parity_gap(records, "g") == oracle_accuracy_parity(
                records, "g"
            )

        # two-group closed forms checked in exact rational arithmetic
        for _ in range(100):
            counts = {}
            for g in "AB":
                pos = int(rng.integers(1, 7))
                neg = int(rng.integers(1, 7))
                tp = int(rng.integers(0, pos + 1))
                fp = int(rng.integers(0, neg + 1))
                counts[g] = (pos, neg, tp, fp)
            records = []
            for g, (pos, neg, tp, fp) in counts.items():
                for i in range(pos):
                    records.append(PredictionRecord(
                        f"{g}p{i}", 1, 0.0, int(i < tp), {"g": g}))
                for i in range(neg):
                    records.append(PredictionRecord(
                        f"{g}n{i}", 0, 0.0, int(i < fp), {"g": g}))

            (pa, na, tpa, fpa), (pb, nb, tpb, fpb) = counts["A"], counts["B"]
            want_dpd = binary_dpd_fraction(tpa + fpa, pa + na, tpb + fpb, pb + nb)
            want_eod = binary_eod_fraction(tpa, pa, tpb, pb, fpa, na, fpb, nb)
            assert abs(dpd(records, "g").overall - float(want_dpd)) < 1e-12
            assert abs(eod(records, "g").overall - float(want_eod)) < 1e-12
        assert time.perf_counter() - started < 60.0


def test_criterion_4_gradient_correctness():
    with criterion(4, "analytic gradients vs finite differences"):
        for ds_seed in range(10):
            spec = CorpusSpec(
                attribute="g",
                proportions={"A": 0.5, "B": 0.5},
                total=60,
                seed=100 + ds_seed,
            )
            tr, _ = gen_corpus(spec)
            model = init_model(128, 8, seed=ds_seed)
            assert grad_check(model, tr, eps=1e-4, n_params=100) < 1e-4


@pytest.mark.byte_identity
def test_criterion_5_lora_rank_bound():
    with criterion(5, "low-rank adapter rank bound"):
        spec = CorpusSpec(
            attribute="g", proportions={"A": 0.5, "B": 0.5}, total=200, seed=13
        )
        tr, _ = gen_corpus(spec)
        for seed in range(20):
            base = init_model(128, 8, seed).to_checkpoint()
            merged, _ = train_lora(tr, base, Hyper(epochs=5, seed=seed), rank=8)
            delta = merged.tensors["W1"].to_numpy() - base.tensors["W1"].to_numpy()
            sv = np.linalg.svd(delta.astype(np.float64), compute_uv=False)
            assert int((sv > 1e-5 * sv[0]).sum()) <= 8


def test_criterion_6_protocol_reproduction(tmp_path):
    with criterion(6, "end-to-end protocol reproduction"):
        started = time.perf_counter()
        seeds = [13, 14, 15]
        attr = protocol.ATTRIBUTE
        out = protocol.run(tmp_path, seeds, total=700, dim=512, hidden=16, epochs=200)
        runs, res, inj = out.seeds, out.merge, out.inject
        assert list(runs) == seeds

        # (b) grid shapes
        assert len(MERGE_GRID) == 11 and MERGE_GRID[1] - MERGE_GRID[0] == 0.1
        assert len(INJECT_GRID) == 6 and INJECT_GRID[1] - INJECT_GRID[0] == 0.2

        # (a) the zero-coefficient rows reproduce the base evaluation exactly
        for seed in seeds:
            base_eval = evaluate(predict(runs[seed].base, runs[seed].train), attr)
            row = [r for r in res.rows if r.lam == 0.0 and r.seed == seed][0]
            assert row.report == base_eval

        # (c) selected merge stays within 2 points of full fine-tuning
        lam_star = select_lambda(res)
        merged_mean = res.aggregates()[lam_star]["macro_accuracy"]["mean"]
        for seed in seeds:
            fft_eval = evaluate(predict(runs[seed].fft, runs[seed].train), attr)
            assert runs[seed].report == fft_eval
        fft_mean = statistics.fmean(r.report.macro_accuracy for r in runs.values())
        assert fft_mean - merged_mean < 0.02

        # (d) worst-subgroup selection: catch-all excluded, top 2 by disparity
        for seed in seeds:
            worst = runs[seed].worst
            assert len(worst) == 2 and "Other" not in worst
            scores = {
                r.group: (r.dpd_ovr + r.eod_ovr) / 2
                for r in runs[seed].report.rows
                if r.group != "Other" and r.eod_ovr is not None
            }
            floor = min(scores[g] for g in worst)
            assert all(scores[g] <= floor or g in worst for g in scores)

        # injection grid against each seed's worst subgroup vector
        assert len(inj.rows) == 6 * len(seeds)
        for seed, run in runs.items():
            zero = [r for r in inj.rows if r.lam == 0.0 and r.seed == seed][0]
            assert zero.report == run.report
            one = [r for r in inj.rows if r.lam == 1.0 and r.seed == seed][0]
            edited = inject(run.fft, run.vectors[run.worst[0]], 1.0)
            assert one.report == evaluate(predict(edited, run.train), attr)

        assert time.perf_counter() - started < 120.0


def _null_band(report, records, attr, sims, rng):
    """99th percentile of overall DPD and EOD under a pooled-rate null.

    Group structure (stratum sizes) is kept; selection, TPR and FPR are
    simulated as binomial draws at the pooled rates.
    """
    groups = [r.group for r in report.rows]
    by_group = {g: [r for r in records if r.groups[attr] == g] for g in groups}
    pooled_sel = sum(r.y_pred for r in records) / len(records)
    pos = [r for r in records if r.y_true == 1]
    neg = [r for r in records if r.y_true == 0]
    pooled_tpr = sum(r.y_pred for r in pos) / len(pos)
    pooled_fpr = sum(r.y_pred for r in neg) / len(neg)
    n_all = {g: len(by_group[g]) for g in groups}
    n_pos = {g: sum(r.y_true == 1 for r in by_group[g]) for g in groups}
    n_neg = {g: sum(r.y_true == 0 for r in by_group[g]) for g in groups}

    dpd_sims, eod_sims = [], []
    for _ in range(sims):
        sel = [rng.binomial(n_all[g], pooled_sel) / n_all[g] for g in groups]
        tpr = [rng.binomial(n_pos[g], pooled_tpr) / n_pos[g] for g in groups]
        fpr = [rng.binomial(n_neg[g], pooled_fpr) / n_neg[g] for g in groups]
        dpd_sims.append(max(sel) - min(sel))
        eod_sims.append(max(max(tpr) - min(tpr), max(fpr) - min(fpr)))
    return (
        float(np.quantile(dpd_sims, 0.99)),
        float(np.quantile(eod_sims, 0.99)),
    )


def test_criterion_7_bias_knob():
    with criterion(7, "bias knob null band and detectability"):
        DIM, HID = 512, 16
        seeds = [13, 14, 15]
        attr = "g"

        def run(bias):
            out = {}
            for seed in seeds:
                spec = CorpusSpec(
                    attribute=attr,
                    proportions={"A": 0.5, "B": 0.5},
                    total=1600,
                    p_signal_pos=0.45,
                    p_signal_neg=0.2,
                    bias=bias,
                    seed=seed,
                )
                tr, te = gen_corpus(spec)
                ckpt = train(tr, Hyper(epochs=60, seed=seed), dim=DIM, hidden=HID)
                # held-out split: marker reliance shows up here, memorization
                # of the training set would mask it
                preds = predict(ckpt, te)
                out[seed] = (evaluate(preds, attr), preds)
            return out

        unbiased = run(0.0)
        sim_rng = np.random.default_rng(7007)
        for seed in seeds:
            report, preds = unbiased[seed]
            dpd_band, eod_band = _null_band(report, preds, attr, 2000, sim_rng)
            assert report.overall_dpd <= dpd_band
            assert report.overall_eod <= eod_band

        biased = run({"A": 4.0, "B": 0.0})
        un_vals = [unbiased[s][0].row("A").eod_ovr for s in seeds]
        bi_vals = [biased[s][0].row("A").eod_ovr for s in seeds]
        se = (
            statistics.stdev(un_vals) ** 2 / len(un_vals)
            + statistics.stdev(bi_vals) ** 2 / len(bi_vals)
        ) ** 0.5
        assert statistics.fmean(bi_vals) - statistics.fmean(un_vals) > 2 * se


def test_criterion_8_emission_fidelity(tmp_path):
    with criterion(8, "emission fidelity and idempotence"):
        DIM, HID = 128, 8
        attr = "g"
        spec = CorpusSpec(
            attribute=attr, proportions={"A": 0.5, "B": 0.5}, total=200, seed=13
        )
        tr, _ = gen_corpus(spec)
        base = init_model(DIM, HID, 13).to_checkpoint()
        hy = Hyper(epochs=10, seed=13)
        vectors = [
            diff(train_subgroup(tr, attr, g, hy, dim=DIM, hidden=HID), base)
            for g in spec.groups()
        ]
        cfg = SweepConfig(grid=[0.0, 0.5, 1.0], seeds=[13], attribute=attr)
        res = lambda_sweep({13: base}, {13: vectors}, cfg, {13: tr})

        # CSV parse-back is exact for every emitted number
        import csv

        d1, d2 = tmp_path / "one", tmp_path / "two"
        emit(res, d1)
        emit(res, d2)
        with open(d1 / "result.csv") as fh:
            parsed = {
                (row["lambda"], row["seed"], row["group"]): row
                for row in csv.DictReader(fh)
            }
        for r in res.rows:
            cells = parsed[(repr(r.lam), str(r.seed), "__overall__")]
            assert float(cells["macro_accuracy"]) == r.report.macro_accuracy
            assert float(cells["overall_dpd"]) == r.report.overall_dpd
            assert float(cells["overall_eod"]) == r.report.overall_eod
            for g in r.report.rows:
                row = parsed[(repr(r.lam), str(r.seed), g.group)]
                assert float(row["accuracy"]) == g.accuracy
                assert float(row["selection_rate"]) == g.selection_rate

        # SVG and every other artifact byte-deterministic across emissions
        for name in ("result.json", "result.csv", "acc.svg", "dpd.svg", "eod.svg"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
        pts = [(0.0, 0.1), (0.5, 0.4), (1.0, 0.2)]
        assert line_chart(pts, pts, "t", "x", "y") == line_chart(pts, pts, "t", "x", "y")

        # CLI idempotence: identical invocations, byte-identical outputs
        write_checkpoint(base, tmp_path / "base.ckpt")
        write_checkpoint(vectors[0].to_checkpoint(), tmp_path / "v.ckpt")
        for out in ("a.ckpt", "b.ckpt"):
            proc = run_cli(
                ["merge", "base.ckpt", "--vec", "v.ckpt:0.5", "-o", out], tmp_path
            )
            assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()
        m1 = json.loads((tmp_path / "a.ckpt.manifest.json").read_text())
        m2 = json.loads((tmp_path / "b.ckpt.manifest.json").read_text())
        m1.pop("duration_s"), m2.pop("duration_s")
        assert m1 == m2
