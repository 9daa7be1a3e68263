import csv
import json
import math
import statistics
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairvec.arith import TaskVector, diff
from fairvec.ckpt import Checkpoint, Tensor
from fairvec.corpus import CorpusSpec, gen_corpus
from fairvec.errors import IncompatibleCheckpoint, InsufficientGroups
from fairvec.metrics import GroupReport, GroupRow, evaluate
from fairvec.sweep import (
    DISPARITY_METRICS,
    INJECT_GRID,
    MERGE_GRID,
    OVERALL_METRICS,
    SweepConfig,
    SweepResult,
    SweepRow,
    emit,
    inject_sweep,
    lambda_sweep,
    select_lambda,
    worst_subgroups,
)
from fairvec.toymodel import Hyper, init_model, predict, train, train_subgroup

DIM, HID = 128, 8
ATTR = "g"


def build_lab(dim, hidden):
    bases, vectors, evals, ffts = {}, {}, {}, {}
    seeds = [13, 14]
    for seed in seeds:
        spec = CorpusSpec(
            attribute=ATTR, proportions={"A": 0.5, "B": 0.5}, total=300, seed=seed
        )
        tr, te = gen_corpus(spec)
        hy = Hyper(epochs=30, seed=seed)
        base = init_model(dim, hidden, seed).to_checkpoint()
        bases[seed] = base
        vectors[seed] = [
            diff(train_subgroup(tr, ATTR, g, hy, dim=dim, hidden=hidden), base)
            for g in spec.groups()
        ]
        evals[seed] = tr
        ffts[seed] = train(tr, hy, dim=dim, hidden=hidden)
    return bases, vectors, evals, ffts, seeds


@pytest.fixture(scope="module")
def lab():
    """Small two-seed pipeline shared by the sweep tests."""
    return build_lab(DIM, HID)


@pytest.fixture(scope="module")
def wide_lab():
    """The same pipeline at the paper's dim and hidden size, where the eval
    split touches few of the buckets and can be scored compactly."""
    return build_lab(4096, 32)


def test_default_grids():
    assert MERGE_GRID == [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
    assert INJECT_GRID == [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]


def test_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(grid=[0.0, 0.0])
    with pytest.raises(ValueError):
        SweepConfig(grid=[1.0, 0.5])
    with pytest.raises(ValueError):
        SweepConfig(grid=[0.0, float("inf")])
    with pytest.raises(ValueError):
        SweepConfig(grid=[0.0], seeds=[])
    for threshold in (0.0, 1.0, 7.0, float("nan")):
        with pytest.raises(ValueError, match="threshold"):
            SweepConfig(grid=[0.0], threshold=threshold)
    with pytest.raises(ValueError, match="criterion"):
        SweepConfig(grid=[0.0], criterion="bogus")
    # a repeated seed would duplicate its rows and count twice in every mean
    with pytest.raises(ValueError, match=r"seeds must be distinct, got \[13, 13\]"):
        SweepConfig(grid=[0.0], seeds=[13, 13])


def test_seed_missing_from_per_seed_mapping(lab):
    bases, vectors, evals, _, _ = lab
    cfg = SweepConfig(grid=[0.0], seeds=[13, 99], attribute=ATTR)
    with pytest.raises(ValueError, match="seed 99"):
        lambda_sweep(bases, vectors, cfg, evals)


def test_row_cardinality(lab):
    bases, vectors, evals, _, _ = lab
    cfg = SweepConfig(grid=[0.0, 0.5, 1.0], seeds=[13], attribute=ATTR)
    res = lambda_sweep(bases, vectors, cfg, evals)
    assert len(res.rows) == 3
    assert [(r.lam, r.seed) for r in res.rows] == [(0.0, 13), (0.5, 13), (1.0, 13)]


def test_zero_lambda_equals_base_eval(lab):
    bases, vectors, evals, _, seeds = lab
    cfg = SweepConfig(grid=[0.0, 0.5], seeds=seeds, attribute=ATTR)
    res = lambda_sweep(bases, vectors, cfg, evals)
    for seed in seeds:
        direct = evaluate(predict(bases[seed], evals[seed]), ATTR)
        row = [r for r in res.rows if r.lam == 0.0 and r.seed == seed][0]
        assert row.report == direct


def test_stderr_recomputed(lab):
    bases, vectors, evals, _, seeds = lab
    cfg = SweepConfig(grid=[0.0, 1.0], seeds=seeds, attribute=ATTR)
    res = lambda_sweep(bases, vectors, cfg, evals)
    agg = res.aggregates()
    for lam in cfg.grid:
        values = [r.report.macro_accuracy for r in res.rows_at(lam)]
        expect_mean = sum(values) / len(values)
        expect_se = statistics.stdev(values) / math.sqrt(len(values))
        got = agg[lam]["macro_accuracy"]
        assert abs(got["mean"] - expect_mean) <= 1e-12 * max(1, abs(expect_mean))
        assert abs(got["stderr"] - expect_se) <= 1e-12


def fake_result(grid, means):
    """SweepResult with a single seed and controlled macro accuracies."""
    rows = []
    for lam, m in zip(grid, means):
        report = GroupReport(
            attribute=ATTR,
            rows=[GroupRow("A", 10, m, 0.5, 0.0, 0.0),
                  GroupRow("B", 10, m, 0.5, 0.0, 0.0)],
            macro_accuracy=m,
            overall_dpd=0.0,
            overall_eod=0.0,
            accuracy_parity_gap=0.0,
        )
        rows.append(SweepRow(lam=lam, seed=13, report=report))
    return SweepResult(
        config=SweepConfig(grid=list(grid), seeds=[13], attribute=ATTR), rows=rows
    )


def test_select_lambda_argmax():
    res = fake_result([0.0, 0.5, 1.0], [0.7, 0.9, 0.8])
    assert select_lambda(res) == 0.5


def test_select_lambda_tie_goes_low():
    res = fake_result([0.0, 0.4, 0.8], [0.1, 0.9, 0.9])
    assert select_lambda(res) == 0.4


def test_select_lambda_row_order_invariant(lab):
    bases, vectors, evals, _, seeds = lab
    cfg = SweepConfig(grid=[0.0, 0.5, 1.0], seeds=seeds, attribute=ATTR)
    res = lambda_sweep(bases, vectors, cfg, evals)
    shuffled = SweepResult(
        config=res.config, rows=list(reversed(res.rows)), provenance=res.provenance
    )
    assert select_lambda(res) == select_lambda(shuffled)


def test_select_lambda_skips_undefined_points():
    """A point where any seed's criterion is None is skipped, as in aggregates()."""
    template = fake_result([0.0, 0.5, 1.0], [0.9, 0.8, 0.7]).rows
    eods = {13: [None, 0.1, 0.3], 14: [0.5, 0.2, 0.1]}
    rows = [
        SweepRow(row.lam, seed, replace(row.report, overall_eod=eod))
        for seed in (13, 14) for row, eod in zip(template, eods[seed])
    ]
    cfg = SweepConfig(grid=[0.0, 0.5, 1.0], seeds=[13, 14], attribute=ATTR,
                      criterion="overall_eod")
    res = SweepResult(config=cfg, rows=rows)
    assert select_lambda(res) == 0.5  # mean EOD 0.15 beats 0.2 at 1.0
    assert res.aggregates()[0.0]["overall_eod"]["mean"] is None

    for row in res.rows:
        row.report = replace(row.report, overall_eod=None)
    with pytest.raises(InsufficientGroups, match="overall_eod is undefined"):
        select_lambda(res)


def select_lambda_reference(result):
    """select_lambda written out with its own loop over the grid: the best
    sign * fmean of the config's criterion over the rows at each point, where
    the sign is -1 for the DISPARITY_METRICS; points with a None value are
    skipped and ties go to the lower lambda."""
    criterion = result.config.criterion
    sign = -1.0 if criterion in DISPARITY_METRICS else 1.0
    best_lam, best_mean = None, None
    for lam in result.config.grid:
        values = [getattr(r.report, criterion) for r in result.rows_at(lam)]
        if any(v is None for v in values):
            continue
        mean = sign * statistics.fmean(values)
        if best_mean is None or mean > best_mean:
            best_lam, best_mean = lam, mean
    if best_lam is None:
        raise InsufficientGroups(f"{criterion} is undefined at every grid point")
    return best_lam


@st.composite
def sweep_results(draw):
    """1-6 grid points and 1-3 seeds, at least one row per point, in any row
    order; each overall metric is None, a value from a small pool (so means
    repeat and tie) or any value in [0, 1]."""
    grid = [k / 10 for k in sorted(draw(st.sets(st.integers(-10, 10), min_size=1, max_size=6)))]
    seeds = draw(st.lists(st.integers(0, 50), min_size=1, max_size=3, unique=True))
    value = st.one_of(st.none(), st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0]), st.floats(0, 1))
    rows = [
        SweepRow(lam, seed, GroupReport(ATTR, [], **{m: draw(value) for m in OVERALL_METRICS}))
        for lam in grid
        for seed in draw(st.lists(st.sampled_from(seeds), min_size=1, unique=True))
    ]
    config = SweepConfig(grid=grid, seeds=seeds, attribute=ATTR,
                         criterion=draw(st.sampled_from(OVERALL_METRICS)))
    return SweepResult(config=config, rows=draw(st.permutations(rows)))


def _selected(select, result):
    try:
        return select(result)
    except InsufficientGroups as exc:
        return f"InsufficientGroups: {exc}"


@settings(max_examples=300, deadline=None)
@given(result=sweep_results())
def test_select_lambda_matches_reference(result):
    assert _selected(select_lambda, result) == _selected(select_lambda_reference, result)


@pytest.mark.parametrize(
    "criterion", ["overall_dpd", "overall_eod", "accuracy_parity_gap"]
)
def test_select_lambda_minimizes_disparities(criterion):
    """Lower is fairer: the smallest mean wins, ties go to the lower lambda."""
    rows = [
        SweepRow(row.lam, seed, replace(row.report, **{criterion: value}))
        for seed, values in ((13, [0.3, 0.1, 0.1, 0.4]), (14, [0.5, 0.3, 0.3, 0.0]))
        for row, value in zip(fake_result([0.0, 0.2, 0.4, 0.6], [0.9] * 4).rows, values)
    ]
    cfg = SweepConfig(grid=[0.0, 0.2, 0.4, 0.6], seeds=[13, 14], attribute=ATTR,
                      criterion=criterion)
    assert select_lambda(SweepResult(config=cfg, rows=rows)) == 0.2


def test_worst_subgroups_ranking():
    report = GroupReport(
        attribute=ATTR,
        rows=[
            GroupRow("A", 40, 0.9, 0.5, 0.3, 0.3),
            GroupRow("B", 30, 0.9, 0.5, 0.5, 0.5),
            GroupRow("Other", 10, 0.9, 0.5, 0.9, 0.9),
        ],
        macro_accuracy=0.9,
        overall_dpd=0.5,
        overall_eod=0.5,
        accuracy_parity_gap=0.0,
    )
    assert worst_subgroups(report, k=2) == ["B", "A"]


def test_worst_subgroups_zero_disparity_last():
    report = GroupReport(
        attribute=ATTR,
        rows=[
            GroupRow("A", 40, 0.9, 0.5, 0.0, 0.0),
            GroupRow("B", 30, 0.9, 0.5, 0.2, 0.2),
            GroupRow("C", 30, 0.9, 0.5, 0.1, 0.1),
        ],
        macro_accuracy=0.9,
        overall_dpd=0.2,
        overall_eod=0.2,
        accuracy_parity_gap=0.0,
    )
    assert worst_subgroups(report, k=3) == ["B", "C", "A"]


def test_worst_subgroups_ties():
    report = GroupReport(
        attribute=ATTR,
        rows=[
            GroupRow("Small", 10, 0.9, 0.5, 0.4, 0.4),
            GroupRow("Big", 99, 0.9, 0.5, 0.4, 0.4),
            GroupRow("Alpha", 10, 0.9, 0.5, 0.4, 0.4),
        ],
        macro_accuracy=0.9,
        overall_dpd=0.4,
        overall_eod=0.4,
        accuracy_parity_gap=0.0,
    )
    assert worst_subgroups(report, k=3) == ["Big", "Alpha", "Small"]


def test_worst_subgroups_insufficient():
    report = fake_result([0.0], [0.9]).rows[0].report
    with pytest.raises(InsufficientGroups):
        worst_subgroups(report, k=3)


def test_inject_sweep_rows(lab):
    bases, vectors, evals, ffts, seeds = lab
    cfg = SweepConfig(grid=INJECT_GRID, seeds=seeds, attribute=ATTR)
    worst = {s: vectors[s][0] for s in seeds}
    res = inject_sweep(ffts, worst, cfg, evals)
    assert len(res.rows) == 6 * len(seeds)
    for seed in seeds:
        fft_eval = evaluate(predict(ffts[seed], evals[seed]), ATTR)
        zero_row = [r for r in res.rows if r.lam == 0.0 and r.seed == seed][0]
        assert zero_row.report == fft_eval


def test_inject_rows_match_independent_recompute(lab):
    from fairvec.arith import inject

    bases, vectors, evals, ffts, seeds = lab
    cfg = SweepConfig(grid=[0.0, 0.4, 1.0], seeds=[13], attribute=ATTR)
    res = inject_sweep(ffts, {13: vectors[13][1]}, cfg, evals)
    for row in res.rows:
        edited = inject(ffts[13], vectors[13][1], row.lam)
        expect = evaluate(predict(edited, evals[13]), ATTR)
        assert row.report == expect


def check_lambda_rows_match_independent_recompute(lab):
    from fairvec.arith import WeightedVector, merge

    bases, vectors, evals, _, seeds = lab
    cfg = SweepConfig(grid=[0.0, 0.3, 1.0], seeds=seeds, attribute=ATTR)
    res = lambda_sweep(bases, vectors, cfg, evals)
    assert [(r.lam, r.seed) for r in res.rows] == [
        (lam, seed) for lam in cfg.grid for seed in seeds
    ]
    for row in res.rows:
        merged = merge(
            bases[row.seed], [WeightedVector(v, row.lam) for v in vectors[row.seed]]
        )
        assert row.report == evaluate(predict(merged, evals[row.seed]), ATTR)


def test_lambda_rows_match_independent_recompute(lab):
    check_lambda_rows_match_independent_recompute(lab)


def test_lambda_rows_match_independent_recompute_wide(wide_lab):
    check_lambda_rows_match_independent_recompute(wide_lab)


def test_nan_in_untouched_row_recompute(wide_lab):
    """A NaN in a W1 row no eval example touches turns the dense forward into
    NaN scores (0 * NaN), so the sweep must score that point densely too."""
    from fairvec.arith import TaskVector, inject
    from fairvec.features import touched_buckets

    bases, vectors, evals, ffts, _ = wide_lab
    cols = touched_buckets(evals[13], 4096)[0]
    row = np.setdiff1d(np.arange(4096), cols)[0]
    deltas = vectors[13][0].arrays()
    deltas["W1"][row, 0] = np.nan
    nan_vec = TaskVector.from_arrays(deltas)
    cfg = SweepConfig(grid=[0.0, 0.5], seeds=[13], attribute=ATTR)
    res = inject_sweep(ffts, {13: nan_vec}, cfg, evals)
    for r in res.rows:
        expect = evaluate(predict(inject(ffts[13], nan_vec, r.lam), evals[13]), ATTR)
        assert r.report == expect
    assert res.rows[1].report.rows[0].selection_rate == 0.0  # NaN scores are negative


@pytest.mark.parametrize("sweep", [lambda_sweep, inject_sweep])
def test_base_not_a_toy_model_raises(lab, sweep):
    """The toy model's tensor names, but w2 does not match W1's hidden size:
    merging works, scoring must not."""
    _, _, evals, _, _ = lab
    shapes = {"W1": (DIM, HID), "b1": (HID,), "w2": (HID + 1,), "b2": ()}
    zeros = {n: np.zeros(s, np.float32) for n, s in shapes.items()}
    base = Checkpoint({n: Tensor.from_numpy(a) for n, a in zeros.items()})
    vec = TaskVector.from_arrays(zeros)
    cfg = SweepConfig(grid=[0.0, 1.0], seeds=[13], attribute=ATTR)
    with pytest.raises(IncompatibleCheckpoint, match="D->H->1"):
        sweep({13: base}, {13: [vec] if sweep is lambda_sweep else vec}, cfg, evals)


def test_rows_grid_major_with_shared_eval_split(lab):
    bases, vectors, evals, ffts, seeds = lab
    shared = evals[13]
    cfg = SweepConfig(grid=[0.0, 0.5, 1.0], seeds=seeds, attribute=ATTR)
    res = inject_sweep(
        ffts, {s: vectors[s][0] for s in seeds}, cfg, dict.fromkeys(seeds, shared)
    )
    assert [(r.lam, r.seed) for r in res.rows] == [
        (lam, seed) for lam in cfg.grid for seed in seeds
    ]
    for seed in seeds:
        zero_row = res.rows[seeds.index(seed)]
        assert zero_row.report == evaluate(predict(ffts[seed], shared), ATTR)


def test_emit_files_and_determinism(tmp_path, lab):
    bases, vectors, evals, _, seeds = lab
    cfg = SweepConfig(grid=[0.0, 0.5, 1.0], seeds=seeds, attribute=ATTR)
    res = lambda_sweep(bases, vectors, cfg, evals)

    d1, d2 = tmp_path / "one", tmp_path / "two"
    emit(res, d1, input_digests={"base": "abc"})
    emit(res, d2, input_digests={"base": "abc"})
    for name in ("result.json", "result.csv", "acc.svg", "dpd.svg", "eod.svg",
                 "manifest.json"):
        assert (d1 / name).exists()
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    manifest = json.loads((d1 / "manifest.json").read_text())
    assert manifest["input_digests"] == {"base": "abc"}
    assert len(manifest["config_hash"]) == 64


def test_csv_parse_back_full_precision(tmp_path, lab):
    bases, vectors, evals, _, seeds = lab
    cfg = SweepConfig(grid=[0.0, 0.3], seeds=seeds, attribute=ATTR)
    res = lambda_sweep(bases, vectors, cfg, evals)
    emit(res, tmp_path)
    with open(tmp_path / "result.csv") as fh:
        parsed = list(csv.DictReader(fh))

    by_key = {
        (row["lambda"], row["seed"], row["group"]): row
        for row in parsed
    }
    for r in res.rows:
        overall = by_key[(repr(r.lam), str(r.seed), "__overall__")]
        assert float(overall["macro_accuracy"]) == r.report.macro_accuracy
        assert float(overall["overall_dpd"]) == r.report.overall_dpd
        for g in r.report.rows:
            cells = by_key[(repr(r.lam), str(r.seed), g.group)]
            assert float(cells["accuracy"]) == g.accuracy
            assert float(cells["selection_rate"]) == g.selection_rate


def test_json_emission_structure(tmp_path, lab):
    bases, vectors, evals, _, seeds = lab
    cfg = SweepConfig(grid=[0.0, 1.0], seeds=[13], attribute=ATTR)
    res = lambda_sweep(bases, vectors, cfg, evals)
    emit(res, tmp_path)
    doc = json.loads((tmp_path / "result.json").read_text())
    assert len(doc["rows"]) == 2
    assert doc["rows"][0]["report"] == res.rows[0].report.to_dict()
