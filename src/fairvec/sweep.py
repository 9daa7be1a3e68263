"""Sweep orchestration: uniform-coefficient merge grids and worst-subgroup
injection grids across seeds, with deterministic result assembly.

Evaluation is seed-major and columnar, in three public pieces. A seed's
eval split has one reporter (``split_reporter``): the split is featurized
once, compactly, and its panels are found once, from the split and the
base's shape alone (``toymodel.SplitScorer``, the scorer ``predict`` uses
too); its group codes and true labels are built once
(``metrics.GroupColumns``). The reporter maps a checkpoint to arrays only:
the model's scores, ``y_pred = scores >= threshold``, one per-group
confusion table and the GroupReport read off it, the same report
``evaluate(predict(...))`` gives. The grid step (``grid_reports``) is that
reporter at each grid point's edit, and ``assemble`` orders
``reports[seed][lam]`` into rows, grid-major then seed. Only one seed's
arrays are alive at a time, and a compact split holds no N x dim matrix.
A base that is not a D->H->1 model raises ``IncompatibleCheckpoint`` before
its seed is scored.
Each per-seed input of a sweep (base checkpoint, vectors, eval split) is a
dict keyed by seed; one split for every seed is
``dict.fromkeys(seeds, split)``.
One driver, ``edit_sweep``, is those three pieces over the seeds of a
config; its edit at a grid point is the merge of the seed's base with each
of the seed's vectors at coefficient lambda, and an injection's list holds
its one worst vector. ``fairvec sweep`` calls it for both modes;
``lambda_sweep`` and ``inject_sweep`` are its merge and injection cases.
``protocol.run`` uses the same pieces inside its seed loop, so one reporter
gives a seed's full fine-tune report and both of its grids.

``SweepResult.aggregates`` is the one place the across-seed means are
computed: ``select_lambda`` picks its grid point from them and ``emit``
charts them. ``emit`` always writes all six files, and the CSV is
``metrics.csv_text`` of cells from ``metrics.csv_cell`` and
``GroupRow.cells`` under ``metrics.GROUP_COLUMNS``, as ``fairvec eval``'s
CSV is.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
from dataclasses import dataclass, field, asdict

from . import svg, toymodel
from .arith import TaskVector, WeightedVector, is_finite_f32, merge
from .atomic import atomic_open
from .ckpt import Checkpoint
from .errors import InsufficientGroups
from .metrics import DEFAULT_THRESHOLD, OVERALL_METRICS, GroupColumns, GroupReport
from .metrics import GROUP_COLUMNS, check_threshold, csv_cell, csv_text, json_text

MERGE_GRID = [round(0.1 * i, 1) for i in range(11)]    # 0.0 .. 1.0 step 0.1
INJECT_GRID = [round(0.2 * i, 1) for i in range(6)]    # 0.0 .. 1.0 step 0.2
DEFAULT_SEEDS = [13, 14, 15]

# the overall metrics for which lower is fairer
DISPARITY_METRICS = ("overall_dpd", "overall_eod", "accuracy_parity_gap")
# catch-all groups that worst_subgroups never ranks
CATCH_ALL_GROUPS = ("Other",)


@dataclass
class SweepConfig:
    grid: list[float]
    seeds: list[int] = field(default_factory=lambda: list(DEFAULT_SEEDS))
    attribute: str = "gender"
    threshold: float = DEFAULT_THRESHOLD
    criterion: str = "macro_accuracy"
    split: str = "train"

    def __post_init__(self):
        if not self.seeds:
            raise ValueError("seeds must be nonempty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"seeds must be distinct, got {self.seeds}")
        if not self.grid:
            raise ValueError("grid must be nonempty")
        if not all(map(is_finite_f32, self.grid)):
            raise ValueError("grid values must be finite")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError("grid must be strictly increasing")
        check_threshold(self.threshold)
        if self.criterion not in OVERALL_METRICS:
            raise ValueError(
                f"criterion must be one of {', '.join(OVERALL_METRICS)}, "
                f"got {self.criterion!r}"
            )
        if self.split not in ("train", "test"):
            raise ValueError(f"split must be train or test, got {self.split!r}")

    def canonical_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))


@dataclass
class SweepRow:
    lam: float
    seed: int
    report: GroupReport


@dataclass
class SweepResult:
    config: SweepConfig
    rows: list[SweepRow]
    provenance: dict[str, str] = field(default_factory=dict)

    def rows_at(self, lam: float) -> list[SweepRow]:
        return [r for r in self.rows if r.lam == lam]

    def aggregates(self) -> dict[float, dict[str, dict[str, float | None]]]:
        """Per-lambda across-seed mean and standard error of every overall metric."""
        out: dict[float, dict[str, dict[str, float | None]]] = {}
        for lam in self.config.grid:
            rows = self.rows_at(lam)
            out[lam] = {}
            for metric in OVERALL_METRICS:
                values = [getattr(r.report, metric) for r in rows]
                if any(v is None for v in values) or not values:
                    out[lam][metric] = {"mean": None, "stderr": None}
                    continue
                mean = statistics.fmean(values)
                stderr = (
                    statistics.stdev(values) / math.sqrt(len(values))
                    if len(values) > 1
                    else 0.0
                )
                out[lam][metric] = {"mean": mean, "stderr": stderr}
        return out

    def to_dict(self) -> dict:
        return {
            "config": asdict(self.config),
            "rows": [
                {"lambda": r.lam, "seed": r.seed, "report": r.report.to_dict()}
                for r in self.rows
            ],
            "aggregates": {
                repr(lam): metrics for lam, metrics in self.aggregates().items()
            },
            "provenance": dict(self.provenance),
        }

    def to_csv(self) -> str:
        rows = [["lambda", "seed", *GROUP_COLUMNS, *OVERALL_METRICS]]
        for r in self.rows:
            lam = csv_cell(r.lam)
            rows += [[lam, r.seed, *row.cells(), "", "", "", ""] for row in r.report.rows]
            rows.append(
                [lam, r.seed, "__overall__", sum(g.n for g in r.report.rows),
                 "", "", "", ""]
                + [csv_cell(getattr(r.report, m)) for m in OVERALL_METRICS]
            )
        for lam, metrics in self.aggregates().items():
            for stat in ("mean", "stderr"):
                rows.append(
                    [csv_cell(lam), stat, "__overall__", "", "", "", "", ""]
                    + [csv_cell(metrics[m][stat]) for m in OVERALL_METRICS]
                )
        return csv_text(rows)


def _per_seed(mapping, seed):
    if seed not in mapping:
        raise ValueError(f"no entry for seed {seed}")
    return mapping[seed]


def split_reporter(examples, attribute: str, threshold: float, base: Checkpoint):
    """The reporter of one split: a function from a checkpoint of base's
    shape to the GroupReport of its predictions on examples, the report
    ``evaluate(predict(ckpt, examples, threshold), attribute)`` gives. It
    holds the split's one SplitScorer and one GroupColumns; a base that is
    not a D->H->1 model raises IncompatibleCheckpoint here."""
    columns = GroupColumns.of(examples, attribute)
    dim, hidden = toymodel.ToyModel.from_checkpoint(base).W1.shape
    scorer = toymodel.SplitScorer(examples, dim, hidden)

    def report(ckpt: Checkpoint) -> GroupReport:
        model = toymodel.ToyModel.from_checkpoint(ckpt)
        return columns.report(scorer.scores(model) >= threshold)

    return report


def grid_reports(report, base: Checkpoint, vectors, grid) -> dict[float, GroupReport]:
    """One seed's grid step: at each lam of grid, the report of the merge of
    base with each of vectors at coefficient lam."""
    return {lam: report(merge(base, [WeightedVector(v, lam) for v in vectors])) for lam in grid}


def assemble(config: SweepConfig, reports, mode: str) -> SweepResult:
    """reports[seed][lam] as a SweepResult, rows grid-major then seed; mode
    ("merge" or "inject") is recorded as the result's provenance."""
    rows = [SweepRow(lam, s, reports[s][lam]) for lam in config.grid for s in config.seeds]
    return SweepResult(config=config, rows=rows, provenance={"mode": mode})


def edit_sweep(config: SweepConfig, base, vectors, eval_data, mode: str) -> SweepResult:
    """Score the merge of base with each of the seed's vectors at coefficient
    lam, at every grid point lam of every seed. base, vectors (each seed's
    list of task vectors) and eval_data are dicts keyed by seed; mode
    ("merge" or "inject") is recorded as the result's provenance. Each seed
    is one split_reporter and one grid_reports step, and the reporter is
    dropped before the next seed featurizes: one seed's arrays at a time."""
    reports = {}
    for seed in config.seeds:
        examples, seed_base = _per_seed(eval_data, seed), _per_seed(base, seed)
        report = split_reporter(examples, config.attribute, config.threshold, seed_base)
        reports[seed] = grid_reports(report, seed_base, _per_seed(vectors, seed), config.grid)
        del report  # before the next seed featurizes
    return assemble(config, reports, mode)


def lambda_sweep(
    base: dict[int, Checkpoint],
    vectors: dict[int, list[TaskVector]],
    config: SweepConfig,
    eval_data: dict[int, list],
) -> SweepResult:
    """Uniform-coefficient merge over the grid, evaluated per seed."""
    return edit_sweep(config, base, vectors, eval_data, "merge")


def inject_sweep(
    sft: dict[int, Checkpoint],
    worst_vector: dict[int, TaskVector],
    config: SweepConfig,
    eval_data: dict[int, list],
) -> SweepResult:
    """Injection grid: sft + lambda * worst_vector; lambda=0 is the sft row."""
    return edit_sweep(config, sft, {s: [v] for s, v in worst_vector.items()}, eval_data, "inject")


def select_lambda(result: SweepResult) -> float:
    """Grid value with the best across-seed mean of the config's criterion,
    aggregates()'s mean; ties go low. The DISPARITY_METRICS (overall_dpd,
    overall_eod, accuracy_parity_gap) are minimized, since lower is fairer,
    and macro_accuracy is maximized. A point whose mean is None (a seed's
    value is undefined) is skipped."""
    criterion = result.config.criterion
    sign = -1.0 if criterion in DISPARITY_METRICS else 1.0
    mean = {lam: agg[criterion]["mean"] for lam, agg in result.aggregates().items()}
    defined = [lam for lam in mean if mean[lam] is not None]
    if not defined:
        raise InsufficientGroups(f"{criterion} is undefined at every grid point")
    # in grid order, so max keeps the lowest of equal means
    return max(defined, key=lambda lam: sign * mean[lam])


def worst_subgroups(report: GroupReport, k: int = 2) -> list[str]:
    """Groups ranked by descending (DPD+EOD)/2 one-vs-rest average.

    The CATCH_ALL_GROUPS are skipped, as are groups whose EOD was
    undefined. Ties break toward the larger group, then lexicographic name.
    """
    candidates = [
        row
        for row in report.rows
        if row.group not in CATCH_ALL_GROUPS
        and row.dpd_ovr is not None
        and row.eod_ovr is not None
    ]
    if len(candidates) < k:
        raise InsufficientGroups(
            f"need {k} rankable subgroups, have {len(candidates)}"
        )
    candidates.sort(key=lambda r: (-(r.dpd_ovr + r.eod_ovr) / 2, -r.n, r.group))
    return [r.group for r in candidates[:k]]


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def emit(
    result: SweepResult,
    out_dir: str | os.PathLike,
    input_digests: dict[str, str] | None = None,
) -> list[str]:
    """Write result.json, result.csv, the acc/dpd/eod SVGs and a manifest.

    Every file is byte-deterministic for identical results.
    """
    os.makedirs(out_dir, exist_ok=True)
    written: list[str] = []

    def write(name: str, text: str):
        path = os.path.join(out_dir, name)
        with atomic_open(path) as fh:
            fh.write(text)
        written.append(path)

    write("result.json", json_text(result.to_dict()))
    write("result.csv", result.to_csv())
    agg = result.aggregates()
    for fname, metric, label in (
        ("acc.svg", "macro_accuracy", "macro accuracy"),
        ("dpd.svg", "overall_dpd", "DPD"),
        ("eod.svg", "overall_eod", "EOD"),
    ):
        mean_line = [
            (lam, agg[lam][metric]["mean"])
            for lam in result.config.grid
            if agg[lam][metric]["mean"] is not None
        ]
        scatter = [
            (r.lam, getattr(r.report, metric))
            for r in result.rows
            if getattr(r.report, metric) is not None
        ]
        write(
            fname,
            svg.line_chart(
                mean_line, scatter,
                title=f"{label} vs lambda", xlabel="lambda", ylabel=label,
            ),
        )

    manifest = {
        "config_hash": hashlib.sha256(
            result.config.canonical_json().encode("utf-8")
        ).hexdigest(),
        "input_digests": dict(sorted((input_digests or {}).items())),
        "provenance": dict(result.provenance),
    }
    write("manifest.json", json_text(manifest))
    return written
