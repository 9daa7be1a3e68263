"""Sweep orchestration: uniform-coefficient merge grids and worst-subgroup
injection grids across seeds, with deterministic result assembly.

Evaluation is seed-major and columnar. Each seed's eval split is featurized
once, compactly, and its panels are found once, from the split and the
base's shape alone (``toymodel.SplitScorer``, the scorer ``predict`` uses
too); its group codes and true labels are built once
(``metrics.GroupColumns``). Every grid point is then arrays only: the
edited model's scores, ``y_pred = scores >= threshold``, one per-group
confusion table and the GroupReport read off it, the same report
``evaluate(predict(...))`` gives. Only one seed's arrays are alive at a
time, and a compact split holds no N x dim matrix.
A base that is not a D->H->1 model raises ``IncompatibleCheckpoint`` before
its seed is scored.
Rows are still ordered grid-major then seed. Per-seed artifacts (base
checkpoint, vectors, eval split) may be one shared object or a dict by seed.

``SweepResult.aggregates`` is the one place the across-seed means are
computed: ``select_lambda`` picks its grid point from them and ``emit``
charts them. ``emit`` always writes all six files, and the CSV takes its
cells from ``metrics.csv_cell`` and ``GroupRow.cells``, as ``fairvec eval``'s
CSV does.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import statistics
from dataclasses import dataclass, field, asdict

from . import svg, toymodel
from .arith import TaskVector, WeightedVector, is_finite_f32, merge
from .atomic import atomic_open
from .ckpt import Checkpoint
from .errors import InsufficientGroups, IoFailure
from .metrics import DEFAULT_THRESHOLD, GroupColumns, GroupReport, check_threshold, csv_cell

MERGE_GRID = [round(0.1 * i, 1) for i in range(11)]    # 0.0 .. 1.0 step 0.1
INJECT_GRID = [round(0.2 * i, 1) for i in range(6)]    # 0.0 .. 1.0 step 0.2
DEFAULT_SEEDS = [13, 14, 15]

OVERALL_METRICS = ("macro_accuracy", "overall_dpd", "overall_eod", "accuracy_parity_gap")
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
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["lambda", "seed", "group", "n", "accuracy", "selection_rate",
             "dpd_ovr", "eod_ovr", "macro_accuracy", "overall_dpd",
             "overall_eod", "accuracy_parity_gap"]
        )
        for r in self.rows:
            lam = csv_cell(r.lam)
            for row in r.report.rows:
                writer.writerow([lam, r.seed, *row.cells(), "", "", "", ""])
            writer.writerow(
                [lam, r.seed, "__overall__", sum(g.n for g in r.report.rows),
                 "", "", "", ""]
                + [csv_cell(getattr(r.report, m)) for m in OVERALL_METRICS]
            )
        for lam, metrics in self.aggregates().items():
            for stat in ("mean", "stderr"):
                writer.writerow(
                    [csv_cell(lam), stat, "__overall__", "", "", "", "", ""]
                    + [csv_cell(metrics[m][stat]) for m in OVERALL_METRICS]
                )
        return buf.getvalue()


def _per_seed(obj, seed):
    if not isinstance(obj, dict):
        return obj
    if seed not in obj:
        raise ValueError(f"no entry for seed {seed}")
    return obj[seed]


def _edit_sweep(config: SweepConfig, base, parts_at, eval_data, mode: str) -> SweepResult:
    """Score merge(base, parts_at(lam, seed)) at every grid point of every seed."""
    reports = {}
    for seed in config.seeds:
        examples = _per_seed(eval_data, seed)
        columns = GroupColumns.of(examples, config.attribute)
        # from_checkpoint rejects a base that is not a D->H->1 model
        dim, hidden = toymodel.ToyModel.from_checkpoint(_per_seed(base, seed)).W1.shape
        scorer = toymodel.SplitScorer(examples, dim, hidden)
        for lam in config.grid:
            model = toymodel.ToyModel.from_checkpoint(
                merge(_per_seed(base, seed), parts_at(lam, seed))
            )
            y_pred = scorer.scores(model) >= config.threshold
            reports[lam, seed] = columns.report(y_pred)
        del scorer  # before the next seed featurizes: one seed's arrays at a time
    grid_major = [(lam, seed) for lam in config.grid for seed in config.seeds]
    rows = [SweepRow(lam, seed, reports[lam, seed]) for lam, seed in grid_major]
    return SweepResult(config=config, rows=rows, provenance={"mode": mode})


def lambda_sweep(
    base: Checkpoint | dict[int, Checkpoint],
    vectors: list[TaskVector] | dict[int, list[TaskVector]],
    config: SweepConfig,
    eval_data,
) -> SweepResult:
    """Uniform-coefficient merge over the grid, evaluated per seed."""
    return _edit_sweep(
        config, base,
        lambda lam, seed: [WeightedVector(v, lam) for v in _per_seed(vectors, seed)],
        eval_data, "merge",
    )


def inject_sweep(
    sft: Checkpoint | dict[int, Checkpoint],
    worst_vector: TaskVector | dict[int, TaskVector],
    config: SweepConfig,
    eval_data,
) -> SweepResult:
    """Injection grid: sft + lambda * worst_vector; lambda=0 is the sft row."""
    return _edit_sweep(
        config, sft,
        lambda lam, seed: [WeightedVector(_per_seed(worst_vector, seed), lam)],
        eval_data, "inject",
    )


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
        try:
            with atomic_open(path) as fh:
                fh.write(text)
        except OSError as exc:
            raise IoFailure(f"cannot write {path}: {exc}") from exc
        written.append(path)

    write("result.json", json.dumps(result.to_dict(), sort_keys=True, indent=2) + "\n")
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
    write("manifest.json", json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return written
