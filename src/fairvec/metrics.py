"""Group fairness metrics over annotated prediction logs.

Per-subgroup values use one-vs-rest binarization of the attribute; overall
values are max-rate minus min-rate across subgroups, which reduces to the
binary two-group formulas. Every metric is read off one confusion table: per
group, the counts of true negatives, false positives, false negatives and
true positives, built with one ``np.bincount``. "Rest" is the column totals
minus the group's row. All aggregation is exact integer counting and every
rate is an int/int division, so results are independent of record order.

``GroupColumns`` holds a split's group codes and true labels as arrays, so
a caller that scores many models on one split (the sweeps) builds it once
and passes only each model's predictions.

A JSONL prediction log is read either as ``PredictionRecord``s
(``load_predictions``) or straight into columns (``prediction_columns``,
which ``fairvec eval`` uses and which builds no per-record objects). Both
check each line with the one validator ``_prediction`` under
``parse_jsonl``, which also reads corpus files. ``write_jsonl`` writes
corpus files (``corpus.save_corpus``), and a prediction log is written the
same way from ``vars`` of each record: one sorted-key JSON object per
line, written atomically. Every CSV cell, here and in the sweep CSV, is
``csv_cell``'s full-precision ``repr``, or empty for None.
``is_json_number`` is the one rule for the numbers a float field of a JSON
input takes: ``gen-data`` specs and ``sweep`` configs.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .atomic import atomic_open
from .errors import EmptyGroup, InsufficientGroups

DEFAULT_THRESHOLD = 0.5

# columns of a confusion-table row, indexed by y_true * 2 + y_pred
_TN, _FP, _FN, _TP = range(4)


@dataclass(frozen=True)
class PredictionRecord:
    id: str
    y_true: int
    score: float
    y_pred: int
    groups: dict[str, str] = field(default_factory=dict)


def check_threshold(threshold: float) -> None:
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0,1), got {threshold}")


def binarize(score: float, threshold: float = DEFAULT_THRESHOLD) -> int:
    """1 iff score >= threshold (boundary counts as positive)."""
    check_threshold(threshold)
    return 1 if score >= threshold else 0


def _lacking(rec_id: str, attribute: str) -> EmptyGroup:
    return EmptyGroup(f"record {rec_id!r} lacks attribute {attribute!r}")


def binary_label(name: str, value) -> int:
    if value not in (0, 1):
        raise ValueError(f"{name} must be 0 or 1, got {value!r}")
    return int(value)


def is_json_number(value) -> bool:
    """Whether a parsed JSON value is a number a float field takes: an int or
    float (never a bool) within binary64's finite range, the range JSON
    numbers are exchanged in (RFC 8259, section 6). NaN, the infinities and
    integers beyond float range are not."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _binary_column(name: str, values: list) -> np.ndarray:
    """values as an integer array, or ValueError unless each is 0 or 1: any
    other value would alias another cell of the confusion table."""
    col = np.array(values)
    if col.dtype.kind in "biuf" and np.isin(col, (0, 1)).all():
        return col.astype(np.intp)
    return np.array([binary_label(name, v) for v in values], dtype=np.intp)


@dataclass(frozen=True)
class GroupColumns:
    """A split's labels as arrays: names are the attribute's values in
    sorted order, codes[i] indexes item i's value in names, y_true is 0/1."""

    attribute: str
    names: list[str]
    codes: np.ndarray
    y_true: np.ndarray

    @classmethod
    def of(cls, items, attribute: str) -> "GroupColumns":
        """One pass over items with id, groups and y_true (prediction records
        or examples); EmptyGroup for an item that lacks the attribute."""
        index: dict[str, int] = {}
        first_seen, y_true = [], []
        for item in items:
            try:
                group = item.groups[attribute]
            except KeyError:
                raise _lacking(item.id, attribute) from None
            first_seen.append(index.setdefault(group, len(index)))
            y_true.append(item.y_true)
        return cls._coded(attribute, index, first_seen, y_true)

    @classmethod
    def _coded(cls, attribute, index, first_seen, y_true) -> "GroupColumns":
        """index maps each group to the order it first appeared in;
        first_seen[i] is that order for item i's group."""
        names = sorted(index)
        rank = np.empty(len(names), dtype=np.intp)
        rank[[index[g] for g in names]] = np.arange(len(names))
        codes = rank[np.array(first_seen, dtype=np.intp)]
        return cls(attribute, names, codes, _binary_column("y_true", y_true))

    def table(self, y_pred: np.ndarray) -> list[list[int]]:
        """Per group in names order, [tn, fp, fn, tp] for predictions y_pred
        (0/1 or bool, one per item)."""
        cells = self.codes * 4 + self.y_true * 2 + y_pred
        counts = np.bincount(cells, minlength=4 * len(self.names))
        return counts.reshape(len(self.names), 4).tolist()

    def report(self, y_pred: np.ndarray) -> GroupReport:
        """The GroupReport of predictions y_pred; evaluate's result for the
        same records."""
        if not len(self.codes):
            raise EmptyGroup("no records to evaluate")
        return _report(self.attribute, self.names, self.table(y_pred))


def _table(records, attribute: str) -> tuple[list[str], list[list[int]]]:
    records = list(records)
    columns = GroupColumns.of(records, attribute)
    return columns.names, columns.table(
        _binary_column("y_pred", [r.y_pred for r in records])
    )


def _ratio(hits: int, total: int) -> float | None:
    return hits / total if total else None


def _selection(row) -> float:
    return (row[_FP] + row[_TP]) / sum(row)


def _tpr(row) -> float | None:
    return _ratio(row[_TP], row[_TP] + row[_FN])


def _fpr(row) -> float | None:
    return _ratio(row[_FP], row[_FP] + row[_TN])


def _rests(table) -> list[list[int]]:
    """Per group, the counts of every other group: totals minus its row."""
    totals = [sum(column) for column in zip(*table)]
    return [[t - c for t, c in zip(totals, row)] for row in table]


def _require_groups(metric: str, names: list[str]) -> None:
    if len(names) < 2:
        raise InsufficientGroups(f"{metric} needs >=2 subgroups, found {names}")


def selection_rate(records, attribute: str, group: str) -> float:
    names, table = _table(records, attribute)
    if group not in names:
        raise EmptyGroup(f"no records for {attribute}={group!r}")
    return _selection(table[names.index(group)])


@dataclass
class DpdResult:
    per_group: dict[str, float]
    overall: float


def _dpd(names, table) -> DpdResult:
    _require_groups("DPD", names)
    rates = {g: _selection(row) for g, row in zip(names, table)}
    per_group = {
        g: abs(rates[g] - _selection(rest)) for g, rest in zip(names, _rests(table))
    }
    return DpdResult(per_group=per_group, overall=max(rates.values()) - min(rates.values()))


def dpd(records, attribute: str) -> DpdResult:
    """Demographic parity difference, per group (one-vs-rest) and overall."""
    return _dpd(*_table(records, attribute))


@dataclass
class EodResult:
    per_group: dict[str, float | None]
    overall: float | None
    tpr_gap: float | None
    fpr_gap: float | None
    undefined: list[tuple[str, str]]  # (group, "tpr"|"fpr") with an empty stratum


def _spread(values) -> float | None:
    defined = [v for v in values if v is not None]
    if len(defined) < 2:
        return None
    return max(defined) - min(defined)


def _eod(names, table) -> EodResult:
    _require_groups("EOD", names)
    undefined: list[tuple[str, str]] = []
    tprs: dict[str, float | None] = {}
    fprs: dict[str, float | None] = {}
    per_group: dict[str, float | None] = {}
    for g, row, rest in zip(names, table, _rests(table)):
        tprs[g], fprs[g] = _tpr(row), _fpr(row)
        if tprs[g] is None:
            undefined.append((g, "tpr"))
        if fprs[g] is None:
            undefined.append((g, "fpr"))
        gaps = [
            abs(mine - theirs)
            for mine, theirs in ((tprs[g], _tpr(rest)), (fprs[g], _fpr(rest)))
            if mine is not None and theirs is not None
        ]
        per_group[g] = max(gaps) if gaps else None

    tpr_gap = _spread(tprs.values())
    fpr_gap = _spread(fprs.values())
    defined_gaps = [v for v in (tpr_gap, fpr_gap) if v is not None]
    return EodResult(
        per_group=per_group,
        overall=max(defined_gaps) if defined_gaps else None,
        tpr_gap=tpr_gap,
        fpr_gap=fpr_gap,
        undefined=undefined,
    )


def eod(records, attribute: str) -> EodResult:
    """Equalized odds difference: max of TPR and FPR gaps.

    Groups with an empty Y=1 (or Y=0) stratum are flagged and excluded from
    that rate's comparison rather than imputed.
    """
    return _eod(*_table(records, attribute))


@dataclass
class AccuracyResult:
    per_group: dict[str, float]
    macro: float


def _accuracy(names, table) -> AccuracyResult:
    if not names:
        raise EmptyGroup("no records")
    per_group = {g: (row[_TN] + row[_TP]) / sum(row) for g, row in zip(names, table)}
    # summed in sorted group order, so the macro value is bit-exact
    return AccuracyResult(
        per_group=per_group, macro=sum(per_group.values()) / len(per_group)
    )


def group_accuracy(records, attribute: str) -> AccuracyResult:
    return _accuracy(*_table(records, attribute))


def accuracy_parity_gap(records, attribute: str) -> float:
    names, table = _table(records, attribute)
    acc = _accuracy(names, table)
    _require_groups("accuracy parity", names)
    return max(acc.per_group.values()) - min(acc.per_group.values())


def csv_cell(value) -> str:
    """A CSV cell: the repr of value, full precision for a float, or empty
    for None."""
    return "" if value is None else repr(value)


@dataclass
class GroupRow:
    group: str
    n: int
    accuracy: float
    selection_rate: float
    dpd_ovr: float | None
    eod_ovr: float | None

    def cells(self) -> list:
        """The row's CSV cells, in field order."""
        return [self.group, self.n] + [
            csv_cell(v)
            for v in (self.accuracy, self.selection_rate, self.dpd_ovr, self.eod_ovr)
        ]


@dataclass
class GroupReport:
    attribute: str
    rows: list[GroupRow]
    macro_accuracy: float
    overall_dpd: float | None
    overall_eod: float | None
    accuracy_parity_gap: float | None
    undefined: list[tuple[str, str]] = field(default_factory=list)

    def row(self, group: str) -> GroupRow:
        for r in self.rows:
            if r.group == group:
                return r
        raise KeyError(group)

    def to_dict(self) -> dict:
        return {
            "attribute": self.attribute,
            "rows": [vars(r) for r in self.rows],
            "overall": {
                "macro_accuracy": self.macro_accuracy,
                "overall_dpd": self.overall_dpd,
                "overall_eod": self.overall_eod,
                "accuracy_parity_gap": self.accuracy_parity_gap,
            },
            "undefined": [list(u) for u in self.undefined],
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["group", "n", "accuracy", "selection_rate", "dpd_ovr", "eod_ovr"]
        )
        for r in self.rows:
            writer.writerow(r.cells())
        writer.writerow(
            ["__overall__", sum(r.n for r in self.rows), csv_cell(self.macro_accuracy), ""]
            + [csv_cell(v) for v in (self.overall_dpd, self.overall_eod)]
        )
        return buf.getvalue()


def _report(attribute: str, names: list[str], table) -> GroupReport:
    acc = _accuracy(names, table)
    multi = len(names) >= 2
    dpd_res = _dpd(names, table) if multi else None
    eod_res = _eod(names, table) if multi else None
    rows = [
        GroupRow(
            group=g,
            n=sum(row),
            accuracy=acc.per_group[g],
            selection_rate=_selection(row),
            dpd_ovr=dpd_res.per_group[g] if dpd_res else None,
            eod_ovr=eod_res.per_group[g] if eod_res else None,
        )
        for g, row in zip(names, table)
    ]
    return GroupReport(
        attribute=attribute,
        rows=rows,
        macro_accuracy=acc.macro,
        overall_dpd=dpd_res.overall if dpd_res else None,
        overall_eod=eod_res.overall if eod_res else None,
        accuracy_parity_gap=(
            max(acc.per_group.values()) - min(acc.per_group.values()) if multi else None
        ),
        undefined=eod_res.undefined if eod_res else [],
    )


def evaluate(records, attribute: str) -> GroupReport:
    """Assemble accuracy, selection rates, DPD, and EOD into one report.

    EmptyGroup for no records or a record that lacks the attribute;
    ValueError for a y_true or y_pred other than 0 or 1.
    """
    records = list(records)
    columns = GroupColumns.of(records, attribute)
    return columns.report(_binary_column("y_pred", [r.y_pred for r in records]))


def string_map(name: str, value) -> dict[str, str]:
    """value, or ValueError unless it is an object of string values."""
    if not isinstance(value, dict) or not all(isinstance(v, str) for v in value.values()):
        raise ValueError(f"{name} must map names to strings, got {value!r}")
    return value


def parse_jsonl(lines, path, parse):
    """parse(obj) for the JSON object on each non-blank line of lines (an
    open text file); ValueError naming path:line for bad JSON, a missing
    field (named), JSON nested beyond the parser's recursion limit, or a
    value parse rejects with AttributeError, TypeError, ValueError or
    OverflowError (float() of an integer beyond float range)."""
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            fields = parse(json.loads(line))
        except KeyError as exc:
            raise ValueError(f"{path}:{lineno}: missing field {exc}") from None
        except (AttributeError, TypeError, ValueError, OverflowError, RecursionError) as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        yield fields


def write_jsonl(objects, path: str | os.PathLike) -> None:
    """Each object as one line of sorted-key JSON, written atomically: the
    files parse_jsonl reads."""
    # json.dumps(obj, sort_keys=True), without a new encoder per line
    encode = json.JSONEncoder(sort_keys=True).encode
    with atomic_open(path) as fh:
        for obj in objects:
            fh.write(encode(obj) + "\n")


def _prediction(obj) -> tuple[str, int, float, int | None, dict[str, str]]:
    """A log line's (id, y_true, score, y_pred or None, groups)."""
    score = float(obj["score"])
    y_pred = obj.get("y_pred")
    y_pred = None if y_pred is None else binary_label("y_pred", y_pred)
    rec_id, y_true = str(obj["id"]), binary_label("y_true", obj["y_true"])
    groups = string_map("groups", obj["groups"])
    if not math.isfinite(score):
        raise ValueError("non-finite score")
    return rec_id, y_true, score, y_pred, groups


def load_predictions(
    path: str | os.PathLike, threshold: float = DEFAULT_THRESHOLD
) -> list[PredictionRecord]:
    """Read a JSONL prediction log; derive y_pred from score when absent."""
    check_threshold(threshold)
    with open(path, "r", encoding="utf-8") as fh:
        return [
            PredictionRecord(
                id=rec_id,
                y_true=y_true,
                score=score,
                y_pred=y_pred if y_pred is not None else binarize(score, threshold),
                groups=groups,
            )
            for rec_id, y_true, score, y_pred, groups in parse_jsonl(
                fh, path, _prediction
            )
        ]


def prediction_columns(
    lines, attribute: str, threshold: float = DEFAULT_THRESHOLD, path="<log>"
) -> tuple[GroupColumns, np.ndarray]:
    """A JSONL prediction log (lines: an open text file) as the columns and
    the y_pred array that GroupColumns.report takes; its report equals
    evaluate(load_predictions(...)). Where a line has no y_pred it is
    score >= threshold.

    Every line is validated before EmptyGroup is raised for a record that
    lacks the attribute, so a malformed line anywhere is reported first.
    """
    check_threshold(threshold)
    index: dict[str, int] = {}
    first_seen, y_true, scores, y_pred = [], [], [], []
    lacking = None
    for rec_id, label, score, pred, groups in parse_jsonl(lines, path, _prediction):
        group = groups.get(attribute)
        if group is None:
            lacking = lacking or _lacking(rec_id, attribute)
            continue
        first_seen.append(index.setdefault(group, len(index)))
        y_true.append(label)
        scores.append(score)
        y_pred.append(-1 if pred is None else pred)
    if lacking is not None:
        raise lacking
    given = np.array(y_pred, dtype=np.intp)
    derived = np.array(scores, dtype=np.float64) >= threshold
    return (
        GroupColumns._coded(attribute, index, first_seen, y_true),
        np.where(given < 0, derived, given),
    )

