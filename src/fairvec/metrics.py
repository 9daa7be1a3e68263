"""Group fairness metrics over annotated prediction logs.

Per-subgroup values use one-vs-rest binarization of the attribute; overall
values are max-rate minus min-rate across subgroups, which reduces to the
binary two-group formulas. All aggregation is exact integer counting, so
results are independent of record order.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field

from .atomic import atomic_open
from .errors import EmptyGroup, InsufficientGroups

DEFAULT_THRESHOLD = 0.5


@dataclass(frozen=True)
class PredictionRecord:
    id: str
    y_true: int
    score: float
    y_pred: int
    groups: dict[str, str] = field(default_factory=dict)


def binarize(score: float, threshold: float = DEFAULT_THRESHOLD) -> int:
    """1 iff score >= threshold (boundary counts as positive)."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0,1), got {threshold}")
    return 1 if score >= threshold else 0


def _groups_of(records, attribute) -> dict[str, list[PredictionRecord]]:
    by_group: dict[str, list[PredictionRecord]] = {}
    for rec in records:
        if attribute not in rec.groups:
            raise EmptyGroup(
                f"record {rec.id!r} lacks attribute {attribute!r}"
            )
        by_group.setdefault(rec.groups[attribute], []).append(rec)
    return dict(sorted(by_group.items()))


def _rate(records) -> float:
    return sum(r.y_pred for r in records) / len(records)


def selection_rate(records, attribute: str, group: str) -> float:
    members = [r for r in records if r.groups.get(attribute) == group]
    if not members:
        raise EmptyGroup(f"no records for {attribute}={group!r}")
    return _rate(members)


@dataclass
class DpdResult:
    per_group: dict[str, float]
    overall: float


def dpd(records, attribute: str) -> DpdResult:
    """Demographic parity difference, per group (one-vs-rest) and overall."""
    by_group = _groups_of(records, attribute)
    if len(by_group) < 2:
        raise InsufficientGroups(
            f"DPD needs >=2 subgroups, found {sorted(by_group)}"
        )
    rates = {g: _rate(members) for g, members in by_group.items()}
    per_group = {}
    for g, members in by_group.items():
        rest = [r for other, rs in by_group.items() if other != g for r in rs]
        per_group[g] = abs(rates[g] - _rate(rest))
    return DpdResult(per_group=per_group, overall=max(rates.values()) - min(rates.values()))


def _stratum_rate(records, y: int) -> float | None:
    stratum = [r for r in records if r.y_true == y]
    if not stratum:
        return None
    return _rate(stratum)


@dataclass
class EodResult:
    per_group: dict[str, float | None]
    overall: float | None
    tpr_gap: float | None
    fpr_gap: float | None
    undefined: list[tuple[str, str]]  # (group, "tpr"|"fpr") with an empty stratum


def eod(records, attribute: str) -> EodResult:
    """Equalized odds difference: max of TPR and FPR gaps.

    Groups with an empty Y=1 (or Y=0) stratum are flagged and excluded from
    that rate's comparison rather than imputed.
    """
    by_group = _groups_of(records, attribute)
    if len(by_group) < 2:
        raise InsufficientGroups(
            f"EOD needs >=2 subgroups, found {sorted(by_group)}"
        )

    undefined: list[tuple[str, str]] = []
    tprs: dict[str, float | None] = {}
    fprs: dict[str, float | None] = {}
    for g, members in by_group.items():
        tprs[g] = _stratum_rate(members, 1)
        fprs[g] = _stratum_rate(members, 0)
        if tprs[g] is None:
            undefined.append((g, "tpr"))
        if fprs[g] is None:
            undefined.append((g, "fpr"))

    per_group: dict[str, float | None] = {}
    for g, members in by_group.items():
        rest = [r for other, rs in by_group.items() if other != g for r in rs]
        gaps = []
        for y, mine in ((1, tprs[g]), (0, fprs[g])):
            theirs = _stratum_rate(rest, y)
            if mine is not None and theirs is not None:
                gaps.append(abs(mine - theirs))
        per_group[g] = max(gaps) if gaps else None

    def spread(values):
        defined = [v for v in values if v is not None]
        if len(defined) < 2:
            return None
        return max(defined) - min(defined)

    tpr_gap = spread(tprs.values())
    fpr_gap = spread(fprs.values())
    defined_gaps = [v for v in (tpr_gap, fpr_gap) if v is not None]
    overall = max(defined_gaps) if defined_gaps else None
    return EodResult(
        per_group=per_group,
        overall=overall,
        tpr_gap=tpr_gap,
        fpr_gap=fpr_gap,
        undefined=undefined,
    )


@dataclass
class AccuracyResult:
    per_group: dict[str, float]
    macro: float


def group_accuracy(records, attribute: str) -> AccuracyResult:
    by_group = _groups_of(records, attribute)
    if not by_group:
        raise EmptyGroup("no records")
    per_group = {
        g: sum(r.y_pred == r.y_true for r in members) / len(members)
        for g, members in by_group.items()
    }
    return AccuracyResult(
        per_group=per_group, macro=sum(per_group.values()) / len(per_group)
    )


def accuracy_parity_gap(records, attribute: str) -> float:
    acc = group_accuracy(records, attribute)
    if len(acc.per_group) < 2:
        raise InsufficientGroups(
            f"accuracy parity needs >=2 subgroups, found {sorted(acc.per_group)}"
        )
    return max(acc.per_group.values()) - min(acc.per_group.values())


@dataclass
class GroupRow:
    group: str
    n: int
    accuracy: float
    selection_rate: float
    dpd_ovr: float | None
    eod_ovr: float | None


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

    @classmethod
    def from_dict(cls, d: dict) -> "GroupReport":
        return cls(
            attribute=d["attribute"],
            rows=[GroupRow(**r) for r in d["rows"]],
            macro_accuracy=d["overall"]["macro_accuracy"],
            overall_dpd=d["overall"]["overall_dpd"],
            overall_eod=d["overall"]["overall_eod"],
            accuracy_parity_gap=d["overall"]["accuracy_parity_gap"],
            undefined=[tuple(u) for u in d.get("undefined", [])],
        )

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["group", "n", "accuracy", "selection_rate", "dpd_ovr", "eod_ovr"]
        )
        for r in self.rows:
            writer.writerow(
                [r.group, r.n, repr(r.accuracy), repr(r.selection_rate)]
                + [("" if v is None else repr(v)) for v in (r.dpd_ovr, r.eod_ovr)]
            )
        writer.writerow(
            ["__overall__", sum(r.n for r in self.rows), repr(self.macro_accuracy), ""]
            + [
                ("" if v is None else repr(v))
                for v in (self.overall_dpd, self.overall_eod)
            ]
        )
        return buf.getvalue()


def evaluate(
    records, attribute: str, threshold: float = DEFAULT_THRESHOLD
) -> GroupReport:
    """Assemble accuracy, selection rates, DPD, and EOD into one report."""
    records = list(records)
    if not records:
        raise EmptyGroup("no records to evaluate")
    by_group = _groups_of(records, attribute)
    acc = group_accuracy(records, attribute)

    multi = len(by_group) >= 2
    dpd_res = dpd(records, attribute) if multi else None
    eod_res = eod(records, attribute) if multi else None

    rows = [
        GroupRow(
            group=g,
            n=len(members),
            accuracy=acc.per_group[g],
            selection_rate=_rate(members),
            dpd_ovr=dpd_res.per_group[g] if dpd_res else None,
            eod_ovr=eod_res.per_group[g] if eod_res else None,
        )
        for g, members in by_group.items()
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


def _binary_label(name: str, value) -> int:
    if value not in (0, 1):
        raise ValueError(f"{name} must be 0 or 1, got {value!r}")
    return int(value)


def load_predictions(
    path: str | os.PathLike, threshold: float = DEFAULT_THRESHOLD
) -> list[PredictionRecord]:
    """Read a JSONL prediction log; derive y_pred from score when absent."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                score = float(obj["score"])
                y_pred = obj.get("y_pred")
                y_pred = None if y_pred is None else _binary_label("y_pred", y_pred)
                rec_id, y_true = str(obj["id"]), _binary_label("y_true", obj["y_true"])
                groups = obj["groups"]
                if not isinstance(groups, dict) or not all(
                    isinstance(v, str) for v in groups.values()
                ):
                    raise ValueError(f"groups must map names to strings, got {groups!r}")
            except KeyError as exc:
                raise ValueError(f"{path}:{lineno}: missing field {exc}") from None
            except (AttributeError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if not math.isfinite(score):
                raise ValueError(f"{path}:{lineno}: non-finite score")
            records.append(
                PredictionRecord(
                    id=rec_id,
                    y_true=y_true,
                    score=score,
                    y_pred=y_pred if y_pred is not None else binarize(score, threshold),
                    groups=groups,
                )
            )
    return records


def dump_predictions(records, path: str | os.PathLike) -> None:
    with atomic_open(path) as fh:
        for rec in records:
            fh.write(
                json.dumps(
                    {
                        "id": rec.id,
                        "y_true": rec.y_true,
                        "score": rec.score,
                        "y_pred": rec.y_pred,
                        "groups": rec.groups,
                    },
                    sort_keys=True,
                )
                + "\n"
            )
