import io
import json
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairvec.errors import EmptyGroup, InsufficientGroups
from fairvec.metrics import (
    PredictionRecord,
    accuracy_parity_gap,
    binarize,
    dpd,
    eod,
    evaluate,
    group_accuracy,
    is_json_number,
    load_predictions,
    prediction_columns,
    selection_rate,
    write_jsonl,
)

import oracle
from conftest import random_records


def rec(i, y, pred, group, attr="attr", score=None):
    return PredictionRecord(
        id=f"r{i}",
        y_true=y,
        score=score if score is not None else float(pred),
        y_pred=pred,
        groups={attr: group},
    )


def records_from(spec):
    """spec: list of (y_true, y_pred, group)."""
    return [rec(i, y, p, g) for i, (y, p, g) in enumerate(spec)]


class TestBinarize:
    def test_above(self):
        assert binarize(0.7, 0.5) == 1

    def test_boundary_inclusive(self):
        assert binarize(0.5, 0.5) == 1

    def test_below(self):
        assert binarize(0.49999, 0.5) == 0

    def test_threshold_domain(self):
        with pytest.raises(ValueError):
            binarize(0.5, 0.0)


class TestSelectionRate:
    def test_counting(self):
        rs = records_from([(0, 1, "A"), (0, 1, "A"), (0, 1, "A"), (0, 0, "A")])
        assert selection_rate(rs, "attr", "A") == 0.75

    def test_all_negative(self):
        rs = records_from([(0, 0, "A"), (0, 0, "A")])
        assert selection_rate(rs, "attr", "A") == 0.0

    def test_empty_group(self):
        with pytest.raises(EmptyGroup):
            selection_rate(records_from([(0, 1, "A")]), "attr", "B")

    def test_matches_oracle(self, rng):
        rs = random_records(rng, 50, groups=("A", "B", "C"))
        for g in ("A", "B", "C"):
            assert selection_rate(rs, "attr", g) == oracle.oracle_selection_rate(
                rs, "attr", g
            )


class TestDpd:
    def test_two_groups_hand_example(self):
        rs = records_from(
            [(0, 1, "A"), (0, 1, "A"), (0, 1, "A"), (0, 0, "A"),
             (0, 1, "B"), (0, 0, "B"), (0, 0, "B"), (0, 0, "B")]
        )
        res = dpd(rs, "attr")
        assert res.per_group == {"A": 0.5, "B": 0.5}
        assert res.overall == 0.5

    def test_parity_case(self):
        rs = records_from([(0, 1, "A"), (0, 0, "A"), (0, 1, "B"), (0, 0, "B")])
        res = dpd(rs, "attr")
        assert res.overall == 0.0
        assert all(v == 0.0 for v in res.per_group.values())

    def test_three_groups(self):
        # rates 0.2 / 0.5 / 0.9 via group sizes 10
        spec = (
            [(0, 1, "A")] * 2 + [(0, 0, "A")] * 8
            + [(0, 1, "B")] * 5 + [(0, 0, "B")] * 5
            + [(0, 1, "C")] * 9 + [(0, 0, "C")] * 1
        )
        rs = records_from(spec)
        res = dpd(rs, "attr")
        assert res.overall == pytest.approx(0.7)
        per, overall = oracle.oracle_dpd(rs, "attr")
        assert res.per_group == per and res.overall == overall

    def test_insufficient_groups(self):
        with pytest.raises(InsufficientGroups):
            dpd(records_from([(0, 1, "A")]), "attr")


class TestEod:
    def test_hand_example(self):
        # TPRs 1.0 vs 0.5, FPRs 0.0 vs 0.0 -> EOD 0.5
        rs = records_from(
            [(1, 1, "A"), (1, 1, "A"), (0, 0, "A"), (0, 0, "A"),
             (1, 1, "B"), (1, 0, "B"), (0, 0, "B"), (0, 0, "B")]
        )
        res = eod(rs, "attr")
        assert res.overall == 0.5
        assert res.tpr_gap == 0.5 and res.fpr_gap == 0.0
        per, overall, tpr, fpr = oracle.oracle_eod(rs, "attr")
        assert (res.per_group, res.overall) == (per, overall)

    def test_identical_groups(self):
        rs = records_from(
            [(1, 1, "A"), (0, 0, "A"), (1, 1, "B"), (0, 0, "B")]
        )
        assert eod(rs, "attr").overall == 0.0

    def test_undefined_stratum_flagged(self):
        rs = records_from(
            [(0, 0, "A"), (0, 1, "A"),  # no positives in A
             (1, 1, "B"), (0, 0, "B")]
        )
        res = eod(rs, "attr")
        assert ("A", "tpr") in res.undefined
        assert res.tpr_gap is None  # only one group has a defined TPR
        assert res.fpr_gap is not None
        assert res.overall == res.fpr_gap


class TestAccuracy:
    def test_perfect(self):
        rs = records_from([(1, 1, "A"), (0, 0, "A")])
        res = group_accuracy(rs, "attr")
        assert res.per_group["A"] == 1.0

    def test_half(self):
        rs = records_from([(0, 1, "A"), (0, 0, "A")])
        assert group_accuracy(rs, "attr").per_group["A"] == 0.5

    def test_macro_unweighted(self):
        rs = records_from([(1, 1, "A")] * 9 + [(0, 1, "A")] + [(1, 0, "B")])
        res = group_accuracy(rs, "attr")
        assert res.macro == pytest.approx((0.9 + 0.0) / 2)

    def test_parity_gap(self):
        rs = records_from(
            [(1, 1, "A"), (1, 1, "A"), (1, 0, "A"), (1, 1, "B"), (1, 0, "B")]
        )
        got = accuracy_parity_gap(rs, "attr")
        assert got == pytest.approx(abs(2 / 3 - 1 / 2))
        assert got == oracle.oracle_accuracy_parity(rs, "attr")


class TestEvaluate:
    def test_single_group_degenerate(self):
        rs = records_from([(1, 1, "A"), (0, 0, "A")])
        report = evaluate(rs, "attr")
        assert report.overall_dpd is None and report.overall_eod is None
        assert report.macro_accuracy == 1.0

    def test_perfect_classifier_structure(self):
        # perfect predictions: EOD 0, DPD equals label base-rate disparity
        rs = records_from(
            [(1, 1, "A")] * 3 + [(0, 0, "A")] * 1
            + [(1, 1, "B")] * 1 + [(0, 0, "B")] * 3
        )
        report = evaluate(rs, "attr")
        assert report.overall_eod == 0.0
        assert report.overall_dpd == pytest.approx(0.75 - 0.25)

    def test_full_report_matches_oracle(self, rng):
        rs = random_records(rng, 500, groups=("A", "B", "C", "D"))
        report = evaluate(rs, "attr")
        acc_per, macro = oracle.oracle_accuracy(rs, "attr")
        dpd_per, dpd_all = oracle.oracle_dpd(rs, "attr")
        eod_per, eod_all, _, _ = oracle.oracle_eod(rs, "attr")
        assert report.macro_accuracy == macro
        assert report.overall_dpd == dpd_all
        assert report.overall_eod == eod_all
        assert report.accuracy_parity_gap == oracle.oracle_accuracy_parity(rs, "attr")
        for row in report.rows:
            assert row.accuracy == acc_per[row.group]
            assert row.dpd_ovr == dpd_per[row.group]
            assert row.eod_ovr == eod_per[row.group]

    def test_missing_attribute_raises(self):
        rs = [rec(0, 1, 1, "A", attr="other")]
        with pytest.raises(EmptyGroup):
            evaluate(rs, "attr")

    @pytest.mark.parametrize(
        "y_true, y_pred", [(1, 2), (-1, 0), (1, "1"), (0, 0.5), (1, None)]
    )
    def test_label_outside_0_1_raises(self, y_true, y_pred):
        # such a value would alias another cell of the confusion table
        rs = records_from([(0, 1, "A"), (1, 0, "B")])
        rs.append(rec(2, y_true, y_pred, "A", score=0.5))
        with pytest.raises(ValueError, match="must be 0 or 1"):
            evaluate(rs, "attr")


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**31), n=st.integers(4, 40))
def test_permutation_invariance(seed, n):
    gen = np.random.default_rng(seed)
    rs = random_records(gen, n, groups=("A", "B", "C"))
    shuffled = list(rs)
    gen.shuffle(shuffled)
    a = evaluate(rs, "attr")
    b = evaluate(shuffled, "attr")
    assert a == b


def test_relabeling_invariance(rng):
    rs = random_records(rng, 60, groups=("A", "B", "C"))
    renamed = [
        PredictionRecord(
            id=r.id, y_true=r.y_true, score=r.score, y_pred=r.y_pred,
            groups={"attr": {"A": "Z", "B": "Y", "C": "X"}[r.groups["attr"]]},
        )
        for r in rs
    ]
    a, b = evaluate(rs, "attr"), evaluate(renamed, "attr")
    assert a.overall_dpd == b.overall_dpd
    assert a.overall_eod == b.overall_eod
    assert a.accuracy_parity_gap == b.accuracy_parity_gap
    assert a.macro_accuracy == b.macro_accuracy


def test_two_group_consistency(rng):
    for _ in range(30):
        rs = random_records(rng, int(rng.integers(6, 30)), groups=("A", "B"))
        by_y = {(g, y): [r for r in rs if r.groups["attr"] == g and r.y_true == y]
                for g in "AB" for y in (0, 1)}
        if any(not v for v in by_y.values()):
            continue
        res = dpd(rs, "attr")
        # per-group one-vs-rest equals the binary formula for both groups
        binary = abs(
            oracle.oracle_selection_rate(rs, "attr", "A")
            - oracle.oracle_selection_rate(rs, "attr", "B")
        )
        assert res.per_group["A"] == binary == res.per_group["B"] == res.overall
        e = eod(rs, "attr")
        _, e_overall, _, _ = oracle.oracle_eod(rs, "attr")
        assert e.overall == e_overall


def test_rates_in_unit_interval(rng):
    rs = random_records(rng, 200, groups=("A", "B", "C"))
    report = evaluate(rs, "attr")
    for row in report.rows:
        for v in (row.accuracy, row.selection_rate, row.dpd_ovr, row.eod_ovr):
            assert v is None or 0.0 <= v <= 1.0
    for v in (report.macro_accuracy, report.overall_dpd, report.overall_eod,
              report.accuracy_parity_gap):
        assert v is None or 0.0 <= v <= 1.0


def test_jsonl_roundtrip(tmp_path, rng):
    rs = random_records(rng, 40, groups=("A", "B"))
    path = tmp_path / "preds.jsonl"
    write_jsonl((vars(r) for r in rs), path)
    back = load_predictions(path)
    assert back == rs


def test_jsonl_derives_missing_y_pred(tmp_path):
    path = tmp_path / "preds.jsonl"
    lines = [
        {"id": "a", "y_true": 1, "score": 0.5, "groups": {"attr": "A"}},
        {"id": "b", "y_true": 0, "score": 0.4999, "groups": {"attr": "B"}},
    ]
    path.write_text("\n".join(json.dumps(x) for x in lines) + "\n")
    back = load_predictions(path, threshold=0.5)
    assert [r.y_pred for r in back] == [1, 0]


def test_load_predictions_names_the_line_of_a_score_beyond_float(tmp_path):
    path = tmp_path / "preds.jsonl"
    good = {"id": "a", "y_true": 1, "score": 0.5, "groups": {"attr": "A"}}
    path.write_text(json.dumps(good) + "\n"
                    + '{"id": "b", "y_true": 0, "score": 1' + "0" * 400
                    + ', "groups": {"attr": "B"}}\n')
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: int too large"):
        load_predictions(path)


def test_report_json_and_csv(rng):
    rs = random_records(rng, 30, groups=("A", "B"))
    report = evaluate(rs, "attr")
    csv_text = report.to_csv()
    lines = csv_text.strip().split("\n")
    assert lines[0].startswith("group,")
    assert lines[-1].startswith("__overall__,")
    # numbers survive the decimal round-trip at full precision
    macro = lines[-1].split(",")[2]
    assert float(macro) == report.macro_accuracy


# One log line: id (raw U+2028 and non-ASCII kept unescaped), labels, a score
# that may sit exactly on the threshold, y_pred present or absent, and groups
# under several attributes, any of which may be missing.
_log_lines = st.lists(
    st.tuples(
        st.sampled_from(["r", "x\u2028y", "caf\u00e9", "a b"]),
        st.integers(0, 1),
        st.one_of(st.floats(0, 1), st.just("threshold")),
        st.sampled_from([None, 0, 1]),
        st.fixed_dictionaries(
            {},
            optional={"a": st.sampled_from(["A", "B", "C"]),
                      "b": st.sampled_from(["X", "Y\u2028Z"])},
        ),
        st.sampled_from(["\n", "\r\n", "\n\n", "\r\n  \r\n"]),
    ),
    max_size=25,
)


def _log_bytes(lines, threshold) -> bytes:
    out = []
    for i, (name, y_true, score, y_pred, groups, end) in enumerate(lines):
        obj = {"id": f"{name}{i}", "y_true": y_true, "groups": groups,
               "score": threshold if score == "threshold" else score}
        if y_pred is not None:
            obj["y_pred"] = y_pred
        out.append(json.dumps(obj, ensure_ascii=False) + end)
    return "".join(out).encode("utf-8")


def _outcome(fn):
    try:
        return fn().to_dict()
    except EmptyGroup as exc:
        return ("EmptyGroup", str(exc))


@pytest.fixture(scope="module")
def log_path(tmp_path_factory):
    return tmp_path_factory.mktemp("logs") / "preds.jsonl"


@settings(max_examples=150, deadline=None)
@given(
    lines=_log_lines,
    attribute=st.sampled_from(["a", "b"]),
    threshold=st.sampled_from([0.5, 0.25, 0.7, 0.1 + 0.2]),
)
def test_prediction_columns_report_equals_evaluate(log_path, lines, attribute, threshold):
    data = _log_bytes(lines, threshold)
    log_path.write_bytes(data)

    def columnar():
        text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
        columns, y_pred = prediction_columns(text, attribute, threshold, str(log_path))
        return columns.report(y_pred)

    assert _outcome(columnar) == _outcome(
        lambda: evaluate(load_predictions(log_path, threshold), attribute)
    )


def test_prediction_columns_derive_y_pred_at_threshold():
    lines = [
        {"id": "a", "y_true": 1, "score": 0.5, "groups": {"g": "A"}},
        {"id": "b", "y_true": 0, "score": 0.4999, "groups": {"g": "A"}},
        {"id": "c", "y_true": 0, "score": 0.9, "y_pred": 0, "groups": {"g": "B"}},
    ]
    text = io.StringIO("".join(json.dumps(x) + "\n" for x in lines))
    columns, y_pred = prediction_columns(text, "g", 0.5)
    assert y_pred.tolist() == [1, 0, 0]
    assert columns.names == ["A", "B"] and columns.codes.tolist() == [0, 0, 1]
    assert columns.y_true.tolist() == [1, 0, 0]


def test_prediction_columns_check_every_line_before_empty_group():
    lines = ['{"id": "a", "y_true": 1, "score": 0.5, "groups": {}}',
             '{"id": "b", "y_true": 2, "score": 0.5, "groups": {"g": "A"}}']
    with pytest.raises(ValueError, match="^log:2: y_true must be 0 or 1"):
        prediction_columns(io.StringIO("\n".join(lines)), "g", path="log")
    with pytest.raises(EmptyGroup, match="record 'a' lacks attribute 'g'"):
        prediction_columns(io.StringIO(lines[0]), "g")


FLOAT_MAX = sys.float_info.max


@pytest.mark.parametrize(
    "value, number",
    [
        (0, True), (-7, True), (0.5, True), (-0.0, True), (FLOAT_MAX, True),
        (-FLOAT_MAX, True), (int(FLOAT_MAX), True),
        (int(FLOAT_MAX) + 1, False), (10**400, False), (-(10**400), False),
        (float("nan"), False), (float("inf"), False), (float("-inf"), False),
        (True, False), (False, False), (None, False), ("1", False), ([1], False),
        ({"a": 1}, False),
    ],
)
def test_is_json_number(value, number):
    """A JSON number a float field takes: an int or float, never a bool,
    whose absolute value is at most binary64's largest finite value."""
    assert is_json_number(value) is number

