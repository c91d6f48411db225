"""Verification reports: counting checks, JSON encoding, and the one module that writes them."""

import ast
import json
from pathlib import Path

import mexparts
from mexparts.cli import _emit_reports
from mexparts.reports import FAILURE_CAP, VerificationReport


def test_metadata_big_integer_is_a_string():
    report = VerificationReport("x", metadata={"x": 2**60})
    assert report.to_json()["metadata"] == {"x": str(2**60)}


def test_every_field_encodes_big_integers_the_same_way():
    big, small = -(2**53) - 1, 2**53
    report = VerificationReport(
        "x",
        spec={"offset": big, "step": small},
        metadata={"nested": {"values": [big, small, (big,)]}, "n_max": 7},
    )
    report.record_failure(n=1, value=big)
    out = report.to_json()
    assert out["spec"] == {"offset": str(big), "step": small}
    assert out["metadata"] == {"nested": {"values": [str(big), small, [str(big)]]}, "n_max": 7}
    assert out["failures"] == [{"n": 1, "value": str(big)}]
    assert report.metadata["nested"]["values"][0] == big  # the report itself is untouched
    json.dumps(out)


def test_small_values_and_none_pass_through():
    out = VerificationReport("x", metadata={"flag": True, "name": "p"}).to_json()
    assert out["spec"] is None
    assert out["metadata"] == {"flag": True, "name": "p"}


def test_record_keys_are_the_fields_with_passed_before_metadata():
    out = VerificationReport("x").to_json()
    assert list(out) == [
        "label", "spec", "checked", "skipped", "failures", "failure_count", "passed", "metadata"
    ]


def test_csv_header_and_row_come_from_the_json_record(capsys):
    big = 2**60
    report = VerificationReport("x", spec={"offset": big}, checked=3, skipped=1, metadata={"n_max": big})
    report.record_failure(n=2, value=big)
    assert _emit_reports({"s": [report]}, "csv") == 1
    assert capsys.readouterr().out == "suite,label,checked,skipped,failure_count,passed\ns,x,3,1,1,False\n"
    assert _emit_reports({"s": [report]}, "json") == 1
    assert json.loads(capsys.readouterr().out) == {"suite": "s", **report.to_json()}


def test_a_check_that_holds_counts_and_records_nothing():
    report = VerificationReport("x")
    report.check(True, n=1, value=2)
    assert (report.checked, report.failure_count, report.failures, report.passed) == (1, 0, [], True)


def test_a_check_that_fails_records_its_fields():
    report = VerificationReport("x")
    fields = {"n": 3, "value": 7}
    report.check(False, **fields)
    report.check(True, n=4, value=0)
    assert (report.checked, report.failure_count, report.failures) == (2, 1, [fields])
    assert not report.passed


def test_failures_past_the_cap_are_counted_but_not_kept():
    report = VerificationReport("x")
    for n in range(FAILURE_CAP + 5):
        report.check(False, n=n)
    assert report.checked == report.failure_count == FAILURE_CAP + 5
    assert report.failures == [{"n": n} for n in range(FAILURE_CAP)]


def _report_writes(tree: ast.AST) -> list[tuple[int, str]]:
    # assignments to a report's counts or failures, calls that mutate its
    # failure list, and record_failure calls, each as (line, attribute)
    counts = {"checked", "failure_count", "failures"}
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            hits += [(node.lineno, t.attr) for t in targets if isinstance(t, ast.Attribute) and t.attr in counts]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            receiver = node.func.value
            if node.func.attr == "record_failure":
                hits.append((node.lineno, "record_failure"))
            elif isinstance(receiver, ast.Attribute) and receiver.attr == "failures":
                hits.append((node.lineno, f"failures.{node.func.attr}"))
    return hits


def test_only_the_report_module_writes_counts_and_failures():
    # every other module reaches them through VerificationReport.check, so a
    # failure cannot be recorded without being counted
    source = Path(mexparts.__file__).parent
    hits = {
        path.name: _report_writes(ast.parse(path.read_text(), filename=str(path)))
        for path in sorted(source.glob("*.py"))
        if path.name != "reports.py"
    }
    assert {name: found for name, found in hits.items() if found} == {}


def test_the_scan_sees_each_kind_of_write():
    tree = ast.parse(
        "r.checked += 2\nr.failure_count = 0\nr.failures: list = []\n"
        "r.record_failure(n=1)\nr.failures.append({})\nr.check(True)\n"
    )
    assert _report_writes(tree) == [
        (1, "checked"), (2, "failure_count"), (3, "failures"), (4, "record_failure"), (5, "failures.append"),
    ]
