"""JSON encoding of verification reports."""

import json

from mexparts.cli import _emit_reports
from mexparts.reports import VerificationReport


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
