"""stdout of fixed CLI commands is byte-identical to the captures in
tests/golden/, so a refactor or speed-up cannot change what is reported.

Every capture is one line of tests/golden/manifest.txt: its exit status,
its file name and its argv.  The tests here run each line in process, and
CI runs each line again in a fresh process (`python -W error`, unbuffered
stdout).  To add a capture, add its line to the manifest and record it; a
change that alters output on purpose re-records it the same way, with the
argv and file name of its manifest line:

    PYTHONPATH=src python -m mexparts.cli <argv> > tests/golden/<capture>
"""

import csv
import json
import re
from pathlib import Path

import pytest

from mexparts.cli import main

GOLDEN = Path(__file__).parent / "golden"
MANIFEST = GOLDEN / "manifest.txt"


def _manifest_entries():
    """(status, capture, argv) per manifest line, skipping blank and # lines,
    split on whitespace as the CI loop's `read` splits them."""
    entries = []
    for line in MANIFEST.read_text().splitlines():
        fields = line.split()
        if fields and not fields[0].startswith("#"):
            status, capture, *argv = fields
            entries.append((status, capture, argv))
    return entries


ENTRIES = _manifest_entries()


@pytest.mark.parametrize(
    "status, capture, argv", ENTRIES, ids=[capture for _, capture, _ in ENTRIES],
)
def test_stdout_matches_golden_capture(capsys, status, capture, argv):
    assert main(argv) == int(status)
    assert capsys.readouterr().out.encode() == (GOLDEN / capture).read_bytes()


def test_the_manifest_lists_every_capture_once():
    # sorted lists compare equal only if no capture is listed twice
    on_disk = sorted(path.name for path in GOLDEN.iterdir() if path != MANIFEST)
    assert sorted(capture for _, capture, _ in ENTRIES) == on_disk


def test_every_manifest_line_reads_the_same_in_a_shell_loop():
    # one plain word per token, so shell word splitting cannot differ from
    # str.split; a last line without its newline would be lost to `read`
    assert ENTRIES and MANIFEST.read_text().endswith("\n")
    for _, capture, argv in ENTRIES:
        for token in (capture, *argv):
            assert re.fullmatch(r"[A-Za-z0-9_.=-]+", token), token


def test_every_manifest_status_is_0_or_1():
    assert {status for status, _, _ in ENTRIES} <= {"0", "1"}


@pytest.mark.parametrize("capture", sorted(path.name for path in GOLDEN.glob("*.csv")))
def test_csv_capture_rows_have_the_header_width(capture):
    header, *rows = csv.reader((GOLDEN / capture).read_text().splitlines())
    assert rows and [len(row) for row in rows] == [len(header)] * len(rows)


def test_verify_all_csv_is_one_row_per_golden_record(capsys):
    # labels hold commas, e.g. p[1,1](5n+2); csv.reader must still find the
    # header's columns, with the values of the golden JSON records
    assert main(["verify", "all", "--format", "csv"]) == 0
    header, *rows = csv.reader(capsys.readouterr().out.splitlines())
    records = [json.loads(line) for line in (GOLDEN / "verify_all.jsonl").read_text().splitlines()]
    assert header == ["suite", "label", "checked", "skipped", "failure_count", "passed"]
    assert rows == [[str(record[column]) for column in header] for record in records]
    assert sum("," in row[1] for row in rows) > 100
