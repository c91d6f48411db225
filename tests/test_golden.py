"""stdout of fixed CLI commands is byte-identical to the captures in
tests/golden/, so a refactor or speed-up cannot change what is reported.

A change that alters output on purpose re-records the capture, e.g.

    PYTHONPATH=src python -m mexparts.cli verify all --format json > tests/golden/verify_all.jsonl
"""

import csv
import json
from pathlib import Path

import pytest

from mexparts.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "capture, argv",
    [
        ("verify_all.jsonl", ["verify", "all", "--format", "json"]),
        (
            "oracle_check_singular_k5_i2_n30.jsonl",
            ["oracle-check", "--function", "singular", "--k", "5", "--i", "2", "--n-max", "30"],
        ),
        (
            "compute_singular_k12_i3_n600.jsonl",
            ["compute", "singular", "--k", "12", "--i", "3", "--n-max", "600"],
        ),
        (
            # the self-paired case k = 2i
            "compute_singular_k4_i2_n300.jsonl",
            ["compute", "singular", "--k", "4", "--i", "2", "--n-max", "300"],
        ),
        ("compute_p_2tt_t2_n600.jsonl", ["compute", "p_2tt", "--t", "2", "--n-max", "600"]),
        ("compute_p_n300.jsonl", ["compute", "p", "--n-max", "300"]),
        ("compute_p_tt_t3_n300.jsonl", ["compute", "p_tt", "--t", "3", "--n-max", "300"]),
        (
            "verify_ramanujan_k1_t1_n50.jsonl",
            ["verify", "ramanujan", "--k-max", "1", "--t-max", "1", "--n-max", "50"],
        ),
        (
            "verify_thm3_t3_n200.csv",
            ["verify", "thm3", "--t-max", "3", "--n-max", "200", "--format", "csv"],
        ),
        ("verify_thm6_n30.csv", ["verify", "thm6", "--n-max", "30", "--format", "csv"]),
        ("verify_thm1_t2_n100.jsonl", ["verify", "thm1", "--t-max", "2", "--n-max", "100"]),
        ("verify_final_n20.jsonl", ["verify", "final", "--n-max", "20"]),
        (
            # past the first block of the p(n) table, through the CSV writer
            "compute_p_n2500.csv",
            ["compute", "p", "--n-max", "2500", "--format", "csv"],
        ),
        (
            # one convolution over a table just grown past a block edge
            "compute_singular_k3_i1_n2100.jsonl",
            ["compute", "singular", "--k", "3", "--i", "1", "--n-max", "2100", "--trunc", "2100"],
        ),
        (
            "oracle_check_p_tt_t2_n45.jsonl",
            ["oracle-check", "--function", "p_tt", "--t", "2", "--n-max", "45", "--trunc", "60"],
        ),
        (
            "oracle_check_p_2tt_t1_n40.jsonl",
            ["oracle-check", "--function", "p_2tt", "--t", "1", "--n-max", "40", "--trunc", "60"],
        ),
        (
            # the singular oracle in the self-paired case k = 2i
            "oracle_check_singular_k6_i3_n40.jsonl",
            ["oracle-check", "--function", "singular", "--k", "6", "--i", "3", "--n-max", "40"],
        ),
        (
            "compute_C_ki_oracle_k7_i2_n35.csv",
            ["compute", "C_ki_oracle", "--k", "7", "--i", "2", "--n-max", "35", "--format", "csv"],
        ),
        (
            # t = 1 puts a support term at every triangular number
            "compute_p_tt_t1_n1500.csv",
            ["compute", "p_tt", "--t", "1", "--n-max", "1500", "--format", "csv"],
        ),
        ("compute_p_2tt_t3_n1500.jsonl", ["compute", "p_2tt", "--t", "3", "--n-max", "1500"]),
        (
            # an ad-hoc singular sweep up to argument 1931
            "verify_progression_singular_k12_i3_n120.jsonl",
            [
                "verify", "progression", "--function", "singular", "--k", "12", "--i", "3",
                "--step", "16", "--offset", "11", "--modulus", "8", "--n-max", "120",
            ],
        ),
    ],
)
def test_stdout_matches_golden_capture(capsys, capture, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / capture).read_bytes()


def test_a_false_progression_past_32_bits_matches_its_capture(capsys):
    # p(7n + 505) exceeds 10^21 at every argument, so each of the 101 rows
    # is a failure, the exact p(n) reduced mod 10^21 past 32-bit fields;
    # the sweep reports them and exits 1
    argv = ["verify", "progression", "--function", "p", "--step", "7", "--offset", "505",
            "--modulus", str(10**21), "--n-max", "100"]
    assert main(argv) == 1
    capture = GOLDEN / "verify_progression_p_7n505_mod10e21_n100.jsonl"
    assert capsys.readouterr().out.encode() == capture.read_bytes()


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
