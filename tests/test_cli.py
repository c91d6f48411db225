"""CLI behaviour: formats, exit codes, precondition errors."""

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from mexparts import mex, partitions, singular, suites
from mexparts.cli import build_parser, main
from mexparts.congruences import FUNCTIONS
from mexparts.partitions import P_TABLE_BOUND
from mexparts.series import SERIES_ORDER_BOUND
from mexparts.suites import K_MAX_BOUND, SUITE_NAMES, suite_bounds

ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.strip().splitlines()]


def run_cli_timed(capsys, *argv):
    started = time.monotonic()
    code, out, err = run_cli(capsys, *argv)
    return code, out, err, time.monotonic() - started


class TestCompute:
    def test_p_rows(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "p", "--n-max", "5")
        rows = json_lines(out)
        assert code == 0
        assert rows[0] == {"function": "p", "params": {}, "n": 0, "value": "1"}
        assert rows[-1] == {"function": "p", "params": {}, "n": 5, "value": "7"}

    def test_mex_oracle_worked_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "p_Aa_oracle", "--A", "2", "--a", "2", "--n-max", "5"
        )
        assert code == 0
        assert json_lines(out)[-1] == {
            "function": "p_Aa_oracle",
            "params": {"A": 2, "a": 2},
            "n": 5,
            "value": "4",
        }

    def test_singular_worked_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "singular", "--k", "3", "--i", "1", "--n-max", "4"
        )
        assert code == 0
        assert json_lines(out)[-1]["value"] == "10"

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "p_tt", "--t", "2", "--n-max", "5", "--format", "csv"
        )
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "function,params,n,value"
        assert lines[-1] == "p_tt,t=2,5,4"

    def test_trunc_cap_fails_fast(self, capsys):
        code, _, err = run_cli(capsys, "compute", "singular", "--n-max", "2500")
        assert code == 2
        assert "trunc" in err

    def test_oracle_bound_is_a_usage_error(self, capsys):
        code, out, err, elapsed = run_cli_timed(capsys, "compute", "p_Aa_oracle", "--n-max", "61")
        assert code == 2
        assert "60" in err
        assert out == ""
        assert elapsed < 1.0

    def test_singular_oracle_bound_fails_fast(self, capsys):
        code, out, err, elapsed = run_cli_timed(capsys, "compute", "C_ki_oracle", "--n-max", "51")
        assert code == 2
        assert "50" in err
        assert out == ""
        assert elapsed < 1.0

    @pytest.mark.parametrize("function", ["p_tt", "p_2tt"])
    @pytest.mark.parametrize("t", ["0", "-1"])
    def test_bad_t_fails_before_any_series_work(self, capsys, function, t):
        code, out, err, elapsed = run_cli_timed(
            capsys, "compute", function, "--t", t, "--n-max", "20000", "--trunc", "20000"
        )
        assert code == 2
        assert "t must be positive" in err
        assert out == ""
        assert elapsed < 1.0

    def test_invalid_singular_params(self, capsys):
        code, _, err = run_cli(
            capsys, "compute", "C_ki_oracle", "--k", "4", "--i", "3", "--n-max", "5"
        )
        assert code == 2
        assert "i must satisfy" in err

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compute", "unknown-function", "--n-max", "3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["compute", "p", "--n-max", "3", "--t", "5"], "p takes none of t, k, i, A, a; given: t"),
            (["compute", "p_Aa_oracle", "--t", "4", "--n-max", "3"], "p_Aa_oracle takes A and a; given: t"),
            (["compute", "C_ki_oracle", "--A", "2", "--n-max", "3"], "C_ki_oracle takes k and i; given: A"),
            (["compute", "p_tt", "--i", "2", "--n-max", "3"], "p_tt takes t; given: i"),
            (["compute", "singular", "--t", "1", "--k", "5", "--n-max", "3"], "singular takes k and i; given: t, k"),
            (["oracle-check", "--function", "p", "--n-max", "3", "--k", "9"], "p takes none of t, k, i; given: k"),
            (["oracle-check", "--function", "p_2tt", "--k", "9", "--n-max", "3"], "p_2tt takes t; given: k"),
        ],
    )
    def test_a_flag_the_function_does_not_take_is_refused(self, capsys, argv, message):
        code, out, err, elapsed = run_cli_timed(capsys, *argv)
        assert code == 2
        assert err == f"error: {message}\n"
        assert out == ""
        assert elapsed < 1.0

    def test_omitted_flags_take_their_defaults(self, capsys):
        for argv, params in [
            (["compute", "p_tt", "--n-max", "3"], {"t": 1}),
            (["compute", "singular", "--n-max", "3"], {"k": 3, "i": 1}),
            (["compute", "p_Aa_oracle", "--n-max", "3"], {"A": 1, "a": 1}),
            (["compute", "C_ki_oracle", "--i", "1", "--n-max", "3"], {"k": 3, "i": 1}),
        ]:
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            assert all(row["params"] == params for row in json_lines(out))

    def test_a_closed_stdout_exits_2_without_a_traceback(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        with open(tmp_path / "err", "w+") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "mexparts.cli", "compute", "p", "--n-max", "20000"],
                stdout=subprocess.PIPE, stderr=err, env=env,
            )
            assert proc.stdout.readline() == b'{"function": "p", "params": {}, "n": 0, "value": "1"}\n'
            proc.stdout.close()
            assert proc.wait(timeout=120) == 2
            err.seek(0)
            assert "Traceback" not in err.read()


    @pytest.mark.parametrize("function", ["p", "p_tt", "p_2tt", "singular"])
    def test_table_bound_is_refused_before_the_support_is_built(self, capsys, monkeypatch, function):
        # the p(n) table is grown to n_max first, so past its bound no
        # support of about sqrt(n_max) terms is ever built
        takes, build, name = FUNCTIONS[function]

        def spy(*args):
            assert args[-1] <= P_TABLE_BOUND, "support built past the table bound"
            return build(*args)

        monkeypatch.setitem(FUNCTIONS, function, (takes, spy, name))
        n_max = str(10**12)
        code, out, err = run_cli(capsys, "compute", function, "--n-max", n_max, "--trunc", n_max)
        assert code == 2 and out == ""
        assert f"p(n) tables are limited to n <= {P_TABLE_BOUND} (got {n_max})" in err


class TestVerify:
    def test_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "thm12", "--n-max", "40")
        assert code == 0
        rows = json_lines(out)
        assert rows and all(r["passed"] for r in rows)

    def test_parity_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "parity", "--n-max", "300")
        assert code == 0
        assert all(r["passed"] for r in json_lines(out))

    def test_section1(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "section1", "--n-max", "12")
        assert code == 0

    def test_progression_negative_control_exits_1(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify",
            "progression",
            "--function",
            "p",
            "--step",
            "5",
            "--offset",
            "5",
            "--modulus",
            "5",
            "--n-max",
            "50",
        )
        assert code == 1
        (row,) = json_lines(out)
        assert not row["passed"]
        assert row["failure_count"] >= 1
        assert row["failures"][0]["argument"] == 5 * row["failures"][0]["n"] + 5

    def test_progression_positive(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify",
            "progression",
            "--function",
            "p_tt",
            "--t",
            "5",
            "--step",
            "5",
            "--offset",
            "4",
            "--modulus",
            "5",
            "--n-max",
            "100",
        )
        assert code == 0

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "thm6", "--n-max", "30", "--format", "csv"
        )
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "suite,label,checked,skipped,failure_count,passed"
        assert all(line.endswith("True") for line in lines[1:])

    def test_thm6_builds_no_series(self, capsys):
        # every thm6 sweep reads the p(n) table
        code, out, _ = run_cli(capsys, "verify", "thm6", "--n-max", "5")
        assert code == 0 and len(json_lines(out)) == 8

    def test_parity_trunc_guard(self, capsys):
        # the parity sweeps read the p(n) table, so no series order binds
        code, out, _ = run_cli(capsys, "verify", "parity", "--n-max", "2500")
        assert code == 0
        assert [r["checked"] for r in json_lines(out)] == [5000, 5000]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["thm1", "--n-max", str(SERIES_ORDER_BOUND + 1)], f"orders are limited to {SERIES_ORDER_BOUND}"),
            (["thm3", "--n-max", str(SERIES_ORDER_BOUND + 1)], f"orders are limited to {SERIES_ORDER_BOUND}"),
            (["ramanujan", "--k-max", str(K_MAX_BOUND + 1)], f"k_max <= {K_MAX_BOUND}"),
            (["ramanujan", "--k-max", "0"], "k_max >= 1"),
            (["thm1", "--t-max", "0"], "t_max >= 1"),
            (["parity", "--n-max", "-1"], "n_max >= 0"),
            (["progression", "--n-max", "-1"], "n_max must be non-negative"),
            # an ad-hoc sweep: a non-prime exclusion, or one that checks nothing
            (["progression", "--n-max", "5", "--exclude-prime", "0"], "prime, not 0"),
            (["progression", "--n-max", "5", "--exclude-prime", "1"], "prime, not 1"),
            (["progression", "--n-max", "5", "--exclude-prime", "4"], "prime, not 4"),
            (["progression", "--n-max", "5", "--exclude-prime", "-3"], "prime, not -3"),
            (["progression", "--offset", "60000", "--n-max", "5"], "argument cap 50000"),
            (["progression", "--n-max", "0", "--exclude-prime", "5"], "skips every swept index"),
            # a --t, --k or --i the progression function does not take
            (
                ["progression", "--function", "p", "--step", "5", "--offset", "4", "--modulus",
                 "5", "--t", "3", "--k", "12", "--i", "3", "--n-max", "5"],
                "p takes none of t, k, i; given: t, k, i",
            ),
            (["progression", "--function", "p_tt", "--t", "2", "--k", "12"], "given: t, k"),
            (["progression", "--function", "p_2tt", "--t", "2", "--i", "1"], "given: t, i"),
            (["progression", "--function", "singular", "--k", "12", "--i", "3", "--t", "3"],
             "singular takes k and i; given: t, k, i"),
        ],
    )
    def test_bad_suite_arguments_fail_fast(self, capsys, argv, message):
        code, out, err, elapsed = run_cli_timed(capsys, "verify", *argv)
        assert code == 2
        assert message in err
        assert out == ""
        assert elapsed < 1.0

    @pytest.mark.parametrize(
        "argv, message",
        [
            # a progression flag given to a named suite or to all, even at
            # its progression default, is a usage error, never silently dropped
            (["thm12", "--t", "3", "--step", "7", "--n-max", "5"], "thm12 does not take --step, --t"),
            (["thm5", "--function", "p"], "thm5 does not take --function"),
            (["thm5", "--step", "1"], "thm5 does not take --step"),
            (["thm5", "--offset", "0"], "thm5 does not take --offset"),
            (["thm5", "--modulus", "2"], "thm5 does not take --modulus"),
            (["thm1", "--t", "2"], "thm1 does not take --t"),
            (["ramanujan", "--k", "1"], "ramanujan does not take --k"),
            (["thm6", "--i", "1"], "thm6 does not take --i"),
            (["final", "--exclude-prime", "5"], "final does not take --exclude-prime"),
            (["all", "--function", "p_tt", "--t", "3"], "all does not take --function, --t"),
            # and a suite bound given to progression
            (["progression", "--t-max", "0", "--k-max", "0"], "does not take --t-max, --k-max"),
            (["progression", "--t-max", "1"], "progression does not take --t-max"),
            (["progression", "--k-max", "2", "--n-max", "10"], "progression does not take --k-max"),
            # a bound the suite does not take, and any bound given to all
            (["thm12", "--t-max", "3"], "thm12 does not take --t-max"),
            (["all", "--n-max", "50"], "all does not take --n-max"),
        ],
    )
    def test_flags_of_the_other_kind_of_verify_fail_fast(self, capsys, argv, message):
        # argparse refuses each flag the target does not take, naming it
        started = time.monotonic()
        with pytest.raises(SystemExit) as exc:
            main(["verify", *argv])
        elapsed = time.monotonic() - started
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert "unrecognized arguments" in captured.err
        for flag in message.split(" take ")[1].split(", "):
            assert flag in captured.err
        assert captured.out == ""
        assert elapsed < 1.0

    def test_progression_is_capped_like_the_suites(self, capsys):
        code, out, _, elapsed = run_cli_timed(
            capsys, "verify", "progression", "--function", "p", "--step", "1000000",
            "--offset", "4", "--modulus", "5", "--n-max", "5",
        )
        assert code == 0 and elapsed < 2.0
        (row,) = json_lines(out)
        assert row["checked"] == 1
        assert row["metadata"] == {"n_max": 5, "n_max_effective": 0, "argument_cap": 50000}

    def test_progression_defaults(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "progression", "--n-max", "3")
        assert code == 1  # p(n) is not always even
        (row,) = json_lines(out)
        assert row["spec"] == {"function": "p", "step": 1, "offset": 0, "modulus": 2}
        assert row["checked"] == 4

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "verify", "thm14", "--n-max", "30")
        _, second, _ = run_cli(capsys, "verify", "thm14", "--n-max", "30")
        assert first == second

    @pytest.mark.parametrize("target", ["all", *SUITE_NAMES, "progression"])
    def test_trunc_is_a_usage_error(self, capsys, target):
        # the suites bound their own series orders; no verify target takes --trunc
        with pytest.raises(SystemExit) as exc:
            main(["verify", target, "--trunc", "1"])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert "unrecognized arguments: --trunc 1" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("suite", ["thm1", "thm3"])
    def test_series_bound_is_refused_before_any_work(self, capsys, monkeypatch, suite):
        # each suite builds a series of order n_max before it walks or reads
        # the p(n) table
        def fail(*args):
            raise AssertionError("work started before the series bound was checked")

        table = partitions._p_table
        length = len(table)
        monkeypatch.setattr(partitions, "_grow_p_table", fail)
        for module in (suites, singular):
            monkeypatch.setattr(module, "table_rows", fail)
        monkeypatch.setattr(suites, "mex_counts_oracle", fail)
        code, out, err = run_cli(capsys, "verify", suite, "--n-max", str(SERIES_ORDER_BOUND + 1))
        assert code == 2 and out == ""
        assert f"series orders are limited to {SERIES_ORDER_BOUND} (got {SERIES_ORDER_BOUND + 1})" in err
        assert partitions._p_table is table and len(table) == length

    def test_thm3_refuses_the_series_bound_before_the_support_is_built(self, capsys, monkeypatch):
        build = mex.support_p_tt

        def spy(t, limit):
            assert limit <= SERIES_ORDER_BOUND, "support built past the series bound"
            return build(t, limit)

        monkeypatch.setattr(mex, "support_p_tt", spy)
        code, out, err = run_cli(capsys, "verify", "thm3", "--n-max", str(10**12))
        assert code == 2 and out == ""
        assert f"series orders are limited to {SERIES_ORDER_BOUND} (got {10**12})" in err


class TestVerifyParser:
    """Each verify target has its own parser, with only its own flags."""

    OUTPUT_FLAGS = {"command", "run", "suite", "format"}

    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_suite_flags_are_its_bounds(self, name):
        args = vars(build_parser().parse_args(["verify", name]))
        bounds = {key: value for key, value in args.items() if key not in self.OUTPUT_FLAGS}
        assert bounds == suite_bounds(name)

    def test_all_takes_no_bounds(self):
        args = vars(build_parser().parse_args(["verify", "all"]))
        assert set(args) == self.OUTPUT_FLAGS

    def test_progression_defaults(self):
        args = build_parser().parse_args(["verify", "progression"])
        defaults = (args.function, args.step, args.offset, args.modulus, args.n_max)
        assert defaults == ("p", 1, 0, 2, 100)
        assert args.t is args.k is args.i is args.exclude_prime is None

    @pytest.mark.parametrize(
        "argv",
        [
            ["thm1", "--t", "3"],  # no abbreviation: --t is not --t-max
            ["--format", "csv", "thm6"],  # output flags come after the target
        ],
    )
    def test_usage_errors_exit_2_with_empty_stdout(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["verify", *argv])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_suite_help_lists_only_its_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "thm12", "-h"])
        out = capsys.readouterr().out
        assert exc.value.code == 0
        assert re.search(r"--n-max N_MAX\s+\(default 100\)", out)
        assert "--format" in out
        for flag in ("--trunc", "--t-max", "--k-max", "--function", "--step", "--t ", "--k ", "--i "):
            assert flag not in out



def _help(capsys, parser, argv) -> bytes:
    with pytest.raises(SystemExit) as exc:
        parser.parse_args([*argv, "--help"])
    assert exc.value.code == 0
    return capsys.readouterr().out.encode()


class TestHelp:
    # compared in process, parser against parser, since argparse's layout
    # differs across Python versions

    @pytest.mark.parametrize("command", ["compute", "oracle-check"])
    def test_the_lean_parser_prints_the_same_help(self, capsys, command):
        lean = _help(capsys, build_parser(verify_targets=False), [command])
        assert lean == _help(capsys, build_parser(), [command])
        assert b"--n-max" in lean

    def test_the_top_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for command in ("compute", "verify", "oracle-check"):
            assert re.search(rf"^\s+{command}\s", out, re.MULTILINE), command

    def test_the_verify_help_lists_every_target(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for target in ("all", *SUITE_NAMES, "progression"):
            assert re.search(rf"[{{,]{target}[,}}]", out), target


class TestOracleCheck:
    def test_p_tt_agrees(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle-check", "--function", "p_tt", "--t", "2", "--n-max", "15"
        )
        assert code == 0
        rows = json_lines(out)
        assert len(rows) == 16
        assert all(r["equal"] for r in rows)

    def test_singular_agrees(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "oracle-check",
            "--function",
            "singular",
            "--k",
            "4",
            "--i",
            "2",
            "--n-max",
            "15",
        )
        assert code == 0

    def test_p_agrees(self, capsys):
        code, out, _ = run_cli(capsys, "oracle-check", "--function", "p", "--n-max", "25")
        assert code == 0

    def test_p_builds_no_series_so_trunc_does_not_bind(self, capsys):
        code, out, err = run_cli(
            capsys, "oracle-check", "--function", "p", "--n-max", "50", "--trunc", "10"
        )
        assert code == 0, err
        rows = json_lines(out)
        assert [r["n"] for r in rows] == list(range(51))
        assert all(r["equal"] for r in rows)

    @pytest.mark.parametrize("function", ["p_tt", "p_2tt", "singular"])
    def test_series_routes_check_trunc(self, capsys, function):
        code, out, err = run_cli(
            capsys, "oracle-check", "--function", function, "--n-max", "50", "--trunc", "10"
        )
        assert code == 2
        assert "series order 50" in err
        assert out == ""

    @pytest.mark.parametrize("function", ["p_tt", "p_2tt"])
    def test_bad_t_fails_fast(self, capsys, function):
        code, out, err, elapsed = run_cli_timed(
            capsys, "oracle-check", "--function", function, "--t", "0", "--n-max", "60"
        )
        assert code == 2
        assert "t must be positive" in err
        assert out == ""
        assert elapsed < 1.0

    def test_oracle_bound_propagates(self, capsys):
        code, _, err, elapsed = run_cli_timed(
            capsys, "oracle-check", "--function", "p_tt", "--n-max", "70"
        )
        assert code == 2
        assert "60" in err
        assert elapsed < 1.0

    @pytest.mark.parametrize(
        "function, n_max, bound",
        [("p", 61, 60), ("p_tt", 61, 60), ("p_2tt", 61, 60), ("singular", 51, 50)],
    )
    def test_every_oracle_bound_fails_fast(self, capsys, function, n_max, bound):
        code, out, err, elapsed = run_cli_timed(
            capsys, "oracle-check", "--function", function, "--n-max", str(n_max)
        )
        assert code == 2
        assert f"<= {bound}" in err
        assert out == ""
        assert elapsed < 1.0
