"""CLI behaviour: formats, exit codes, precondition errors."""

import json
import time

import pytest

from mexparts.cli import main


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
        # every thm6 sweep reads the p(n) table, so no --trunc is too small
        code, out, _ = run_cli(capsys, "verify", "thm6", "--n-max", "5", "--trunc", "100")
        assert code == 0 and len(json_lines(out)) == 8

    def test_parity_trunc_guard(self, capsys):
        code, _, err = run_cli(capsys, "verify", "parity", "--n-max", "2500")
        assert code == 2
        assert "trunc" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["thm1", "--n-max", "2500"], "series order 2500"),
            (["thm3", "--n-max", "100", "--trunc", "200"], "series order 300"),
            (["all", "--trunc", "999"], "series order 1000"),
            (["ramanujan", "--k-max", "0"], "k_max >= 1"),
            (["thm1", "--t-max", "0"], "t_max >= 1"),
            (["thm12", "--t-max", "3"], "takes only n_max (default 100)"),
            (["all", "--n-max", "50"], "default bounds"),
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
            # its progression default, is an error, never silently dropped
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
        ],
    )
    def test_flags_of_the_other_kind_of_verify_fail_fast(self, capsys, argv, message):
        code, out, err, elapsed = run_cli_timed(capsys, "verify", *argv)
        assert code == 2
        assert message in err
        assert out == ""
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
