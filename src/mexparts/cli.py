"""Command-line front end.

Three subcommands:

  compute       print n, value rows for one function (exact decimal values)
  verify        run a verification suite (or an ad-hoc progression claim)
                and print one report per line; exit 1 on any counterexample
  oracle-check  diff an enumeration oracle against the series route

Formats are JSON (one object per line) and CSV.  Exit codes: 0 all passed,
1 at least one counterexample, 2 usage or resource errors.  Output contains
no timestamps and no floats, so runs with identical flags diff clean.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterable

from .congruences import ARG_CAP, ProgressionSpec, check_progression
from .errors import MexpartsError, OracleBoundExceeded, TruncationTooSmall
from .mex import MEX_ORACLE_BOUND, MexParams, genfun_p_2tt, genfun_p_tt, mex_count_oracle
from .partitions import ENUMERATION_BOUND, enumerate_partitions, partition_convolution, partition_count
from .reports import VerificationReport
from .series import support_p_2tt, support_p_tt
from .singular import (
    SINGULAR_ORACLE_BOUND,
    SingularParams,
    genfun_singular,
    singular_overpartition_oracle,
)
from .suites import SUITE_NAMES, run_all, run_suite, series_order

DEFAULT_TRUNC = 2000


def _require_trunc(needed: int, trunc: int) -> None:
    if needed > trunc:
        raise TruncationTooSmall(
            f"this command needs series order {needed}; raise --trunc (currently {trunc})"
        )


def _require_oracle_bound(n_max: int, bound: int) -> None:
    # checked before the first row: an oracle would otherwise enumerate every
    # n below the bound before refusing
    if n_max > bound:
        raise OracleBoundExceeded(
            f"this enumeration oracle is limited to --n-max <= {bound} (got {n_max})"
        )


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------

def _compute_rows(args) -> tuple[str, dict, list[tuple[int, int]]]:
    n_max = args.n_max
    if n_max < 0:
        raise MexpartsError("--n-max must be non-negative")
    if args.function == "p":
        return "p", {}, [(n, partition_count(n)) for n in range(n_max + 1)]
    if args.function in ("p_tt", "p_2tt"):
        _require_trunc(n_max, args.trunc)
        support = support_p_tt if args.function == "p_tt" else support_p_2tt
        series = partition_convolution(support(args.t, n_max), n_max)
        return args.function, {"t": args.t}, list(enumerate(series.coeffs))
    if args.function == "singular":
        _require_trunc(n_max, args.trunc)
        series = genfun_singular(SingularParams(args.k, args.i), n_max)
        return "singular", {"k": args.k, "i": args.i}, list(enumerate(series.coeffs))
    if args.function == "p_Aa_oracle":
        params = MexParams(args.A, args.a)
        _require_oracle_bound(n_max, MEX_ORACLE_BOUND)
        rows = [(n, mex_count_oracle(n, params)) for n in range(n_max + 1)]
        return "p_Aa_oracle", {"A": args.A, "a": args.a}, rows
    if args.function == "C_ki_oracle":
        params = SingularParams(args.k, args.i)
        _require_oracle_bound(n_max, SINGULAR_ORACLE_BOUND)
        rows = [(n, singular_overpartition_oracle(n, params)) for n in range(n_max + 1)]
        return "C_ki_oracle", {"k": args.k, "i": args.i}, rows
    raise MexpartsError(f"unknown function {args.function!r}")


def _params_csv(params: dict) -> str:
    return ";".join(f"{k}={v}" for k, v in params.items())


def cmd_compute(args) -> int:
    name, params, rows = _compute_rows(args)
    # one writelines call over a generator: a row per write, never the whole
    # output in one string
    out = sys.stdout
    if args.format == "json":
        head = json.dumps({"function": name, "params": params})[:-1]
        out.writelines(f'{head}, "n": {n}, "value": "{value}"}}\n' for n, value in rows)
    else:
        head = f"{name},{_params_csv(params)}"
        out.write("function,params,n,value\n")
        out.writelines(f"{head},{n},{value}\n" for n, value in rows)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _emit_reports(pairs: Iterable[tuple[str, VerificationReport]], fmt: str) -> int:
    all_passed = True
    pairs = list(pairs)
    if fmt == "csv":
        print("suite,label,checked,skipped,failure_count,passed")
    for suite, report in pairs:
        all_passed = all_passed and report.passed
        if fmt == "json":
            print(json.dumps({"suite": suite, **report.to_json()}))
        else:
            print(
                f"{suite},{report.label},{report.checked},{report.skipped},"
                f"{report.failure_count},{report.passed}"
            )
    return 0 if all_passed else 1


# the flags of `verify progression` with their defaults; the parser leaves
# them None, so a flag given to any other suite can be told from an unset one
_PROGRESSION_DEFAULTS = {
    "function": "p",
    "step": 1,
    "offset": 0,
    "modulus": 2,
    "t": None,
    "k": None,
    "i": None,
    "exclude_prime": None,
}


def _given(args, keys: Iterable[str]) -> dict:
    return {key: getattr(args, key) for key in keys if getattr(args, key) is not None}


def _reject_flags(suite: str, given: dict) -> None:
    if given:
        flags = ", ".join("--" + key.replace("_", "-") for key in given)
        raise MexpartsError(f"verify {suite} does not take {flags}")


def cmd_verify(args) -> int:
    bounds = _given(args, ("n_max", "t_max", "k_max"))
    if args.suite == "progression":
        _reject_flags("progression", _given(args, ("t_max", "k_max")))
        spec = ProgressionSpec(**{**_PROGRESSION_DEFAULTS, **_given(args, _PROGRESSION_DEFAULTS)})
        report = check_progression(spec, bounds.get("n_max", 100), arg_cap=ARG_CAP)
        if report.metadata.get("n_max_effective", 0) < 0:
            raise MexpartsError(f"--offset {spec.offset} is past the argument cap {ARG_CAP}")
        if not report.checked:
            raise MexpartsError(f"--exclude-prime {spec.exclude_prime} skips every swept index")
        return _emit_reports([("progression", report)], args.format)
    _reject_flags(args.suite, _given(args, _PROGRESSION_DEFAULTS))
    if args.suite == "all":
        if bounds:
            raise MexpartsError("verify all runs every suite at its default bounds; it takes no bound flags")
        _require_trunc(max(series_order(name) for name in SUITE_NAMES), args.trunc)
        results = run_all()
        pairs = [(suite, report) for suite, reports in results.items() for report in reports]
        return _emit_reports(pairs, args.format)
    _require_trunc(series_order(args.suite, **bounds), args.trunc)
    reports = run_suite(args.suite, **bounds)
    return _emit_reports([(args.suite, r) for r in reports], args.format)


# ---------------------------------------------------------------------------
# oracle-check
# ---------------------------------------------------------------------------

def cmd_oracle_check(args) -> int:
    n_max = args.n_max
    if n_max < 0:
        raise MexpartsError("--n-max must be non-negative")
    _require_trunc(n_max, args.trunc)
    if args.function == "p":
        _require_oracle_bound(n_max, ENUMERATION_BOUND)
        name = "p"
        rows = [
            (n, sum(1 for _ in enumerate_partitions(n)), partition_count(n))
            for n in range(n_max + 1)
        ]
    elif args.function in ("p_tt", "p_2tt"):
        _require_oracle_bound(n_max, MEX_ORACLE_BOUND)
        genfun, A = (genfun_p_tt, 1) if args.function == "p_tt" else (genfun_p_2tt, 2)
        series = genfun(args.t, n_max)  # checks t before the oracle runs
        params = MexParams(A * args.t, args.t)
        name = args.function
        rows = [
            (n, mex_count_oracle(n, params), series.coefficient(n)) for n in range(n_max + 1)
        ]
    elif args.function == "singular":
        params = SingularParams(args.k, args.i)
        _require_oracle_bound(n_max, SINGULAR_ORACLE_BOUND)
        series = genfun_singular(params, n_max)
        name = "singular"
        rows = [
            (n, singular_overpartition_oracle(n, params), series.coefficient(n))
            for n in range(n_max + 1)
        ]
    else:
        raise MexpartsError(f"unknown function {args.function!r}")
    mismatches = 0
    if args.format == "csv":
        print("function,n,oracle,series,equal")
    for n, oracle_value, series_value in rows:
        equal = oracle_value == series_value
        if not equal:
            mismatches += 1
        if args.format == "json":
            print(
                json.dumps(
                    {
                        "function": name,
                        "n": n,
                        "oracle": str(oracle_value),
                        "series": str(series_value),
                        "equal": equal,
                    }
                )
            )
        else:
            print(f"{name},{n},{oracle_value},{series_value},{equal}")
    return 0 if mismatches == 0 else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mexparts",
        description="Exact mex-related partition functions, singular overpartitions, "
        "and machine verification of their congruence families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument(
        "--trunc",
        type=int,
        default=DEFAULT_TRUNC,
        help="cap on series truncation order (default %(default)s)",
    )

    p_compute = sub.add_parser("compute", parents=[common], help="print n, value rows")
    p_compute.add_argument(
        "function",
        choices=("p", "p_tt", "p_2tt", "singular", "p_Aa_oracle", "C_ki_oracle"),
    )
    p_compute.add_argument("--n-max", type=int, required=True)
    p_compute.add_argument("--t", type=int, default=1, help="t for p_tt / p_2tt")
    p_compute.add_argument("--k", type=int, default=3, help="k for singular / C_ki_oracle")
    p_compute.add_argument("--i", type=int, default=1, help="i for singular / C_ki_oracle")
    p_compute.add_argument("--A", type=int, default=1, help="A for p_Aa_oracle")
    p_compute.add_argument("--a", type=int, default=1, help="a for p_Aa_oracle")
    p_compute.set_defaults(run=cmd_compute)

    p_verify = sub.add_parser("verify", parents=[common], help="run verification sweeps")
    p_verify.add_argument("suite", choices=("all", *SUITE_NAMES, "progression"))
    p_verify.add_argument("--n-max", type=int, default=None)
    p_verify.add_argument("--t-max", type=int, default=None)
    p_verify.add_argument("--k-max", type=int, default=None)
    # progression flags: default None, the defaults live in _PROGRESSION_DEFAULTS
    p_verify.add_argument(
        "--function",
        choices=("p", "p_tt", "p_2tt", "singular"),
        help="progression function (default p)",
    )
    p_verify.add_argument("--t", type=int)
    p_verify.add_argument("--k", type=int)
    p_verify.add_argument("--i", type=int)
    p_verify.add_argument("--step", type=int, help="progression step a (default 1)")
    p_verify.add_argument("--offset", type=int, help="progression offset b (default 0)")
    p_verify.add_argument("--modulus", type=int, help="progression modulus m (default 2)")
    p_verify.add_argument("--exclude-prime", type=int)
    p_verify.set_defaults(run=cmd_verify)

    p_oracle = sub.add_parser(
        "oracle-check", parents=[common], help="diff oracle counts against series coefficients"
    )
    p_oracle.add_argument("--function", choices=("p", "p_tt", "p_2tt", "singular"), required=True)
    p_oracle.add_argument("--n-max", type=int, required=True)
    p_oracle.add_argument("--t", type=int, default=1)
    p_oracle.add_argument("--k", type=int, default=3)
    p_oracle.add_argument("--i", type=int, default=1)
    p_oracle.set_defaults(run=cmd_oracle_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except MexpartsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
