"""Command-line front end.

Three subcommands:

  compute       print n, value rows for one function (exact decimal values)
  verify        run a verification suite (or an ad-hoc progression claim)
                and print one report per line; exit 1 on any counterexample
  oracle-check  diff an enumeration oracle against the values compute prints

``verify`` targets take no ``--trunc``: the suites bound their own series
orders.  In ``compute`` and ``oracle-check`` it caps p_tt, p_2tt and
singular, and a flag the function does not take is refused.

Formats are JSON (one object per line) and CSV.  Exit codes: 0 all passed,
1 at least one counterexample, 2 usage or resource errors or a closed
stdout.  Output contains no timestamps and no floats, so runs with
identical flags diff clean.

Each command loads only the modules it runs.  This module imports
``partitions`` and ``series`` (``FUNCTIONS`` included) at the top, so
``compute`` and ``oracle-check`` of p, p_tt and p_2tt load nothing more;
singular and C_ki_oracle add ``singular``, and p_Aa_oracle and the
oracle-check of p_tt and p_2tt add ``mex``.  ``verify``, and a command line
with no command (``--help``), load every module, before argparse and json,
and build one ``verify`` target per suite from ``suites.suite_bounds``.
"""

from __future__ import annotations

import os
import sys
from importlib import import_module
from itertools import accumulate, islice
from typing import TYPE_CHECKING, Iterable

from . import partitions
from .partitions import enumerate_partitions, partition_convolution_rows, partition_count
from .series import FUNCTIONS, _require_size

if TYPE_CHECKING:
    import argparse

    from .reports import VerificationReport

DEFAULT_TRUNC = 2000
_FLAG_DEFAULTS = {"t": 1, "k": 3, "i": 1, "A": 1, "a": 1}  # the parsers give none: a given flag shows
_TAKES = {name: entry[0] for name, entry in FUNCTIONS.items()}  # the flags of each function
_TAKES.update(p_Aa_oracle=("A", "a"), C_ki_oracle=("k", "i"))


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------

def _params(args) -> dict:
    """The flags ``args.function`` takes, defaults filled in, checked before
    any work: --n-max, a given flag the function does not take, then for
    p_tt, p_2tt and singular the series order against --trunc and the values."""
    _require_size("--n-max", args.n_max)
    flags = [key for key in _FLAG_DEFAULTS if hasattr(args, key)]
    given = [key for key in flags if getattr(args, key) is not None]
    if not set(given) <= set(takes := _TAKES[args.function]):
        names = " and ".join(takes) or "none of " + ", ".join(flags)
        raise ValueError(f"{args.function} takes {names}; given: {', '.join(given)}")
    params = {key: _FLAG_DEFAULTS[key] if getattr(args, key) is None else getattr(args, key) for key in takes}
    if args.function in ("p_tt", "p_2tt", "singular") and (n_max := args.n_max) > args.trunc:
        raise ValueError(f"this command needs series order {n_max}; raise --trunc (currently {args.trunc})")
    if args.function == "singular":  # theta_support would take k = 2
        from .singular import SingularParams
        SingularParams(**params)
    elif "t" in params:
        _require_size("t", params["t"], least=1)
    return params


def _compute_rows(args) -> tuple[str, dict, Iterable[int]]:
    n_max, name, params = args.n_max, args.function, _params(args)
    # one growth of the p(n) table to n_max first, refused past the table's
    # bound before any support is built; rows stream from the table itself,
    # p as its first n_max + 1 entries and the others block by block, so no
    # per-n list is made
    if name in FUNCTIONS:
        partition_count(n_max)
        if name == "p":
            return "p", {}, islice(partitions._p_table, n_max + 1)
        support = FUNCTIONS[name][1](*params.values(), n_max)
        return name, params, partition_convolution_rows(support, n_max)
    if name == "p_Aa_oracle":
        from .mex import MexParams, mex_count_oracle
        return name, params, mex_count_oracle(n_max, MexParams(**params))
    # C_ki_oracle, the last of the parser's choices
    from .singular import SingularParams, singular_overpartition_oracle
    return name, params, singular_overpartition_oracle(n_max, SingularParams(**params))


def _params_csv(params: dict) -> str:
    return ";".join(f"{k}={v}" for k, v in params.items())


def _write_rows(rows) -> None:
    # 256 rows per write, never the whole output in one string: unbuffered
    # (PYTHONUNBUFFERED), stdout sends each write to the file on its own, and
    # 256 rows of p(n <= 50000) stay well under 128 KiB
    rows = iter(rows)
    while chunk := "".join(islice(rows, 256)):
        sys.stdout.write(chunk)


def cmd_compute(args) -> int:
    name, params, values = _compute_rows(args)
    if args.format == "json":
        import json
        head = json.dumps({"function": name, "params": params})[:-1]
        _write_rows(f'{head}, "n": {n}, "value": "{value}"}}\n' for n, value in enumerate(values))
    else:
        head = f"{name},{_params_csv(params)}"
        sys.stdout.write("function,params,n,value\n")
        _write_rows(f"{head},{n},{value}\n" for n, value in enumerate(values))
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

_REPORT_COLUMNS = ("suite", "label", "checked", "skipped", "failure_count", "passed")  # CSV


def _emit_reports(results: dict[str, list[VerificationReport]], fmt: str) -> int:
    # one record per report, {suite, **to_json()}, made as it is written (not
    # all held at once): a JSON line, or a CSV row of its columns
    records = ({"suite": suite, **report.to_json()} for suite, reports in results.items() for report in reports)
    if fmt == "json":
        import json
        sys.stdout.writelines(json.dumps(record) + "\n" for record in records)
    else:  # the csv module quotes the labels that hold a comma
        import csv  # loaded only here: it adds about 0.2 MiB to a process's peak RSS
        writer = csv.DictWriter(sys.stdout, _REPORT_COLUMNS, extrasaction="ignore", lineterminator="\n")
        writer.writeheader()
        writer.writerows(records)
    return 0 if all(r.passed for reports in results.values() for r in reports) else 1


def cmd_verify(args) -> int:
    from .congruences import ARG_CAP, ProgressionSpec, check_progression
    from .suites import run_all, run_suite, suite_bounds
    if args.suite == "progression":
        spec = ProgressionSpec(
            args.function, args.step, args.offset, args.modulus,
            args.t, args.k, args.i, args.exclude_prime,
        )
        report = check_progression(spec, args.n_max)
        if report.metadata.get("n_max_effective", 0) < 0:
            raise ValueError(f"--offset {spec.offset} is past the argument cap {ARG_CAP}")
        if not report.checked:
            raise ValueError(f"--exclude-prime {spec.exclude_prime} skips every swept index")
        results = {"progression": [report]}
    elif args.suite == "all":
        results = run_all()
    else:
        bounds = {key: getattr(args, key) for key in suite_bounds(args.suite)}
        results = {args.suite: run_suite(args.suite, **bounds)}
    return _emit_reports(results, args.format)


# ---------------------------------------------------------------------------
# oracle-check
# ---------------------------------------------------------------------------

def cmd_oracle_check(args) -> int:
    n_max, params = args.n_max, _params(args)
    # each oracle refuses an n_max past its bound at the call, before any
    # series or per-n list is built
    if args.function == "p":  # counts walk nodes and builds no series
        walk = enumerate_partitions(n_max)
        # a node of the walk of n_max with parts above 1 totalling s, plus
        # n - s ones, is one partition of each n >= s
        nodes = [0] * (n_max + 1)
        for mult in walk:
            nodes[n_max - mult[1]] += 1
        oracle = accumulate(nodes)
    elif args.function == "singular":
        from .singular import SingularParams, singular_overpartition_oracle
        oracle = singular_overpartition_oracle(n_max, SingularParams(**params))
    else:  # p_tt or p_2tt, t refused as t here: MexParams(A * t, t) would name A
        from .mex import MexParams, mex_count_oracle
        t = params["t"]
        oracle = mex_count_oracle(n_max, MexParams(t if args.function == "p_tt" else 2 * t, t))
    # against the table route, the values compute prints
    name, _, expected = _compute_rows(args)
    rows = [(n, value, series, value == series) for n, (value, series) in enumerate(zip(oracle, expected))]
    if args.format == "json":
        import json
        head = json.dumps({"function": name})[:-1]
        _write_rows(
            f'{head}, "n": {n}, "oracle": "{value}", "series": "{series}", '
            f'"equal": {json.dumps(equal)}}}\n'
            for n, value, series, equal in rows
        )
    else:
        sys.stdout.write("function,n,oracle,series,equal\n")
        _write_rows(f"{name},{n},{value},{series},{equal}\n" for n, value, series, equal in rows)
    return 0 if all(equal for *_, equal in rows) else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser(verify_targets: bool = True) -> argparse.ArgumentParser:
    """The parser of every command.  With ``verify_targets`` false, ``verify``
    gets no targets, so no suite is loaded: a parser for ``compute`` and
    ``oracle-check`` only, whose help reads the same."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="mexparts",
        description="Exact mex-related partition functions, singular overpartitions, "
        "and machine verification of their congruence families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("json", "csv"), default="json")
    common = argparse.ArgumentParser(add_help=False, parents=[output])
    common.add_argument(
        "--trunc",
        type=int,
        default=DEFAULT_TRUNC,
        help="cap on --n-max for p_tt, p_2tt and singular (default %(default)s)",
    )

    p_compute = sub.add_parser("compute", parents=[common], help="print n, value rows")
    p_compute.add_argument(
        "function",
        choices=(*FUNCTIONS, "p_Aa_oracle", "C_ki_oracle"),
    )
    p_compute.add_argument("--n-max", type=int, required=True)
    p_compute.add_argument("--t", type=int, help="t for p_tt / p_2tt (default 1)")
    p_compute.add_argument("--k", type=int, help="k for singular / C_ki_oracle (default 3)")
    p_compute.add_argument("--i", type=int, help="i for singular / C_ki_oracle (default 1)")
    p_compute.add_argument("--A", type=int, help="A for p_Aa_oracle (default 1)")
    p_compute.add_argument("--a", type=int, help="a for p_Aa_oracle (default 1)")
    p_compute.set_defaults(run=cmd_compute)

    p_verify = sub.add_parser("verify", help="run verification sweeps")
    p_verify.set_defaults(run=cmd_verify)
    if verify_targets:
        _add_verify_targets(p_verify, output)

    p_oracle = sub.add_parser(
        "oracle-check", parents=[common], help="diff oracle counts against series coefficients"
    )
    p_oracle.add_argument("--function", choices=FUNCTIONS, required=True)
    p_oracle.add_argument("--n-max", type=int, required=True)
    p_oracle.add_argument("--t", type=int, help="t for p_tt / p_2tt (default 1)")
    p_oracle.add_argument("--k", type=int, help="k for singular (default 3)")
    p_oracle.add_argument("--i", type=int, help="i for singular (default 1)")
    p_oracle.set_defaults(run=cmd_oracle_check)

    return parser


def _add_verify_targets(p_verify: argparse.ArgumentParser, output: argparse.ArgumentParser) -> None:
    from .suites import SUITE_NAMES, suite_bounds
    # one parser per target, holding only that target's flags; no
    # abbreviations, so --t cannot stand for --t-max
    targets = p_verify.add_subparsers(dest="suite", required=True)
    target_options = {"parents": [output], "allow_abbrev": False}
    targets.add_parser("all", help="every suite at its default bounds", **target_options)
    for name in SUITE_NAMES:
        target = targets.add_parser(name, **target_options)
        for key, default in suite_bounds(name).items():
            flag = "--" + key.replace("_", "-")
            target.add_argument(flag, type=int, default=default, help="(default %(default)s)")
    target = targets.add_parser("progression", help="an ad-hoc progression claim", **target_options)
    target.add_argument("--function", choices=FUNCTIONS, default="p", help="(default %(default)s)")
    target.add_argument("--t", type=int)
    target.add_argument("--k", type=int)
    target.add_argument("--i", type=int)
    target.add_argument("--step", type=int, default=1, help="step a (default %(default)s)")
    target.add_argument("--offset", type=int, default=0, help="offset b (default %(default)s)")
    target.add_argument("--modulus", type=int, default=2, help="modulus m (default %(default)s)")
    target.add_argument("--exclude-prime", type=int)
    target.add_argument("--n-max", type=int, default=100, help="(default %(default)s)")


# the modules the verify path adds, in the package's order: with no bytecode
# cache each is compiled as it loads, and those compiles set the peak RSS of
# `verify all`, lowest when they come before argparse and json
_VERIFY_MODULES = ("congruences", "mex", "reports", "singular", "stats", "suites")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    lean = bool(argv) and argv[0] in ("compute", "oracle-check")
    if not lean:
        for name in _VERIFY_MODULES:
            import_module(f"{__package__}.{name}")
    parser = build_parser(verify_targets=not lean)
    args = parser.parse_args(argv)
    try:
        code = args.run(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader closed stdout; devnull takes the exit flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2


if __name__ == "__main__":
    sys.exit(main())
