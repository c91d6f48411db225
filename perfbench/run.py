"""End-to-end and per-layer benchmark of the ``mexparts`` CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A closed loop with one client: each op is one CLI invocation in a fresh
interpreter, so every op pays for its own cold p(n) table and caches, as a
user does.  The workload's op list is run in rounds until ``--seconds``
have passed (at least one round); timings are medians over the rounds.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every op
twice per round, untraced and then under ``perfbench/traced.py``, checks
that both print the same bytes, and reports the per-layer metrics.  Every
op's output is checked (see ``check_op``); any failed check makes the run
incorrect and the exit code 1.  The last stdout line is one JSON object;
the full record (metadata and raw samples) goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import filecmp
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "perfbench"
OUT = BENCH / "out"
EXPECTED = BENCH / "expected.json"

SETUP_SAMPLES = 5  # per round
HARD_STOP_S = 150.0  # never start a round that would end past this

NEGATIVE_CONTROL = ["verify", "progression", "--function", "p", "--step", "5",
                    "--offset", "5", "--modulus", "5", "--n-max", "100"]

# Parameter grids: the seed draws one member of each; members of a grid
# cost the same within the machine's run-to-run noise.
GRIDS = {
    "verify-all": {},
    "p-table": {"n_max": (49_998, 49_999, 50_000)},
    "series": {"t": (1, 2, 3)},
    "oracle": {"t": (1, 2, 3), "ki": ((5, 1), (5, 2), (6, 1))},
}


def workload_ops(workload: str, params: dict) -> list[list[str]]:
    """The CLI argument lists of one round of a workload."""
    if workload == "verify-all":
        return [["verify", "all"], NEGATIVE_CONTROL]
    if workload == "p-table":
        return [["compute", "p", "--n-max", str(params["n_max"])]]
    if workload == "series":
        return [
            ["compute", "singular", "--k", "4", "--i", "1", "--n-max", "4000", "--trunc", "4000"],
            ["compute", "singular", "--k", "12", "--i", "3", "--n-max", "5000", "--trunc", "5000"],
            ["compute", "p_2tt", "--t", str(params["t"]), "--n-max", "5000", "--trunc", "5000"],
        ]
    if workload == "oracle":
        k, i = params["ki"]
        return [
            ["oracle-check", "--function", "p_tt", "--t", str(params["t"]),
             "--n-max", "52", "--trunc", "60"],
            ["oracle-check", "--function", "singular", "--k", str(k), "--i", str(i),
             "--n-max", "45"],
        ]
    raise ValueError(f"unknown workload {workload!r}")


def choose_params(workload: str, seed: int) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    return {name: rng.choice(grid) for name, grid in GRIDS[workload].items()}


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def op_key(argv: list[str]) -> str:
    return " ".join(argv)


def _n_max(argv: list[str]) -> int:
    return int(argv[argv.index("--n-max") + 1])


def summarize(argv: list[str], lines) -> dict:
    """Parse one op's JSON-lines stdout into the facts the check compares.

    Fields are parsed, not bytes hashed, so the check survives changes of
    layout; values are hashed as (n, integer) sequences.
    """
    command = argv[0]
    digest = hashlib.sha256()
    rows = checked = failures = unequal = 0
    in_order = True
    for line in lines:
        rec = json.loads(line)
        if command == "verify":
            checked += int(rec["checked"])
            failures += int(rec["failure_count"])
        else:
            n = int(rec["n"])
            in_order = in_order and n == rows
            if command == "compute":
                fields = (n, int(rec["value"]))
            else:
                fields = (n, int(rec["oracle"]), int(rec["series"]))
                unequal += rec["equal"] is not True
            digest.update(repr(fields).encode())
        rows += 1
    if command == "verify":
        return {"reports": rows, "checked": checked, "failures": failures}
    out = {"rows": rows, "in_order": in_order, "digest": digest.hexdigest()}
    if command == "oracle-check":
        out["unequal"] = unequal
    return out


def check_op(argv: list[str], exit_code: int, summary: dict | None, expected: dict) -> list[str]:
    """Problems with one op's result; empty when the output is correct.

    ``expected`` is the op's record in ``expected.json``: its exit code and,
    for ``verify``, the total of ``checked`` at the seed commit (a change may
    not check less), else a digest of the parsed rows.
    """
    problems = []
    if exit_code != expected["exit"]:
        problems.append(f"exit code {exit_code}, expected {expected['exit']}")
    if summary is None:
        return problems + ["output could not be parsed"]
    if argv[0] == "verify":
        if summary["reports"] == 0:
            problems.append("no reports")
        if expected["exit"] == 0 and summary["failures"] != 0:
            problems.append(f"{summary['failures']} failures in a passing suite")
        if expected["exit"] == 1 and summary["failures"] < 1:
            problems.append("negative control reported no failure")
        if summary["checked"] < expected["checked"]:
            problems.append(f"checked {summary['checked']} < {expected['checked']} at the seed")
        return problems
    if summary["rows"] != _n_max(argv) + 1 or not summary["in_order"]:
        problems.append(f"{summary['rows']} rows, expected n = 0..{_n_max(argv)} in order")
    if summary.get("unequal"):
        problems.append(f"{summary['unequal']} rows with oracle != series")
    if summary["digest"] != expected["digest"]:
        problems.append("values differ from the seed's")
    return problems


def summarize_file(argv: list[str], path: Path) -> dict | None:
    try:
        with open(path, "rb") as fh:
            return summarize(argv, fh)
    except (ValueError, KeyError, TypeError):
        return None


# ---------------------------------------------------------------------------
# running ops
# ---------------------------------------------------------------------------

def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


# Runs ``python -m mexparts.cli`` and at exit writes the process's VmHWM to
# stderr.  The child's own high-water mark is used because ru_maxrss from
# wait4 also counts the memory of this process at the time of the spawn;
# that is the fallback where /proc is missing.
OP_MAIN = (
    "import atexit, runpy, sys\n"
    "def _hwm():\n"
    "    with open('/proc/self/status') as fh:\n"
    "        sys.stderr.write(''.join(l for l in fh if l.startswith('VmHWM:')))\n"
    "atexit.register(_hwm)\n"
    "runpy.run_module('mexparts.cli', run_name='__main__', alter_sys=True)\n"
)


def _vmhwm_mib(stderr_path: Path) -> float | None:
    with open(stderr_path, "rb") as fh:
        lines = [line for line in fh if line.startswith(b"VmHWM:")]
    return int(lines[-1].split()[1]) / 1024 if lines else None


def run_process(cmd: list[str], stdout_path: Path) -> dict:
    """Run ``cmd`` to completion; stdout goes to a file so that neither a
    pipe nor this process's memory affects the op's time."""
    stderr_path = OUT / "stderr.txt"
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=_env())
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "exit": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_mib": _vmhwm_mib(stderr_path) or usage.ru_maxrss / 1024,
    }


SETUP_CMD = [sys.executable, "-c", "import mexparts.cli"]


def measure_setup(samples: int) -> list[float]:
    """Interpreter start plus ``import mexparts.cli``, no command run."""
    return [run_process(SETUP_CMD, OUT / "setup.txt")["wall_s"] for _ in range(samples)]


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def describe(values: list[float]) -> dict:
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB"}

# per-layer metric -> (unit, how rounds combine the values of their ops)
PER_LAYER = {
    **{m: ("s", "sum") for m in (
        "series.pochhammer_s", "series.mul_s", "series.invert_s",
        "partitions.p_table_grow_s", "partitions.genseries_s", "partitions.restricted_s",
        "mex.oracle_s", "mex.identity_s", "mex.genfun_s",
        "singular.oracle_s", "singular.genfun_s", "stats.section1_s",
        "congruences.progression_s", "congruences.parity_s",
        "suites.examples_s", "suites.thm1_s", "suites.thm2_s", "suites.ramanujan_s",
        "suites.thm3_s", "suites.parity_s", "suites.section1_s", "suites.thm5_s",
        "suites.thm11_s", "suites.thm6_s", "suites.cor1_s", "suites.thm12_s",
        "suites.thm13_s", "suites.thm14_s", "suites.final_s",
        "cli.compute_rows_s", "cli.emit_s", "trace.overhead_s",
    )},
    **{m: ("count", "sum") for m in (
        "series.mul_calls", "series.mul_ops", "partitions.enumerated",
        "partitions.genseries_hits", "mex.oracle_calls", "mex.identity_calls",
        "singular.oracle_calls", "congruences.progression_calls",
        "congruences.cases_checked", "congruences.cases_skipped",
        "congruences.reports", "congruences.vacuous_reports",
    )},
    "partitions.p_table_len": ("count", "max"),
    "congruences.nonvacuous_ratio": ("ratio", "derived"),
    "cli.stdout_bytes": ("bytes", "sum"),
}


def combine_round(per_op: list[dict]) -> dict:
    """Per-layer metrics of one round from those of its ops."""
    out = {}
    for metric, (_, how) in PER_LAYER.items():
        if how == "sum":
            out[metric] = sum(op[metric] for op in per_op)
        elif how == "max":
            out[metric] = max(op[metric] for op in per_op)
    reports = out["congruences.reports"]
    out["congruences.nonvacuous_ratio"] = (
        (reports - out["congruences.vacuous_reports"]) / reports if reports else 0.0
    )
    return out


# ---------------------------------------------------------------------------
# metadata
# ---------------------------------------------------------------------------

def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git(*args: str) -> str | None:
    # the ceiling stops git from finding a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def metadata(args, params: dict) -> dict:
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": params,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": _cpu_model(),
        "git_commit": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "loadavg_start": os.getloadavg(),
    }


# ---------------------------------------------------------------------------
# main loop
# ---------------------------------------------------------------------------

def run_round(ops: list[list[str]], expected: dict, trace: bool, failures: list) -> list[dict]:
    """Run each op once (and once traced when ``trace``); returns raw samples."""
    samples = []
    for argv in ops:
        plain = run_process([sys.executable, "-c", OP_MAIN, *argv], OUT / "stdout.txt")
        problems = check_op(argv, plain["exit"],
                            summarize_file(argv, OUT / "stdout.txt"), expected[op_key(argv)])
        sample = {"op": op_key(argv), **plain, "stdout_bytes": (OUT / "stdout.txt").stat().st_size}
        if trace:
            prefix = OUT / "trace"
            layers_path = Path(str(prefix) + ".layers.json")
            layers_path.unlink(missing_ok=True)
            traced = run_process(
                [sys.executable, str(BENCH / "traced.py"), str(prefix), *argv],
                OUT / "stdout-traced.txt",
            )
            if traced["exit"] != plain["exit"]:
                problems.append(f"traced exit code {traced['exit']} != {plain['exit']}")
            if not filecmp.cmp(OUT / "stdout-traced.txt", OUT / "stdout.txt", shallow=False):
                problems.append("traced stdout differs from untraced stdout")
            layers = dict.fromkeys(PER_LAYER, 0)
            if layers_path.is_file():
                with open(layers_path) as fh:
                    layers.update(json.load(fh))
            else:
                problems.append("traced run wrote no layer metrics")
            layers["cli.stdout_bytes"] = sample["stdout_bytes"]
            layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
            sample["traced_wall_s"] = traced["wall_s"]
            sample["layers"] = layers
        if problems:
            failures.append({"op": op_key(argv), "problems": problems})
        sample["problems"] = problems
        samples.append(sample)
    return samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(GRIDS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "mexparts" / "cli.py").is_file():
        print(f"error: no mexparts sources under {SRC}", file=sys.stderr)
        return 2
    with open(EXPECTED) as fh:
        expected = json.load(fh)
    params = choose_params(args.workload, args.seed)
    ops = workload_ops(args.workload, params)
    missing = [op_key(op) for op in ops if op_key(op) not in expected]
    if missing:
        print(f"error: no expected output recorded for {missing}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    record = {"metadata": metadata(args, params)}
    run_process(SETUP_CMD, OUT / "setup.txt")  # writes bytecode caches, not timed

    setup, rounds, failures = [], [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        if not args.trace:
            # spread over the run, so that set-up sees the same machine speed
            setup += measure_setup(SETUP_SAMPLES)
        rounds.append(run_round(ops, expected, bool(args.trace), failures))
        now = time.perf_counter()
        if now - start >= args.seconds or now - start + (now - round_start) > HARD_STOP_S:
            break

    attempted = sum(len(r) for r in rounds) * (2 if args.trace else 1)
    if args.trace:
        per_round = [combine_round([s["layers"] for s in r]) for r in rounds]
        series = {m: [r[m] for r in per_round] for m in PER_LAYER}
        units = {m: unit for m, (unit, _) in PER_LAYER.items()}
    else:
        series = {
            "setup_s": setup,
            "wall_s": [sum(s["wall_s"] for s in r) for r in rounds],
            "cpu_s": [sum(s["cpu_s"] for s in r) for r in rounds],
            "peak_rss_mib": [max(s["maxrss_mib"] for s in r) for r in rounds],
        }
        units = END_TO_END
    summary = {m: describe(v) for m, v in series.items()}
    record.update(rounds=rounds, failures=failures, attempted=attempted, summary=summary)
    record["metadata"]["loadavg_end"] = os.getloadavg()
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w") as fh:
        json.dump(record, fh, indent=1)

    for m, d in summary.items():
        print(f"{m:32s} median {d['median']:.6g} [q1 {d['q1']:.6g}, q3 {d['q3']:.6g}] "
              f"n={d['n']} {units[m]}")
    for f in failures:
        print(f"FAILED {f['op']}: {'; '.join(f['problems'])}")
    print(f"fail_frac {len(failures)}/{attempted}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m: {"value": summary[m]["median"], "unit": units[m]} for m in series},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
