"""Record the expected output of every op the benchmark can run.

Usage (from the root of a checkout): python3 perfbench/record.py

Runs each distinct op of every workload, for every member of the parameter
grids, once, and writes ``perfbench/expected.json``: the exit code and, for
``verify``, the total of ``checked``, else a digest of the parsed rows.
Run it only at a commit whose output is known to be right; the benchmark
then holds later commits to it.
"""

from __future__ import annotations

import itertools
import json
import sys

import run


def all_ops() -> list[list[str]]:
    ops = {}
    for workload, grid in run.GRIDS.items():
        names = list(grid)
        for values in itertools.product(*(grid[n] for n in names)):
            for argv in run.workload_ops(workload, dict(zip(names, values))):
                ops[run.op_key(argv)] = argv
    return list(ops.values())


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    expected = {}
    for argv in all_ops():
        result = run.run_process([sys.executable, "-c", run.OP_MAIN, *argv],
                                 run.OUT / "stdout.txt")
        summary = run.summarize_file(argv, run.OUT / "stdout.txt")
        if summary is None:
            print(f"error: unparseable output from {run.op_key(argv)}", file=sys.stderr)
            return 1
        entry = {"exit": 1 if argv == run.NEGATIVE_CONTROL else 0}
        if argv[0] == "verify":
            entry["checked"] = summary["checked"]
        else:
            entry["digest"] = summary["digest"]
        problems = run.check_op(argv, result["exit"], summary, entry)
        if problems:
            print(f"error: {run.op_key(argv)}: {'; '.join(problems)}", file=sys.stderr)
            return 1
        expected[run.op_key(argv)] = entry
        print(f"{result['wall_s']:8.3f}s exit {result['exit']} {run.op_key(argv)}", flush=True)
    with open(run.EXPECTED, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
