"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the root of a checkout):

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--workload NAME ...]

Workloads are interleaved (seed 1 of every workload, then seed 2, ...), so
a drift of the machine's speed during the batch lands on all of them.  For
every end-to-end metric it prints the median of the per-run values, their
quartiles, and the spread (q3 - q1) / median next to the metric's bound.
All per-run results go to ``perfbench/out/spread.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import run


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=tuple(run.GRIDS))
    args = parser.parse_args()
    workloads = args.workload or list(run.GRIDS)

    values = {w: {m["name"]: [] for m in spec["end_to_end"]} for w in workloads}
    ok = True
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for w in workloads:
            done = subprocess.run(
                [sys.executable, str(run.BENCH / "run.py"), "--workload", w, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=run.ROOT, capture_output=True, text=True, timeout=300,
            )
            result = json.loads(done.stdout.splitlines()[-1]) if done.stdout else None
            if done.returncode != 0 or result is None or not result["correct"]:
                print(f"FAILED {w} seed {seed}: exit {done.returncode}\n{done.stdout}{done.stderr}")
                ok = False
                continue
            for m, v in result["metrics"].items():
                values[w][m].append(v["value"])
            print(f"{w:10s} seed {seed:3d} " + " ".join(
                f"{m}={v['value']:.4g}" for m, v in result["metrics"].items()), flush=True)

    print(f"{'workload':10s} {'metric':14s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
          f"{'spread':>7s} {'bound':>6s}")
    for w in workloads:
        for m in spec["end_to_end"]:
            vals = values[w][m["name"]]
            if len(vals) < 2:
                continue
            q1, med, q3 = run.quartiles(vals)
            spread = (q3 - q1) / med
            print(f"{w:10s} {m['name']:14s} {med:10.4g} {q1:10.4g} {q3:10.4g} "
                  f"{spread:7.3f} {m['bound']:6.2f}")
    run.OUT.mkdir(exist_ok=True)
    with open(run.OUT / "spread.json", "w") as fh:
        json.dump(values, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
