"""The benchmark's traced runner still hooks the library.

``perfbench/traced.py`` wraps layer entry points by module attribute, and
counts ``partitions.enumerated`` by wrapping ``enumerate_partitions``; a
rename in ``mexparts``, or an oracle that walks partitions around that
name, would leave the counter silently at 0.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from mexparts.suites import SUITE_NAMES

ROOT = Path(__file__).resolve().parent.parent
ARGV = ["compute", "p_Aa_oracle", "--A", "2", "--a", "2", "--n-max", "10"]


def test_traced_runner_counts_every_walk_node(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    plain = subprocess.run(
        [sys.executable, "-m", "mexparts.cli", *ARGV], capture_output=True, env=env, timeout=120
    )
    traced = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced.py"), str(tmp_path / "t"), *ARGV],
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert plain.returncode == 0, plain.stderr
    assert traced.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout
    layers = json.loads((tmp_path / "t.layers.json").read_text())
    # one oracle call walks the p(10) = 42 partitions of 10 for every n <= 10
    assert layers["partitions.enumerated"] == 42
    assert layers["mex.oracle_calls"] == 1


def test_traced_runner_prints_the_golden_verify_all_and_times_every_suite(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    traced = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced.py"), str(tmp_path / "t"),
         "verify", "all", "--format", "json"],
        capture_output=True,
        env=env,
        timeout=300,
    )
    assert traced.returncode == 0, traced.stderr
    assert traced.stdout == (ROOT / "tests" / "golden" / "verify_all.jsonl").read_bytes()
    layers = json.loads((tmp_path / "t.layers.json").read_text())
    assert [name for name in SUITE_NAMES if not layers[f"suites.{name}_s"] > 0] == []
