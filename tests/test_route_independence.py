"""Routes that check each other share no code but the guards and the
numerators they are asked about.

Each side runs in a fresh process, so no p(n) table or cached series is
left over from another route.  Every ``mexparts`` module is imported before
the probe starts; the probe then records each ``mexparts`` function the side
calls, by module and name.  Lambdas and comprehensions are left out: each
runs inside a named function that is recorded.  Two compared routes may
share only the functions in ``SHARED``.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

PROBE = """
import json, os, sys
import mexparts.congruences, mexparts.suites
from mexparts.mex import MexParams, genfun_p_2tt, genfun_p_tt, mex_counts_oracle
from mexparts.partitions import table_rows
from mexparts.singular import SingularParams, genfun_singular

package = os.path.dirname(mexparts.__file__) + os.sep
called = set()


def probe(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.startswith(package) and not code.co_name.startswith("<"):
        name = getattr(code, "co_qualname", code.co_name)  # 3.10 has no co_qualname
        called.add(f"{frame.f_globals['__name__']}.{name}")


side = compile(sys.argv[1], "<side>", "eval")
sys.setprofile(probe)
eval(side)
sys.setprofile(None)
print(json.dumps(sorted(called)))
"""

# function -> why two compared routes may both call it
SHARED = {
    "mexparts.series._require_ints": "the guard on every int argument",
    "mexparts.series._require_size": "the guard on every size and bound",
    "mexparts.series._support_length": "counts the terms of support_p_tt and support_p_2tt",
    "mexparts.series.support_p_tt": "the numerator of p_{t,t}: the claim's input, which the oracles check",
    "mexparts.series.support_p_2tt": "the numerator of p_{2t,t}: the claim's input, which the oracles check",
}

SIDES = {
    "table p_tt": "list(table_rows('p_tt', (2,), 60))",
    "table p_2tt": "list(table_rows('p_2tt', (2,), 60))",
    "table p_tt 20": "list(table_rows('p_tt', (2,), 20))",
    "table singular": "list(table_rows('singular', (4, 1), 60))",
    "genfun p_tt": "genfun_p_tt(2, 60)",
    "genfun p_2tt": "genfun_p_2tt(2, 60)",
    "genfun p_tt t=1": "genfun_p_tt(1, 60)",
    "genfun singular": "genfun_singular(SingularParams(4, 1), 60)",
    "mex oracle": "mex_counts_oracle(20, [MexParams(2, 2)])",
}

# the routes each suite compares: (side, side)
PAIRS = [
    ("table p_tt", "genfun p_tt"),  # thm1
    ("table p_2tt", "genfun p_2tt"),  # thm1
    ("table p_tt 20", "mex oracle"),  # thm1 and oracle-check
    ("genfun p_tt t=1", "genfun singular"),  # the bridge of p_{t,t} and C(4t, t)
]


@pytest.fixture(scope="module")
def calls():
    # one process per side, all started before any is read
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    runs = {
        side: subprocess.Popen([sys.executable, "-c", PROBE, expr], env=env, stdout=subprocess.PIPE, text=True)
        for side, expr in SIDES.items()
    }
    out = {}
    for side, run in runs.items():
        stdout, _ = run.communicate(timeout=60)
        assert run.returncode == 0, side
        out[side] = set(json.loads(stdout))
    return out


def unexplained(calls, left, right):
    return sorted((calls[left] & calls[right]) - set(SHARED))


@pytest.mark.parametrize("left, right", PAIRS, ids=[f"{a} vs {b}" for a, b in PAIRS])
def test_compared_routes_share_only_the_allowed_calls(calls, left, right):
    assert calls[left] and calls[right]
    assert unexplained(calls, left, right) == []


def test_the_probe_reports_a_shared_route(calls):
    # negative control: genfun_singular is the table route itself, so a
    # comparison of the two would check nothing, and the probe says so
    shared = unexplained(calls, "genfun singular", "table singular")
    assert {"mexparts.partitions.table_rows", "mexparts.partitions.partition_convolution_rows"} <= set(shared)


def test_every_shared_call_is_used_and_explained(calls):
    shared = set().union(*(calls[a] & calls[b] for a, b in PAIRS))
    assert shared == set(SHARED)
    assert all(SHARED.values())
