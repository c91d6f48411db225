"""The table of the four counted functions, and the two commands that read
it: ``compute`` prints each function's table route, and ``oracle-check``
compares every enumeration oracle with that same route."""

import contextlib
import gc
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mexparts import partitions
from mexparts.cli import _compute_rows, build_parser, main
from mexparts.congruences import FUNCTIONS, ProgressionSpec
from mexparts.mex import genfun_p_2tt, genfun_p_tt
from mexparts.singular import SingularParams
from test_singular import product_form_singular


@pytest.mark.parametrize(
    "spec, name",
    [
        (ProgressionSpec("p", 5, 4, 5), "p"),
        (ProgressionSpec("p_tt", 16, 11, 2, t=3), "p[3,3]"),
        (ProgressionSpec("p_2tt", 7, 5, 7, t=2), "p[4,2]"),
        (ProgressionSpec("singular", 16, 3, 8, k=12, i=3), "C[12,3]"),
    ],
)
def test_display_name_and_parameters_come_from_the_table(spec, name):
    assert spec.describe().startswith(f"{name}({spec.step}n+{spec.offset})")
    assert tuple(spec.params) == FUNCTIONS[spec.function][0]
    assert {key: spec.to_json()[key] for key in spec.params} == spec.params


def test_compute_p_hands_out_the_table_entries_themselves(monkeypatch):
    # a convolution by the support 1 would copy each of the n_max + 1 big
    # integers, and a slice of the table would copy its list, raising peak
    # memory on large --n-max; p(n) > 256 from n = 13 on, so those entries
    # are not CPython's cached small ints
    table = [1]
    monkeypatch.setattr(partitions, "_p_table", table)
    n_max = 3000  # past the first blocks of the table
    args = build_parser().parse_args(["compute", "p", "--n-max", str(n_max)])
    name, params, values = _compute_rows(args)
    assert (name, params) == ("p", {})
    # no per-n list: the rows are no list, the table is grown to n_max and
    # no further, and no list but the table holds p(n_max)
    assert not isinstance(values, list)
    assert partitions._p_table is table and len(table) == n_max + 1
    assert not [r for r in gc.get_referrers(table[n_max]) if isinstance(r, list) and r is not table]
    values = list(values)
    assert len(values) == n_max + 1
    assert all(value is partitions._p_table[n] for n, value in enumerate(values))


@st.composite
def oracle_checks(draw):
    function = draw(st.sampled_from(list(FUNCTIONS)))
    params = {}
    if "t" in FUNCTIONS[function][0]:
        params["t"] = draw(st.integers(min_value=1, max_value=8))
    if "k" in FUNCTIONS[function][0]:
        k = draw(st.integers(min_value=3, max_value=12))
        params.update(k=k, i=draw(st.integers(min_value=1, max_value=k // 2)))
    return function, params, draw(st.integers(min_value=0, max_value=30))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(oracle_checks())
def test_oracle_check_agrees_with_product_inversion(case):
    # oracle-check compares each walk with the table route; the product
    # inversion route shares no code with the p(n) table, so checking the
    # series column against it keeps both routes honest at random t, k, i
    function, params, n_max = case
    argv = ["oracle-check", "--function", function, "--n-max", str(n_max)]
    for key, value in params.items():
        argv += [f"--{key}", str(value)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    rows = [json.loads(line) for line in out.getvalue().splitlines()]
    assert code == 0
    assert [row["n"] for row in rows] == list(range(n_max + 1))
    assert all(row["equal"] and row["oracle"] == row["series"] for row in rows)
    if function == "p":
        return
    if function == "singular":
        series = product_form_singular(SingularParams(**params), n_max)
    else:
        series = (genfun_p_tt if function == "p_tt" else genfun_p_2tt)(params["t"], n_max)
    assert [int(row["series"]) for row in rows] == series


@pytest.mark.parametrize(
    "argv, message",
    [
        # theta_support takes k = 2, so the singular parameters are checked first
        ("compute singular --k 2 --i 1 --n-max 5", "error: k must be at least 3, got 2"),
        (
            "compute singular --k 4 --i 3 --n-max 2500",
            "error: this command needs series order 2500; raise --trunc (currently 2000)",
        ),
        (
            "oracle-check --function p_tt --t 0 --n-max 61 --trunc 10",
            "error: this command needs series order 61; raise --trunc (currently 10)",
        ),
        ("oracle-check --function p_tt --t 0 --n-max 61", "error: t must be positive"),
        (
            "oracle-check --function singular --k 2 --i 1 --n-max 51",
            "error: k must be at least 3, got 2",
        ),
        ("verify progression --function p_tt --t 0 --n-max 3", "error: progression t must be positive"),
    ],
)
def test_the_first_of_two_faults_is_refused(capsys, argv, message):
    code = main(argv.split())
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.splitlines()[0] == message
    assert captured.out == ""
