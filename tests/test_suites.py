"""The suite table: settable bounds and their validation before any work
starts."""

import functools
import inspect
import re

import pytest

from mexparts import partitions, suites
from mexparts.series import TruncatedSeries
from mexparts.suites import K_MAX_BOUND, SUITE_NAMES, T_MAX_BOUND, run_suite, suite_bounds


def test_suite_parameters_are_the_settable_bounds():
    for name, fn in suites._SUITES.items():
        params = inspect.signature(fn).parameters.values()
        assert {p.name for p in params} <= {"n_max", "t_max", "k_max"}, name
        assert all(isinstance(p.default, int) for p in params), name
        assert all(p.kind is p.KEYWORD_ONLY for p in params), name
        assert suite_bounds(name) == {p.name: p.default for p in params}


def test_overrides_merge_into_the_defaults():
    assert suite_bounds("ramanujan", t_max=3) == {"k_max": 2, "t_max": 3, "n_max": 200}


@pytest.mark.parametrize(
    "name, overrides, message",
    [
        ("nope", {}, "unknown suite"),
        ("thm12", {"t_max": 3}, "n_max (default 100)"),
        ("thm1", {"t_max": 0}, "t_max >= 1"),
        ("ramanujan", {"k_max": 0}, "k_max >= 1"),
        ("parity", {"n_max": -1}, "n_max >= 0"),
        ("thm1", {"t_max": T_MAX_BOUND + 1}, f"t_max <= {T_MAX_BOUND} (got {T_MAX_BOUND + 1})"),
        ("thm3", {"t_max": T_MAX_BOUND + 1}, f"t_max <= {T_MAX_BOUND}"),
        ("ramanujan", {"t_max": T_MAX_BOUND + 1}, f"t_max <= {T_MAX_BOUND}"),
        ("ramanujan", {"k_max": K_MAX_BOUND + 1}, f"k_max <= {K_MAX_BOUND} (got {K_MAX_BOUND + 1})"),
    ],
)
def test_bad_bounds_are_value_errors(name, overrides, message):
    for fn in (suite_bounds, run_suite):
        with pytest.raises(ValueError, match=re.escape(message)):
            fn(name, **overrides)


def test_the_table_is_read_at_call_time(monkeypatch):
    # a wrapped suite function (as a tracer installs it) keeps its bounds
    calls = []
    original = suites._SUITES["thm12"]

    @functools.wraps(original)
    def wrapped(**bounds):
        calls.append(bounds)
        return original(**bounds)

    monkeypatch.setitem(suites._SUITES, "thm12", wrapped)
    assert suite_bounds("thm12") == {"n_max": 100}
    assert len(run_suite("thm12", n_max=5)) == 8
    assert calls == [{"n_max": 5}]


def _traced(fn):
    # a wrapper as perfbench/traced.py installs one: it forwards every call
    # and sets __wrapped__, copying nothing else from fn
    def traced(*args, **kwargs):
        return fn(*args, **kwargs)

    traced.__wrapped__ = fn
    return traced


@pytest.mark.parametrize(
    "name, defaults",
    [
        ("thm1", {"t_max": 7, "n_max": 500}),
        ("ramanujan", {"k_max": 2, "t_max": 2, "n_max": 200}),
        ("thm12", {"n_max": 100}),  # a partial row of _progressions
    ],
)
def test_bounds_read_through_a_traced_wrapper(monkeypatch, name, defaults):
    assert list(suite_bounds(name).items()) == list(defaults.items())
    monkeypatch.setitem(suites._SUITES, name, _traced(suites._SUITES[name]))
    assert list(suite_bounds(name).items()) == list(defaults.items())


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_a_bound_passed_positionally_is_refused(name):
    with pytest.raises(TypeError, match="positional argument"):
        suites._SUITES[name](5)


def test_only_thm1_and_thm3_build_series(monkeypatch):
    # every other suite reads the p(n) table or its mod-2 bitset, so the
    # series bound never limits it
    built = []
    init = TruncatedSeries.__init__

    def recording_init(self, coeffs):
        init(self, coeffs)
        built.append(name)

    monkeypatch.setattr(TruncatedSeries, "__init__", recording_init)
    for name in SUITE_NAMES:
        run_suite(name)
    assert set(built) == {"thm1", "thm3"}


def test_verify_all_grows_the_exact_table_no_further_than_thm1(monkeypatch):
    # thm1 convolves to its n_max of 500; every sweep reads a table of p(n)
    # mod m instead: 24 316 is ramanujan's 121n + 116 at n = 200, the largest
    # argument of any sweep whose modulus is not 2, and the mod-2 sweeps
    # reach 49 978 on the parity bitset
    requests = []
    grow = partitions._grow_p_table
    monkeypatch.setattr(partitions, "_p_table", [1])
    monkeypatch.setattr(partitions, "_p_residues", {})
    monkeypatch.setattr(partitions, "_grow_p_table", lambda n: requests.append(n) or grow(n))
    results = suites.run_all()
    assert all(r.passed for reports in results.values() for r in reports)
    assert requests and max(requests) == 500
    assert len(partitions._p_table) == 501
    assert len(partitions._p_residues[121]) == 24_317
    assert sorted(partitions._p_residues) == [5, 7, 8, 11, 25, 49, 121]
    assert partitions._p_parity_len > 49_978


def test_thm6_conditional_sweeps_stop_at_the_argument_cap():
    reports = {r.label: r for r in run_suite("thm6", n_max=4000)}
    for which in ("thm6_part2", "thm6_part3"):
        metadata = reports[f"conditional-parity-{which}"].metadata
        assert metadata["n_max"] == 4000
        assert metadata["n_max_effective"] == 3124
        assert metadata["argument_cap"] == 50_000


def test_thm1_records_failures_ascending_in_n(monkeypatch):
    # one too many in p_{1,1}(5) and p_{1,1}(30) on the table route only
    rows = suites.table_rows

    def bumped(function, values, order):
        coeffs = rows(function, values, order)
        if (function, tuple(values)) != ("p_tt", (1,)):
            return coeffs
        return (c + (n in (5, 30)) for n, c in enumerate(coeffs))

    monkeypatch.setattr(suites, "table_rows", bumped)
    (report,) = run_suite("thm1", t_max=1, n_max=40)
    found = [failure["n"] for failure in report.failures]
    assert found == sorted(found) == [5, 5, 30, 30]
    assert report.failure_count == 4
    assert report.checked == 4 * 41


@pytest.mark.parametrize("t_max", [1, 4, 6, 9])
def test_thm3_bridges_every_t_up_to_t_max(t_max):
    # Theorem 3 holds for every t >= 1, so no t <= t_max is left out
    reports = run_suite("thm3", t_max=t_max, n_max=30)
    bridges = [r for r in reports if r.label.startswith("parity-bridge")]
    assert [r.label for r in bridges] == [f"parity-bridge-t={t}" for t in range(1, t_max + 1)]
    assert all(r.passed and r.checked == 31 for r in bridges)
