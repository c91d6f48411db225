"""The suite table: settable bounds, their validation, and the series order
the CLI checks ``--trunc`` against before any work starts."""

import functools
import inspect
import re

import pytest

from mexparts import suites
from mexparts.partitions import partition_generating_series
from mexparts.series import TruncatedSeries
from mexparts.suites import SUITE_NAMES, run_suite, series_order, suite_bounds


def test_suite_parameters_are_the_settable_bounds():
    for name, fn in suites._SUITES.items():
        params = inspect.signature(fn).parameters.values()
        assert {p.name for p in params} <= {"n_max", "t_max", "k_max"}, name
        assert all(isinstance(p.default, int) for p in params), name
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
    ],
)
def test_bad_bounds_are_value_errors(name, overrides, message):
    for fn in (suite_bounds, series_order, run_suite):
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


_OVERRIDES = {
    "thm1": {"t_max": 2, "n_max": 60},
    "ramanujan": {"k_max": 1, "t_max": 1, "n_max": 20},
    "thm3": {"t_max": 2, "n_max": 100},
    "parity": {"n_max": 50},
    "section1": {"n_max": 5},
}


@pytest.mark.parametrize(
    "name, overrides",
    [(name, {}) for name in SUITE_NAMES]
    + [(name, _OVERRIDES.get(name, {"n_max": 10})) for name in SUITE_NAMES],
)
def test_series_order_is_the_largest_order_built(monkeypatch, name, overrides):
    orders = []
    init = TruncatedSeries.__init__

    def recording_init(self, coeffs):
        init(self, coeffs)
        orders.append(self.trunc_order)

    monkeypatch.setattr(TruncatedSeries, "__init__", recording_init)
    partition_generating_series.cache_clear()
    run_suite(name, **overrides)
    assert max(orders, default=0) == series_order(name, **overrides)


def test_thm6_conditional_sweeps_stop_at_the_argument_cap():
    reports = {r.label: r for r in run_suite("thm6", n_max=4000)}
    for which in ("thm6_part2", "thm6_part3"):
        metadata = reports[f"conditional-parity-{which}"].metadata
        assert metadata["n_max"] == 4000
        assert metadata["n_max_effective"] == 3124
        assert metadata["argument_cap"] == 50_000


def test_thm1_records_failures_ascending_in_n(monkeypatch):
    identity = suites.identity_p_tt
    monkeypatch.setattr(
        suites, "identity_p_tt", lambda t, n: identity(t, n) + (n in (5, 30))
    )
    (report,) = run_suite("thm1", t_max=1, n_max=40)
    found = [failure["n"] for failure in report.failures]
    assert found == sorted(found) == [5, 5, 30, 30]
    assert report.failure_count == 4
    assert report.checked == 4 * 41
