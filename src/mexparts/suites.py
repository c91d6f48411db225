"""Named verification suites: each bundles the sweeps for one family of
claims at desk scale.  The CLI's ``verify`` command and the acceptance tests
both run these, so this module is the one place that knows each suite's
bounds.

``_SUITES`` maps a suite name to a function, ``_progressions`` with its
family and grid bound for a grid-only suite.  Its keyword-only parameters are
exactly the bounds a caller may set (``n_max``, ``t_max``, ``k_max``), and
their defaults are the acceptance-scale defaults; every other setting is
a module constant.  ``suite_bounds`` validates overrides against that
signature and ``T_MAX_BOUND``, ``K_MAX_BOUND``.  Only thm1 and thm3 build
series, each one first, so ``series.SERIES_ORDER_BOUND`` refuses a bad
``n_max`` before any walk or table growth.
"""

from __future__ import annotations

from functools import partial

from .congruences import (
    ProgressionSpec,
    check_conditional_parity,
    check_parity_bridge,
    check_parity_characterization,
    check_progression,
    check_singular_mod8,
    eta_form_mod2_report,
    family_catalog,
    smallest_prime_with_symbol,
)
from .mex import MexParams, genfun_p_2tt, genfun_p_tt, mex_count_oracle, mex_counts_oracle
from .partitions import partition_convolution, partition_generating_series
from .reports import VerificationReport
from .series import _require_ints, support_p_2tt, support_p_tt
from .singular import SingularParams, genfun_singular, singular_overpartition_oracle
from .stats import verify_section1_identities

__all__ = ["SUITE_NAMES", "run_suite", "run_all", "suite_bounds"]

ORACLE_N_MAX = 40  # thm1: enumeration-oracle reach
N_HYPOTHESIS = 300  # thm2: sweep of the ordinary-partition hypothesis
ETA_T, ETA_ORDER = (1, 3), 300  # thm3: the mod-2 eta-form checks
N_MAX_PART1 = 120  # thm6: the unconditional mod-16 progressions
COR1_PRIME = smallest_prime_with_symbol(-2)  # 5
THM13_PRIME = smallest_prime_with_symbol(-10)  # 17
FINAL_PRIME = smallest_prime_with_symbol(-21)  # 13
T_MAX_BOUND = 100  # thm1, ramanujan, thm3: largest settable t_max
K_MAX_BOUND = 6  # ramanujan: from k = 7 every sweep starts past ARG_CAP
P77_ROWS = ({"r": 3}, {"r": 4}, {"r": 6}, {"s": 2}, {"s": 4}, {"s": 5})  # thm14
P77_BRANCHES = (  # final
    {"branch": 1, "r": 3}, {"branch": 1, "r": 4}, {"branch": 1, "r": 6},
    {"branch": 2, "s": 2}, {"branch": 2, "s": 4}, {"branch": 2, "s": 5},
    {"branch": 3},
)


def _progressions(family: str, grid, *, n_max: int = 100) -> list[VerificationReport]:
    """One capped sweep per claim of ``family`` at each parameter set of
    ``grid``, in grid order."""
    specs = [spec for params in grid for spec in family_catalog(family, **params)]
    return [check_progression(spec, n_max) for spec in specs]


def suite_thm1(*, t_max: int = 7, n_max: int = 500) -> list[VerificationReport]:
    """Three-way agreement for both closed identities: enumeration oracle,
    partition-number identity (one convolution of the support with the p(n)
    table per function and t), and series coefficients."""
    partition_generating_series(n_max)  # first: refuses a bad n_max before any walk or growth
    reports = []
    oracle_n = min(ORACLE_N_MAX, n_max)
    # one walk of oracle_n serves every n and t: list 2(t-1) holds p_{t,t},
    # list 2(t-1)+1 holds p_{2t,t}
    params = [MexParams(A, t) for t in range(1, t_max + 1) for A in (t, 2 * t)]
    oracle = mex_counts_oracle(oracle_n, params)
    for t in range(1, t_max + 1):
        families = [
            (family, partition_convolution(support(t, n_max), n_max), genfun(t, n_max))
            for family, support, genfun in (
                ("p_tt", support_p_tt, genfun_p_tt), ("p_2tt", support_p_2tt, genfun_p_2tt)
            )
        ]
        report = VerificationReport(
            label=f"identity-equivalence-t={t}",
            metadata={"n_max": n_max, "oracle_n_max": oracle_n},
        )
        for n in range(n_max + 1):  # one pass, so failures are found ascending in n
            for slot, (family, identity, series) in enumerate(families, 2 * t - 2):
                value, coefficient = identity[n], series[n]
                report.check(value == coefficient, family=family, n=n, identity=value, series=coefficient)
                if n <= oracle_n:
                    count = oracle[slot][n]
                    report.check(count == value, family=family, n=n, oracle=count, identity=value)
        reports.append(report)
    return reports


def suite_thm2(*, n_max: int = 100) -> list[VerificationReport]:
    """Congruence transfer: verify the ordinary-partition hypothesis, then its
    two family conclusions, for each classical progression."""
    reports = []
    for a, b, m in ((5, 4, 5), (7, 5, 7), (11, 6, 11), (25, 24, 25)):
        reports.append(check_progression(ProgressionSpec("p", a, b, m), N_HYPOTHESIS))
        reports += _progressions("thm2", [dict(a=a, b=b, m=m, t=t) for t in (1, 2, 3)], n_max=n_max)
    return reports


def suite_ramanujan(*, k_max: int = 2, t_max: int = 2, n_max: int = 200) -> list[VerificationReport]:
    grid = [dict(p=p, k=k, t=t) for p in (5, 7, 11) for k in range(1, k_max + 1) for t in range(1, t_max + 1)]
    return _progressions("ramanujan", grid, n_max=n_max)


def suite_thm3(*, t_max: int = 7, n_max: int = 500) -> list[VerificationReport]:
    reports = [check_parity_bridge(t, n_max) for t in range(1, t_max + 1)]
    reports += [eta_form_mod2_report(t, ETA_ORDER) for t in ETA_T]
    return reports


def suite_parity(*, n_max: int = 1000) -> list[VerificationReport]:
    return [
        check_parity_characterization("p11", n_max),
        check_parity_characterization("p33", n_max),
    ]


def suite_section1(*, n_max: int = 35) -> list[VerificationReport]:
    return [verify_section1_identities(n_max)]


def suite_thm6(*, n_max: int = 60) -> list[VerificationReport]:
    """``n_max`` bounds the two conditional sweeps; the mod-16 progressions
    and the mod-8 singular sweeps run at fixed bounds."""
    reports = _progressions("thm6", [{}], n_max=N_MAX_PART1)
    reports.append(check_conditional_parity("thm6_part2", n_max))
    reports.append(check_conditional_parity("thm6_part3", n_max))
    reports += check_singular_mod8()
    return reports


def worked_examples_report() -> VerificationReport:
    """The two pinned worked examples, each computed by oracle and by series."""
    report = VerificationReport(label="worked-examples")
    cases = [
        ("p[2,2](5)", mex_count_oracle(5, MexParams(2, 2))[5], genfun_p_tt(2, 5)[5], 4),
        ("C[3,1](4)", singular_overpartition_oracle(4, SingularParams(3, 1))[4],
         genfun_singular(SingularParams(3, 1), 4)[4], 10),
    ]
    for name, oracle_value, series_value, expected in cases:
        report.check(oracle_value == series_value == expected, case=name, oracle=oracle_value,
                     series=series_value, expected=expected)
    return report


_SUITES = {
    "thm1": suite_thm1,
    "thm2": suite_thm2,
    "ramanujan": suite_ramanujan,
    "thm3": suite_thm3,
    "parity": suite_parity,
    "section1": suite_section1,
    "thm5": partial(_progressions, "thm5", [dict(p=p, k=k) for p in (5, 7, 11) for k in (0, 1)]),
    "thm11": partial(_progressions, "thm11", [dict(p=7, alpha=a, j=j) for a in (0, 1) for j in range(1, 7)]),
    "thm6": suite_thm6,
    "cor1": partial(_progressions, "cor1", [dict(p=p, alpha=0, branch=b) for p, b in ((7, 1), (COR1_PRIME, 2))]),
    "thm12": partial(_progressions, "thm12", [dict(alpha=a, row=r) for a in (0, 1) for r in (1, 2, 3, 4)]),
    "thm13": partial(_progressions, "thm13", [
        dict(p=THM13_PRIME, alpha=a, j=j) for a in (0, 1) for j in range(1, THM13_PRIME)
    ]),
    "thm14": partial(_progressions, "thm14", [dict(alpha=a, **rs) for a in (0, 1) for rs in P77_ROWS]),
    "final": partial(_progressions, "final", [
        dict(p=FINAL_PRIME, alpha=a, beta=b, **br) for a in (0, 1) for b in (0, 1) for br in P77_BRANCHES
    ]),
}

SUITE_NAMES = tuple(_SUITES)


def suite_bounds(name: str, **overrides: int) -> dict[str, int]:
    """The bounds a run of suite ``name`` uses: its defaults with ``overrides``
    merged in.  Raises ``ValueError`` for an unknown suite, a bound the suite
    does not take, a bound that is not an int, ``t_max`` or ``k_max`` below 1
    or above its bound, and ``n_max`` below 0."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}")
    # read at call time, through a tracer's __wrapped__ and a partial row's func
    fn = getattr(_SUITES[name], "__wrapped__", _SUITES[name])
    bounds = dict(getattr(fn, "func", fn).__kwdefaults__)
    extra = sorted(set(overrides) - set(bounds))
    if extra:
        allowed = ", ".join(f"{key} (default {value})" for key, value in bounds.items())
        raise ValueError(f"suite {name!r} takes only {allowed}; not {', '.join(extra)}")
    _require_ints(f"suite {name!r}: ", **overrides)
    bounds.update(overrides)
    for key, value in bounds.items():
        least = 0 if key == "n_max" else 1
        if value < least:
            raise ValueError(f"suite {name!r} needs {key} >= {least} (got {value})")
        most = {"t_max": T_MAX_BOUND, "k_max": K_MAX_BOUND}.get(key, value)
        if value > most:
            raise ValueError(f"suite {name!r} needs {key} <= {most} (got {value})")
    return bounds


def run_suite(name: str, **overrides: int) -> list[VerificationReport]:
    bounds = suite_bounds(name, **overrides)  # before the lookup: an unknown name is a ValueError
    return _SUITES[name](**bounds)


def run_all() -> dict[str, list[VerificationReport]]:
    """Every suite at its default (acceptance-scale) bounds, worked examples first."""
    results: dict[str, list[VerificationReport]] = {"examples": [worked_examples_report()]}
    for name in SUITE_NAMES:
        results[name] = run_suite(name)
    return results
