"""Named verification suites: each bundles the sweeps for one family of
claims at desk scale.  The CLI's ``verify`` command and the acceptance tests
both run these, so this module is the one place that knows each suite's
bounds.

``_SUITES`` maps a suite name to a plain function.  Its keyword parameters
are exactly the bounds a caller may set (``n_max``, ``t_max``, ``k_max``),
and their defaults are the acceptance-scale defaults; every other setting
is a module constant.  ``suite_bounds`` validates overrides against that
signature, and ``series_order`` gives the largest series order a run at
those bounds builds, so the CLI checks ``--trunc`` before any work starts.
"""

from __future__ import annotations

import inspect

from .congruences import (
    ARG_CAP,
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
from .mex import (
    MexParams,
    genfun_p_2tt,
    genfun_p_tt,
    identity_p_2tt,
    identity_p_tt,
    mex_count_oracle,
    mex_counts_oracle,
)
from .reports import VerificationReport
from .singular import SingularParams, genfun_singular, singular_overpartition_oracle
from .stats import verify_section1_identities

__all__ = ["SUITE_NAMES", "run_suite", "run_all", "suite_bounds", "series_order", "ARG_CAP"]

ORACLE_N_MAX = 40  # thm1: enumeration-oracle reach
N_HYPOTHESIS = 300  # thm2: sweep of the ordinary-partition hypothesis
BRIDGE_T_VALUES = (1, 2, 3, 5, 7)  # thm3: t swept by the parity bridge, up to t_max
ETA_T, ETA_ORDER = (1, 3), 300  # thm3: the mod-2 eta-form checks
N_MAX_PART1 = 120  # thm6: the unconditional mod-16 progressions
MOD8_ARG_MAX = 500  # thm6: largest C(12,3) argument of the mod-8 sweeps
COR1_PRIME = smallest_prime_with_symbol(-2)  # 5
THM13_PRIME = smallest_prime_with_symbol(-10)  # 17
FINAL_PRIME = smallest_prime_with_symbol(-21)  # 13
P77_ROWS = ({"r": 3}, {"r": 4}, {"r": 6}, {"s": 2}, {"s": 4}, {"s": 5})  # thm14
P77_BRANCHES = (  # final
    {"branch": 1, "r": 3}, {"branch": 1, "r": 4}, {"branch": 1, "r": 6},
    {"branch": 2, "s": 2}, {"branch": 2, "s": 4}, {"branch": 2, "s": 5},
    {"branch": 3},
)


def _progressions(family: str, grid, n_max: int) -> list[VerificationReport]:
    """One capped sweep per claim of ``family`` at each parameter set of
    ``grid``, in grid order."""
    return [
        check_progression(spec, n_max, arg_cap=ARG_CAP)
        for params in grid
        for spec in family_catalog(family, **params)
    ]


def suite_thm1(t_max: int = 7, n_max: int = 500) -> list[VerificationReport]:
    """Three-way agreement for both closed identities: enumeration oracle,
    partition-number identity, and series coefficients."""
    reports = []
    oracle_n = min(ORACLE_N_MAX, n_max)
    # one enumeration per n serves every t: slot 2(t-1) holds p_{t,t}(n),
    # slot 2(t-1)+1 holds p_{2t,t}(n)
    params = [MexParams(A, t) for t in range(1, t_max + 1) for A in (t, 2 * t)]
    oracle = [mex_counts_oracle(n, params) for n in range(oracle_n + 1)]
    for t in range(1, t_max + 1):
        families = (
            ("p_tt", identity_p_tt, genfun_p_tt(t, n_max)),
            ("p_2tt", identity_p_2tt, genfun_p_2tt(t, n_max)),
        )
        report = VerificationReport(
            label=f"identity-equivalence-t={t}",
            metadata={"n_max": n_max, "oracle_n_max": oracle_n},
        )
        for n in range(n_max + 1):  # one pass, so failures are found ascending in n
            for slot, (family, identity, series) in enumerate(families, 2 * t - 2):
                value, coefficient = identity(t, n), series.coefficient(n)
                report.checked += 1
                if value != coefficient:
                    report.record_failure(family=family, n=n, identity=value, series=coefficient)
                if n <= oracle_n:
                    report.checked += 1
                    count = oracle[n][slot]
                    if count != value:
                        report.record_failure(family=family, n=n, oracle=count, identity=value)
        reports.append(report)
    return reports


def suite_thm2(n_max: int = 100) -> list[VerificationReport]:
    """Congruence transfer: verify the ordinary-partition hypothesis, then its
    two family conclusions, for each classical progression."""
    reports = []
    for a, b, m in ((5, 4, 5), (7, 5, 7), (11, 6, 11), (25, 24, 25)):
        reports.append(check_progression(ProgressionSpec("p", a, b, m), N_HYPOTHESIS, arg_cap=ARG_CAP))
        reports += _progressions("thm2", [dict(a=a, b=b, m=m, t=t) for t in (1, 2, 3)], n_max)
    return reports


def suite_ramanujan(k_max: int = 2, t_max: int = 2, n_max: int = 200) -> list[VerificationReport]:
    grid = [dict(p=p, k=k, t=t) for p in (5, 7, 11) for k in range(1, k_max + 1) for t in range(1, t_max + 1)]
    return _progressions("ramanujan", grid, n_max)


def suite_thm3(t_max: int = 7, n_max: int = 500) -> list[VerificationReport]:
    reports = [check_parity_bridge(t, n_max) for t in BRIDGE_T_VALUES if t <= t_max]
    reports += [eta_form_mod2_report(t, ETA_ORDER) for t in ETA_T]
    return reports


def suite_parity(n_max: int = 1000) -> list[VerificationReport]:
    return [
        check_parity_characterization("p11", n_max),
        check_parity_characterization("p33", n_max),
    ]


def suite_section1(n_max: int = 35) -> list[VerificationReport]:
    return [verify_section1_identities(n_max)]


def suite_thm5(n_max: int = 100) -> list[VerificationReport]:
    return _progressions("thm5", [dict(p=p, k=k) for p in (5, 7, 11) for k in (0, 1)], n_max)


def suite_thm11(n_max: int = 100) -> list[VerificationReport]:
    grid = [dict(p=7, alpha=alpha, j=j) for alpha in (0, 1) for j in range(1, 7)]
    return _progressions("thm11", grid, n_max)


def suite_thm6(n_max: int = 60) -> list[VerificationReport]:
    """``n_max`` bounds the two conditional sweeps; the mod-16 progressions
    and the mod-8 singular sweeps run at fixed bounds."""
    reports = _progressions("thm6", [{}], N_MAX_PART1)
    reports.append(check_conditional_parity("thm6_part2", n_max))
    reports.append(check_conditional_parity("thm6_part3", n_max))
    reports += check_singular_mod8(MOD8_ARG_MAX)
    return reports


def suite_cor1(n_max: int = 100) -> list[VerificationReport]:
    grid = [dict(p=7, alpha=0, branch=1), dict(p=COR1_PRIME, alpha=0, branch=2)]
    return _progressions("cor1", grid, n_max)


def suite_thm12(n_max: int = 100) -> list[VerificationReport]:
    return _progressions("thm12", [dict(alpha=a, row=r) for a in (0, 1) for r in (1, 2, 3, 4)], n_max)


def suite_thm13(n_max: int = 100) -> list[VerificationReport]:
    grid = [dict(p=THM13_PRIME, alpha=a, j=j) for a in (0, 1) for j in range(1, THM13_PRIME)]
    return _progressions("thm13", grid, n_max)


def suite_thm14(n_max: int = 100) -> list[VerificationReport]:
    return _progressions("thm14", [dict(alpha=a, **rs) for a in (0, 1) for rs in P77_ROWS], n_max)


def suite_final(n_max: int = 100) -> list[VerificationReport]:
    grid = [
        dict(p=FINAL_PRIME, alpha=a, beta=b, **branch)
        for a in (0, 1)
        for b in (0, 1)
        for branch in P77_BRANCHES
    ]
    return _progressions("final", grid, n_max)


def worked_examples_report() -> VerificationReport:
    """The two pinned worked examples, each computed by oracle and by series."""
    report = VerificationReport(label="worked-examples")
    cases = [
        ("p[2,2](5)", mex_count_oracle(5, MexParams(2, 2)), genfun_p_tt(2, 5).coefficient(5), 4),
        (
            "C[3,1](4)",
            singular_overpartition_oracle(4, SingularParams(3, 1)),
            genfun_singular(SingularParams(3, 1), 4).coefficient(4),
            10,
        ),
    ]
    for name, oracle_value, series_value, expected in cases:
        report.checked += 1
        if not (oracle_value == series_value == expected):
            report.record_failure(case=name, oracle=oracle_value, series=series_value, expected=expected)
    return report


_SUITES = {
    "thm1": suite_thm1,
    "thm2": suite_thm2,
    "ramanujan": suite_ramanujan,
    "thm3": suite_thm3,
    "parity": suite_parity,
    "section1": suite_section1,
    "thm5": suite_thm5,
    "thm11": suite_thm11,
    "thm6": suite_thm6,
    "cor1": suite_cor1,
    "thm12": suite_thm12,
    "thm13": suite_thm13,
    "thm14": suite_thm14,
    "final": suite_final,
}

SUITE_NAMES = tuple(_SUITES)

# largest series order a suite builds at the given bounds; the suites not
# listed build none (their sweeps read the p(n) table)
_SERIES_ORDER = {
    "thm1": lambda t_max, n_max: n_max,
    "thm3": lambda t_max, n_max: max(n_max, ETA_ORDER),
    "parity": lambda n_max: n_max,
}


def suite_bounds(name: str, **overrides: int) -> dict[str, int]:
    """The bounds a run of suite ``name`` uses: its defaults with ``overrides``
    merged in.  Raises ``ValueError`` for an unknown suite, a bound the suite
    does not take, ``t_max`` or ``k_max`` below 1 and ``n_max`` below 0."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}")
    # read at call time, through any wrapper's __wrapped__
    params = inspect.signature(_SUITES[name]).parameters.values()
    bounds = {p.name: p.default for p in params}
    extra = sorted(set(overrides) - set(bounds))
    if extra:
        allowed = ", ".join(f"{key} (default {value})" for key, value in bounds.items())
        raise ValueError(f"suite {name!r} takes only {allowed}; not {', '.join(extra)}")
    bounds.update(overrides)
    for key, value in bounds.items():
        least = 0 if key == "n_max" else 1
        if value < least:
            raise ValueError(f"suite {name!r} needs {key} >= {least} (got {value})")
    return bounds


def series_order(name: str, **overrides: int) -> int:
    """Largest truncation order of any series suite ``name`` builds at these
    bounds; 0 when it builds none."""
    bounds = suite_bounds(name, **overrides)
    order = _SERIES_ORDER.get(name)
    return order(**bounds) if order else 0


def run_suite(name: str, **overrides: int) -> list[VerificationReport]:
    bounds = suite_bounds(name, **overrides)  # before the lookup: an unknown name is a ValueError
    return _SUITES[name](**bounds)


def run_all() -> dict[str, list[VerificationReport]]:
    """Every suite at its default (acceptance-scale) bounds, worked examples first."""
    results: dict[str, list[VerificationReport]] = {"examples": [worked_examples_report()]}
    for name in SUITE_NAMES:
        results[name] = run_suite(name)
    return results
