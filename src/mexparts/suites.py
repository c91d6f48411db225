"""Named verification suites: each bundles the sweeps for one family of
claims at desk scale.  The CLI's ``verify`` command and the acceptance tests
both run these, so the bounds here are the authoritative defaults.
"""

from __future__ import annotations

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

__all__ = ["SUITE_NAMES", "run_suite", "run_all", "ARG_CAP"]

ARG_CAP = 50_000  # keep progression arguments at desk scale


def suite_thm1(t_max: int = 7, n_max: int = 500, oracle_n_max: int = 40) -> list[VerificationReport]:
    """Three-way agreement for both closed identities: enumeration oracle,
    partition-number identity, and series coefficients."""
    reports = []
    oracle_n = min(oracle_n_max, n_max)
    # one enumeration per n serves every t: slot 2(t-1) holds p_{t,t}(n),
    # slot 2(t-1)+1 holds p_{2t,t}(n)
    params = [MexParams(A, t) for t in range(1, t_max + 1) for A in (t, 2 * t)]
    oracle = [mex_counts_oracle(n, params) for n in range(oracle_n + 1)]
    for t in range(1, t_max + 1):
        series_tt = genfun_p_tt(t, n_max)
        series_2tt = genfun_p_2tt(t, n_max)
        report = VerificationReport(
            label=f"identity-equivalence-t={t}",
            metadata={"n_max": n_max, "oracle_n_max": oracle_n},
        )
        for n in range(n_max + 1):
            report.checked += 2
            v_tt = identity_p_tt(t, n)
            v_2tt = identity_p_2tt(t, n)
            if v_tt != series_tt.coefficient(n):
                report.record_failure(family="p_tt", n=n, identity=v_tt, series=series_tt.coefficient(n))
            if v_2tt != series_2tt.coefficient(n):
                report.record_failure(family="p_2tt", n=n, identity=v_2tt, series=series_2tt.coefficient(n))
        for n in range(oracle_n + 1):
            report.checked += 2
            o_tt, o_2tt = oracle[n][2 * t - 2 : 2 * t]
            if o_tt != identity_p_tt(t, n):
                report.record_failure(family="p_tt", n=n, oracle=o_tt, identity=identity_p_tt(t, n))
            if o_2tt != identity_p_2tt(t, n):
                report.record_failure(family="p_2tt", n=n, oracle=o_2tt, identity=identity_p_2tt(t, n))
        reports.append(report)
    return reports


def suite_thm2(n_hypothesis: int = 300, n_max: int = 100, t_values=(1, 2, 3)) -> list[VerificationReport]:
    """Congruence transfer: verify the ordinary-partition hypothesis, then its
    two family conclusions, for each classical progression."""
    reports = []
    for a, b, m in ((5, 4, 5), (7, 5, 7), (11, 6, 11), (25, 24, 25)):
        reports.append(check_progression(ProgressionSpec("p", a, b, m), n_hypothesis))
        for t in t_values:
            for spec in family_catalog("thm2", a=a, b=b, m=m, t=t):
                reports.append(check_progression(spec, n_max))
    return reports


def suite_ramanujan(k_max: int = 2, t_max: int = 2, n_max: int = 200) -> list[VerificationReport]:
    reports = []
    for p in (5, 7, 11):
        for k in range(1, k_max + 1):
            for t in range(1, t_max + 1):
                for spec in family_catalog("ramanujan", p=p, k=k, t=t):
                    reports.append(check_progression(spec, n_max, arg_cap=ARG_CAP))
    return reports


def suite_thm3(t_values=(1, 2, 3, 5, 7), n_max: int = 500, eta_t=(1, 3), eta_order: int = 300) -> list[VerificationReport]:
    reports = [check_parity_bridge(t, n_max) for t in t_values]
    reports += [eta_form_mod2_report(t, eta_order) for t in eta_t]
    return reports


def suite_parity(n_max: int = 1000) -> list[VerificationReport]:
    return [
        check_parity_characterization("p11", n_max),
        check_parity_characterization("p33", n_max),
    ]


def suite_section1(n_max: int = 35) -> list[VerificationReport]:
    return [verify_section1_identities(n_max)]


def suite_thm5(primes=(5, 7, 11), k_values=(0, 1), n_max: int = 100) -> list[VerificationReport]:
    reports = []
    for p in primes:
        for k in k_values:
            for spec in family_catalog("thm5", p=p, k=k):
                reports.append(check_progression(spec, n_max, arg_cap=ARG_CAP))
    return reports


def suite_thm11(p: int = 7, alphas=(0, 1), n_max: int = 100) -> list[VerificationReport]:
    reports = []
    for alpha in alphas:
        for j in range(1, p):
            for spec in family_catalog("thm11", p=p, alpha=alpha, j=j):
                reports.append(check_progression(spec, n_max, arg_cap=ARG_CAP))
    return reports


def suite_thm6(n_max_part1: int = 120, n_max_conditional: int = 60, mod8_arg_max: int = 500) -> list[VerificationReport]:
    reports = [
        check_progression(spec, n_max_part1, arg_cap=ARG_CAP)
        for spec in family_catalog("thm6")
    ]
    reports.append(check_conditional_parity("thm6_part2", n_max_conditional))
    reports.append(check_conditional_parity("thm6_part3", n_max_conditional))
    reports += check_singular_mod8(mod8_arg_max)
    return reports


def suite_cor1(alphas=(0,), n_max: int = 100) -> list[VerificationReport]:
    reports = []
    p_branch2 = smallest_prime_with_symbol(-2)
    for alpha in alphas:
        for spec in family_catalog("cor1", p=7, alpha=alpha, branch=1):
            reports.append(check_progression(spec, n_max, arg_cap=ARG_CAP))
        for spec in family_catalog("cor1", p=p_branch2, alpha=alpha, branch=2):
            reports.append(check_progression(spec, n_max, arg_cap=ARG_CAP))
    return reports


def suite_thm12(alphas=(0, 1), n_max: int = 100) -> list[VerificationReport]:
    reports = []
    for alpha in alphas:
        for row in (1, 2, 3, 4):
            for spec in family_catalog("thm12", alpha=alpha, row=row):
                reports.append(check_progression(spec, n_max, arg_cap=ARG_CAP))
    return reports


def suite_thm13(p: int | None = None, alphas=(0, 1), n_max: int = 100) -> list[VerificationReport]:
    if p is None:
        p = smallest_prime_with_symbol(-10)
    reports = []
    for alpha in alphas:
        for j in range(1, p):
            for spec in family_catalog("thm13", p=p, alpha=alpha, j=j):
                reports.append(check_progression(spec, n_max, arg_cap=ARG_CAP))
    return reports


def suite_thm14(alphas=(0, 1), n_max: int = 100) -> list[VerificationReport]:
    reports = []
    for alpha in alphas:
        for r in (3, 4, 6):
            for spec in family_catalog("thm14", alpha=alpha, r=r):
                reports.append(check_progression(spec, n_max, arg_cap=ARG_CAP))
        for s in (2, 4, 5):
            for spec in family_catalog("thm14", alpha=alpha, s=s):
                reports.append(check_progression(spec, n_max, arg_cap=ARG_CAP))
    return reports


def suite_final(p: int | None = None, alphas=(0, 1), betas=(0, 1), n_max: int = 100) -> list[VerificationReport]:
    if p is None:
        p = smallest_prime_with_symbol(-21)
    reports = []
    for alpha in alphas:
        for beta in betas:
            for r in (3, 4, 6):
                for spec in family_catalog("final", p=p, alpha=alpha, beta=beta, branch=1, r=r):
                    reports.append(check_progression(spec, n_max, arg_cap=ARG_CAP))
            for s in (2, 4, 5):
                for spec in family_catalog("final", p=p, alpha=alpha, beta=beta, branch=2, s=s):
                    reports.append(check_progression(spec, n_max, arg_cap=ARG_CAP))
            for spec in family_catalog("final", p=p, alpha=alpha, beta=beta, branch=3):
                reports.append(check_progression(spec, n_max, arg_cap=ARG_CAP))
    return reports


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


def run_suite(name: str, **overrides) -> list[VerificationReport]:
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}")
    return _SUITES[name](**overrides)


def run_all() -> dict[str, list[VerificationReport]]:
    """Every suite at its default (acceptance-scale) bounds, worked examples first."""
    results: dict[str, list[VerificationReport]] = {"examples": [worked_examples_report()]}
    for name in SUITE_NAMES:
        results[name] = run_suite(name)
    return results
