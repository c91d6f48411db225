"""Acceptance sweep: every exit criterion at its stated bound, exact arithmetic.

Each test prints one ``criterion N PASS`` line (run pytest with -s to watch);
budgets are asserted alongside correctness.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

from mexparts.congruences import (
    ARG_CAP,
    ProgressionSpec,
    check_parity_bridge,
    check_parity_characterization,
    check_progression,
    delta,
    eta_form_mod2_report,
    family_catalog,
    smallest_prime_with_symbol,
)
from mexparts.mex import (
    MexParams,
    genfun_p_2tt,
    genfun_p_tt,
    identity_p_2tt,
    identity_p_tt,
    mex_count_oracle,
)
from mexparts.singular import SingularParams, genfun_singular, singular_overpartition_oracle
from mexparts.stats import verify_section1_identities

_CHECKMARK = "criterion {} PASS ({:.2f}s): {}"
SRC = Path(__file__).resolve().parent.parent / "src"


def _report(number, started, description):
    print(_CHECKMARK.format(number, time.monotonic() - started, description))


def test_criterion_1_worked_examples():
    started = time.monotonic()
    assert mex_count_oracle(5, MexParams(2, 2))[5] == 4
    assert genfun_p_tt(2, 5)[5] == 4
    assert singular_overpartition_oracle(4, SingularParams(3, 1))[4] == 10
    assert genfun_singular(SingularParams(3, 1), 4)[4] == 10
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _report(1, started, "p[2,2](5) = 4 and C[3,1](4) = 10 by oracle and by series")


def test_criterion_2_identity_equivalence():
    started = time.monotonic()
    for t in range(1, 8):
        series_tt = genfun_p_tt(t, 500)
        series_2tt = genfun_p_2tt(t, 500)
        for n in range(501):
            assert identity_p_tt(t, n) == series_tt[n]
            assert identity_p_2tt(t, n) == series_2tt[n]
        assert mex_count_oracle(40, MexParams(t, t)) == [identity_p_tt(t, n) for n in range(41)]
        assert mex_count_oracle(40, MexParams(2 * t, t)) == [
            identity_p_2tt(t, n) for n in range(41)
        ]
    elapsed = time.monotonic() - started
    assert elapsed < 120
    _report(2, started, "t in 1..7: oracle = identity = series (n <= 40), identity = series (n <= 500)")


def test_criterion_3_ramanujan_transfer():
    started = time.monotonic()
    assert delta(5, 1) == 4 and delta(7, 1) == 5 and delta(11, 1) == 6
    for p, k in ((5, 1), (7, 1), (11, 1), (5, 2)):
        assert 24 * delta(p, k) % p**k == 1
        for t in (1, 2):
            specs = family_catalog("ramanujan", p=p, k=k, t=t)
            assert len(specs) == 2  # both the (at,at) and (2at,at) variants
            for spec in specs:
                report = check_progression(spec, 200)
                assert report.passed, report.label
    elapsed = time.monotonic() - started
    assert elapsed < 120
    _report(3, started, "classical progressions transfer to both families, n <= 200")


def test_criterion_4_parity_bridge():
    started = time.monotonic()
    for t in (1, 2, 3, 5, 7):
        report = check_parity_bridge(t, 500)
        assert report.passed and report.checked == 501
    for t in (1, 3):
        report = eta_form_mod2_report(t, 300)
        assert report.passed
    elapsed = time.monotonic() - started
    assert elapsed < 60
    _report(4, started, "mod-2 bridge (n <= 500) and eta-form reductions (order 300)")


def test_criterion_5_parity_characterizations():
    started = time.monotonic()
    for which in ("p11", "p33"):
        report = check_parity_characterization(which, 1000)
        assert report.passed
        assert report.checked == 2000  # the mex family and its singular twin
    elapsed = time.monotonic() - started
    assert elapsed < 30
    _report(5, started, "parity characterizations for both families and their singular twins, n <= 1000")


def test_criterion_6_combinatorial_identities():
    started = time.monotonic()
    report = verify_section1_identities(35)
    assert report.passed
    assert report.checked == 175
    elapsed = time.monotonic() - started
    assert elapsed < 120
    _report(6, started, "crank / rank / length-parity / mod-32 / mod-24 identities, n <= 35")


def test_criterion_7_congruence_families():
    started = time.monotonic()
    specs: list[ProgressionSpec] = []
    for p in (5, 7, 11):
        for k in (0, 1):
            specs += family_catalog("thm5", p=p, k=k)
    for alpha in (0, 1):
        for j in range(1, 7):
            specs += family_catalog("thm11", p=7, alpha=alpha, j=j)
    for alpha in (0, 1):
        for row in (1, 2, 3, 4):
            specs += family_catalog("thm12", alpha=alpha, row=row)
    p13 = smallest_prime_with_symbol(-10)
    assert p13 == 17
    for alpha in (0, 1):
        for j in range(1, p13):
            specs += family_catalog("thm13", p=p13, alpha=alpha, j=j)
    for alpha in (0, 1):
        for r in (3, 4, 6):
            specs += family_catalog("thm14", alpha=alpha, r=r)
        for s in (2, 4, 5):
            specs += family_catalog("thm14", alpha=alpha, s=s)
    specs += family_catalog("cor1", p=7, alpha=0, branch=1)
    p_branch2 = smallest_prime_with_symbol(-2)
    assert p_branch2 == 5
    specs += family_catalog("cor1", p=p_branch2, alpha=0, branch=2)
    p_final = smallest_prime_with_symbol(-21)
    assert p_final == 13
    for alpha in (0, 1):
        for beta in (0, 1):
            for r in (3, 4, 6):
                specs += family_catalog("final", p=p_final, alpha=alpha, beta=beta, branch=1, r=r)
            for s in (2, 4, 5):
                specs += family_catalog("final", p=p_final, alpha=alpha, beta=beta, branch=2, s=s)
            specs += family_catalog("final", p=p_final, alpha=alpha, beta=beta, branch=3)
    for spec in specs:
        report = check_progression(spec, 100)
        assert report.passed, report.label
    # part (1) of the mod-16 statement at its larger bound, then the
    # conditional parts
    for spec in family_catalog("thm6"):
        assert check_progression(spec, 120).passed
    from mexparts.congruences import check_conditional_parity

    assert check_conditional_parity("thm6_part2", 60).passed
    assert check_conditional_parity("thm6_part3", 60).passed
    elapsed = time.monotonic() - started
    assert elapsed < 600
    _report(7, started, f"{len(specs)} progression claims plus the mod-16 family, arguments <= {ARG_CAP}")


def test_criterion_8_negative_control():
    started = time.monotonic()
    good_offset = delta(5, 1)
    bad = check_progression(ProgressionSpec("p", 5, good_offset + 1, 5), 200)
    assert not bad.passed
    assert bad.failure_count >= 1
    assert bad.failures[0]["value_mod_m"] != 0
    # end to end: the CLI reports the same perturbed claim with exit code 1
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "mexparts.cli",
            "verify",
            "progression",
            "--function",
            "p",
            "--step",
            "5",
            "--offset",
            str(good_offset + 1),
            "--modulus",
            "5",
            "--n-max",
            "200",
        ],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert '"passed": false' in proc.stdout
    _report(8, started, "perturbed offset is caught and reported, exit code 1")


def test_criterion_9_singular_oracle_equivalence():
    started = time.monotonic()
    for k, i in ((3, 1), (4, 1), (4, 2), (8, 2), (12, 3)):
        params = SingularParams(k, i)
        series = genfun_singular(params, 30)
        assert series == singular_overpartition_oracle(30, params)
    elapsed = time.monotonic() - started
    assert elapsed < 60
    _report(9, started, "singular overpartition oracle = series for five parameter pairs, n <= 30")
