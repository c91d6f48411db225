"""Number-theoretic helpers, the family catalog, and the sweep checkers."""

import random
import time

import pytest

from mexparts.congruences import (
    ProgressionSpec,
    check_conditional_parity,
    check_parity_bridge,
    check_parity_characterization,
    check_progression,
    check_singular_mod8,
    delta,
    eta_form_mod2_report,
    family_catalog,
    is_2pent_plus_3tri,
    is_3np1_square,
    is_generalized_pentagonal,
    is_k3km1,
    is_pent_plus_4pent,
    is_prime,
    is_triangular,
    jacobi_symbol,
    mod_inverse,
    smallest_prime_with_symbol,
)
from mexparts.errors import (
    EvenModulus,
    InvalidFamilyParams,
    NonIntegralOffset,
    NotCoprime,
)
from mexparts.mex import MexParams, genfun_p_tt, identity_p_tt, mex_count_oracle
from mexparts.singular import SingularParams, genfun_singular, singular_overpartition_oracle


class TestJacobi:
    def test_values(self):
        assert jacobi_symbol(-2, 5) == -1
        assert jacobi_symbol(-10, 3) == -1
        assert jacobi_symbol(2, 7) == 1
        assert jacobi_symbol(0, 9) == 0
        assert jacobi_symbol(3, 9) == 0

    def test_one_is_always_a_square(self):
        for n in (1, 3, 5, 21, 99):
            assert jacobi_symbol(1, n) == 1

    def test_even_modulus_rejected(self):
        with pytest.raises(EvenModulus):
            jacobi_symbol(3, 4)
        with pytest.raises(EvenModulus):
            jacobi_symbol(3, -5)

    def test_matches_euler_criterion_at_primes(self):
        for p in (3, 5, 7, 11, 13, 17, 19, 23):
            for a in range(1, p):
                euler = pow(a, (p - 1) // 2, p)
                expected = 1 if euler == 1 else -1
                assert jacobi_symbol(a, p) == expected

    def test_multiplicative(self):
        rng = random.Random(11)
        for _ in range(100):
            n = rng.randrange(3, 500, 2)
            a, b = rng.randint(-50, 50), rng.randint(-50, 50)
            assert jacobi_symbol(a * b, n) == jacobi_symbol(a, n) * jacobi_symbol(b, n)


class TestModInverse:
    def test_values(self):
        assert mod_inverse(24, 5) == 4
        assert mod_inverse(24, 7) == 5
        assert mod_inverse(1, 9) == 1

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            mod_inverse(6, 9)


class TestDelta:
    def test_classical_offsets(self):
        assert delta(5, 1) == 4
        assert delta(7, 1) == 5
        assert delta(11, 1) == 6
        assert delta(5, 2) == 24
        assert delta(7, 2) == 47
        assert delta(11, 2) == 116

    def test_defining_congruence(self):
        for p in (5, 7, 11):
            for k in (1, 2):
                assert 24 * delta(p, k) % p**k == 1

    def test_rejects_other_primes(self):
        with pytest.raises(ValueError):
            delta(13, 1)


class TestPrimes:
    def test_is_prime(self):
        assert [x for x in range(20) if is_prime(x)] == [2, 3, 5, 7, 11, 13, 17, 19]
        assert is_prime(999983)

    def test_smallest_with_symbol(self):
        assert smallest_prime_with_symbol(-2) == 5
        assert smallest_prime_with_symbol(-10) == 17
        assert smallest_prime_with_symbol(-21) == 13

    @pytest.mark.parametrize("value", [1, 4, 9])
    def test_square_never_has_symbol_minus_one(self, value):
        started = time.monotonic()
        with pytest.raises(ValueError, match="perfect square"):
            smallest_prime_with_symbol(value)
        assert time.monotonic() - started < 0.1

    def test_squares_still_reach_symbol_one_and_zero(self):
        assert smallest_prime_with_symbol(4, symbol=1) == 5
        assert smallest_prime_with_symbol(9, symbol=0, minimum=3) == 3

    @pytest.mark.parametrize("symbol", [2, -2])
    def test_rejects_symbol_outside_legendre_range(self, symbol):
        with pytest.raises(ValueError, match="-1, 0 or 1"):
            smallest_prime_with_symbol(-2, symbol=symbol)

    def test_zero_value_only_has_symbol_zero(self):
        with pytest.raises(ValueError, match=r"\(0/p\) = 0"):
            smallest_prime_with_symbol(0, symbol=1)
        assert smallest_prime_with_symbol(0, symbol=0) == 5


class TestPredicates:
    def test_k3km1(self):
        # k(3k-1) over integer k: 0, 2, 4, 10, 14, 24, 30, ...
        hits = {k * (3 * k - 1) for k in range(-20, 21)}
        for x in range(400):
            assert is_k3km1(x) == (x in hits)

    def test_k3km1_needs_both_signs(self):
        # x = 4 comes only from k = -1
        assert is_k3km1(4)
        assert 4 not in {k * (3 * k - 1) for k in range(1, 10)}

    def test_3np1_square(self):
        assert is_3np1_square(1)
        assert is_3np1_square(5)
        assert not is_3np1_square(2)

    def test_generalized_pentagonal(self):
        known = {0, 1, 2, 5, 7, 12, 15, 22, 26, 35, 40}
        for x in range(45):
            assert is_generalized_pentagonal(x) == (x in known)

    def test_generalized_pentagonals_up_to(self):
        from mexparts.congruences import _generalized_pentagonals_up_to

        for limit in (0, 1, 6, 40, 500):
            expected = sorted({k * (3 * k - 1) // 2 for k in range(-30, 31)} & set(range(limit + 1)))
            assert _generalized_pentagonals_up_to(limit) == expected

    def test_triangular(self):
        known = {0, 1, 3, 6, 10, 15, 21, 28, 36, 45}
        for x in range(50):
            assert is_triangular(x) == (x in known)

    def test_pent_plus_4pent_brute_force(self):
        pents = [k * (3 * k - 1) // 2 for k in range(-30, 31)]
        pents = sorted({v for v in pents if v >= 0})
        for n in range(200):
            expected = any(
                y <= n // 4 and (n - 4 * y) in pents for y in pents if 4 * y <= n
            )
            assert is_pent_plus_4pent(n) == expected

    def test_2pent_plus_3tri_brute_force(self):
        pents = sorted({k * (3 * k - 1) // 2 for k in range(-30, 31)})
        tris = [j * (j + 1) // 2 for j in range(40)]
        for n in range(200):
            expected = any(
                2 * x <= n and (n - 2 * x) in {3 * y for y in tris}
                for x in pents
                if x >= 0
            )
            assert is_2pent_plus_3tri(n) == expected

    def test_trivial_cases(self):
        assert is_pent_plus_4pent(0)
        assert is_pent_plus_4pent(5)
        assert is_2pent_plus_3tri(3)


class TestProgressionSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ProgressionSpec("p", 0, 1, 5)
        with pytest.raises(ValueError):
            ProgressionSpec("p", 5, -1, 5)
        with pytest.raises(ValueError):
            ProgressionSpec("p", 5, 4, 1)
        with pytest.raises(ValueError):
            ProgressionSpec("p_tt", 5, 4, 5)  # missing t
        with pytest.raises(ValueError):
            ProgressionSpec("nope", 5, 4, 5)

    @pytest.mark.parametrize(
        "function, params",
        [
            ("p", dict(t=3)),
            ("p", dict(k=12, i=3)),
            ("p", dict(i=3)),
            ("p_tt", dict(t=2, k=12)),
            ("p_tt", dict(t=2, i=1)),
            ("p_2tt", dict(t=2, k=12, i=3)),
            ("singular", dict(k=12, i=3, t=3)),
            ("singular", dict(k=12)),
            ("p_tt", dict(k=12, i=3)),
        ],
    )
    def test_parameters_the_function_does_not_take_are_refused(self, function, params):
        with pytest.raises(ValueError, match="takes"):
            ProgressionSpec(function, 5, 4, 5, **params)

    def test_describe(self):
        spec = ProgressionSpec("p_tt", 5, 4, 5, t=5, exclude_prime=5)
        text = spec.describe()
        assert "5n+4" in text and "mod 5" in text

    def test_json_round(self):
        spec = ProgressionSpec("singular", 16, 3, 8, k=12, i=3)
        assert spec.to_json() == {
            "function": "singular",
            "step": 16,
            "offset": 3,
            "modulus": 8,
            "k": 12,
            "i": 3,
        }


class TestCheckProgression:
    def test_classical_progression_passes(self):
        report = check_progression(ProgressionSpec("p", 5, 4, 5), 500)
        assert report.passed
        assert report.checked == 501

    def test_transferred_progression_passes(self):
        report = check_progression(ProgressionSpec("p_tt", 5, 4, 5, t=5), 200)
        assert report.passed

    def test_negative_control_detects_failure(self):
        spec = ProgressionSpec("p_tt", 1, 0, 10**9, t=1)
        report = check_progression(spec, 10)
        assert not report.passed
        # counterexamples at n = 0 (count 1) and n = 2 (count 1); n = 1 passes
        # because the count there is 0
        assert report.failures[0] == {"n": 0, "argument": 0, "value_mod_m": 1}
        failed_indices = {f["n"] for f in report.failures}
        assert 2 in failed_indices and 1 not in failed_indices

    def test_perturbed_offset_fails(self):
        report = check_progression(ProgressionSpec("p", 5, 5, 5), 100)
        assert not report.passed
        assert report.failure_count >= 1

    def test_exclusion_skips_indices(self):
        spec = ProgressionSpec("p_tt", 5, 2, 2, t=1, exclude_prime=5)
        report = check_progression(spec, 99)
        assert report.passed
        assert report.skipped == 20
        assert report.checked == 80

    def test_argument_cap_trims_sweep(self):
        spec = ProgressionSpec("p", 100, 1, 5)
        report = check_progression(spec, 1000, arg_cap=500)
        assert report.metadata["n_max_effective"] == 4
        assert report.checked == 5

    def test_offset_beyond_cap_checks_nothing(self):
        spec = ProgressionSpec("p", 10, 600, 5)
        report = check_progression(spec, 10, arg_cap=500)
        assert report.checked == 0
        assert report.passed

    @pytest.mark.parametrize("k, i", [(12, 3), (4, 2)])  # (4, 2) is self-paired
    @pytest.mark.parametrize("step, offset", [(1, 2001), (101, 5)])
    def test_singular_sweeps_past_order_2000_match_the_series(self, k, i, step, offset):
        # no series order caps a sweep; with a large modulus every argument
        # fails and records its value, 25 of them (the failure cap)
        modulus = 10**9 + 7
        report = check_progression(ProgressionSpec("singular", step, offset, modulus, k=k, i=i), 24)
        series = genfun_singular(SingularParams(k, i), step * 24 + offset)
        expected = [
            {"n": n, "argument": a, "value_mod_m": series.coefficient(a) % modulus}
            for n, a in ((n, step * n + offset) for n in range(25))
            if series.coefficient(a) % modulus
        ]
        assert max(e["argument"] for e in expected) > 2000
        assert report.failures == expected
        assert report.checked == 25 and report.failure_count == len(expected)


# Every side condition of every family, each violated alone, with a pattern
# naming the condition in the error message.
_INVALID = InvalidFamilyParams
_INVALID_FAMILY_PARAMS = [
    # thm2: the transfer's bounds
    ("thm2", dict(a=0, b=4, m=5, t=1), _INVALID, r"a, t >= 1, b >= 0, m >= 2"),
    ("thm2", dict(a=5, b=4, m=5, t=0), _INVALID, r"a, t >= 1, b >= 0, m >= 2"),
    ("thm2", dict(a=5, b=-1, m=5, t=1), _INVALID, r"a, t >= 1, b >= 0, m >= 2"),
    ("thm2", dict(a=5, b=4, m=1, t=1), _INVALID, r"a, t >= 1, b >= 0, m >= 2"),
    # ramanujan
    ("ramanujan", dict(p=13, k=1, t=1), _INVALID, r"p in \{5, 7, 11\}"),
    ("ramanujan", dict(p=5, k=0, t=1), _INVALID, r"k, t >= 1"),
    ("ramanujan", dict(p=7, k=1, t=0), _INVALID, r"k, t >= 1"),
    # thm5
    ("thm5", dict(p=9, k=0), _INVALID, r"\b9 is not prime"),
    ("thm5", dict(p=1, k=0), _INVALID, r"\b1 is not prime"),
    ("thm5", dict(p=3, k=0), _INVALID, r"p >= 5"),
    ("thm5", dict(p=13, k=0), _INVALID, r"p != 1 \(mod 12\)"),
    ("thm5", dict(p=37, k=1), _INVALID, r"p != 1 \(mod 12\)"),
    ("thm5", dict(p=5, k=-1), _INVALID, r"\bk must be non-negative"),
    ("thm5", dict(p=10**6 + 3, k=0), ValueError, r"bounded at"),
    # thm11
    ("thm11", dict(p=15, alpha=0, j=1), _INVALID, r"15 is not prime"),
    ("thm11", dict(p=3, alpha=0, j=1), _INVALID, r"p >= 7"),
    ("thm11", dict(p=13, alpha=0, j=1), _INVALID, r"p == 3 \(mod 4\)"),
    ("thm11", dict(p=17, alpha=1, j=2), _INVALID, r"p == 3 \(mod 4\)"),
    ("thm11", dict(p=7, alpha=-1, j=1), _INVALID, r"alpha must be non-negative"),
    ("thm11", dict(p=7, alpha=0, j=0), _INVALID, r"1 <= j <= p - 1"),
    ("thm11", dict(p=7, alpha=0, j=7), _INVALID, r"1 <= j <= p - 1"),
    # thm6 takes no parameters
    ("thm6", dict(alpha=0), TypeError, r"unexpected keyword argument 'alpha'"),
    # cor1
    ("cor1", dict(p=9, alpha=0, branch=1), _INVALID, r"9 is not prime"),
    ("cor1", dict(p=3, alpha=0, branch=1), _INVALID, r"p >= 5"),
    ("cor1", dict(p=5, alpha=0, branch=1), _INVALID, r"p == 3 \(mod 4\)"),
    ("cor1", dict(p=13, alpha=1, branch=1), _INVALID, r"p == 3 \(mod 4\)"),
    ("cor1", dict(p=11, alpha=0, branch=2), _INVALID, r"\(-2/p\) = -1"),
    ("cor1", dict(p=17, alpha=0, branch=2), _INVALID, r"\(-2/p\) = -1"),
    ("cor1", dict(p=7, alpha=-1, branch=1), _INVALID, r"alpha must be non-negative"),
    ("cor1", dict(p=7, alpha=0, branch=3), _INVALID, r"branch must be 1 or 2"),
    ("cor1", dict(p=5, alpha=0, branch=0), _INVALID, r"branch must be 1 or 2"),
    # thm12
    ("thm12", dict(alpha=-1, row=1), _INVALID, r"alpha must be non-negative"),
    ("thm12", dict(alpha=0, row=0), _INVALID, r"row must be 1, 2, 3 or 4"),
    ("thm12", dict(alpha=1, row=5), _INVALID, r"row must be 1, 2, 3 or 4"),
    # thm13
    ("thm13", dict(p=21, alpha=0, j=1), _INVALID, r"21 is not prime"),
    ("thm13", dict(p=3, alpha=0, j=1), _INVALID, r"p >= 5"),
    ("thm13", dict(p=7, alpha=0, j=1), _INVALID, r"\(-10/p\) = -1"),
    ("thm13", dict(p=13, alpha=1, j=1), _INVALID, r"\(-10/p\) = -1"),
    ("thm13", dict(p=17, alpha=-1, j=1), _INVALID, r"alpha must be non-negative"),
    ("thm13", dict(p=17, alpha=0, j=0), _INVALID, r"1 <= j <= p - 1"),
    ("thm13", dict(p=17, alpha=0, j=17), _INVALID, r"1 <= j <= p - 1"),
    # thm14
    ("thm14", dict(alpha=-1, r=3), _INVALID, r"alpha must be non-negative"),
    ("thm14", dict(alpha=0, r=3, s=2), _INVALID, r"exactly one of r, s"),
    ("thm14", dict(alpha=0), _INVALID, r"exactly one of r, s"),
    ("thm14", dict(alpha=0, r=5), _INVALID, r"\br\b.* in \{3, 4, 6\}"),
    ("thm14", dict(alpha=1, s=3), _INVALID, r"\bs\b.* in \{2, 4, 5\}"),
    # final
    ("final", dict(p=15, alpha=0, beta=0, branch=3), _INVALID, r"15 is not prime"),
    ("final", dict(p=3, alpha=0, beta=0, branch=3), _INVALID, r"p >= 5"),
    ("final", dict(p=11, alpha=0, beta=0, branch=1, r=3), _INVALID, r"\(-21/p\) = -1"),
    ("final", dict(p=5, alpha=0, beta=1, branch=3), _INVALID, r"\(-21/p\) = -1"),
    ("final", dict(p=13, alpha=-1, beta=0, branch=3), _INVALID, r"alpha.* must be non-negative"),
    ("final", dict(p=13, alpha=0, beta=-1, branch=3), _INVALID, r"beta must be non-negative"),
    ("final", dict(p=13, alpha=0, beta=0, branch=1, r=5), _INVALID, r"\br\b.* in \{3, 4, 6\}"),
    ("final", dict(p=13, alpha=0, beta=0, branch=1), _INVALID, r"\br\b.* in \{3, 4, 6\}"),
    ("final", dict(p=13, alpha=0, beta=0, branch=2, s=3), _INVALID, r"\bs\b.* in \{2, 4, 5\}"),
    ("final", dict(p=13, alpha=1, beta=0, branch=2, r=3), _INVALID, r"\bs\b.* in \{2, 4, 5\}"),
    ("final", dict(p=13, alpha=0, beta=0, branch=4), _INVALID, r"branch must be 1, 2 or 3"),
    ("final", dict(p=13, alpha=0, beta=0, branch=0, r=3), _INVALID, r"branch must be 1, 2 or 3"),
    # a missing parameter, and an unknown id
    ("thm5", dict(p=5), TypeError, r"missing 1 required positional argument: 'k'"),
    ("nope", {}, _INVALID, r"unknown family 'nope'"),
]


class TestFamilyCatalog:
    def test_p11_family_example(self):
        (spec,) = family_catalog("thm5", p=5, k=0)
        assert spec == ProgressionSpec("p_tt", 5, 2, 2, t=1, exclude_prime=5)

    def test_p55_family_example(self):
        (spec,) = family_catalog("thm12", alpha=0, row=1)
        assert spec == ProgressionSpec("p_tt", 10, 2, 2, t=5)

    def test_p77_family_example(self):
        (spec,) = family_catalog("thm14", alpha=0, r=3)
        assert spec == ProgressionSpec("p_tt", 14, 7, 2, t=7)

    def test_transfer_emits_both_families(self):
        specs = family_catalog("thm2", a=5, b=4, m=5, t=2)
        assert [s.function for s in specs] == ["p_tt", "p_2tt"]
        assert all(s.t == 10 for s in specs)

    def test_ramanujan_moduli(self):
        specs = family_catalog("ramanujan", p=7, k=2, t=1)
        assert all(s.modulus == 49 for s in specs)
        assert all(s.step == 49 and s.offset == 47 for s in specs)

    def test_side_conditions_enforced(self):
        with pytest.raises(InvalidFamilyParams):
            family_catalog("thm5", p=13, k=0)  # 13 == 1 (mod 12)
        with pytest.raises(InvalidFamilyParams):
            family_catalog("thm5", p=9, k=0)  # not prime
        with pytest.raises(InvalidFamilyParams):
            family_catalog("thm11", p=3, alpha=0, j=1)  # offset non-integral
        with pytest.raises(InvalidFamilyParams):
            family_catalog("thm11", p=7, alpha=0, j=7)  # j out of range
        with pytest.raises(InvalidFamilyParams):
            family_catalog("cor1", p=11, alpha=0, branch=2)  # (-2/11) = +1
        with pytest.raises(InvalidFamilyParams):
            family_catalog("thm13", p=7, alpha=0, j=1)  # (-10/7) = +1
        with pytest.raises(InvalidFamilyParams):
            family_catalog("final", p=11, alpha=0, beta=0, branch=1, r=3)
        with pytest.raises(InvalidFamilyParams):
            family_catalog("thm14", alpha=0, r=5)
        with pytest.raises(InvalidFamilyParams):
            family_catalog("nope")

    @pytest.mark.parametrize("family, params, error, pattern", _INVALID_FAMILY_PARAMS)
    def test_every_side_condition_is_named(self, family, params, error, pattern):
        with pytest.raises(error, match=pattern) as exc:
            family_catalog(family, **params)
        assert exc.type is error

    def test_offsets_are_nonnegative_integers(self):
        specs = []
        for p in (5, 7, 11):
            for k in (0, 1):
                specs += family_catalog("thm5", p=p, k=k)
        for alpha in (0, 1):
            for row in (1, 2, 3, 4):
                specs += family_catalog("thm12", alpha=alpha, row=row)
            for r in (3, 4, 6):
                specs += family_catalog("thm14", alpha=alpha, r=r)
            for s in (2, 4, 5):
                specs += family_catalog("thm14", alpha=alpha, s=s)
        assert all(isinstance(s.offset, int) and s.offset >= 0 for s in specs)

    def test_non_integral_offset_guard(self):
        from mexparts.congruences import _exact_div

        with pytest.raises(NonIntegralOffset):
            _exact_div(7, 3, "guard")


class TestTransfer:
    def test_hypothesis_and_conclusions(self):
        # whenever the ordinary progression vanishes, so do both transferred
        # families
        for a, b, m in ((5, 4, 5), (7, 5, 7), (11, 6, 11), (25, 24, 25)):
            assert check_progression(ProgressionSpec("p", a, b, m), 300).passed
            for t in (1, 2, 3):
                for spec in family_catalog("thm2", a=a, b=b, m=m, t=t):
                    assert check_progression(spec, 100).passed


class TestParityCharacterizations:
    def test_p11(self):
        report = check_parity_characterization("p11", 300)
        assert report.passed
        assert report.checked == 600

    def test_p33(self):
        report = check_parity_characterization("p33", 300)
        assert report.passed

    def test_spot_values(self):
        assert identity_p_tt(1, 2) % 2 == 1  # 2 = 1*(3*1-1)
        assert identity_p_tt(1, 3) % 2 == 0
        assert identity_p_tt(3, 1) % 2 == 1  # 3*1+1 = 4 is a square

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            check_parity_characterization("p55", 10)


class TestConditionalParity:
    def test_part2(self):
        report = check_conditional_parity("thm6_part2", 60)
        assert report.passed
        assert report.checked + report.skipped == 61
        assert report.skipped > 0  # the claim is genuinely one-directional

    def test_part3(self):
        report = check_conditional_parity("thm6_part3", 60)
        assert report.passed

    def test_calibration_no_odd_values_on_either_progression(self):
        # Calibration for the pentagonal convention: any odd value at an
        # index the predicate skips would falsify the claim.  In fact both
        # progressions carry no odd values at all at desk scale (3m+1 is
        # 2 or 6 mod 8 along them, never a square), so the claim holds
        # under any convention; the checker uses the generalized set with 0.
        assert [n for n in range(61) if identity_p_tt(3, 16 * n + 3) % 2] == []
        assert [n for n in range(61) if identity_p_tt(3, 16 * n + 7) % 2] == []

    @pytest.mark.parametrize(
        "which, offset, predicate",
        [("thm6_part2", 3, is_pent_plus_4pent), ("thm6_part3", 7, is_2pent_plus_3tri)],
    )
    def test_agrees_with_the_identity_route(self, which, offset, predicate):
        report = check_conditional_parity(which, 60)
        swept = [n for n in range(61) if not predicate(n)]
        assert report.checked == len(swept)
        assert report.failure_count == sum(identity_p_tt(3, 16 * n + offset) % 2 for n in swept)

    def test_sweep_is_capped_and_reads_the_p_table_only(self, monkeypatch):
        from mexparts import congruences

        def forbidden(*args):
            raise AssertionError("a progression sweep must build no series or per-n support")

        monkeypatch.setattr(congruences, "identity_p_tt", forbidden)
        monkeypatch.setattr(congruences, "genfun_singular", forbidden)
        report = check_conditional_parity("thm6_part3", 10**6)
        assert report.metadata["n_max_effective"] == (50_000 - 7) // 16
        assert report.metadata["argument_cap"] == 50_000
        assert report.checked + report.skipped == (50_000 - 7) // 16 + 1
        assert all(r.passed for r in check_singular_mod8(500))

    def test_predicates_do_skip_indices(self):
        part2 = check_conditional_parity("thm6_part2", 60)
        part3 = check_conditional_parity("thm6_part3", 60)
        for report in (part2, part3):
            assert report.skipped > 0 and report.checked > 0
            assert report.metadata["pentagonal_convention"].startswith("generalized")


class TestParityBridge:
    @pytest.mark.parametrize("t", [1, 2, 3, 5, 7])
    def test_bridge(self, t):
        report = check_parity_bridge(t, 200)
        assert report.passed
        assert report.checked == 201

    def test_bridge_cross_checked_against_both_oracles(self):
        for n in range(31):
            left = mex_count_oracle(n, MexParams(2, 2))
            right = singular_overpartition_oracle(n, SingularParams(8, 2))
            assert (left - right) % 2 == 0

    def test_eta_form(self):
        for t in (1, 3):
            report = eta_form_mod2_report(t, 300)
            assert report.passed
            assert report.checked == 301


class TestSingularMod8:
    def test_all_four_progressions(self):
        reports = check_singular_mod8(500)
        assert len(reports) == 4
        for report in reports:
            assert report.passed
        by_label = {r.label: r for r in reports}
        # the conditional rows skip their representable indices
        assert by_label["singular-mod8-16n+3"].skipped > 0
        assert by_label["singular-mod8-16n+11"].skipped == 0

    def test_agrees_with_the_series_route(self):
        # the loop the sweep replaced, on the coefficients of the C(12,3) series
        series = genfun_singular(SingularParams(12, 3), 500)
        predicates = {11: None, 15: None, 3: is_pent_plus_4pent, 7: is_2pent_plus_3tri}
        for report in check_singular_mod8(500):
            offset, predicate = report.spec["offset"], predicates[report.spec["offset"]]
            swept = [
                n for n in range((500 - offset) // 16 + 1) if predicate is None or not predicate(n)
            ]
            assert report.checked == len(swept)
            values = [series.coefficient(16 * n + offset) for n in swept]
            assert report.failure_count == sum(value % 8 != 0 for value in values)

    def test_arguments_past_the_cap_are_refused(self):
        with pytest.raises(ValueError, match="argument cap 50000"):
            check_singular_mod8(50_001)

    def test_unconditional_rows_fail_without_condition(self):
        # 16n+3 is NOT unconditional: dropping the condition must surface
        # counterexamples (this pins the conditional reading)
        series_report = check_progression(
            ProgressionSpec("singular", 16, 3, 8, k=12, i=3), 30
        )
        assert not series_report.passed
