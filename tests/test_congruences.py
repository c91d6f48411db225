"""Number-theoretic helpers, the family catalog, and the sweep checkers."""

import json
import random
import time
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mexparts import congruences, partitions
from mexparts.congruences import (
    ARG_CAP,
    FAMILY_IDS,
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
    smallest_prime_with_symbol,
)
from mexparts.mex import MexParams, genfun_p_tt, identity_p_tt, mex_count_oracle
from mexparts.partitions import partition_count
from mexparts.reports import FAILURE_CAP, VerificationReport
from mexparts.series import support_p_2tt, support_p_tt, theta_support
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
        with pytest.raises(ValueError, match="odd positive modulus, got 4"):
            jacobi_symbol(3, 4)
        with pytest.raises(ValueError, match="odd positive modulus, got -5"):
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

    @pytest.mark.parametrize("k", [301, 10**6, 10**5000], ids=["301", "10^6", "10^5000"])
    def test_refuses_k_past_the_exponent_bound_before_the_power(self, k):
        # 5^(10^6) alone has 700 000 digits; a k too long to print is named so
        assert 24 * delta(5, 300) % 5**300 == 1
        got = "an int too long to print" if k == 10**5000 else k
        with pytest.raises(ValueError, match=rf"^k must be at most 300 \(got {got}\)$"):
            delta(5, k)


class TestPrimes:
    def test_is_prime(self):
        assert [x for x in range(20) if is_prime(x)] == [2, 3, 5, 7, 11, 13, 17, 19]
        assert is_prime(999983)

    def test_smallest_with_symbol(self):
        assert smallest_prime_with_symbol(-2) == 5
        assert smallest_prime_with_symbol(-10) == 17
        assert smallest_prime_with_symbol(-21) == 13

    @pytest.mark.parametrize("value", [1, 4, 9, 10**12, 2**80])
    def test_square_never_has_symbol_minus_one(self, value):
        started = time.monotonic()
        with pytest.raises(ValueError, match="perfect square"):
            smallest_prime_with_symbol(value)
        assert time.monotonic() - started < 0.1

    def test_zero_is_refused_before_any_candidate(self, monkeypatch):
        def forbidden(x):
            raise AssertionError("a search that can never succeed must test no candidate")

        monkeypatch.setattr(congruences, "is_prime", forbidden)
        with pytest.raises(ValueError, match=r"\(0/p\) = 0 for every prime p"):
            smallest_prime_with_symbol(0)


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

    def test_3np1_square_up_to_2e5(self):
        # 3n + 1 = r^2 needs r^2 = 1 (mod 3), that is 3 does not divide r
        known = {(r * r - 1) // 3 for r in range(1, 776) if r % 3}
        for n in range(200_000):
            assert is_3np1_square(n) == (n in known)

    @pytest.mark.parametrize(
        "predicate",
        [is_k3km1, is_3np1_square, is_generalized_pentagonal, is_triangular, is_pent_plus_4pent, is_2pent_plus_3tri],
    )
    def test_false_for_every_negative_argument(self, predicate):
        for n in range(-200, 0):
            assert not predicate(n)

    def test_generalized_pentagonal(self):
        # |k| <= 300 lists every generalized pentagonal below 300 * 899 / 2 = 134 850
        known = {k * (3 * k - 1) // 2 for k in range(-300, 301)}
        for x in range(134_001):
            assert is_generalized_pentagonal(x) == (x in known)

    def test_generalized_pentagonals_up_to(self):
        # the pentagonal predicates iterate the exponents of this support
        for limit in (0, 1, 6, 40, 500):
            expected = sorted({k * (3 * k - 1) // 2 for k in range(-30, 31)} & set(range(limit + 1)))
            assert [e for e, _ in theta_support(3, 1, limit)] == expected

    def test_triangular(self):
        known = {0, 1, 3, 6, 10, 15, 21, 28, 36, 45}
        for x in range(50):
            assert is_triangular(x) == (x in known)

    def test_triangular_up_to_2e5(self):
        # j = 632 gives 200 028, the first triangular number past the range
        known = {j * (j + 1) // 2 for j in range(633)}
        for x in range(200_000):
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

    @pytest.mark.parametrize("predicate, bound", [(is_pent_plus_4pent, 16_000_003), (is_2pent_plus_3tri, 8_000_001)])
    def test_refuses_n_past_its_own_bound(self, predicate, bound):
        # each reads Euler's support to n // 4 or n // 2, which stops at
        # SUPPORT_BOUND; the refusal names n, not that quotient
        predicate(bound)
        with pytest.raises(ValueError, match=rf"checked for n <= {bound} \(got {bound + 1}\)$"):
            predicate(bound + 1)


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

    @pytest.mark.parametrize(
        "function, fields, key, value",
        [
            ("p_tt", dict(step=1, offset=0, modulus=2, t=True), "t", True),
            ("p", dict(step=2, offset=0, modulus=5.0), "modulus", 5.0),
            ("p", dict(step=1.5, offset=4, modulus=5), "step", 1.5),
            ("p", dict(step=5, offset=4.0, modulus=5), "offset", 4.0),
            ("singular", dict(step=5, offset=4, modulus=2, k=4.0, i=1), "k", 4.0),
            ("p", dict(step=5, offset=4, modulus=5, exclude_prime=5.0), "exclude_prime", 5.0),
        ],
        ids=["bool-t", "float-modulus", "float-step", "float-offset", "float-k", "float-exclude_prime"],
    )
    def test_fields_that_are_not_ints_are_refused(self, function, fields, key, value):
        # at construction, before a sweep could print, serialize or run on them
        with pytest.raises(ValueError, match=rf"^progression {key} must be an int \(got {value!r}\)$"):
            ProgressionSpec(function, **fields)

    def test_frozen_values(self):
        spec = ProgressionSpec("p_tt", 5, 4, 5, t=5, exclude_prime=5)
        with pytest.raises(AttributeError):
            spec.modulus = 7
        same = ProgressionSpec(function="p_tt", step=5, offset=4, modulus=5, t=5, exclude_prime=5)
        assert spec == same and hash(spec) == hash(same)
        assert spec != ProgressionSpec("p_tt", 5, 4, 5, t=5)
        assert repr(spec) == (
            "ProgressionSpec(function='p_tt', step=5, offset=4, modulus=5, t=5, k=None, i=None, exclude_prime=5)"
        )

    def test_describe(self):
        spec = ProgressionSpec("p_tt", 5, 4, 5, t=5, exclude_prime=5)
        text = spec.describe()
        assert "5n+4" in text and "mod 5" in text

    @pytest.mark.parametrize("key", ["step", "offset", "modulus"])
    def test_fields_too_long_to_print_are_refused(self, key):
        # describe() labels every report with them, and Python prints no int
        # of more than 4 300 digits; 4 300 digits still sweep and print
        fields = dict(step=1, offset=0, modulus=2)
        widest = ProgressionSpec("p", **{**fields, key: 10**4300 - 1})
        assert check_progression(widest, 0).label == widest.describe()
        with pytest.raises(ValueError, match=rf"^progression {key} is limited to 4300 digits$"):
            ProgressionSpec("p", **{**fields, key: 10**4300})
        with pytest.raises(ValueError, match=rf"^progression {key} is limited to 4300 digits$"):
            check_progression(ProgressionSpec("p", **{**fields, key: 10**5000}), 0)

    @pytest.mark.parametrize("exclude_prime", [None, 5], ids=["all-n", "exclude-5"])
    @pytest.mark.parametrize(
        "function, params",
        [("p", {}), ("p_tt", {"t": 2}), ("p_2tt", {"t": 3}), ("singular", {"k": 12, "i": 3})],
        ids=["p", "p_tt", "p_2tt", "singular"],
    )
    def test_json_round(self, function, params, exclude_prime):
        # function, step, offset, modulus, the function's params, then
        # exclude_prime when given; the record builds the same spec again
        spec = ProgressionSpec(function, 16, 3, 8, **params, exclude_prime=exclude_prime)
        out = spec.to_json()
        excluded = {} if exclude_prime is None else {"exclude_prime": exclude_prime}
        expected = {"function": function, "step": 16, "offset": 3, "modulus": 8, **params, **excluded}
        assert list(out.items()) == list(expected.items())
        assert ProgressionSpec(**json.loads(json.dumps(out))) == spec


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

    def test_argument_cap_trims_sweep(self, monkeypatch):
        monkeypatch.setattr(congruences, "ARG_CAP", 500)
        spec = ProgressionSpec("p", 100, 1, 5)
        report = check_progression(spec, 1000)
        assert report.metadata["n_max_effective"] == 4
        assert report.checked == 5

    def test_library_sweeps_are_capped_by_default(self):
        report = check_progression(ProgressionSpec("p", 15000, 4, 5), 5)
        assert report.checked == 4
        assert report.metadata == {"n_max": 5, "n_max_effective": 3, "argument_cap": 50_000}

    def test_offset_beyond_cap_checks_nothing(self, monkeypatch):
        monkeypatch.setattr(congruences, "ARG_CAP", 500)
        spec = ProgressionSpec("p", 10, 600, 5)
        report = check_progression(spec, 10)
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
            {"n": n, "argument": a, "value_mod_m": series[a] % modulus}
            for n, a in ((n, step * n + offset) for n in range(25))
            if series[a] % modulus
        ]
        assert max(e["argument"] for e in expected) > 2000
        assert report.failures == expected
        assert report.checked == 25 and report.failure_count == len(expected)


def reference_sweep(spec, n_max, arg_cap):
    """check_progression on the exact-table route: every value is
    sum c * p(arg - e) from ``partition_count``, reduced modulo m."""
    report = VerificationReport(label=spec.describe(), spec=spec.to_json(), metadata={"n_max": n_max})
    n_eff = min(n_max, (arg_cap - spec.offset) // spec.step) if spec.offset <= arg_cap else -1
    if n_eff < n_max:
        report.metadata.update(n_max_effective=n_eff, argument_cap=arg_cap)
    largest = spec.step * max(n_eff, 0) + spec.offset  # n_eff = -1 sweeps nothing
    support = {
        "p": lambda: [(0, 1)],
        "p_tt": lambda: support_p_tt(spec.t, largest),
        "p_2tt": lambda: support_p_2tt(spec.t, largest),
        "singular": lambda: theta_support(spec.k, spec.i, largest),
    }[spec.function]()
    for n in range(n_eff + 1):
        if spec.exclude_prime and n % spec.exclude_prime == 0:
            report.skipped += 1
            continue
        arg = spec.step * n + spec.offset
        residue = sum(c * partition_count(arg - e) for e, c in support) % spec.modulus
        report.checked += 1
        if residue:
            report.record_failure(n=n, argument=arg, value_mod_m=residue)
    return report


# true claims from the catalog, next to the random specs, which are nearly all false
_TRUE_PARITY_SPECS = [
    *family_catalog("thm5", p=5, k=0),
    *family_catalog("thm6"),
    *family_catalog("thm12", alpha=0, row=3),
    *family_catalog("thm14", alpha=0, s=2),
    *family_catalog("cor1", p=7, alpha=0, branch=1),
]


@st.composite
def mod2_specs(draw):
    function = draw(st.sampled_from(["p", "p_tt", "p_2tt", "singular"]))
    params = {}
    if function in ("p_tt", "p_2tt"):
        params["t"] = draw(st.integers(1, 6))
    elif function == "singular":
        params["k"] = draw(st.integers(3, 12))
        # i = k/2 is the self-paired case, with coefficients 2 that drop out
        params["i"] = draw(st.sampled_from([params["k"] // 2, 1, draw(st.integers(1, params["k"] // 2))]))
    return ProgressionSpec(
        function, draw(st.integers(1, 300)), draw(st.integers(0, 400)), 2,
        exclude_prime=draw(st.sampled_from([None, 2, 3, 5, 7])), **params,
    )


class TestParityRoute:
    @settings(derandomize=True, deadline=None, max_examples=120)
    @given(
        spec=st.one_of(mod2_specs(), st.sampled_from(_TRUE_PARITY_SPECS)),
        n_max=st.integers(0, 60),
        arg_cap=st.sampled_from([ARG_CAP, 3000, 500, 100]),
    )
    def test_sweep_matches_the_exact_table_reference(self, spec, n_max, arg_cap):
        with patch.object(congruences, "ARG_CAP", arg_cap):
            report = check_progression(spec, n_max)
        assert report.to_json() == reference_sweep(spec, n_max, arg_cap).to_json()

    def test_the_strategy_reaches_true_false_and_self_paired_claims(self):
        assert all(check_progression(spec, 40).passed for spec in _TRUE_PARITY_SPECS)
        paired = ProgressionSpec("singular", 3, 1, 2, k=8, i=4)
        assert theta_support(8, 4, 100)[1] == (4, 2)
        assert check_progression(paired, 30).to_json() == reference_sweep(paired, 30, ARG_CAP).to_json()
        assert not check_progression(ProgressionSpec("p", 1, 0, 2), 10).passed

    def test_mod_2_sweeps_read_no_exact_table(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a mod-2 sweep must read the parity bitset only")

        monkeypatch.setattr(congruences, "partition_count", forbidden)
        monkeypatch.setattr(partitions, "_grow_p_table", forbidden)
        for spec in _TRUE_PARITY_SPECS:
            assert check_progression(spec, 100).passed
        report = check_progression(ProgressionSpec("singular", 7, 2, 2, k=5, i=2), 100)
        assert report.failure_count > 0
        assert check_conditional_parity("thm6_part2", 100).passed
        assert check_parity_characterization("p33", 1000).passed

    def test_mod_2_rows_never_shift_the_bitset(self, monkeypatch):
        # bits >> n copies every bit above n, so a row read that way costs
        # O(n); each row must read one bit of a copy taken once per bitset
        bitsets, shifts = [], []

        class Bitset(int):
            def __rshift__(self, amount):
                shifts.append(amount)
                return int(self) >> amount

        def convolution(support, limit):
            bitsets.append(Bitset(partitions.partition_parity_convolution(support, limit)))
            return bitsets[-1]

        monkeypatch.setattr(congruences, "partition_parity_convolution", convolution)
        for spec in _TRUE_PARITY_SPECS:
            assert check_progression(spec, 100).passed
        assert check_progression(ProgressionSpec("singular", 7, 2, 2, k=5, i=2), 100).failure_count > 0
        assert check_parity_characterization("p33", 1000).passed
        # one bitset per sweep, and one per route of the characterization
        assert len(bitsets) == len(_TRUE_PARITY_SPECS) + 1 + 2
        assert shifts == []

    def test_residue_sweeps_read_no_exact_table(self, monkeypatch):
        # every modulus with 32-bit fields reads its table of p(n) mod m
        def forbidden(*args):
            raise AssertionError("a residue sweep must read its residue table only")

        monkeypatch.setattr(partitions, "_p_table", [1])
        monkeypatch.setattr(partitions, "_p_residues", {})
        monkeypatch.setattr(congruences, "partition_count", forbidden)
        monkeypatch.setattr(partitions, "_grow_p_table", forbidden)
        assert check_progression(ProgressionSpec("p", 5, 4, 5), 300).passed
        assert check_progression(ProgressionSpec("p_2tt", 121, 116, 121, t=121), 200).passed
        assert all(report.passed for report in check_singular_mod8())
        assert sorted(partitions._p_residues) == [5, 8, 121]
        with pytest.raises(AssertionError, match="residue table only"):
            partition_count(1)  # the exact table is really out of reach

    def test_a_sweep_past_32_bits_reduces_the_exact_table(self, monkeypatch):
        # 10^21 is wider than 32-bit fields, and p(n) > 10^21 for every
        # argument 7n + 505 of its sweep, so each residue is reduced
        exact = [partition_count(7 * n + 505) for n in range(FAILURE_CAP)]
        assert min(exact) > 10**21
        monkeypatch.setattr(partitions, "_p_table", [1])
        monkeypatch.setattr(partitions, "_p_residues", {})
        report = check_progression(ProgressionSpec("p", 7, 505, 10**21), 100)
        assert report.checked == report.failure_count == 101
        assert [f["value_mod_m"] for f in report.failures] == [v % 10**21 for v in exact]
        assert partitions._p_residues == {} and len(partitions._p_table) > 7 * 100 + 505

    def test_the_argument_cap_bounds_the_bitset(self, monkeypatch):
        monkeypatch.setattr(partitions, "_p_parity", 1)
        monkeypatch.setattr(partitions, "_p_parity_len", 1)
        report = check_progression(ProgressionSpec("p_tt", 2, 1, 2, t=1), 10**6)
        assert report.metadata["n_max_effective"] == (ARG_CAP - 1) // 2
        assert partitions._p_parity_len == ARG_CAP


# Every side condition of every family, each violated alone, with a pattern
# naming the condition in the error message.  _INVALID labels the refusal of a
# side condition, a ValueError; the label also names those cases in their ids.
_INVALID = "InvalidFamilyParams"
_INVALID_FAMILY_PARAMS = [
    # thm2: the transfer's bounds, refused by ProgressionSpec
    ("thm2", dict(a=0, b=4, m=5, t=1), _INVALID, r"progression step must be positive"),
    ("thm2", dict(a=5, b=4, m=5, t=0), _INVALID, r"progression t must be positive"),
    ("thm2", dict(a=5, b=-1, m=5, t=1), _INVALID, r"progression offset must be non-negative"),
    ("thm2", dict(a=5, b=4, m=1, t=1), _INVALID, r"progression modulus must be at least 2"),
    # ramanujan: p and k refused by delta, t by ProgressionSpec
    ("ramanujan", dict(p=13, k=1, t=1), _INVALID, r"p in \{5, 7, 11\}"),
    ("ramanujan", dict(p=5, k=0, t=1), _INVALID, r"k must be positive"),
    ("ramanujan", dict(p=5, k=301, t=1), _INVALID, r"k must be at most 300 \(got 301\)"),
    ("ramanujan", dict(p=7, k=1, t=0), _INVALID, r"progression t must be positive"),
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
    # a missing or unknown parameter is named before any check runs
    ("thm5", dict(p=5), TypeError, r"missing 1 required positional argument: 'k'"),
    ("thm5", dict(k=0), TypeError, r"missing 1 required positional argument: 'p'"),
    ("thm13", dict(p=17, alpha=0, j=1, beta=0), TypeError, r"unexpected keyword argument 'beta'"),
    # an unknown id
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
        with pytest.raises(ValueError, match=r"^thm5: needs p != 1 \(mod 12\), not p = 13$"):
            family_catalog("thm5", p=13, k=0)  # 13 == 1 (mod 12)
        with pytest.raises(ValueError, match=r"^thm5: 9 is not prime$"):
            family_catalog("thm5", p=9, k=0)  # not prime
        with pytest.raises(ValueError, match=r"^thm11: needs p >= 7, not p = 3$"):
            family_catalog("thm11", p=3, alpha=0, j=1)  # offset non-integral
        with pytest.raises(ValueError, match=r"^thm11: j must satisfy 1 <= j <= p - 1$"):
            family_catalog("thm11", p=7, alpha=0, j=7)  # j out of range
        with pytest.raises(ValueError, match=r"^cor1: needs \(-2/p\) = -1 on branch 2"):
            family_catalog("cor1", p=11, alpha=0, branch=2)  # (-2/11) = +1
        with pytest.raises(ValueError, match=r"^thm13: needs \(-10/p\) = -1, not p = 7$"):
            family_catalog("thm13", p=7, alpha=0, j=1)  # (-10/7) = +1
        with pytest.raises(ValueError, match=r"^final: needs \(-21/p\) = -1, not p = 11$"):
            family_catalog("final", p=11, alpha=0, beta=0, branch=1, r=3)
        with pytest.raises(ValueError, match=r"^thm14: r must be in \{3, 4, 6\}$"):
            family_catalog("thm14", alpha=0, r=5)
        with pytest.raises(ValueError, match=r"^unknown family 'nope'; known: cor1, final,"):
            family_catalog("nope")

    @pytest.mark.parametrize("family, params, error, pattern", _INVALID_FAMILY_PARAMS)
    def test_every_side_condition_is_named(self, family, params, error, pattern):
        refusal = ValueError if error == _INVALID else error
        with pytest.raises(refusal, match=pattern) as exc:
            family_catalog(family, **params)
        assert exc.type is refusal
        if refusal is ValueError and family in FAMILY_IDS:  # the primality envelope's too
            assert str(exc.value).startswith(f"{family}: ")

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

        with pytest.raises(ValueError, match=r"^guard: 7/3 is not integral$"):
            _exact_div(7, 3, "guard")

    @pytest.mark.parametrize("family, params, name", [
        ("thm5", dict(p=5, k=301), "k"),
        ("thm5", dict(p=5, k=3100), "k"),  # once a 4 700-digit offset that describe() could not print
        ("thm12", dict(alpha=10**6, row=1), "alpha"),  # refused before 5^(2*10^6) is taken
        ("final", dict(p=13, alpha=0, beta=301, branch=3), "beta"),
    ])
    def test_exponents_are_bounded(self, family, params, name):
        got = params[name]
        with pytest.raises(ValueError, match=rf"^{family}: {name} must be at most 300 \(got {got}\)$"):
            family_catalog(family, **params)

    def test_widest_member_at_the_exponent_bound_sweeps(self):
        # final's branch 3 at the largest admissible prime under the primality
        # envelope and alpha = beta = 300: the widest offset the catalog builds
        assert jacobi_symbol(-21, 999_983) == -1
        (spec,) = family_catalog("final", p=999_983, alpha=300, beta=300, branch=3)
        assert len(str(spec.offset)) == 4120
        report = check_progression(spec, 0)
        assert report.passed and report.checked == 0
        assert report.metadata["n_max_effective"] == -1

    def test_every_offset_is_integral_over_one_period(self):
        # Each row's claims, called directly, past its prime rule.  Every prime
        # p >= 5 lies in one of the 8 classes mod 24 prime to 6, and p^2 == 1
        # (mod 24); 5^2 == 1 (mod 12) and 7 == 49 == 1 (mod 6).  So p over
        # those classes and alpha, beta over {0, 1} take every numerator
        # through a full period modulo its denominator (3, 6, 12 or 24): the
        # offsets are integers for every parameter.  Each class is taken at
        # its representative in [25, 48], so every row's least p (7 for thm11)
        # holds and j runs through its whole range.
        from itertools import product

        from mexparts.suites import P77_BRANCHES, P77_ROWS

        primes = [r for r in range(25, 49) if r % 2 and r % 3]
        assert sorted(p % 24 for p in primes) == [1, 5, 7, 11, 13, 17, 19, 23]
        exponents = (0, 1)
        grids = {
            "thm5": [dict(p=p, k=k) for p, k in product(primes, exponents)],
            "thm11": [dict(p=p, alpha=a, j=j) for p, a in product(primes, exponents) for j in range(1, p)],
            "thm6": [{}],
            "cor1": [dict(p=p, alpha=a, branch=b) for p, a, b in product(primes, exponents, (1, 2))],
            "thm12": [dict(alpha=a, row=row) for a, row in product(exponents, (1, 2, 3, 4))],
            "thm13": [dict(p=p, alpha=a, j=j) for p, a in product(primes, exponents) for j in range(1, p)],
            "thm14": [dict(alpha=a, **rs) for a, rs in product(exponents, P77_ROWS)],
            "final": [
                dict(p=p, alpha=a, beta=b, **branch)
                for p, a, b, branch in product(primes, exponents, exponents, P77_BRANCHES)
            ],
        }
        rows = {family: row for family, row in congruences._FAMILIES.items()
                if isinstance(row, congruences._ParityFamily)}
        assert set(grids) == set(rows)
        for family, grid in grids.items():
            for params in grid:
                for _step, _base, numerator, denominator, _prime in rows[family].claims(**params):
                    assert denominator in (1, 3, 6, 12, 24)
                    assert numerator % denominator == 0, (family, params)


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

    def test_untrimmed_sweep_records_no_cap(self):
        report = check_parity_characterization("p33", 50)
        assert report.metadata == {"n_max": 50, "predicate": "3n+1 is a square"}

    def test_sweep_stops_at_the_argument_cap(self, monkeypatch):
        from mexparts import congruences

        monkeypatch.setattr(congruences, "ARG_CAP", 500)
        report = check_parity_characterization("p11", 1000)
        assert report.passed
        assert report.checked == 2 * 500
        assert report.metadata["n_max"] == 1000
        assert report.metadata["n_max_effective"] == 500
        assert report.metadata["argument_cap"] == 500

    def test_reads_the_exact_table_only_for_a_failure(self, monkeypatch):
        # without failures the sweep to 50 000 grows no exact table at all;
        # a failure record takes its exact value from the table
        table = [1]
        monkeypatch.setattr(partitions, "_p_table", table)
        report = check_parity_characterization("p11", 50_000)
        assert report.passed and report.checked == 100_000
        assert table == [1]
        monkeypatch.setattr(congruences, "is_k3km1", lambda n: is_k3km1(n) != (n == 40_000))
        report = check_parity_characterization("p11", 50_000)
        assert report.failures[0] == {
            "function": "p_tt[t=1]", "n": 40_000, "value": identity_p_tt(1, 40_000),
        }
        assert report.failure_count == 2
        assert 40_000 < len(table) < 50_000

    def test_builds_no_series(self, monkeypatch):
        from mexparts.series import TruncatedSeries

        def forbidden(self, coeffs):
            raise AssertionError("the parity characterization must build no series")

        monkeypatch.setattr(TruncatedSeries, "__init__", forbidden)
        assert check_parity_characterization("p33", 400).passed

    def test_failures_name_both_routes_ascending_in_n(self, monkeypatch):
        # flipping the predicate at n = 5 and 7 makes both functions fail
        # there; the values are those of the identity and of the series route
        from mexparts import congruences

        monkeypatch.setattr(congruences, "is_k3km1", lambda n: is_k3km1(n) != (n in (5, 7)))
        report = check_parity_characterization("p11", 20)
        series = genfun_singular(SingularParams(4, 1), 20)
        assert report.failures == [
            {"function": function, "n": n, "value": value}
            for n in (5, 7)
            for function, value in (
                ("p_tt[t=1]", identity_p_tt(1, n)), ("C[4,1]", series[n]),
            )
        ]
        assert report.checked == 40


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

        monkeypatch.setattr(congruences, "genfun_singular", forbidden)
        report = check_conditional_parity("thm6_part3", 10**6)
        assert report.metadata["n_max_effective"] == (50_000 - 7) // 16
        assert report.metadata["argument_cap"] == 50_000
        assert report.checked + report.skipped == (50_000 - 7) // 16 + 1
        assert all(r.passed for r in check_singular_mod8())

    def test_rejects_unknown(self, monkeypatch):
        # refused before any table grows, at an n_max that would grow every one
        monkeypatch.setattr(partitions, "_p_table", [1])
        monkeypatch.setattr(partitions, "_p_residues", {})
        monkeypatch.setattr(partitions, "_p_parity", 1)
        monkeypatch.setattr(partitions, "_p_parity_len", 1)
        with pytest.raises(ValueError) as refused:
            check_conditional_parity("thm6_part4", 10**6)
        assert "'thm6_part2'" in str(refused.value) and "'thm6_part3'" in str(refused.value)
        assert partitions._p_table == [1] and partitions._p_residues == {} and partitions._p_parity_len == 1

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
        left = mex_count_oracle(30, MexParams(2, 2))
        right = singular_overpartition_oracle(30, SingularParams(8, 2))
        assert [(x - y) % 2 for x, y in zip(left, right)] == [0] * 31

    def test_eta_form(self):
        for t in (1, 3):
            report = eta_form_mod2_report(t, 300)
            assert report.passed
            assert report.checked == 301


class TestSingularMod8:
    def test_all_four_progressions(self):
        reports = check_singular_mod8()
        assert len(reports) == 4
        assert {r.metadata["argument_cap"] for r in reports} == {congruences.MOD8_ARG_MAX} == {500}
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
        for report in check_singular_mod8():
            offset, predicate = report.spec["offset"], predicates[report.spec["offset"]]
            swept = [
                n for n in range((500 - offset) // 16 + 1) if predicate is None or not predicate(n)
            ]
            assert report.checked == len(swept)
            values = [series[16 * n + offset] for n in swept]
            assert report.failure_count == sum(value % 8 != 0 for value in values)

    def test_unconditional_rows_fail_without_condition(self):
        # 16n+3 is NOT unconditional: dropping the condition must surface
        # counterexamples (this pins the conditional reading)
        series_report = check_progression(
            ProgressionSpec("singular", 16, 3, 8, k=12, i=3), 30
        )
        assert not series_report.passed
