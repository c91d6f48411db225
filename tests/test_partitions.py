"""Partition counting, the partition walk, and restricted counts."""

import sys
import threading
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mexparts import partitions
from mexparts.partitions import (
    ENUMERATION_BOUND,
    P_TABLE_BOUND,
    enumerate_partitions,
    partition_convolution_rows,
    partition_count,
    partition_generating_series,
    partition_parity_convolution,
    partition_residue_table,
    restricted_count,
    restricted_counts,
    table_rows,
)
from mexparts.congruences import (
    ARG_CAP,
    ProgressionSpec,
    check_conditional_parity,
    check_parity_bridge,
    check_parity_characterization,
    check_progression,
    delta,
    eta_form_mod2_report,
    family_catalog,
    is_prime,
    jacobi_symbol,
    smallest_prime_with_symbol,
)
from mexparts.cli import main
from mexparts.mex import MexParams, genfun_p_2tt, genfun_p_tt, identity_p_2tt, identity_p_tt, mex_counts_oracle
from mexparts.series import FUNCTIONS, TruncatedSeries, pochhammer_inf, support_p_2tt, support_p_tt, theta_support
from mexparts.singular import SingularParams, singular_overpartition_oracle
from mexparts.stats import verify_section1_identities
from mexparts.suites import suite_bounds
from partition_reference import partitions_of, parts_of


class TestPartitionCount:
    def test_small_values(self):
        assert partition_count(5) == 7
        assert partition_count(4) == 5
        assert partition_count(0) == 1

    def test_negative_convention(self):
        assert partition_count(-3) == 0
        assert partition_count(-1) == 0

    def test_against_dense_series_inversion(self):
        series = partition_generating_series(500)
        for n in range(501):
            assert partition_count(n) == series.coeffs[n]

    def test_known_large_value(self):
        # p(100), a classical table entry
        assert partition_count(100) == 190569292

    def test_generating_series_does_not_read_the_table(self, monkeypatch):
        # thm1 compares the p(n) table with partition_generating_series; a
        # corrupted table entry must not reach the series, or the two
        # routes would share the code path they check
        partition_count(300)
        corrupted = list(partitions._p_table)
        corrupted[100] += 1
        monkeypatch.setattr(partitions, "_p_table", corrupted)
        partition_generating_series.cache_clear()
        try:
            assert partition_count(100) == 190569293  # the corruption is live
            assert partition_generating_series(200) == pochhammer_inf(1, 1, 200).invert()
            assert partition_generating_series(200).coeffs[100] == 190569292
        finally:
            partition_generating_series.cache_clear()


def scalar_p_table(limit):
    """p(0..limit) by Euler's recurrence one n at a time, the route the block
    kernel replaced: p(n) = sum_{m >= 1} (-1)^(m+1) (p(n - m(3m-1)/2) + p(n - m(3m+1)/2))."""
    lags = []
    m = 1
    while m * (3 * m - 1) // 2 <= limit:
        sign = 1 if m % 2 else -1
        lags += [(m * (3 * m - 1) // 2, sign), (m * (3 * m + 1) // 2, sign)]
        m += 1
    table = [1]
    for n in range(1, limit + 1):
        table.append(sum(sign * table[n - e] for e, sign in lags if e <= n))
    return table


SCALAR_REFERENCE = scalar_p_table(12_000)
BLOCK = partitions._P_TABLE_BLOCK
SCALAR_PARITY = sum((v % 2) << n for n, v in enumerate(SCALAR_REFERENCE))  # bit n: p(n) mod 2


@pytest.fixture
def fresh_table(monkeypatch):
    table = [1]  # growth appends to this list in place
    monkeypatch.setattr(partitions, "_p_table", table)
    return table


class TestBlockKernel:
    def test_table_matches_the_scalar_recurrence(self, fresh_table):
        # 12 000 crosses many block boundaries and ends in a short block
        assert 12_000 % partitions._P_TABLE_BLOCK != 0
        partition_count(12_000)
        assert fresh_table == SCALAR_REFERENCE

    @pytest.mark.parametrize("order", sorted({BLOCK - 1, BLOCK, BLOCK + 1, 2047, 2048, 2049}))
    def test_table_matches_series_inversion_at_the_block_edge(self, fresh_table, order):
        assert list(partition_convolution_rows([(0, 1)], order)) == list(partition_generating_series(order).coeffs)

    @settings(max_examples=60, deadline=None)
    @given(
        block=st.integers(1, 9),
        requests=st.lists(st.integers(0, 300), min_size=1, max_size=12),
    )
    def test_any_request_sequence_gives_the_same_table(self, block, requests):
        # small blocks put short lags, lag == block length and lags past n
        # on many block edges; each growth adds at least one block or meets
        # a larger request exactly
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(partitions, "_p_table", [1])
            mp.setattr(partitions, "_P_TABLE_BLOCK", block)
            for needed in requests:
                before = len(partitions._p_table)
                partition_count(needed)
                after = len(partitions._p_table)
                least = before + min(block, before - 1)  # growth ramps up to a block
                assert after == (before if needed < before else max(needed + 1, least))
                assert partitions._p_table == SCALAR_REFERENCE[:after]

    def test_growth_adds_blocks_and_meets_larger_requests_exactly(self, fresh_table):
        block = partitions._P_TABLE_BLOCK
        lengths = [1]
        for n in (*range(0, 49_978, 1009), 49_978):
            partition_count(n)
            if len(fresh_table) != lengths[-1]:
                lengths.append(len(fresh_table))
        # a fresh table grows to the first request; later growths ramp up
        # to whole blocks
        assert lengths[1] == 1010
        assert all(b - a >= min(block, a - 1) for a, b in zip(lengths, lengths[1:]))
        # sweeps reaching 49 978 stop within one block of it, not at 65 535
        assert 49_978 < len(fresh_table) <= 49_978 + block

    def test_euler_lags_are_the_product_terms(self):
        # the lags every block reads, built once to the bound, against the
        # product route (q;q)_inf through q^2000
        lags = partitions._EULER_LAGS
        assert len(lags) == 516 and lags[-1][0] <= P_TABLE_BOUND
        product = pochhammer_inf(1, 1, 2000).coeffs
        assert [(e, c) for e, c in lags if e <= 2000] == [(e, c) for e, c in enumerate(product) if c][1:]

    def test_exact_request_from_a_fresh_table(self, fresh_table):
        list(partition_convolution_rows([(0, 1)], 5000))
        assert len(fresh_table) == 5001

    def test_small_first_request_builds_no_block(self, fresh_table):
        partition_count(45)
        assert len(fresh_table) == 46

    def test_incremental_requests_ramp_onto_the_block_grid(self, fresh_table, monkeypatch):
        # a library loop over partition_count asks for 0, 1, 2, ...: lengths
        # 2^j + 1, then 1 + m * block
        monkeypatch.setattr(partitions, "_P_TABLE_BLOCK", 8)
        lengths = [1]
        for n in range(41):
            partition_count(n)
            if len(fresh_table) != lengths[-1]:
                lengths.append(len(fresh_table))
        assert lengths == [1, 2, 3, 5, 9, 17, 25, 33, 41]
        assert fresh_table == SCALAR_REFERENCE[:41]


class TestPartitionConvolution:
    def test_unit_support_is_the_table(self):
        assert list(partition_convolution_rows([(0, 1)], 300)) == list(partition_generating_series(300).coeffs)

    def test_euler_support_gives_one(self):
        support = [(0, 1), (1, -1), (2, -1), (5, 1), (7, 1), (12, -1), (15, -1)]
        assert list(partition_convolution_rows(support, 20)) == [1] + [0] * 20

    def test_repeated_exponents_add_and_far_exponents_drop(self):
        order = 30
        merged = list(partition_convolution_rows([(3, 5), (10, -2)], order))
        split = list(partition_convolution_rows([(3, 2), (10, -1), (3, 3), (10, -1), (31, 7)], order))
        assert split == merged
        assert len(merged) == order + 1
        assert merged[12] == 5 * partition_count(9) - 2 * partition_count(2)

    @pytest.mark.parametrize(
        "argv",
        [["p_tt", "--t", "2"], ["p_2tt", "--t", "1"], ["singular", "--k", "5", "--i", "2"]],
    )
    def test_compute_builds_no_series(self, monkeypatch, capsys, argv):
        # compute reads the coefficient list; only series arithmetic builds a
        # TruncatedSeries
        def forbidden(self, coeffs):
            raise AssertionError("compute must not build a series")

        monkeypatch.setattr(TruncatedSeries, "__init__", forbidden)
        assert main(["compute", *argv, "--n-max", "60"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 61
        coeffs = list(partition_convolution_rows(theta_support(5, 2, 60), 60))
        assert type(coeffs) is list and all(type(c) is int for c in coeffs)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            list(partition_convolution_rows([(0, 1)], -1))
        with pytest.raises(ValueError):
            list(partition_convolution_rows([(-1, 1)], 5))

    def test_rows_refuse_at_the_call_before_the_table_grows(self, monkeypatch):
        # the rows are a generator, but its refusals come at the call, not at
        # the first next(), so compute writes no row before them
        def forbidden(n):
            raise AssertionError("the table grew before the input was checked")

        monkeypatch.setattr(partitions, "_grow_p_table", forbidden)
        with pytest.raises(ValueError, match="non-negative"):
            partition_convolution_rows([(0, 1)], -1)
        with pytest.raises(ValueError, match="negative exponent"):
            partition_convolution_rows([(0, 1), (3, 2), (-1, 1)], 5)

    @settings(max_examples=40, deadline=None)
    @given(
        order=st.sampled_from([BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7]),
        terms=st.lists(
            st.tuples(
                st.integers(0, 3 * BLOCK + 20) | st.sampled_from([0, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK]),
                st.sampled_from([1, -1]) | st.integers(-7, 7),
            ),
            max_size=10,
        ),
        repeats=st.integers(0, 3),
    )
    def test_streamed_rows_are_the_scalar_sums(self, order, terms, repeats):
        # supports with repeated exponents, exponents past the order and
        # coefficients other than +-1, on orders around the block edges
        support = terms + terms[:repeats]
        expected = [sum(c * SCALAR_REFERENCE[n - e] for e, c in support if e <= n) for n in range(order + 1)]
        assert list(partition_convolution_rows(support, order)) == expected
        coeffs = list(partition_convolution_rows(support, order))
        assert type(coeffs) is list and all(type(c) is int for c in coeffs)
        assert coeffs == expected


class TestTableRows:
    @pytest.mark.parametrize("function, values", [("p", ()), ("p_tt", (3,)), ("p_2tt", (2,)), ("singular", (7, 3))])
    def test_each_function_is_its_support_over_the_table(self, function, values):
        # against the scalar recurrence, which shares no code with the blocks
        order = 2 * BLOCK + 5
        support = FUNCTIONS[function][1](*values, order)
        expected = [sum(c * SCALAR_REFERENCE[n - e] for e, c in support if e <= n) for n in range(order + 1)]
        assert list(table_rows(function, values, order)) == expected

    def test_refuses_in_order_before_any_growth(self, fresh_table, monkeypatch):
        # an unknown id first, then the table bound before the support is
        # built, then the values as the support is built; no table grows
        params, build, name = FUNCTIONS["p_tt"]
        built = []
        monkeypatch.setitem(FUNCTIONS, "p_tt", (params, lambda *a: built.append(a) or build(*a), name))
        with pytest.raises(ValueError, match="unknown function id 'q'"):
            table_rows("q", (), P_TABLE_BOUND + 1)
        with pytest.raises(ValueError, match=rf"limited to n <= {P_TABLE_BOUND} \(got {10**12}\)"):
            table_rows("p_tt", (0,), 10**12)
        assert built == []
        with pytest.raises(ValueError, match="t must be positive"):
            table_rows("p_tt", (0,), 10)
        assert built == [(0, 10)] and fresh_table == [1]


@pytest.fixture
def fresh_residues(monkeypatch):
    tables = {}
    monkeypatch.setattr(partitions, "_p_residues", tables)
    return tables


class TestTableBound:
    def test_an_int_too_long_to_print_is_refused_by_name(self, fresh_table):
        # Python prints no int of more than 4 300 digits by default, so the
        # refusal names it instead of failing on the conversion
        with pytest.raises(ValueError, match=rf"^p\(n\) tables are limited to n <= {P_TABLE_BOUND} "
                                             r"\(got an int too long to print\)$"):
            partition_count(10**5000)
        assert fresh_table == [1]

    def test_every_table_refuses_past_the_bound_at_the_call(self, fresh_table, fresh_residues):
        too_far = P_TABLE_BOUND + 1
        message = f"limited to n <= {P_TABLE_BOUND} \\(got {too_far}\\)"
        asks = [
            partition_count,
            lambda n: partition_convolution_rows([(0, 1)], n),
            lambda n: table_rows("p", (), n),
            lambda n: partition_residue_table(7, n),
        ]
        for ask in asks:
            with pytest.raises(ValueError, match=message):
                ask(too_far)
        assert fresh_table == [1] and fresh_residues == {}

    def test_growth_stops_at_the_bound(self, monkeypatch, fresh_table):
        # a growth step that would pass the bound ends at it, and the bound
        # itself is still served
        monkeypatch.setattr(partitions, "P_TABLE_BOUND", 300)
        partition_count(200)
        partition_count(201)  # the growth step to 400 is cut at 300
        assert len(fresh_table) == 301
        assert partition_count(300) == SCALAR_REFERENCE[300]
        with pytest.raises(ValueError, match="n <= 300"):
            partition_count(301)
        assert len(fresh_table) == 301

    @pytest.mark.parametrize("function", ["p", "singular"])
    def test_compute_refuses_before_any_growth(self, capsys, fresh_table, function):
        # the rows stream from the table, but no row is written before the
        # refusal
        too_far = str(P_TABLE_BOUND + 1)
        params = [] if function == "p" else ["--k", "3", "--i", "1", "--trunc", "200000"]
        assert main(["compute", function, *params, "--n-max", too_far]) == 2
        captured = capsys.readouterr()
        assert f"n <= {P_TABLE_BOUND}" in captured.err and captured.out == ""
        assert fresh_table == [1]

    def test_compute_p_grows_the_table_once(self, capsys, monkeypatch, fresh_table):
        # one growth to n_max before the rows, not one ramp step per row
        requests = []
        grow = partitions._grow_p_table
        monkeypatch.setattr(partitions, "_grow_p_table", lambda n: requests.append(n) or grow(n))
        assert main(["compute", "p", "--n-max", "3000"]) == 0
        assert requests == [3000]
        assert len(fresh_table) == 3001
        assert capsys.readouterr().out.count("\n") == 3001


def assert_packed(m):
    # the table of p(n) mod m is one array of 32-bit fields, its own mirror
    residues = partitions._p_residues[m]
    assert type(residues) is array and residues.typecode == "I" and residues.itemsize == 4


class TestResidueTable:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        m=st.integers(2, 10**6),
        requests=st.lists(st.integers(0, 12_000), min_size=1, max_size=4),
    )
    def test_is_the_scalar_recurrence_mod_m(self, m, requests):
        # 12 000 crosses five block boundaries; each request grows the table
        # from the entries known so far, or reads it
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(partitions, "_p_residues", {})
            for limit in requests:
                assert partition_residue_table(m, limit) == [v % m for v in SCALAR_REFERENCE[: limit + 1]]
            assert_packed(m)

    @pytest.mark.parametrize("m", [2, 3, 8, 121, 999_983])
    def test_matches_series_inversion(self, fresh_residues, m):
        # the product-inversion route shares no code with either table
        series = partition_generating_series(2000)
        assert partition_residue_table(m, 2000) == [c % m for c in series.coeffs]

    @pytest.mark.parametrize("m", [10**21, 2**64 + 13, 2**31 // 100 + 1, 4_161_792, 10**22], ids=str)
    def test_moduli_past_32_bits_take_wider_fields(self, fresh_residues, m):
        # the exact table's ints, which have no width, reduced mod m: the rule
        # reads the 516 lags to the bound, and 2^31 // 100 + 1 = 21 474 837
        # would fit 32 bits with the 51 lags to 1000
        for limit in (1000, 12_000):
            assert partition_residue_table(m, limit) == [v % m for v in SCALAR_REFERENCE[: limit + 1]]
        assert fresh_residues == {}

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(
        m=st.integers(4_161_792, 10**30),
        requests=st.lists(st.integers(0, 12_000), min_size=1, max_size=4),
    )
    def test_a_wide_modulus_is_the_scalar_recurrence_mod_m(self, m, requests):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(partitions, "_p_residues", {})
            for limit in requests:
                assert partition_residue_table(m, limit) == [v % m for v in SCALAR_REFERENCE[: limit + 1]]
            assert partitions._p_residues == {}

    def test_the_32_bit_rule_ends_at_4_161_791(self, fresh_residues):
        # 516 * (m - 1) < 2^31 holds for 4 161 791 but not for the next m:
        # 2^31 // 516 = 4 161 790 would be one short
        for m in (4_161_791, 4_161_792):
            assert partition_residue_table(m, 12_000) == [v % m for v in SCALAR_REFERENCE]
        assert_packed(4_161_791)
        assert list(fresh_residues) == [4_161_791]

    def test_a_float_modulus_leaves_the_table_of_its_int_unchanged(self, fresh_residues):
        # 7.0 == 7 keys the same table, where it would append floats that
        # later int requests return; 10.0**22 would reduce the exact table
        # to floats
        for m in (7, 10**22):
            expected = [v % m for v in SCALAR_REFERENCE[:1001]]
            assert partition_residue_table(m, 1000) == expected
            with pytest.raises(ValueError, match="must be an int"):
                partition_residue_table(float(m), 2000)
            assert partition_residue_table(m, 1000) == expected
        assert list(fresh_residues) == [7]
        assert fresh_residues[7].tolist() == [v % 7 for v in SCALAR_REFERENCE[:1001]]

    def test_reads_no_exact_table(self, monkeypatch, fresh_residues):
        # every modulus with 32-bit fields, the widest among them included
        def forbidden(needed):
            raise AssertionError("a residue table must not grow the exact table")

        monkeypatch.setattr(partitions, "_grow_p_table", forbidden)
        for m in (7, 4_161_791):
            assert partition_residue_table(m, 12_000) == [v % m for v in SCALAR_REFERENCE]
            assert_packed(m)

    @pytest.mark.parametrize("m, limit, message", [(1, 10, "at least 2"), (0, 10, "at least 2"),
                                                   (-5, 10, "at least 2"), (5, -1, "non-negative"),
                                                   (7.0, 10, "must be an int"), (7, 10.0, "must be an int"),
                                                   (True, 10, "must be an int"), (7, False, "must be an int"),
                                                   ("7", 10, "must be an int")])
    def test_refuses_bad_arguments_before_any_growth(self, fresh_residues, m, limit, message):
        with pytest.raises(ValueError, match=message):
            partition_residue_table(m, limit)
        assert fresh_residues == {}

    def test_concurrent_growth_keeps_every_residue(self, fresh_residues):
        # more threads than cores, each growing one of two tables to its own
        # limit with a short switch interval; a lost or torn update would show
        # as a wrong residue or a missing or repeated entry
        requests = [(5, 12_000), (121, 37), (5, 5_000), (121, 150), (5, 11_999),
                    (121, 2_048), (5, 9_001), (121, 12_000)]
        results = {}

        def grow(m, limit):
            results[m, limit] = partition_residue_table(m, limit)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=grow, args=request) for request in requests]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == {(m, n): [v % m for v in SCALAR_REFERENCE[: n + 1]] for m, n in requests}
        for m in (5, 121):
            assert partitions._p_residues[m].tolist() == [v % m for v in SCALAR_REFERENCE]
            assert_packed(m)


def pentagonal_parity_bits(limit):
    """p(0..limit) mod 2 by the other GF(2) route: (q;q)_inf^2 == (q^2;q^2)_inf,
    so 1/(q;q)_inf == (q;q)_inf * (1/(q;q)_inf)(q^2) and the parities known
    to L give those to 2L + 1, one XOR per generalized pentagonal exponent."""
    bits, known = 1, 0
    while known < limit:
        known = min(2 * known + 1, limit)
        low = format(bits & ((1 << (known // 2 + 1)) - 1), "b")
        spread = int("0".join(low), 2)  # bit j moves to bit 2j
        bits = 0
        for e, _ in theta_support(3, 1, known):
            bits ^= spread << e
        bits &= (1 << (known + 1)) - 1
    return bits


@pytest.fixture
def fresh_parity(monkeypatch):
    monkeypatch.setattr(partitions, "_p_parity", 1)
    monkeypatch.setattr(partitions, "_p_parity_len", 1)


class TestParityBitset:
    def test_refuses_past_the_bound_before_any_growth(self, fresh_parity):
        too_far = partitions.P_PARITY_BOUND + 1
        with pytest.raises(ValueError, match=f"n <= {partitions.P_PARITY_BOUND} \\(got {too_far}\\)"):
            partition_parity_convolution([(0, 1)], too_far)
        assert partitions._p_parity_len == 1

    def test_refuses_a_negative_exponent_before_any_growth(self, monkeypatch, fresh_parity):
        # the support is a one-pass iterable, read before the bitset grows
        def forbidden(limit):
            raise AssertionError("the bitset grew before the support was checked")

        monkeypatch.setattr(partitions, "_grow_p_parity", forbidden)
        with pytest.raises(ValueError, match="negative exponent"):
            partition_parity_convolution(iter([(0, 1), (3, 2), (-1, 1)]), partitions.P_PARITY_BOUND)

    def test_matches_the_exact_table_up_to_the_argument_cap(self, fresh_parity):
        partition_count(ARG_CAP)
        parity = partition_parity_convolution([(0, 1)], ARG_CAP)
        digits = format(parity, f"0{ARG_CAP + 1}b")[::-1]
        assert digits == "".join(str(v % 2) for v in partitions._p_table[: ARG_CAP + 1])
        assert partitions._p_parity_len == ARG_CAP + 1

    def test_matches_the_pentagonal_route_bit_for_bit(self, fresh_parity):
        limit = 200_000
        assert partition_parity_convolution([(0, 1)], limit) == pentagonal_parity_bits(limit)

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int/str digit limit")
    def test_growth_ignores_the_int_str_digit_limit(self, fresh_parity):
        # the bit spread parses a base-2 string: int(s, 2) is exempt from the
        # limit, which binds only bases that are not powers of two
        limit = 200_000
        reference = pentagonal_parity_bits(limit)
        digits = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            bits = partition_parity_convolution([(0, 1)], limit)
        finally:
            sys.set_int_max_str_digits(digits)
        assert bits == reference

    def test_pentagonal_reference_matches_the_scalar_recurrence(self):
        assert pentagonal_parity_bits(12_000) == SCALAR_PARITY

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(requests=st.lists(st.integers(0, 5000), min_size=1, max_size=6))
    def test_any_request_sequence_gives_the_same_bits(self, requests):
        # each growth starts from the bits known so far and ends at its request
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(partitions, "_p_parity", 1)
            mp.setattr(partitions, "_p_parity_len", 1)
            for limit in requests:
                before = partitions._p_parity_len
                bits = partition_parity_convolution([(0, 1)], limit)
                assert partitions._p_parity_len == max(before, limit + 1)
                assert bits == SCALAR_PARITY & ((1 << (limit + 1)) - 1)

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(
        st.lists(st.tuples(st.integers(0, 250), st.integers(-3, 3)), max_size=20),
        st.integers(0, 200),
    )
    def test_is_the_convolution_mod_2(self, support, limit):
        # even coefficients and exponents past the limit drop out
        coeffs = list(partition_convolution_rows(support, limit))
        parity = partition_parity_convolution(support, limit)
        assert len(coeffs) == limit + 1
        assert parity == sum((c % 2) << n for n, c in enumerate(coeffs))

    def test_reads_no_exact_table(self, monkeypatch, fresh_parity):
        def forbidden(needed):
            raise AssertionError("the parity bitset must not grow the exact table")

        monkeypatch.setattr(partitions, "_grow_p_table", forbidden)
        assert partition_parity_convolution([(0, 1)], 12_000) == SCALAR_PARITY
        assert partitions._p_parity_len == 12_001

    def test_concurrent_growth_keeps_every_bit(self, fresh_parity):
        # more threads than cores, each growing to its own limit with a short
        # switch interval; a lost or torn update would show as a wrong bit
        limits = [12_000, 37, 5_000, 150, 11_999, 2_048, 9_001, 400]
        results = {}

        def grow(limit):
            results[limit] = partition_parity_convolution([(0, 1)], limit)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=grow, args=(limit,)) for limit in limits]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == {limit: SCALAR_PARITY & ((1 << (limit + 1)) - 1) for limit in limits}
        assert partitions._p_parity_len == 12_001

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="non-negative"):
            partitions._grow_p_parity(-1)
        for support, limit in (([(0, 1)], -1), ([(-1, 1)], 5)):
            with pytest.raises(ValueError):
                partition_parity_convolution(support, limit)


class TestEnumeration:
    def test_n0(self):
        assert [list(mult) for mult in enumerate_partitions(0)] == [[0, 0]]

    def test_n3(self):
        assert [parts_of(mult) for mult in enumerate_partitions(3)] == [(1, 1, 1), (3,), (2, 1)]

    def test_n5_table_order(self):
        # the rows of a partition table, largest parts first, as the worked
        # examples print them
        table = [
            (5,),
            (4, 1),
            (3, 2),
            (3, 1, 1),
            (2, 2, 1),
            (2, 1, 1, 1),
            (1, 1, 1, 1, 1),
        ]
        assert sorted((parts_of(mult) for mult in enumerate_partitions(5)), reverse=True) == table

    def test_n5_walk_order(self):
        # the all-1's partition, then depth first over the parts above 1,
        # the largest next part first
        expected = [
            (1, 1, 1, 1, 1),
            (5,),
            (4, 1),
            (3, 1, 1),
            (3, 2),
            (2, 1, 1, 1),
            (2, 2, 1),
        ]
        assert [parts_of(mult) for mult in enumerate_partitions(5)] == expected

    def test_counts_match_partition_count(self):
        for n in range(41):
            assert sum(1 for _ in enumerate_partitions(n)) == partition_count(n)

    def test_yielded_partitions_satisfy_invariants(self):
        for n in range(26):
            for mult in enumerate_partitions(n):
                assert len(mult) == n + 2
                assert mult[0] == mult[n + 1] == 0
                assert min(mult) >= 0
                assert sum(v * c for v, c in enumerate(mult)) == n

    def test_yields_one_shared_list(self):
        walk = enumerate_partitions(5)
        first = next(walk)
        assert all(mult is first for mult in walk)

    def test_rejects_negative(self):
        # at the call, not at the first next()
        with pytest.raises(ValueError, match="non-negative"):
            enumerate_partitions(-1)

    def test_rejects_past_the_bound_at_the_call(self):
        # exponential beyond the bound: refused before the first node
        with pytest.raises(ValueError, match=f"<= 60 \\(got {ENUMERATION_BOUND + 1}\\)"):
            enumerate_partitions(ENUMERATION_BOUND + 1)


class TestEnumerationProperties:
    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(st.integers(min_value=0, max_value=22))
    def test_matches_recursive_reference(self, n):
        seen = [parts_of(mult) for mult in enumerate_partitions(n)]
        assert len(seen) == len(set(seen)) == partition_count(n)
        assert sorted(seen, reverse=True) == list(partitions_of(n))


class TestMultiplicityWalk:
    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(st.integers(min_value=0, max_value=22), st.sets(st.integers(2, 22)))
    def test_visits_the_partitions_over_sizes_once(self, n, extra):
        sizes = {1} | extra
        seen = [parts_of(mult) for mult in partitions._walk_multiplicities(n, sizes)]
        expected = [parts for parts in partitions_of(n) if set(parts) <= sizes]
        assert len(seen) == len(set(seen))
        assert sorted(seen) == sorted(expected)

    def test_all_sizes_give_p_n_nodes(self):
        for n in range(41):
            walk = partitions._walk_multiplicities(n, range(1, n + 1))
            assert sum(1 for _ in walk) == partition_count(n)

    def test_yields_one_shared_list(self):
        walk = partitions._walk_multiplicities(5, range(1, 6))
        first = next(walk)
        assert first == [0, 5, 0, 0, 0, 0, 0]
        assert all(mult is first for mult in walk)


class TestRestrictedCount:
    def test_even_parts(self):
        assert restricted_count(4, range(2, 5, 2)) == 2  # 4, 2+2

    def test_odd_parts(self):
        assert restricted_count(3, range(1, 4, 2)) == 2  # 3, 1+1+1

    def test_mod32_classes(self):
        sizes = [v for v in range(1, 41) if v % 32 in (4, 6, 8, 10, 22, 24, 26, 28)]
        assert restricted_count(4, sizes) == 1  # the single part 4

    def test_unrestricted_equals_partition_count(self):
        for n in range(201):
            assert restricted_count(n, range(1, n + 1)) == partition_count(n)

    def test_odd_equals_distinct_euler(self):
        # Euler's theorem; the distinct-parts side is an independent
        # enumeration filter.  One walk of 60 serves every n <= 60: a node
        # whose parts above 1 are distinct and total s is a partition into
        # distinct parts of s (no 1) and of s + 1 (one 1), and of no other n.
        distinct = [0] * 62
        for mult in enumerate_partitions(60):
            if max(mult[2:]) <= 1:
                s = 60 - mult[1]
                distinct[s] += 1
                distinct[s + 1] += 1
        for n in range(61):
            assert restricted_count(n, range(1, n + 1, 2)) == distinct[n]

    @given(
        n=st.integers(min_value=0, max_value=18),
        sizes=st.lists(st.integers(min_value=1, max_value=25), max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_filtered_enumeration(self, n, sizes):
        # repeated sizes count once, sizes above n add nothing, and no sizes
        # leave only the empty partition
        allowed = set(sizes)
        expected = sum(1 for parts in partitions_of(n) if set(parts) <= allowed)
        assert restricted_count(n, sizes) == expected

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="n must be non-negative"):
            restricted_count(-1, range(2, 5, 2))

    def test_refuses_past_the_table_bound_before_reading_the_sizes(self):
        # 3 * 10^6 once allocated its table of counts before any check
        def sizes():
            raise AssertionError("the sizes were read before n_max was checked")
            yield 1

        for n_max in (P_TABLE_BOUND + 1, 3 * 10**6):
            with pytest.raises(ValueError, match=rf"^restricted counts are limited to n <= {P_TABLE_BOUND} \(got"):
                restricted_counts(n_max, sizes())
        assert restricted_counts(P_TABLE_BOUND, [P_TABLE_BOUND])[-1] == 1

    @pytest.mark.parametrize("sizes", [[0], [3, -1], range(0, 5)])
    def test_rejects_sizes_below_one(self, sizes):
        with pytest.raises(ValueError, match="part sizes must be positive"):
            restricted_count(4, sizes)


# every entry point that takes a count, order, limit, part size, parameter or
# number-theory argument, with the bad value x in that place; a route with an
# order or n takes a large one, so a check made after the work shows
GUARDED = {
    "partition_count": lambda x: partition_count(x),
    "table_rows order": lambda x: table_rows("p_tt", (1,), x),
    "table_rows t": lambda x: table_rows("p_tt", (x,), 90_000),
    "partition_convolution_rows": lambda x: partition_convolution_rows([(0, 1)], x),
    "partition_parity_convolution": lambda x: partition_parity_convolution([(0, 1)], x),
    "partition_residue_table modulus": lambda x: partition_residue_table(x, 10),
    "partition_residue_table limit": lambda x: partition_residue_table(7, x),
    "enumerate_partitions": lambda x: enumerate_partitions(x),
    "restricted_counts n_max": lambda x: restricted_counts(x, [1]),
    "restricted_counts part size": lambda x: restricted_counts(4, [x]),
    "pochhammer_inf a": lambda x: pochhammer_inf(x, 1, 3),
    "pochhammer_inf b": lambda x: pochhammer_inf(1, x, 3),
    "pochhammer_inf order": lambda x: pochhammer_inf(1, 1, x),
    "from_terms": lambda x: TruncatedSeries.from_terms([(0, 1)], x),
    "theta_support k": lambda x: theta_support(x, 1, 10),
    "theta_support i": lambda x: theta_support(4, x, 10),
    "theta_support limit": lambda x: theta_support(4, 1, x),
    "support_p_tt t": lambda x: support_p_tt(x, 10),
    "support_p_tt limit": lambda x: support_p_tt(1, x),
    "support_p_2tt t": lambda x: support_p_2tt(x, 10),
    "support_p_2tt limit": lambda x: support_p_2tt(1, x),
    "mex oracle": lambda x: mex_counts_oracle(x, [MexParams(1, 1)]),
    "singular oracle": lambda x: singular_overpartition_oracle(x, SingularParams(3, 1)),
    "check_progression": lambda x: check_progression(ProgressionSpec("p", 5, 4, 5), x),
    "check_conditional_parity": lambda x: check_conditional_parity("thm6_part2", x),
    "check_parity_bridge": lambda x: check_parity_bridge(1, x),
    "suite_bounds": lambda x: suite_bounds("thm1", n_max=x),
    "genfun_p_tt t": lambda x: genfun_p_tt(x, 8000),
    "genfun_p_2tt t": lambda x: genfun_p_2tt(x, 8000),
    "identity_p_tt t": lambda x: identity_p_tt(x, 90_000),
    "identity_p_2tt t": lambda x: identity_p_2tt(x, 90_000),
    "check_parity_bridge t": lambda x: check_parity_bridge(x, 8000),
    "eta_form_mod2_report t": lambda x: eta_form_mod2_report(x, 8000),
    "check_parity_characterization": lambda x: check_parity_characterization("p11", x),
    "verify_section1_identities": lambda x: verify_section1_identities(x),
    "delta p": lambda x: delta(x, 1),
    "delta k": lambda x: delta(5, x),
    "MexParams A": lambda x: MexParams(x, 1),
    "family_catalog": lambda x: family_catalog("thm5", p=5, k=x),
    "is_prime": lambda x: is_prime(x),
    "jacobi_symbol": lambda x: jacobi_symbol(x, 7),
    "smallest_prime_with_symbol": lambda x: smallest_prime_with_symbol(x),
}


@pytest.mark.parametrize("bad", [10.0, True, "7"], ids=repr)
@pytest.mark.parametrize("name", GUARDED)
def test_every_guard_refuses_a_value_that_is_not_an_int(fresh_table, fresh_residues, fresh_parity, name, bad):
    # 10.0 once grew the table and then failed in a slice, True counted as 1,
    # and restricted_counts(4, [True]) took True as the part 1; genfun_p_tt(1.0,
    # 8000) inverted (q;q)_inf before it refused t, and "7" raised a TypeError
    inverses = partition_generating_series.cache_info()
    with pytest.raises(ValueError, match="must be an int"):
        GUARDED[name](bad)
    assert fresh_table == [1] and fresh_residues == {} and partitions._p_parity_len == 1
    assert partition_generating_series.cache_info() == inverses  # not even a lookup
