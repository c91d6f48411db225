"""The mex statistic and the three routes to the (t,t) and (2t,t) counts."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mexparts import mex, partitions
from mexparts.cli import main
from mexparts.mex import (
    MexParams,
    genfun_p_2tt,
    genfun_p_tt,
    identity_p_2tt,
    identity_p_tt,
    mex_count_oracle,
    mex_counts_oracle,
)
from mexparts.partitions import (
    enumerate_partitions,
    partition_convolution_rows,
    partition_count,
    partition_generating_series,
)
from mexparts.series import SERIES_ORDER_BOUND, TruncatedSeries, pochhammer_inf, support_p_2tt, support_p_tt
from partition_reference import partitions_of


def mex_by_definition(parts, params):
    # the least positive v == a (mod A) that is not a part; one of the first
    # len(parts) + 1 candidates is missing, which bounds the range
    A, a = params.A, params.a
    return min(
        v for v in range(1, a + A * (len(parts) + 1)) if v % A == a % A and v not in parts
    )


class TestMexOf:
    def test_worked_table_rows(self):
        # mex values for the partitions of 5 under (A, a) = (2, 2); the four
        # with mex 2 (mod 4) are the oracle's count
        params = MexParams(2, 2)
        table = {
            (5,): 2,
            (4, 1): 2,
            (3, 2): 4,
            (3, 1, 1): 2,
            (2, 2, 1): 4,
            (2, 1, 1, 1): 4,
            (1, 1, 1, 1, 1): 2,
        }
        assert set(partitions_of(5)) == set(table)
        for parts, expected in table.items():
            assert mex_by_definition(parts, params) == expected
        assert mex_count_oracle(5, params)[5] == sum(v % 4 == 2 for v in table.values())

    def test_empty_partition(self):
        assert mex_by_definition((), MexParams(7, 3)) == 3
        # the empty partition's mex is a itself, so it counts for every (A, a)
        assert mex_counts_oracle(0, [MexParams(7, 3), MexParams(1, 1)]) == [[1], [1]]

    def test_always_in_residue_class(self):
        params = MexParams(3, 2)
        for parts in partitions_of(9):
            assert mex_by_definition(parts, params) % 3 == 2

    def test_params_validation(self):
        with pytest.raises(ValueError):
            MexParams(0, 1)
        with pytest.raises(ValueError):
            MexParams(3, 4)
        with pytest.raises(ValueError):
            MexParams(3, 0)

    @pytest.mark.parametrize("A, a", [(True, True), (2.0, 2), (3, 2.0), (2, True)])
    def test_params_refuse_fields_that_are_not_ints(self, A, a):
        # a bool passes every range check as 1, and a float breaks the walk
        with pytest.raises(ValueError, match="must be an int"):
            MexParams(A, a)

    def test_params_are_frozen_values(self):
        params = MexParams(2, 2)
        with pytest.raises(AttributeError):
            params.A = 3
        assert params == MexParams(A=2, a=2) and hash(params) == hash(MexParams(A=2, a=2))
        assert params != MexParams(2, 1)
        assert repr(params) == "MexParams(A=2, a=2)"


class TestOracle:
    def test_worked_example(self):
        assert mex_count_oracle(5, MexParams(2, 2))[5] == 4

    def test_n0(self):
        assert mex_count_oracle(0, MexParams(4, 3)) == [1]

    def test_n2_11(self):
        # n = 0: () has mex 1 (counted); n = 1: {1} has mex 2 (not);
        # n = 2: {2} has mex 1 (counted), {1,1} has mex 2 (not)
        assert mex_count_oracle(2, MexParams(1, 1)) == [1, 0, 1]

    def test_bound_enforced(self):
        with pytest.raises(ValueError, match="enumeration-backed and limited to n <= 60"):
            mex_count_oracle(61, MexParams(1, 1))


@st.composite
def mex_params(draw):
    A = draw(st.integers(min_value=1, max_value=9))
    return MexParams(A, draw(st.integers(min_value=1, max_value=A)))


def count_by_definition(n, params):
    return sum(
        1
        for parts in partitions_of(n)
        if mex_by_definition(parts, params) % (2 * params.A) == params.a % (2 * params.A)
    )


def reference_mex_counts(n, params_seq):
    """Reference route for mex_counts_oracle: one set of parts per partition
    from the recursive reference enumeration, not the multiplicity walk."""
    tally = [0] * len(params_seq)
    for parts in partitions_of(n):
        present = set(parts)
        for j, p in enumerate(params_seq):
            v = p.a
            while v in present:
                v += p.A
            if v % (2 * p.A) == p.a:
                tally[j] += 1
    return tuple(tally)


def reference_mex_lists(n_max, params_seq):
    """reference_mex_counts for every n <= n_max, as one list per (A, a)."""
    return [list(counts) for counts in zip(*(reference_mex_counts(n, params_seq) for n in range(n_max + 1)))]


class TestMultiOracle:
    def test_empty_parameter_list(self):
        assert mex_counts_oracle(7, []) == []

    def test_returns_one_list_per_parameter_set(self):
        lists = mex_counts_oracle(6, [MexParams(1, 1), MexParams(3, 2), MexParams(1, 1)])
        assert type(lists) is list and [type(counts) for counts in lists] == [list] * 3
        assert [len(counts) for counts in lists] == [7] * 3 and lists[0] == lists[2]

    def test_bound_checked_before_enumerating(self, monkeypatch):
        def fail(n):
            raise AssertionError("enumerated past the bound")

        monkeypatch.setattr("mexparts.mex.enumerate_partitions", fail)
        with pytest.raises(ValueError, match="enumeration-backed and limited to n <= 60"):
            mex_counts_oracle(61, [MexParams(1, 1)])
        with pytest.raises(ValueError):
            mex_counts_oracle(-1, [MexParams(1, 1)])

    def test_thm1_slots(self):
        params = [MexParams(A, t) for t in (1, 2, 3) for A in (t, 2 * t)]
        lists = mex_counts_oracle(20, params)
        assert lists[0::2] == [[identity_p_tt(t, n) for n in range(21)] for t in (1, 2, 3)]
        assert lists[1::2] == [[identity_p_2tt(t, n) for n in range(21)] for t in (1, 2, 3)]

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.integers(min_value=0, max_value=18), st.lists(mex_params(), max_size=6))
    def test_each_slot_matches_single_and_definition(self, n, params):
        params = params + params[:2]  # repeated parameters get equal, separate slots
        lists = mex_counts_oracle(n, params)
        assert len(lists) == len(params) and all(len(counts) == n + 1 for counts in lists)
        for counts, p in zip(lists, params):
            assert counts == mex_count_oracle(n, p)
            assert counts[n] == count_by_definition(n, p)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.integers(min_value=0, max_value=30), st.lists(mex_params(), max_size=8))
    def test_matches_the_enumeration_reference(self, n, params):
        assert tuple(counts[n] for counts in mex_counts_oracle(n, params)) == reference_mex_counts(n, params)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        st.integers(min_value=0, max_value=18),
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=2, max_value=9).flatmap(
            lambda A: st.builds(MexParams, st.just(A), st.integers(min_value=2, max_value=A))
        ),
        st.lists(mex_params(), max_size=4),
    )
    def test_every_row_matches_the_enumeration_reference(self, n_max, A1, other, params):
        # one walk of n_max groups each partition of n by its parts above 1;
        # a = 1 reads the 1's and a >= 2 does not, so both kinds are present
        params = [MexParams(A1, 1), other, *params]
        assert mex_counts_oracle(n_max, params) == reference_mex_lists(n_max, params)

    @pytest.mark.parametrize("n_max", range(5))
    def test_small_n_max_matches_the_enumeration_reference(self, n_max):
        # runs of one and two 2's, and n_max = 0, where mult has no slot 2
        params = [MexParams(A, a) for A in range(1, 5) for a in range(1, A + 1)]
        assert mex_counts_oracle(n_max, params) == reference_mex_lists(n_max, params)

    @pytest.mark.parametrize("n", [0, 1, 17, 30])
    def test_visits_each_partition_once(self, monkeypatch, n):
        nodes = []

        def counting_walk(n):
            for mult in partitions.enumerate_partitions(n):
                nodes.append(None)
                yield mult

        monkeypatch.setattr("mexparts.mex.enumerate_partitions", counting_walk)
        mex_counts_oracle(n, [MexParams(1, 1), MexParams(4, 2)])
        assert len(nodes) == partition_count(n)


class TestGeneratingFunctions:
    def test_p_tt_worked_example(self):
        assert genfun_p_tt(2, 5)[5] == 4

    @pytest.mark.parametrize("genfun", [genfun_p_tt, genfun_p_2tt])
    @pytest.mark.parametrize("order", [0, 1, 17])
    def test_returns_a_list_of_order_plus_one_ints(self, genfun, order):
        values = genfun(2, order)
        assert type(values) is list and len(values) == order + 1
        assert all(type(value) is int for value in values)

    def test_constant_terms(self):
        assert genfun_p_tt(1, 0) == [1]
        assert genfun_p_2tt(1, 0) == [1]

    def test_p_tt_t3_matches_oracle(self):
        assert genfun_p_tt(3, 5) == mex_count_oracle(5, MexParams(3, 3))

    def test_p_2tt_matches_oracle(self):
        for t, A in ((1, 2), (2, 4)):
            assert genfun_p_2tt(t, 12) == mex_count_oracle(12, MexParams(A, t))

    def test_coefficients_nonnegative(self):
        for t in (1, 2, 3, 5, 7):
            assert all(c >= 0 for c in genfun_p_tt(t, 500))
            assert all(c >= 0 for c in genfun_p_2tt(t, 500))


    @pytest.mark.parametrize("genfun, support", [(genfun_p_tt, "support_p_tt"), (genfun_p_2tt, "support_p_2tt")])
    def test_series_bound_is_refused_before_the_support_is_built(self, monkeypatch, genfun, support):
        build = getattr(mex, support)

        def spy(t, limit):
            assert limit <= SERIES_ORDER_BOUND, "support built past the series bound"
            return build(t, limit)

        monkeypatch.setattr(mex, support, spy)
        order = 10**12
        with pytest.raises(ValueError, match=rf"series orders are limited to {SERIES_ORDER_BOUND} \(got {order}\)"):
            genfun(1, order)
        with pytest.raises(ValueError, match="t must be positive"):  # t is still refused first
            genfun(0, order)
        product = TruncatedSeries.from_terms(build(2, 40), 40) * partition_generating_series(40)
        assert genfun(2, 40) == list(product.coeffs)


class TestIdentities:
    def test_p_tt_worked_example(self):
        assert identity_p_tt(2, 5) == 4

    def test_p_tt_n0(self):
        assert identity_p_tt(1, 0) == 1

    def test_p_tt_t1_n10_by_hand(self):
        # p(10) + p(7) + p(0) - p(9) - p(4) = 42 + 15 + 1 - 30 - 5
        assert identity_p_tt(1, 10) == 23
        assert genfun_p_tt(1, 10)[10] == 23

    def test_p_2tt_small(self):
        assert identity_p_2tt(1, 0) == 1
        assert identity_p_2tt(1, 1) == 0  # {1} has mex 3 == 3 (mod 4), not counted

    def test_p_2tt_t3_matches_series(self):
        series = genfun_p_2tt(3, 30)
        for n in range(31):
            assert identity_p_2tt(3, n) == series[n]

    def test_validation(self):
        with pytest.raises(ValueError):
            identity_p_tt(0, 5)
        with pytest.raises(ValueError):
            identity_p_2tt(1, -1)

    @pytest.mark.parametrize("identity, support", [(identity_p_tt, "support_p_tt"), (identity_p_2tt, "support_p_2tt")])
    def test_table_bound_is_refused_before_the_support_is_built(self, monkeypatch, identity, support):
        build = getattr(mex, support)

        def spy(t, limit):
            assert limit <= partitions.P_TABLE_BOUND, "support built past the table bound"
            return build(t, limit)

        monkeypatch.setattr(mex, support, spy)
        n = 10**12
        with pytest.raises(ValueError, match=rf"p\(n\) tables are limited to n <= {partitions.P_TABLE_BOUND} \(got {n}\)"):
            identity(1, n)
        with pytest.raises(ValueError, match="t must be positive"):  # t is still refused first
            identity(0, n)
        assert [identity(2, n) for n in range(41)] == list(partition_convolution_rows(build(2, 40), 40))


class TestThreeWayEquivalence:
    @pytest.mark.parametrize("t", [1, 2, 3, 5, 7])
    def test_tt_family(self, t):
        series = genfun_p_tt(t, 40)
        oracle = mex_count_oracle(40, MexParams(t, t))
        assert oracle == [identity_p_tt(t, n) for n in range(41)] == series

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_2tt_family(self, t):
        series = genfun_p_2tt(t, 40)
        oracle = mex_count_oracle(40, MexParams(2 * t, t))
        assert oracle == [identity_p_2tt(t, n) for n in range(41)] == series

    def test_p21_counts_even_length_partitions(self):
        # the (2,1) count coincides with partitions having an even number
        # of parts
        for n in range(41):
            even_length = sum(1 for mult in enumerate_partitions(n) if sum(mult) % 2 == 0)
            assert identity_p_2tt(1, n) == even_length

    def test_negative_argument_convention(self):
        # identity sums must drop negative arguments, matching p(n) = 0 there
        assert identity_p_tt(5, 3) == partition_count(3)


FAMILIES = [
    (support_p_tt, genfun_p_tt, identity_p_tt),
    (support_p_2tt, genfun_p_2tt, identity_p_2tt),
]


class TestSupportRoutes:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.integers(1, 12), st.integers(0, 400), st.data())
    def test_convolution_and_identity_equal_the_genfun(self, t, order, data):
        n = data.draw(st.integers(0, order))
        for support, genfun, identity in FAMILIES:
            series = genfun(t, order)
            assert list(partition_convolution_rows(support(t, order), order)) == series
            assert identity(t, n) == series[n]

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.integers(1, 12), st.integers(0, 3000))
    def test_identity_is_one_coefficient_of_the_convolution(self, t, n):
        # two readings of the p(n) table that share no loop: one table entry
        # per support term, and one shifted copy of the table per term
        for support, _, identity in FAMILIES:
            assert identity(t, n) == list(partition_convolution_rows(support(t, n), n))[n]

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(st.integers(-5, 0), st.integers(0, 400))
    def test_nonpositive_t_raises_on_every_route(self, t, n):
        for _, genfun, identity in FAMILIES:
            with pytest.raises(ValueError):
                genfun(t, n)
            with pytest.raises(ValueError):
                identity(t, n)

    @pytest.mark.parametrize("route", [genfun_p_tt, genfun_p_2tt, identity_p_tt, identity_p_2tt])
    @pytest.mark.parametrize("t", [True, 1.0, 2.0])
    def test_t_that_is_not_an_int_raises_on_every_route(self, route, t):
        # True would answer as t = 1; a float fails in isqrt with a TypeError
        with pytest.raises(ValueError, match=rf"t must be an int \(got {t!r}\)"):
            route(t, 5)

    def test_genfun_checks_t_before_the_inversion(self, monkeypatch):
        def refuse(order):
            raise AssertionError("the product was inverted before t was checked")

        monkeypatch.setattr("mexparts.mex.partition_generating_series", refuse)
        for _, genfun, _ in FAMILIES:
            with pytest.raises(ValueError, match="t must be positive"):
                genfun(0, 20_000)

    def test_genfun_does_not_read_the_table(self, monkeypatch, capsys):
        # thm1 compares the genfun route with the table route that identity
        # and compute read, and the parity bridge and the eta form compare it
        # with genfun_singular, also on the table (oracle-check compares the
        # walk with compute); a corrupted p(n) table entry must reach identity
        # and compute and never the genfun, or those checks would share the
        # code path they check
        order, t, bad = 120, 2, 100
        partition_count(order)
        corrupted = list(partitions._p_table)
        corrupted[bad] += 1
        monkeypatch.setattr(partitions, "_p_table", corrupted)
        partition_generating_series.cache_clear()
        try:
            inverted = pochhammer_inf(1, 1, order).invert()
            for (support, genfun, identity), name in zip(FAMILIES, ("p_tt", "p_2tt")):
                series = genfun(t, order)
                assert series == list((inverted * TruncatedSeries.from_terms(support(t, order), order)).coeffs)
                # the support's constant term +1 carries the corruption to n = bad
                assert identity(t, bad) == series[bad] + 1
                assert main(["compute", name, "--t", str(t), "--n-max", str(order)]) == 0
                row = json.loads(capsys.readouterr().out.splitlines()[bad])
                assert int(row["value"]) == series[bad] + 1
        finally:
            partition_generating_series.cache_clear()
