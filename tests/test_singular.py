"""Singular overpartition counts: enumeration oracle against the series,
and the triple-product series against the three-product reference route."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mexparts import partitions, singular
from mexparts.partitions import partition_generating_series, restricted_count
from mexparts.series import FUNCTIONS, TruncatedSeries, pochhammer_inf
from mexparts.singular import (
    SingularParams,
    genfun_singular,
    singular_overpartition_oracle,
)
from partition_reference import neg_pochhammer_inf, partitions_of


class TestParams:
    def test_valid(self):
        assert SingularParams(3, 1).overline_residues == frozenset({1, 2})
        assert SingularParams(4, 2).self_paired
        assert not SingularParams(8, 2).self_paired

    def test_invalid(self):
        with pytest.raises(ValueError, match="k must be at least 3, got 2"):
            SingularParams(2, 1)
        with pytest.raises(ValueError, match=r"1 <= i <= floor\(k/2\) = 2, got 3"):
            SingularParams(4, 3)
        with pytest.raises(ValueError, match=r"1 <= i <= floor\(k/2\) = 2, got 0"):
            SingularParams(5, 0)

    @pytest.mark.parametrize("k, i", [(4.0, 1), (True + 3, True), (5, 2.0), (12, 3.0)])
    def test_fields_that_are_not_ints_are_refused(self, k, i):
        # the oracle answered for k = 4.0, and i = True passes 1 <= i <= k // 2
        with pytest.raises(ValueError, match=r"(k|i) must be an int \(got "):
            SingularParams(k, i)

    def test_frozen_values(self):
        params = SingularParams(12, 3)
        with pytest.raises(AttributeError):
            params.i = 4
        assert params == SingularParams(k=12, i=3) and hash(params) == hash(SingularParams(k=12, i=3))
        assert params != SingularParams(12, 5)
        assert repr(params) == "SingularParams(k=12, i=3)"


class TestOracle:
    def test_worked_example(self):
        # the ten objects for (3, 1) at n = 4:
        # 4, 4', 2+2, 2'+2, 2+1+1, 2'+1+1, 2+1'+1, 2'+1'+1, 1+1+1+1, 1'+1+1+1
        assert singular_overpartition_oracle(4, SingularParams(3, 1))[4] == 10

    def test_empty(self):
        assert singular_overpartition_oracle(0, SingularParams(5, 2)) == [1]

    def test_n1_41(self):
        # {1} and {1 overlined}
        assert singular_overpartition_oracle(1, SingularParams(4, 1)) == [1, 2]

    def test_no_part_divisible_by_k(self):
        # for (3,1) at n = 3: partitions avoiding multiples of 3 are
        # 2+1 (both overlineable: factor 4) and 1+1+1 (factor 2)
        assert singular_overpartition_oracle(3, SingularParams(3, 1))[3] == 6

    def test_bound(self):
        with pytest.raises(ValueError, match="limited to n <= 50"):
            singular_overpartition_oracle(51, SingularParams(3, 1))

    def test_bound_checked_before_enumerating(self, monkeypatch):
        def fail(n, sizes):
            raise AssertionError("enumerated past the bound")

        monkeypatch.setattr("mexparts.singular._walk_multiplicities", fail)
        with pytest.raises(ValueError, match="limited to n <= 50"):
            singular_overpartition_oracle(51, SingularParams(3, 1))
        with pytest.raises(ValueError, match="n must be non-negative"):
            singular_overpartition_oracle(-1, SingularParams(3, 1))

    @pytest.mark.parametrize("k,i,n", [(3, 1, 0), (5, 2, 20), (6, 3, 30)])
    def test_visits_each_partition_without_a_multiple_of_k_once(self, monkeypatch, k, i, n):
        # the walk leaves out the part 2, so it visits once each such
        # partition that has no part 2: 147 at (5, 2, 20), 1 160 at (6, 3, 30)
        nodes = []

        def counting_walk(n, sizes):
            for mult in partitions._walk_multiplicities(n, sizes):
                nodes.append(None)
                yield mult

        monkeypatch.setattr("mexparts.singular._walk_multiplicities", counting_walk)
        singular_overpartition_oracle(n, SingularParams(k, i))
        sizes = [v for v in range(1, n + 1) if v % k]
        assert len(nodes) == restricted_count(n, [v for v in sizes if v != 2])


class TestSeries:
    def test_worked_example(self):
        assert genfun_singular(SingularParams(3, 1), 4)[4] == 10

    def test_constant_term(self):
        for k, i in ((3, 1), (4, 2), (12, 3)):
            assert genfun_singular(SingularParams(k, i), 0) == [1]

    @pytest.mark.parametrize("order", [0, 1, 17])
    def test_returns_a_list_of_order_plus_one_ints(self, order):
        values = genfun_singular(SingularParams(4, 2), order)
        assert type(values) is list and len(values) == order + 1
        assert all(type(value) is int for value in values)

    def test_answers_with_the_product_inversion_forbidden(self, monkeypatch):
        # the parity bridge and the eta form compare this route with
        # genfun_p_tt, which inverts (q;q)_inf; this one must not, or the
        # two sides would share the code path they check
        def forbidden(*args):
            raise AssertionError("genfun_singular inverted a series")

        params = SingularParams(8, 2)
        expected = product_form_singular(params, 300)
        monkeypatch.setattr(TruncatedSeries, "invert", forbidden)
        for module in (partitions, singular):
            monkeypatch.setattr(module, "partition_generating_series", forbidden, raising=False)
        assert genfun_singular(params, 300) == expected

    def test_41_matches_oracle_to_20(self):
        series = genfun_singular(SingularParams(4, 1), 20)
        assert series == singular_overpartition_oracle(20, SingularParams(4, 1))


@pytest.mark.parametrize("k,i", [(3, 1), (4, 1), (8, 2), (12, 3), (20, 5), (28, 7)])
def test_oracle_series_equivalence(k, i):
    params = SingularParams(k, i)
    series = genfun_singular(params, 30)
    assert series == singular_overpartition_oracle(30, params)


def test_self_paired_regression_42():
    # i = k - i: the overline factor appears squared in the product, so a
    # value in that class contributes 3 ways when it occurs once (plain, or
    # overlined via either slot) and 4 ways when it occurs twice or more.
    params = SingularParams(4, 2)
    series = genfun_singular(params, 20)
    assert series == singular_overpartition_oracle(20, params)
    # pin the first nontrivial value: 2, 2', 2'' and 1+1
    assert singular_overpartition_oracle(2, params)[2] == 4


def reference_singular_oracle(n, params):
    """Reference route for the oracle: the recursive reference enumeration
    of all partitions of n, a multiple of k giving weight 0 and every
    overlineable value present giving 2, or 3 once and 4 repeated when k = 2i."""
    k, residues = params.k, params.overline_residues
    total = 0
    for parts in partitions_of(n):
        if any(v % k == 0 for v in parts):
            continue
        seen_once, seen_twice = set(), set()
        for v in parts:
            if v % k in residues:
                if v in seen_once:
                    seen_twice.add(v)
                seen_once.add(v)
        if params.self_paired:
            total += 3 ** (len(seen_once) - len(seen_twice)) * 4 ** len(seen_twice)
        else:
            total += 2 ** len(seen_once)
    return total


@pytest.mark.parametrize("k,i", [(k, i) for k in range(3, 9) for i in range(1, k // 2 + 1)])
def test_oracle_matches_the_enumeration_reference(k, i):
    # every n <= 30, so a sample is not needed; (4, 2), (6, 3) and (8, 4)
    # are self-paired.  n_max <= 4 ends on runs of one and two 2's, and no 2
    # fits at n_max = 0
    params = SingularParams(k, i)
    expected = [reference_singular_oracle(n, params) for n in range(31)]
    for n_max in (0, 1, 2, 3, 4, 30):
        assert singular_overpartition_oracle(n_max, params) == expected[: n_max + 1]


@st.composite
def singular_params(draw):
    k = draw(st.integers(min_value=3, max_value=12))
    return SingularParams(k, draw(st.integers(min_value=1, max_value=k // 2)))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    st.integers(min_value=0, max_value=18),
    singular_params(),
    st.integers(min_value=3, max_value=12),
    st.integers(min_value=2, max_value=6).map(lambda i: SingularParams(2 * i, i)),
)
def test_every_item_matches_the_enumeration_reference(n_max, params, k, self_paired):
    # one walk of n_max groups each partition of n by its parts above 1; the
    # 1's double the weight only for i = 1, and k = 2i squares the factors
    for case in (params, SingularParams(k, 1), self_paired):
        expected = [reference_singular_oracle(n, case) for n in range(n_max + 1)]
        assert singular_overpartition_oracle(n_max, case) == expected


def product_form_singular(params, order):
    """Reference route: (q^k;q^k)(-q^i;q^k)(-q^(k-i);q^k) / (q;q) built from
    three Pochhammer products, dense multiplication and the inverted Euler
    product, sharing no code with the p(n) table or the theta support; item n
    is C(k, i; n)."""
    k, i = params.k, params.i
    product = pochhammer_inf(k, k, order) * neg_pochhammer_inf(i, k, order)
    product = product * neg_pochhammer_inf(k - i, k, order)
    return list((product * partition_generating_series(order)).coeffs)


@pytest.mark.parametrize(
    "k,i", [(k, i) for k in range(3, 13) for i in range(1, k // 2 + 1)]
)
def test_triple_product_matches_product_form_to_600(k, i):
    params = SingularParams(k, i)
    assert genfun_singular(params, 600) == product_form_singular(params, 600)


def test_table_bound_is_refused_before_the_support_is_built(monkeypatch):
    params, build, name = FUNCTIONS["singular"]

    def spy(k, i, limit):
        assert limit <= partitions.P_TABLE_BOUND, "support built past the table bound"
        return build(k, i, limit)

    monkeypatch.setitem(FUNCTIONS, "singular", (params, spy, name))
    with pytest.raises(ValueError, match=rf"limited to n <= {partitions.P_TABLE_BOUND} \(got {10**12}\)"):
        genfun_singular(SingularParams(3, 1), 10**12)
    assert genfun_singular(SingularParams(3, 1), 4) == singular_overpartition_oracle(4, SingularParams(3, 1))


def test_series_rejects_negative_order():
    with pytest.raises(ValueError):
        genfun_singular(SingularParams(4, 1), -1)
