"""Truncated series arithmetic and the named products."""

import random
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mexparts.mex import genfun_p_2tt, genfun_p_tt
from mexparts.series import (
    SERIES_ORDER_BOUND,
    TruncatedSeries,
    _product_of_binomials,
    pochhammer_inf,
    support_p_2tt,
    support_p_tt,
    theta_support,
)
from partition_reference import neg_pochhammer_inf


def S(*coeffs):
    return TruncatedSeries(coeffs)


def series_of_support(support, t, order):
    return TruncatedSeries.from_terms(support(t, order), order)


def psi(t, order):
    # Ramanujan's psi(q^t) = sum_{n>=0} q^(t n(n+1)/2): the (t,t) support unsigned
    return TruncatedSeries.from_terms(((e, 1) for e, _ in support_p_tt(t, order)), order)


def one(order):
    return TruncatedSeries.from_terms([(0, 1)], order)


class TestArithmetic:
    def test_mul_telescoping(self):
        # (1-q)(1+q+q^2+q^3) = 1 - q^4, and q^4 falls off at order 3
        assert S(1, -1, 0, 0) * S(1, 1, 1, 1) == S(1, 0, 0, 0)

    def test_mul_truncates_to_min_order(self):
        assert (S(1, -1) * S(1, 1, 1, 1)).coeffs == (1, 0)

    def test_mul_identity(self):
        s = S(2, 0, -5, 1)
        assert s * one(3) == s

    def test_mul_binomial_square(self):
        assert S(1, 1, 0) * S(1, 1, 0) == S(1, 2, 1)

    def test_mul_commutative_associative_random(self):
        rng = random.Random(7)
        for _ in range(40):
            a = TruncatedSeries([rng.randint(-5, 5) for _ in range(9)])
            b = TruncatedSeries([rng.randint(-5, 5) for _ in range(9)])
            c = TruncatedSeries([rng.randint(-5, 5) for _ in range(9)])
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)

    def test_invert_geometric(self):
        assert S(1, -1, 0, 0, 0).invert() == S(1, 1, 1, 1, 1)

    def test_invert_alternating(self):
        assert S(1, 1, 0, 0).invert() == S(1, -1, 1, -1)

    def test_invert_euler_product_gives_partition_numbers(self):
        assert pochhammer_inf(1, 1, 5).invert() == S(1, 1, 2, 3, 5, 7)

    def test_invert_requires_unit_constant(self):
        with pytest.raises(ValueError, match="cannot invert a series with constant term 2"):
            S(2, 1).invert()
        with pytest.raises(ValueError, match="cannot invert a series with constant term 0"):
            S(0, 1).invert()

    def test_mul_inverse_roundtrip_random(self):
        rng = random.Random(13)
        for _ in range(30):
            coeffs = [rng.choice((1, -1))] + [rng.randint(-4, 4) for _ in range(12)]
            s = TruncatedSeries(coeffs)
            assert s * s.invert() == one(12)


class TestProducts:
    def test_pochhammer_euler(self):
        assert pochhammer_inf(1, 1, 5) == S(1, -1, -1, 0, 0, 1)

    def test_pochhammer_empty_product(self):
        assert pochhammer_inf(3, 3, 2) == S(1, 0, 0)

    def test_pochhammer_two_factors(self):
        assert pochhammer_inf(2, 4, 6) == S(1, 0, -1, 0, 0, 0, -1)

    def test_neg_pochhammer(self):
        assert neg_pochhammer_inf(1, 4, 5) == S(1, 1, 0, 0, 0, 1)
        assert neg_pochhammer_inf(7, 7, 6) == one(6)
        assert neg_pochhammer_inf(1, 1, 3) == S(1, 1, 1, 2)

    def test_pochhammer_validation(self):
        with pytest.raises(ValueError):
            pochhammer_inf(0, 1, 5)
        with pytest.raises(ValueError):
            pochhammer_inf(1, 0, 5)

    def test_alternating_triangular(self):
        assert series_of_support(support_p_tt, 1, 10) == S(1, -1, 0, 1, 0, 0, -1, 0, 0, 0, 1)
        assert series_of_support(support_p_tt, 3, 8) == S(1, 0, 0, -1, 0, 0, 0, 0, 0)
        assert series_of_support(support_p_tt, 1, 0) == S(1)

    def test_alternating_squares(self):
        assert series_of_support(support_p_2tt, 1, 9) == S(1, -1, 0, 0, 1, 0, 0, 0, 0, -1)
        assert series_of_support(support_p_2tt, 2, 7) == S(1, 0, -1, 0, 0, 0, 0, 0)
        assert series_of_support(support_p_2tt, 5, 4) == S(1, 0, 0, 0, 0)

    def test_psi_values(self):
        assert psi(1, 6) == S(1, 1, 0, 1, 0, 0, 1)
        assert psi(2, 6) == S(1, 0, 1, 0, 0, 0, 1)

    def test_psi_product_form(self):
        # psi(q) = (q^2;q^2)_inf^2 / (q;q)_inf
        n = 200
        product = (pochhammer_inf(2, 2, n) * pochhammer_inf(2, 2, n)) * pochhammer_inf(
            1, 1, n
        ).invert()
        assert psi(1, n) == product


class TestSeriesOrderBound:
    # an order no list could hold is refused with the bound, not a MemoryError
    @pytest.mark.parametrize("order", [SERIES_ORDER_BOUND + 1, 10**18])
    @pytest.mark.parametrize(
        "build",
        [
            lambda order: TruncatedSeries.from_terms((), order),
            lambda order: one(order),
            lambda order: pochhammer_inf(1, 1, order),
        ],
        ids=["from_terms", "one", "pochhammer_inf"],
    )
    def test_refused_at_the_call(self, build, order):
        message = f"series orders are limited to {SERIES_ORDER_BOUND} .got {order}."
        with pytest.raises(ValueError, match=message):
            build(order)

    def test_the_bound_itself_is_built(self):
        series = TruncatedSeries.from_terms(support_p_tt(1, SERIES_ORDER_BOUND), SERIES_ORDER_BOUND)
        assert series.trunc_order == SERIES_ORDER_BOUND


class TestExactCoefficients:
    # a coefficient that is not an int is refused, not truncated or parsed
    @pytest.mark.parametrize(
        "build, bad",
        [
            (lambda: TruncatedSeries([1.5, 2.9]), "1.5"),
            (lambda: TruncatedSeries.from_terms([(0, 1), (2, 0.5)], 3), "0.5"),
            (lambda: TruncatedSeries(["7", "-2"]), "'7'"),
        ],
        ids=["floats", "from_terms", "strings"],
    )
    def test_non_int_coefficients_are_refused(self, build, bad):
        with pytest.raises(ValueError, match=f"must be ints \\(got {bad}\\)"):
            build()


class TestEulerInvariants:
    def test_partition_coefficients_positive_and_monotone(self):
        series = pochhammer_inf(1, 1, 200).invert()
        coeffs = series.coeffs
        assert all(c >= 1 for c in coeffs)
        assert all(coeffs[n] >= coeffs[n - 1] for n in range(2, 201))

    def test_mod2_eta_reduction_of_mex_series(self):
        # sum p_tt(n) q^n == (q^t;q^t)^3 / (q;q) mod 2
        from mexparts.mex import genfun_p_tt

        n = 200
        inv = pochhammer_inf(1, 1, n).invert()
        for t in (1, 2, 3, 5, 7):
            pt = pochhammer_inf(t, t, n)
            eta = (pt * pt) * (pt * inv)
            assert [c % 2 for c in genfun_p_tt(t, n)] == [c % 2 for c in eta.coeffs]


class TestThetaSupport:
    def test_euler_pentagonal_support(self):
        # (3, 1) with sign (-1)^m: 3m(m-1)/2 + m = m(3m-1)/2
        n = 300
        assert TruncatedSeries.from_terms(theta_support(3, 1, n, alternating=True), n) == (
            pochhammer_inf(1, 1, n)
        )
        assert theta_support(3, 1, 7, alternating=True) == [
            (0, 1), (1, -1), (2, -1), (5, 1), (7, 1)
        ]

    @pytest.mark.parametrize("k,i", [(3, 1), (4, 1), (4, 2), (5, 2), (7, 3), (12, 3), (12, 6)])
    @pytest.mark.parametrize("alternating", [False, True])
    def test_jacobi_triple_product(self, k, i, alternating):
        n = 200
        factor = pochhammer_inf if alternating else neg_pochhammer_inf
        product = _product_of_binomials(k, k, n) * factor(i, k, n) * factor(k - i, k, n)
        assert TruncatedSeries.from_terms(theta_support(k, i, n, alternating), n) == product

    def test_self_paired_multiplicity(self):
        assert theta_support(4, 2, 20) == [(0, 1), (2, 2), (8, 2), (18, 2)]
        assert theta_support(4, 2, 20, alternating=True) == [(0, 1), (2, -2), (8, 2), (18, -2)]

    def test_sorted_and_bounded(self):
        terms = theta_support(12, 3, 1000)
        exponents = [e for e, _ in terms]
        assert exponents == sorted(set(exponents))
        assert exponents[-1] <= 1000
        assert theta_support(5, 2, -1) == []

    def test_validation(self):
        for k, i in ((1, 0), (4, 0), (4, 4), (3, -1)):
            with pytest.raises(ValueError):
                theta_support(k, i, 10)


def closed_support_p_tt(t, limit):
    # p_tt(n) = p(n) + sum_{r>=1} p(n - t r(2r+1)) - sum_{s>=1} p(n - t s(2s-1))
    plus = [t * r * (2 * r + 1) for r in range(1, limit + 1)]
    minus = [t * s * (2 * s - 1) for s in range(1, limit + 1)]
    terms = [(0, 1)] + [(e, 1) for e in plus] + [(e, -1) for e in minus]
    return sorted((e, s) for e, s in terms if e <= limit)


def closed_support_p_2tt(t, limit):
    # p_2tt(n) = p(n) + sum_{r>=1} p(n - 4t r^2) - sum_{s>=1} p(n - t(2s-1)^2)
    plus = [4 * t * r * r for r in range(1, limit + 1)]
    minus = [t * (2 * s - 1) ** 2 for s in range(1, limit + 1)]
    terms = [(0, 1)] + [(e, 1) for e in plus] + [(e, -1) for e in minus]
    return sorted((e, s) for e, s in terms if e <= limit)


class TestMexSupports:
    def test_small_supports(self):
        assert support_p_tt(1, 10) == [(0, 1), (1, -1), (3, 1), (6, -1), (10, 1)]
        assert support_p_tt(3, 8) == [(0, 1), (3, -1)]
        assert support_p_2tt(1, 9) == [(0, 1), (1, -1), (4, 1), (9, -1)]
        assert support_p_2tt(2, 7) == [(0, 1), (2, -1)]
        assert support_p_tt(5, 0) == support_p_2tt(5, 4) == [(0, 1)]

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(st.integers(1, 12), st.integers(0, 400))
    def test_equal_the_closed_sums(self, t, limit):
        for support, closed in (
            (support_p_tt(t, limit), closed_support_p_tt(t, limit)),
            (support_p_2tt(t, limit), closed_support_p_2tt(t, limit)),
        ):
            assert support == closed
            exponents = [e for e, _ in support]
            assert exponents == sorted(set(exponents))
            assert exponents[-1] <= limit

    @pytest.mark.parametrize("t", range(1, 8))
    def test_the_bridge_numerators_share_their_exponents(self, t):
        # the paper's bridge at the numerator level: t T(n) for the (t, t)
        # support and t m(2m - 1), m in Z, for C(4t, t) are one set, the
        # triangular numbers being m(2m - 1) over all m; every coefficient
        # is odd, so mod 2 the two numerators are one series
        limit = 10_000
        mex, singular = support_p_tt(t, limit), theta_support(4 * t, t, limit)
        assert [e for e, _ in mex] == [e for e, _ in singular]
        assert all(c % 2 for _, c in mex + singular)

    @settings(derandomize=True, deadline=None, max_examples=50)
    @given(st.integers(1, 12), st.integers(0, 400))
    def test_series_are_the_supports(self, t, order):
        # each generating function is its support's series over (q;q)_inf
        euler = pochhammer_inf(1, 1, order)
        for genfun, support in ((genfun_p_tt, support_p_tt), (genfun_p_2tt, support_p_2tt)):
            assert TruncatedSeries(genfun(t, order)) * euler == series_of_support(support, t, order)

    @settings(derandomize=True, deadline=None, max_examples=50)
    @given(
        st.one_of(
            st.tuples(st.integers(-5, 0), st.integers(-5, 400)),
            st.tuples(st.integers(1, 12), st.integers(-400, -1)),
        )
    )
    def test_bad_arguments_raise(self, args):
        t, limit = args
        for support in (support_p_tt, support_p_2tt):
            with pytest.raises(ValueError):
                support(t, limit)


def series_of(max_order=10, bound=50):
    return st.lists(st.integers(-bound, bound), min_size=1, max_size=max_order + 1).map(
        TruncatedSeries
    )


class TestSeriesProperties:
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(series_of(), series_of(), series_of())
    def test_ring_laws(self, a, b, c):
        def add(x, y):  # coefficientwise, truncated to the smaller order
            return TruncatedSeries([u + v for u, v in zip(x.coeffs, y.coeffs)])

        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * add(b, c) == add(a * b, a * c)
        assert a * one(a.trunc_order) == a

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(st.sampled_from((1, -1)), st.lists(st.integers(-20, 20), max_size=15))
    def test_invert_round_trip(self, unit, tail):
        s = TruncatedSeries([unit, *tail])
        unit = one(s.trunc_order)
        assert s * s.invert() == unit
        assert s.invert() * s == unit
        assert s.invert().invert() == s

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(
        st.lists(st.tuples(st.integers(0, 30), st.integers(-9, 9)), max_size=25),
        st.integers(0, 20),
    )
    def test_from_terms_adds_repeats_and_drops_past_order(self, terms, order):
        expected = [sum(v for e, v in terms if e == n) for n in range(order + 1)]
        assert TruncatedSeries.from_terms(terms, order).coeffs == tuple(expected)

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(
        st.integers(1, 8), st.integers(1, 8), st.integers(0, 40), st.sampled_from((1, -1))
    )
    def test_product_of_binomials_matches_naive_product(self, a, b, order, sign):
        factors = [
            TruncatedSeries.from_terms([(0, 1), (e, sign)], order)
            for e in range(a, order + 1, b)
        ]
        naive = reduce(lambda x, y: x * y, factors, one(order))
        # sign +1 checks the reference (-q^a; q^b)_inf that the tests build on
        product = _product_of_binomials if sign < 0 else neg_pochhammer_inf
        assert product(a, b, order) == naive
