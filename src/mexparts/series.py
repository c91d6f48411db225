"""Exact truncated power series in q with arbitrary-precision integer coefficients.

A :class:`TruncatedSeries` stores coefficients of q^0 .. q^N for a fixed
truncation order N.  It keeps the arithmetic of product inversion: products,
inverses and (q^a; q^b)_inf, all exact; a product truncates to the smaller
order; ``from_terms`` and ``pochhammer_inf`` refuse an order past
``SERIES_ORDER_BOUND`` at the call.  Callers read ``coeffs``, item n the
coefficient of q^n.
Every module checks its integer arguments with the two guards here, before
any work: ``_require_ints`` refuses a value whose type is not exactly int
(a bool or a float included), and ``_require_size`` also refuses a value
below its ``least`` (0 by default: "must be non-negative"; "positive" at 1;
"at least {least}" above) and one past an optional bound.
The module also provides the infinite product and the sparse sums that
partition generating functions are assembled from:

    pochhammer_inf(a, b, N)   (q^a; q^b)_inf = prod_{j>=0} (1 - q^(a+jb))
    support_p_tt(t, N)        sum_{n>=0} (-1)^n q^(t n(n+1)/2)
    support_p_2tt(t, N)       sum_{n>=0} (-1)^n q^(t n^2)

The two supports list the nonzero terms of their alternating sums as sparse
(exponent, +-1) pairs, the numerators of p_{t,t} and p_{2t,t} over
(q;q)_inf; ``TruncatedSeries.from_terms(support, N)`` is the series.  Every
support refuses a limit past ``SUPPORT_BOUND``, the largest a route reads.

``theta_support(k, i, N)`` lists the nonzero terms of the two-sided theta
sum of the Jacobi triple product,

    sum_{m in Z} s^m q^(k m(m-1)/2 + i m)
        = (q^k; q^k)_inf (-s q^i; q^k)_inf (-s q^(k-i); q^k)_inf,   s = +-1,

as sparse (exponent, coefficient) pairs.  With s = -1 and (k, i) = (3, 1) it
is Euler's pentagonal support of (q; q)_inf; with s = +1 it is the numerator
of Andrews' singular overpartition series.

``FUNCTIONS`` maps each function id (p, p_tt, p_2tt, singular) to its
parameter names, its support above and its display name.
"""

from __future__ import annotations

from itertools import accumulate, cycle
from math import isqrt
from typing import Iterable, Sequence

from . import _EXPORTS

__all__ = list(_EXPORTS["series"])

SERIES_ORDER_BOUND = 10_000  # inverting (q;q)_inf to here takes about 2.7 s
SUPPORT_BOUND = 4_000_000  # the largest support limit a route reads, partitions.P_PARITY_BOUND


def _require_ints(prefix: str = "", **values) -> None:
    for key, value in values.items():  # a bool would pass as 0 or 1, a float fail or key a table late
        if type(value) is not int:
            raise ValueError(f"{prefix}{key} must be an int (got {value!r})")


def _require_size(name: str, value: int, bound: int | None = None, limited: str = "", least: int = 0) -> None:
    _require_ints(**{name: value})
    if value < least:
        raise ValueError(f"{name} must be " + {0: "non-negative", 1: "positive"}.get(least, f"at least {least}"))
    if bound is not None and value > bound:
        try:
            got = f"{value}"
        except ValueError:  # past sys.get_int_max_str_digits(), 4 300 by default
            got = "an int too long to print"
        raise ValueError(f"{limited} {bound} (got {got})")


class TruncatedSeries:
    """An exact formal power series known through order ``trunc_order``."""

    __slots__ = ("trunc_order", "coeffs")

    def __init__(self, coeffs: Sequence[int]):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("a series needs at least the constant coefficient")
        if set(map(type, coeffs)) != {int}:  # int() would truncate a float, parse a str
            bad = next(c for c in coeffs if type(c) is not int)
            raise ValueError(f"series coefficients must be ints (got {bad!r})")
        self.coeffs = coeffs
        self.trunc_order = len(coeffs) - 1

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[int, int]], order: int) -> "TruncatedSeries":
        """Build a series from (exponent, coefficient) pairs; exponents beyond
        the order are dropped, repeated exponents accumulate."""
        _require_size("truncation order", order, SERIES_ORDER_BOUND, "series orders are limited to")
        c = [0] * (order + 1)
        for e, v in terms:
            if e < 0:
                raise ValueError("negative exponent in a power series")
            if e <= order:
                c[e] += v
        return cls(c)

    def _nonzero_count(self, upto: int) -> int:
        return sum(1 for c in self.coeffs[: upto + 1] if c)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Cauchy product, truncated at the smaller order.

        Schoolbook convolution, but terms with a zero coefficient contribute
        nothing and are skipped; products against sparse theta series and
        eta-type products stay cheap because of this.
        """
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = min(self.trunc_order, other.trunc_order)
        a, b = self.coeffs, other.coeffs
        if self._nonzero_count(n) > other._nonzero_count(n):
            a, b = b, a
        out = [0] * (n + 1)
        for j in range(n + 1):
            aj = a[j]
            if not aj:
                continue
            seg = n + 1 - j
            if aj == 1:
                out[j:] = [x + y for x, y in zip(out[j:], b[:seg])]
            elif aj == -1:
                out[j:] = [x - y for x, y in zip(out[j:], b[:seg])]
            else:
                out[j:] = [x + aj * y for x, y in zip(out[j:], b[:seg])]
        return TruncatedSeries(out)

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse at the same order.

        Requires constant term +1 or -1 (the only integer units); the
        coefficients follow the recurrence b[n] = -a[0] * sum_{j>=1} a[j] b[n-j].
        """
        a0 = self.coeffs[0]
        if a0 not in (1, -1):
            raise ValueError(f"cannot invert a series with constant term {a0} over the integers")
        n_max = self.trunc_order
        support = [(j, aj) for j, aj in enumerate(self.coeffs) if j and aj]
        b = [0] * (n_max + 1)
        b[0] = a0
        for n in range(1, n_max + 1):
            s = 0
            for j, aj in support:
                if j > n:
                    break
                s += aj * b[n - j]
            b[n] = -a0 * s
        return TruncatedSeries(b)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.coeffs == other.coeffs


def pochhammer_inf(a: int, b: int, order: int) -> TruncatedSeries:
    """(q^a; q^b)_inf truncated: only factors with a + j*b <= order matter."""
    # prod over e = a, a+b, a+2b, ... <= order of (1 - q^e); each factor is
    # one slice update, and the comprehension reads the old coefficients
    # before the slice is overwritten
    _require_size("a", a, least=1)
    _require_size("b", b, least=1)
    _require_size("truncation order", order, SERIES_ORDER_BOUND, "series orders are limited to")
    c = [1] + [0] * order
    for e in range(a, order + 1, b):
        c[e:] = [x - y for x, y in zip(c[e:], c)]
    return TruncatedSeries(c)


_product_of_binomials = pochhammer_inf  # perfbench/traced.py wraps this object under every name it has


def _support_length(t: int, limit: int, largest_index) -> int:
    # the number of terms n = 0, 1, ... whose exponent t * f(n) is at most the
    # limit, where largest_index(m) is the largest n with f(n) <= m
    _require_size("t", t, least=1)
    _require_size("support limit", limit, SUPPORT_BOUND, "supports are limited to exponents <=")
    return largest_index(limit // t) + 1


def support_p_tt(t: int, limit: int) -> list[tuple[int, int]]:
    """Terms (exponent, coefficient) of sum_{n>=0} (-1)^n q^(t n(n+1)/2) with
    exponent <= limit, sorted by exponent: the numerator of p_{t,t}."""
    count = _support_length(t, limit, lambda m: (isqrt(8 * m + 1) - 1) // 2)
    # t n(n+1)/2 is the running sum of t j over j = 0 .. n
    return list(zip(accumulate(range(0, t * count, t)), cycle((1, -1))))


def support_p_2tt(t: int, limit: int) -> list[tuple[int, int]]:
    """Terms (exponent, coefficient) of sum_{n>=0} (-1)^n q^(t n^2) with
    exponent <= limit, sorted by exponent: the numerator of p_{2t,t}."""
    count = _support_length(t, limit, isqrt)
    # t n^2 is the running sum of t (2j - 1) over j = 1 .. n
    return list(zip(accumulate(range(t, t * (2 * count - 1), 2 * t), initial=0), cycle((1, -1))))


def theta_support(k: int, i: int, limit: int, alternating: bool = False) -> list[tuple[int, int]]:
    """Terms (exponent, coefficient) of sum_{m in Z} s^m q^(k m(m-1)/2 + i m)
    with exponent <= limit, sorted by exponent; s = -1 if ``alternating``.

    Both branches m >= 0 and m < 0 increase strictly, so each loop stops at
    the first exponent past the limit.  Repeated exponents add up: when
    k = 2i the terms m and -m meet at i m^2, which carries 2 s^m.  A
    negative limit gives no terms; one past ``SUPPORT_BOUND`` raises.
    """
    _require_ints(k=k, i=i, limit=limit)
    if k < 2 or not 0 < i < k:
        raise ValueError("theta support needs k >= 2 and 0 < i < k")
    _require_size("support limit", max(limit, 0), SUPPORT_BOUND, "supports are limited to exponents <=")
    terms: dict[int, int] = {}
    for m, step in ((0, 1), (-1, -1)):
        while (e := k * m * (m - 1) // 2 + i * m) <= limit:
            terms[e] = terms.get(e, 0) + (-1 if alternating and m % 2 else 1)
            m += step
    return sorted(terms.items())


# function id -> (its parameters among t, k, i; its numerator over (q;q)_inf
# as (exponent, coefficient) terms, support(*values, limit); its display
# name, name(*values)); the self-paired singular case k = 2i has coefficients 2.
# ``compute``, ``oracle-check`` and ``congruences.ProgressionSpec`` read it
FUNCTIONS = {
    "p": ((), lambda limit: [(0, 1)], lambda: "p"),
    "p_tt": (("t",), support_p_tt, lambda t: f"p[{t},{t}]"),
    "p_2tt": (("t",), support_p_2tt, lambda t: f"p[{2 * t},{t}]"),
    "singular": (("k", "i"), theta_support, lambda k, i: f"C[{k},{i}]"),
}
