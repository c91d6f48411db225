"""The mex statistic on partitions and the counting functions built on it.

The mex of a partition for ``MexParams(A, a)`` is the smallest positive
integer congruent to a (mod A) that does not occur as a part.  ``p_Aa(n)``
counts partitions of n whose mex lands in the residue a (mod 2A); the
enumeration oracle computes it definitionally for any (A, a).
``mex_counts_oracle`` tallies any number of (A, a) in one pass over the
partitions of n, and ``mex_count_oracle`` is its one-parameter case.  The
pass reads the mex off the multiplicity lists of ``enumerate_partitions``;
the tests check it against a recursive enumeration of tuples that shares
no code with the walk.  The (t, t) and (2t, t)
families also have a generating-function route and a closed expression in
ordinary partition numbers:

    sum p_tt(n) q^n  = (1/(q;q)_inf) * sum_{n>=0} (-1)^n q^(t n(n+1)/2)
    sum p_2tt(n) q^n = (1/(q;q)_inf) * sum_{n>=0} (-1)^n q^(t n^2)

    p_tt(t, n)  = p(n) + sum_{r>=1} p(n - t r(2r+1)) - sum_{s>=1} p(n - t s(2s-1))
    p_2tt(t, n) = p(n) + sum_{r>=1} p(n - 4t r^2)    - sum_{s>=1} p(n - t(2s-1)^2)

with p(m) = 0 for negative m.  ``series.support_p_tt`` and ``support_p_2tt``
list the two alternating sums as (exponent, +-1) terms.  ``genfun_p_*``
multiply them by 1/(q;q)_inf built by product inversion, never from the
p(n) table; ``identity_p_*`` take one signed sum of p(n - e) over the
support from the table, and ``compute p_tt|p_2tt`` convolves the support
with the table (``partitions.partition_convolution``).  The routes agree
with each other and with the enumeration oracle; the test suite pins it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .partitions import enumerate_partitions, partition_generating_series, partition_support_sum
from .series import TruncatedSeries, alternating_squares, alternating_triangular, support_p_2tt, support_p_tt

__all__ = [
    "MexParams",
    "mex_count_oracle",
    "mex_counts_oracle",
    "genfun_p_tt",
    "genfun_p_2tt",
    "identity_p_tt",
    "identity_p_2tt",
    "MEX_ORACLE_BOUND",
]

MEX_ORACLE_BOUND = 60


@dataclass(frozen=True)
class MexParams:
    """Residue a modulo A defining which arithmetic progression the mex runs over."""

    A: int
    a: int

    def __post_init__(self):
        if self.A < 1:
            raise ValueError("A must be positive")
        if not 1 <= self.a <= self.A:
            raise ValueError("a must satisfy 1 <= a <= A")


def mex_counts_oracle(n: int, params_seq: Sequence[MexParams]) -> tuple[int, ...]:
    """For each (A, a) in ``params_seq``, count partitions of n with
    mex == a (mod 2A), in one walk over the partitions of n.

    Exponential in n; refuses n beyond the documented bound before
    enumerating anything rather than silently grinding.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > MEX_ORACLE_BOUND:
        raise ValueError(
            f"the mex oracle is enumeration-backed and limited to n <= {MEX_ORACLE_BOUND}"
        )
    # 1 <= a <= A, so a is already the least residue of a (mod 2A)
    slots = [(j, p.A, p.a, 2 * p.A) for j, p in enumerate(params_seq)]
    tally = [0] * len(slots)
    for mult in enumerate_partitions(n):
        for j, A, a, period in slots:
            v = a
            while v <= n and mult[v]:
                v += A
            if v % period == a:
                tally[j] += 1
    return tuple(tally)


def mex_count_oracle(n: int, params: MexParams) -> int:
    """Count partitions of n with mex == a (mod 2A), by full enumeration."""
    return mex_counts_oracle(n, (params,))[0]


def genfun_p_tt(t: int, order: int) -> TruncatedSeries:
    """Series whose coefficient of q^n is p_{t,t}(n), by product inversion."""
    return alternating_triangular(t, order) * partition_generating_series(order)  # t checked first


def genfun_p_2tt(t: int, order: int) -> TruncatedSeries:
    """Series whose coefficient of q^n is p_{2t,t}(n), by product inversion."""
    return alternating_squares(t, order) * partition_generating_series(order)  # t checked first


def identity_p_tt(t: int, n: int) -> int:
    """p_{t,t}(n) from ordinary partition numbers: a signed sum over the support."""
    return partition_support_sum(support_p_tt(t, n), n)


def identity_p_2tt(t: int, n: int) -> int:
    """p_{2t,t}(n) from ordinary partition numbers: a signed sum over the support."""
    return partition_support_sum(support_p_2tt(t, n), n)
