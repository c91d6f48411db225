"""The mex statistic on partitions and the counting functions built on it.

The mex of a partition for ``MexParams(A, a)`` is the smallest positive
integer congruent to a (mod A) that does not occur as a part.  ``p_Aa(n)``
counts partitions of n whose mex lands in the residue a (mod 2A); the
enumeration oracle computes it definitionally for any (A, a).
``mex_counts_oracle(n_max, params_seq)`` tallies any number of (A, a) for
every n <= n_max in one walk over the partitions of n_max, a list each, and
``mex_count_oracle`` is its one-parameter case.  A node of that walk is a
multiset of parts above 1 with total s <= n_max, and with j ones it is one
partition of s + j, so each partition of each n <= n_max is one (node, n)
pair with n >= s.  For a >= 2 the mex never looks at the 1's, so one mex
serves every n >= s; for a = 1 the partition of s itself has no 1's and
mex 1, and every n > s takes the mex from 1 + A upward.  The walk reads one
mex per run of 2's off the multiplicity lists of ``enumerate_partitions``;
the tests check every item against a recursive enumeration of tuples that
shares no code with the walk.  The (t, t) and (2t, t) families also have a
generating-function route and a closed expression in ordinary partition
numbers:

    sum p_tt(n) q^n  = (1/(q;q)_inf) * sum_{n>=0} (-1)^n q^(t n(n+1)/2)
    sum p_2tt(n) q^n = (1/(q;q)_inf) * sum_{n>=0} (-1)^n q^(t n^2)

    p_tt(t, n)  = p(n) + sum_{r>=1} p(n - t r(2r+1)) - sum_{s>=1} p(n - t s(2s-1))
    p_2tt(t, n) = p(n) + sum_{r>=1} p(n - 4t r^2)    - sum_{s>=1} p(n - t(2s-1)^2)

with p(m) = 0 for negative m.  ``series.support_p_tt`` and ``support_p_2tt``
list the two alternating sums as (exponent, +-1) terms.  ``genfun_p_*``
multiply each support's series by 1/(q;q)_inf built by product inversion,
never from the p(n) table; ``identity_p_*`` take the sum above as written,
one ``partition_count`` per term; thm1 and ``compute p_tt|p_2tt`` read every
n <= n_max from one list, the support convolved with the table
(``partitions.partition_convolution``).  Every route that answers for each
n <= n_max returns a list whose item n is the value at n.  The routes agree
with each other and with the enumeration oracle; the test suite pins it.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from itertools import accumulate
from operator import add

from .partitions import _stride2_prefix, enumerate_partitions, partition_count, partition_generating_series
from .series import TruncatedSeries, _require_ints, _require_size, support_p_2tt, support_p_tt

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


class MexParams(namedtuple("MexParams", "A a")):
    """Residue a modulo A defining which arithmetic progression the mex runs over."""

    __slots__ = ()

    def __new__(cls, A: int, a: int):
        self = super().__new__(cls, A, a)
        _require_ints(**self._asdict())  # a bool or float would walk as 1/0 or fail mid-walk
        if A < 1:
            raise ValueError("A must be positive")
        if not 1 <= a <= A:
            raise ValueError("a must satisfy 1 <= a <= A")
        return self


def mex_counts_oracle(n_max: int, params_seq: Sequence[MexParams]) -> list[list[int]]:
    """One list per (A, a) in ``params_seq``, in order: item n, for
    0 <= n <= n_max, counts the partitions of n with mex == a (mod 2A); every
    list comes from one walk over the partitions of n_max.

    Exponential in n_max; refuses n_max beyond the documented bound before
    enumerating anything rather than silently grinding.
    """
    _require_size("n", n_max, MEX_ORACLE_BOUND, "the mex oracle is enumeration-backed and limited to n <=")
    # a run's first node (one 2, total s) counts at s, s + 2, ... from slot
    # size + s, one add per hit where stride-2 differences would take two;
    # mult[0] == 0 stands in for mult[2], missing when n_max = 0
    size, two = n_max + 1, 2 if n_max else 0
    # per (A, a): hits by slot, A, a and 2A; 1 <= a <= A, so a is already the
    # least residue of a (mod 2A)
    slots = [([0] * 2 * size, p.A, p.a, 2 * p.A) for p in params_seq]
    nodes = [0] * 2 * size  # nodes by slot
    for mult in enumerate_partitions(n_max):
        if mult[two] > 1:  # the same distinct parts as its run's first node
            continue
        at = n_max - mult[1] + size * mult[two]
        nodes[at] += 1
        for hits, A, a, period in slots:
            v = a
            while v <= n_max and mult[v]:
                v += A
            if v % period == a:
                hits[at] += 1
    for tally in (nodes, *(hits for hits, *_ in slots)):  # fold the starts into slots 0 .. n_max
        _stride2_prefix(starts := tally[size:])
        tally[:] = map(add, tally[:size], starts)
    # a >= 2: the mex never reads mult[1], so a hit at s counts for every
    # n >= s.  a = 1: mult[1] = n_max - s is nonzero for every s < n_max, also
    # along a run, so a hit at s counts for every n > s, and the partition of
    # n with no 1's has mex 1 and counts at n.
    return [
        list(accumulate(hits))
        if a > 1
        else [b + c for b, c in zip(nodes, accumulate(hits, initial=0))]
        for hits, _, a, _ in slots
    ]


def mex_count_oracle(n_max: int, params: MexParams) -> list[int]:
    """Item n, for 0 <= n <= n_max, counts partitions of n with
    mex == a (mod 2A), by full enumeration of the partitions of n_max."""
    return mex_counts_oracle(n_max, (params,))[0]


def _over_inverse(support, t: int, order: int) -> list[int]:
    if t < 1:  # t first; the inverse then refuses an order past the series bound before the support
        raise ValueError("t must be positive")
    inverse = partition_generating_series(order)
    return list((inverse * TruncatedSeries.from_terms(support(t, order), order)).coeffs)


def genfun_p_tt(t: int, order: int) -> list[int]:
    """Item n, for 0 <= n <= order, is p_{t,t}(n), by product inversion."""
    return _over_inverse(support_p_tt, t, order)


def genfun_p_2tt(t: int, order: int) -> list[int]:
    """Item n, for 0 <= n <= order, is p_{2t,t}(n), by product inversion."""
    return _over_inverse(support_p_2tt, t, order)


def _signed_sum(support, t: int, n: int) -> int:
    if t < 1:
        raise ValueError("t must be positive")
    partition_count(n)  # grown first: past the table's bound, no support is built
    return sum(c * partition_count(n - e) for e, c in support(t, n))


def identity_p_tt(t: int, n: int) -> int:
    """p_{t,t}(n) from ordinary partition numbers: a signed sum over the support."""
    return _signed_sum(support_p_tt, t, n)


def identity_p_2tt(t: int, n: int) -> int:
    """p_{2t,t}(n) from ordinary partition numbers: a signed sum over the support."""
    return _signed_sum(support_p_2tt, t, n)
