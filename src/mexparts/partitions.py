"""Counting and exhaustive enumeration of partitions.

``partition_count`` serves p(n) from a process-wide table that grows by
blocks of ``_P_TABLE_BLOCK`` entries; the table is filled by inverting the
Euler product (q;q)_inf over its pentagonal-number support.  Within a block,
every pentagonal lag at least the block's length reads only entries known
before the block, so it is added to the whole block in one slice pass; only
the few shorter lags run per n.  The exact big-integer table to n = 5*10^4
costs about 1.1 * n^1.5 additions, mostly in those slice passes.
``partition_convolution_rows`` reads the same table to divide any sparse
theta support by (q;q)_inf, streaming coefficient n of (sum c q^e) / (q;q)_inf,
sum c * p(n - e), in blocks; ``partition_convolution`` is their list.
``partition_residue_table(m, limit)`` runs the same blocks modulo m on one
array('I') per modulus, each long lag one addition of 32-bit fields, so the
sweeps need no big p(n); a modulus too wide for those fields reduces the
exact table.  No table grows past ``P_TABLE_BOUND``; a request beyond it
raises at the call.
``partition_parity_convolution`` gives the same quotient modulo 2 as one
Python int, bit n the parity of coefficient n, from a second process-wide
bitset of p(n) mod 2 that needs no exact p(n).  Over GF(2),
(q^2;q^2)_inf^2 == (q^4;q^4)_inf, so 1/(q;q)_inf == psi(q) / (q^4;q^4)_inf
with psi(q) = (q^2;q^2)_inf^2 / (q;q)_inf = sum q^(j(j+1)/2): the parities
known to L give those to 4L + 3 by spreading the known bits four apart and
XOR-ing one shifted copy per triangular exponent.  The bitset to 5*10^4
takes about 2 ms, the exact table to the same n about 0.75 s (2-vCPU Xeon,
Python 3.11); the bitset does not grow past ``P_PARITY_BOUND`` either.
``partition_generating_series`` stays the independent product-inversion
route, so tests that compare it with the table compare two sources of p(n).
``enumerate_partitions`` visits each partition of n once through
``_walk_multiplicities``, which yields one shared list of part
multiplicities, changed in place, so no tuple or set is built per
partition; the singular oracle walks the same way over a subset of part
sizes.  One walk of n holds every partition of every m <= n once (see
``enumerate_partitions``), so the oracles count all m <= n from it.  The
test suite checks the walk, and the oracles on it, against a plain
recursive enumeration of tuples.
``restricted_counts(n_max, sizes)`` counts the partitions of every n <= n_max
into parts from an iterable of sizes, one geometric series per size, without
enumerating, and ``restricted_count(n, sizes)`` is its item n.
"""

from __future__ import annotations

import sys
import threading
from functools import lru_cache
from itertools import accumulate
from operator import add, itemgetter, sub
from typing import Iterable, Iterator, MutableSequence, Sequence

from .series import TruncatedSeries, _require_ints, _require_size, pochhammer_inf, support_p_tt, theta_support

__all__ = [
    "partition_count",
    "enumerate_partitions",
    "restricted_count",
    "restricted_counts",
    "partition_generating_series",
    "partition_convolution",
    "partition_convolution_rows",
    "partition_residue_table",
    "partition_parity_convolution",
]


# ---------------------------------------------------------------------------
# p(n) table
# ---------------------------------------------------------------------------

_table_lock = threading.Lock()
_p_table: list[int] = [1]
_P_TABLE_BLOCK = 512  # entries filled per block, and the least growth step
P_TABLE_BOUND = 100_000  # the exact table to here takes about 3 s and 15 MiB
_P_TABLE_LIMITED = "p(n) tables are limited to n <="


# nonzero terms of (q;q)_inf = sum_{m in Z} (-1)^m q^(m(3m-1)/2) to the bound,
# the constant term left out for the recurrence: 516 lags
_EULER_LAGS = theta_support(3, 1, P_TABLE_BOUND, alternating=True)[1:]


def _pentagonal_blocks(table: MutableSequence[int], limit: int):
    # p(n) = -sum_e sign(e) p(n - e) over the pentagonal lags e of _EULER_LAGS,
    # filled in blocks [n0, n0 + size) up to the limit; the caller appends each
    # block before the next.  A lag e >= size reads only entries from before
    # the block: yielded as (e, sign, lo), with p(n - e) = 0 for n < n0 + lo,
    # for one pass over the block.  A shorter lag reads table[-e] = p(n - e)
    # per n as the table grows, through one getter per sign in p(n); index 0
    # on both sides cancels and keeps each getter's result a tuple.  A block
    # is never longer than n0, so every shorter lag is at most n and blocks
    # ramp up 1, 1, 2, 4, ... to the full length in a fresh table.
    while (n0 := len(table)) <= limit:
        size = min(_P_TABLE_BLOCK, n0, limit + 1 - n0)
        lags, plus, minus = [], [], []
        for e, sign in _EULER_LAGS:
            if e < size:
                (minus if sign > 0 else plus).append(-e)
            elif e < n0 + size:
                lags.append((e, sign, max(0, e - n0)))
            else:
                break
        pad = [0] * max(0, 2 - len(plus), 2 - len(minus))
        yield n0, size, lags, itemgetter(*plus, *pad), itemgetter(*minus, *pad)


def _grow_p_table(needed: int) -> None:
    # _pentagonal_blocks on the exact table, each long lag one slice pass over
    # the block, to the request or by min(len - 1, _P_TABLE_BLOCK) entries,
    # whichever is further: lengths 2^j + 1, then 1 + m * _P_TABLE_BLOCK; no
    # growth passes P_TABLE_BOUND.
    _require_size("n", needed, P_TABLE_BOUND, _P_TABLE_LIMITED)
    with _table_lock:
        table = _p_table
        if needed < len(table):
            return
        limit = max(needed, min(len(table) + min(_P_TABLE_BLOCK, len(table) - 1) - 1, P_TABLE_BOUND))
        for n0, size, lags, get_plus, get_minus in _pentagonal_blocks(table, limit):
            acc = [0] * size
            for e, sign, lo in lags:
                lag, op = table[n0 + lo - e : n0 + size - e], sub if sign > 0 else add
                if lo:
                    acc[lo:] = map(op, acc[lo:], lag)
                else:  # the lag covers the block: no copy of acc
                    acc = list(map(op, acc, lag))
            for s in acc:  # s += (plus - minus), or one append of this sum, raised compute p's peak RSS
                s = s + sum(get_plus(table)) - sum(get_minus(table))
                table.append(s)


def partition_count(n: int) -> int:
    """p(n); zero for negative n, p(0) = 1.

    The table extension is the inversion recurrence for (q;q)_inf restricted
    to its nonzero (pentagonal) terms; tests pin it against the dense
    series inversion.
    """
    _require_ints(n=n)
    if n < 0:
        return 0
    if n >= len(_p_table):
        _grow_p_table(n)
    return _p_table[n]


@lru_cache(maxsize=8)
def partition_generating_series(order: int) -> TruncatedSeries:
    """1/(q;q)_inf truncated: coefficient n is p(n).

    Built by inverting the Euler product, not from the p(n) table, so the
    table and this series check each other.
    """
    return pochhammer_inf(1, 1, order).invert()


def partition_convolution(support: Iterable[tuple[int, int]], order: int) -> list[int]:
    """Coefficients 0 .. ``order`` of (sum c q^e) / (q;q)_inf, for a sparse
    support of (exponent, coefficient) pairs: item n is sum c * p(n - e).
    The list of ``partition_convolution_rows``; no series is built."""
    return list(partition_convolution_rows(support, order))


def partition_convolution_rows(support: Iterable[tuple[int, int]], order: int) -> Iterator[int]:
    """Coefficients 0 .. ``order`` of (sum c q^e) / (q;q)_inf, yielded in
    blocks of ``_P_TABLE_BLOCK``, each the sum of one scaled slice of the p(n)
    table per support term, so the cost is (terms) x (order) additions and
    no per-n list is held.  Exponents past the order are dropped; repeated
    exponents add up.  A negative order or exponent, or an order past
    ``P_TABLE_BOUND``, raises at the call, before the table grows.
    """
    _require_size("truncation order", order)
    terms = [(e, c) for e, c in support if e <= order]
    if any(e < 0 for e, _ in terms):
        raise ValueError("negative exponent in a power series")
    _grow_p_table(order)
    return _convolution_blocks(terms, order)


def _convolution_blocks(terms: list[tuple[int, int]], order: int) -> Iterator[int]:
    for n0 in range(0, order + 1, _P_TABLE_BLOCK):
        n1 = min(n0 + _P_TABLE_BLOCK, order + 1)
        acc = [0] * (n1 - n0)
        for e, c in terms:
            if e < n1:  # item n of the block gains c * p(n - e), for n >= e
                lo, lag = max(e - n0, 0), _p_table[max(n0 - e, 0) : n1 - e]
                if c in (1, -1):
                    acc[lo:] = map(add if c == 1 else sub, acc[lo:], lag)
                else:
                    acc[lo:] = [x + c * y for x, y in zip(acc[lo:], lag)]
        yield from acc


# ---------------------------------------------------------------------------
# p(n) mod m tables
# ---------------------------------------------------------------------------

_p_residues: dict[int, MutableSequence[int]] = {}  # m -> p(n) mod m, one array('I') per modulus


def partition_residue_table(m: int, limit: int) -> list[int]:
    """p(n) mod m for every n <= limit, from a process-wide table per modulus
    (see ``_residue_table``), as a list of its own."""
    return list(_residue_table(m, limit)[: limit + 1])


def _residue_table(m: int, limit: int) -> Sequence[int]:
    """p(n) mod m at item n, for every n <= limit at least: the process-wide
    table itself, read in place and never to be written, or a list.

    ``_grow_p_table``'s blocks modulo m.  For m <= 4 161 791 (516 lags to
    ``P_TABLE_BOUND``, 516 * (m - 1) < 2^31) the table is one array('I'):
    each long lag is one int of the block's 32-bit fields, with 2^31 in
    every field so that no field's signed sum borrows from the next.  A wider
    modulus keeps no table of its own: it reduces the exact table, grown to
    the limit.  Arguments that are not ints, or out of range, raise before
    any table is made or grown.
    """
    _require_size("modulus", m, least=2)  # 7.0 would key the table of 7
    _require_size("limit", limit, P_TABLE_BOUND, _P_TABLE_LIMITED)
    half = 1 << 31
    if len(_EULER_LAGS) * (m - 1) >= half:
        _grow_p_table(limit)
        return [v % m for v in _p_table[: limit + 1]]
    from array import array  # loaded only here: it adds about 0.06 MiB to a process's peak RSS
    with _table_lock:
        residues = _p_residues.setdefault(m, array("I", [1]))
        for n0, size, lags, get_plus, get_minus in _pentagonal_blocks(residues, limit):
            acc = int.from_bytes(array("I", [half]) * size, sys.byteorder)
            for e, sign, lo in lags:
                lag = int.from_bytes(residues[n0 + lo - e : n0 + size - e], sys.byteorder) << 32 * lo
                acc = acc - lag if sign > 0 else acc + lag
            for s in array("I", acc.to_bytes(4 * size, sys.byteorder)):
                residues.append((s - half + sum(get_plus(residues)) - sum(get_minus(residues))) % m)
        return residues


# ---------------------------------------------------------------------------
# p(n) mod 2 bitset
# ---------------------------------------------------------------------------

_p_parity = 1  # bit n is p(n) mod 2, for n < _p_parity_len
_p_parity_len = 1
P_PARITY_BOUND = 4_000_000  # the bitset to here takes about 1 s and 28 MiB


def _grow_p_parity(limit: int) -> None:
    # 1/(q;q)_inf == psi(q) * (1/(q;q)_inf)(q^4) (mod 2): the parities known
    # to L, spread four apart, are the second factor to 4L + 3, and psi's
    # exponents are the triangular numbers, the support of p_{1,1}
    global _p_parity, _p_parity_len
    _require_size("limit", limit, P_PARITY_BOUND, "the p(n) mod 2 bitset is limited to n <=")
    with _table_lock:
        bits, known = _p_parity, _p_parity_len - 1
        while known < limit:
            known = min(4 * known + 3, limit)
            mask = (1 << (known // 4 + 1)) - 1
            spread = int("000".join(f"{bits & mask:b}"), 2)  # bit j moves to bit 4j
            bits = 0
            for e, _ in support_p_tt(1, known):
                bits ^= spread << e
            bits &= (1 << (known + 1)) - 1
        _p_parity, _p_parity_len = bits, known + 1


def partition_parity_convolution(support: Iterable[tuple[int, int]], limit: int) -> int:
    """(sum c q^e) / (q;q)_inf modulo 2 up to q^limit, as one int whose bit n
    is the parity of coefficient n, sum c * p(n - e).

    XORs one shifted copy of the p(n) mod 2 bitset per term with an odd
    coefficient; terms with even coefficients and exponents past the limit
    drop out.  Reads no exact p(n); a negative exponent raises before growth.
    """
    support = list(support)
    if any(e < 0 for e, _ in support):
        raise ValueError("negative exponent in a power series")
    _grow_p_parity(limit)
    mask = (1 << (limit + 1)) - 1
    parity = _p_parity & mask
    out = 0
    for e, c in support:
        if e <= limit and c % 2:
            out ^= parity << e
    return out & mask


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

ENUMERATION_BOUND = 60  # p(60) = 966 467 partitions; exponential beyond


def enumerate_partitions(n: int) -> Iterator[list[int]]:
    """Visit every partition of n once, as one shared list of multiplicities.

    ``mult[v]`` is the number of parts equal to v, for 0 <= v <= n + 1; the
    same list is yielded each time and changed in place between yields, so
    copy it to keep a partition.  The all-1's partition comes first; then
    the parts above 1, taken in non-increasing order, grow depth first, the
    largest next part first: 1+1+1+1, 4, 3+1, 2+1+1, 2+2 for n = 4.
    The parts above 1 of the nodes run through every multiset with total
    s <= n once, so the node's parts with j ones in place of ``mult[1]``
    give every partition of every m <= n once, at j = m - s.
    A negative n, or n past ``ENUMERATION_BOUND``, raises at the call,
    before anything is yielded.
    """
    _require_size("n", n, ENUMERATION_BOUND, "enumeration is limited to n <=")
    return _walk_multiplicities(n, range(1, n + 1))


def _walk_multiplicities(n: int, sizes: Iterable[int]) -> Iterator[list[int]]:
    # every partition of n with parts in sizes (1 among them) exactly once, as
    # one shared list mult, mult[v] the multiplicity of v, changed in place
    # between yields: depth first over the parts above 1 in non-increasing
    # order with total at most n, and the rest of n is the multiplicity of 1
    big = sorted({v for v in sizes if 1 < v <= n}, reverse=True) or [n + 1]  # n + 1 never fits
    fits = [sum(v > rest for v in big) for rest in range(n + 1)]  # first big[j] <= rest
    last, least = len(big) - 1, big[-1]
    mult = [0] * (n + 2)  # mult[1] exists for n = 0 too
    mult[1] = rest = n
    stack, j = [], 0  # the indices into big of the parts above the least, non-decreasing
    yield mult
    while True:
        if fits[rest] > j:
            j = fits[rest]
        if j < last:  # descend by the largest part that fits
            stack.append(j)
            mult[big[j]] += 1
            rest -= big[j]
            mult[1] = rest
            yield mult
            continue
        if j == last:  # nothing goes after the least part: add it while it fits
            for c in range(1, rest // least + 1):
                mult[least] = c
                mult[1] = rest - c * least
                yield mult
            mult[least] = 0
        if not stack:
            return
        j = stack.pop()  # back up to the next smaller part at the deepest level
        mult[big[j]] -= 1
        rest += big[j]
        j += 1


def _stride2_prefix(tally: list[int]) -> None:
    # in place: item s becomes the sum of items s, s - 2, s - 4, ...
    tally[0::2], tally[1::2] = accumulate(tally[0::2]), accumulate(tally[1::2])


# ---------------------------------------------------------------------------
# restricted counts
# ---------------------------------------------------------------------------

def restricted_counts(n_max: int, sizes: Iterable[int]) -> list[int]:
    """Item n, for n <= n_max, is the number of partitions of n whose parts
    all lie in ``sizes``: coefficient n of prod_{v in sizes} 1/(1 - q^v),
    from one table that takes one geometric factor per size; a repeated size
    counts once, and sizes above n_max add nothing.
    """
    _require_size("n", n_max)
    sizes = list(sizes)
    for v in sizes:  # True would count as the part 1
        _require_size("part sizes", v, least=1)
    table = [1] + [0] * n_max
    for v in set(sizes):
        for m in range(v, n_max + 1):
            table[m] += table[m - v]
    return table


def restricted_count(n: int, sizes: Iterable[int]) -> int:
    """Number of partitions of n whose parts all lie in ``sizes``."""
    return restricted_counts(n, sizes)[n]
