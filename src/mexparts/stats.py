"""Rank and crank statistics, and the classical identities tying the small
mex families to them.

rank(lambda)  = largest part - number of parts
crank(lambda) = largest part if no part equals 1; otherwise
                (number of parts larger than omega) - omega, where omega is
                the number of 1's.

``verify_section1_identities`` sweeps five identities, with each side
computed by an independent route (closed-form partition sums on the left,
direct enumeration or restricted counting on the right; the restricted
counts of (d) and (e) take the part sizes in the listed classes):

  (a) p_{1,1}(n) = number of partitions of n with crank >= 0
  (b) p_{3,3}(n) = number of partitions of n with rank >= -1
  (c) p_{2,1}(n) = number of partitions of n with an even number of parts
  (d) p_{4,2}(n) - po(n) = partitions of n into parts == +-4, +-6, +-8, +-10 (mod 32)
  (e) p_{6,3}(n) - po(n) = partitions of n into parts == +-2, +-4, +-5, +-6, +-7, +-8 (mod 24)

where po(n) is the number of partitions of n with an odd number of parts.
n = 0 is excluded: rank and crank are undefined for the empty partition.
Every n <= n_max is read from one convolution with the p(n) table per left
side (``partition_convolution``, which builds no series),
one restricted-count table per residue set and one walk of n_max.  A node
of that walk has parts above 1 with total s, count c and largest part b;
with j ones it is one partition of n = s + j, and for j >= 1 (j >= 0 when
c > 0) each statistic holds on one range of j:

  rank >= -1   iff j <= b - c + 1, or j <= 2 when c = 0 (largest part 1);
  crank >= 0   iff j = 0, or #{parts > j} >= j, which holds up to some J;
  even length  iff j == c (mod 2), so each parity takes every other n.

The tests check those counts against rank and crank by their definitions,
one partition at a time.
"""

from __future__ import annotations

from itertools import accumulate

from .partitions import _stride2_prefix, enumerate_partitions, partition_convolution, restricted_counts
from .reports import VerificationReport
from .series import _require_size, support_p_2tt, support_p_tt

__all__ = ["verify_section1_identities"]


def _restricted(n_max: int, modulus: int, residues: tuple[int, ...]) -> list[int]:
    # partitions of each n <= n_max into parts == +-r (mod modulus), r in residues
    sizes = [v for v in range(1, n_max + 1) if v % modulus in residues or -v % modulus in residues]
    return restricted_counts(n_max, sizes)


def _section1_counts(n_max: int) -> tuple[list[int], ...]:
    # item n, for n <= n_max, of the counts of partitions of n with crank >= 0,
    # with rank >= -1, and with an even and an odd number of parts: each node
    # adds one range of n per statistic to a difference array, and the
    # parities, which alternate in n up to n_max, add stride-2 starts; the
    # node with no part above 1 starts at n = 1, so a start can reach n_max + 2
    crank, rank = [0] * (n_max + 3), [0] * (n_max + 3)
    parity_starts = [[0] * (n_max + 3), [0] * (n_max + 3)]  # even, odd
    for mult in enumerate_partitions(n_max):
        ones = mult[1]
        s, count = n_max - ones, sum(mult) - ones
        if count:
            largest = s - 2 * count + 2  # the other parts above 1 are at least 2
            while not mult[largest]:
                largest -= 1
            durfee = 0  # J: #{parts > j} = count - #{parts in 2..j} >= j up to j = J
            while count - sum(mult[2 : durfee + 2]) > durfee:
                durfee += 1
            first, ranges = s, [(crank, min(durfee, ones)), (rank, min(largest - count + 1, ones))]
        else:  # only 1's: no j = 0, no crank >= 0, and rank 1 - j
            first, ranges = 1, [(rank, min(2, ones))]
        for diff, top in ranges:
            if first <= s + top:
                diff[first] += 1
                diff[s + top + 1] -= 1
        parity = (count + first - s) % 2
        parity_starts[parity][first] += 1
        parity_starts[1 - parity][first + 1] += 1
    for starts in parity_starts:
        _stride2_prefix(starts)
    crank, rank = accumulate(crank[: n_max + 1]), accumulate(rank[: n_max + 1])
    return list(crank), list(rank), *(starts[: n_max + 1] for starts in parity_starts)


def verify_section1_identities(n_max: int) -> VerificationReport:
    """Check identities (a)-(e) for every n in [1, n_max]; see module docstring."""
    _require_size("n_max", n_max, 40, "the identities are checked by enumeration, limited to n_max <=", least=1)
    report = VerificationReport(
        label="combinatorial-identities",
        metadata={"n_max": n_max, "identities": ["crank", "rank", "even-length", "mod32", "mod24"]},
    )
    crank_nonneg, rank_ge_minus1, even_length, odd_length = _section1_counts(n_max)
    p11, p33, p21, p42, p63 = (
        partition_convolution(support(t, n_max), n_max)
        for support, t in ((support_p_tt, 1), (support_p_tt, 3), (support_p_2tt, 1),
                           (support_p_2tt, 2), (support_p_2tt, 3))
    )
    mod32, mod24 = _restricted(n_max, 32, (4, 6, 8, 10)), _restricted(n_max, 24, (2, 4, 5, 6, 7, 8))
    for n in range(1, n_max + 1):
        checks = (
            ("crank", p11[n], crank_nonneg[n]),
            ("rank", p33[n], rank_ge_minus1[n]),
            ("even-length", p21[n], even_length[n]),
            ("mod32", p42[n] - odd_length[n], mod32[n]),
            ("mod24", p63[n] - odd_length[n], mod24[n]),
        )
        for identity, lhs, rhs in checks:
            report.check(lhs == rhs, identity=identity, n=n, lhs=lhs, rhs=rhs)
    return report
