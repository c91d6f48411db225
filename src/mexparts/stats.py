"""Rank and crank statistics, and the classical identities tying the small
mex families to them.

rank(lambda)  = largest part - number of parts
crank(lambda) = largest part if no part equals 1; otherwise
                (number of parts larger than omega) - omega, where omega is
                the number of 1's.

``verify_section1_identities`` sweeps five identities, with each side
computed by an independent route (closed-form partition sums on the left,
direct enumeration or restricted counting on the right; the restricted
counts of (d) and (e) take the part sizes up to n in the listed classes):

  (a) p_{1,1}(n) = number of partitions of n with crank >= 0
  (b) p_{3,3}(n) = number of partitions of n with rank >= -1
  (c) p_{2,1}(n) = number of partitions of n with an even number of parts
  (d) p_{4,2}(n) - po(n) = partitions of n into parts == +-4, +-6, +-8, +-10 (mod 32)
  (e) p_{6,3}(n) - po(n) = partitions of n into parts == +-2, +-4, +-5, +-6, +-7, +-8 (mod 24)

where po(n) is the number of partitions of n with an odd number of parts.
n = 0 is excluded: rank and crank are undefined for the empty partition.
The enumerated sides read length, rank and crank off the multiplicity
lists of ``enumerate_partitions``; the tests check those statistics
against their definitions on part tuples.
"""

from __future__ import annotations

from .mex import identity_p_2tt, identity_p_tt
from .partitions import enumerate_partitions, restricted_count
from .reports import VerificationReport

__all__ = ["verify_section1_identities"]

def _restricted(n: int, modulus: int, residues: tuple[int, ...]) -> int:
    # partitions of n into parts == +-r (mod modulus), r in residues
    sizes = [v for v in range(1, n + 1) if v % modulus in residues or -v % modulus in residues]
    return restricted_count(n, sizes)


def _length_rank_crank(mult: list[int]) -> tuple[int, int, int]:
    # number of parts, rank and crank of the partition of n whose part v
    # occurs mult[v] times, len(mult) == n + 2 as the walk yields it; the
    # largest part is at most n - (length - 1), so its search starts there
    length = sum(mult)
    if not length:
        raise ValueError("rank and crank are undefined for the empty partition")
    largest = len(mult) - 1 - length
    while not mult[largest]:
        largest -= 1
    ones = mult[1]
    crank = length - sum(mult[: ones + 1]) - ones if ones else largest
    return length, largest - length, crank


def verify_section1_identities(n_max: int) -> VerificationReport:
    """Check identities (a)-(e) for every n in [1, n_max]; see module docstring."""
    if not 1 <= n_max <= 40:
        raise ValueError("n_max must lie in [1, 40] (enumeration-bound)")
    report = VerificationReport(
        label="combinatorial-identities",
        metadata={"n_max": n_max, "identities": ["crank", "rank", "even-length", "mod32", "mod24"]},
    )
    for n in range(1, n_max + 1):
        crank_nonneg = rank_ge_minus1 = 0
        by_length_parity = [0, 0]
        for mult in enumerate_partitions(n):
            length, rank, crank = _length_rank_crank(mult)
            crank_nonneg += crank >= 0
            rank_ge_minus1 += rank >= -1
            by_length_parity[length % 2] += 1
        even_length, odd_length = by_length_parity
        checks = (
            ("crank", identity_p_tt(1, n), crank_nonneg),
            ("rank", identity_p_tt(3, n), rank_ge_minus1),
            ("even-length", identity_p_2tt(1, n), even_length),
            ("mod32", identity_p_2tt(2, n) - odd_length, _restricted(n, 32, (4, 6, 8, 10))),
            ("mod24", identity_p_2tt(3, n) - odd_length, _restricted(n, 24, (2, 4, 5, 6, 7, 8))),
        )
        for identity, lhs, rhs in checks:
            report.checked += 1
            if lhs != rhs:
                report.record_failure(identity=identity, n=n, lhs=lhs, rhs=rhs)
    return report
