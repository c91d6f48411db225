"""Congruence sweeps: the classical progressions, their transfer to the mex
families, the prime-indexed parity families, and a deliberately broken claim.

Run: python demos/congruence_tour.py
"""

from mexparts import (
    ProgressionSpec,
    check_progression,
    delta,
    family_catalog,
    smallest_prime_with_symbol,
)

# --- the classical progressions and their transfer --------------------------
# p(5n+4) == 0 (mod 5) and friends; the offsets are 24^{-1} mod p^k.
for p, k in ((5, 1), (7, 1), (11, 1), (5, 2)):
    offset = delta(p, k)
    report = check_progression(ProgressionSpec("p", p**k, offset, p**k), 300)
    print(f"p({p**k}n+{offset}) == 0 mod {p**k}: {'pass' if report.passed else 'FAIL'} "
          f"({report.checked} values)")

# The same progressions vanish for the mex families with scaled parameters.
print()
for spec in family_catalog("ramanujan", p=5, k=1, t=3):
    report = check_progression(spec, 200)
    print(f"{report.label}: {'pass' if report.passed else 'FAIL'} ({report.checked} values)")

# --- prime-indexed parity families ------------------------------------------
# Several mod-2 families are gated by a quadratic-residue hypothesis; the
# catalog rejects primes that fail it, and sweeps confirm the rest.
p = smallest_prime_with_symbol(-10)
print(f"\nsmallest prime with (-10/p) = -1: {p}")
for j in (1, p - 1):
    (spec,) = family_catalog("thm13", p=p, alpha=0, j=j)
    report = check_progression(spec, 80)
    print(f"{report.label}: {'pass' if report.passed else 'FAIL'} ({report.checked} values)")

# --- a negative control ------------------------------------------------------
# Shift the Ramanujan offset by one and the harness must catch it.
broken = ProgressionSpec("p", 5, delta(5, 1) + 1, 5)
report = check_progression(broken, 100)
print(f"\nbroken claim {report.label}:")
print(f"  passed = {report.passed}, {report.failure_count} counterexamples, first: "
      f"{report.failures[0]}")
assert not report.passed
