"""A tour of the basic objects: the mex statistic, the counting functions,
and the three independent routes to the same numbers.

Run: python demos/worked_examples.py
"""

from mexparts import (
    MexParams,
    SingularParams,
    enumerate_partitions,
    genfun_p_tt,
    genfun_singular,
    identity_p_tt,
    mex_count_oracle,
    partition_count,
    singular_overpartition_oracle,
)

# --- the mex statistic ------------------------------------------------------
# mex_{A,a}(lambda) is the smallest positive integer congruent to a (mod A)
# that is not a part of lambda.  Tabulate it for the partitions of 5 with
# (A, a) = (2, 2): the smallest missing even number.  The walk yields each
# partition as one list of multiplicities, mult[v] the number of parts
# equal to v, so the mex is the first v == a (mod A) with mult[v] == 0; the
# parts are rebuilt from mult, and the rows sorted, for printing.

n, params = 5, MexParams(2, 2)
rows = []
for mult in enumerate_partitions(n):
    v = params.a
    while v <= n and mult[v]:
        v += params.A
    rows.append((tuple(part for part in range(n, 0, -1) for _ in range(mult[part])), v))
print("partitions of 5 and their mex values for (A, a) = (2, 2):")
for parts, value in sorted(rows, reverse=True):
    marker = "  <- counted (mex == 2 mod 4)" if value % 4 == 2 else ""
    print(f"  {'+'.join(map(str, parts)):>12}   mex = {value}{marker}")

# p_{2,2}(5) counts the partitions whose mex is 2 mod 4: four of the seven.
# The oracle returns p_{2,2}(n) for every n <= 5 from that one walk of 5: a
# partition with parts above 1 totalling s gives, with n - s ones in place
# of its 1's, one partition of each n >= s, and here the mex never looks at
# the 1's.
print("\np_{2,2}(n) for n = 0..5 from one walk of 5:", mex_count_oracle(5, params))
print("p_{2,2}(5) three ways:")
print("  enumeration oracle :", mex_count_oracle(5, params)[5])
print("  generating function:", genfun_p_tt(2, 5)[5])
print("  partition identity :", identity_p_tt(2, 5))

# --- the identity in ordinary partition numbers ----------------------------
# p_{t,t}(n) = p(n) + sum_r p(n - t r(2r+1)) - sum_s p(n - t s(2s-1)).
# At t = 1, n = 10 the surviving terms are visible by hand:
n = 10
terms = [
    ("p(10)", partition_count(10)),
    ("+ p(7)", partition_count(7)),
    ("+ p(0)", partition_count(0)),
    ("- p(9)", -partition_count(9)),
    ("- p(4)", -partition_count(4)),
]
print(f"\np_(1,1)(10) = {' '.join(t for t, _ in terms)} = {sum(v for _, v in terms)}")
assert sum(v for _, v in terms) == identity_p_tt(1, 10)

# --- singular overpartitions ------------------------------------------------
# C(3,1; 4) = 10: partitions of 4 with no part divisible by 3, where parts
# congruent to 1 or 2 (mod 3) may carry one overline on their first copy.
print("\nC(3,1; 4) counted two ways:")
print("  enumeration oracle :", singular_overpartition_oracle(4, SingularParams(3, 1))[4])
print("  generating function:", genfun_singular(SingularParams(3, 1), 4)[4])

# the ten objects, written out
print("""  the ten objects:
    4   4'   2+2   2'+2   2+1+1   2'+1+1   2+1'+1   2'+1'+1   1+1+1+1   1'+1+1+1""")
