"""Parity structure: the mod-2 bridge between the mex families and singular
overpartitions, the eta-quotient reduction behind it, and the complete
parity characterizations it yields.

Run: python demos/parity_tour.py
"""

from mexparts import (
    TruncatedSeries,
    check_parity_bridge,
    check_parity_characterization,
    eta_form_mod2_report,
    genfun_p_tt,
    is_3np1_square,
    is_k3km1,
    pochhammer_inf,
    support_p_tt,
)

# --- the bridge ---------------------------------------------------------------
# p_{t,t}(n) and C(4t,t; n) agree mod 2 for every t and n.
for t in (1, 2, 3, 5, 7):
    report = check_parity_bridge(t, 400)
    print(f"p_({t},{t}) == C({4*t},{t}) mod 2 up to n=400: "
          f"{'pass' if report.passed else 'FAIL'}")

# Both collapse to the same eta-type product mod 2: (q^t;q^t)^3 / (q;q).
for t in (1, 3):
    report = eta_form_mod2_report(t, 300)
    print(f"mod-2 eta form at t={t} (order 300): {'pass' if report.passed else 'FAIL'}")

# --- the characterizations -----------------------------------------------------
# p_{1,1}(n) is odd exactly at n = k(3k-1), k ranging over all integers;
# p_{3,3}(n) is odd exactly when 3n+1 is a square.  Both transfer across the
# bridge to C(4,1) and C(12,3).
for which in ("p11", "p33"):
    report = check_parity_characterization(which, 800)
    print(f"parity characterization {which} up to n=800: "
          f"{'pass' if report.passed else 'FAIL'}")

# the first few odd positions, straight from the coefficients of the series
series = genfun_p_tt(1, 40)
odd_positions = [n for n in range(1, 41) if series[n] % 2]
print("\nodd positions of p_(1,1):", odd_positions)
print("k(3k-1) values:        ", [n for n in range(1, 41) if is_k3km1(n)])

series33 = genfun_p_tt(3, 40)
odd33 = [n for n in range(1, 41) if series33[n] % 2]
print("odd positions of p_(3,3):", odd33)
print("3n+1 square:            ", [n for n in range(1, 41) if is_3np1_square(n)])

# --- why the bridge works: the even part of the partition series ---------------
# Mod 2, psi(q^t) = (q^2t;q^2t)^2/(q^t;q^t) collapses to (q^t;q^t)^3, which is
# where both generating functions meet.  psi(q) = sum q^(n(n+1)/2) has the
# exponents of the (1,1) support with every sign +1.  Spot-check the identity:
n = 60
lhs = pochhammer_inf(2, 2, n) * pochhammer_inf(2, 2, n) * pochhammer_inf(1, 1, n).invert()
assert lhs == TruncatedSeries.from_terms(((e, 1) for e, _ in support_p_tt(1, n)), n)
print("\npsi(q) = (q^2;q^2)^2/(q;q) verified to order", n)
