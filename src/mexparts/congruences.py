"""Number-theoretic helpers and machine verification of congruence families.

The checkers here sweep arithmetic-progression claims of the form
f(a*n + b) == 0 (mod m) over n = 0, 1, ..., n_max (optionally skipping
indices divisible by a given prime), and parity characterizations of the
small mex families.

``family_catalog`` builds the progression claims of each named family.  A
family is one function of its parameters whose docstring states its step
and offset formula.  It validates its prime with ``_family_prime`` (prime,
least value, residue or Jacobi-symbol condition) and its other parameters
with ``_require``; every parity claim on p_{t,t} is made by ``_parity``,
which refuses an offset division that is not exact.

One loop, ``_sweep``, evaluates every progression for its three callers:
``check_progression``, ``check_conditional_parity`` and
``check_singular_mod8``.  Each value is a support sum: f is a sparse
numerator over (q;q)_inf (1 for p, the (t,t) and (2t,t) supports, the
singular theta support), taken once up to the sweep's largest argument.
Modulo 2 the whole quotient is one XOR of shifted copies of the p(n) mod 2
bitset, and each residue is one bit of it; for any other modulus each
residue is sum c * r(arg - e) modulo m, from the table r of p(n) mod m.
The parity characterizations read the same bitset and take an exact value
only for a failure record.  No series is built.  A report never silently
narrows a sweep; whatever was skipped (excluded index, argument cap) is
counted.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Callable

from .mex import genfun_p_tt
from .partitions import (
    partition_count,
    partition_generating_series,
    partition_parity_convolution,
    partition_residue_table,
)
from .reports import VerificationReport
from .series import _require_ints, _require_size, pochhammer_inf, support_p_2tt, support_p_tt, theta_support
from .singular import SingularParams, genfun_singular

__all__ = [
    "ARG_CAP",
    "FUNCTIONS",
    "jacobi_symbol",
    "delta",
    "is_prime",
    "smallest_prime_with_symbol",
    "is_k3km1",
    "is_3np1_square",
    "is_generalized_pentagonal",
    "is_triangular",
    "is_pent_plus_4pent",
    "is_2pent_plus_3tri",
    "ProgressionSpec",
    "check_progression",
    "family_catalog",
    "FAMILY_IDS",
    "check_parity_characterization",
    "check_conditional_parity",
    "check_parity_bridge",
    "eta_form_mod2_report",
    "check_singular_mod8",
]


# ---------------------------------------------------------------------------
# number theory
# ---------------------------------------------------------------------------

def jacobi_symbol(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive n; the Legendre symbol at primes."""
    if n <= 0 or n % 2 == 0:
        raise ValueError(f"Jacobi symbol needs an odd positive modulus, got {n}")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def delta(p: int, k: int) -> int:
    """24^{-1} mod p^k for p in {5, 7, 11}: the classical progression offsets."""
    if p not in (5, 7, 11):
        raise ValueError("delta is defined for p in {5, 7, 11}")
    if k < 1:
        raise ValueError("k must be positive")
    return pow(24, -1, p**k)


PRIMALITY_ENVELOPE = 10**6


def is_prime(x: int) -> bool:
    """Deterministic trial division; intended for x up to 10^6."""
    if x > PRIMALITY_ENVELOPE:
        raise ValueError(f"primality checks are bounded at {PRIMALITY_ENVELOPE}")
    if x < 2:
        return False
    if x % 2 == 0:
        return x == 2
    d = 3
    while d * d <= x:
        if x % d == 0:
            return False
        d += 2
    return True


def smallest_prime_with_symbol(value: int) -> int:
    """Smallest prime p >= 5 with (value/p) = -1.

    Searches that can never succeed are refused before the first candidate:
    (0/p) = 0 for every p, and a nonzero square has (v^2/p) in {0, 1}.  Any
    other value has such a prime, and ``is_prime`` bounds the search anyway.
    """
    if value == 0:
        raise ValueError("(0/p) = 0 for every prime p, never -1")
    if value > 0 and _is_square(value):
        raise ValueError(f"{value} is a perfect square, so ({value}/p) is never -1")
    p = 5
    while not (is_prime(p) and jacobi_symbol(value, p) == -1):
        p += 2
    return p


# ---------------------------------------------------------------------------
# representation predicates
# ---------------------------------------------------------------------------

def _is_square(v: int) -> bool:
    return v >= 0 and math.isqrt(v) ** 2 == v


def is_k3km1(x: int) -> bool:
    """True iff x = k(3k - 1) for some integer k (either sign, zero included),
    that is, x is twice a generalized pentagonal number."""
    return x % 2 == 0 and is_generalized_pentagonal(x // 2)


def is_3np1_square(n: int) -> bool:
    """True iff 3n + 1 is a perfect square."""
    return _is_square(3 * n + 1)


def is_generalized_pentagonal(x: int) -> bool:
    """True iff x = k(3k - 1)/2 for some integer k; includes 0 (k = 0)."""
    return _is_square(24 * x + 1)  # 24x + 1 = (6k - 1)^2: each root is odd and prime to 3, so is |6k - 1|


def is_triangular(x: int) -> bool:
    """True iff x = j(j + 1)/2 for some j >= 0; includes 0."""
    return _is_square(8 * x + 1)


def is_pent_plus_4pent(n: int) -> bool:
    """True iff n = x + 4y with x, y generalized pentagonal numbers."""
    for y, _ in theta_support(3, 1, n // 4):  # Euler's exponents m(3m - 1)/2
        if is_generalized_pentagonal(n - 4 * y):
            return True
    return False


def is_2pent_plus_3tri(n: int) -> bool:
    """True iff n = 2x + 3y with x generalized pentagonal and y triangular."""
    for x, _ in theta_support(3, 1, n // 2):
        rem = n - 2 * x
        if rem % 3 == 0 and is_triangular(rem // 3):
            return True
    return False


# ---------------------------------------------------------------------------
# progression claims
# ---------------------------------------------------------------------------

ARG_CAP = 50_000  # keep progression arguments at desk scale

# function id -> (its parameters among t, k, i; its numerator over (q;q)_inf
# as (exponent, coefficient) terms, support(*values, limit); its display
# name, name(*values)); the self-paired singular case k = 2i has coefficients 2
FUNCTIONS = {
    "p": ((), lambda limit: [(0, 1)], lambda: "p"),
    "p_tt": (("t",), support_p_tt, lambda t: f"p[{t},{t}]"),
    "p_2tt": (("t",), support_p_2tt, lambda t: f"p[{2 * t},{t}]"),
    "singular": (("k", "i"), theta_support, lambda k, i: f"C[{k},{i}]"),
}


class ProgressionSpec(namedtuple("ProgressionSpec", "function step offset modulus t k i exclude_prime")):
    """One claim: function(step*n + offset) == 0 (mod modulus) for all swept n.

    ``exclude_prime`` skips sweep indices n divisible by that prime, matching
    the "p does not divide n" hypothesis of several families; it must be prime.
    It carries exactly the t, k, i its function takes: t for p_tt and p_2tt,
    k and i for singular; any other is refused, never ignored.
    """

    __slots__ = ()

    def __new__(
        cls, function: str, step: int, offset: int, modulus: int,
        t: int | None = None, k: int | None = None, i: int | None = None, exclude_prime: int | None = None,
    ):
        self = super().__new__(cls, function, step, offset, modulus, t, k, i, exclude_prime)
        if self.function not in FUNCTIONS:
            raise ValueError(f"unknown function id {self.function!r}")
        # a bool or float would sweep or fail mid-sweep
        _require_ints("progression ", **{key: value for key, value in self.to_json().items() if key != "function"})
        given = tuple(key for key in ("t", "k", "i") if getattr(self, key) is not None)
        if given != tuple(self.params):
            takes = " and ".join(self.params) or "none of t, k, i"
            raise ValueError(f"{self.function} takes {takes}; given: {', '.join(given) or 'none'}")
        if self.step < 1:
            raise ValueError("progression step must be positive")
        if self.offset < 0:
            raise ValueError("progression offset must be non-negative")
        if self.modulus < 2:
            raise ValueError("modulus must be at least 2")
        if self.t is not None and self.t < 1:
            raise ValueError(f"{self.function} needs a positive t")
        if self.function == "singular":
            SingularParams(self.k, self.i)  # raises on k < 3 or i outside [1, k//2]
        if self.exclude_prime is not None and not is_prime(self.exclude_prime):
            raise ValueError(f"exclude_prime must be a prime, not {self.exclude_prime}")
        return self

    @property
    def params(self) -> dict[str, int]:
        """The t, k, i its function takes, by name, in the table's order."""
        return {key: getattr(self, key) for key in FUNCTIONS[self.function][0]}

    def describe(self) -> str:
        name = FUNCTIONS[self.function][2](*self.params.values())
        cond = f", {self.exclude_prime} not dividing n" if self.exclude_prime else ""
        return f"{name}({self.step}n+{self.offset}) == 0 mod {self.modulus}{cond}"

    def to_json(self) -> dict:
        """The fields that are not None, in declaration order."""
        return {key: value for key, value in self._asdict().items() if value is not None}


def _parity_digits(support: list[tuple[int, int]], limit: int) -> str:
    # character n, for n <= limit, is the parity of coefficient n of the
    # support's quotient by (q;q)_inf
    return f"{partition_parity_convolution(support, limit):0{limit + 1}b}"[::-1]


def _sweep(report: VerificationReport, spec: ProgressionSpec, n_max: int,
           skip: Callable[[int], bool] | None) -> VerificationReport:
    """The one loop over f(step*n + offset) mod m, for n in [0, n_max].

    Trims the sweep to arguments <= ``ARG_CAP``, read at call time
    (recording the trim in the metadata), takes the function's support
    once at the largest argument, counts the indices ``skip`` exempts, and
    records each nonzero residue.
    Modulo 2 each residue is one bit of the support's quotient by
    (q;q)_inf from the p(n) mod 2 bitset; for any other modulus it is
    sum c * r(arg - e) modulo m, from the table r of p(n) mod m.
    """
    n_eff = min(n_max, (ARG_CAP - spec.offset) // spec.step) if spec.offset <= ARG_CAP else -1
    if n_eff < n_max:
        report.metadata["n_max_effective"] = n_eff
        report.metadata["argument_cap"] = ARG_CAP
    if n_eff < 0:
        return report
    largest = spec.step * n_eff + spec.offset
    support = FUNCTIONS[spec.function][1](*spec.params.values(), largest)
    m = spec.modulus
    bits = _parity_digits(support, largest) if m == 2 else None
    table = partition_residue_table(m, largest) if m != 2 else None
    for n in range(n_eff + 1):
        if skip is not None and skip(n):
            report.skipped += 1
            continue
        arg = spec.step * n + spec.offset
        if bits is not None:
            residue = int(bits[arg])
        else:
            residue = sum(c * table[arg - e] for e, c in support if e <= arg) % m
        report.check(residue == 0, n=n, argument=arg, value_mod_m=residue)
    return report


def check_progression(spec: ProgressionSpec, n_max: int) -> VerificationReport:
    """Sweep a progression claim for n in [0, n_max], skipping indices
    divisible by ``spec.exclude_prime``.  The sweep stops at arguments
    step*n + offset <= ``ARG_CAP``, read at call time (the trimmed-off tail
    is reported in the metadata, not silently dropped).
    """
    _require_size("n_max", n_max)
    report = VerificationReport(label=spec.describe(), spec=spec.to_json())
    report.metadata["n_max"] = n_max
    prime = spec.exclude_prime
    skip = None if prime is None else lambda n: n % prime == 0
    return _sweep(report, spec, n_max, skip)


# ---------------------------------------------------------------------------
# family catalog
# ---------------------------------------------------------------------------

def _exact_div(numerator: int, denominator: int, context: str) -> int:
    q, r = divmod(numerator, denominator)
    if r:
        raise ValueError(f"{context}: {numerator}/{denominator} is not integral")
    return q


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ValueError(message)


def _family_prime(p: int, least: int, condition: str, holds: Callable[[int], bool]) -> None:
    """Validate a family prime: p is prime, p >= ``least``, and ``holds(p)``,
    the residue or Jacobi-symbol ``condition``, is true."""
    _require(is_prime(p), f"{p} is not prime")
    _require(p >= least, f"needs p >= {least}, not p = {p}")
    _require(holds(p), f"needs {condition}, not p = {p}")


def _symbol_minus_one(d: int) -> tuple[str, Callable[[int], bool]]:
    return f"({d}/p) = -1", lambda p: jacobi_symbol(d, p) == -1


def _parity(t: int, step: int, numerator: int, denominator: int, base: int = 0,
            exclude_prime: int | None = None) -> ProgressionSpec:
    # p_{t,t}(step*n + base + numerator/denominator) == 0 (mod 2)
    offset = base + _exact_div(numerator, denominator, f"p[{t},{t}] offset")
    return ProgressionSpec("p_tt", step, offset, 2, t=t, exclude_prime=exclude_prime)


def _thm2(a: int, b: int, m: int, t: int) -> list[ProgressionSpec]:
    """Transfer: if p(a*n + b) == 0 (mod m) for all n, the same progression
    vanishes for the (at, at) and (2at, at) families."""
    _require(a >= 1 and t >= 1 and b >= 0 and m >= 2, "transfer needs a, t >= 1, b >= 0, m >= 2")
    return [ProgressionSpec(function, a, b, m, t=a * t) for function in ("p_tt", "p_2tt")]


def _ramanujan(p: int, k: int, t: int) -> list[ProgressionSpec]:
    """The transfer of the classical progressions: step p^k, offset
    24^{-1} mod p^k, modulus p^k (5, 11) or 7^(floor(k/2)+1) (7)."""
    _require(p in (5, 7, 11), "ramanujan families need p in {5, 7, 11}")
    _require(k >= 1 and t >= 1, "ramanujan families need k, t >= 1")
    return _thm2(p**k, delta(p, k), 7 ** (k // 2 + 1) if p == 7 else p**k, t)


def _thm5(p: int, k: int) -> list[ProgressionSpec]:
    """Parity of the (1,1) function at primes p >= 5, p != 1 (mod 12):
    argument p^(2k+1) n + (p^(2k+2) - 1)/12, skipping n divisible by p."""
    _family_prime(p, 5, "p != 1 (mod 12)", lambda p: p % 12 != 1)
    _require(k >= 0, "k must be non-negative")
    return [_parity(1, p ** (2 * k + 1), p ** (2 * k + 2) - 1, 12, exclude_prime=p)]


def _thm11(p: int, alpha: int, j: int) -> list[ProgressionSpec]:
    """Parity of the (2,2) function: p prime, p == 3 (mod 4), p >= 7,
    1 <= j <= p-1; argument p^(2a+1)(pn + j) + 5(p^(2a+2) - 1)/24.

    p = 3 satisfies the textual hypothesis but makes the offset division by
    24 non-integral (3^2 != 1 mod 24), so it is rejected.
    """
    _family_prime(p, 7, "p == 3 (mod 4)", lambda p: p % 4 == 3)
    _require(alpha >= 0, "alpha must be non-negative")
    _require(1 <= j <= p - 1, "j must satisfy 1 <= j <= p - 1")
    power = p ** (2 * alpha + 1)
    return [_parity(2, power * p, 5 * (power * p - 1), 24, base=power * j)]


def _thm6() -> list[ProgressionSpec]:
    """The two unconditional parity progressions 16n + 11 and 16n + 15 for the
    (3,3) function."""
    return [_parity(3, 16, offset, 1) for offset in (11, 15)]


# cor1 branch -> (c, side condition on p)
_COR1_BRANCHES = {
    1: (10, "p == 3 (mod 4)", lambda p: p % 4 == 3),
    2: (22, *_symbol_minus_one(-2)),
}


def _cor1(p: int, alpha: int, branch: int) -> list[ProgressionSpec]:
    """Parity of the (3,3) function at primes p >= 5, skipping n divisible by
    p: argument 16 p^(2a+1) n + (c p^(2a+2) - 1)/3, where branch 1 needs
    p == 3 (mod 4) and has c = 10, branch 2 needs (-2/p) = -1 and has c = 22."""
    c, condition, holds = _COR1_BRANCHES.get(branch, (0, "", lambda p: True))
    _family_prime(p, 5, f"{condition} on branch {branch}", holds)
    _require(alpha >= 0, "alpha must be non-negative")
    _require(c > 0, "branch must be 1 or 2")
    power = p ** (2 * alpha + 1)
    return [_parity(3, 16 * power, c * power * p - 1, 3, exclude_prime=p)]


# thm12 row -> (c, e)
_P55_ROWS = {1: (31, 0), 2: (79, 0), 3: (83, 1), 4: (107, 1)}


def _thm12(alpha: int, row: int) -> list[ProgressionSpec]:
    """Four parity progressions for the (5,5) function, indexed by row
    (``_P55_ROWS`` holds the c and e of the factor c*5^(2a+e) in each offset):
      1: 2*5^(2a+1) n + (31*5^(2a) - 7)/12
      2: 2*5^(2a+1) n + (79*5^(2a) - 7)/12
      3: 2*5^(2a+2) n + (83*5^(2a+1) - 7)/12
      4: 2*5^(2a+2) n + (107*5^(2a+1) - 7)/12
    """
    _require(alpha >= 0, "alpha must be non-negative")
    _require(row in _P55_ROWS, "row must be 1, 2, 3 or 4")
    c, e = _P55_ROWS[row]
    power = 5 ** (2 * alpha + e)
    return [_parity(5, 10 * power, c * power - 7, 12)]


def _thm13(p: int, alpha: int, j: int) -> list[ProgressionSpec]:
    """Parity of the (5,5) function at primes p >= 5 with (-10/p) = -1:
    argument 2 p^(2a+1)(pn + j) + 7(p^(2a+2) - 1)/12, 1 <= j <= p-1."""
    _family_prime(p, 5, *_symbol_minus_one(-10))
    _require(alpha >= 0, "alpha must be non-negative")
    _require(1 <= j <= p - 1, "j must satisfy 1 <= j <= p - 1")
    power = p ** (2 * alpha + 1)
    return [_parity(5, 2 * power * p, 7 * (power * p - 1), 12, base=2 * power * j)]


def _p77_row(alpha: int, square: int, branch: int, value: int | None) -> list[ProgressionSpec]:
    """final's branches 1 and 2 with square = p^(2b); thm14 is square = 1:
      branch 1 (r in {3,4,6}): 2*7^(2a+1) p^(2b) n + ((11+12r)*49^a p^(2b) - 5)/6
      branch 2 (s in {2,4,5}): 2*49^(a+1) p^(2b) n + ((5+12s)*7^(2a+1) p^(2b) - 5)/6
    """
    if branch == 1:
        _require(value in (3, 4, 6), "r must be in {3, 4, 6}")
        c, power = 11 + 12 * value, 7 ** (2 * alpha)
    else:
        _require(value in (2, 4, 5), "s must be in {2, 4, 5}")
        c, power = 5 + 12 * value, 7 ** (2 * alpha + 1)
    return [_parity(7, 14 * power * square, c * power * square - 5, 6)]


def _thm14(alpha: int, r: int | None = None, s: int | None = None) -> list[ProgressionSpec]:
    """Parity progressions for the (7,7) function: ``_p77_row`` at p^(2b) = 1,
    branch 1 for r in {3, 4, 6} and branch 2 for s in {2, 4, 5}.  Exactly one
    of r, s must be given."""
    _require(alpha >= 0, "alpha must be non-negative")
    _require((r is None) != (s is None), "give exactly one of r, s")
    return _p77_row(alpha, 1, 1, r) if s is None else _p77_row(alpha, 1, 2, s)


def _final(
    p: int, alpha: int, beta: int, branch: int, r: int | None = None, s: int | None = None
) -> list[ProgressionSpec]:
    """Parity families for the (7,7) function at primes p >= 5 with
    (-21/p) = -1: branches 1 (r) and 2 (s) are ``_p77_row`` at p^(2b), and
      branch 3 (p not dividing n): 2*49^a p^(2b+1) n + (11*49^a p^(2b+2) - 5)/6
    """
    _family_prime(p, 5, *_symbol_minus_one(-21))
    _require(alpha >= 0 and beta >= 0, "alpha and beta must be non-negative")
    _require(branch in (1, 2, 3), "branch must be 1, 2 or 3")
    if branch < 3:
        return _p77_row(alpha, p ** (2 * beta), branch, r if branch == 1 else s)
    power = 49**alpha * p ** (2 * beta + 1)
    return [_parity(7, 2 * power, 11 * power * p - 5, 6, exclude_prime=p)]


_FAMILIES: dict[str, Callable[..., list[ProgressionSpec]]] = {
    "thm2": _thm2, "ramanujan": _ramanujan, "thm5": _thm5, "thm11": _thm11, "thm6": _thm6,
    "cor1": _cor1, "thm12": _thm12, "thm13": _thm13, "thm14": _thm14, "final": _final,
}

FAMILY_IDS = tuple(sorted(_FAMILIES))


def family_catalog(family_id: str, **params) -> list[ProgressionSpec]:
    """Progression claims for a named family; ids match the CLI suite names."""
    if family_id not in _FAMILIES:
        raise ValueError(f"unknown family {family_id!r}; known: {', '.join(FAMILY_IDS)}")
    try:
        return _FAMILIES[family_id](**params)
    except ValueError as exc:
        raise ValueError(f"{family_id}: {exc}") from None


# ---------------------------------------------------------------------------
# parity checkers
# ---------------------------------------------------------------------------

def check_parity_characterization(which: str, n_max: int) -> VerificationReport:
    """Parity of the (1,1) or (3,3) function, and of the matching singular
    overpartition family, against its representation predicate:

      p11: odd exactly at n = k(3k - 1), k over all integers; same for C(4,1)
      p33: odd exactly when 3n + 1 is a square; same for C(12,3)

    Swept over n in [1, n_max], stopping at ``ARG_CAP``; both parities are
    bits of support quotients over the p(n) mod 2 bitset, and a failure
    record takes its exact value as sum c * p(n - e) over the support.
    """
    if which not in ("p11", "p33"):
        raise ValueError("which must be 'p11' or 'p33'")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if which == "p11":
        t, k, i, predicate = 1, 4, 1, is_k3km1
        predicate_name = "n = k(3k-1), k in Z"
    else:
        t, k, i, predicate = 3, 12, 3, is_3np1_square
        predicate_name = "3n+1 is a square"
    report = VerificationReport(
        label=f"parity-characterization-{which}",
        metadata={"n_max": n_max, "predicate": predicate_name},
    )
    n_eff = min(n_max, ARG_CAP)
    if n_eff < n_max:
        report.metadata.update(n_max_effective=n_eff, argument_cap=ARG_CAP)
    mex_support, singular_support = support_p_tt(t, n_eff), theta_support(k, i, n_eff)
    routes = [
        (f"p_tt[t={t}]", mex_support, _parity_digits(mex_support, n_eff)),
        (f"C[{k},{i}]", singular_support, _parity_digits(singular_support, n_eff)),
    ]
    for n in range(1, n_eff + 1):
        expected = "1" if predicate(n) else "0"
        for name, support, bits in routes:
            ok = bits[n] == expected
            report.check(ok, function=name, n=n,
                         value=None if ok else sum(c * partition_count(n - e) for e, c in support))
    return report


# thm6's conditional claims: the offset r of 16n + r, and the predicate
# (with its name) of the indices the claim exempts
_THM6_CONDITIONS = {
    "thm6_part2": (3, is_pent_plus_4pent, "pent + 4*pent"),
    "thm6_part3": (7, is_2pent_plus_3tri, "2*pent + 3*tri"),
}


def check_conditional_parity(which: str, n_max: int) -> VerificationReport:
    """One-directional parity claims for the (3,3) function:

      thm6_part2: if n is not a pentagonal plus four times a pentagonal,
                  then p_{3,3}(16n + 3) is even
      thm6_part3: if n is not twice a pentagonal plus three times a
                  triangular, then p_{3,3}(16n + 7) is even

    Indices satisfying the predicate are skipped (the claims say nothing
    there), and the sweep stops at argument ``ARG_CAP``.  Pentagonal means
    generalized pentagonal, zero included; the calibration test in the suite
    confirms that convention empirically.
    """
    if which not in _THM6_CONDITIONS:
        raise ValueError("which must be 'thm6_part2' or 'thm6_part3'")
    offset, predicate, predicate_name = _THM6_CONDITIONS[which]
    _require_size("n_max", n_max)
    report = VerificationReport(
        label=f"conditional-parity-{which}",
        metadata={
            "n_max": n_max,
            "predicate": predicate_name,
            "pentagonal_convention": "generalized, k in Z, 0 included",
        },
    )
    return _sweep(report, ProgressionSpec("p_tt", 16, offset, 2, t=3), n_max, predicate)


def check_parity_bridge(t: int, n_max: int) -> VerificationReport:
    """Coefficient-wise mod-2 equality of the (t,t) series and the C(4t,t)
    singular overpartition series over [0, n_max]."""
    if t < 1:
        raise ValueError("t must be positive")
    _require_size("n_max", n_max)
    left = genfun_p_tt(t, n_max)
    right = genfun_singular(SingularParams(4 * t, t), n_max)
    report = VerificationReport(label=f"parity-bridge-t={t}", metadata={"n_max": n_max, "t": t})
    for n, (p_tt, singular) in enumerate(zip(left, right, strict=True)):
        report.check((p_tt - singular) % 2 == 0, n=n, p_tt=p_tt, singular=singular)
    return report


def eta_form_mod2_report(t: int, order: int) -> VerificationReport:
    """Mod-2 identity of both bridge sides with (q^t;q^t)^3 / (q;q):
    the reduction both series collapse to."""
    if t < 1:
        raise ValueError("t must be positive")
    pt = pochhammer_inf(t, t, order)
    eta = (pt * pt) * (pt * partition_generating_series(order))
    left = genfun_p_tt(t, order)
    right = genfun_singular(SingularParams(4 * t, t), order)
    report = VerificationReport(label=f"eta-form-mod2-t={t}", metadata={"order": order, "t": t})
    for n, values in enumerate(zip(left, right, eta.coeffs, strict=True)):
        p_tt, singular, eta_n = (v % 2 for v in values)
        report.check(p_tt == eta_n == singular, n=n, p_tt_mod2=p_tt, singular_mod2=singular, eta_mod2=eta_n)
    return report


MOD8_ARG_MAX = 500  # largest C(12,3) argument of the mod-8 sweeps


def check_singular_mod8() -> list[VerificationReport]:
    """Mod-8 behaviour of C(12,3) along 16n + r for arguments up to
    ``MOD8_ARG_MAX``: r = 11, 15 vanish unconditionally; r = 3 vanishes when
    n is not a pentagonal plus four times a pentagonal; r = 7 when n is not
    twice a pentagonal plus three times a triangular."""
    cases = [(r, None, "unconditional") for r in (11, 15)]
    cases += [(r, predicate, f"n not {name}") for r, predicate, name in _THM6_CONDITIONS.values()]
    out = []
    for offset, predicate, condition in cases:
        spec = ProgressionSpec("singular", 16, offset, 8, k=12, i=3)
        report = VerificationReport(
            label=f"singular-mod8-16n+{offset}",
            spec=spec.to_json(),
            metadata={"argument_cap": MOD8_ARG_MAX, "condition": condition},
        )
        out.append(_sweep(report, spec, (MOD8_ARG_MAX - offset) // 16, predicate))
    return out
