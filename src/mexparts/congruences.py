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
singular theta support), taken once up to the sweep's largest argument,
and each value is sum c * p(arg - e) from the exact p(n) table, reduced
modulo m.  No series is built.  A report never silently narrows a sweep;
whatever was skipped (excluded index, argument cap) is counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import EvenModulus, InvalidFamilyParams, NonIntegralOffset, NotCoprime
from .mex import genfun_p_tt, identity_p_tt
from .partitions import partition_support_sum
from .reports import VerificationReport
from .series import pochhammer_inf, support_p_2tt, support_p_tt, theta_support
from .singular import SingularParams, genfun_singular

__all__ = [
    "jacobi_symbol",
    "mod_inverse",
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
        raise EvenModulus(f"Jacobi symbol needs an odd positive modulus, got {n}")
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


def mod_inverse(x: int, m: int) -> int:
    """y in [1, m) with x*y == 1 (mod m)."""
    if m < 2:
        raise ValueError("modulus must be at least 2")
    try:
        return pow(x, -1, m)
    except ValueError:
        raise NotCoprime(f"{x} has no inverse modulo {m}") from None


def delta(p: int, k: int) -> int:
    """24^{-1} mod p^k for p in {5, 7, 11}: the classical progression offsets."""
    if p not in (5, 7, 11):
        raise ValueError("delta is defined for p in {5, 7, 11}")
    if k < 1:
        raise ValueError("k must be positive")
    return mod_inverse(24, p**k)


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


def smallest_prime_with_symbol(value: int, symbol: int = -1, minimum: int = 5) -> int:
    """Smallest prime p >= minimum with (value/p) equal to ``symbol``.

    Searches that can never succeed are refused before the first candidate:
    (0/p) = 0 for every p, and a nonzero square has (v^2/p) in {0, 1}.
    """
    if symbol not in (-1, 0, 1):
        raise ValueError(f"a Legendre symbol is -1, 0 or 1, not {symbol}")
    if value == 0 and symbol != 0:
        raise ValueError(f"(0/p) = 0 for every prime p, never {symbol}")
    if symbol == -1 and value > 0 and math.isqrt(value) ** 2 == value:
        raise ValueError(f"{value} is a perfect square, so ({value}/p) is never -1")
    p = minimum
    while True:
        if is_prime(p) and p % 2 == 1 and jacobi_symbol(value, p) == symbol:
            return p
        p += 1


# ---------------------------------------------------------------------------
# representation predicates
# ---------------------------------------------------------------------------

def is_k3km1(x: int) -> bool:
    """True iff x = k(3k - 1) for some integer k (either sign, zero included),
    that is, x is twice a generalized pentagonal number."""
    return x % 2 == 0 and is_generalized_pentagonal(x // 2)


def is_3np1_square(n: int) -> bool:
    """True iff 3n + 1 is a perfect square."""
    if n < 0:
        return False
    v = 3 * n + 1
    r = math.isqrt(v)
    return r * r == v


def is_generalized_pentagonal(x: int) -> bool:
    """True iff x = k(3k - 1)/2 for some integer k; includes 0 (k = 0)."""
    if x < 0:
        return False
    disc = 24 * x + 1
    r = math.isqrt(disc)
    if r * r != disc:
        return False
    return (1 + r) % 6 == 0 or (1 - r) % 6 == 0


def is_triangular(x: int) -> bool:
    """True iff x = j(j + 1)/2 for some j >= 0; includes 0."""
    if x < 0:
        return False
    disc = 8 * x + 1
    r = math.isqrt(disc)
    return r * r == disc


def _generalized_pentagonals_up_to(limit: int) -> list[int]:
    # exponents of Euler's (3, 1) theta support: m(3m - 1)/2 over m in Z
    return [e for e, _ in theta_support(3, 1, limit)]


def is_pent_plus_4pent(n: int) -> bool:
    """True iff n = x + 4y with x, y generalized pentagonal numbers."""
    if n < 0:
        return False
    for y in _generalized_pentagonals_up_to(n // 4):
        if is_generalized_pentagonal(n - 4 * y):
            return True
    return False


def is_2pent_plus_3tri(n: int) -> bool:
    """True iff n = 2x + 3y with x generalized pentagonal and y triangular."""
    if n < 0:
        return False
    for x in _generalized_pentagonals_up_to(n // 2):
        rem = n - 2 * x
        if rem % 3 == 0 and is_triangular(rem // 3):
            return True
    return False


# ---------------------------------------------------------------------------
# progression claims
# ---------------------------------------------------------------------------

ARG_CAP = 50_000  # keep progression arguments at desk scale

# each function's numerator over (q;q)_inf, as (exponent, coefficient) terms
# up to a limit; the self-paired singular case k = 2i has coefficients 2
_SUPPORTS: dict[str, Callable[["ProgressionSpec", int], list[tuple[int, int]]]] = {
    "p": lambda spec, limit: [(0, 1)],
    "p_tt": lambda spec, limit: support_p_tt(spec.t, limit),
    "p_2tt": lambda spec, limit: support_p_2tt(spec.t, limit),
    "singular": lambda spec, limit: theta_support(spec.k, spec.i, limit),
}
# the parameters among t, k, i each function takes
_PARAMS = {"p": (), "p_tt": ("t",), "p_2tt": ("t",), "singular": ("k", "i")}


@dataclass(frozen=True)
class ProgressionSpec:
    """One claim: function(step*n + offset) == 0 (mod modulus) for all swept n.

    ``exclude_prime`` skips sweep indices n divisible by that prime, matching
    the "p does not divide n" hypothesis of several families; it must be prime.
    It carries exactly the t, k, i its function takes: t for p_tt and p_2tt,
    k and i for singular; any other is refused, never ignored.
    """

    function: str
    step: int
    offset: int
    modulus: int
    t: int | None = None
    k: int | None = None
    i: int | None = None
    exclude_prime: int | None = None
    label: str = ""

    def __post_init__(self):
        if self.function not in _SUPPORTS:
            raise ValueError(f"unknown function id {self.function!r}")
        given = tuple(key for key in ("t", "k", "i") if getattr(self, key) is not None)
        if given != _PARAMS[self.function]:
            takes = " and ".join(_PARAMS[self.function]) or "none of t, k, i"
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

    def describe(self) -> str:
        if self.label:
            return self.label
        if self.function == "p":
            name = "p"
        elif self.function == "p_tt":
            name = f"p[{self.t},{self.t}]"
        elif self.function == "p_2tt":
            name = f"p[{2 * self.t},{self.t}]"
        else:
            name = f"C[{self.k},{self.i}]"
        cond = f", {self.exclude_prime} not dividing n" if self.exclude_prime else ""
        return f"{name}({self.step}n+{self.offset}) == 0 mod {self.modulus}{cond}"

    def to_json(self) -> dict:
        out = {
            "function": self.function,
            "step": self.step,
            "offset": self.offset,
            "modulus": self.modulus,
        }
        out.update((key, getattr(self, key)) for key in _PARAMS[self.function])
        if self.exclude_prime is not None:
            out["exclude_prime"] = self.exclude_prime
        return out


def _sweep(report: VerificationReport, spec: ProgressionSpec, n_max: int, arg_cap: int | None,
           skip: Callable[[int], bool] | None) -> VerificationReport:
    """The one loop over f(step*n + offset) mod m, for n in [0, n_max].

    Trims the sweep to arguments <= ``arg_cap`` (recording the trim in the
    metadata), takes the function's support once at the largest argument,
    counts the indices ``skip`` exempts, and records each nonzero residue.
    """
    n_eff = n_max
    if arg_cap is not None:
        n_eff = min(n_max, (arg_cap - spec.offset) // spec.step) if spec.offset <= arg_cap else -1
    if n_eff < n_max:
        report.metadata["n_max_effective"] = n_eff
        report.metadata["argument_cap"] = arg_cap
    if n_eff < 0:
        return report
    support = _SUPPORTS[spec.function](spec, spec.step * n_eff + spec.offset)
    for n in range(n_eff + 1):
        if skip is not None and skip(n):
            report.skipped += 1
            continue
        arg = spec.step * n + spec.offset
        residue = partition_support_sum(support, arg) % spec.modulus
        report.checked += 1
        if residue != 0:
            report.record_failure(n=n, argument=arg, value_mod_m=residue)
    return report


def check_progression(
    spec: ProgressionSpec, n_max: int, arg_cap: int | None = None
) -> VerificationReport:
    """Sweep a progression claim for n in [0, n_max], skipping indices
    divisible by ``spec.exclude_prime``.  ``arg_cap`` trims the sweep to
    arguments step*n + offset <= arg_cap (the trimmed-off tail is reported
    in the metadata, not silently dropped).
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    report = VerificationReport(label=spec.describe(), spec=spec.to_json())
    report.metadata["n_max"] = n_max
    prime = spec.exclude_prime
    skip = None if prime is None else lambda n: n % prime == 0
    return _sweep(report, spec, n_max, arg_cap, skip)


# ---------------------------------------------------------------------------
# family catalog
# ---------------------------------------------------------------------------

def _exact_div(numerator: int, denominator: int, context: str) -> int:
    q, r = divmod(numerator, denominator)
    if r:
        raise NonIntegralOffset(f"{context}: {numerator}/{denominator} is not integral")
    return q


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise InvalidFamilyParams(message)


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
        raise InvalidFamilyParams(f"unknown family {family_id!r}; known: {', '.join(FAMILY_IDS)}")
    try:
        return _FAMILIES[family_id](**params)
    except InvalidFamilyParams as exc:
        raise InvalidFamilyParams(f"{family_id}: {exc}") from None


# ---------------------------------------------------------------------------
# parity checkers
# ---------------------------------------------------------------------------

def check_parity_characterization(which: str, n_max: int) -> VerificationReport:
    """Parity of the (1,1) or (3,3) function, and of the matching singular
    overpartition family, against its representation predicate:

      p11: odd exactly at n = k(3k - 1), k over all integers; same for C(4,1)
      p33: odd exactly when 3n + 1 is a square; same for C(12,3)

    Swept over n in [1, n_max].
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
    singular_series = genfun_singular(SingularParams(k, i), n_max)
    for n in range(1, n_max + 1):
        expected_odd = predicate(n)
        mex_value = identity_p_tt(t, n)
        singular_value = singular_series.coefficient(n)
        report.checked += 2
        if (mex_value % 2 == 1) != expected_odd:
            report.record_failure(function=f"p_tt[t={t}]", n=n, value=mex_value)
        if (singular_value % 2 == 1) != expected_odd:
            report.record_failure(function=f"C[{k},{i}]", n=n, value=singular_value)
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
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    report = VerificationReport(
        label=f"conditional-parity-{which}",
        metadata={
            "n_max": n_max,
            "predicate": predicate_name,
            "pentagonal_convention": "generalized, k in Z, 0 included",
        },
    )
    return _sweep(report, ProgressionSpec("p_tt", 16, offset, 2, t=3), n_max, ARG_CAP, predicate)


def check_parity_bridge(t: int, n_max: int) -> VerificationReport:
    """Coefficient-wise mod-2 equality of the (t,t) series and the C(4t,t)
    singular overpartition series over [0, n_max]."""
    if t < 1:
        raise ValueError("t must be positive")
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    left = genfun_p_tt(t, n_max)
    right = genfun_singular(SingularParams(4 * t, t), n_max)
    report = VerificationReport(
        label=f"parity-bridge-t={t}", metadata={"n_max": n_max, "t": t}
    )
    for n in range(n_max + 1):
        report.checked += 1
        if (left.coefficient(n) - right.coefficient(n)) % 2 != 0:
            report.record_failure(
                n=n, p_tt=left.coefficient(n), singular=right.coefficient(n)
            )
    return report


def eta_form_mod2_report(t: int, order: int) -> VerificationReport:
    """Mod-2 identity of both bridge sides with (q^t;q^t)^3 / (q;q):
    the reduction both series collapse to."""
    if t < 1:
        raise ValueError("t must be positive")
    pt = pochhammer_inf(t, t, order)
    eta = (pt * pt) * (pt * pochhammer_inf(1, 1, order).invert())
    eta2 = eta.reduce_mod(2)
    left = genfun_p_tt(t, order).reduce_mod(2)
    right = genfun_singular(SingularParams(4 * t, t), order).reduce_mod(2)
    report = VerificationReport(
        label=f"eta-form-mod2-t={t}", metadata={"order": order, "t": t}
    )
    for n in range(order + 1):
        report.checked += 1
        ok = left.coefficient(n) == eta2.coefficient(n) == right.coefficient(n)
        if not ok:
            report.record_failure(
                n=n,
                p_tt_mod2=left.coefficient(n),
                singular_mod2=right.coefficient(n),
                eta_mod2=eta2.coefficient(n),
            )
    return report


def check_singular_mod8(arg_max: int = 500) -> list[VerificationReport]:
    """Mod-8 behaviour of C(12,3) along 16n + r for arguments up to arg_max
    (at most ``ARG_CAP``): r = 11, 15 vanish unconditionally; r = 3 vanishes
    when n is not a pentagonal plus four times a pentagonal; r = 7 when n is
    not twice a pentagonal plus three times a triangular."""
    if arg_max > ARG_CAP:
        raise ValueError(f"arg_max must be at most the argument cap {ARG_CAP}")
    out = []
    cases = [(r, None, "unconditional") for r in (11, 15)]
    cases += [(r, predicate, f"n not {name}") for r, predicate, name in _THM6_CONDITIONS.values()]
    for offset, predicate, condition in cases:
        spec = ProgressionSpec("singular", 16, offset, 8, k=12, i=3)
        report = VerificationReport(
            label=f"singular-mod8-16n+{offset}",
            spec=spec.to_json(),
            metadata={"argument_cap": arg_max, "condition": condition},
        )
        out.append(_sweep(report, spec, (arg_max - offset) // 16, arg_max, predicate))
    return out
