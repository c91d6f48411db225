"""Singular overpartition counts C(k, i; n) by enumeration and by series.

A singular overpartition for parameters (k, i) is an overpartition with no
part divisible by k in which only parts == +-i (mod k) may be overlined
(first occurrence of a value only).  The generating function is

    (q^k; q^k)_inf (-q^i; q^k)_inf (-q^(k-i); q^k)_inf / (q; q)_inf,

which ``genfun_singular`` evaluates through the Jacobi triple product as a
sparse theta sum over the p(n) table (see its docstring), as the list of
C(k, i; n) for n = 0 .. order.

The enumeration oracle mirrors the product factor by factor.  Each of the
two (-q^.; q^k) factors offers an independent "one overlined copy of this
value" choice, so a distinct part value in an overlineable class normally
contributes a factor 2.  In the degenerate case i = k - i (k even) the two
factors coincide on the same residue class and the product squares: a value
occurring once contributes 1 + 2 = 3 (plain, or overlined via either
factor), and a value occurring at least twice contributes 4 (additionally
both overline slots used on two copies).  Divisibility by k is a property
of the underlying value, overlined or not, so the oracle walks only the
partitions with no part divisible by k, on the multiplicity walk of
``partitions``.  One walk of n_max serves every n <= n_max: a node is a
multiset of parts above 1 with total s <= n_max, and with j ones it is one
partition of s + j.  Its weight W, the product of the factors of its
overlineable values above 1, counts once at n = s; every n > s adds 1's,
which double W when 1 is overlineable (i = 1).  The walk leaves out the
part 2, so a node also stands for its run of c = 1, 2, ... parts 2, whose
factor is one value at c = 1 and one at c >= 2.  The tests check every n
against a recursive enumeration of tuples that shares no code with the walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import prod

from .partitions import _stride2_prefix, _walk_multiplicities, partition_convolution, partition_count
from .series import theta_support

__all__ = [
    "SingularParams",
    "singular_overpartition_oracle",
    "genfun_singular",
    "SINGULAR_ORACLE_BOUND",
]

SINGULAR_ORACLE_BOUND = 50


@dataclass(frozen=True)
class SingularParams:
    k: int
    i: int

    def __post_init__(self):
        for key, value in vars(self).items():  # a bool or float would count or fail mid-build
            if type(value) is not int:
                raise ValueError(f"{key} must be an int (got {value!r})")
        if self.k < 3:
            raise ValueError(f"k must be at least 3, got {self.k}")
        if not 1 <= self.i <= self.k // 2:
            raise ValueError(f"i must satisfy 1 <= i <= floor(k/2) = {self.k // 2}, got {self.i}")

    @property
    def overline_residues(self) -> frozenset[int]:
        return frozenset({self.i % self.k, (self.k - self.i) % self.k})

    @property
    def self_paired(self) -> bool:
        # i == k - i (mod k): the two overline factors land on one residue class
        return self.i % self.k == (self.k - self.i) % self.k


def singular_overpartition_oracle(n_max: int, params: SingularParams) -> list[int]:
    """Item n, for 0 <= n <= n_max, counts the singular overpartitions of n;
    every item comes from one walk over the partitions of n_max with no part
    divisible by k."""
    if n_max < 0:
        raise ValueError("n must be non-negative")
    if n_max > SINGULAR_ORACLE_BOUND:
        raise ValueError(
            f"singular_overpartition_oracle is limited to n <= {SINGULAR_ORACLE_BOUND}"
            f" (got {n_max})"
        )
    k, residues = params.k, params.overline_residues
    # a value's factor by its multiplicity: 1 if absent, else 2 (or 3 and 4)
    factor = [1, 3] + [4] * (n_max + 1) if params.self_paired else [1] + [2] * (n_max + 2)
    # the walk leaves out the part 2 (k >= 3): a node of weight w at total s
    # stands for w at s, w * two_once at s + 2, w * two_more at s + 4, ...
    overlineable = [v for v in range(3, n_max + 1) if v % k in residues]
    two_once, two_more = factor[1:3] if 2 % k in residues else (1, 1)
    weight = [0] * (n_max + 5)  # by the total s of the parts above 1, as stride-2 differences
    for mult in _walk_multiplicities(n_max, [v for v in range(1, n_max + 1) if v % k and v != 2]):
        w = prod(map(factor.__getitem__, map(mult.__getitem__, overlineable)))
        s = n_max - mult[1]
        weight[s] += w
        weight[s + 2] += w * (two_once - 1)
        weight[s + 4] += w * (two_more - two_once)
    _stride2_prefix(weight)
    # the partition of s carries weight W, and every n > s adds 1's: 2W when
    # 1 is overlineable (i = 1, never self-paired since k >= 3), else W
    ones = 2 if 1 % k in residues else 1
    return [w + ones * below for w, below in zip(weight[: n_max + 1], accumulate(weight, initial=0))]


def genfun_singular(params: SingularParams, order: int) -> list[int]:
    """Item n, for 0 <= n <= order, is C(k, i; n).

    By the Jacobi triple product the numerator of the generating function is
    the sparse theta sum

        (q^k; q^k)_inf (-q^i; q^k)_inf (-q^(k-i); q^k)_inf
            = sum_{m in Z} q^(k m(m-1)/2 + i m),

    so C(k, i; n) = sum_m p(n - k m(m-1)/2 - i m), read from the p(n) table.
    In the self-paired case k = 2i the terms m and -m share the exponent
    i m^2, which then carries multiplicity 2.  The three-product form is kept
    in the test suite as an independent reference route.
    """
    partition_count(order)  # grown first: past the table's bound, no support is built
    return partition_convolution(theta_support(params.k, params.i, order), order)
