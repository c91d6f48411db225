"""Reference routes for the tests: partitions as part tuples by plain
recursion, sharing no code with the multiplicity walk of
``mexparts.partitions``, and the product (-q^a; q^b)_inf, which the library
does not build."""

from functools import lru_cache

from mexparts.series import TruncatedSeries


def reference_partitions(n, largest):
    """Partitions of n with parts <= largest, first part descending: the
    decreasing lexicographic order, by plain recursion."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in reference_partitions(n - first, first):
            yield (first, *rest)


@lru_cache(maxsize=None)
def partitions_of(n):
    """Every partition of n as a part tuple, built once per n."""
    return tuple(reference_partitions(n, n))


def parts_of(mult):
    """The non-increasing parts of the partition whose part v occurs mult[v] times."""
    return tuple(v for v in range(len(mult) - 1, 0, -1) for _ in range(mult[v]))


def neg_pochhammer_inf(a, b, order):
    """(-q^a; q^b)_inf = prod_{j>=0} (1 + q^(a+jb)) truncated at the order:
    each factor added in place from the top coefficient down, sharing no
    code with the slice updates of ``mexparts.series``."""
    c = [1] + [0] * order
    for e in range(a, order + 1, b):
        for n in range(order, e - 1, -1):
            c[n] += c[n - e]
    return TruncatedSeries(c)
