"""Rank, crank, and the five combinatorial identities."""

import pytest

from mexparts import stats
from mexparts.mex import identity_p_2tt, identity_p_tt
from mexparts.partitions import enumerate_partitions, restricted_count
from mexparts.stats import verify_section1_identities
from partition_reference import parts_of


def _length_rank_crank(mult):
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


def _restricted(n, modulus, residues):
    # partitions of n into parts == +-r (mod modulus), r in residues
    sizes = [v for v in range(1, n + 1) if v % modulus in residues or -v % modulus in residues]
    return restricted_count(n, sizes)


def reference_counts(n):
    """The partitions of n with crank >= 0, with rank >= -1, and with an even
    and an odd number of parts, from one walk of n."""
    crank_nonneg = rank_ge_minus1 = 0
    by_length_parity = [0, 0]
    for mult in enumerate_partitions(n):
        length, rank, crank = _length_rank_crank(mult)
        crank_nonneg += crank >= 0
        rank_ge_minus1 += rank >= -1
        by_length_parity[length % 2] += 1
    return crank_nonneg, rank_ge_minus1, *by_length_parity


def reference_section1_sides(n):
    """Both sides of identities (a)-(e) at n, one walk of n and one
    ``identity_p_*`` sum and restricted count per side: the per-n route that
    ``verify_section1_identities`` replaced."""
    crank_nonneg, rank_ge_minus1, even_length, odd_length = reference_counts(n)
    return {
        "crank": (identity_p_tt(1, n), crank_nonneg),
        "rank": (identity_p_tt(3, n), rank_ge_minus1),
        "even-length": (identity_p_2tt(1, n), even_length),
        "mod32": (identity_p_2tt(2, n) - odd_length, _restricted(n, 32, (4, 6, 8, 10))),
        "mod24": (identity_p_2tt(3, n) - odd_length, _restricted(n, 24, (2, 4, 5, 6, 7, 8))),
    }


def rank_by_definition(parts):
    return parts[0] - len(parts)


def crank_by_definition(parts):
    ones = parts.count(1)
    if ones == 0:
        return parts[0]
    return sum(1 for v in parts if v > ones) - ones


def statistics(parts):
    # _length_rank_crank on the multiplicity list of parts
    mult = [0] * (sum(parts) + 2)
    for v in parts:
        mult[v] += 1
    return _length_rank_crank(mult)


def rank_of(parts):
    return statistics(parts)[1]


def crank_of(parts):
    return statistics(parts)[2]


class TestRank:
    def test_values(self):
        assert rank_of((5,)) == 4
        assert rank_of((1, 1, 1, 1, 1)) == -4
        assert rank_of((3, 2)) == 1

    def test_empty(self):
        # undefined for the empty partition: refused, not a made-up number
        with pytest.raises(ValueError):
            rank_of(())


class TestCrank:
    def test_no_ones_branch(self):
        assert crank_of((3, 2)) == 3

    def test_ones_branch(self):
        assert crank_of((2, 1, 1, 1)) == -3
        assert crank_of((4, 3, 1)) == 1

    def test_single_one(self):
        assert crank_of((1,)) == -1

    def test_empty(self):
        with pytest.raises(ValueError):
            crank_of(())


def test_multiplicity_statistics_match_the_tuple_definitions():
    for n in range(1, 21):
        for mult in enumerate_partitions(n):
            parts = parts_of(mult)
            assert _length_rank_crank(mult) == (
                len(parts), rank_by_definition(parts), crank_by_definition(parts)
            )


def test_one_walk_counts_match_the_per_n_walks():
    # the counts of every n <= 35 from one walk of 35, against one walk per n
    counts = stats._section1_counts(35)
    for n in range(1, 36):
        assert tuple(column[n] for column in counts) == reference_counts(n), n


@pytest.mark.parametrize("n_max", [0, 1, 2, 3])
def test_one_walk_counts_hold_item_n_for_every_n_up_to_n_max(n_max):
    # the walk of 0 is the empty partition alone, which no column counts
    counts = stats._section1_counts(n_max)
    assert [len(column) for column in counts] == [n_max + 1] * 4
    assert [column[0] for column in counts] == [0] * 4
    for n in range(1, n_max + 1):
        assert tuple(column[n] for column in counts) == reference_counts(n), n


def test_sweep_reads_both_sides_of_the_per_n_route(monkeypatch):
    # every side at every n <= 35 agrees with the per-n route, and one count
    # too many at n = 7 in each enumerated column is recorded against the
    # reference's values: one more on the right of (a)-(c), one odd-length
    # partition more and so one less on the left of (d) and (e)
    reference = {n: reference_section1_sides(n) for n in range(1, 36)}
    assert all(lhs == rhs for sides in reference.values() for lhs, rhs in sides.values())
    assert verify_section1_identities(35).passed
    counts = stats._section1_counts
    monkeypatch.setattr(
        stats, "_section1_counts", lambda n_max: [c[:7] + [c[7] + 1] + c[8:] for c in counts(n_max)]
    )
    report = verify_section1_identities(35)
    assert report.checked == 5 * 35
    assert report.failures == [
        {"identity": identity, "n": 7, "lhs": lhs - (identity in ("mod32", "mod24")),
         "rhs": rhs + (identity not in ("mod32", "mod24"))}
        for identity, (lhs, rhs) in reference[7].items()
    ]


class TestSectionIdentities:
    def test_small_sweep_passes(self):
        report = verify_section1_identities(5)
        assert report.passed
        assert report.checked == 25

    def test_crank_identity_at_4(self):
        # p_{1,1}(4) = 3; the partitions of 4 with crank >= 0 are
        # 4 (crank 4), 2+2 (crank 2), 3+1 (crank 0)
        with_crank = [
            parts_of(mult)
            for mult in enumerate_partitions(4)
            if _length_rank_crank(mult)[2] >= 0
        ]
        assert len(with_crank) == identity_p_tt(1, 4) == 3

    def test_n1_crank_identity(self):
        # p_{1,1}(1) = 0 and crank({1}) = -1
        report = verify_section1_identities(1)
        assert report.passed

    def test_full_sweep(self):
        report = verify_section1_identities(40)
        assert report.passed
        assert report.checked == 200
        assert report.failure_count == 0

    def test_bounds(self):
        with pytest.raises(ValueError):
            verify_section1_identities(0)
        with pytest.raises(ValueError):
            verify_section1_identities(41)
