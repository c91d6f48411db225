"""Rank, crank, and the five combinatorial identities."""

import pytest

from mexparts.mex import identity_p_tt
from mexparts.partitions import enumerate_partitions
from mexparts.stats import _length_rank_crank, verify_section1_identities
from partition_reference import parts_of


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
