"""The package API: each module's ``__all__``, re-exported once."""

import mexparts
from mexparts import (
    congruences,
    mex,
    partitions,
    reports,
    series,
    singular,
    stats,
    suites,
)

MODULES = (series, partitions, mex, singular, stats, reports, congruences, suites)


def test_package_all_is_the_concatenation_of_the_module_lists():
    assert mexparts.__all__ == [name for module in MODULES for name in module.__all__]


def test_package_all_has_no_duplicates():
    assert len(mexparts.__all__) == len(set(mexparts.__all__))


def test_every_name_resolves_to_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(mexparts, name) is getattr(module, name), name


def test_the_added_names_are_exported():
    added = {
        "ARG_CAP", "FAILURE_CAP", "FAMILY_IDS", "MEX_ORACLE_BOUND", "SINGULAR_ORACLE_BOUND",
        "partition_support_sum", "series_order", "suite_bounds", "support_p_tt", "support_p_2tt",
    }
    assert added <= set(mexparts.__all__)
