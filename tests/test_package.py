"""The package API: each module's ``__all__``, re-exported once."""

import ast
from pathlib import Path

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
        "SERIES_ORDER_BOUND", "suite_bounds", "support_p_tt", "support_p_2tt",
    }
    assert added <= set(mexparts.__all__)


def test_no_module_imports_a_name_it_never_uses():
    # a name an import binds must be read somewhere in its module; star and
    # __future__ imports bind none
    for path in sorted(Path(mexparts.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
            if alias.name != "*"
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = imported - used
        assert not unused, f"{path.name} imports {sorted(unused)} and never uses them"
