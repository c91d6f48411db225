"""The package API: each module's ``__all__``, re-exported once."""

import ast
import os
import subprocess
import sys
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


def _lower_bound_messages(tree: ast.AST) -> list[tuple[int, str]]:
    # string literals, f-string parts included, that word a lower bound
    wordings = ("must be positive", "must be non-negative")
    return [
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and any(wording in node.value for wording in wordings)
    ]


def test_only_the_series_module_words_a_lower_bound():
    # every other module states "a positive or non-negative int" through
    # series._require_size, which checks the type together with the bound
    hits = {
        path.name: _lower_bound_messages(ast.parse(path.read_text(), filename=str(path)))
        for path in sorted(Path(mexparts.__file__).parent.glob("*.py"))
        if path.name != "series.py"
    }
    assert {name: found for name, found in hits.items() if found} == {}


def test_the_lower_bound_scan_sees_plain_and_formatted_strings():
    tree = ast.parse('raise ValueError("t must be positive")\nraise ValueError(f"{name} must be non-negative")\n')
    assert _lower_bound_messages(tree) == [(1, "t must be positive"), (2, " must be non-negative")]


def _modules_loaded(code: str) -> set[str]:
    # the modules a fresh interpreter holds after running code, with this
    # package on its path
    src = str(Path(mexparts.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = f"{code}\nimport sys\nprint(*sys.modules)"
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    return set(out.stdout.split())


def test_the_cli_loads_none_of_dataclasses_inspect_or_array():
    # against a bare interpreter, so a module that site loads at start-up
    # does not count against the import
    added = _modules_loaded("import mexparts.cli") - _modules_loaded("pass")
    assert "mexparts.cli" in added
    assert not added & {"dataclasses", "inspect", "array"}, sorted(added)


def _package_modules_loaded(code: str) -> set[str]:
    # the mexparts modules a fresh interpreter holds after running code
    return {name for name in _modules_loaded(code) if name.split(".")[0] == "mexparts"}


def _after_cli(argv: str) -> set[str]:
    # the mexparts modules main(argv) loads in a fresh process, its output
    # discarded; no command loads dataclasses or inspect
    loaded = _modules_loaded(
        "import contextlib, io\nfrom mexparts.cli import main\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n    main({argv.split()!r})"
    )
    assert not loaded & {"dataclasses", "inspect"}, argv
    return {name for name in loaded if name.split(".")[0] == "mexparts"}


LEAN = {"mexparts", "mexparts.cli", "mexparts.partitions", "mexparts.series"}


def test_a_bare_import_loads_no_submodule():
    assert _package_modules_loaded("import mexparts") == {"mexparts"}


def test_compute_p_loads_only_the_table_modules():
    assert _after_cli("compute p --n-max 10") == LEAN


def test_compute_singular_adds_only_the_singular_module():
    assert _after_cli("compute singular --k 5 --i 2 --n-max 10") == LEAN | {"mexparts.singular"}


def test_verify_all_loads_every_module():
    loaded = _after_cli("verify all")
    assert loaded == {"mexparts", "mexparts.cli"} | {module.__name__ for module in MODULES}
    assert len(loaded) == 10


def test_a_star_import_binds_every_name_to_its_module_object():
    # in a fresh process, where no submodule is loaded before the star import
    script = (
        "from mexparts import *\n"
        "import mexparts, sys\n"
        "for module in ('series', 'partitions', 'mex', 'singular', 'stats', 'reports', 'congruences', 'suites'):\n"
        "    module = sys.modules['mexparts.' + module]\n"
        "    for name in module.__all__:\n"
        "        assert globals()[name] is getattr(module, name), name\n"
    )
    assert _package_modules_loaded(script) == {"mexparts"} | {module.__name__ for module in MODULES}


def test_an_unknown_name_raises_attribute_error_and_loads_nothing():
    loaded = _package_modules_loaded(
        "import mexparts\ntry:\n    mexparts.no_such_name\nexcept AttributeError:\n    pass\n"
        "else:\n    raise SystemExit('no AttributeError')\n"
        "assert not hasattr(mexparts, 'no_such_name')"
    )
    assert loaded == {"mexparts"}


def test_a_submodule_name_loads_that_submodule_only():
    loaded = _package_modules_loaded(
        "import mexparts\nfrom mexparts import partitions\n"
        "assert mexparts.partitions is partitions and partitions.partition_count(5) == 7"
    )
    assert loaded == {"mexparts", "mexparts.partitions", "mexparts.series"}


def test_dir_lists_every_exported_name():
    assert set(mexparts.__all__) <= set(dir(mexparts))
    assert {"__all__", "__version__"} <= set(dir(mexparts))
