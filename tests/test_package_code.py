"""Every definition in the package is reached by a run of the CLI.

The runs of the digest battery (`test_artifact_digests.BATTERY`) are made
in this process under `sys.setprofile`, recording every package code object
called.  Every `def` and `lambda` in the package, nested ones included,
must be among them or on `CALLED_BY_TESTS_ONLY` with the reason it stays:
code that only tests call is deleted rather than kept for its tests, and
code that a run reaches but the battery misses gets a battery line.  A
class makes no call of its own (a dataclass's methods are generated), so
a class passes if some package module reads its name.
"""
import ast
import functools
import importlib
import os
import sys
from pathlib import Path

import pytest

import nonstat_dyn
from test_artifact_digests import BATTERY, run_digests

PACKAGE = Path(nonstat_dyn.__file__).parent

# definitions that no battery run reaches, each with why it stays
CALLED_BY_TESTS_ONLY = {
    "GridDensity.scaled": "acceptance criterion 7 calls it",
    "apply_sequence": "the acceptance tests call it",
    "ParameterSequence.constant": "acceptance criterion 9 calls it",
    "UlamOperator.matrix": "acceptance criterion 4 and the product "
                           "oracles read it",
    "osc_integral": "exported from __init__",
    "diffusive_coupling": "the einsum oracle in test_network.py calls it",
    "UlamOperator.__init__": "it only raises",
    "UlamOperator.__setattr__": "it only raises",
    "_load_sparsetools": "it runs at import, before any run",
    # the battery runs on one CPU, so no helper is forked; the both-path
    # tests of test_transfer.py and test_network.py run these
    "cpu_idle": "helper side, off in the battery",
    "runnable_elsewhere": "helper side, off in the battery",
    "fork": "helper side, off in the battery",
    "receive": "helper side, off in the battery",
    "reap": "helper side, off in the battery",
    "_build_every_other_run": "helper side, off in the battery",
    "_read_frame": "helper side, off in the battery",
}


def _functions(tree, scope=""):
    """(qualified name, first line, name) of every def and lambda in
    `tree`, nested ones included: the first line is the one the code
    object reports, a decorator's when there is one, and the name is
    `co_name`."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = scope + node.name
            first = min([node.lineno]
                        + [d.lineno for d in node.decorator_list])
            yield qualname, first, node.name
            yield from _functions(node, qualname + ".<locals>.")
        elif isinstance(node, ast.Lambda):
            qualname = f"{scope}<lambda>@{node.lineno}"
            yield qualname, node.lineno, "<lambda>"
            yield from _functions(node, qualname + ".<locals>.")
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, scope + node.name + ".")
        else:
            yield from _functions(node, scope)


def _reads(tree):
    """Identifiers read as a name or an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            yield node.attr


def _modules():
    return {path: ast.parse(path.read_text())
            for path in sorted(PACKAGE.glob("*.py"))}


def _package_caches() -> set:
    """Every `functools.lru_cache` defined at the top level of a package
    module, found by looking, so that a new cache is cleared too."""
    caches = set()
    for path in sorted(PACKAGE.glob("*.py")):
        name = nonstat_dyn.__name__ if path.stem == "__init__" else (
            f"{nonstat_dyn.__name__}.{path.stem}")
        for value in vars(importlib.import_module(name)).values():
            if (isinstance(value, functools._lru_cache_wrapper)
                    and value.__module__ == name):
                caches.add(value)
    return caches


def test_every_package_cache_is_found():
    found = {f"{cache.__module__}.{cache.__qualname__}"
             for cache in _package_caches()}
    assert {"nonstat_dyn.maps._pm_shape", "nonstat_dyn.maps._lsv_shape",
            "nonstat_dyn.transfer._chord_grid",
            "nonstat_dyn.transfer._shape_values",
            "nonstat_dyn.transfer._chord_buffer"} <= found


def _battery_calls(tmp_path, monkeypatch) -> set:
    """(file, first line, name) of each package code object called while
    the battery runs in this process.  Every cache is cleared first, since
    a hit skips the call.  The process is shown one CPU, so `can_fork`
    refuses every helper and the set does not depend on the machine."""
    for cache in _package_caches():
        cache.cache_clear()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    package = str(PACKAGE) + os.sep
    calls = set()

    def record(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(package):
                calls.add((code.co_filename, code.co_firstlineno,
                           code.co_name))

    sys.setprofile(record)
    try:
        for name, argv in BATTERY.items():
            run_digests(argv, str(tmp_path / name))
    finally:
        sys.setprofile(None)
    return calls


@pytest.fixture(scope="module")
def battery_calls(tmp_path_factory):
    with pytest.MonkeyPatch.context() as monkeypatch:
        return _battery_calls(tmp_path_factory.mktemp("battery"),
                              monkeypatch)


def test_every_function_is_reached_by_the_battery(battery_calls):
    unreached, keys = {}, []
    for path, tree in _modules().items():
        for qualname, first, name in _functions(tree):
            keys.append((str(path), first, name))
            if keys[-1] not in battery_calls:
                unreached[qualname] = f"{path.name}:{first}"
    # a code object names its file, first line and name only: two lambdas
    # on one line would pass as one
    assert len(set(keys)) == len(keys)
    assert {q: where for q, where in unreached.items()
            if q not in CALLED_BY_TESTS_ONLY} == {}
    # an entry the battery now reaches, or that names nothing, is stale
    assert sorted(set(CALLED_BY_TESTS_ONLY) - set(unreached)) == []


def test_every_class_is_referenced_by_package_code():
    trees = {path.name: tree for path, tree in _modules().items()
             if path.name != "__init__.py"}
    reads = {ident for tree in trees.values() for ident in _reads(tree)}
    unreferenced = [f"{module}: {node.name}"
                    for module, tree in trees.items()
                    for node in tree.body
                    if isinstance(node, ast.ClassDef)
                    and node.name not in reads
                    and node.name not in CALLED_BY_TESTS_ONLY]
    assert unreferenced == []
