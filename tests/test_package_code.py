"""Every definition in the package is read by the package itself.

A top-level function or class, or a public method, whose identifier no
package module (the `__init__` exports aside) reads as a name or an
attribute is code that only tests call; it is deleted rather than kept for
its tests.  A docstring, a comment or a string literal naming it is not a
read.
"""
import ast
from pathlib import Path

import nonstat_dyn

PACKAGE = Path(nonstat_dyn.__file__).parent

# public API that no run needs, each with why it stays
CALLED_BY_TESTS_ONLY = {
    "GridDensity.scaled": "acceptance criterion 7 calls it",
    "apply_sequence": "the acceptance tests call it",
    "ParameterSequence.constant": "acceptance criterion 9 calls it",
    "diffusive_coupling": "the einsum oracle in test_network.py calls it",
    "osc_integral": "exported from __init__",
}


def _definitions(tree):
    """(qualified name, identifier) of each top-level def and class, and
    of each public method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item.name


def _reads(tree):
    """Identifiers read as a name or an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            yield node.attr


def test_every_definition_is_referenced_by_package_code():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "__init__.py"}
    reads = {ident for tree in trees.values() for ident in _reads(tree)}
    unreferenced = [f"{module}: {qualname}"
                    for module, tree in trees.items()
                    for qualname, ident in _definitions(tree)
                    if ident not in reads
                    and qualname not in CALLED_BY_TESTS_ONLY]
    assert unreferenced == []
