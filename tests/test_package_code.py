"""Every definition in the package is named by the package itself.

A top-level function or class, or a public method, whose name appears in no
package module but on its own `def`/`class` line (the `__init__` exports
aside) is code that only tests call; it is deleted rather than kept for its
tests.
"""
import ast
import re
from pathlib import Path

import nonstat_dyn

PACKAGE = Path(nonstat_dyn.__file__).parent

# public API that the acceptance tests call and no run needs
CALLED_BY_TESTS_ONLY = {"GridDensity.scaled", "apply_sequence"}


def _definitions(tree):
    """(qualified name, identifier, line) of each top-level def and class,
    and of each public method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item.name, item.lineno


def test_every_definition_is_referenced_by_package_code():
    lines = {path.name: path.read_text().splitlines()
             for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "__init__.py"}
    unreferenced = []
    for module, source in lines.items():
        tree = ast.parse("\n".join(source))
        for qualname, ident, lineno in _definitions(tree):
            word = re.compile(rf"\b{ident}\b")
            uses = sum(1 for other, text in lines.items()
                       for k, line in enumerate(text, start=1)
                       if word.search(line)
                       and (other, k) != (module, lineno))
            if uses == 0 and qualname not in CALLED_BY_TESTS_ONLY:
                unreferenced.append(f"{module}: {qualname}")
    assert unreferenced == []
