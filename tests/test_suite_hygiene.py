"""Checks on the test modules themselves, with the standard library's ast.

A test function defined twice in one module is collected once: the second
definition rebinds the name and the first never runs.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def _top_level_names(tree):
    """The names a module's own statements bind, one entry per binding;
    `import a.b` binds `a` and is left out, as importing several submodules
    of one package rebinds it on purpose."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (leaf.id for leaf in ast.walk(target) if isinstance(leaf, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.asname or alias.name for alias in node.names
                        if isinstance(node, ast.ImportFrom) or alias.asname)


def test_no_test_module_binds_a_top_level_name_twice():
    twice = []
    for path in sorted(TESTS.glob("*.py")):
        names = list(_top_level_names(ast.parse(path.read_text(encoding="utf-8"))))
        twice += sorted(f"{path.name}: {name}" for name in set(names) if names.count(name) > 1)
    assert twice == []
