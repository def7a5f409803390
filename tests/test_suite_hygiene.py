"""Checks on the test modules and the benchmark's tracer, with the standard
library's ast.

A test function defined twice in one module is collected once: the second
definition rebinds the name and the first never runs.  A tracer target that
no longer names a function in src/ fails only the traced benchmark run.
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


def _tracer_targets():
    """The (module, function) pairs of bench/tracer.py's TARGETS, read
    without importing it."""
    tree = ast.parse((TESTS.parent / "bench" / "tracer.py").read_text(encoding="utf-8"))
    value = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [target.id for target in node.targets] == ["TARGETS"])
    return [tuple(ast.literal_eval(field) for field in entry.elts[:2]) for entry in value.elts]


def test_tracer_targets_resolve_in_src():
    # a renamed or deleted target would only show in the traced benchmark run
    targets = _tracer_targets()
    assert targets
    unresolved = []
    for module, function in targets:
        path = TESTS.parent / "src" / Path(*module.split("."))
        path = path / "__init__.py" if path.is_dir() else path.with_suffix(".py")
        names = (set(_top_level_names(ast.parse(path.read_text(encoding="utf-8"))))
                 if path.is_file() else set())
        if function not in names:
            unresolved.append(f"{module}.{function}")
    assert unresolved == []
