"""Guard: the package holds no library code that only the tests call.

Every top-level function and class in ``src/orthobranch/*.py`` must be
referenced by other library code or exported by ``orthobranch/__init__.py``;
helpers that only the tests need live under ``tests/``.  References are
matched by name in the syntax tree (names, attributes and imported aliases),
not in docstrings or comments; an import that nothing uses does not count.
"""
import ast
from pathlib import Path

import orthobranch

PACKAGE = Path(orthobranch.__file__).resolve().parent
ENTRY_POINTS = {"cli.main"}  # the console script


def _names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def unused_definitions(trees, exported):
    """Qualified names of the top-level functions and classes in the module
    trees {name: ast.Module} that no other top-level statement uses and that
    are not in exported."""
    uses = [(top, set(_names(top))) for tree in trees.values() for top in tree.body
            if not isinstance(top, (ast.Import, ast.ImportFrom))]
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, kinds) or node.name in exported:
                continue
            if not any(node.name in names for top, names in uses if top is not node):
                unused.append(f"{module}.{node.name}")
    return unused


def test_every_definition_is_used_by_the_library():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(PACKAGE.glob("*.py"))}
    exported = set(_names(trees.pop("__init__")))
    unused = [name for name in unused_definitions(trees, exported)
              if name not in ENTRY_POINTS]
    assert unused == [], f"library code that no library code uses: {unused}"


def test_the_guard_sees_what_only_imports_or_recursion_reach():
    trees = {
        "a": ast.parse("def used():\n    return 1\n\n"
                       "def recursive(k):\n    return recursive(k - 1)\n\n"
                       "class Exported:\n    pass\n"),
        "b": ast.parse("from a import used, recursive\n\n"
                       "def caller():\n    return used()\n"),
    }
    assert unused_definitions(trees, {"Exported", "caller"}) == ["a.recursive"]
