"""Guard: the package holds no library code that only the tests call.

Every top-level function and class in ``src/orthobranch/*.py`` must be
referenced by other library code or exported by ``orthobranch/__init__.py``;
every method must be named by library code outside its own body; and every
export must be used by library code (its own definition aside) or by the
benchmark in ``bench/``, unless ``PAPER_API`` names it as a result of the
paper offered to users.  Helpers that only the tests need live under
``tests/``.  References are matched by name in the syntax tree (names,
attributes and imported aliases), not in docstrings or comments; an import
that nothing uses does not count, and is itself an error: every name a
library module imports must be used by that module.
"""
import ast
from pathlib import Path

import orthobranch

PACKAGE = Path(orthobranch.__file__).resolve().parent
BENCH = PACKAGE.parent.parent / "bench"
ENTRY_POINTS = {"cli.main"}  # the console script
PAPER_API = {  # exports no library code calls, each with its role in the paper
    "positive_system",  # the integral positive system that fixes a base point's chamber
    "lattice_path",  # the in-region unit-step path along which a multiplicity stays constant
    "reduced_family",  # the labels of a reduced coherent family around its base
    "bracket",  # the commutation relations of o(n+1) as elements of U(o(n+1))
    "monomial",  # a raw word of U(o(n+1)) before normal ordering
    "standard_rep",  # the defining representation F that the coupled powers act through
    "det_twisted",  # pi (x) det, the second member of each det-twist pair
    "b_reconstruct",  # the power coefficient b^(ell) interpolated into a polynomial
}


def _names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def _is_import(node):
    return isinstance(node, (ast.Import, ast.ImportFrom))


def unused_definitions(trees, exported):
    """Qualified names of the top-level functions and classes in the module
    trees {name: ast.Module} that no other top-level statement uses and that
    are not in exported."""
    uses = [(top, set(_names(top))) for tree in trees.values() for top in tree.body
            if not _is_import(top)]
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, kinds) or node.name in exported:
                continue
            if not any(node.name in names for top, names in uses if top is not node):
                unused.append(f"{module}.{node.name}")
    return unused


def uncalled_methods(trees):
    """Qualified names of the methods (dunder methods aside) that no statement
    of the module trees names outside the method's own body."""
    units = [(node, set(_names(node))) for tree in trees.values() for top in tree.body
             for node in (top.body if isinstance(top, ast.ClassDef) else [top])
             if not _is_import(node)]
    uncalled = []
    for module, tree in trees.items():
        for cls in (top for top in tree.body if isinstance(top, ast.ClassDef)):
            for node in cls.body:
                if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        or (node.name.startswith("__") and node.name.endswith("__"))):
                    continue
                if not any(node.name in names for unit, names in units if unit is not node):
                    uncalled.append(f"{module}.{cls.name}.{node.name}")
    return uncalled


def unused_imports(trees):
    """Qualified names 'module.name' of the names that an import statement of
    a module tree binds and that no name in the module reads."""
    unused = []
    for module, tree in trees.items():
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not _is_import(node) or getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read:
                    unused.append(f"{module}.{bound}")
    return unused


def unused_exports(trees, init, outside):
    """Names the package module init re-exports from the module trees that no
    top-level statement other than their own definition uses and that are
    not among the names outside."""
    exported = [alias.name for node in init.body if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    uses = [(top, set(_names(top))) for tree in trees.values() for top in tree.body
            if not _is_import(top)]

    def defines(top, name):
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return top.name == name
        return isinstance(top, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in top.targets)

    return [name for name in exported if name not in outside and not any(
        name in names and not defines(top, name) for top, names in uses)]


def _package_trees():
    return {p.stem: ast.parse(p.read_text(encoding="utf-8"))
            for p in sorted(PACKAGE.glob("*.py"))}


def test_every_definition_is_used_by_the_library():
    trees = _package_trees()
    exported = set(_names(trees.pop("__init__")))
    unused = [name for name in unused_definitions(trees, exported)
              if name not in ENTRY_POINTS]
    assert unused == [], f"library code that no library code uses: {unused}"


def test_every_method_is_called_by_the_library():
    trees = _package_trees()
    trees.pop("__init__")
    assert uncalled_methods(trees) == []


def test_every_import_is_used():
    trees = _package_trees()
    trees.pop("__init__")   # its imports are the exports
    assert unused_imports(trees) == []


def test_every_export_is_used_or_paper_api():
    trees = _package_trees()
    init = trees.pop("__init__")
    bench = {name for p in sorted(BENCH.glob("*.py"))
             for name in _names(ast.parse(p.read_text(encoding="utf-8")))}
    assert sorted(unused_exports(trees, init, bench | PAPER_API)) == []
    # an allow-listed name that is no longer exported, or that library code
    # now uses, leaves the list
    assert sorted(unused_exports(trees, init, bench)) == sorted(PAPER_API)


def test_the_guard_sees_what_only_imports_or_recursion_reach():
    trees = {
        "a": ast.parse("def used():\n    return 1\n\n"
                       "def recursive(k):\n    return recursive(k - 1)\n\n"
                       "class Exported:\n    pass\n"),
        "b": ast.parse("from __future__ import annotations\n"
                       "import os.path\n"
                       "from a import used, recursive\n"
                       "from a import Exported as Alias\n\n"
                       "def caller():\n    from json import dumps, loads\n"
                       "    return dumps(used(), os.sep)\n"),
    }
    assert unused_definitions(trees, {"Exported", "caller"}) == ["a.recursive"]
    assert unused_imports(trees) == ["b.recursive", "b.Alias", "b.loads"]


def test_the_guard_sees_uncalled_methods_and_unused_exports():
    trees = {
        "a": ast.parse("class Model:\n"
                       "    def __init__(self):\n        self.rows = self.build()\n\n"
                       "    def build(self):\n        return []\n\n"
                       "    def recurse(self, k):\n        return self.recurse(k - 1)\n\n"
                       "    def only_tested(self):\n        return 1\n\n"
                       "def helper():\n    return Model()\n\n"
                       "def exported_only():\n    return helper()\n"),
        "b": ast.parse("from a import helper\n\n"
                       "def caller():\n    return helper()\n"),
    }
    assert uncalled_methods(trees) == ["a.Model.recurse", "a.Model.only_tested"]
    init = ast.parse("from .a import exported_only, helper\n"
                     "from .b import caller\n")
    assert unused_exports(trees, init, set()) == ["exported_only", "caller"]
    assert unused_exports(trees, init, {"caller"}) == ["exported_only"]
