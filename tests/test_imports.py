"""No module of the package imports a name it never uses.

No linter runs on this repository, and deleting code is what leaves
unused imports behind; this check reads each module's syntax tree.
"""

import ast
from pathlib import Path

import pytest

import questkg

PACKAGE = Path(questkg.__file__).resolve().parent


def unused_imports(source):
    """Names bound by an import that no expression reads.  A name listed in
    __all__ counts as unused too: the package re-exports nothing."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os, sys\nimport numpy as np\n"
              "from json import dumps, loads\nfrom .kg import Triple\n"
              "__all__ = ['Triple']\n"
              "def f(x: np.ndarray):\n    return sys.argv, loads(x)\n")
    assert unused_imports(source) == ["os", "dumps", "Triple"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text()) == []


# --- every module-level name is used by a program ---------------------------

ROOT = PACKAGE.parents[1]
# The package's own modules (its __init__ holds only a docstring), the
# demos and the benchmark.
MODULES = [path for path in sorted(PACKAGE.glob("*.py"))
           if path.name != "__init__.py"]
PROGRAMS = (MODULES + sorted((ROOT / "demos").glob("*.py"))
            + sorted((ROOT / "perfbench").glob("*.py")))
TESTS = sorted((ROOT / "tests").glob("*.py"))
# validate_against_game is the only reachability check of a game's [dag]
# section: no program runs it, but the tests run it on the bundled games.
TEST_ONLY = ["validate_against_game"]


def referenced_names(tree, skip=None):
    """Names read as a Name, an Attribute or an import in the tree, leaving
    out the subtree skip."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {a.name.split(".")[-1] for a in node.names}
        stack.extend(ast.iter_child_nodes(node))
    return names


def defined_names(node):
    """The names a module-level statement defines: a function, a class or
    the plain-name targets of an assignment (not __all__)."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [t.id for t in targets
            if isinstance(t, ast.Name) and t.id != "__all__"]


def names_no_program_uses(modules, programs):
    """Module-level functions, classes and constants of the modules that no
    program (the modules among them) references outside their own
    definition."""
    trees = {path: ast.parse(path.read_text()) for path in programs}
    unused = []
    for path in modules:
        tree = trees[path]
        elsewhere = set().union(*(referenced_names(t) for p, t in trees.items()
                                  if p != path))
        for node in tree.body:
            unused += [name for name in defined_names(node)
                       if name not in elsewhere
                       and name not in referenced_names(tree, skip=node)]
    return unused


def test_names_no_program_uses_are_found(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("__all__ = []\nTABLE = {}\nLIMIT: int = 3\n"
                      "SHARED = 'x'\n\n"
                      "def used():\n    return TABLE\n\n"
                      "def recursive(n):\n    return recursive(n - 1)\n\n"
                      "class Unused:\n    pass\n\n"
                      "def caller():\n    return used()\n")
    demo = tmp_path / "demo.py"
    demo.write_text("import mod\nmod.caller()\nprint(mod.SHARED)\n")
    assert names_no_program_uses([module], [module, demo]) == [
        "LIMIT", "recursive", "Unused"]


def test_every_module_level_name_is_used_by_a_program():
    assert names_no_program_uses(MODULES, PROGRAMS) == TEST_ONLY
    # and each test-only name by a test
    assert names_no_program_uses(MODULES, PROGRAMS + TESTS) == []
