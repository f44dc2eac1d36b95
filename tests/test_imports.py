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
    """Names bound by an import that no expression reads, unless the module
    lists them in __all__ (a re-export)."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os, sys\nimport numpy as np\n"
              "from json import dumps, loads\nfrom .kg import Triple\n"
              "__all__ = ['Triple']\n"
              "def f(x: np.ndarray):\n    return sys.argv, loads(x)\n")
    assert unused_imports(source) == ["os", "dumps"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text()) == []
