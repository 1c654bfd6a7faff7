"""Static checks on the package source, with the standard library's ``ast``."""

import ast
import pathlib

import pytest

import ocon

SOURCES = sorted(pathlib.Path(ocon.__file__).parent.glob("*.py"))


def unused_imports(source):
    """Names that the module-level imports of ``source`` bind and that its
    code never reads (a name listed in a literal ``__all__`` counts as read)."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            read |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_found():
    source = ("import os\nimport numpy as np\nfrom dataclasses import dataclass, field\n"
              "from . import helpers\n__all__ = ['helpers']\n\n"
              "@dataclass\nclass A:\n    x: int = np.int64(os.sep == '/')\n")
    assert unused_imports(source) == [(3, "field")]
