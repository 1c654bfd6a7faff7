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


def dead_private_names(sources):
    """(module, line, name) of each module-level ``_name`` (a function, a
    class or an assignment target; dunders excepted) defined in the
    ``sources`` mapping of module name -> source that no module reads, as a
    name, an attribute or an imported name."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            defined += [(module, node.lineno, name) for name in names
                        if name.startswith("_") and not name[:2] == name[-2:] == "__"]
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                read.add(node.id if isinstance(node, ast.Name) else node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return [entry for entry in defined if entry[2] not in read]


def test_no_dead_private_names():
    assert dead_private_names({p.stem: p.read_text(encoding="utf-8") for p in SOURCES}) == []


def test_dead_private_name_is_found():
    sources = {"a": ("__version__ = '1'\n_dead = 2\n_named = 3\n_x, _y = 4, 5\n"
                     "def _helper():\n    return _named + _x\n\nclass _Orphan:\n    pass\n"
                     "_attr: int = 6\n"),
               "b": "from a import _helper\nimport a\nprint(a._attr)\n"}
    assert dead_private_names(sources) == [("a", 2, "_dead"), ("a", 4, "_y"),
                                           ("a", 8, "_Orphan")]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_found():
    source = ("import os\nimport numpy as np\nfrom dataclasses import dataclass, field\n"
              "from . import helpers\n__all__ = ['helpers']\n\n"
              "@dataclass\nclass A:\n    x: int = np.int64(os.sep == '/')\n")
    assert unused_imports(source) == [(3, "field")]


#: the only ``np.random.<name>(...)`` calls allowed: seeded generators and
#: bit generators, never numpy's global RandomState
SEEDED_RNG_CALLS = {"default_rng", "PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64"}


def global_rng_calls(source):
    """(line, name) of each ``np.random.<name>(...)`` or
    ``numpy.random.<name>(...)`` call in ``source`` that is not in
    ``SEEDED_RNG_CALLS``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        func = node.func if isinstance(node, ast.Call) else None
        if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Attribute)
                and func.value.attr == "random" and isinstance(func.value.value, ast.Name)
                and func.value.value.id in ("np", "numpy")
                and func.attr not in SEEDED_RNG_CALLS):
            found.append((node.lineno, func.attr))
    return found


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_global_rng_calls(path):
    assert global_rng_calls(path.read_text(encoding="utf-8")) == []


def test_global_rng_call_is_found():
    source = ("import numpy\nimport numpy as np\n\nrng = np.random.default_rng(3)\n"
              "bits = np.random.PCG64(4)\nx = np.random.rand(2)\nnp.random.seed(1)\n"
              "y = rng.random(2)\nz = numpy.random.normal(size=3)\n")
    assert global_rng_calls(source) == [(6, "rand"), (7, "seed"), (9, "normal")]
