"""The demos stay runnable: every ``ocon`` name they import exists, and the
quick ones run to completion.

Demos 04 and 06 train for several seconds each, so only their imports are
checked here.
"""

import ast
import glob
import importlib
import os
import subprocess
import sys

import pytest

import ocon

DEMO_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")
DEMOS = sorted(glob.glob(os.path.join(DEMO_DIR, "*.py")))
QUICK = ("01", "02", "03", "05")


def test_demo_directory_is_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_imports_resolve(path):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    names = [(node.module, alias.name) for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "ocon"
             for alias in node.names]
    assert names
    for module, name in names:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


@pytest.mark.parametrize("path", [p for p in DEMOS if os.path.basename(p)[:2] in QUICK],
                         ids=os.path.basename)
def test_quick_demo_runs(path, tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(ocon.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, path], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
