"""The scripts under ``demos/`` import only names the package still has, and
the quick ones run to the end.  Demo 03 trains three variants on three seeds
(several seconds), so it is only checked for its imports."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import clarinet

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = Path(clarinet.__file__).resolve().parents[1]


def clarinet_imports(path):
    """(module, name) of every ``from clarinet... import name`` in a script."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "clarinet"
            for alias in node.names]


@pytest.mark.parametrize("path", sorted(DEMOS.glob("*.py")), ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    imports = clarinet_imports(path)
    assert imports
    missing = [(module, name) for module, name in imports
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


@pytest.mark.parametrize("name", ["01_unbiased_risk_rewrite.py",
                                  "02_negative_risk_correction.py"])
def test_quick_demo_runs(name):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, str(DEMOS / name)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
