"""Every name a demo imports from the package is public API."""

import ast
from pathlib import Path

import pytest

import sphericity

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_are_public(path):
    tree = ast.parse(path.read_text())
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and node.module == "sphericity" for alias in node.names]
    assert imported
    assert set(imported) <= set(sphericity.__all__)
