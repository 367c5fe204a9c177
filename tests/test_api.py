"""The public API is what the package, the demos, the benchmark and the
acceptance criteria use: every ``sphericity.__all__`` name has a reader
there, not only in the unit tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sphericity"


def _exported() -> list:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("sphericity/__init__.py defines no __all__")


def _identifiers(path: Path) -> set:
    """Names a module reads: loaded names, attributes and imported names."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
    return found


def test_every_public_name_has_a_reader_outside_the_unit_tests():
    readers = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    readers += sorted((ROOT / "demos").glob("*.py"))
    readers += sorted((ROOT / "certbench").glob("*.py"))
    readers.append(ROOT / "tests" / "test_acceptance.py")
    used = set().union(*map(_identifiers, readers))
    unread = sorted(set(_exported()) - used)
    assert not unread, f"public names read only by the unit tests: {unread}"
