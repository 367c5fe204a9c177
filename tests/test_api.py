"""The public API is what the package, the demos, the benchmark and the
acceptance criteria use: every ``sphericity.__all__`` name has a reader
there, not only in the unit tests.  The guards and verdict tolerances have
one reader, the verdict core in ``bounds.py``."""

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


DEFAULTS = {"DEFAULT_K0_GUARD", "DEFAULT_H_GUARD", "DEFAULT_SLACK_TOL",
            "DEFAULT_MARGIN_TOL"}
#: where a guard or verdict tolerance may be read: the verdict core in
#: bounds.py, and two estimator parameters of the incenter search
DEFAULT_READERS = {PACKAGE / "layers.py": {"import", "_contacts", "incenter"}}


def _default_reads(path: Path) -> set:
    """(top-level statement, name) for each DEFAULT_* name a module reads
    or imports; the statement is a def or class name, or "import"."""
    found = set()
    for top in ast.parse(path.read_text()).body:
        where = "import" if isinstance(top, (ast.Import, ast.ImportFrom)) \
            else getattr(top, "name", "module level")
        for node in ast.walk(top):
            name = getattr(node, "id", None) or getattr(node, "attr", None) \
                or getattr(node, "name", None)
            if name in DEFAULTS:
                found.add((where, name))
    return found


def test_guards_and_tolerances_are_read_only_by_the_verdict_core():
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "bounds.py"]
    paths += sorted((ROOT / "demos").glob("*.py"))
    paths += sorted((ROOT / "certbench").glob("*.py"))
    stray = {(str(p.relative_to(ROOT)), where, name)
             for p in paths for where, name in _default_reads(p)
             if where not in DEFAULT_READERS.get(p, set())}
    assert not stray, f"guards or tolerances read outside bounds.py: {stray}"
