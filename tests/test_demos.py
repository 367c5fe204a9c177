"""Every demo runs cleanly, and every name it imports is public API; the
package and its command line run with numpy alone."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sphericity

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _package_env() -> dict:
    """The environment with this checkout's package on PYTHONPATH."""
    package_root = str(Path(sphericity.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_are_public(path):
    tree = ast.parse(path.read_text())
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and node.module == "sphericity" for alias in node.names]
    assert imported
    assert set(imported) <= set(sphericity.__all__)


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path):
    proc = subprocess.run([sys.executable, str(path)], capture_output=True,
                          text=True, env=_package_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout


def test_package_and_cli_run_without_scipy(tmp_path):
    # importing the package loads no scipy module, and the README's example
    # config, committed as verify-angle.readme.json, runs through the CLI
    # with scipy blocked
    readme = (ROOT / "README.md").read_text()
    config = ROOT / "tests" / "cli_configs" / "verify-angle.readme.json"
    assert json.loads(re.search(r"```json\n(.*?)```", readme, re.S).group(1)) \
        == json.loads(config.read_text())
    script = ("import sys\n"
              "import sphericity, sphericity.cli\n"
              "loaded = [m for m in sys.modules if m.startswith('scipy')]\n"
              "assert not loaded, loaded\n"
              "sys.modules['scipy'] = None\n"
              "sys.exit(sphericity.cli.main(sys.argv[1:]))\n")
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-c", script, "verify-angle", "--config",
         str(config), "--out", str(out)], capture_output=True, text=True,
        env=_package_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("PASS: ")
    assert (out / "report.json").exists()
