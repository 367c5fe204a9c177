"""Run the committed CLI configs in process and compare two output trees.

Each ``<subcommand>.<name>.json`` in ``tests/cli_configs`` is one run
config; the part of its file name before the first dot is the subcommand.
Tier-1 imports this module; the pull-request check runs it once with the
base tree's ``src`` on PYTHONPATH and once with the head's, then compares:

    python tests/cli_runs.py run CONFIG_DIR OUT_DIR
    python tests/cli_runs.py compare BASE_OUT HEAD_OUT

``run`` writes the two curve files the verify-width configs name into
OUT_DIR, runs every config there through ``sphericity.cli.main``, leaves
each config's outputs in ``OUT_DIR/<config>/`` and records each exit code,
stdout and stderr in ``OUT_DIR/runs.json``.  ``compare`` prints one line
for each config's exit code, stdout and stderr and one for each file it
wrote, ``same`` or ``DIFFERS``; it only reports.
"""

import argparse
import base64
import contextlib
import csv
import difflib
import io
import json
import math
import os
import re
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sphericity import (SpaceForm, make_lune, make_support_curve, save_curve,
                        spindle_optimum)
from sphericity.cli import main
from sphericity.io import curve_to_dict

CONFIG_DIR = Path(__file__).resolve().parent / "cli_configs"
RUNS = "runs.json"
_TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')


def configs(directory=CONFIG_DIR) -> list:
    """The config files in ``directory``, sorted by name."""
    return sorted(Path(directory).glob("*.json"))


def load(name: str) -> dict:
    """The committed config ``tests/cli_configs/<name>.json``."""
    return json.loads((CONFIG_DIR / f"{name}.json").read_text())


def _b64(values) -> str:
    return base64.b64encode(
        np.ascontiguousarray(values, "<f8").tobytes()).decode()


def reversed_curve(curve) -> dict:
    """The curve file of ``curve`` with its samples in reverse order: coords,
    arc lengths from 0, corners, and tangents negated, so that each still
    lies between the chords to its neighbours."""
    return dict(curve_to_dict(curve), coords=_b64(curve.points[::-1]),
                s=_b64(curve.s[-1] - curve.s[::-1]),
                tangent=_b64(-curve.tangents[::-1]),
                corners=sorted((curve.n - 1
                                - np.flatnonzero(curve.corner)).tolist()))


def write_curve_files(directory) -> None:
    """Write the curve files the verify-width configs name into
    ``directory``: ``cli-lune.curve.json`` (verify-width.file), an H² lune,
    and ``cli-clockwise.curve.json`` (verify-width.clockwise), a flat
    support curve with its samples reversed."""
    directory = Path(directory)
    h2 = SpaceForm.hyperbolic(1.0)
    save_curve(make_lune(h2, 2.0, spindle_optimum(h2, 2.0).r0, n=4096),
               directory / "cli-lune.curve.json")
    (directory / "cli-clockwise.curve.json").write_text(json.dumps(
        reversed_curve(make_support_curve(1.0, {2: (0.05, 0.02)},
                                          k0_target=0.5, n=256))))


@dataclass(frozen=True)
class Run:
    """One config's run: exit code, stdout, stderr and the text of each
    file written, ``report.json`` with its timestamp nulled."""

    exit_code: int
    stdout: str
    stderr: str
    files: dict


def run_config(path, out_dir) -> Run:
    """Run the config file ``path`` under its subcommand with ``--out
    out_dir --format both``, in the working directory.  The nulled
    timestamp is also written back to ``out_dir/report.json``."""
    path, out_dir = Path(path), Path(out_dir)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        code = main([path.name.split(".")[0], "--config", str(path),
                     "--out", str(out_dir), "--format", "both"])
    files = {}
    for file in sorted(out_dir.glob("*")):
        text = file.read_text()
        if file.name == "report.json":
            text = _TIMESTAMP.sub('"timestamp": null', text)
            file.write_text(text)
        files[file.name] = text
    return Run(code, stdout.getvalue(), stderr.getvalue(), files)


def _record(exit_code, stdout, stderr) -> dict:
    return {"exit code": exit_code, "stdout": stdout, "stderr": stderr}


def run_all(config_dir, out_dir) -> None:
    """Write the curve files into ``out_dir`` and run every config of
    ``config_dir`` there; a config that raises is recorded as the
    interpreter would end it, exit 1 with the traceback on stderr."""
    config_dir, out_dir = Path(config_dir).resolve(), Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    os.chdir(out_dir)
    write_curve_files(".")
    runs = {}
    for path in configs(config_dir):
        try:
            result = run_config(path, path.stem)
            runs[path.stem] = _record(result.exit_code, result.stdout,
                                      result.stderr)
        except Exception:
            runs[path.stem] = _record(1, "", traceback.format_exc())
    Path(RUNS).write_text(json.dumps(runs, indent=1) + "\n")


def _same_cell(a: str, b: str) -> bool:
    """Equal as doubles when both read as floats (the sign of -0.0 kept,
    NaN equal to NaN), else equal as text."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return a == b
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return x == y and math.copysign(1, x) == math.copysign(1, y)


def _csv_values(base: Path, head: Path) -> str:
    """Whether two CSV files hold the same rows and columns of equal
    values."""
    try:
        rows = [list(csv.reader(path.open(newline=""))) for path in (base,
                                                                     head)]
    except OSError:
        return "values differ"
    equal = len(rows[0]) == len(rows[1]) and all(
        len(a) == len(b) and all(map(_same_cell, a, b))
        for a, b in zip(*rows))
    return "values equal" if equal else "values differ"


def _read(path: Path):
    return path.read_bytes() if path.is_file() else None


def _file_lines(base: Path, head: Path, rel: str) -> list:
    """``same`` or ``DIFFERS`` for one file, with whether a CSV holds equal
    values and the moved lines of a layer_report.json."""
    a, b = _read(base / rel), _read(head / rel)
    if a is not None and a == b:
        return [f"same     ./{rel}"]
    if rel.endswith(".csv"):
        return [f"DIFFERS ({_csv_values(base / rel, head / rel)})  ./{rel}"]
    lines = [f"DIFFERS  ./{rel}"]
    if rel.endswith("layer_report.json"):
        lines += difflib.unified_diff(
            (a or b"").decode().splitlines(), (b or b"").decode().splitlines(),
            f"base/{rel}", f"head/{rel}", n=0, lineterm="")
    return lines


def _runs(tree: Path) -> dict:
    path = tree / RUNS
    return json.loads(path.read_text()) if path.is_file() else {}


def _written(tree: Path, name: str) -> list:
    return sorted(p.name for p in (tree / name).glob("*") if p.is_file())


def compare(base, head) -> list:
    """The lines comparing two trees ``run_all`` wrote: for each config, its
    exit code, stdout and stderr on both sides, then each file either side
    wrote.  A config run on one side only is marked ``base only`` or
    ``head only``, with each file it wrote."""
    trees = {"base": Path(base), "head": Path(head)}
    runs = {side: _runs(tree) for side, tree in trees.items()}
    lines = []
    for name in sorted(runs["base"].keys() | runs["head"].keys()):
        sides = [side for side in trees if name in runs[side]]
        if len(sides) == 1:
            (side,) = sides
            lines.append(f"{side} only  {name} " + ", ".join(
                f"{label} {value!r}"
                for label, value in runs[side][name].items()))
            lines += [f"{side} only  ./{name}/{file}"
                      for file in _written(trees[side], name)]
            continue
        for label, a in runs["base"][name].items():
            b = runs["head"][name].get(label)
            verdict = "same    " if a == b else "DIFFERS "
            lines.append(f"{verdict} {name} {label}: base {a!r}, head {b!r}")
        for file in sorted({file for tree in trees.values()
                            for file in _written(tree, name)}):
            lines += _file_lines(*trees.values(), f"{name}/{file}")
    return lines


def _main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the CLI configs, or compare two runs' outputs.")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="run every config of CONFIG_DIR")
    p.add_argument("config_dir")
    p.add_argument("out_dir")
    p = sub.add_parser("compare", help="compare two run output trees")
    p.add_argument("base")
    p.add_argument("head")
    args = parser.parse_args(argv)
    if args.command == "run":
        run_all(args.config_dir, args.out_dir)
    else:
        print("\n".join(compare(args.base, args.head)))
    return 0


if __name__ == "__main__":
    sys.exit(_main())
