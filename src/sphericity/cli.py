"""Command-line front end.

Subcommands: verify-angle, verify-width, spindle-table, verify-warped,
sweep.  Each reads a single JSON config (--config), runs the matching
suite, writes the JSON report (and CSV plot data) under --out, and prints
a one-line verdict.  Exit codes: 0 all checks passed, 2 a bound check
failed, 3 a hypothesis violation occurred, 1 usage, config or output error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .errors import GeometryError, NonClosureError
from .reports import emit_plot_data, json_text, result_json, run

_SUBCOMMANDS = {
    "verify-angle": "angle",
    "verify-width": "width",
    "spindle-table": "spindle-table",
    "verify-warped": "warped",
    "sweep": "sweep",
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged."""
    parser = argparse.ArgumentParser(
        prog="sphericity",
        description="Verify sharp roundness bounds for convex curves.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--format", choices=("json", "csv", "both"),
                       default="json")
    return parser


def _describe(exc: Exception) -> str:
    """The exception message followed by its diagnostics that are set."""
    parts = [str(exc)]
    for name in ("residual", "where"):
        value = getattr(exc, name, None)
        if value is not None:
            parts.append(f"{name}={value:.6g}")
    return " ".join(parts)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0

    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: config parse error at line {exc.lineno}, "
              f"column {exc.colno}: {exc.msg}", file=sys.stderr)
        return 1

    if not isinstance(config, dict):
        print("error: config must be a JSON object", file=sys.stderr)
        return 1
    config["suite"] = _SUBCOMMANDS[args.command]
    if args.seed is not None:
        config["seed"] = args.seed

    try:
        result = run(config)
    except (GeometryError, NonClosureError) as exc:
        print(f"error: {_describe(exc)}", file=sys.stderr)
        return 1

    if args.out is not None:
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            if args.format in ("json", "both"):
                (out_dir / "report.json").write_text(result_json(result))
                layer = result.metadata.get("layer_report")
                if layer is not None:
                    (out_dir / "layer_report.json").write_text(
                        json_text(layer))
            if args.format in ("csv", "both"):
                for kind in result.series:
                    emit_plot_data(result, kind, out_dir / f"{kind}.csv")
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return 1

    n_checks = len(result.checks)
    n_fail = sum(c["verdict"] != "pass" for c in result.checks)
    verdict = "PASS" if result.exit_code == 0 else (
        "HYPOTHESIS-VIOLATION" if result.exit_code == 3 else "FAIL")
    print(f"{verdict}: suite={result.suite} checks={n_checks} "
          f"failures={n_fail} "
          f"violations={len(result.hypothesis_violations)}")
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
