"""Certificate benchmark: time the verdict pipeline end to end.

    python3 certbench/run.py --workload angle-mix --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout and imports the library from ``src/``.
Workloads (see ``workloads.py``): ``angle-mix``, ``width-mix``, ``report-io``.
The load is closed-loop: one process, one client, one thread; each op waits
for the previous verdict.  BLAS/OpenMP are pinned to one thread.

With ``--trace 0`` it measures set-up five times (four set-up-only processes
and the measuring process itself) and reports the end-to-end metrics.  Their
times are scaled to a reference host speed by the probe in ``worker.py``; the
unscaled wall-clock figures are printed beside them as ``<name>_wall``.  With
``--trace 1`` it runs each op untraced and traced and reports per-layer
metrics.  Human-readable lines and a metadata line come first; the last line
of standard output is the JSON result.  The exit code is 1 when an output
check fails and 2 when the checkout has no library to measure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".certbench_out"
RUN_LIMIT_S = 170           # every process of one run ends within this
SETUP_PROBES = 4            # set-up-only processes besides the measuring one
EPS = 2.0 ** -52            # witness gaps below one ulp at unit scale

PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {"setup_s": "s", "certs_per_s": "1/s", "cert_ms_p50": "ms",
                    "cert_ms_p90": "ms", "verdict_ok_frac": "frac",
                    "witness_digits": "digits", "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    units = {f"{span}.{stat}": unit for span in spans.SPANS
             for stat, unit in spans.SPAN_STATS}
    units.update(spans.COUNTERS)
    units["trace_overhead_frac"] = "frac"
    return units


def _worker(args, mode: str, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--mode", mode]
    env = dict(os.environ, **PINNED_THREADS)
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{mode} worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def _git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def percentiles(latencies_s) -> tuple[float, float]:
    """Median and p90 in ms (``statistics.quantiles``, exclusive method)."""
    ms = [1000.0 * x for x in latencies_s]
    return statistics.median(ms), statistics.quantiles(ms, n=10)[8]


def witness_digits(gaps) -> float:
    """-log10 of the largest witness gap: correct digits of the worst witness."""
    return -math.log10(max(max(gaps), EPS))


def verdict_counts(result: dict) -> tuple[int, int]:
    """(ops, wrong verdicts) over the whole cycles run, or over all ops if
    the run closed no cycle."""
    ops, wrong = result["whole_cycles"]
    if ops == 0:
        return result["attempted"], result["wrong"]
    return ops, wrong


def wrong_verdict_frac(result: dict) -> float:
    ops, wrong = verdict_counts(result)
    return wrong / ops


def scaled(result: dict) -> list:
    """Op latencies scaled to the reference host speed (see worker.py)."""
    return [t * f for t, f in zip(result["latencies_s"], result["scale"])]


def end_to_end(result: dict, setup_samples) -> dict:
    latencies = scaled(result)
    p50, p90 = percentiles(latencies)
    return {
        "setup_s": statistics.median(setup_samples),
        "certs_per_s": len(latencies) / sum(latencies),
        "cert_ms_p50": p50,
        "cert_ms_p90": p90,
        "verdict_ok_frac": 1.0 - wrong_verdict_frac(result),
        "witness_digits": witness_digits(result["gaps"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def wall_clock(result: dict, setups) -> dict:
    """The timed metrics unscaled, as the wall clock read them."""
    latencies = result["latencies_s"]
    p50, p90 = percentiles(latencies)
    return {"setup_s_wall": statistics.median(r["setup_s"] for r in setups),
            "certs_per_s_wall": len(latencies) / sum(latencies),
            "cert_ms_p50_wall": p50, "cert_ms_p90_wall": p90}


def per_layer(result: dict) -> dict:
    metrics = dict(result["layers"])
    plain, _ = percentiles(result["plain_latencies_s"])
    traced, _ = percentiles(result["traced_latencies_s"])
    metrics["trace_overhead_frac"] = traced / plain - 1.0
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sphericity" / "__init__.py").is_file():
        print(f"error: no library to benchmark under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if args.trace:
            result = _worker(args, "trace", deadline)
            metrics = per_layer(result)
            units = per_layer_units()
            setup_samples = [result["setup_s"] * result["setup_scale"]]
        else:
            setups = [_worker(args, "setup", deadline)
                      for _ in range(SETUP_PROBES)]
            result = _worker(args, "measure", deadline)
            setups.append(result)
            setup_samples = [r["setup_s"] * r["setup_scale"] for r in setups]
            metrics = end_to_end(result, setup_samples)
            units = END_TO_END_UNITS
            wall = wall_clock(result, setups)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError,
            KeyError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1

    attempted = result["attempted"]
    n_lat = len(result.get("latencies_s", result.get("traced_latencies_s")))
    correct = result["failed"] == 0 and attempted >= 1
    meta = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "versions": result["versions"], "threads": result["threads"],
        "git_commit": _git_commit(), "load": "closed loop, 1 client",
        "ops": attempted, "latency_samples": n_lat,
        "p90_samples_beyond": n_lat - math.ceil(0.9 * n_lat),
        "setup_samples_s": setup_samples,
        "wrong_verdicts": result["wrong"],
        "whole_cycles": result["whole_cycles"],
        "wrong_verdict_frac": wrong_verdict_frac(result),
        "witness_gap_max": max(result["gaps"]) if result["gaps"] else None,
        "problems": result["problems"],
    }
    if not args.trace:
        probes = result["probes_s"]
        meta.update(wall_clock=wall, probe_ms={
            "reference": 1000.0 * result["probe_ref_s"],
            "median": 1000.0 * statistics.median(probes),
            "min": 1000.0 * min(probes), "max": 1000.0 * max(probes),
            "count": len(probes)})
    if args.trace:
        meta.update(span_count=result["span_count"],
                    span_file=result["span_file"],
                    top_level_coverage_min=min(result["top_level_coverage"]),
                    layers_normalized="per traced op")
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"meta": meta, "metrics": metrics, "raw": result}, indent=1))

    for name, value in metrics.items():
        line = f"{args.workload:10s} {name:42s} {value:14.6g} {units[name]}"
        span, _, stat = name.rpartition(".")
        calls = metrics.get(f"{span}.calls")
        if stat in ("busy_s", "self_s") and calls:
            line += f"  ({1000.0 * value / calls:.4g} ms/call)"
        print(line)
    for name, value in meta.get("wall_clock", {}).items():
        unit = units[name.removesuffix("_wall")]
        print(f"{args.workload:10s} {name:42s} {value:14.6g} {unit} (unscaled)")
    # The raw forms of the two gated metrics (verdict_ok_frac is
    # 1 - wrong_verdict_frac, witness_digits is -log10 witness_gap_max).
    print(f"{args.workload:10s} {'wrong_verdict_frac':42s} "
          f"{meta['wrong_verdict_frac']:14.6g} frac "
          "({1} of {0} ops counted)".format(*verdict_counts(result)))
    if meta["witness_gap_max"] is not None:
        print(f"{args.workload:10s} {'witness_gap_max':42s} "
              f"{meta['witness_gap_max']:14.6g} 1 "
              f"(over {len(result['gaps'])} witnesses)")
    for problem in result["problems"]:
        print(f"{args.workload:10s} wrong verdict: {problem}")
    print("meta " + json.dumps(meta))
    if not correct:
        print(f"error: {args.workload}: {result['failed']} op(s) failed "
              "their output check", file=sys.stderr)
    print(json.dumps({
        "correct": correct, "attempted": attempted,
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
