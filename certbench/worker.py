"""One workload process: set up, then run ops closed-loop for a fixed time.

Modes:
  setup    import the library, make one warm-up op of each kind, report the
           time that took (``setup_s``) and exit.
  measure  set up, then run ops untraced for ``--seconds``; report every
           op's latency and outcome.
  trace    set up, then run each op twice on the same input, once untraced
           and once traced (alternating which goes first), for
           ``--seconds``; report the per-layer numbers.

Set-up and the measure mode also time a host-speed probe: a fixed kernel of
the benchmark's own (a Python loop and numpy vector ops at the library's
sample count) that no library change can touch.  The shared host's speed
drifts by tens of percent over minutes, and the probe's time tracks that
drift, so set-up and each measured op come with the factor
``REF_PROBE_S / probe time`` that scales them to a host on which the probe
takes ``REF_PROBE_S``.

The last line of standard output is one JSON object for ``run.py``.
Run it through ``run.py``, which pins BLAS/OpenMP to one thread first.
"""

import time

T0 = time.perf_counter()    # before the heavy imports: they are set-up time

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".certbench_out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

# The probe's median time on the 2-core host where the bounds were set.
REF_PROBE_S = 0.016
PROBE_EVERY_S = 1.0         # probe between ops at most this far apart
_PROBE_X = np.linspace(0.0, 1.0, workloads.N_SAMPLES)


def probe() -> float:
    """Seconds one run of the fixed host-speed kernel takes (about 16 ms)."""
    t = time.perf_counter()
    acc = 0
    for i in range(60000):
        acc += i * i
    for _ in range(120):
        (np.sin(_PROBE_X) * np.cos(_PROBE_X) + np.sqrt(_PROBE_X + 1.0)).sum()
    return time.perf_counter() - t


class HostSpeed:
    """Probes taken between ops; gives each op the scale factor
    ``REF_PROBE_S / probe time``.  The probe time is the running median of
    five probes, which drops a probe that one hiccup slowed, interpolated
    at the op's midpoint."""

    def __init__(self):
        self.at = []
        self.took = []

    def sample(self, force=False):
        now = time.perf_counter()
        if force or now - self.at[-1] >= PROBE_EVERY_S:
            took = probe()
            self.at.append(now + took / 2)
            self.took.append(took)

    def scale(self, midpoints):
        took = [np.median(self.took[max(0, i - 2):i + 3])
                for i in range(len(self.took))]
        return (REF_PROBE_S / np.interp(midpoints, self.at, took)).tolist()


def _run_op(spec, ctx):
    """Certify one spec; returns (latency_s, observation)."""
    t = time.perf_counter()
    try:
        obs = workloads.certify(spec, ctx)
    except Exception as exc:    # an op that crashes is a failed op
        traceback.print_exc(file=sys.stderr)
        obs = {"outcome": f"error: {type(exc).__name__}: {exc}"}
    return time.perf_counter() - t, obs


def _judge(spec, obs, ctx):
    if obs["outcome"].startswith("error"):
        return workloads.Judgement(False, why=obs["outcome"])
    return workloads.judge(spec, obs, ctx)


class Tally:
    """Outcomes of the ops run in the measured window.

    ``whole`` holds (attempted, wrong) as of the last op that closed a
    cycle, so the wrong-verdict fraction is taken over whole cycles and does
    not depend on where the time limit cuts the last one.
    """

    def __init__(self):
        self.attempted = 0
        self.wrong = 0          # outside the allowed set (all kinds)
        self.failed = 0         # wrong where that fails the output check
        self.whole = (0, 0)
        self.gaps = []
        self.problems = []

    def add(self, spec, judgement):
        self.attempted += 1
        if judgement.gap is not None:
            self.gaps.append(judgement.gap)
        if not judgement.allowed:
            self.wrong += 1
            self.failed += judgement.hard
            if len(self.problems) < 20:
                self.problems.append({"kind": spec["kind"],
                                      "hard": judgement.hard,
                                      "why": judgement.why})
        if spec.get("closes_cycle"):
            self.whole = (self.attempted, self.wrong)

    def to_dict(self):
        return {"attempted": self.attempted, "wrong": self.wrong,
                "failed": self.failed, "whole_cycles": self.whole,
                "gaps": self.gaps, "problems": self.problems}


def setup(workload, ctx):
    """Warm up with one op of each kind; returns set-up seconds.

    The warm-up inputs are the same for every seed, so set-up time varies
    only with the code and the host.
    """
    rng = np.random.default_rng(0)
    for name in workloads.warm_up_kinds(workload):
        spec = dict(workloads.draw_spec(name, rng), config_id=-1, serial=0)
        _, obs = _run_op(spec, ctx)
        if obs["outcome"].startswith("error"):
            raise SystemExit(f"warm-up op {name} failed: {obs['outcome']}")
    return time.perf_counter() - T0


def measure(workload, seed, seconds, ctx):
    tally = Tally()
    speed = HostSpeed()
    latencies, midpoints = [], []
    stream = workloads.schedule(workload, np.random.default_rng(seed))
    start = time.perf_counter()
    speed.sample(force=True)
    while time.perf_counter() - start < seconds:
        spec = next(stream)
        t = time.perf_counter()
        latency, obs = _run_op(spec, ctx)
        latencies.append(latency)
        midpoints.append(t + latency / 2)
        tally.add(spec, _judge(spec, obs, ctx))
        speed.sample()
    speed.sample(force=True)
    return dict(tally.to_dict(), latencies_s=latencies,
                scale=speed.scale(midpoints), probes_s=speed.took)


def trace(workload, seed, seconds, ctx):
    tracer = spans.Tracer()
    tally = Tally()
    plain, traced, coverage = [], [], []
    stream = workloads.schedule(workload, np.random.default_rng(seed))
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        spec = next(stream)
        op_id = len(traced)
        for with_trace in ((False, True) if op_id % 2 == 0 else (True, False)):
            if with_trace:
                with tracer.tracing(op_id):
                    latency, obs = _run_op(spec, ctx)
                traced.append(latency)
                coverage.append(tracer.top_level_time(op_id) / latency)
            else:
                latency, obs = _run_op(spec, ctx)
                plain.append(latency)
            tally.add(spec, _judge(spec, obs, ctx))
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{workload}-seed{seed}.npz"
    tracer.save(span_file)
    return dict(tally.to_dict(), layers=tracer.layer_stats(len(traced)),
                plain_latencies_s=plain, traced_latencies_s=traced,
                top_level_coverage=coverage, span_count=len(tracer.start),
                span_file=str(span_file.relative_to(ROOT)))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"),
                        required=True)
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        ctx = workloads.Context(workdir)
        setup_s = setup(args.workload, ctx)
        setup_probe_s = float(np.median([probe() for _ in range(3)]))
        result = {"setup_s": setup_s, "probe_ref_s": REF_PROBE_S,
                  "setup_scale": REF_PROBE_S / setup_probe_s}
        if args.mode == "measure":
            result.update(measure(args.workload, args.seed, args.seconds, ctx))
        elif args.mode == "trace":
            result.update(trace(args.workload, args.seed, args.seconds, ctx))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        versions={"python": sys.version.split()[0], "numpy": np.__version__,
                  "scipy": scipy.__version__},
        threads={k: os.environ.get(k) for k in
                 ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                  "MKL_NUM_THREADS")})
    print(json.dumps(result))


if __name__ == "__main__":
    main()
