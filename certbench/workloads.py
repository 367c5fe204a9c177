"""Seeded certificate workloads and the outcome oracle.

An *op* is one certificate: build the input from drawn parameters, then get
a verdict from the library.  Each op kind has three parts:

* ``draw(rng, **fixed)`` turns the seeded generator into a JSON-able spec;
  ``fixed`` is the kind's current stratum (see ``Kind.strata``).  The
  distributions mirror the library's own test fixtures, written out here so
  the benchmark does not import the test suite.
* ``certify(spec, ctx)`` calls the library and returns what it observed.
  Only this part is timed.
* ``judge(spec, obs, ctx)`` decides whether the outcome lies in the kind's
  allowed set and returns the witness gap where the kind has a closed form.

Library calls go through ``sphericity.<module>.<name>`` attribute lookups at
call time, never through names bound at import, so that the traced run sees
them (see ``spans.py``).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import sphericity
import sphericity.cli

N_SAMPLES = 4096        # library default and the ROADMAP target size

# Acceptance tolerances (tests/test_acceptance.py criteria 1 and 6).
ANGLE_WITNESS_TOL = 1e-6
# The angle witness looks from 0.7 R off center, as acceptance criterion 1
# does: the far end of the offsets drawn elsewhere, where the sampled
# minimum is least accurate.  Only k0 is drawn, so the run-to-run spread of
# the worst witness gap reflects the code, not which offsets were drawn.
ANGLE_WITNESS_OFFSET = 0.7
LUNE_GAP_TOL = 1e-5
LUNE_MARGIN_TOL = -1e-7

# k0 ranges per plane (k1 = 1 on the curved planes); the curved ones are
# those of the test fixtures' frame-ODE curves.  Hyperbolic k0 stays well
# above k1, away from the undersampled regime that the near-critical watch
# ops probe on purpose.
K0_RANGE = {"flat": (0.6, 1.6), "sphere": (0.8, 1.4), "hyperbolic": (1.7, 2.6)}
PLANES = tuple(K0_RANGE)

# H^2 circles right above the critical curvature k0 = k1 (ROADMAP item 2).
# Allowed outcomes: PASS or refused.  Their wrong outcomes are a known
# defect: they count in the wrong-verdict fraction but do not fail the run.
NEAR_CRITICAL_K0 = {"near_critical_1e-9": 1.0 + 1e-9,
                    "near_critical_1e-6": 1.0 + 1e-6}


def space_of(plane: str):
    if plane == "flat":
        return sphericity.SpaceForm.flat()
    if plane == "sphere":
        return sphericity.SpaceForm.sphere(1.0)
    return sphericity.SpaceForm.hyperbolic(1.0)


# Closed forms, written out independently of the library (k1 = 1).
def circle_radius(plane: str, k0: float) -> float:
    if plane == "flat":
        return 1.0 / k0
    if plane == "sphere":
        return math.atan(1.0 / k0)
    return math.atanh(1.0 / k0)


def sn(plane: str, x: float) -> float:
    if plane == "flat":
        return x
    return math.sin(x) if plane == "sphere" else math.sinh(x)


def offset_circle_min_cos(plane: str, k0: float, offset: float) -> float:
    """Exact min cos(phi) on a circle seen from a point ``offset`` off center.

    The law of sines gives sin(phi) = sn(offset) / sn(R) sin(alpha), largest
    at alpha = pi/2.
    """
    ratio = sn(plane, offset) / sn(plane, circle_radius(plane, k0))
    return math.sqrt(1.0 - ratio * ratio)


@dataclass(frozen=True)
class Judgement:
    allowed: bool
    gap: float | None = None    # witness gap against the closed form
    hard: bool = True           # a wrong outcome fails the run's output check
    why: str = ""


@dataclass(frozen=True)
class Kind:
    draw: Callable
    certify: Callable
    judge: Callable
    # Fixed parameters that successive draws of the kind cycle through, so
    # that a run's mix does not hinge on a few draws of a parameter that
    # sets the cost (the frame-ODE symmetry order, the number of discs).
    strata: tuple = ({},)


class Context:
    """Per-process state the ops share: a work directory and, for the
    determinism check, the first report of the current config."""

    def __init__(self, workdir: Path):
        self.workdir = Path(workdir)
        self.config_id = None
        self.first_report = None


# ---------------------------------------------------------------------------
# Drawing inputs (mirrors tests/conftest.py)
# ---------------------------------------------------------------------------

def _draw_support(rng) -> dict:
    wiggle = rng.uniform(0.05, 0.35)
    orders = rng.choice([2, 3, 4, 5], size=2, replace=False)
    weights = rng.dirichlet(np.ones(len(orders)))
    harmonics = {}
    for m, w in zip(orders, weights):
        amp = wiggle * w / (m * m - 1)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        harmonics[str(int(m))] = [amp * math.cos(phase), amp * math.sin(phase)]
    return {"a0": 1.0, "harmonics": harmonics,
            "k0_target": 1.0 / (1.0 + wiggle)}


def _draw_base(rng) -> dict:
    return {"pull": rng.uniform(0.0, 0.3), "angle": rng.uniform(0.0, 2 * np.pi)}


def _draw_frame_ode(plane: str, rng, m: int) -> dict:
    if plane == "hyperbolic":
        k0 = rng.uniform(1.7, 2.6)
        amp_total = rng.uniform(0.05, min(0.25, k0 - 1.3))
    else:
        k0 = rng.uniform(0.8, 1.4)
        amp_total = rng.uniform(0.05, 0.25) * k0 * 0.4
    split = rng.uniform(0.55, 0.9)
    terms = [[m, amp_total * split, rng.uniform(0, 2 * np.pi)],
             [2 * m, amp_total * (1 - split), rng.uniform(0, 2 * np.pi)]]
    return {"plane": plane, "k0": k0, "terms": terms}


def _draw_k0(plane: str, rng, third: int | None = None) -> float:
    lo, hi = K0_RANGE[plane]
    if third is not None:       # uniform within one third of the range
        lo, hi = lo + (hi - lo) * third / 3, lo + (hi - lo) * (third + 1) / 3
    return float(rng.uniform(lo, hi))


def _support_curve(spec: dict):
    harmonics = {int(m): tuple(ab) for m, ab in spec["harmonics"].items()}
    return sphericity.make_support_curve(spec["a0"], harmonics,
                                         k0_target=spec["k0_target"],
                                         n=spec["n"])


def _interior_base(curve, base: dict):
    """Random base point strictly inside the curve, near its hint center."""
    space = curve.space
    center = curve.hint_center
    h = float(np.min(space.distance(center, curve.points)))
    e1, e2 = space.frame(center)
    radius = base["pull"] * h
    return space.exp_map(center, radius * (math.cos(base["angle"]) * e1
                                           + math.sin(base["angle"]) * e2))


def _verdict(report) -> str:
    return "pass" if report.passed else "fail"


def _angle_verdict(curve, base) -> dict:
    try:
        rep = sphericity.verify_angle_bound(curve, base)
    except sphericity.HypothesisViolation:
        return {"outcome": "refused"}
    return {"outcome": _verdict(rep), "min_slack": rep.min_slack,
            "min_cos": float(np.min(rep.cos_phi[rep.included]))}


def _width_verdict(curve) -> dict:
    try:
        rep = sphericity.layer_width(curve)
    except sphericity.HypothesisViolation:
        return {"outcome": "refused"}
    return {"outcome": _verdict(rep), "d": rep.d, "margin": rep.margin}


def _pass_only(spec, obs, ctx) -> Judgement:
    return Judgement(obs["outcome"] == "pass",
                     why=f"random k0-convex curve gave {obs['outcome']}")


# ---------------------------------------------------------------------------
# angle-mix
# ---------------------------------------------------------------------------

def _support_curve_and_base(spec):
    curve = _support_curve(spec)
    return curve, _interior_base(curve, spec["base"])


def _certify_support_angle(spec, ctx):
    return _angle_verdict(*_support_curve_and_base(spec))


def _certify_frame_ode_angle(spec, ctx):
    k0, terms = spec["k0"], spec["terms"]

    def profile(u):
        u = np.asarray(u, dtype=float)
        out = np.full_like(u, k0)
        for mult, amp, ph in terms:
            out = out + amp * np.cos(2.0 * np.pi * mult * u + ph)
        return out

    curve = sphericity.make_frame_ode_curve(space_of(spec["plane"]), profile,
                                            n=spec["n"])
    return _angle_verdict(curve, _interior_base(curve, spec["base"]))


def _draw_circle(plane, rng) -> dict:
    return {"plane": plane, "k0": _draw_k0(plane, rng),
            "offset_frac": rng.uniform(0.2, 0.7)}


def _draw_witness_circle(plane, rng) -> dict:
    return {"plane": plane, "k0": _draw_k0(plane, rng),
            "offset_frac": ANGLE_WITNESS_OFFSET}


def _offset_circle_and_base(spec):
    """Circle around the origin and a base point ``offset_frac`` R off it."""
    space = space_of(spec["plane"])
    origin = space.origin()
    curve = sphericity.make_circle(space, origin, spec["k0"], n=spec["n"])
    e1, _ = space.frame(origin)
    offset = spec["offset_frac"] * circle_radius(spec["plane"], spec["k0"])
    return curve, space.exp_map(origin, offset * e1)


def _certify_witness_angle(spec, ctx):
    return _angle_verdict(*_offset_circle_and_base(spec))


def _judge_witness_angle(spec, obs, ctx) -> Judgement:
    if obs["outcome"] != "pass":
        return Judgement(False, why=f"angle witness gave {obs['outcome']}")
    offset = spec["offset_frac"] * circle_radius(spec["plane"], spec["k0"])
    exact = offset_circle_min_cos(spec["plane"], spec["k0"], offset)
    gap = abs(obs["min_cos"] - exact)
    return Judgement(gap <= ANGLE_WITNESS_TOL, gap=gap,
                     why=f"|min cos phi - exact| = {gap:.3e}")


def _certify_near_critical(spec, ctx):
    space = space_of("hyperbolic")
    curve = sphericity.make_circle(space, space.origin(), spec["k0"],
                                   n=spec["n"])
    return _angle_verdict(curve, curve.hint_center)


def _judge_near_critical(spec, obs, ctx) -> Judgement:
    return Judgement(obs["outcome"] in ("pass", "refused"), hard=False,
                     why=f"H2 circle k0={spec['k0']!r} gave {obs['outcome']}")


# ---------------------------------------------------------------------------
# width-mix
# ---------------------------------------------------------------------------

def _certify_lune(spec, ctx):
    space = space_of(spec["plane"])
    opt = sphericity.spindle_optimum(space, spec["k0"])
    lune = sphericity.make_lune(space, spec["k0"], opt.r0, n=spec["n"])
    return dict(_width_verdict(lune), d0=opt.d0)


def _judge_lune(spec, obs, ctx) -> Judgement:
    if obs["outcome"] != "pass":
        return Judgement(False, why=f"lune witness gave {obs['outcome']}")
    gap = abs(obs["d"] - obs["d0"])
    ok = gap <= LUNE_GAP_TOL and obs["margin"] >= LUNE_MARGIN_TOL
    return Judgement(ok, gap=gap,
                     why=f"|d - d0| = {gap:.3e}, margin {obs['margin']:.3e}")


def _draw_disc(plane, rng, count: int) -> dict:
    k0 = _draw_k0(plane, rng)
    radius = circle_radius(plane, k0)
    offsets = rng.uniform(-0.3 * radius, 0.3 * radius, (count, 2))
    return {"plane": plane, "k0": k0, "offsets": offsets.tolist()}


def _certify_disc(spec, ctx):
    space = space_of(spec["plane"])
    origin = space.origin()
    e1, e2 = space.frame(origin)
    centers = np.array([space.exp_map(origin, a * e1 + b * e2)
                        for a, b in spec["offsets"]])
    body = sphericity.make_disc_intersection(space, centers, spec["k0"],
                                             n=spec["n"])
    return _width_verdict(body)


def _certify_support_width(spec, ctx):
    return _width_verdict(_support_curve(spec))


# ---------------------------------------------------------------------------
# report-io
# ---------------------------------------------------------------------------

def _space_dict(plane: str) -> dict:
    return {"kind": plane, "k1": 0.0 if plane == "flat" else 1.0}


def _draw_cli_angle_circle(rng) -> dict:
    plane = PLANES[int(rng.integers(3))]
    k0 = _draw_k0(plane, rng)
    distance = rng.uniform(0.2, 0.7) * circle_radius(plane, k0)
    return {"command": "verify-angle", "format": "both", "expect": 0,
            "config": {"seed": int(rng.integers(2**31)),
                       "space": _space_dict(plane),
                       "generator": {"provenance": "circle", "k0": k0},
                       "base_point": {"mode": "offset", "distance": distance}}}


def _draw_cli_angle_support(rng) -> dict:
    gen = dict(_draw_support(rng), provenance="support_function")
    return {"command": "verify-angle", "format": "both", "expect": 0,
            "config": {"seed": int(rng.integers(2**31)),
                       "space": _space_dict("flat"), "generator": gen,
                       "base_point": {"mode": "hint"}}}


def _draw_cli_spindle(rng) -> dict:
    plane = PLANES[int(rng.integers(3))]
    k0s = sorted(_draw_k0(plane, rng) for _ in range(3))
    return {"command": "spindle-table", "format": "json", "expect": 0,
            "config": {"seed": int(rng.integers(2**31)),
                       "space": _space_dict(plane),
                       "spindle": {"k0": k0s, "r_count": 33}}}


def _draw_warped_block(rng) -> dict:
    if rng.uniform() < 0.5:
        return {"family": "cubic", "params": {"eps": rng.uniform(0.02, 0.08)},
                "T": 2.0, "rho0": 0.8, "curves": 3}
    return {"family": "perturbed_sin",
            "params": {"delta": rng.uniform(0.005, 0.02)},
            "T": 1.5, "rho0": 0.7, "curves": 3}


def _draw_cli_warped(rng) -> dict:
    return {"command": "verify-warped", "format": "json", "expect": 0,
            "config": {"seed": int(rng.integers(2**31)),
                       "warped": _draw_warped_block(rng)}}


def _draw_cli_warped_violating(rng) -> dict:
    block = dict(_draw_warped_block(rng), violating=True)
    return {"command": "verify-warped", "format": "json", "expect": 3,
            "config": {"seed": int(rng.integers(2**31)), "warped": block}}


def _draw_cli_sweep(rng) -> dict:
    return {"command": "sweep", "format": "json", "expect": 0,
            "config": {"seed": int(rng.integers(2**31)),
                       "sweep": {"k0": rng.uniform(0.5, 2.0)}}}


def _certify_cli(spec, ctx):
    out_dir = ctx.workdir / f"out{spec['serial'] % 2}"
    config_path = ctx.workdir / "config.json"
    config = spec["config"]
    if "generator" in config:
        config = dict(config, generator=dict(config["generator"], n=spec["n"]))
    config_path.write_text(json.dumps(config))
    with contextlib.redirect_stdout(io.StringIO()):
        code = sphericity.cli.main([spec["command"], "--config",
                                    str(config_path), "--out", str(out_dir),
                                    "--format", spec["format"]])
    return {"outcome": f"exit:{code}", "out_dir": str(out_dir)}


def _normalized_report(out_dir: Path) -> str:
    """report.json with its timestamp dropped, formatted like
    ``result_json(..., drop_timestamp=True)``."""
    doc = json.loads((out_dir / "report.json").read_text())
    doc["metadata"]["timestamp"] = None
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _spindle_gap(doc: dict) -> float:
    return max(abs(c["measured"] - c["bound"]) for c in doc["checks"]
               if c["name"].startswith("spindle_oracle_d0"))


def _judge_cli(spec, obs, ctx) -> Judgement:
    expect = spec["expect"]
    if obs["outcome"] != f"exit:{expect}":
        return Judgement(False, why=f"{spec['command']} gave {obs['outcome']}"
                         f", expected exit:{expect}")
    report = _normalized_report(Path(obs["out_dir"]))
    if ctx.config_id != spec["config_id"]:
        ctx.config_id, ctx.first_report = spec["config_id"], report
    elif report != ctx.first_report:
        return Judgement(False, why=f"{spec['command']} report differs "
                         "between two runs of one config")
    gap = None
    if spec["command"] == "spindle-table":
        gap = _spindle_gap(json.loads(report))
    return Judgement(True, gap=gap)


def _draw_round_trip_circle(rng) -> dict:
    return _draw_circle(PLANES[int(rng.integers(3))], rng)


def _round_trip(curve, base, ctx) -> dict:
    in_memory = _angle_verdict(curve, base)
    path = ctx.workdir / "curve.json"
    sphericity.save_curve(curve, path)
    loaded = sphericity.load_curve(path)
    return {"outcome": in_memory["outcome"], "in_memory": in_memory,
            "loaded": _angle_verdict(loaded, base)}


def _certify_round_trip_support(spec, ctx):
    return _round_trip(*_support_curve_and_base(spec), ctx)


def _certify_round_trip_circle(spec, ctx):
    return _round_trip(*_offset_circle_and_base(spec), ctx)


def _judge_round_trip(spec, obs, ctx) -> Judgement:
    if obs["in_memory"] != obs["loaded"]:
        return Judgement(False, why="round-trip verdict differs: "
                         f"{obs['in_memory']} vs {obs['loaded']}")
    return Judgement(obs["outcome"] == "pass",
                     why=f"round-trip curve gave {obs['outcome']}")


# ---------------------------------------------------------------------------
# Registry and schedules
# ---------------------------------------------------------------------------

def _with_base(draw):
    return lambda rng, **fixed: dict(draw(rng, **fixed), base=_draw_base(rng))


ORDERS = tuple({"m": m} for m in (2, 3, 4))
THIRDS = tuple({"third": t} for t in range(3))


KINDS = {
    # angle-mix
    "support_angle": Kind(_with_base(_draw_support), _certify_support_angle,
                          _pass_only),
    **{f"frame_ode_{p}": Kind(
        _with_base(lambda r, m, p=p: _draw_frame_ode(p, r, m)),
        _certify_frame_ode_angle, _pass_only, ORDERS)
       for p in ("sphere", "hyperbolic")},
    **{f"angle_witness_{p}": Kind(
        lambda r, p=p: _draw_witness_circle(p, r), _certify_witness_angle,
        _judge_witness_angle) for p in PLANES},
    **{name: Kind(lambda r, k0=k0: {"k0": k0}, _certify_near_critical,
                  _judge_near_critical)
       for name, k0 in NEAR_CRITICAL_K0.items()},
    # width-mix
    **{f"lune_{p}": Kind(
        lambda r, third, p=p: {"plane": p, "k0": _draw_k0(p, r, third)},
        _certify_lune, _judge_lune, THIRDS) for p in PLANES},
    **{f"disc_{p}": Kind(lambda r, count, p=p: _draw_disc(p, r, count),
                         _certify_disc, _pass_only,
                         tuple({"count": c} for c in (2, 3, 4)))
       for p in PLANES},
    "support_width": Kind(_draw_support, _certify_support_width, _pass_only),
    # report-io
    "cli_angle_circle": Kind(_draw_cli_angle_circle, _certify_cli, _judge_cli),
    "cli_angle_support": Kind(_draw_cli_angle_support, _certify_cli,
                              _judge_cli),
    "cli_spindle": Kind(_draw_cli_spindle, _certify_cli, _judge_cli),
    "cli_warped": Kind(_draw_cli_warped, _certify_cli, _judge_cli),
    "cli_warped_violating": Kind(_draw_cli_warped_violating, _certify_cli,
                                 _judge_cli),
    "cli_sweep": Kind(_draw_cli_sweep, _certify_cli, _judge_cli),
    "round_trip_support": Kind(_with_base(_draw_support),
                               _certify_round_trip_support, _judge_round_trip),
    "round_trip_circle": Kind(_draw_round_trip_circle,
                              _certify_round_trip_circle, _judge_round_trip),
}

# Each workload is a one-off preamble followed by a repeating cycle; the
# order is fixed so every run has the same mix and only parameters vary.
#
# angle-mix: the angle witnesses run once per run.  A cycle holds support
# (flat) and frame-ODE (S2, H2) curves in equal shares, six of each, and the
# two near-critical H2 circles, so a known-defect outcome has a fixed share
# of every cycle (1 in 20) whatever the throughput, and the frame-ODE curves
# (12 in 20) set the median.  Frame-ODE generation dominates.
# width-mix: lune witnesses, disc intersections and support curves through
# layer_width on all planes; the incenter search dominates.  No frame ODE.
# report-io: each CLI config runs twice in a row (the determinism check
# compares the pair), between save/load round trips.  A cycle is 12 CLI ops
# and 20 round trips, so both the median and the p90 sit inside the round
# trips, where save_curve and load_curve run.  No frame ODE, no incenter.
_ANGLE_CURVES = ("frame_ode_sphere", "frame_ode_hyperbolic", "support_angle")
_ROUND_TRIPS = ("round_trip_support", "round_trip_circle")
WORKLOADS = {
    "angle-mix": (
        ("angle_witness_flat", "angle_witness_sphere",
         "angle_witness_hyperbolic"),
        _ANGLE_CURVES * 3 + ("near_critical_1e-9",)
        + _ANGLE_CURVES * 3 + ("near_critical_1e-6",),
    ),
    "width-mix": (
        (),
        ("lune_flat", "lune_sphere", "lune_hyperbolic", "disc_flat",
         "disc_sphere", "disc_hyperbolic", "support_width"),
    ),
    "report-io": (
        (),
        ("cli_angle_circle",) + _ROUND_TRIPS * 2 + ("cli_angle_support",)
        + _ROUND_TRIPS * 2 + ("cli_spindle",) + _ROUND_TRIPS * 2
        + ("cli_warped",) + _ROUND_TRIPS * 2 + ("cli_warped_violating",)
        + _ROUND_TRIPS * 2 + ("cli_sweep",),
    ),
}

# CLI configs run twice in a row.
REPEATS = {name: 2 for name in KINDS if name.startswith("cli_")}


def kinds_of(workload: str) -> list[str]:
    preamble, cycle = WORKLOADS[workload]
    return list(dict.fromkeys(preamble + cycle))


def warm_up_kinds(workload: str) -> list[str]:
    """One kind per op family: the per-plane variants of a family run the
    same library functions, so one of them warms the family up."""
    families = {}
    for name in kinds_of(workload):
        family = name
        for suffix in ("_" + p for p in PLANES):
            family = family.removesuffix(suffix)
        families.setdefault(family, name)
    return list(families.values())


def draw_spec(name: str, rng, n: int = N_SAMPLES, stratum: int = 0) -> dict:
    kind = KINDS[name]
    fixed = kind.strata[stratum % len(kind.strata)]
    return dict(kind.draw(rng, **fixed), kind=name, n=n)


def schedule(workload: str, rng):
    """Endless stream of op specs for a workload, drawn from ``rng``.

    The last op of the preamble and of each cycle carries
    ``closes_cycle=True``, so a run can count outcomes over whole cycles.
    """
    preamble, cycle = WORKLOADS[workload]
    serial = 0
    drawn = dict.fromkeys(preamble + cycle, 0)

    def emit(names):
        nonlocal serial
        for i, name in enumerate(names):
            spec = draw_spec(name, rng, stratum=drawn[name])
            drawn[name] += 1
            spec["config_id"] = serial
            repeats = REPEATS.get(name, 1)
            for r in range(repeats):
                last = i == len(names) - 1 and r == repeats - 1
                yield dict(spec, serial=serial, closes_cycle=last)
                serial += 1

    yield from emit(preamble)
    while True:
        yield from emit(cycle)


def certify(spec: dict, ctx: Context) -> dict:
    return KINDS[spec["kind"]].certify(spec, ctx)


def judge(spec: dict, obs: dict, ctx: Context) -> Judgement:
    return KINDS[spec["kind"]].judge(spec, obs, ctx)
