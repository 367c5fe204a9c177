"""Acceptance suite: one test per acceptance criterion, at its stated
tolerance, each printing a single PASS line when it holds.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math

import numpy as np
import pytest

from sphericity import (SpaceForm, cos_phi_lower_bound, layer_width,
                        make_circle, make_disc_intersection, make_lune,
                        make_warped, make_warped_curve, measure_radial,
                        numeric_spindle_optimum, radial_ode_residuals,
                        spindle_max_width_alt, spindle_optimum,
                        verify_angle_bound,
                        verify_circle_curvature_comparison,
                        verify_radial_bounds)
from sphericity.cli import main
from sphericity.reports import result_json, run
from tests.conftest import random_frame_ode_curve, random_support_curve

FLAT = SpaceForm.flat()
SPH = SpaceForm.sphere(1.0)
HYP = SpaceForm.hyperbolic(1.0)


def _report(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, detail


def test_01_euclidean_sharpness_offset_circle():
    curve = make_circle(FLAT, FLAT.origin(), 1.0, n=4096)
    base = np.array([0.7, 0.0])
    meas = measure_radial(curve, base)
    cos_phi = np.cos(meas.phi)
    min_cos = float(np.min(cos_phi))
    target = math.sqrt(0.51)
    value_ok = abs(min_cos - target) <= 1e-6

    # the minimum must sit where the ray from the base point is
    # perpendicular to the axis (alpha = pi/2), within 2 samples
    to_sample = FLAT.log_map(base, curve.points)
    axis = -FLAT.log_map(base, FLAT.origin())
    alpha = FLAT.angle_between(base, to_sample,
                               np.broadcast_to(axis, to_sample.shape))
    argmin = int(np.argmin(cos_phi))
    perp = np.abs(alpha - np.pi / 2)
    nearest_perp = int(np.argmin(perp))
    n = curve.n
    dist = min((argmin - nearest_perp) % n, (nearest_perp - argmin) % n)
    # the symmetric twin below the axis is equally minimal
    twin = int(np.argmin(np.where(np.arange(n) > n // 2, perp, np.inf)))
    dist = min(dist, (argmin - twin) % n, (twin - argmin) % n)
    _report("1 euclidean-sharpness",
            value_ok and dist <= 2,
            f"min cos phi = {min_cos:.9f} vs sqrt(0.51) = {target:.9f}, "
            f"argmin {dist} samples from alpha = pi/2")


def test_02_angle_bound_property_suite(angle_suite):
    worst = math.inf
    for curve, base in angle_suite:
        rep = verify_angle_bound(curve, base)
        worst = min(worst, rep.min_slack)
        if not rep.passed:
            break
    _report("2 angle-property-suite",
            worst >= -1e-9,
            f"{len(angle_suite)} curves, worst slack {worst:.3e}")


def test_03_radial_ode_residual(angle_suite):
    worst_frac = 1.0
    worst_max = 0.0
    for curve, base in angle_suite:
        resid, included = radial_ode_residuals(curve, base)
        frac = float(np.mean(resid <= 1e-4))
        worst_frac = min(worst_frac, frac)
        worst_max = max(worst_max, float(np.max(resid)))
    _report("3 radial-ode-residual",
            worst_frac >= 0.99 and worst_max <= 1e-3,
            f"worst <=1e-4 fraction {worst_frac:.4f}, "
            f"worst residual {worst_max:.3e}")


def test_04_spindle_optimum_flat_exact():
    opt = spindle_optimum(FLAT, 1.0)
    exact = (opt.r0 == 1.0 / (1.0 * (2.0 + math.sqrt(2.0)))
             and opt.d0 == math.sqrt(2.0) - 1.0)
    r_num, d_num = numeric_spindle_optimum(FLAT, 1.0)
    _report("4 spindle-optimum-flat",
            exact and abs(r_num - opt.r0) <= 1e-7
            and abs(d_num - opt.d0) <= 1e-9,
            f"closed form exact, oracle gaps {abs(r_num-opt.r0):.2e} (r), "
            f"{abs(d_num-opt.d0):.2e} (d)")


def test_05_spindle_optimum_curved():
    ok = True
    details = []
    for space, k0 in ((SPH, 1.0), (HYP, 2.0)):
        opt = spindle_optimum(space, k0)
        r_num, d_num = numeric_spindle_optimum(space, k0)
        stat = abs(float(space.cs(opt.R))
                   - float(space.cs(opt.R - opt.r0)) ** 2)
        ok &= abs(r_num - opt.r0) <= 1e-7
        ok &= abs(d_num - opt.d0) <= 1e-9
        ok &= stat <= 1e-10
        details.append(f"{space.kind.value}: oracle "
                       f"{abs(r_num-opt.r0):.1e}/{abs(d_num-opt.d0):.1e}, "
                       f"stationarity {stat:.1e}")
    _report("5 spindle-optimum-curved", ok, "; ".join(details))


def test_06_width_bound_sharpness_and_random_bodies():
    ok = True
    details = []
    for space, k0 in ((FLAT, 1.0), (SPH, 1.0), (HYP, 2.0)):
        opt = spindle_optimum(space, k0)
        lune = make_lune(space, k0, opt.r0, n=4096)
        rep = layer_width(lune)
        gap = abs(rep.d - opt.d0)
        ok &= gap <= 1e-5 and rep.margin >= -1e-7
        details.append(f"{space.kind.value} lune |d-d0|={gap:.2e}")

    rng = np.random.default_rng(20240607)
    bodies = [random_support_curve(rng, n=2048) for _ in range(4)]
    for space in (SPH, HYP):
        bodies += [random_frame_ode_curve(space, rng, n=2048)
                   for _ in range(2)]
    for space, k0 in ((FLAT, 1.0), (SPH, 1.0), (HYP, 2.0)):
        radius = space.circle_radius_of_curvature(k0)
        origin = space.origin()
        e1, e2 = space.frame(origin)
        for count in (2, 3, 4):
            offs = rng.uniform(-0.3 * radius, 0.3 * radius, (count, 2))
            centers = [space.exp_map(origin, o[0] * e1 + o[1] * e2)
                       for o in offs]
            bodies.append(make_disc_intersection(space, np.array(centers),
                                                 k0, n=2048))
    worst_margin = math.inf
    for body in bodies:
        rep = layer_width(body)
        worst_margin = min(worst_margin, rep.margin)
        ok &= rep.passed and rep.margin >= -1e-7
    _report("6 width-sharpness",
            ok, "; ".join(details)
            + f"; {len(bodies)} random bodies, worst margin "
            f"{worst_margin:.3e}")


def test_07_rewritten_width_identity_grid():
    worst = 0.0
    for kind, ratios in (("sphere", (0.4, 0.8, 1.2, 2.0, 4.0)),
                         ("hyperbolic", (1.25, 1.6, 2.2, 3.5, 6.0))):
        count = 0
        for k1 in (0.5, 0.75, 1.0, 1.5):
            for ratio in ratios:
                space = SpaceForm.sphere(k1) if kind == "sphere" \
                    else SpaceForm.hyperbolic(k1)
                k0 = ratio * k1
                gap = abs(spindle_max_width_alt(space, k0)
                          - spindle_optimum(space, k0).d0)
                worst = max(worst, gap)
                count += 1
        assert count == 20
    _report("7 rewritten-width-identity", worst <= 1e-10,
            f"worst identity gap {worst:.2e} over 20-point grids")


def test_08_euclidean_limit():
    flat_d0 = spindle_optimum(FLAT, 1.0).d0
    width_gaps = []
    bound_gaps = []
    hs = np.linspace(0.1, 0.9, 9)
    flat_bound = cos_phi_lower_bound(FLAT, 1.0, hs)
    for make_space in (SpaceForm.sphere, SpaceForm.hyperbolic):
        space = make_space(1e-3)
        width_gaps.append(abs(spindle_optimum(space, 1.0).d0 - flat_d0))
        vals = cos_phi_lower_bound(space, 1.0, hs)
        bound_gaps.append(float(np.max(np.abs(vals - flat_bound))))
    _report("8 euclidean-limit",
            max(width_gaps) <= 1e-5 and max(bound_gaps) <= 1e-4,
            f"width gaps {[f'{g:.1e}' for g in width_gaps]}, "
            f"angle-bound gaps {[f'{g:.1e}' for g in bound_gaps]} at k1=1e-3")


def test_09_circle_curvature_comparison():
    ok = True
    details = []
    for fam, params, T in (("cubic", {"eps": 0.05}, 2.0),
                           ("cubic", {"eps": 0.02}, 2.5),
                           ("perturbed_sin", {"delta": 0.01}, 1.5),
                           ("perturbed_sin", {"delta": 0.05}, 1.4)):
        rep = verify_circle_curvature_comparison(make_warped(fam, T=T,
                                                             **params))
        ok &= rep.min_slack >= -1e-9
        details.append(f"{fam}{params}: slack {rep.min_slack:.1e}")
    for fam, params, T in (("hyperbolic", {"k1": 1.0}, 2.0),
                           ("spherical", {"k1": 1.0}, 1.4),
                           ("flat", {}, 2.0)):
        rep = verify_circle_curvature_comparison(make_warped(fam, T=T,
                                                             **params))
        eq = float(np.max(np.abs(rep.slack)))
        ok &= eq <= 1e-10
        details.append(f"{fam}: |slack| {eq:.1e}")
    _report("9 mu-comparison", ok, "; ".join(details))


def test_10_warped_bounds_and_violation(tmp_path):
    ok = True
    worst_slack = math.inf
    worst_margin = math.inf
    for fam, params, T, rho0 in (("cubic", {"eps": 0.05}, 2.0, 0.8),
                                 ("perturbed_sin", {"delta": 0.01}, 1.5, 0.7)):
        metric = make_warped(fam, T=T, **params)
        rng = np.random.default_rng(20240608)
        for _ in range(20):
            harmonics = {}
            for j in (2, 3):
                amp = 0.05 * rho0 * rng.uniform(0.2, 1.0) / j
                ph = rng.uniform(0, 2 * np.pi)
                harmonics[j] = (amp * math.cos(ph), amp * math.sin(ph))
            curve = make_warped_curve(metric, rho0, harmonics)
            ver = verify_radial_bounds(metric, curve)
            ok &= ver.angle_passed and ver.width_passed
            worst_slack = min(worst_slack, ver.min_angle_slack)
            worst_margin = min(worst_margin, ver.width_margin)

    cfg = {"seed": 0, "warped": {"family": "cubic", "params": {"eps": 0.05},
                                 "T": 2.0, "curves": 1, "violating": True}}
    cfg_path = tmp_path / "violating.json"
    cfg_path.write_text(json.dumps(cfg))
    exit_code = main(["verify-warped", "--config", str(cfg_path)])
    _report("10 warped-bounds",
            ok and exit_code == 3,
            f"40 curves: worst angle slack {worst_slack:.2e}, worst width "
            f"margin {worst_margin:.2e}; violating config exit {exit_code}")


def test_11_determinism():
    configs = [
        {"suite": "angle", "seed": 3,
         "space": {"kind": "flat", "k1": 0.0},
         "generator": {"provenance": "circle", "k0": 1.0, "n": 1024},
         "base_point": {"mode": "offset", "distance": 0.6}},
        {"suite": "warped", "seed": 11,
         "warped": {"family": "perturbed_sin", "params": {"delta": 0.01},
                    "T": 1.5, "curves": 4}},
        {"suite": "sweep", "seed": 0, "sweep": {"k0": 1.0}},
    ]
    ok = True
    for cfg in configs:
        first, second = run(cfg), run(cfg)
        first.metadata["timestamp"] = second.metadata["timestamp"] = None
        ok &= result_json(first) == result_json(second)
    _report("11 determinism", ok,
            f"{len(configs)} configs re-run byte-identically "
            "(timestamp excluded)")
