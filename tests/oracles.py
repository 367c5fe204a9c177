"""Independent checks of generated curves that the library itself never runs.

Each one recomputes a property from the samples or from the construction,
so the generator tests do not rest on the code paths under test.
"""

import math

import numpy as np

from sphericity import karcher_mean, winding_number
from sphericity.curves import (_angle_in_frame, _circle_arrays,
                               _equidistant_points)
from sphericity.warped import warped_graph_kappa


def validate_curve(curve) -> dict:
    """Structural measurements of a generated curve.

    The convexity certificate (positive measured curvature + unit winding
    around an interior point) doubles as the simplicity check at sampling
    resolution, since a locally convex loop winding once around an interior
    point is embedded.
    """
    space = curve.space
    center = curve.hint_center if curve.hint_center is not None \
        else karcher_mean(space, curve.points)
    orth = np.abs(space.metric_dot(curve.points, curve.tangents,
                                   curve.normals_out))
    corner = curve.corner
    smooth = ~(corner | np.roll(corner, 1) | np.roll(corner, -1))
    result = {
        "winding": winding_number(space, curve.points, center),
        "max_tangent_normal_dot": float(np.max(orth[smooth]))
        if np.any(smooth) else 0.0,
        "max_gap": curve.max_gap,
        "closure_gap": curve.closure_gap,
        "kmin": curve.kmin,
        "hemisphere_ok": True,
    }
    if space.kind.value == "sphere" and curve.kmin >= -1e-9:
        u = space.project(center) * space.k1
        result["hemisphere_ok"] = bool(
            float(np.min(curve.points * space.k1 @ u)) >= -1e-9)
    return result


def smaller_arcs_inside(curve, a, b, k0: float, samples: int = 256) -> bool:
    """Do both smaller circular arcs of curvature k0 through a and b stay
    inside the curve?  A k0-convex body contains all of them."""
    space = curve.space
    radius = space.circle_radius_of_curvature(k0)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    gap = float(space.distance(a, b))
    assert gap < 2.0 * radius, "points too far apart for a radius-R arc"
    if gap < 1e-15:
        return True
    for c in _equidistant_points(space, a, b, gap, radius):
        ang_a = _angle_in_frame(space, c, a)
        ang_b = _angle_in_frame(space, c, b)
        sweep = (ang_b - ang_a) % (2.0 * math.pi)
        if sweep > math.pi:
            ang_a, sweep = ang_b, 2.0 * math.pi - sweep
        pts, _ = _circle_arrays(
            space, c, radius, ang_a + sweep * np.arange(1, samples) / samples)
        if any(winding_number(space, curve.points, p) != 1 for p in pts):
            return False
    return True


def warped_curve_kappa_analytic(metric, rho0: float, harmonics, theta):
    """Graph curvature of rho0 + harmonics with analytic rho', rho''."""
    theta = np.asarray(theta, dtype=float)
    rho = np.full_like(theta, float(rho0))
    rho_p = np.zeros_like(theta)
    rho_pp = np.zeros_like(theta)
    for j, (aj, bj) in harmonics.items():
        c, s = np.cos(j * theta), np.sin(j * theta)
        rho += aj * c + bj * s
        rho_p += j * (-aj * s + bj * c)
        rho_pp += -j * j * (aj * c + bj * s)
    return warped_graph_kappa(metric, rho, rho_p, rho_pp)
