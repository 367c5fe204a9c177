"""Inscribed circles, enclosing annuli, and the width-bound verifier.

For a closed k0-convex curve the enclosing annulus centered at the incenter
(the interior point maximizing the minimum distance to the curve) has width
d = rho1 - r, where r is the inradius and rho1 the maximal distance from
the incenter.  The verifier checks d against the maximal spindle width
d0(k0) of :mod:`sphericity.spindles`; lunes at the optimal inradius attain
the bound, every other k0-convex body stays below it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .bounds import DEFAULT_K0_GUARD, DEFAULT_MARGIN_TOL, check_hypotheses
from .curves import (ClosedCurve, _angle_in_frame, _circle_arrays,
                     _equidistant_points, max_distance_to_curve,
                     min_distance_to_curve, winding_number)
from .errors import GeometryError, HypothesisViolation
from .search import golden_max
from .spaceforms import Kind, karcher_mean
from .spindles import spindle_optimum

#: points per axis of the coarse incenter grid
_GRID_N = 41


@dataclass(frozen=True)
class LayerReport:
    """Annulus-width verdict for one curve."""

    incenter: np.ndarray
    r: float
    rho1: float
    d: float
    k0_used: float
    d0: float
    margin: float
    passed: bool
    grid_certificate: float

    def to_dict(self) -> dict:
        return {
            "schema": "layer_report/1",
            "incenter": [float(x) for x in self.incenter],
            "r": self.r,
            "rho1": self.rho1,
            "d": self.d,
            "k0_used": self.k0_used,
            "d0": self.d0,
            "margin": self.margin,
            "passed": bool(self.passed),
            "grid_certificate": self.grid_certificate,
        }


def _point_in_polygon(xy_points, polygon) -> np.ndarray:
    """Vectorized even-odd test of chart points against a chart polygon."""
    x, y = xy_points[:, 0], xy_points[:, 1]
    px, py = polygon[:, 0], polygon[:, 1]
    qx, qy = np.roll(px, -1), np.roll(py, -1)
    inside = np.zeros(len(xy_points), dtype=bool)
    for (x0, y0, x1, y1) in zip(px, py, qx, qy):
        crosses = (y0 > y) != (y1 > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_int = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
        inside ^= crosses & (x < x_int)
    return inside


def _min_dist_field(space, curve_points, trial_points) -> np.ndarray:
    """min_j distance(p_i, curve_j) for a batch of trial points."""
    out = np.empty(len(trial_points))
    # chunked to keep the (trials x samples) distance table small
    chunk = max(1, 2_000_000 // max(len(curve_points), 1))
    for start in range(0, len(trial_points), chunk):
        block = trial_points[start:start + chunk]
        d = space.distance(block[:, None, :], curve_points[None, :, :])
        out[start:start + chunk] = d.min(axis=1)
    return out


def _line_search_polish(space, curve, center, step0):
    """Alternating golden line searches maximizing the min-distance field.

    Nelder-Mead stalls on the flat-topped ridge that the two-contact bodies
    (lunes) produce; a few golden sweeps along the chart axes localize the
    maximizer to ~1e-10, which the sharpness margins need.
    """
    def f_of(p):
        return min_distance_to_curve(curve, p, refine=True)[0]

    e1, e2 = space.frame(center)
    best = np.array(center, dtype=float)
    best_val = f_of(best)
    step = step0
    for _ in range(60):
        moved = False
        for direction in (e1, e2):
            e1c, e2c = space.frame(best)
            d = e1c if direction is e1 else e2c

            def along(u, d=d, base=best):
                return f_of(space.exp_map(base, u * d))

            u_star, val = golden_max(along, -step, step, tol=1e-12 * step0)
            if val > best_val:
                best = space.exp_map(best, u_star * d)
                best_val = val
                if abs(u_star) > 1e-13:
                    moved = True
        if not moved:
            step *= 0.25
            if step < 1e-11 * step0:
                break
    return best, best_val


def incenter(curve: ClosedCurve):
    """Incenter and inradius: a maximizer of p -> min_s dist(p, curve).

    Coarse interior grid, Nelder-Mead refinement, then golden line-search
    polish.  Returns (point, r, grid_certificate) where the certificate is
    the largest min-distance seen on the coarse grid (no grid point may
    exceed the returned r by more than the refinement tolerance).
    """
    space = curve.space
    seed = curve.hint_center if curve.hint_center is not None \
        else karcher_mean(space, curve.points)
    if winding_number(space, curve.points, seed) != 1:
        seed = karcher_mean(space, curve.points)
        if winding_number(space, curve.points, seed) != 1:
            raise GeometryError("found no interior seed point for the curve")

    poly = space.to_chart(seed, curve.points)
    span = float(np.max(np.abs(poly))) * 1.05
    if span <= 0.0:
        raise GeometryError("degenerate (zero-area) curve")
    axis = np.linspace(-span, span, _GRID_N)
    gx, gy = np.meshgrid(axis, axis)
    grid_xy = np.stack([gx.ravel(), gy.ravel()], axis=-1)
    inside = _point_in_polygon(grid_xy, poly)
    grid_xy = grid_xy[inside]
    if len(grid_xy) == 0:
        grid_xy = np.zeros((1, 2))
    trial_points = space.from_chart(seed, grid_xy)
    field = _min_dist_field(space, curve.points, trial_points)
    best_idx = int(np.argmax(field))
    grid_certificate = float(np.max(field))

    x0 = grid_xy[best_idx]

    def objective(xy):
        p = space.from_chart(seed, xy)
        return -min_distance_to_curve(curve, p, refine=False)[0]

    res = minimize(objective, x0, method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-13,
                            "maxiter": 400, "maxfev": 800})
    center = space.from_chart(seed, res.x)
    step0 = max(2.0 * span / (_GRID_N - 1), 1e-6)
    center, r = _line_search_polish(space, curve, center, step0)
    return center, float(r), grid_certificate


def layer_width(curve: ClosedCurve, k0_guard: float = DEFAULT_K0_GUARD,
                margin_tol: float = DEFAULT_MARGIN_TOL) -> LayerReport:
    """Width of the incenter-centered annulus, checked against d0(kmin).

    ``k0_used`` is the measured minimal curvature minus ``k0_guard``: the
    curve genuinely is k0_used-convex, so d <= d0(k0_used) is an honest
    instance of the width bound even in the presence of estimator error.
    On the sphere the closed hemisphere is taken around the incenter.
    """
    space = curve.space
    k0_used = curve.kmin - k0_guard
    check_hypotheses(space, k0_used)
    if space.kind is Kind.SPHERE and k0_used <= 0.0:
        # the spindle family degenerates (r0 = 0) at k0 = 0
        raise HypothesisViolation("width bound requires kmin > 0")

    center, r, certificate = incenter(curve)
    check_hypotheses(space, k0_used,
                     float(np.max(space.distance(center, curve.points))))
    rho1, _ = max_distance_to_curve(curve, center, refine=True)
    d = rho1 - r
    d0 = spindle_optimum(space, k0_used).d0
    margin = d0 - d
    return LayerReport(incenter=center, r=r, rho1=float(rho1), d=float(d),
                       k0_used=float(k0_used), d0=float(d0),
                       margin=float(margin),
                       passed=bool(margin >= -margin_tol),
                       grid_certificate=certificate)


def min_width_layer(curve: ClosedCurve, starts: int = 1, rng=None):
    """Locally optimal annulus center minimizing max - min distance.

    Exploratory: the bound of :func:`layer_width` concerns the incenter
    layer; the true minimal layer can only be narrower.  Direct search
    (Nelder-Mead) started at the incenter, optionally with perturbed
    restarts whose agreement the tests check.
    """
    space = curve.space
    center0, _, _ = incenter(curve)
    seed = center0

    def width_of(xy):
        p = space.from_chart(seed, xy)
        try:
            if winding_number(space, curve.points, p) != 1:
                return np.inf
        except Exception:
            return np.inf
        lo, _ = min_distance_to_curve(curve, p, refine=True)
        hi, _ = max_distance_to_curve(curve, p, refine=True)
        return hi - lo

    x0s = [np.zeros(2)]
    if starts > 1:
        rng = rng or np.random.default_rng(0)
        scale = 0.05 * float(np.max(space.distance(center0, curve.points)))
        for _ in range(starts - 1):
            x0s.append(rng.normal(scale=scale, size=2))
    best_xy, best_w = None, np.inf
    for x0 in x0s:
        res = minimize(width_of, x0, method="Nelder-Mead",
                       options={"xatol": 1e-11, "fatol": 1e-13,
                                "maxiter": 600, "maxfev": 1200})
        if res.fun < best_w:
            best_w = float(res.fun)
            best_xy = res.x
    return space.from_chart(seed, best_xy), best_w


def smaller_arcs_inside(curve: ClosedCurve, a, b, k0: float | None = None,
                        samples: int = 256) -> bool:
    """Do both smaller radius-R circular arcs through a and b stay inside?

    R is the circle radius of ``k0`` (defaults to the measured kmin).  Used
    as a generator sanity property of k0-convex bodies.
    """
    space = curve.space
    k0 = curve.kmin if k0 is None else k0
    radius = space.circle_radius_of_curvature(k0)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    gap = float(space.distance(a, b))
    if gap >= 2.0 * radius * (1 - 1e-12):
        raise GeometryError("points are too far apart for a radius-R arc")
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
