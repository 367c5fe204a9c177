"""Inscribed circles, enclosing annuli, and the width-bound verifier.

For a closed k0-convex curve the enclosing annulus centered at the incenter
(the interior point maximizing the minimum distance to the curve) has width
d = rho1 - r, where r is the inradius and rho1 the maximal distance from
the incenter.  The verifier checks d against the maximal spindle width
d0(k0) of :mod:`sphericity.spindles`; lunes at the optimal inradius attain
the bound, every other k0-convex body stays below it.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .bounds import DEFAULT_K0_GUARD, DEFAULT_MARGIN_TOL, check_hypotheses
from .curves import (ClosedCurve, _distance_extrema, max_distance_to_curve,
                     min_distance_to_curve, winding_number)
from .errors import GeometryError, HypothesisViolation
from .spaceforms import Kind, karcher_mean
from .spindles import spindle_optimum


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
    kkt_residual: float

    def to_dict(self) -> dict:
        return {"schema": "layer_report/2", **dataclasses.asdict(self),
                "incenter": [float(x) for x in self.incenter]}


def _contacts(curve: ClosedCurve, p):
    """Refined local minima of the distance from p to the curve.

    Returns their values and the unit directions from p toward their foot
    points in ``space.frame(p)`` coordinates, interpolated at the refined
    foot points.
    """
    _, vals = _distance_extrema(curve, p, "min", chart=True)
    u = vals[:, 1:]
    return vals[:, 0], u / np.linalg.norm(u, axis=1, keepdims=True)


def _model_step(u, b, radius):
    """Exact maximizer of min_c (b_c - <u_c, delta>) on |delta|_inf <= radius.

    Constraint generation in units of radius: the LP over a working set of
    contacts and the four box faces is solved by enumerating its vertices
    (the feasible solutions of its nonsingular 3x3 active systems), and the
    contact the result violates most joins the set; a round costs O(m).
    Returns (delta, predicted), the least model over all contacts at delta.
    """
    beta = b / radius
    rows = np.column_stack([u, np.ones(len(u))])
    work = [int(np.argmin(beta))]
    while True:
        a = np.vstack([np.eye(2, 3), -np.eye(2, 3), rows[work]])
        rhs = np.concatenate([np.ones(4), beta[work]])
        tri = np.array(list(combinations(range(len(a)), 3)))
        tri = tri[np.abs(np.linalg.det(a[tri])) > 1e-14]
        x = np.linalg.solve(a[tri], rhs[tri][..., None])[..., 0]
        x = x[np.all(x @ a.T <= rhs + 1e-12, axis=1)]
        x = x[np.argmax(x[:, 2])]
        delta = np.clip(x[:2], -1.0, 1.0)
        model = beta - u @ delta
        j = int(np.argmin(model))
        if model[j] >= x[2] - 1e-14 or j in work:
            return radius * delta, radius * float(model[j])
        work.append(j)


def _kkt_residual(u) -> float:
    """Norm of the smallest convex combination of unit vectors u.

    Zero when they surround the origin (no angular gap beyond pi);
    otherwise the chord between the extreme directions is nearest the
    origin, at cos(span / 2) = -cos(widest gap / 2).
    """
    ang = np.sort(np.arctan2(u[:, 1], u[:, 0]))
    gaps = np.diff(ang, append=ang[0] + 2.0 * math.pi)
    return max(0.0, -math.cos(0.5 * float(np.max(gaps))))


def incenter(curve: ClosedCurve):
    """Incenter and inradius: a maximizer of p -> min_s dist(p, curve).

    Trust-region ascent on the contacts (Madsen's minimax SLP): at p, the
    linear model of each contact c is f_c - <u_c, delta>; an exact LP solve
    maximizes their minimum over the box |delta|_inf <= Delta, and that
    minimum at the step is the predicted gain.  The step is taken with
    exp_map; Delta grows or shrinks with the ratio of actual to predicted
    gain; the ascent stops when either reaches roundoff.  Returns (point,
    r, kkt_residual): r is the least refined contact at the point, and
    the residual is the norm of the smallest convex combination of the
    directions of the contacts within DEFAULT_MARGIN_TOL of r, which the
    width verdict cannot tell apart (zero at an exact maximizer).
    """
    space = curve.space
    p = curve.hint_center
    if p is None or winding_number(space, curve.points, p) != 1:
        p = karcher_mean(space, curve.points)
        if winding_number(space, curve.points, p) != 1:
            raise GeometryError("found no interior seed point for the curve")
    f, u = _contacts(curve, p)
    r = float(np.min(f))
    if r <= 0.0:
        raise GeometryError("degenerate (zero-area) curve")
    radius = 0.25 * r
    tiny = 64.0 * np.finfo(float).eps * max(1.0, r)
    for _ in range(200):
        # contacts farther than 2 sqrt(2) Delta above r never bind in the box
        near = f - r <= 3.0 * radius
        delta, predicted = _model_step(u[near], f[near] - r, radius)
        if predicted <= tiny:
            break
        e1, e2 = space.frame(p)
        q = space.exp_map(p, delta[0] * e1 + delta[1] * e2)
        f_q, u_q = _contacts(curve, q)
        gain = float(np.min(f_q)) - r
        if gain > 0.0:
            p, f, u, r = q, f_q, u_q, float(np.min(f_q))
        if gain >= 0.75 * predicted:
            radius = min(2.0 * radius, 0.5 * r)
        elif gain < 0.25 * predicted:
            radius *= 0.25
        if radius <= tiny:
            break
    return p, r, _kkt_residual(u[f - r <= DEFAULT_MARGIN_TOL])


def layer_width(curve: ClosedCurve,
                margin_tol: float = DEFAULT_MARGIN_TOL) -> LayerReport:
    """Width of the incenter-centered annulus, checked against d0(kmin).

    ``k0_used`` is the measured minimal curvature minus DEFAULT_K0_GUARD: the
    curve genuinely is k0_used-convex, so d <= d0(k0_used) is an honest
    instance of the width bound even in the presence of estimator error.
    On the sphere the closed hemisphere is taken around the incenter.
    """
    space = curve.space
    k0_used = curve.kmin - DEFAULT_K0_GUARD
    check_hypotheses(space, k0_used)
    if space.kind is Kind.SPHERE and k0_used <= 0.0:
        # the spindle family degenerates (r0 = 0) at k0 = 0
        raise HypothesisViolation("width bound requires kmin > 0")

    center, _, kkt = incenter(curve)
    check_hypotheses(space, k0_used,
                     float(np.max(space.distance(center, curve.points))))
    r, _ = min_distance_to_curve(curve, center)
    rho1, _ = max_distance_to_curve(curve, center)
    d = rho1 - r
    d0 = spindle_optimum(space, k0_used).d0
    margin = d0 - d
    return LayerReport(incenter=center, r=r, rho1=float(rho1), d=float(d),
                       k0_used=float(k0_used), d0=float(d0),
                       margin=float(margin),
                       passed=bool(margin >= -margin_tol),
                       kkt_residual=kkt)
