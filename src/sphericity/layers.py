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
from .spaceforms import Kind, _dot, karcher_mean
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
    """Every refined local minimum of the distance from p to the curve.

    Returns their values f, the unit directions u from p toward their
    refined foot points in ``space.frame(p)`` coordinates, and the
    curvature h of the level curve through p of each foot point's
    osculating circle, (kappa cs(f) + K sn(f)) / (cs(f) - kappa sn(f))
    with K the Gaussian curvature.  A kappa error of DEFAULT_K0_GUARD moves
    the denominator by that much times sn(f), so it is kept above that;
    h is 0 where kappa is NaN (corners).
    """
    space = curve.space
    _, vals = _distance_extrema(curve, p, "min", contacts=True)
    f, u, kappa = vals[:, 0], vals[:, 1:3], vals[:, 3]
    sn, cs = space.sn(f), space.cs(f)
    gauss = {Kind.SPHERE: 1.0, Kind.HYPERBOLIC: -1.0}.get(space.kind, 0.0)
    h = (kappa * cs + gauss * space.k1 ** 2 * sn) \
        / np.maximum(cs - kappa * sn, DEFAULT_K0_GUARD * sn)
    return f, u / np.sqrt(_dot(u, u))[:, None], np.nan_to_num(h)


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


def _kkt_newton(u, t, b, h):
    """Newton's method on the KKT system of max z s.t. g_c(delta) >= z,
    g_c = b_c - <u_c, delta> - h_c <t_c, delta>^2 / 2, from delta = 0 and
    equal multipliers lam.  Returns (delta, lam); NaN if singular.
    """
    m = len(b)
    x = np.concatenate([np.zeros(2), [np.min(b)], np.full(m, 1.0 / m)])
    jac = np.zeros((m + 3, m + 3))
    jac[2, 3:] = jac[3:, 2] = -1.0
    for _ in range(20):
        delta, z, lam = x[:2], x[2], x[3:]
        s = t @ delta
        grad = -u - (h * s)[:, None] * t
        res = np.concatenate([grad.T @ lam, [1.0 - np.sum(lam)],
                              b - u @ delta - 0.5 * h * s * s - z])
        jac[:2, :2] = -(t.T * (lam * h)) @ t
        jac[:2, 3:], jac[3:, :2] = grad.T, grad
        try:
            step = np.linalg.solve(jac, res)
        except np.linalg.LinAlgError:
            return np.full(2, np.nan), lam
        x = x - step
        if np.max(np.abs(step)) <= 1e-15 * max(1.0, np.max(np.abs(x))):
            break
    return x[:2], x[3:]


def _second_order_step(space, u, b, h, radius):
    """(delta, predicted gain) on the osculating-circle contact models.

    The LP step picks the active contacts, whose linear model is within
    1e-9 radius of the least.  Two or three take the Newton step, one steps
    along -u_c to the centre of its level curve, at most radius away.  The
    step is kept if it is finite, within 2 radius, with lam >= 0 and every
    model g_c >= 0, the least being the predicted gain; else the LP step.
    """
    delta, predicted = _model_step(u, b, radius)
    linear = b - u @ delta
    act = np.flatnonzero(linear <= np.min(linear) + 1e-9 * radius)
    t = np.column_stack([-u[:, 1], u[:, 0]])
    if len(act) == 1:
        try:
            length = min(radius, space.circle_radius_of_curvature(h[act[0]]))
        except GeometryError:
            length = radius
        step, lam = -length * u[act[0]], np.ones(1)
    elif len(act) <= 3:
        step, lam = _kkt_newton(u[act], t[act], b[act] / radius,
                                h[act] * radius)
        step = radius * step
    else:
        return delta, predicted
    quad = np.min(b - u @ step - 0.5 * h * (t @ step) ** 2)
    if (np.all(np.isfinite(step)) and np.linalg.norm(step) <= 2.0 * radius
            and np.all(lam >= 0.0) and quad >= 0.0):
        return step, float(quad)
    return delta, predicted


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

    Trust-region ascent on the contacts (Hald and Madsen's combined LP and
    Newton minimax method).  Contact c is modelled by its osculating
    circle, g_c(delta) = f_c - r - <u_c, delta> - h_c <t_c, delta>^2 / 2
    with t_c = u_c turned by 90 degrees.  An exact LP on the linear parts
    over the box |delta|_inf <= Delta picks the active contacts; two or
    three take a Newton step on max min g_c, one steps to the centre of
    its level curve, and the LP step is the fallback.  The step is taken
    with exp_map; Delta grows or shrinks with the ratio of actual to
    predicted gain; the ascent stops when either reaches roundoff.
    Returns (point, r, kkt_residual): r is the least refined contact at the
    point, and the residual is the norm of the smallest convex combination
    of the directions of the contacts within DEFAULT_MARGIN_TOL of r, which
    the width verdict cannot tell apart (zero at an exact maximizer).
    """
    space = curve.space
    p = curve.hint_center
    if p is None or winding_number(space, curve.points, p) != 1:
        p = karcher_mean(space, curve.points)
        if winding_number(space, curve.points, p) != 1:
            raise GeometryError("found no interior seed point for the curve")
    f, u, h = _contacts(curve, p)
    r = float(np.min(f))
    if r <= 0.0:
        raise GeometryError("degenerate (zero-area) curve")
    radius = 0.25 * r
    tiny = 64.0 * np.finfo(float).eps * max(1.0, r)
    for _ in range(200):
        # contacts farther than 2 sqrt(2) Delta above r never bind in the box
        near = f - r <= 3.0 * radius
        delta, predicted = _second_order_step(space, u[near], f[near] - r,
                                              h[near], radius)
        if predicted <= tiny:
            break
        e1, e2 = space.frame(p)
        q = space.exp_map(p, delta[0] * e1 + delta[1] * e2)
        f_q, u_q, h_q = _contacts(curve, q)
        gain = float(np.min(f_q)) - r
        if gain > 0.0:
            p, f, u, h, r = q, f_q, u_q, h_q, float(np.min(f_q))
        if gain >= 0.75 * predicted:
            radius = min(2.0 * radius, 0.5 * r)
        elif gain < 0.25 * predicted:
            # shrink below a second-order step, which ignores Delta; past
            # the centre of a level curve distance falls at the rate it
            # rose, so the centre was (predicted + gain) / 2 along the step
            radius = 0.25 * min(radius, float(np.max(np.abs(delta))))
            if gain > -predicted:
                radius = min(radius, 0.5 * (predicted + gain))
        if radius <= tiny:
            break
    return p, r, _kkt_residual(u[f - r <= DEFAULT_MARGIN_TOL])


def layer_width(curve: ClosedCurve) -> LayerReport:
    """Width of the incenter-centered annulus, checked against d0(kmin).

    ``k0_used`` is the measured minimal curvature minus DEFAULT_K0_GUARD: the
    curve genuinely is k0_used-convex, so d <= d0(k0_used) is an honest
    instance of the width bound even in the presence of estimator error.
    The check passes when d0 - d >= -DEFAULT_MARGIN_TOL.  On the sphere the
    closed hemisphere is taken around the incenter.
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
                       passed=bool(margin >= -DEFAULT_MARGIN_TOL),
                       kkt_residual=kkt)
