"""Sharp lower bounds for the radial angle and their verifier.

For a closed curve with geodesic curvature >= k0 and a base point at
distance h from the curve, the angle phi between each radial geodesic and
the outward normal satisfies

    cos(phi) >= sqrt(sn(h) * sn(2R - h)) / sn(R) >= sn(h) / sn(R),

where R = circle_radius_of_curvature(k0) and sn is the generalized sine of
the geometry (identity / sin(k1 .)/k1 / sinh(k1 .)/k1).  On the flat plane
the sharp member reduces to sqrt(2 h k0 - h^2 k0^2) and the rough one to
h k0.  Equality holds exactly on circles, in the directions perpendicular
to the axis through the base point and the circle center; offset circles
are therefore the sharpness witnesses used by the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import ClosedCurve, corner_band, measure_radial
from .errors import GeometryError, HypothesisViolation
from .spaceforms import Kind, SpaceForm
from .spindles import _within_radius, spindle_optimum

# Guards and verdict tolerances, read by the verdict core below (and by two
# estimator parameters of the incenter search in layers).
#: measured-curvature safety margin subtracted before bound evaluation
DEFAULT_K0_GUARD = 1e-6
#: refined-distance safety margin subtracted before bound evaluation
DEFAULT_H_GUARD = 1e-8
#: verdict tolerance on the per-sample angle slack
DEFAULT_SLACK_TOL = 1e-9
#: verdict tolerance on the width margin d0 - d
DEFAULT_MARGIN_TOL = 1e-7
#: samples left out on each side of a turning point of t in the ODE residual
_ODE_EXCLUSION = 3


def cos_phi_lower_bound(space: SpaceForm, k0: float, h) -> np.ndarray | float:
    """Sharp lower bound for cos(phi); 0 at h = 0, 1 at h = R, nondecreasing."""
    radius = space.circle_radius_of_curvature(k0)
    h_arr = _within_radius(h, radius, "h")
    val = np.sqrt(np.maximum(space.sn(h_arr) * space.sn(2.0 * radius - h_arr),
                             0.0)) / space.sn(radius)
    out = np.clip(val, 0.0, 1.0)
    return float(out) if np.isscalar(h) or np.ndim(h) == 0 else out


def cos_phi_weak_bound(space: SpaceForm, k0: float, h) -> np.ndarray | float:
    """Rough lower bound sn(h)/sn(R); dominated by the sharp bound."""
    radius = space.circle_radius_of_curvature(k0)
    h_arr = _within_radius(h, radius, "h")
    out = np.clip(space.sn(h_arr) / space.sn(radius), 0.0, 1.0)
    return float(out) if np.isscalar(h) or np.ndim(h) == 0 else out


def circle_exact_angle(space: SpaceForm, radius: float, h: float,
                       alpha) -> np.ndarray | float:
    """Exact radial angle on a circle of radius ``radius``.

    ``alpha`` is the central angle at the circle center between the point
    and the axis through the base point (at distance R - h from the
    center).  The law of sines in the geometry gives

        sin(phi) = sn(R - h) / sn(R) * sin(alpha),

    maximal at alpha = pi/2, where cos(phi) meets the sharp bound.
    """
    h = float(_within_radius(h, radius, "h"))
    if space.kind is Kind.SPHERE and radius >= np.pi / space.k1:
        raise GeometryError("circle radius must stay below pi/k1")
    alpha_arr = np.asarray(alpha, dtype=float)
    ratio = space.sn(radius - h) / space.sn(radius)
    out = np.arcsin(np.clip(ratio * np.sin(alpha_arr), -1.0, 1.0))
    out = np.abs(out)
    return float(out) if np.isscalar(alpha) or np.ndim(alpha) == 0 else out


def radial_ode_residuals(curve: ClosedCurve, base):
    """Residual of the radial-angle ODE identity on monotone-t arcs.

    Along any arc where the distance t(s) from the base point is strictly
    monotone, parameterizing by arc length oriented toward increasing t
    gives

        kappa = mu0(t) cos(phi) - dphi/dsigma,

    in constant curvature (the circle curvature mu0 equals the normal
    curvature of the distance sphere there).  dphi/dsigma is computed with
    centered differences; samples within _ODE_EXCLUSION of a sign change of
    dt/ds (where the unsigned phi has a corner) and corner windows are
    excluded.  Returns (residuals, included_mask).
    """
    space = curve.space
    meas = measure_radial(curve, base)
    s, t, phi = curve.s, meas.t, meas.phi
    length = curve.total_length
    ds_f = (np.roll(s, -1) - s) % length
    ds_b = (s - np.roll(s, 1)) % length
    span = ds_f + ds_b
    dphi = (np.roll(phi, -1) - np.roll(phi, 1)) / span
    dt = (np.roll(t, -1) - np.roll(t, 1)) / span
    sgn = np.sign(dt)
    flips = sgn != np.roll(sgn, 1)
    near_extremum = corner_band(flips, _ODE_EXCLUSION)
    included = np.isfinite(curve.kappa) & ~near_extremum & (sgn != 0)
    mu0 = np.asarray(space.mu0(t), dtype=float)
    resid = np.abs(curve.kappa - (mu0 * np.cos(phi) - sgn * dphi))
    return resid[included], included


# ---------------------------------------------------------------------------
# Verdict core: the guards, sphere clamp and tolerances of every verdict
# ---------------------------------------------------------------------------

def guarded_k0(space: SpaceForm, kmin: float) -> float:
    """The k0 a bound takes for a curve of measured minimal curvature kmin:
    kmin less DEFAULT_K0_GUARD, so estimator error cannot produce a
    spurious failure, and 0 for a sphere kmin in [-1e-9, DEFAULT_K0_GUARD)
    (geodesic circles measure kmin ~ 0 up to noise).  Raises
    HypothesisViolation outside ``circle_radius_of_curvature``'s domain."""
    k0 = kmin - DEFAULT_K0_GUARD
    if space.kind is Kind.SPHERE and k0 < 0.0 and kmin >= -1e-9:
        k0 = 0.0
    try:
        space.circle_radius_of_curvature(k0)
    except GeometryError as exc:
        raise HypothesisViolation(
            f"bound hypothesis fails for k0 = {k0:.6g}: {exc}") from None
    return k0


def _check_ball(space: SpaceForm, t_max: float, k_ball: float | None):
    """Refuse a sphere curve farther than pi/(2 k_ball) from the base point
    (the closed hemisphere for the default k_ball = k1)."""
    if space.kind is Kind.SPHERE:
        k_ball = space.k1 if k_ball is None else k_ball
        if t_max > np.pi / (2.0 * k_ball) * (1 + 1e-9):
            raise HypothesisViolation(
                f"curve leaves the closed ball of radius pi/(2 k) = "
                f"{np.pi / (2.0 * k_ball):.6g} around the base point")


def angle_slack(space: SpaceForm, k0: float, h: float, t_max: float,
                cos_phi, k_ball: float | None = None):
    """(bound, cos_phi - bound) for the sharp bound at the least distance
    h less DEFAULT_H_GUARD, after :func:`_check_ball` of t_max."""
    _check_ball(space, t_max, k_ball)
    h_used = min(max(h - DEFAULT_H_GUARD, 0.0),
                 space.circle_radius_of_curvature(k0))
    bound = float(cos_phi_lower_bound(space, k0, h_used))
    return bound, cos_phi - bound


def slack_check(min_slack: float):
    """(bound, slack, passed): a least slack passes from -DEFAULT_SLACK_TOL."""
    return (-DEFAULT_SLACK_TOL, min_slack + DEFAULT_SLACK_TOL,
            bool(min_slack >= -DEFAULT_SLACK_TOL))


def width_check(space: SpaceForm, k0: float, d: float, t_max: float,
                k_ball: float | None = None):
    """(d0, margin, passed) of an annulus width d against d0(k0), which
    passes when d0 - d >= -DEFAULT_MARGIN_TOL, after :func:`_check_ball`
    of t_max.  Refuses a sphere k0 <= 0, where the spindles degenerate."""
    if space.kind is Kind.SPHERE and k0 <= 0.0:
        raise HypothesisViolation("width bound requires kmin > 0")
    _check_ball(space, t_max, k_ball)
    d0 = spindle_optimum(space, k0).d0
    margin = d0 - d
    return d0, margin, bool(margin >= -DEFAULT_MARGIN_TOL)


# ---------------------------------------------------------------------------
# Verifier
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AngleReport:
    """Per-sample slack of the measured angles against the sharp bound."""

    bound_cos: float
    s: np.ndarray
    t: np.ndarray
    phi: np.ndarray
    cos_phi: np.ndarray
    slack: np.ndarray
    included: np.ndarray    # all True: every sample is judged
    min_slack: float
    passed: bool


def verify_angle_bound(curve: ClosedCurve, base) -> AngleReport:
    """Check every sample's cos(phi) against the sharp lower bound.

    Corners bar only kappa, not phi: a corner's stored tangent is the
    bisector, whose normal lies in the normal cone.  A k0-convex body lies
    in the k0-disc that touches it at a boundary point along any support
    normal there (Blaschke's rolling theorem), so the base point lies in
    that disc at a distance h' >= h from its circle, which meets the sharp
    bound at h' and so at h (the bound does not decrease in h).  The
    verdict core above raises HypothesisViolation when the curve does not
    satisfy the hypotheses for its geometry.
    """
    space = curve.space
    k0 = guarded_k0(space, curve.kmin)
    meas = measure_radial(curve, base)
    cos_phi = np.cos(meas.phi)
    bound, slack = angle_slack(space, k0, meas.h, float(np.max(meas.t)),
                               cos_phi)
    min_slack = float(np.min(slack))
    return AngleReport(bound_cos=bound, s=curve.s, t=meas.t, phi=meas.phi,
                       cos_phi=cos_phi, slack=slack,
                       included=np.ones(curve.n, dtype=bool),
                       min_slack=min_slack, passed=slack_check(min_slack)[2])
