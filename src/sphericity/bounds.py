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

# Guards and verdict tolerances of every verifier (angle, width, warped)
# and of the suite reports.
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


def check_hypotheses(space: SpaceForm, k0: float, t_max: float | None = None,
                     k_ball: float | None = None) -> float:
    """Refuse a bound whose hypotheses fail; return R = radius of k0.

    ``k0`` must lie in the domain of ``space.circle_radius_of_curvature``
    (flat k0 > 0, sphere k0 >= 0, hyperbolic k0 > k1).  On the sphere the
    curve's largest distance ``t_max`` from the base point, when given,
    must stay within pi / (2 k_ball) (the closed hemisphere for the default
    k_ball = k1).  Raises HypothesisViolation otherwise.
    """
    try:
        radius = space.circle_radius_of_curvature(k0)
    except GeometryError as exc:
        raise HypothesisViolation(
            f"bound hypothesis fails for k0 = {k0:.6g}: {exc}") from None
    if t_max is not None and space.kind is Kind.SPHERE:
        k_ball = space.k1 if k_ball is None else k_ball
        if t_max > np.pi / (2.0 * k_ball) * (1 + 1e-9):
            raise HypothesisViolation(
                f"curve leaves the closed ball of radius pi/(2 k) = "
                f"{np.pi / (2.0 * k_ball):.6g} around the base point")
    return radius


def cos_phi_lower_bound(space: SpaceForm, k0: float, h) -> np.ndarray | float:
    """Sharp lower bound for cos(phi); 0 at h = 0, 1 at h = R, nondecreasing."""
    radius = space.circle_radius_of_curvature(k0)
    h_arr = np.asarray(h, dtype=float)
    if np.any(h_arr < -1e-12) or np.any(h_arr > radius * (1 + 1e-12)):
        raise GeometryError(f"h must lie in [0, R={radius}]")
    h_arr = np.clip(h_arr, 0.0, radius)
    val = np.sqrt(np.maximum(space.sn(h_arr) * space.sn(2.0 * radius - h_arr),
                             0.0)) / space.sn(radius)
    out = np.clip(val, 0.0, 1.0)
    return float(out) if np.isscalar(h) or np.ndim(h) == 0 else out


def cos_phi_weak_bound(space: SpaceForm, k0: float, h) -> np.ndarray | float:
    """Rough lower bound sn(h)/sn(R); dominated by the sharp bound."""
    radius = space.circle_radius_of_curvature(k0)
    h_arr = np.asarray(h, dtype=float)
    if np.any(h_arr < -1e-12) or np.any(h_arr > radius * (1 + 1e-12)):
        raise GeometryError(f"h must lie in [0, R={radius}]")
    h_arr = np.clip(h_arr, 0.0, radius)
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
    if not 0.0 <= h <= radius * (1 + 1e-12):
        raise GeometryError("h must lie in [0, R]")
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
    near_extremum = flips.copy()
    for off in range(1, _ODE_EXCLUSION + 1):
        near_extremum |= np.roll(flips, off) | np.roll(flips, -off)
    included = np.isfinite(curve.kappa) & ~near_extremum & (sgn != 0)
    mu0 = np.asarray(space.mu0(t), dtype=float)
    resid = np.abs(curve.kappa - (mu0 * np.cos(phi) - sgn * dphi))
    return resid[included], included


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
    included: np.ndarray
    min_slack: float
    excluded_corner_count: int
    passed: bool


def verify_angle_bound(curve: ClosedCurve, base,
                       slack_tol: float = DEFAULT_SLACK_TOL) -> AngleReport:
    """Check every sample's cos(phi) against the sharp lower bound.

    The curvature entering the bound is the refined measured minimum minus
    DEFAULT_K0_GUARD, so estimator error cannot produce spurious failures; the
    refined minimum distance loses DEFAULT_H_GUARD for the same reason.  Both
    guards only slacken the bound.  Samples whose curvature window spans a
    corner are excluded.

    Raises HypothesisViolation when the curve does not satisfy the
    hypotheses for its geometry (see :func:`check_hypotheses`; on the
    sphere the closed hemisphere is taken around the base point).
    """
    space = curve.space
    k0_used = curve.kmin - DEFAULT_K0_GUARD
    if space.kind is Kind.SPHERE and k0_used < 0.0 and curve.kmin >= -1e-9:
        k0_used = 0.0   # geodesic circles measure kmin ~ 0 up to noise
    check_hypotheses(space, k0_used)
    meas = measure_radial(curve, base)
    radius = check_hypotheses(space, k0_used, float(np.max(meas.t)))
    h_used = min(max(meas.h - DEFAULT_H_GUARD, 0.0), radius)
    bound = float(cos_phi_lower_bound(space, k0_used, h_used))

    cos_phi = np.cos(meas.phi)
    slack = cos_phi - bound
    included = ~corner_band(curve.corner)
    excluded = int(np.sum(~included))
    if not np.any(included):
        raise GeometryError("corner exclusion removed every sample")
    min_slack = float(np.min(slack[included]))
    return AngleReport(bound_cos=bound, s=curve.s, t=meas.t, phi=meas.phi,
                       cos_phi=cos_phi, slack=slack, included=included,
                       min_slack=min_slack, excluded_corner_count=excluded,
                       passed=bool(min_slack >= -slack_tol))
