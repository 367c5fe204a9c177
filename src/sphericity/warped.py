"""Rotationally symmetric metrics ds^2 = dt^2 + f(t)^2 dtheta^2.

These metrics exercise the curvature-comparison machinery beyond constant
curvature: the Gaussian curvature is K(t) = -f''(t)/f(t) and the coordinate
circle of radius t has geodesic curvature mu(t) = f'(t)/f(t).  When K stays
in a one-signed band, mu(t) is dominated by the circle curvature mu0(t) of
the matching constant-curvature comparison plane, and closed curves around
the pole satisfy the same radial-angle and annulus-width bounds as in that
plane.

The base point is always the warp pole: t is then the exact geodesic
distance from the base point, which keeps every check closed-form.
Off-pole base points would require geodesic shooting and are deliberately
out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from inspect import signature

import numpy as np

from .bounds import angle_slack, guarded_k0, slack_check, width_check
from .curves import DEFAULT_SAMPLES, _harmonic_orders
from .errors import CurveGenerationError, GeometryError, HypothesisViolation
from .search import refine_extremum
from .spaceforms import SpaceForm

#: tolerance on the declared curvature band during certification
BAND_GUARD = 1e-9
#: radii on the certification grid of a metric's curvature band
_CHECK_POINTS = 10_000
#: radii at which the circle-curvature comparison is checked
_COMPARISON_RADII = 1000


@dataclass(frozen=True)
class WarpedMetric:
    """A certified warped metric dt^2 + f(t)^2 dtheta^2 on (0, T].

    ``warp(t)`` returns (f, f', f''): the warping function and its first
    two derivatives at t.  ``k_lo``/``k_hi`` hold the measured Gaussian
    curvature band over the certification grid.
    """

    T: float
    warp: callable = field(repr=False)
    k_lo: float
    k_hi: float

    def mu(self, t):
        """Geodesic curvature f'/f of the coordinate circle of radius t in
        (0, T]; a float for a scalar t."""
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr <= 0.0) or np.any(t_arr > self.T * (1 + 1e-12)):
            raise GeometryError(f"radius must lie in (0, T={self.T}]")
        f, fp, _ = self.warp(t_arr)
        out = fp / f
        return float(out) if np.ndim(t) == 0 else out


def _constant(space: SpaceForm):
    """(warp, band) of the constant-curvature plane ``space``."""
    K = space.sign * space.k1 ** 2

    def warp(t):
        sn = space.sn(t)
        return sn, space.cs(t), -K * sn

    return warp, (K, K)


def _cubic(T, *, eps):
    def warp(t):
        t = np.asarray(t, dtype=float)
        return t + eps * t ** 3, 1.0 + 3.0 * eps * t ** 2, 6.0 * eps * t

    return warp, (-6.0 * eps, -6.0 * eps / (1.0 + eps * T * T))


def _perturbed_sin(T, *, delta):
    # f = sin(a t)(1 + delta sin^2(a t)) / a, with a chosen so the
    # curvature band starts exactly at 1
    if not 0.0 < delta < 1.0 / 6.0:
        raise CurveGenerationError("perturbed_sin requires 0 < delta < 1/6")
    a2 = (1.0 + delta) / (1.0 - 6.0 * delta)
    a = math.sqrt(a2)

    def warp(t):
        x = a * np.asarray(t, dtype=float)
        s, c = np.sin(x), np.cos(x)
        return (s * (1.0 + delta * s ** 2) / a,
                c + 3.0 * delta * s ** 2 * c,
                a * (-s + 3.0 * delta * s * (2.0 * c ** 2 - s ** 2)))

    return warp, (1.0, a2 * (1.0 + 3.0 * delta))


def _sinh_bump(T, *, k1, amp, center, width):
    # hyperbolic warp times a t^3-damped Gaussian bump: the cubic factor
    # keeps the pole smooth (f(0)=0, f'(0)=1, f''(0)=0); K stays
    # nonpositive for small amplitudes (certified, not assumed), and the
    # declared band is a conservative one
    def warp(t):
        t = np.asarray(t, dtype=float)
        u = (t - center) / width
        e = np.exp(-u * u)
        ep = -2.0 * u / width * e
        epp = (4.0 * u * u - 2.0) / width ** 2 * e
        g = amp * t ** 3 * e
        gp = amp * (3.0 * t ** 2 * e + t ** 3 * ep)
        gpp = amp * (6.0 * t * e + 6.0 * t ** 2 * ep + t ** 3 * epp)
        sh, ch = np.sinh(k1 * t), np.cosh(k1 * t)
        return (sh / k1 * (1.0 + g),
                ch * (1.0 + g) + sh / k1 * gp,
                k1 * sh * (1.0 + g) + 2.0 * ch * gp + sh / k1 * gpp)

    return warp, (-4.0 * k1 * k1, 0.0)


#: ``FAMILIES[family](T, **params)`` is (warp, declared curvature band) on
#: (0, T]; the builder's keyword-only parameters are the family's
FAMILIES = {"flat": lambda T: _constant(SpaceForm.flat()),
            "hyperbolic": lambda T, *, k1: _constant(SpaceForm.hyperbolic(k1)),
            "spherical": lambda T, *, k1: _constant(SpaceForm.sphere(k1)),
            "cubic": _cubic, "perturbed_sin": _perturbed_sin,
            "sinh_bump": _sinh_bump}


def family_params(family: str, params: dict) -> dict:
    """``params``, refused with a CurveGenerationError unless its names are
    those of ``family``'s parameters."""
    names = [p.name for p in signature(FAMILIES[family]).parameters.values()
             if p.kind is p.KEYWORD_ONLY]
    for name in params:
        if name not in names:
            raise CurveGenerationError(
                f"{name!r} is not a parameter of family {family!r}, which "
                f"takes {', '.join(map(repr, names)) or 'none'}")
    for name in names:
        if name not in params:
            raise CurveGenerationError(
                f"missing parameter {name!r} of family {family!r}")
    return params


def make_warped(family: str, *, T: float, **params) -> WarpedMetric:
    """Build and certify a warped metric of one of the ``FAMILIES``.

    ``params`` must be the family's parameters (``family_params``).  The
    curvature band is measured on a dense radius grid and must stay inside
    the family's declared band (with a small guard); the warp must be
    positive on (0, T], and f, f', f'' and K finite there.  Violations are
    rejected with the offending radius, never trusted.
    """
    if T <= 0.0:
        raise CurveGenerationError("T must be positive")
    warp, (lo_decl, hi_decl) = FAMILIES[family](
        T, **family_params(family, params))
    t = np.linspace(T / _CHECK_POINTS, T, _CHECK_POINTS)
    with np.errstate(all="ignore"):
        fv, fpv, fppv = warp(t)
        K = -fppv / fv
    if np.any(fv <= 0.0):
        bad = float(t[np.argmax(fv <= 0.0)])
        raise CurveGenerationError(
            f"warp vanishes inside (0, T] at t = {bad:.6f}", where=bad)
    finite = np.all(np.isfinite([fv, fpv, fppv, K]), axis=0)
    if not np.all(finite):
        bad = float(t[np.argmin(finite)])
        raise CurveGenerationError(
            f"warp, its derivatives or its curvature overflow at t = "
            f"{bad:.6g}", where=bad)
    k_lo, k_hi = float(np.min(K)), float(np.max(K))
    if k_lo < lo_decl - BAND_GUARD or k_hi > hi_decl + BAND_GUARD:
        bad = float(t[int(np.argmin(K)) if k_lo < lo_decl - BAND_GUARD
                      else int(np.argmax(K))])
        raise CurveGenerationError(
            f"curvature band [{k_lo:.6g}, {k_hi:.6g}] leaves the declared "
            f"band [{lo_decl:.6g}, {hi_decl:.6g}] at t = {bad:.6f}", where=bad)
    return WarpedMetric(T=float(T), warp=warp, k_lo=k_lo, k_hi=k_hi)


# ---------------------------------------------------------------------------
# Circle-curvature comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MuComparisonReport:
    """Slack of mu(t) <= mu0(t) against the comparison plane."""

    comparison: str           # "spherical" or "hyperbolic" or "flat"
    k1_used: float
    slack: np.ndarray
    min_slack: float
    passed: bool


def comparison_space(metric: WarpedMetric) -> SpaceForm:
    """Constant-curvature plane matched to the metric's curvature band.

    A nonpositive band [K_lo, 0] compares against the hyperbolic plane of
    curvature K_lo (k1 = sqrt(-K_lo)); a band [K_lo, K_hi] with K_lo > 0
    compares against the sphere of curvature K_lo.  The comparison constant
    always comes from the side the hypothesis bounds: the most negative
    curvature below, the least positive curvature above.
    """
    if metric.k_hi <= BAND_GUARD:
        k1 = math.sqrt(max(-metric.k_lo, 0.0))
        return SpaceForm.hyperbolic(k1) if k1 else SpaceForm.flat()
    if metric.k_lo > 0.0:
        return SpaceForm.sphere(math.sqrt(metric.k_lo))
    raise HypothesisViolation(
        f"curvature band [{metric.k_lo:.6g}, {metric.k_hi:.6g}] is not "
        "one-signed; no comparison plane applies")


def verify_circle_curvature_comparison(
        metric: WarpedMetric) -> MuComparisonReport:
    """Check mu(t) <= mu0(t) on a uniform grid of radii in (0, T].

    mu0 is the circle curvature of the comparison plane; radii where mu0
    is undefined (beyond pi/k1 on the sphere side) are skipped.  On the
    hyperbolic side mu0 = k1 coth(k1 t) stays finite (it is k1 where cosh
    overflows).  Raises GeometryError when mu overflows on the grid, or
    mu0 at a radius k1 * t underflows to 0.
    """
    space = comparison_space(metric)
    t_hi = metric.T
    if space.sign > 0.0:
        t_hi = min(t_hi, np.pi / space.k1 * (1 - 1e-9))
    radii = np.linspace(t_hi / _COMPARISON_RADII, t_hi, _COMPARISON_RADII)
    with np.errstate(all="ignore"):
        mu = metric.mu(radii)
        mu0 = np.asarray(space.mu0(radii), dtype=float)
    if not np.all(np.isfinite([mu, mu0])):
        raise GeometryError(
            "circle curvature mu or its comparison mu0 overflows on (0, T]")
    slack = mu0 - mu
    min_slack = float(np.min(slack))
    return MuComparisonReport(comparison=space.kind.value, k1_used=space.k1,
                              slack=slack, min_slack=min_slack,
                              passed=slack_check(min_slack)[2])


# ---------------------------------------------------------------------------
# Closed graph curves around the pole
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WarpedCurve:
    """Closed curve t = rho(theta) around the pole of a warped metric.

    ``kappa`` is the geodesic curvature from the graph formula

        kappa = (2 f' rho'^2 - f rho'' + f^2 f') / (rho'^2 + f^2)^(3/2)

    with f, f' evaluated at rho(theta); rho' (``rho_p``) and rho'' are the
    harmonic series' own derivatives on the uniform theta grid.
    """

    theta: np.ndarray
    rho: np.ndarray
    rho_p: np.ndarray
    kappa: np.ndarray
    kmin: float


def warped_graph_kappa(metric: WarpedMetric, rho, rho_p, rho_pp):
    f, fp, _ = metric.warp(rho)
    num = 2.0 * fp * rho_p ** 2 - f * rho_pp + f ** 2 * fp
    return num / (rho_p ** 2 + f ** 2) ** 1.5


def make_warped_curve(metric: WarpedMetric, rho0: float,
                      harmonics=None) -> WarpedCurve:
    """Graph curve rho(theta) = rho0 + sum (a_j cos j theta + b_j sin j theta).

    The orders j must be integers with 1 <= j < n/2.  Rejected unless
    0 < rho(theta) <= T and the curvature is finite everywhere.
    """
    n = DEFAULT_SAMPLES
    harmonics = _harmonic_orders(harmonics, n, "warped", 1,
                                 "j = 1 (j = 0 would shift rho0)")
    theta = 2.0 * np.pi * np.arange(n) / n
    rho, rho_p, rho_pp = np.full(n, float(rho0)), np.zeros(n), np.zeros(n)
    for j, (aj, bj) in harmonics.items():
        c, s = np.cos(j * theta), np.sin(j * theta)
        rho += aj * c + bj * s
        rho_p += j * (-aj * s + bj * c)
        rho_pp -= j * j * (aj * c + bj * s)
    if np.any(rho <= 0.0) or np.any(rho > metric.T * (1 + 1e-12)):
        bad = float(theta[int(np.argmax((rho <= 0) | (rho > metric.T)))])
        raise CurveGenerationError(
            f"rho(theta) leaves (0, T] at theta = {bad:.6f}", where=bad)
    with np.errstate(all="ignore"):
        kappa = warped_graph_kappa(metric, rho, rho_p, rho_pp)
    if not np.all(np.isfinite(kappa)):
        bad = float(theta[int(np.argmin(np.isfinite(kappa)))])
        raise CurveGenerationError(
            f"graph curvature overflows at theta = {bad:.6f}", where=bad)
    _, kmin = refine_extremum(theta, kappa, int(np.argmin(kappa)),
                              mode="min", period=2.0 * np.pi)
    return WarpedCurve(theta=theta, rho=rho, rho_p=rho_p, kappa=kappa,
                       kmin=kmin)


# ---------------------------------------------------------------------------
# Bound verification on warped metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WarpedVerification:
    """Angle- and width-bound verdicts for a pole-centered warped curve."""

    comparison: str
    k0_used: float
    h: float
    bound_cos: float
    min_angle_slack: float
    angle_passed: bool
    d: float
    d0: float
    width_margin: float
    width_passed: bool


def verify_radial_bounds(metric: WarpedMetric,
                         curve: WarpedCurve) -> WarpedVerification:
    """Verify the radial-angle and annulus-width bounds about the pole.

    The comparison plane comes from the metric's certified curvature band
    and the verdicts from the core of :mod:`sphericity.bounds`; on a
    positive band the curve must stay within pi/(2 k2) of the pole, k2^2
    the band's upper end.

    cos(phi) per sample comes from the graph formula
    cos(phi) = 1 / sqrt(1 + (rho'/f(rho))^2); the annulus is taken about
    the pole, with r = min rho and rho1 = max rho.  The pole is the
    incenter only for curves centred on it: a first harmonic moves the
    incenter off the pole (the flat rho = 1 + 0.3 cos theta has its
    incenter at (0.3, 0)), so d is then the width about the pole.
    """
    space = comparison_space(metric)
    k0_used = guarded_k0(space, curve.kmin)
    t_max, k_ball = float(np.max(curve.rho)), math.sqrt(max(metric.k_hi, 0.0))
    f, _, _ = metric.warp(curve.rho)
    cos_phi = 1.0 / np.sqrt(1.0 + (curve.rho_p / f) ** 2)
    _, h = refine_extremum(curve.theta, curve.rho, int(np.argmin(curve.rho)),
                           mode="min", period=2.0 * np.pi)
    _, rho1 = refine_extremum(curve.theta, curve.rho,
                              int(np.argmax(curve.rho)), mode="max",
                              period=2.0 * np.pi)

    bound, slack = angle_slack(space, k0_used, h, t_max, cos_phi, k_ball)
    min_slack = float(np.min(slack))
    d0, margin, width_passed = width_check(space, k0_used, rho1 - h, t_max,
                                           k_ball)
    return WarpedVerification(
        comparison=space.kind.value, k0_used=float(k0_used), h=float(h),
        bound_cos=bound, min_angle_slack=min_slack,
        angle_passed=slack_check(min_slack)[2], d=float(rho1 - h),
        d0=float(d0), width_margin=float(margin), width_passed=width_passed)
