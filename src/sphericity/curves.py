"""Construction and measurement of closed convex curves in space forms.

Generators
----------
* :func:`make_circle`            geodesic circle of prescribed curvature
* :func:`make_lune`              two symmetric circular arcs (non-smooth corners)
* :func:`make_support_curve`     Euclidean curve from a support function
* :func:`make_frame_ode_curve`   curve integrated from a curvature profile
* :func:`make_disc_intersection` boundary of an intersection of equal discs

Every generator returns an immutable :class:`ClosedCurve` sampled densely
enough that the acceptance tolerances hold, positively oriented
(counterclockwise), with exact per-sample tangents and outward normals where
the construction provides them.  Geodesic curvature is always *measured*
with the window estimator rather than copied from the construction, so the
stored ``kappa``/``kmin`` are honest observations.

Measurement
-----------
* :func:`measure_curvature`   geodesic curvature from a 5-sample window
* :func:`measure_radial`      distances and radial angles from a base point
* :func:`min_distance_to_curve` / :func:`max_distance_to_curve`
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .errors import (CornerWindowError, CurveGenerationError, GeometryError,
                     NonClosureError)
from .search import golden_min, interpolate_local, refine_extremum
from .spaceforms import Kind, SpaceForm, karcher_mean

PROVENANCES = ("circle", "lune", "support_function", "frame_ode",
               "disc_intersection")

DEFAULT_SAMPLES = 4096


# ---------------------------------------------------------------------------
# Curve container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClosedCurve:
    """A sampled closed convex curve on a model surface.

    Arrays all have length ``n``; the curve is implicitly closed (the
    successor of sample n-1 is sample 0).  ``kappa`` holds the measured
    geodesic curvature; entries are NaN where the measurement window would
    span a flagged corner.  ``kmin`` is the refined minimum of the measured
    curvature away from corners.
    """

    space: SpaceForm
    points: np.ndarray
    s: np.ndarray
    tangents: np.ndarray
    normals_out: np.ndarray
    kappa: np.ndarray
    corner: np.ndarray
    total_length: float
    kmin: float
    provenance: str
    k0_declared: float | None = None
    closure_gap: float = 0.0
    hint_center: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        for name in ("points", "s", "tangents", "normals_out", "kappa", "corner"):
            getattr(self, name).setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.s)

    @property
    def max_gap(self) -> float:
        gaps = np.diff(self.s, append=self.total_length + self.s[0])
        return float(np.max(gaps))

    def corner_indices(self) -> np.ndarray:
        return np.nonzero(self.corner)[0]


# ---------------------------------------------------------------------------
# Curvature estimation (geodesic normal coordinate fit)
# ---------------------------------------------------------------------------

def _window_fit_kappa(space, points, tangents, normals_out, window=5):
    """Measured geodesic curvature at every sample.

    Each sample's neighbors (two on each side) are mapped into geodesic
    normal coordinates at the sample, with x along the tangent and y along
    the inward normal; the local graph y(x) through the origin is
    interpolated by a quartic and the curvature c2/(1+c1^2)^(3/2) is read
    off at the origin.  In normal coordinates the Christoffel symbols vanish
    at the center, so this equals the geodesic curvature there.
    """
    n = len(points)
    half = window // 2
    offsets = [o for o in range(-half, half + 1) if o != 0]
    inward = -normals_out
    xs = np.empty((n, len(offsets)))
    ys = np.empty((n, len(offsets)))
    for col, off in enumerate(offsets):
        neigh = np.roll(points, -off, axis=0)
        v = space.log_map(points, neigh)
        xs[:, col] = space.metric_dot(points, v, tangents)
        ys[:, col] = space.metric_dot(points, v, inward)
    a = np.empty((n, len(offsets), 4))
    a[:, :, 0] = xs
    a[:, :, 1] = xs ** 2 / 2.0
    a[:, :, 2] = xs ** 3 / 6.0
    a[:, :, 3] = xs ** 4 / 24.0
    coeffs = np.linalg.solve(a, ys[..., None])[..., 0]
    c1 = coeffs[:, 0]
    c2 = coeffs[:, 1]
    return c2 / (1.0 + c1 ** 2) ** 1.5


def _corner_window_mask(corner, window=5):
    """True where the measurement window around a sample spans a corner."""
    n = len(corner)
    half = window // 2
    bad = np.zeros(n, dtype=bool)
    for off in range(-half, half + 1):
        bad |= np.roll(corner, -off)
    return bad


def _measured_kappa_and_kmin(space, points, s, tangents, normals_out, corner,
                             total_length):
    kappa = _window_fit_kappa(space, points, tangents, normals_out)
    bad = _corner_window_mask(corner)
    kappa = np.where(bad, np.nan, kappa)
    finite = np.isfinite(kappa)
    if not np.any(finite):
        raise CurveGenerationError("no corner-free window to measure curvature")
    kmin = float(np.nanmin(kappa))
    idx = int(np.nanargmin(kappa))
    half = 2
    window_idx = [(idx + j) % len(kappa) for j in range(-half, half + 1)]
    window_ok = all(finite[i] for i in window_idx)
    if window_ok:
        window_vals = kappa[window_idx]
        # refining a constant-curvature stretch only amplifies roundoff
        if np.ptp(window_vals) > 1e-8 * max(1.0, abs(kmin)):
            _, refined = refine_extremum(s, np.nan_to_num(kappa, nan=np.inf),
                                         idx, mode="min", period=total_length)
            kmin = min(kmin, refined)
    return kappa, kmin


def measure_curvature(curve: ClosedCurve, index: int, window: int = 5) -> float:
    """Geodesic curvature at one sample from its measurement window.

    Raises CornerWindowError when the window would span a flagged corner.
    """
    n = curve.n
    half = window // 2
    idx = [(index + j) % n for j in range(-half, half + 1)]
    if any(curve.corner[i] for i in idx):
        raise CornerWindowError(
            f"curvature window around sample {index} spans a corner")
    pts = curve.points[idx]
    tan = curve.tangents[idx]
    nor = curve.normals_out[idx]
    kappas = _window_fit_kappa(curve.space, pts, tan, nor, window=window)
    # _window_fit_kappa wraps around the 5 supplied samples; its center
    # entry uses exactly the window we were asked about.
    return float(kappas[half])


# ---------------------------------------------------------------------------
# Orientation helpers
# ---------------------------------------------------------------------------

def winding_number(space: SpaceForm, points, origin) -> int:
    """Winding of a closed sample loop around origin (+1 = counterclockwise)."""
    xy = space.to_chart(origin, points)
    ang = np.arctan2(xy[:, 1], xy[:, 0])
    d = np.roll(ang, -1) - ang
    d = (d + np.pi) % (2.0 * np.pi) - np.pi
    return int(round(float(np.sum(d)) / (2.0 * np.pi)))


def contains_point(curve: ClosedCurve, p) -> bool:
    """True when p lies strictly inside the curve (winding test)."""
    t = curve.space.distance(p, curve.points)
    if float(np.min(t)) <= 1e-12:
        return False
    if curve.space.kind is Kind.SPHERE:
        if float(np.max(t)) >= np.pi / curve.space.k1 * (1 - 1e-9):
            return False
    return winding_number(curve.space, curve.points, p) == 1


# ---------------------------------------------------------------------------
# Distance queries
# ---------------------------------------------------------------------------

def min_distance_to_curve(curve: ClosedCurve, p, refine: bool = True):
    """(min distance, arc length of the minimizer) from p to the curve."""
    t = curve.space.distance(p, curve.points)
    idx = int(np.argmin(t))
    if not refine:
        return float(t[idx]), float(curve.s[idx])
    s_star, val = refine_extremum(curve.s, t, idx, mode="min",
                                  period=curve.total_length)
    return val, s_star


def max_distance_to_curve(curve: ClosedCurve, p, refine: bool = True):
    t = curve.space.distance(p, curve.points)
    idx = int(np.argmax(t))
    if not refine:
        return float(t[idx]), float(curve.s[idx])
    s_star, val = refine_extremum(curve.s, t, idx, mode="max",
                                  period=curve.total_length)
    return val, s_star


# ---------------------------------------------------------------------------
# Radial measurement
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialMeasurement:
    """Distances t and radial angles phi of every sample, seen from base.

    ``h`` is the refined minimum distance from the base point to the curve;
    ``phi_at_nearest`` is the radial angle interpolated at the refined foot
    point (it vanishes there up to discretization, by first variation of
    arc length).
    """

    base: np.ndarray
    t: np.ndarray
    phi: np.ndarray
    h: float
    s_at_h: float
    phi_at_nearest: float
    argmin_index: int

    def __post_init__(self):
        self.t.setflags(write=False)
        self.phi.setflags(write=False)


def measure_radial(curve: ClosedCurve, base) -> RadialMeasurement:
    """Per-sample distance and angle between radial direction and normal.

    The base point must lie strictly inside the curve.  On the sphere the
    curve must stay inside the injectivity radius around the base point.
    """
    space = curve.space
    base = space.check_point(np.asarray(base, dtype=float))
    t = space.distance(base, curve.points)
    if float(np.min(t)) <= 1e-12:
        raise GeometryError("base point lies on the curve")
    if space.kind is Kind.SPHERE:
        if float(np.max(t)) >= np.pi / space.k1 * (1 - 1e-9):
            raise GeometryError(
                "curve leaves the injectivity radius of the base point")
    if winding_number(space, curve.points, base) != 1:
        raise GeometryError("base point is not strictly inside the curve")

    v = space.log_map(curve.points, base)       # toward the base point
    u = -v / t[:, None]                          # radial, away from base
    phi = space.angle_between(curve.points, u, curve.normals_out)

    idx = int(np.argmin(t))
    s_star, h = refine_extremum(curve.s, t, idx, mode="min",
                                period=curve.total_length)
    finite_window = not any(
        curve.corner[(idx + j) % curve.n] for j in range(-2, 3))
    if finite_window:
        # the unsigned angle has a corner at the foot point; interpolate the
        # signed version (sign = side of the radial direction along travel)
        signed_phi = phi * np.sign(space.metric_dot(curve.points, u,
                                                    curve.tangents))
        phi_near = abs(interpolate_local(curve.s, signed_phi, idx, s_star,
                                         period=curve.total_length))
    else:
        phi_near = float(phi[idx])
    return RadialMeasurement(base=base, t=t, phi=phi, h=float(h),
                             s_at_h=float(s_star), phi_at_nearest=phi_near,
                             argmin_index=idx)


# ---------------------------------------------------------------------------
# Circle
# ---------------------------------------------------------------------------

def _circle_arrays(space, center, radius, alphas):
    """Points and unit tangents of the circle exp_center(radius * dir(a))."""
    e1, e2 = space.frame(center)
    ca = np.cos(alphas)[:, None]
    sa = np.sin(alphas)[:, None]
    dirs = ca * e1 + sa * e2
    points = space.exp_map(center, radius * dirs)
    tangents = -sa * e1 + ca * e2
    if space.kind is not Kind.FLAT:
        tangents = space.project_tangent(points, tangents)
        tangents = tangents / space.norm(points, tangents)[:, None]
    return points, tangents


def make_circle(space: SpaceForm, center, k0: float,
                n: int = DEFAULT_SAMPLES, phase: float = 0.0) -> ClosedCurve:
    """Sampled geodesic circle of curvature k0 around center.

    Counterclockwise, first sample in the direction of the frame's first
    axis rotated by ``phase``.
    """
    center = space.check_point(np.asarray(center, dtype=float))
    radius = space.circle_radius_of_curvature(k0)
    alphas = phase + 2.0 * np.pi * np.arange(n) / n
    points, tangents = _circle_arrays(space, center, radius, alphas)
    normals = -space.rotate90(points, tangents)
    ring = float(space.circumference(radius))
    s = ring * np.arange(n) / n
    corner = np.zeros(n, dtype=bool)
    kappa, kmin = _measured_kappa_and_kmin(space, points, s, tangents,
                                           normals, corner, ring)
    return ClosedCurve(space=space, points=points, s=s, tangents=tangents,
                       normals_out=normals, kappa=kappa, corner=corner,
                       total_length=ring, kmin=kmin, provenance="circle",
                       k0_declared=float(k0), hint_center=center)


# ---------------------------------------------------------------------------
# Lune (two symmetric circular arcs)
# ---------------------------------------------------------------------------

def _angle_in_frame(space, center, point):
    e1, e2 = space.frame(center)
    v = space.log_map(center, point)
    return math.atan2(space.metric_dot(center, v, e2),
                      space.metric_dot(center, v, e1))


def _arc(space, center, radius, ang_from, ang_to, count, endpoint=False):
    """Sample an arc counterclockwise from ang_from to ang_to (unwrapped)."""
    sweep = (ang_to - ang_from) % (2.0 * np.pi)
    if sweep == 0.0:
        sweep = 2.0 * np.pi
    alphas = ang_from + sweep * np.arange(count + (1 if endpoint else 0)) / count
    points, tangents = _circle_arrays(space, center, radius, alphas)
    return points, tangents, sweep


def make_lune(space: SpaceForm, k0: float, r: float, center=None,
              n: int = DEFAULT_SAMPLES) -> ClosedCurve:
    """Closed curve made of two smaller circular arcs of curvature k0.

    ``r`` is the inradius: the curve touches the circle of radius r around
    the midpoint of its two corners' axis.  In the limit r -> R the lune
    degenerates to the circle of curvature k0.  The two corner samples are
    flagged; smooth-only verifiers exclude a band around them.
    """
    from .spindles import spindle_rho

    radius = space.circle_radius_of_curvature(k0)
    if not 0.0 < r < radius:
        raise CurveGenerationError(
            f"lune inradius must lie strictly inside (0, {radius}), got {r}",
            where=r)
    if center is None:
        center = space.origin()
    center = space.check_point(np.asarray(center, dtype=float))
    rho = float(spindle_rho(space, k0, r))
    e1, e2 = space.frame(center)

    p_corner = space.exp_map(center, rho * e1)
    q_corner = space.exp_map(center, -rho * e1)
    c_up = space.exp_map(center, -(radius - r) * e2)
    c_dn = space.exp_map(center, (radius - r) * e2)

    n_arc = max(8, (n // 4) * 2)   # even count so the touch point is a sample
    ang_p_up = _angle_in_frame(space, c_up, p_corner)
    ang_q_up = _angle_in_frame(space, c_up, q_corner)
    pts1, tan1, sweep1 = _arc(space, c_up, radius, ang_p_up, ang_q_up, n_arc)
    ang_q_dn = _angle_in_frame(space, c_dn, q_corner)
    ang_p_dn = _angle_in_frame(space, c_dn, p_corner)
    pts2, tan2, sweep2 = _arc(space, c_dn, radius, ang_q_dn, ang_p_dn, n_arc)

    points = np.concatenate([pts1, pts2], axis=0)
    tangents = np.concatenate([tan1, tan2], axis=0)
    corner = np.zeros(2 * n_arc, dtype=bool)
    corner[0] = corner[n_arc] = True
    # corner tangents: bisector of the adjacent arc directions
    for idx in (0, n_arc):
        before = tangents[(idx - 1) % (2 * n_arc)]
        after = tangents[(idx + 1) % (2 * n_arc)]
        bis = before + after
        norm = space.norm(points[idx], bis)
        if norm > 1e-12:
            tangents[idx] = space.project_tangent(points[idx], bis) / norm

    normals = -space.rotate90(points, tangents)
    arc_len = float(space.sn(radius)) * sweep1
    total = 2.0 * arc_len
    ds = arc_len / n_arc
    s = ds * np.arange(2 * n_arc)
    kappa, kmin = _measured_kappa_and_kmin(space, points, s, tangents,
                                           normals, corner, total)
    return ClosedCurve(space=space, points=points, s=s, tangents=tangents,
                       normals_out=normals, kappa=kappa, corner=corner,
                       total_length=total, kmin=kmin, provenance="lune",
                       k0_declared=float(k0), hint_center=center)


# ---------------------------------------------------------------------------
# Support-function curves (flat plane)
# ---------------------------------------------------------------------------

def make_support_curve(a0: float, harmonics=None, *, k0_target: float,
                       n: int = DEFAULT_SAMPLES) -> ClosedCurve:
    """Euclidean convex curve from a truncated support function.

    h(theta) = a0 + sum_{m>=2} (a_m cos m theta + b_m sin m theta), with
    harmonics given as {m: (a_m, b_m)}.  The curvature radius is
    rho(theta) = h + h''; the construction is rejected unless
    0 < rho(theta) <= 1/k0_target everywhere, which certifies that the
    measured curvature satisfies kappa >= k0_target.
    """
    space = SpaceForm.flat()
    harmonics = dict(harmonics or {})
    for m in harmonics:
        if m < 2:
            raise CurveGenerationError(
                "support harmonics start at m = 2 (m < 2 only translates)")
    if k0_target <= 0.0:
        raise CurveGenerationError("k0_target must be positive")

    def h_rho_s(theta):
        h = np.full_like(theta, float(a0))
        rho = np.full_like(theta, float(a0))
        hp = np.zeros_like(theta)
        arc = float(a0) * theta
        for m, (am, bm) in harmonics.items():
            cm, sm = np.cos(m * theta), np.sin(m * theta)
            h += am * cm + bm * sm
            hp += m * (-am * sm + bm * cm)
            rho += (1 - m * m) * (am * cm + bm * sm)
            arc += (1 - m * m) * (am * sm - bm * cm) / m
        return h, hp, rho, arc

    dense = np.linspace(0.0, 2.0 * np.pi, 8 * max(n, 1024), endpoint=False)
    _, _, rho_dense, _ = h_rho_s(dense)
    bad_low = rho_dense <= 0.0
    bad_high = rho_dense > 1.0 / k0_target + 1e-12
    if np.any(bad_low) or np.any(bad_high):
        which = bad_low | bad_high
        theta_bad = float(dense[np.argmax(which)])
        raise CurveGenerationError(
            "support function violates 0 < h + h'' <= 1/k0_target "
            f"(first violation at theta = {theta_bad:.6f})", where=theta_bad)

    theta = 2.0 * np.pi * np.arange(n) / n
    h, hp, rho, arc = h_rho_s(theta)
    _, _, _, arc0 = h_rho_s(np.array([0.0]))
    points = np.stack([h * np.cos(theta) - hp * np.sin(theta),
                       h * np.sin(theta) + hp * np.cos(theta)], axis=-1)
    tangents = np.stack([-np.sin(theta), np.cos(theta)], axis=-1)
    normals = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    s = arc - arc0[0]
    total = 2.0 * np.pi * float(a0)
    corner = np.zeros(n, dtype=bool)
    kappa, kmin = _measured_kappa_and_kmin(space, points, s, tangents,
                                           normals, corner, total)
    return ClosedCurve(space=space, points=points, s=s, tangents=tangents,
                       normals_out=normals, kappa=kappa, corner=corner,
                       total_length=total, kmin=kmin,
                       provenance="support_function",
                       k0_declared=float(k0_target),
                       hint_center=np.zeros(2))


# ---------------------------------------------------------------------------
# Frame-ODE curves (prescribed curvature profile)
# ---------------------------------------------------------------------------

_PERIOD_STEPS = 512     # Magnus steps per period in the closure solve
_ROOT_MAXITER = 50
_SQRT3 = math.sqrt(3.0)


def _frame_matrix(space, p, t_vec):
    """Oriented isometry frame F = [P | T | J] at (p, T) as an ambient matrix.

    P is k1 p on the curved planes and the homogeneous point (p, 1) on the
    flat plane, where T and J get a zero third coordinate; either way
    F1 F0^-1 is the ambient matrix of the isometry taking frame 0 to frame 1.
    """
    j = space.rotate90(p, t_vec)
    if space.kind is Kind.FLAT:
        return np.array([[p[0], t_vec[0], j[0]],
                         [p[1], t_vec[1], j[1]],
                         [1.0, 0.0, 0.0]])
    return np.stack([space.k1 * p, t_vec, j], axis=1)


def _frame_generators(space):
    """(G0, G1) with unit-speed frame equations F' = F (G0 + kappa G1)."""
    g0 = np.zeros((3, 3))
    g1 = np.zeros((3, 3))
    g1[2, 1], g1[1, 2] = 1.0, -1.0          # T' = kappa J, J' = -kappa T
    if space.kind is Kind.FLAT:
        g0[1, 0] = 1.0                      # p' = T
    else:                                   # P' = k1 T, T' = -/+ k1 P
        g0[1, 0] = space.k1
        g0[0, 1] = -space.k1 if space.kind is Kind.SPHERE else space.k1
    return g0, g1


def _sinc_q(q):
    """sin(sqrt(-q))/sqrt(-q) for q < 0, sinh(sqrt(q))/sqrt(q) for q >= 0."""
    r = np.sqrt(np.abs(q))
    tiny = r < 1e-4
    r = np.where(tiny, 1.0, r)
    out = np.where(q < 0.0, np.sin(r), np.sinh(r)) / r
    return np.where(tiny, 1.0 + q / 6.0 + q * q / 120.0, out)


def _expm1_traceless3(omega):
    """exp(W) - I for a stack of 3x3 matrices W with zero trace and det.

    By Cayley-Hamilton such a matrix satisfies W^3 = q W with
    q = tr(W^2)/2, so exp W = I + f1(q) W + f2(q) W^2 with
    f1 = sinh(sqrt q)/sqrt q and f2 = (cosh(sqrt q) - 1)/q (their circular
    forms for q < 0); f2 is evaluated as f1(q/4)^2 / 2, free of cancellation.
    The identity is left out so that products of near-identity factors keep
    their small parts exact (see ``_compose``).
    """
    omega2 = omega @ omega
    q = 0.5 * np.trace(omega2, axis1=-2, axis2=-1)[..., None, None]
    return _sinc_q(q) * omega + 0.5 * _sinc_q(0.25 * q) ** 2 * omega2


def _compose(a, b):
    """(I + a)(I + b) - I."""
    return a + b + a @ b


def _chain_product(incs):
    """(I + D_0) ... (I + D_{N-1}) - I along axis 1, by pairwise halving."""
    while incs.shape[1] > 1:
        if incs.shape[1] % 2:
            incs = np.concatenate(
                [incs[:, :-2], _compose(incs[:, -2:-1], incs[:, -1:])], axis=1)
        else:
            incs = _compose(incs[:, 0::2], incs[:, 1::2])
    return incs[:, 0]


def _prefix_products(incs):
    """Inclusive prefix products of a (S, ...) stack of increments."""
    out = np.array(incs)
    d = 1
    while d < len(out):
        out[d:] = _compose(out[:-d], out[d:])
        d *= 2
    return out


def _integrate_frame(space, p0, t0, profile, lengths, u_end, steps,
                     store_every=None):
    """Fourth-order Magnus integration of the frame equations.

    The frame F = [P | T | J] (see ``_frame_matrix``) solves F' = F A with
    A = G0 + kappa G1 in so(3), so(2,1) or se(2).  In the normalized
    parameter u = s / L the generator is L A, so a whole batch of candidate
    total lengths shares one vectorized evaluation of the profile at the two
    Gauss points of every step.  Each step multiplies F on the right by
    exp(Omega), Omega = (h L / 2)(A1 + A2) + (sqrt 3 / 12) h^2 L^2 [A1, A2],
    taken in closed form (``_expm1_traceless3``); the step factors are
    composed by pairwise matrix products.  Every factor lies in the
    isometry group, so no projection back onto the model is needed.

    ``lengths`` is scalar or (B,); returns final (p, T) of shape (B, dim)
    and, when ``store_every`` is given, the (steps // store_every, B, dim)
    samples taken every that many steps, starting with (p0, T0).
    """
    lengths = np.atleast_1d(np.asarray(lengths, dtype=float))
    h = u_end / steps
    gauss = 0.5 + np.array([-1.0, 1.0]) * _SQRT3 / 6.0
    u = (h * (np.arange(steps)[:, None] + gauss)).ravel()
    kap = np.broadcast_to(np.asarray(profile(u), dtype=float),
                          u.shape).reshape(steps, 2)
    g0, g1 = _frame_generators(space)
    hl = (h * lengths)[:, None, None, None]
    mean_kap = (0.5 * (kap[:, 0] + kap[:, 1]))[None, :, None, None]
    dkap = (kap[:, 1] - kap[:, 0])[None, :, None, None]
    omega = (hl * (g0 + mean_kap * g1)
             + (_SQRT3 / 12.0) * hl ** 2 * dkap * (g0 @ g1 - g1 @ g0))
    incs = _expm1_traceless3(omega)

    f0 = _frame_matrix(space, np.asarray(p0, dtype=float),
                       np.asarray(t0, dtype=float))
    dim = space.dim
    scale = 1.0 if space.kind is Kind.FLAT else space.k1

    def point_tangent(incs):
        frames = f0 + f0 @ incs
        return frames[..., :dim, 0] / scale, frames[..., :dim, 1]

    if store_every is None:
        p, t_vec = point_tangent(_chain_product(incs))
        return p, t_vec, None, None
    n_store = steps // store_every
    blocks = _chain_product(incs.reshape(
        len(lengths) * n_store, store_every, 3, 3))
    prefix = _prefix_products(blocks.reshape(len(lengths), n_store, 3, 3)
                              .transpose(1, 0, 2, 3))
    p, t_vec = point_tangent(prefix[-1])
    stored_p, stored_t = point_tangent(
        np.concatenate([np.zeros_like(prefix[:1]), prefix[:-1]]))
    return p, t_vec, stored_p, stored_t


def _monodromy(space, p0, t0, p1, t1):
    """Ambient matrix of the isometry mapping frame (p0,T0) to (p1,T1)."""
    b0 = _frame_matrix(space, p0, t0)
    b1 = _frame_matrix(space, p1, t1)
    if space.kind is Kind.FLAT:
        return b1 @ np.linalg.inv(b0)
    if space.kind is Kind.SPHERE:
        return b1 @ b0.T
    eta = np.diag([-1.0, 1.0, 1.0])
    return b1 @ (eta @ b0.T @ eta)


def _apply_isometry(space, mat, points):
    if space.kind is Kind.FLAT:
        return points @ mat[:2, :2].T + mat[:2, 2]
    return points @ mat.T


def _apply_isometry_linear(space, mat, vectors):
    if space.kind is Kind.FLAT:
        return vectors @ mat[:2, :2].T
    return vectors @ mat.T


def _rotation_cos(space, mat) -> float:
    """cos of the rotation angle of an orientation-preserving isometry."""
    if space.kind is Kind.FLAT:
        return 0.5 * (mat[0, 0] + mat[1, 1])
    return 0.5 * (np.trace(mat) - 1.0)


def _fixed_point(space, mat, near):
    """Fixed point of an elliptic isometry, the one a curve winds around.

    On the sphere the two antipodal fixed points rotate with opposite signs;
    the curve winds around the one nearer to ``near``.  Raises
    np.linalg.LinAlgError or GeometryError when there is no fixed point.
    """
    if space.kind is Kind.FLAT:
        rot = mat[:2, :2]
        return np.linalg.solve(np.eye(2) - rot, mat[:2, 2])
    w, vecs = np.linalg.eig(mat)
    idx = int(np.argmin(np.abs(w - 1.0)))
    axis = np.real(vecs[:, idx])
    if space.kind is Kind.SPHERE:
        axis = axis / (np.linalg.norm(axis) * space.k1)
        if float(space.distance(axis, near)) > np.pi / (2.0 * space.k1):
            axis = -axis
        return axis
    q = axis[0] ** 2 - axis[1] ** 2 - axis[2] ** 2
    if q <= 0.0:
        raise GeometryError("isometry is not elliptic")
    axis = axis / (space.k1 * math.sqrt(q))
    if axis[0] < 0.0:
        axis = -axis
    return axis


def _rotation_defect(space, mat, probe, target_angle: float):
    """(sin, cos) of (rotation angle of mat) - target_angle.

    The signed rotation angle is read off at the isometry's fixed point C:
    it is the oriented angle at C between the directions to ``probe`` and
    to its image.  The sine component crosses zero transversally at the
    target, which keeps the closure solve well posed even when the target
    is pi (where the trace alone folds).  Returns (nan, nan) when the
    isometry is too close to the identity to carry a fixed point.
    """
    if _rotation_cos(space, mat) > 1.0 - 1e-10:
        return math.nan, math.nan
    try:
        center = _fixed_point(space, mat, probe)
    except (np.linalg.LinAlgError, GeometryError):
        return math.nan, math.nan
    x = probe
    if float(space.distance(center, x)) < 1e-9:
        e1, _ = space.frame(center)
        x = space.exp_map(center, 0.1 * e1)
    image = _apply_isometry(space, mat, x[None, :])[0]
    try:
        u = space.log_map(center, x)
        v = space.log_map(center, image)
    except GeometryError:
        return math.nan, math.nan
    u = u / space.norm(center, u)
    v = v / space.norm(center, v)
    ju = space.rotate90(center, u)
    c_part = float(space.metric_dot(center, v, u))
    s_part = float(space.metric_dot(center, v, ju))
    ct, st = math.cos(target_angle), math.sin(target_angle)
    return s_part * ct - c_part * st, c_part * ct + s_part * st


def _detect_symmetry_order(profile, max_order: int = 64):
    """(m, mismatch): largest m >= 2 with profile(u + 1/m) == profile(u).

    ``mismatch`` is the relative max |profile(u + 1/m) - profile(u)| of the
    returned m, or, when no order qualifies (m = 0), the smallest one seen.
    """
    u = np.linspace(0.0, 1.0, 257, endpoint=False)
    base = np.asarray(profile(u), dtype=float)
    scale = max(1.0, float(np.max(np.abs(base))))
    best = math.inf
    for m in range(max_order, 1, -1):
        shifted = np.asarray(profile((u + 1.0 / m) % 1.0), dtype=float)
        mismatch = float(np.max(np.abs(shifted - base))) / scale
        if mismatch <= 1e-10:
            return m, mismatch
        best = min(best, mismatch)
    return 0, best


def make_frame_ode_curve(space: SpaceForm, kappa_profile, length_guess=None,
                         n: int = DEFAULT_SAMPLES) -> ClosedCurve:
    """Closed curve with prescribed geodesic curvature profile.

    ``kappa_profile(u)`` gives the curvature at arc-length fraction
    u in [0, 1); it must repeat with period 1/m for some integer m >= 2
    (the two corner-free closed-curve generators on the curved planes all
    have that form).  The total length is then the single unknown: the
    curve closes exactly when the isometry carrying the frame over one
    period is a rotation by 2*pi/m, a scalar condition (the signed rotation
    angle at the isometry's fixed point) solved by bracketed root finding.
    The solved curve is built by integrating one period and replicating it
    with powers of the period isometry, so the m-fold symmetry is exact.

    Raises NonClosureError when the profile lacks the required symmetry or
    the root search does not converge; the exception carries the best
    closure residual seen (for a profile without symmetry, its smallest
    relative mismatch under a shift by 1/m).
    """
    m, mismatch = _detect_symmetry_order(kappa_profile)
    if m < 2:
        raise NonClosureError(
            "curvature profile must repeat with period 1/m for some m >= 2",
            residual=mismatch)

    u_grid = np.linspace(0.0, 1.0, 2048, endpoint=False)
    prof_vals = np.asarray(kappa_profile(u_grid), dtype=float)
    k_mean = float(np.mean(prof_vals))
    # the declared curvature floor is the profile's true minimum, not the
    # grid minimum (which overshoots it by O(grid spacing squared))
    i_min = int(np.argmin(prof_vals))
    _, k_min_profile = golden_min(
        lambda u: float(kappa_profile(u % 1.0)),
        u_grid[i_min] - 1.5 / 2048, u_grid[i_min] + 1.5 / 2048, tol=1e-12)
    k_min_profile = min(k_min_profile, float(np.min(prof_vals)))
    if space.kind is Kind.HYPERBOLIC and k_min_profile <= space.k1:
        raise CurveGenerationError(
            "profile minimum must exceed k1 on the hyperbolic plane")
    if space.kind is Kind.SPHERE and k_min_profile < 0.0:
        raise CurveGenerationError("profile must be nonnegative on the sphere")
    if space.kind is Kind.FLAT and k_min_profile <= 0.0:
        raise CurveGenerationError("profile must be positive on the flat plane")

    if length_guess is None:
        radius_mean = space.circle_radius_of_curvature(k_mean)
        length_guess = float(space.circumference(radius_mean))

    p0 = space.origin()
    e1, _ = space.frame(p0)
    target_angle = 2.0 * math.pi / m

    def rotation_defects(lengths):
        p1, t1, _, _ = _integrate_frame(space, p0, e1, kappa_profile,
                                        lengths, 1.0 / m, _PERIOD_STEPS)
        out = []
        for row_p, row_t in zip(p1, t1):
            mat = _monodromy(space, p0, e1, row_p, row_t)
            out.append(_rotation_defect(space, mat, p0, target_angle))
        return out

    def defect_sin(total_length: float) -> float:
        return rotation_defects([total_length])[0][0]

    # bracket the closure length around the mean-curvature circle length;
    # valid brackets have the defect cosine positive at both ends (right
    # branch of the angle) and a sign change in the defect sine
    bracket = None
    best_residual = math.inf
    for n_scan in (13, 41):
        scan = np.linspace(0.55 * length_guess, 1.8 * length_guess, n_scan)
        vals = rotation_defects(scan)
        for (a, b), ((sa, ca), (sb, cb)) in zip(zip(scan[:-1], scan[1:]),
                                                zip(vals[:-1], vals[1:])):
            if math.isnan(sa) or math.isnan(sb):
                continue
            if ca <= 0.0 or cb <= 0.0:
                continue
            best_residual = min(best_residual, abs(sa), abs(sb))
            if sa == 0.0:
                bracket = (a, a)
                break
            if sa * sb < 0.0:
                bracket = (a, b)
                break
        if bracket is not None:
            break
    if bracket is None:
        raise NonClosureError(
            "no closure length found near the mean-curvature circle length",
            residual=best_residual if math.isfinite(best_residual) else None)
    if bracket[0] == bracket[1]:
        length = float(bracket[0])
    else:
        length = float(brentq(defect_sin, bracket[0], bracket[1],
                              xtol=1e-13 * length_guess, rtol=1e-15,
                              maxiter=_ROOT_MAXITER))

    # final pass: integrate one period finely and replicate by the isometry
    samples_per_period = n // m
    n_eff = samples_per_period * m
    substeps = 2
    p1, t1, pts_period, tan_period = _integrate_frame(
        space, p0, e1, kappa_profile, length, 1.0 / m,
        samples_per_period * substeps, store_every=substeps)
    p1, t1 = p1[0], t1[0]
    pts_period = pts_period[:, 0, :]
    tan_period = tan_period[:, 0, :]
    mat = _monodromy(space, p0, e1, p1, t1)

    blocks_p = [pts_period]
    blocks_t = [tan_period]
    acc = np.array(mat)
    for _ in range(1, m):
        blocks_p.append(_apply_isometry(space, acc, pts_period))
        blocks_t.append(_apply_isometry_linear(space, acc, tan_period))
        acc = acc @ mat
    points = np.concatenate(blocks_p, axis=0)
    tangents = np.concatenate(blocks_t, axis=0)

    p_back = _apply_isometry(space, acc, p0[None, :])[0]
    gap = float(space.distance(p_back, p0))
    if gap > 1e-8:
        raise NonClosureError(
            f"closure residual {gap:.3e} exceeds 1e-8 after root solve",
            residual=gap)

    normals = -space.rotate90(points, tangents)
    s = length * np.arange(n_eff) / n_eff
    corner = np.zeros(n_eff, dtype=bool)
    kappa, kmin = _measured_kappa_and_kmin(space, points, s, tangents,
                                           normals, corner, length)
    try:
        center = _fixed_point(space, mat, p0)
        winds = winding_number(space, points, center) == 1
    except (np.linalg.LinAlgError, GeometryError):
        winds = False
    if not winds:
        center = karcher_mean(space, points)
    return ClosedCurve(space=space, points=points, s=s, tangents=tangents,
                       normals_out=normals, kappa=kappa, corner=corner,
                       total_length=float(length), kmin=kmin,
                       provenance="frame_ode",
                       k0_declared=k_min_profile, closure_gap=gap,
                       hint_center=center)


# ---------------------------------------------------------------------------
# Intersections of equal-radius discs (non-regular convex bodies)
# ---------------------------------------------------------------------------

def _perp_leg(space, hyp, leg):
    """Second leg of a right geodesic triangle with the given hypotenuse."""
    if space.kind is Kind.FLAT:
        return math.sqrt(max(hyp * hyp - leg * leg, 0.0))
    k = space.k1
    if space.kind is Kind.SPHERE:
        ratio = math.cos(k * hyp) / math.cos(k * leg)
        return math.acos(min(1.0, max(-1.0, ratio))) / k
    ratio = math.cosh(k * hyp) / math.cosh(k * leg)
    return math.acosh(max(1.0, ratio)) / k


def make_disc_intersection(space: SpaceForm, centers, k0: float,
                           n: int = DEFAULT_SAMPLES) -> ClosedCurve:
    """Boundary of the intersection of equal geodesic discs of curvature k0.

    The body is k0-convex by construction: its boundary consists of arcs of
    curvature exactly k0 joined at flagged corner points.  Coincident
    centers collapse to a plain circle; a pair of centers produces the lune
    whose corners are the two disc-intersection points.
    """
    radius = space.circle_radius_of_curvature(k0)
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    space.check_point(centers)

    # dedupe coincident centers
    keep = []
    for i in range(len(centers)):
        if all(space.distance(centers[i], centers[j]) > 1e-12 for j in keep):
            keep.append(i)
    centers = centers[keep]
    if len(centers) == 1:
        circle = make_circle(space, centers[0], k0, n=n)
        return ClosedCurve(space=space, points=circle.points, s=circle.s,
                           tangents=circle.tangents,
                           normals_out=circle.normals_out, kappa=circle.kappa,
                           corner=circle.corner,
                           total_length=circle.total_length, kmin=circle.kmin,
                           provenance="disc_intersection",
                           k0_declared=float(k0), hint_center=centers[0])

    dists = space.distance(centers[:, None, :], centers[None, :, :])
    off_diag = dists[~np.eye(len(centers), dtype=bool)]
    if np.any(off_diag >= 2.0 * radius * (1 - 1e-12)):
        raise CurveGenerationError(
            "disc centers must be pairwise closer than 2R")

    # candidate corners: pairwise circle intersections inside all discs
    corners = []
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            d = float(dists[i, j])
            mid = space.exp_map(centers[i],
                                0.5 * space.log_map(centers[i], centers[j]))
            direction = space.log_map(mid, centers[j])
            direction = direction / space.norm(mid, direction)
            w = space.rotate90(mid, direction)
            q = _perp_leg(space, radius, 0.5 * d)
            for sign in (+1.0, -1.0):
                x = space.exp_map(mid, sign * q * w)
                if np.all(space.distance(x, centers) <= radius * (1 + 1e-12)):
                    corners.append(x)
    if len(corners) < 2:
        raise CurveGenerationError(
            "disc intersection has no corners; centers are degenerate")
    corners = np.array(corners)

    seed = karcher_mean(space, centers)
    if np.any(space.distance(seed, centers) >= radius):
        seed = karcher_mean(space, corners)
    xy = space.to_chart(seed, corners)
    order = np.argsort(np.arctan2(xy[:, 1], xy[:, 0]))
    corners = corners[order]

    # assemble arcs between consecutive corners
    arcs = []
    total = 0.0
    for a in range(len(corners)):
        xa = corners[a]
        xb = corners[(a + 1) % len(corners)]
        on_a = np.nonzero(np.abs(space.distance(xa, centers) - radius)
                          <= 1e-9 * max(radius, 1.0))[0]
        on_b = np.nonzero(np.abs(space.distance(xb, centers) - radius)
                          <= 1e-9 * max(radius, 1.0))[0]
        shared = [i for i in on_a if i in on_b]
        arc_choice = None
        for i in shared:
            ang_a = _angle_in_frame(space, centers[i], xa)
            ang_b = _angle_in_frame(space, centers[i], xb)
            sweep = (ang_b - ang_a) % (2.0 * np.pi)
            mid_pt, _ = _circle_arrays(space, centers[i], radius,
                                       np.array([ang_a + 0.5 * sweep]))
            if np.all(space.distance(mid_pt[0], centers)
                      <= radius * (1 + 1e-9)):
                arc_choice = (i, ang_a, sweep)
                break
        if arc_choice is None:
            raise CurveGenerationError(
                "could not assemble the disc-intersection boundary")
        i, ang_a, sweep = arc_choice
        arc_len = float(space.sn(radius)) * sweep
        arcs.append((i, ang_a, sweep, arc_len))
        total += arc_len

    pts_list, tan_list, corner_list, s_list = [], [], [], []
    s_acc = 0.0
    for (i, ang_a, sweep, arc_len) in arcs:
        count = max(4, int(round(n * arc_len / total)))
        pts, tans, _ = _arc(space, centers[i], radius, ang_a,
                            ang_a + sweep, count)
        flags = np.zeros(count, dtype=bool)
        flags[0] = True
        pts_list.append(pts)
        tan_list.append(tans)
        corner_list.append(flags)
        s_list.append(s_acc + arc_len * np.arange(count) / count)
        s_acc += arc_len

    points = np.concatenate(pts_list, axis=0)
    tangents = np.concatenate(tan_list, axis=0)
    corner = np.concatenate(corner_list)
    s = np.concatenate(s_list)

    # corner tangents: bisector of adjacent arc directions
    n_eff = len(points)
    for idx in np.nonzero(corner)[0]:
        before = tangents[(idx - 1) % n_eff]
        after = tangents[(idx + 1) % n_eff]
        bis = before + after
        norm = space.norm(points[idx], bis)
        if norm > 1e-12:
            tangents[idx] = space.project_tangent(points[idx], bis) / norm

    normals = -space.rotate90(points, tangents)
    kappa, kmin = _measured_kappa_and_kmin(space, points, s, tangents,
                                           normals, corner, total)
    return ClosedCurve(space=space, points=points, s=s, tangents=tangents,
                       normals_out=normals, kappa=kappa, corner=corner,
                       total_length=float(total), kmin=kmin,
                       provenance="disc_intersection",
                       k0_declared=float(k0), hint_center=seed)


# ---------------------------------------------------------------------------
# Validation (generator sanity certificate)
# ---------------------------------------------------------------------------

def validate_curve(curve: ClosedCurve) -> dict:
    """Structural checks used by the generator test suites.

    Returns a dict of measured quantities; the convexity certificate
    (positive measured curvature + unit winding around an interior point)
    doubles as the simplicity check at sampling resolution, since a locally
    convex loop winding once around an interior point is embedded.
    """
    space = curve.space
    center = curve.hint_center if curve.hint_center is not None \
        else karcher_mean(space, curve.points)
    winding = winding_number(space, curve.points, center)
    orth = np.abs(space.metric_dot(curve.points, curve.tangents,
                                   curve.normals_out))
    smooth = ~_corner_window_mask(curve.corner, window=3)
    result = {
        "winding": winding,
        "max_tangent_normal_dot": float(np.max(orth[smooth]))
        if np.any(smooth) else 0.0,
        "max_gap": curve.max_gap,
        "closure_gap": curve.closure_gap,
        "kmin": curve.kmin,
        "hemisphere_ok": True,
    }
    if space.kind is Kind.SPHERE and (curve.kmin >= -1e-9):
        u = space.project(center) * space.k1
        unit_pts = curve.points * space.k1
        result["hemisphere_ok"] = bool(
            float(np.min(unit_pts @ u)) >= -1e-9)
    return result
