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
(counterclockwise), with exact per-sample tangents where the construction
provides them.  Each one ends in :meth:`ClosedCurve.from_samples`, the one
place that derives the outward normals and *measures* the geodesic curvature
with the window estimator (as the curve-file loader does too), so
``kappa``/``kmin`` are observations of the samples, never a construction's
claim.

Measurement
-----------
* :func:`measure_radial`      distances and radial angles from a base point
* :func:`min_distance_to_curve` / :func:`max_distance_to_curve`
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from itertools import accumulate, permutations
from typing import NamedTuple

import numpy as np

from .errors import (AntipodalPointsError, CurveGenerationError,
                     GeometryError, NonClosureError)
from .search import (WINDOW_HALF, bracket_min, brentq, golden_min,
                     refine_extremum, refine_windows, windows)
from .spaceforms import MODEL_TOL, Kind, SpaceForm, karcher_mean

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
    curvature away from corners.  Build curves with :meth:`from_samples`,
    which derives the normals, ``kappa`` and ``kmin`` from the samples.
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
    closure_gap: float = 0.0
    hint_center: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        for name in ("points", "s", "tangents", "normals_out", "kappa", "corner"):
            getattr(self, name).setflags(write=False)

    @classmethod
    def from_samples(cls, space, points, s, tangents, corner, total_length,
                     provenance, hint_center=None, closure_gap=0.0):
        """The curve of these samples, with its outward normals
        -rotate90(tangents), its window-fit ``kappa`` (NaN within a window
        of a corner) and ``kmin``, the refined minimum of that ``kappa``;
        refuses tangents that are not unit vectors between the chords from
        the previous sample and to the next, and samples that run
        clockwise."""
        n = len(points)
        if n < 2 * WINDOW_HALF + 1:
            raise CurveGenerationError(
                f"{n} samples are fewer than the {2 * WINDOW_HALF + 1}-sample "
                "curvature window", where=n)
        normals = -space.rotate90(points, tangents)
        kappa = _window_fit_kappa(space, points, tangents, normals)
        kappa = np.where(corner_band(corner), np.nan, kappa)
        finite = np.isfinite(kappa)
        if not np.any(finite):
            raise CurveGenerationError(
                "no corner-free window to measure curvature")
        kmin = float(np.nanmin(kappa))
        idx = int(np.nanargmin(kappa))
        win = windows(n, idx)[0]
        if np.all(finite[win]):
            if not _flat_window(np.ptp(kappa[win]), kmin):
                _, kmin = refine_extremum(s, kappa, idx, mode="min",
                                          period=total_length)
        return cls(space=space, points=points, s=s, tangents=tangents,
                   normals_out=normals, kappa=kappa, corner=corner,
                   total_length=float(total_length), kmin=kmin,
                   provenance=provenance, closure_gap=closure_gap,
                   hint_center=hint_center)

    @property
    def n(self) -> int:
        return len(self.s)

    @property
    def max_gap(self) -> float:
        gaps = np.diff(self.s, append=self.total_length + self.s[0])
        return float(np.max(gaps))


# ---------------------------------------------------------------------------
# Curvature estimation (geodesic normal coordinate fit)
# ---------------------------------------------------------------------------

def _graph_coefficients(x, y):
    """(c1, c2) of the quartic graph through 0 and the nodes on axis 0."""
    lag = np.ones_like(x)                                 # l_j(0)
    for j, k in permutations(range(len(x)), 2):
        lag[j] *= x[k] / (x[k] - x[j])
    inv = 1.0 / x
    zl = lag * (y * inv)                                  # l_j(0) z_j
    return (np.sum(zl, axis=0),
            2.0 * np.sum(zl * (inv - np.sum(inv, axis=0)), axis=0))


def _window_fit_kappa(space, points, tangents, normals_out):
    """Measured geodesic curvature at every sample.

    Each sample's four neighbours are mapped into geodesic normal
    coordinates at the sample (x along the tangent, y along the inward
    normal), where the Christoffel symbols vanish; the quartic graph
    y = c1 x + c2 x^2/2 + ... through the origin and them gives the
    curvature c2/(1+c1^2)^(3/2).  With y = x q(x), q the cubic through
    (x_j, y_j / x_j), c1 = q(0) and c2 = 2 q'(0) are closed-form Lagrange
    (Fornberg) sums, l_j(0) = prod_{k != j} x_k/(x_k - x_j) and
    l_j'(0) = l_j(0) sum_{k != j} -1/x_k: no ``pow`` (slow for negative
    bases, CPU-dispatch dependent for positive ones) and no 4x4 solve.
    """
    offsets = np.r_[-WINDOW_HALF:0, 1:WINDOW_HALF + 1]
    nodes = (np.arange(len(points)) + offsets[:, None]) % len(points)
    v = space.log_map(points, np.take(points, nodes, axis=0))  # (4, n, dim)
    x = space.metric_dot(points, v, tangents)
    y = -space.metric_dot(points, v, normals_out)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # refuse tangents the samples contradict: one of length a would
        # measure kappa / a, a turned one would turn the normal (node 1, the
        # previous sample, must lie behind along it, node 2 ahead, one side)
        frame = np.stack([tangents, normals_out])
        ambient = np.einsum("kij,kij->ki", frame, frame)
        unit = (np.abs(space.metric_dot(points, frame, frame) - 1.0)
                <= MODEL_TOL * ambient) & (ambient < np.inf)
        side = np.sign(y[1:3]) * (np.abs(y[1:3]) > MODEL_TOL * np.abs(x[1:3]))
        astray = ((x[1] >= 0.0) | (x[2] <= 0.0) | (side[0] * side[1] < 0.0)
                  | ~unit.all(axis=0))
        # samples of a convex curve run counterclockwise: a reversed file
        # has no neighbour inward of a tangent; a great circle (every
        # neighbour on its tangent) has none outward either
        clockwise = not np.any(side > 0.0) and np.any(np.all(side < 0.0,
                                                             axis=0))
        c1, c2 = _graph_coefficients(x, y)
        t = 1.0 + c1 * c1
        x4 = np.max(x * x * x * x, axis=0) / 24.0
        # the LAPACK fit this replaces read NaN where its x^4/24 column
        # overflowed and refused a window where it underflowed to zero (a
        # singular matrix); this form measures both, so keep those
        # outcomes, and refuse a window whose finite nodes coincide
        kappa = np.where(x4 < np.inf, c2 / (t * np.sqrt(t)), np.nan)
        singular = (x4 == 0.0) | (~np.isfinite(kappa) & np.isfinite(x4)
                                  & np.isfinite(y).all(axis=0))
    if np.any(astray):
        i = int(np.argmax(astray))
        raise CurveGenerationError(
            "tangent: not a unit vector between the chords to the "
            f"neighbouring samples at sample {i}", where=i)
    if clockwise:
        raise CurveGenerationError(
            "coords: samples run clockwise, not counterclockwise (no "
            "neighbouring sample lies inward of a tangent)")
    if np.any(singular):
        raise CurveGenerationError(
            "curvature window fit is singular (samples too close together "
            "for float64)")
    return kappa


def corner_band(corner, half=WINDOW_HALF) -> np.ndarray:
    """True within ``half`` samples (a window by default) of a corner."""
    band = np.array(corner, dtype=bool)
    for off in range(1, half + 1):
        band |= np.roll(corner, off) | np.roll(corner, -off)
    return band


def _flat_window(spread, value):
    """True where a sample window is constant up to roundoff: refining it
    would only polish noise."""
    return spread <= 1e-8 * np.maximum(1.0, np.abs(value))


# ---------------------------------------------------------------------------
# Orientation helpers
# ---------------------------------------------------------------------------

def winding_number(space: SpaceForm, points, origin) -> int:
    """Winding of a closed sample loop around origin (+1 = counterclockwise).

    Reads each sample's azimuth atan2(<p, e2>, <p, e1>) in the frame at
    origin (p - origin on the flat plane), which the log map would only
    rescale; raises AntipodalPointsError where the log map would (sphere).
    """
    origin = np.asarray(origin, dtype=float)
    rel = points - origin if space.kind is Kind.FLAT else points
    x, y = (space.metric_dot(origin, rel, e) for e in space.frame(origin))
    if space.kind is Kind.SPHERE and np.any((rel @ origin < 0.0) & (
            space.k1 * np.hypot(x, y) < math.sin(math.pi * 1e-9))):
        raise AntipodalPointsError(
            "log map is undefined for antipodal points on the sphere")
    ang = np.arctan2(y, x)
    d = (np.roll(ang, -1) - ang + np.pi) % (2.0 * np.pi) - np.pi
    return int(round(float(np.sum(d)) / (2.0 * np.pi)))


# ---------------------------------------------------------------------------
# Distance queries
# ---------------------------------------------------------------------------

def _distance_extrema(curve: ClosedCurve, p, mode: str, contacts=False,
                      t=None):
    """Every refined local extremum of the distance from p that can win.

    Distance is 1-Lipschitz in arc length and a refined extremum lies
    within one gap of its sample, so only the local extrema whose sample is
    within ``curve.max_gap`` of the extreme sample are kept.  A window whose
    spread is at roundoff keeps its sample value: refining it would only
    polish noise.  Returns (arc lengths, values (k, 1)).  ``contacts``
    keeps every local extremum and adds their ``space.to_chart(p, ...)``
    coordinates (charting only their windows) and their samples' kappa.
    ``t`` is ``space.distance(p, curve.points)`` if the caller has it.
    """
    space = curve.space
    if t is None:
        t = space.distance(p, curve.points)
    v = t if mode == "min" else -t
    keep = contacts or (v <= np.min(v) + curve.max_gap)
    idx = np.flatnonzero((v <= np.roll(v, 1)) & (v <= np.roll(v, -1)) & keep)
    win = windows(len(t), idx)
    rough = ~_flat_window(np.ptp(t[win], axis=1), t[idx])
    s_star, vals = curve.s[idx].astype(float), t[idx, None]
    cols = t[win[rough], None]
    if contacts:
        vals = np.column_stack([vals, space.to_chart(p, curve.points[idx])])
        cols = np.concatenate(
            [cols, space.to_chart(p, curve.points[win[rough]])], axis=-1)
    s_star[rough], vals[rough] = refine_windows(
        curve.s, win[rough], cols, mode, curve.total_length)
    return s_star, (np.column_stack([vals, curve.kappa[idx]]) if contacts
                    else vals)


def min_distance_to_curve(curve: ClosedCurve, p, t=None):
    """(min distance, arc length of the minimizer) from p to the curve;
    ``t`` is ``space.distance(p, curve.points)`` if the caller has it."""
    s_star, vals = _distance_extrema(curve, p, "min", t=t)
    j = int(np.argmin(vals[:, 0]))
    return float(vals[j, 0]), float(s_star[j])


def max_distance_to_curve(curve: ClosedCurve, p, t=None):
    """(max distance, arc length of the maximizer) from p to the curve;
    ``t`` as for :func:`min_distance_to_curve`."""
    s_star, vals = _distance_extrema(curve, p, "max", t=t)
    j = int(np.argmax(vals[:, 0]))
    return float(vals[j, 0]), float(s_star[j])


# ---------------------------------------------------------------------------
# Radial measurement
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialMeasurement:
    """Distances t and radial angles phi of every sample, seen from a base
    point; ``h`` is the refined minimum distance from it to the curve."""

    t: np.ndarray
    phi: np.ndarray
    h: float

    def __post_init__(self):
        self.t.setflags(write=False)
        self.phi.setflags(write=False)


def measure_radial(curve: ClosedCurve, base) -> RadialMeasurement:
    """Per-sample distance and angle between radial direction and normal.

    The base point must lie strictly inside the curve.  On the sphere no
    sample may be antipodal to it (one refused that way lies outside: a
    convex curve's interior holds no point antipodal to a sample).
    """
    space = curve.space
    base = space.check_point(np.asarray(base, dtype=float))
    t = space.distance(base, curve.points)
    if float(np.min(t)) <= 1e-12:
        raise GeometryError("base point lies on the curve")
    if space.kind is Kind.SPHERE:
        far = int(np.argmax(t))
        if t[far] >= np.pi / space.k1 * (1 - 1e-9):
            raise GeometryError(
                f"base point is antipodal to sample {far}")
    if winding_number(space, curve.points, base) != 1:
        raise GeometryError("base point is not strictly inside the curve")

    v = space.log_map(curve.points, base)       # toward the base point
    u = -v / t[:, None]                          # radial, away from base
    phi = space.angle_between(curve.points, u, curve.normals_out)
    _, minima = _distance_extrema(curve, base, "min", t=t)
    return RadialMeasurement(t=t, phi=phi, h=float(np.min(minima)))


# ---------------------------------------------------------------------------
# Circle
# ---------------------------------------------------------------------------

def _circle_arrays(space, center, radius, alphas, frame=None):
    """Points and unit tangents of the circle exp_center(radius * dir(a)).

    ``frame`` is (e1, e2), by default ``space.frame(center)``; ``center``
    and the frame may hold one row per angle, a circle per sample.
    """
    e1, e2 = space.frame(center) if frame is None else frame
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
    ring = float(space.circumference(radius))
    return ClosedCurve.from_samples(
        space, points, ring * (np.arange(n) / n), tangents,
        np.zeros(n, dtype=bool), ring, "circle", hint_center=center)


# ---------------------------------------------------------------------------
# Lune (two symmetric circular arcs)
# ---------------------------------------------------------------------------

def make_lune(space: SpaceForm, k0: float, r: float,
              n: int = DEFAULT_SAMPLES) -> ClosedCurve:
    """Closed curve made of two smaller circular arcs of curvature k0.

    ``r`` is the inradius: the curve touches the circle of radius r around
    the origin, the midpoint of its two corners' axis.  In the limit r -> R
    the lune degenerates to the circle of curvature k0.  This is the
    intersection of the two discs of curvature k0 centered R - r from the
    origin along the frame's second axis; the two corner samples are
    flagged, and each arc's midpoint (the touch point) is a sample.
    """
    radius = space.circle_radius_of_curvature(k0)
    if not 0.0 < r < radius:
        raise CurveGenerationError(
            f"lune inradius must lie strictly inside (0, {radius}), got {r}",
            where=r)
    center = space.origin()
    _, e2 = space.frame(center)
    centers = np.array([space.exp_map(center, -(radius - r) * e2),
                        space.exp_map(center, (radius - r) * e2)])
    # a multiple of 4 gives each arc an even sample count, so the arc
    # midpoints (the touch points) are samples
    curve = make_disc_intersection(space, centers, k0,
                                   n=max(16, 4 * (n // 4)))
    return dataclasses.replace(curve, provenance="lune", hint_center=center)


# ---------------------------------------------------------------------------
# Support-function curves (flat plane)
# ---------------------------------------------------------------------------

def _harmonic_orders(harmonics, n: int, name: str, low: int, why: str):
    """{int order: (a, b)} of the ``name`` series ``harmonics`` on n
    samples; refuses an order below ``low`` (``why`` says where they
    start), one that is not an integer, and one at or above the samples'
    Nyquist order n/2, which they alias."""
    harmonics = dict(harmonics or {})
    for m in harmonics:
        if m < low:
            raise CurveGenerationError(f"{name} harmonics start at {why}")
        if not float(m).is_integer():
            raise CurveGenerationError(
                f"{name} harmonic order {m} is not an integer", where=m)
        if 2 * m >= n:
            raise CurveGenerationError(
                f"{name} harmonic order {m} is at or above the Nyquist "
                f"order n/2 = {n / 2:g} of {n} samples (aliased)", where=m)
    return {int(m): ab for m, ab in harmonics.items()}


def _support_rho_dense(a0, harmonics, n_dense):
    """rho = h + h'' at the angles 2 pi k / n_dense, k < n_dense, as one
    inverse real FFT of its coefficients a0 and (1 - m^2)(a_m, b_m); every
    order m must lie below n_dense / 2."""
    spectrum = np.zeros(n_dense // 2 + 1, dtype=complex)
    spectrum[0] = n_dense * float(a0)
    for m, (am, bm) in harmonics.items():
        spectrum[m] = 0.5 * n_dense * (1 - m * m) * complex(am, -bm)
    return np.fft.irfft(spectrum, n_dense)


def make_support_curve(a0: float, harmonics=None, *, k0_target: float,
                       n: int = DEFAULT_SAMPLES) -> ClosedCurve:
    """Euclidean convex curve from a truncated support function.

    h(theta) = a0 + sum_{m>=2} (a_m cos m theta + b_m sin m theta), with
    harmonics given as {m: (a_m, b_m)}; the integer orders m must satisfy
    2 <= m < n/2, since an order at or above the samples' Nyquist order n/2
    is aliased.  The curvature radius is rho(theta) = h + h''; the
    construction is rejected unless 0 < rho(theta) <= 1/k0_target at
    8 max(n, 1024) equally spaced angles, which certifies that the measured
    curvature satisfies kappa >= k0_target.  That dense rho is one inverse
    real FFT of rho's own coefficients; the samples come from h and h' in
    closed form.
    """
    space = SpaceForm.flat()
    harmonics = _harmonic_orders(harmonics, n, "support", 2,
                                 "m = 2 (m < 2 only translates)")
    if k0_target <= 0.0:
        raise CurveGenerationError("k0_target must be positive")

    n_dense = 8 * max(n, 1024)
    rho_dense = _support_rho_dense(a0, harmonics, n_dense)
    bad = (rho_dense <= 0.0) | (rho_dense > 1.0 / k0_target + 1e-12)
    if np.any(bad):
        theta_bad = float(np.argmax(bad) * (2.0 * np.pi / n_dense))
        raise CurveGenerationError(
            "support function violates 0 < h + h'' <= 1/k0_target "
            f"(first violation at theta = {theta_bad:.6f})", where=theta_bad)

    theta = 2.0 * np.pi * np.arange(n) / n
    h = np.full_like(theta, float(a0))
    hp = np.zeros_like(theta)
    arc = float(a0) * theta
    for m, (am, bm) in harmonics.items():
        cm, sm = np.cos(m * theta), np.sin(m * theta)
        h += am * cm + bm * sm
        hp += m * (-am * sm + bm * cm)
        arc += (1 - m * m) * (am * sm - bm * cm) / m
    points = np.stack([h * np.cos(theta) - hp * np.sin(theta),
                       h * np.sin(theta) + hp * np.cos(theta)], axis=-1)
    tangents = np.stack([-np.sin(theta), np.cos(theta)], axis=-1)
    return ClosedCurve.from_samples(
        space, points, arc - arc[0], tangents, np.zeros(n, dtype=bool),
        2.0 * np.pi * float(a0), "support_function", hint_center=np.zeros(2))


# ---------------------------------------------------------------------------
# Frame-ODE curves (prescribed curvature profile)
# ---------------------------------------------------------------------------

_PERIOD_STEPS = 512     # Magnus steps per period in the closure solve
# closure-length scans (first, last, count), in units of the mean-curvature
# circle length, tried in turn until one brackets the root: a pair 0.5%
# either side of that guess, then one wide scan
_BRACKET_STAGES = ((0.995, 1.005, 2), (0.55, 1.8, 13))
_ROOT_MAXITER = 50
_SCAN_BLOCK = 32        # increments per block of the final pass's prefix scan
_SQRT3 = math.sqrt(3.0)
# largest profile magnitude: the profile's mean over 2048 points and the
# differences of its values stay finite below it
_PROFILE_MAX = np.finfo(float).max / 4096


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
    else:                                   # P' = k1 T, T' = -sign k1 P
        g0[1, 0] = space.k1
        g0[0, 1] = -space.sign * space.k1
    return g0, g1


def _profile_values(profile, u):
    """The curvature profile at the points u, as floats of u's shape.

    Raises CurveGenerationError where a value is not finite or exceeds
    ``_PROFILE_MAX`` in magnitude, before anything is computed with it.
    """
    values = np.asarray(profile(u), dtype=float)
    if values.shape != np.shape(u):
        values = np.broadcast_to(values, np.shape(u))
    if not np.max(np.abs(values), initial=0.0) <= _PROFILE_MAX:  # NaN too
        i = int(np.argmax(~(np.abs(values) <= _PROFILE_MAX)))
        where = float(np.ravel(u)[i])
        raise CurveGenerationError(
            f"curvature profile is {float(values.flat[i])!r} at u = "
            f"{where!r}: not finite or beyond {_PROFILE_MAX:.3g} in "
            "magnitude", where=where)
    return values


class _StepTable(NamedTuple):
    """A profile's Magnus step data on one grid of [0, u_end]: the step h,
    the generators G0 + kbar G1 at the steps' mean Gauss-point curvature
    kbar (steps, 3, 3), the Gauss-point difference dkap (steps, 1, 1) and the
    commutator [G0, G1]."""

    h: float
    gen: np.ndarray
    dkap: np.ndarray
    comm: np.ndarray


def _step_table(space, profile, u_end, steps) -> _StepTable:
    """The :class:`_StepTable` of ``profile``: one profile call at the two
    Gauss points of each of ``steps`` equal steps over [0, u_end]."""
    h = u_end / steps
    gauss = 0.5 + np.array([-1.0, 1.0]) * _SQRT3 / 6.0
    u = (h * (np.arange(steps)[:, None] + gauss)).ravel()
    kap = _profile_values(profile, u).reshape(steps, 2)
    g0, g1 = _frame_generators(space)
    mean_kap = (0.5 * (kap[:, 0] + kap[:, 1]))[:, None, None]
    return _StepTable(h, g0 + mean_kap * g1,
                      (kap[:, 1] - kap[:, 0])[:, None, None],
                      g0 @ g1 - g1 @ g0)


def _sinc_q(q):
    """sin(sqrt(-q))/sqrt(-q) for q < 0, sinh(sqrt(q))/sqrt(q) for q >= 0."""
    r = np.sqrt(np.abs(q))
    tiny = r < 1e-4
    r = np.where(tiny, 1.0, r)
    neg = q < 0.0
    out = np.sin(r, out=np.empty_like(r), where=neg)
    np.sinh(r, out=out, where=~neg)
    return np.where(tiny, 1.0 + q / 6.0 + q * q / 120.0, out / r)


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
    """(I + D_0) ... (I + D_{N-1}) - I along axis 1, N a power of two, by
    pairwise halving."""
    while incs.shape[1] > 1:
        incs = _compose(incs[:, 0::2], incs[:, 1::2])
    return incs[:, 0]


def _prefix_products(incs):
    """Inclusive prefix products of a (S, ...) stack of increments.

    A two-level blocked scan in about 2 S compositions: the running product
    inside every block of ``_SCAN_BLOCK`` increments (zero increments pad
    the last), one position at a time for all blocks at once, then the
    running product of the block totals, carried into every later block.
    """
    count = len(incs)
    n_blocks = -(-count // _SCAN_BLOCK)
    out = np.zeros((n_blocks * _SCAN_BLOCK,) + incs.shape[1:])
    out[:count] = incs
    blocks = out.reshape((n_blocks, _SCAN_BLOCK) + incs.shape[1:])
    for j in range(1, _SCAN_BLOCK):
        blocks[:, j] = _compose(blocks[:, j - 1], blocks[:, j])
    carry = blocks[:, -1].copy()
    for i in range(1, n_blocks):
        carry[i] = _compose(carry[i - 1], carry[i])
    blocks[1:] = _compose(carry[:-1, None], blocks[1:])
    return out[:count]


def _integrate_frame(space, p0, t0, table, lengths, store_every=None):
    """Fourth-order Magnus integration of the frame equations.

    The frame F = [P | T | J] (see ``_frame_matrix``) solves F' = F A with
    A = G0 + kappa G1 in so(3), so(2,1) or se(2).  In the normalized
    parameter u = s / L the generator is L A, so a whole batch of candidate
    total lengths shares ``table``, one :class:`_StepTable` of the profile
    at the two Gauss points of every step.  Each step multiplies F on the
    right by exp(Omega), Omega = (h L / 2)(A1 + A2) + (sqrt 3 / 12) h^2 L^2
    [A1, A2], taken in closed form (``_expm1_traceless3``); the step factors
    are composed by pairwise matrix products.  Every factor lies in the
    isometry group, so no projection back onto the model is needed.  Raises
    CurveGenerationError where Omega overflows.  ``store_every``, or the
    step count without it, is a power of two.

    ``lengths`` is scalar or (B,); returns the body-frame period maps
    d = F0^-1 F_end - I of shape (B, 3, 3) (see ``_period_rotation``) and,
    when ``store_every`` is given, the (steps // store_every, B, dim) points
    and tangents taken every that many steps, starting with (p0, T0); their
    frames come from the blocked scan ``_prefix_products``.
    """
    lengths = np.atleast_1d(np.asarray(lengths, dtype=float))
    hl = (table.h * lengths)[:, None, None, None]
    try:
        with np.errstate(over="raise", invalid="raise"):
            omega = (hl * table.gen
                     + (_SQRT3 / 12.0) * hl ** 2 * table.dkap * table.comm)
    except FloatingPointError:
        longest = float(np.max(lengths))
        raise CurveGenerationError(
            f"frame-ODE step generators overflow at total length "
            f"{longest:.6g}", where=longest) from None
    incs = _expm1_traceless3(omega)
    if store_every is None:
        return _chain_product(incs), None, None

    n_store = len(table.gen) // store_every
    blocks = _chain_product(incs.reshape(
        len(lengths) * n_store, store_every, 3, 3))
    prefix = _prefix_products(blocks.reshape(len(lengths), n_store, 3, 3)
                              .transpose(1, 0, 2, 3))
    f0 = _frame_matrix(space, np.asarray(p0, dtype=float),
                       np.asarray(t0, dtype=float))
    frames = f0 + f0 @ np.concatenate([np.zeros_like(prefix[:1]),
                                       prefix[:-1]])
    scale = 1.0 if space.kind is Kind.FLAT else space.k1
    return (prefix[-1], frames[..., :space.dim, 0] / scale,
            frames[..., :space.dim, 1])


def _apply_isometry(space, mat, points, linear=False):
    """Image of points (of tangent vectors if ``linear``) under mat."""
    if space.kind is not Kind.FLAT:
        return points @ mat.T
    out = points @ mat[:2, :2].T
    return out if linear else out + mat[:2, 2]


def _period_rotation(space, d):
    """(sin, cos) of the rotation angle of each isometry I + d, d of shape
    (B, 3, 3), and its fixed point a, all read off in body coordinates (see
    ``_integrate_frame``).

    There the start point is (1, 0, 0), its tangent (0, 1, 0) and its
    inward normal (0, 0, 1), and the invariant form is
    x0^2 + eps (x1^2 + x2^2), eps = ``space.sign``.  The fixed point spans
    the kernel of d: the largest cross product of two of its rows (row i of
    the cofactor matrix is that of rows i + 1 and i + 2, cyclically), scaled
    to unit form, which puts it on the model (the homogeneous a0 = 1 on the
    flat plane).  On the sphere, whose two antipodal fixed points rotate
    with opposite signs, it is the one on the inner side of the start point
    (a2 > 0); elsewhere the one on the model (a0 > 0).  sin comes from the
    antisymmetric part of d against a, which is linear in d, so it crosses
    zero transversally at the angle pi.  All three are NaN where the
    isometry is too close to the identity (1 - cos < 1e-10) or has no fixed
    point on the model.
    """
    eps = space.sign
    cos = 1.0 + 0.5 * np.trace(d, axis1=-2, axis2=-1)
    # t[:, i, j] = d[:, (i + 1) % 3, (j + 1) % 3], i, j < 5
    t = np.concatenate([d, d], axis=-1)
    t = np.concatenate([t, t], axis=-2)[:, 1:, 1:]
    kernels = (t[:, :3, :3] * t[:, 1:4, 1:4]
               - t[:, :3, 1:4] * t[:, 1:4, :3])
    pick = np.argmax(np.sum(kernels ** 2, axis=-1), axis=-1)
    a = kernels[np.arange(len(d)), pick]
    form = a[:, 0] ** 2 + eps * (a[:, 1] ** 2 + a[:, 2] ** 2)
    side = a[:, 2] if eps > 0.0 else a[:, 0]
    ok = (form > 0.0) & (cos <= 1.0 - 1e-10)
    a = a * (np.where(side < 0.0, -1.0, 1.0)
             / np.sqrt(np.where(ok, form, np.nan)))[:, None]
    w = 0.5 * np.stack([d[:, 2, 1] - d[:, 1, 2],
                        eps * d[:, 0, 2] - d[:, 2, 0],
                        d[:, 1, 0] - eps * d[:, 0, 1]], axis=-1)
    sin = w[:, 0] * a[:, 0] + eps * (w[:, 1] * a[:, 1] + w[:, 2] * a[:, 2])
    return sin, np.where(ok, cos, np.nan), a


def _detect_symmetry_order(profile):
    """(m, mismatch): largest m in [2, 64] with profile(u + 1/m) == profile(u).

    ``mismatch`` is the relative max |profile(u + 1/m) - profile(u)| over
    257 points u of the returned m, or, when no order qualifies (m = 0), the
    smallest one seen.  A screen of all 63 orders on every 16th point rides
    along in the base grid's profile call; only the orders it passes are
    tested on all points, in a second call, and all 63 only when none of
    those passes.  An order that fails on some points fails on all, so the
    result is that of testing every order on every point.
    """
    u = np.linspace(0.0, 1.0, 257, endpoint=False)
    orders = np.arange(64, 1, -1)
    sub = u[::16]
    values = _profile_values(profile, np.concatenate(
        [u, ((sub + 1.0 / orders[:, None]) % 1.0).ravel()]))
    base = values[:len(u)]
    scale = max(1.0, float(np.max(np.abs(base))))
    screen = np.max(np.abs(values[len(u):].reshape(len(orders), len(sub))
                           - base[::16]), axis=1) / scale
    passed = np.flatnonzero(screen <= 1e-10)
    for rows in (passed, np.arange(len(orders))):
        if not rows.size:
            continue
        grid = (u + 1.0 / orders[rows, None]) % 1.0
        shifted = _profile_values(profile, grid.ravel()).reshape(grid.shape)
        mismatch = np.max(np.abs(shifted - base), axis=1) / scale
        hit = np.flatnonzero(mismatch <= 1e-10)
        if hit.size:
            return int(orders[rows[hit[0]]]), float(mismatch[hit[0]])
    return 0, float(np.min(mismatch))


def make_frame_ode_curve(space: SpaceForm, kappa_profile,
                         n: int = DEFAULT_SAMPLES) -> ClosedCurve:
    """Closed curve with prescribed geodesic curvature profile.

    ``kappa_profile(u)`` gives the curvature at arc-length fraction
    u in [0, 1) for an array of u; it must repeat with period 1/m for some
    integer m in [2, 64] (the two corner-free closed-curve generators on the
    curved planes all have that form).  The symmetry order comes from a
    screen of all candidate orders on a 17-point subgrid, in the same
    profile call as the 257-point base grid, and a full test of the orders
    that pass it (``_detect_symmetry_order``).  The total length is then the
    single unknown: the curve closes exactly when the isometry carrying the
    frame over one period is a rotation by 2*pi/m, a scalar condition solved
    by bracketed root finding.  Its sine and cosine, and the fixed point
    that becomes ``hint_center``, are read in closed form off the period map
    in the start frame's body coordinates (``_period_rotation``).  The
    bracket grows from the mean-curvature circle length outward
    (``_BRACKET_STAGES``): first the two lengths 0.5% either side of it,
    then, only where they bracket no root, a scan of 13 lengths over
    [0.55, 1.8] times it.  Every length is integrated once, from one table
    of the profile, the step generators and their commutator
    (``_step_table``) built before the first: Brent's method reads the
    bracket ends' defects off the scan.  The solved curve is built by
    integrating one period finely, from a second table, composing its
    sample frames by a blocked scan (``_prefix_products``), and replicating
    it with powers of the period isometry, so the m-fold symmetry is exact.

    Raises NonClosureError when the profile lacks the required symmetry,
    the root search does not converge, or the replicated curve misses its
    start point by more than 1e-8; the exception carries the best closure
    residual seen (for a profile without symmetry, its smallest relative
    mismatch under a shift by 1/m).  Raises GeometryError when the
    profile's minimum (bracketed by ``bracket_min`` around the smallest of
    2048 profile values and finished by ``golden_min``) is the curvature of
    no closed circle, and CurveGenerationError when a profile value is not
    finite or exceeds ``_PROFILE_MAX`` in magnitude, or when the step
    generators overflow.
    """
    m, mismatch = _detect_symmetry_order(kappa_profile)
    if m < 2:
        raise NonClosureError("curvature profile must repeat with period "
                              "1/m for some m in [2, 64]", residual=mismatch)
    if n < m:
        raise CurveGenerationError(
            f"{n} samples cannot carry the profile's {m}-fold symmetry",
            where=n)

    u_grid = np.linspace(0.0, 1.0, 2048, endpoint=False)
    prof_vals = _profile_values(kappa_profile, u_grid)
    k_mean = float(np.mean(prof_vals))
    # the refusal below tests the profile's true minimum, not the grid
    # minimum (which overshoots it by O(grid spacing squared)): batched
    # calls narrow the bracket around the grid minimum to 1e-9, and the
    # golden section finishes it to 1e-12
    i_min = int(np.argmin(prof_vals))
    lo, hi, k_min_bracket = bracket_min(
        lambda u: _profile_values(kappa_profile, u % 1.0),
        u_grid[i_min] - 1.5 / 2048, u_grid[i_min] + 1.5 / 2048, tol=1e-9)
    _, k_min_golden = golden_min(
        lambda u: float(_profile_values(kappa_profile, u % 1.0)), lo, hi,
        tol=1e-12)
    k_min_profile = min(k_min_golden, k_min_bracket, float(prof_vals[i_min]))
    # raises where no closed circle has curvature k_min_profile
    space.circle_radius_of_curvature(k_min_profile)

    length_guess = float(space.circumference(
        space.circle_radius_of_curvature(k_mean)))

    p0 = space.origin()
    e1, _ = space.frame(p0)
    ct, st = math.cos(2.0 * math.pi / m), math.sin(2.0 * math.pi / m)
    table = _step_table(space, kappa_profile, 1.0 / m, _PERIOD_STEPS)

    defects = {}    # total length -> (defect sin, defect cos)

    def closure_defects(lengths):
        """(sin, cos) of each period's rotation angle minus 2 pi / m; a
        length already integrated is read back, not integrated again."""
        fresh = [x for x in lengths if x not in defects]
        if fresh:
            d, _, _ = _integrate_frame(space, p0, e1, table, fresh)
            sin, cos, _ = _period_rotation(space, d)
            defects.update(zip(fresh, zip(sin * ct - cos * st,
                                          cos * ct + sin * st)))
        return np.array([defects[x] for x in lengths]).T

    def defect_sin(total_length: float) -> float:
        return float(closure_defects([total_length])[0][0])

    # bracket the closure length from the mean-curvature circle length
    # outward, one stage of _BRACKET_STAGES at a time; valid brackets have
    # the defect cosine positive at both ends (right branch of the angle)
    # and a sign change in the defect sine
    residuals = []
    for first, last, count in _BRACKET_STAGES:
        scan = np.linspace(first * length_guess, last * length_guess, count)
        sin, cos = closure_defects(scan)
        valid = (cos[:-1] > 0.0) & (cos[1:] > 0.0)
        residuals.append(np.minimum(np.abs(sin[:-1]), np.abs(sin[1:]))[valid])
        hit = np.flatnonzero(valid & ((sin[:-1] == 0.0)
                                      | (sin[:-1] * sin[1:] < 0.0)))
        if hit.size:
            break
    else:
        residuals = np.concatenate(residuals)
        raise NonClosureError(
            "no closure length found near the mean-curvature circle length",
            residual=float(residuals.min()) if residuals.size else None)
    i = int(hit[0])
    length = float(brentq(defect_sin, scan[i], scan[i + 1],
                          xtol=1e-13 * length_guess, rtol=1e-15,
                          maxiter=_ROOT_MAXITER))

    # final pass: integrate one period finely and replicate it by the
    # period isometry F0 (I + d) F0^-1
    samples_per_period = n // m
    n_eff = samples_per_period * m
    substeps = 2
    d, pts_period, tan_period = _integrate_frame(
        space, p0, e1, _step_table(space, kappa_profile, 1.0 / m,
                                   samples_per_period * substeps),
        length, store_every=substeps)
    pts_period, tan_period = pts_period[:, 0, :], tan_period[:, 0, :]
    f0 = _frame_matrix(space, p0, e1)
    mat = f0 @ (np.eye(3) + d[0]) @ np.linalg.inv(f0)

    blocks_p, blocks_t = [pts_period], [tan_period]
    acc = np.array(mat)
    for _ in range(1, m):
        blocks_p.append(_apply_isometry(space, acc, pts_period))
        blocks_t.append(_apply_isometry(space, acc, tan_period, linear=True))
        acc = acc @ mat
    points = np.concatenate(blocks_p, axis=0)
    tangents = np.concatenate(blocks_t, axis=0)

    # measured from p0, which lies on the model: p_back may have drifted off
    p_back = _apply_isometry(space, acc, p0[None, :])[0]
    gap = float(space.distance(p0, p_back))
    if gap > 1e-8:
        raise NonClosureError(
            f"closure residual {gap:.3e} exceeds 1e-8 after root solve",
            residual=gap)

    scale = 1.0 if space.kind is Kind.FLAT else space.k1
    center = (f0 @ _period_rotation(space, d)[2][0])[:space.dim] / scale
    if not (np.all(np.isfinite(center))
            and winding_number(space, points, center) == 1):
        center = karcher_mean(space, points)
    return ClosedCurve.from_samples(
        space, points, length * np.arange(n_eff) / n_eff, tangents,
        np.zeros(n_eff, dtype=bool), length, "frame_ode", hint_center=center,
        closure_gap=gap)


# ---------------------------------------------------------------------------
# Intersections of equal-radius discs (non-regular convex bodies)
# ---------------------------------------------------------------------------

def _second_leg(space, radius: float, leg: float) -> float:
    """The other leg of the right geodesic triangle with hypotenuse
    ``radius`` and one leg ``leg``, in scalar ``math``."""
    if space.kind is Kind.FLAT:
        return math.sqrt(max(radius * radius - leg * leg, 0.0))
    if space.kind is Kind.SPHERE:
        ratio = math.cos(space.k1 * radius) / math.cos(space.k1 * leg)
        return math.acos(min(1.0, max(-1.0, ratio))) / space.k1
    ratio = math.cosh(space.k1 * radius) / math.cosh(space.k1 * leg)
    return math.acosh(max(1.0, ratio)) / space.k1


def _equidistant_points(space, a, b, d, radius: float):
    """The two points at distance ``radius`` from both a[k] and b[k], for
    every pair k (d[k] = |a[k] b[k]|): shape (len(d), 2, dim), the side of
    -J(b - a) first.

    They lie on the perpendicular bisector of ab, at the second leg of the
    right geodesic triangle with hypotenuse ``radius`` and leg d / 2.
    """
    mid = space.exp_map(a, 0.5 * space.log_map(a, b))
    direction = space.log_map(mid, b)
    direction = direction / space.norm(mid, direction)[:, None]
    w = space.rotate90(mid, direction)
    q = np.array([_second_leg(space, radius, 0.5 * float(dk)) for dk in d])
    steps = (np.array([-1.0, 1.0]) * q[:, None])[..., None] * w[:, None, :]
    return space.exp_map(mid[:, None, :], steps)


def make_disc_intersection(space: SpaceForm, centers, k0: float,
                           n: int = DEFAULT_SAMPLES) -> ClosedCurve:
    """Boundary of the intersection of equal geodesic discs of curvature k0.

    The body is k0-convex by construction: its boundary consists of arcs of
    curvature exactly k0 joined at flagged corner points.  Coincident
    centers collapse to a plain circle; a pair of centers produces the lune
    whose corners are the two disc-intersection points.

    The body is assembled in whole-array kernel calls: the candidate
    corners of every pair of discs at once, one corner-by-centre distance
    table (inside every disc, and on which circles), one chart of all
    corners per disc, the midpoints of every candidate arc, every arc's
    samples (a centre and frame per sample) and every corner's bisector
    tangent.  The seed, ``hint_center``, is the Karcher mean of the
    centres, or of the corners where it falls outside a disc.
    """
    radius = space.circle_radius_of_curvature(k0)
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    space.check_point(centers)

    # dedupe coincident centers
    apart = space.distance(centers[:, None, :], centers[None, :, :]) > 1e-12
    keep = []
    for i in range(len(centers)):
        if np.all(apart[i, keep]):
            keep.append(i)
    centers = centers[keep]
    if len(centers) == 1:
        return dataclasses.replace(make_circle(space, centers[0], k0, n=n),
                                   provenance="disc_intersection")

    dists = space.distance(centers[:, None, :], centers[None, :, :])
    off_diag = dists[~np.eye(len(centers), dtype=bool)]
    if np.any(off_diag >= 2.0 * radius * (1 - 1e-12)):
        raise CurveGenerationError(
            "disc centers must be pairwise closer than 2R")

    # candidate corners: pairwise circle intersections inside all discs
    i, j = np.triu_indices(len(centers), 1)
    corners = _equidistant_points(space, centers[i], centers[j], dists[i, j],
                                  radius).reshape(-1, space.dim)
    table = space.distance(corners[:, None, :], centers[None, :, :])
    inside = np.all(table <= radius * (1 + 1e-12), axis=1)
    corners, table = corners[inside], table[inside]
    if len(corners) < 2:
        raise CurveGenerationError(
            "disc intersection has no corners; centers are degenerate")

    seed = karcher_mean(space, centers)
    if np.any(space.distance(seed, centers) >= radius):
        seed = karcher_mean(space, corners)
    # counterclockwise around the seed, starting from the first candidate,
    # so that roundoff at the branch cut of atan2 cannot pick the start
    xy = space.to_chart(seed, corners)
    ang = np.arctan2(xy[:, 1], xy[:, 0])
    order = np.argsort((ang - ang[0]) % (2.0 * np.pi))
    corners, table = corners[order], table[order]

    # the arc from corner k to corner k + 1 lies on the first circle through
    # both whose midpoint is inside every disc
    n_corners = len(corners)
    on = np.abs(table - radius) <= 1e-9 * max(radius, 1.0)
    frames = np.array([space.frame(c) for c in centers])
    e1, e2 = frames[:, 0], frames[:, 1]
    chart = np.array([space.to_chart(c, corners) for c in centers])
    arc_k, arc_i = np.nonzero(on & np.roll(on, -1, axis=0))
    ang_a = [math.atan2(*chart[i, k, ::-1]) for k, i in zip(arc_k, arc_i)]
    sweeps = [(math.atan2(*chart[i, (k + 1) % n_corners, ::-1]) - a)
              % (2.0 * np.pi) for k, i, a in zip(arc_k, arc_i, ang_a)]
    mids, _ = _circle_arrays(
        space, centers[arc_i], radius,
        np.array([a + 0.5 * sweep for a, sweep in zip(ang_a, sweeps)]),
        (e1[arc_i], e2[arc_i]))
    valid = np.all(space.distance(mids[:, None, :], centers[None, :, :])
                   <= radius * (1 + 1e-9), axis=1)
    arcs = []
    for k in range(n_corners):
        hits = np.flatnonzero((arc_k == k) & valid)
        if len(hits) == 0:
            raise CurveGenerationError(
                "could not assemble the disc-intersection boundary")
        arcs.append(hits[0])
    sn_radius = float(space.sn(radius))
    lengths = [sn_radius * sweeps[h] for h in arcs]
    *starts, total = accumulate(lengths, initial=0.0)

    # every arc's samples in one call; an arc's sweep is re-read from its
    # end angle a + sweep (a full turn where that reads zero), as the
    # per-arc assembly in tests/oracles.py does, whose bits they keep
    counts = np.array([max(4, int(round(n * length / total)))
                       for length in lengths])
    ends = [(ang_a[h] + sweeps[h] - ang_a[h]) % (2.0 * np.pi) for h in arcs]
    ends = [sweep if sweep != 0.0 else 2.0 * np.pi for sweep in ends]
    step = np.arange(np.sum(counts)) - np.repeat(np.cumsum(counts) - counts,
                                                 counts)
    per = np.repeat(counts, counts)
    alphas = np.repeat([ang_a[h] for h in arcs], counts) \
        + np.repeat(ends, counts) * step / per
    disc = arc_i[arcs]
    points, tangents = _circle_arrays(
        space, np.repeat(centers[disc], counts, axis=0), radius, alphas,
        (np.repeat(e1[disc], counts, axis=0),
         np.repeat(e2[disc], counts, axis=0)))
    corner = step == 0
    s = np.repeat(starts, counts) + np.repeat(lengths, counts) * step / per

    # corner tangents: bisector of adjacent arc directions
    idx = np.flatnonzero(corner)
    bis = space.project_tangent(
        points[idx], tangents[idx - 1] + tangents[(idx + 1) % len(points)])
    norm = space.norm(points[idx], bis)
    turn = norm > 1e-12
    tangents[idx[turn]] = bis[turn] / norm[turn, None]

    return ClosedCurve.from_samples(space, points, s, tangents, corner,
                                    total, "disc_intersection",
                                    hint_center=seed)
