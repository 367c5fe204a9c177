"""Independent checks of generated curves that the library itself never runs.

Each one recomputes a property from the samples or from the construction,
so the generator tests do not rest on the code paths under test.
"""

import math
from itertools import accumulate, combinations

import numpy as np

from sphericity import (CurveGenerationError, GeometryError, Kind,
                        karcher_mean, winding_number)
from sphericity.curves import _apply_isometry, _circle_arrays
from sphericity.search import WINDOW_HALF
from sphericity.spaceforms import _cross, _dot, _mdot
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


def _circumcentre(space, a, b, c):
    """The point equidistant from a, b and c, or None where there is none.

    Flat: the intersection of two perpendicular bisectors.  Sphere: the
    normalised (b - a) x (c - a) on the side of the points.  Hyperbolic:
    its Minkowski analogue diag(-1, 1, 1) (b - a) x (c - a), which exists
    when that vector is timelike.
    """
    if space.kind is Kind.FLAT:
        lhs = 2.0 * np.array([b - a, c - a])
        rhs = np.array([b @ b - a @ a, c @ c - a @ a])
        if abs(np.linalg.det(lhs)) < 1e-300:
            return None
        return np.linalg.solve(lhs, rhs)
    n = np.cross(b - a, c - a)
    if space.kind is Kind.SPHERE:
        norm = np.linalg.norm(n)
        if norm == 0.0:
            return None
        return math.copysign(1.0, n @ a) * n / (norm * space.k1)
    n = n * [-1.0, 1.0, 1.0]
    q = n[0] ** 2 - n[1] ** 2 - n[2] ** 2
    if q <= 0.0:
        return None
    return math.copysign(1.0, n[0]) * n / (math.sqrt(q) * space.k1)


def disc_intersection_inradius(space, centers, radius: float) -> float:
    """Inradius of the intersection of the radius-R discs about ``centers``.

    A disc of radius r about x lies in every disc iff each centre is within
    R - r of x, so the inradius is R minus the radius of the smallest
    geodesic circle enclosing the centres.  That circle's centre is the
    midpoint of two centres or the circumcentre of three, so the least
    farthest-centre distance over those candidates is its radius.
    """
    centers = np.asarray(centers, dtype=float)
    candidates = [centers[0]]
    for a, b in combinations(centers, 2):
        candidates.append(space.exp_map(a, 0.5 * space.log_map(a, b)))
    for a, b, c in combinations(centers, 3):
        x = _circumcentre(space, a, b, c)
        if x is not None:
            candidates.append(x)
    return radius - min(float(np.max(space.distance(x, centers)))
                        for x in candidates)


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


# The fixed point and rotation angle of an ambient isometry matrix, by an
# eigenvector and two log maps at the fixed point: the reference for the
# closed-form body-frame reading of ``curves._period_rotation``.

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


# The formulations the library replaced with closed forms or whole-array
# calls: the references for ``curves._window_fit_kappa``,
# ``winding_number``, ``curves._detect_symmetry_order`` and
# ``curves.make_disc_intersection``.

def window_fit_kappa_lapack(space, points, tangents, normals_out):
    """Window curvature by a batched 4x4 solve for the quartic's c1..c4.

    The four neighbours of each sample, in normal coordinates at it, give
    rows (x, x^2/2, x^3/6, x^4/24) . c = y; kappa = c2 / (1 + c1^2)^(3/2).
    """
    offsets = [o for o in range(-WINDOW_HALF, WINDOW_HALF + 1) if o != 0]
    xs = np.empty((len(points), len(offsets)))
    ys = np.empty_like(xs)
    for col, off in enumerate(offsets):
        v = space.log_map(points, np.roll(points, -off, axis=0))
        xs[:, col] = space.metric_dot(points, v, tangents)
        ys[:, col] = -space.metric_dot(points, v, normals_out)
    a = np.stack([xs, xs ** 2 / 2.0, xs ** 3 / 6.0, xs ** 4 / 24.0], axis=-1)
    coeffs = np.linalg.solve(a, ys[..., None])[..., 0]
    return coeffs[:, 1] / (1.0 + coeffs[:, 0] ** 2) ** 1.5


def _angle_in_frame(space, center, point):
    x, y = space.to_chart(center, point)
    return math.atan2(y, x)


def _arc(space, center, radius, ang_from, ang_to, count):
    """Sample an arc counterclockwise from ang_from to ang_to (unwrapped)."""
    sweep = (ang_to - ang_from) % (2.0 * np.pi)
    if sweep == 0.0:
        sweep = 2.0 * np.pi
    alphas = ang_from + sweep * np.arange(count) / count
    return _circle_arrays(space, center, radius, alphas)


def _equidistant_points(space, a, b, d: float, radius: float):
    """The two points at distance ``radius`` from both a and b (d = |ab|).

    They lie on the perpendicular bisector of ab, at the second leg of the
    right geodesic triangle with hypotenuse ``radius`` and leg d / 2.
    """
    mid = space.exp_map(a, 0.5 * space.log_map(a, b))
    direction = space.log_map(mid, b)
    direction = direction / space.norm(mid, direction)
    w = space.rotate90(mid, direction)
    leg = 0.5 * d
    if space.kind is Kind.FLAT:
        q = math.sqrt(max(radius * radius - leg * leg, 0.0))
    elif space.kind is Kind.SPHERE:
        ratio = math.cos(space.k1 * radius) / math.cos(space.k1 * leg)
        q = math.acos(min(1.0, max(-1.0, ratio))) / space.k1
    else:
        ratio = math.cosh(space.k1 * radius) / math.cosh(space.k1 * leg)
        q = math.acosh(max(1.0, ratio)) / space.k1
    return [space.exp_map(mid, sign * q * w) for sign in (-1.0, +1.0)]


def disc_intersection_per_corner(space, centers, k0: float, n: int):
    """The disc-intersection samples assembled corner by corner and arc by
    arc, one kernel call per point: (points, s, tangents, corner,
    total_length, hint_center) before ``ClosedCurve.from_samples``.  The
    centres must be distinct (no dedupe, no single-disc circle)."""
    radius = space.circle_radius_of_curvature(k0)
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    dists = space.distance(centers[:, None, :], centers[None, :, :])

    # candidate corners: pairwise circle intersections inside all discs
    corners = []
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            for x in _equidistant_points(space, centers[i], centers[j],
                                         float(dists[i, j]), radius):
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
    ang = np.arctan2(xy[:, 1], xy[:, 0])
    corners = corners[np.argsort((ang - ang[0]) % (2.0 * np.pi))]

    # assemble arcs between consecutive corners
    arcs = []
    total = 0.0
    for a in range(len(corners)):
        xa = corners[a]
        xb = corners[(a + 1) % len(corners)]
        on_a, on_b = (np.abs(space.distance(x, centers) - radius)
                      <= 1e-9 * max(radius, 1.0) for x in (xa, xb))
        arc_choice = None
        for i in np.flatnonzero(on_a & on_b):
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

    counts = [max(4, int(round(n * arc[3] / total))) for arc in arcs]
    pieces = [_arc(space, centers[i], radius, ang_a, ang_a + sweep, count)
              for (i, ang_a, sweep, _), count in zip(arcs, counts)]
    points = np.concatenate([pts for pts, _ in pieces], axis=0)
    tangents = np.concatenate([tans for _, tans in pieces], axis=0)
    corner = np.concatenate([np.arange(count) == 0 for count in counts])
    starts = accumulate([arc[3] for arc in arcs[:-1]], initial=0.0)
    s = np.concatenate([start + arc[3] * np.arange(count) / count
                        for start, arc, count in zip(starts, arcs, counts)])

    # corner tangents: bisector of adjacent arc directions
    for idx in np.flatnonzero(corner):
        bis = space.project_tangent(
            points[idx], tangents[idx - 1] + tangents[(idx + 1) % len(points)])
        norm = space.norm(points[idx], bis)
        if norm > 1e-12:
            tangents[idx] = bis / norm
    return points, s, tangents, corner, total, seed


def winding_number_chart(space, points, origin) -> int:
    """Winding number from the angles of the geodesic normal coordinates."""
    xy = space.to_chart(origin, points)
    ang = np.arctan2(xy[:, 1], xy[:, 0])
    d = np.roll(ang, -1) - ang
    d = (d + np.pi) % (2.0 * np.pi) - np.pi
    return int(round(float(np.sum(d)) / (2.0 * np.pi)))


def detect_symmetry_order_loop(profile):
    """(m, mismatch) with one profile call per candidate order m."""
    u = np.linspace(0.0, 1.0, 257, endpoint=False)
    base = np.asarray(profile(u), dtype=float)
    scale = max(1.0, float(np.max(np.abs(base))))
    best = math.inf
    for m in range(64, 1, -1):
        shifted = np.asarray(profile((u + 1.0 / m) % 1.0), dtype=float)
        mismatch = float(np.max(np.abs(shifted - base))) / scale
        if mismatch <= 1e-10:
            return m, mismatch
        best = min(best, mismatch)
    return 0, best


# The kernel methods as written with numpy reductions over the coordinate
# axis (``np.sum``, ``np.linalg.norm``) and with the hyperbolic log map
# through ``distance``: the references for the component-wise sums of
# ``spaceforms._dot``.

def _minkowski(u, v):
    return -u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1] + u[..., 2] * v[..., 2]


class ReductionKernel:
    """The SpaceForm methods that sum over the coordinate axis, by reduction.

    The sphere's log map omits the antipodal refusal: it is a reference for
    values, and callers pass points less than pi/k1 apart.
    """

    def __init__(self, space):
        self.kind, self.k1 = space.kind, space.k1

    def metric_dot(self, base, u, v):
        if self.kind is Kind.HYPERBOLIC:
            return _minkowski(u, v)
        return np.sum(u * v, axis=-1)

    def norm(self, base, v):
        return np.sqrt(np.maximum(self.metric_dot(base, v, v), 0.0))

    def constraint_defect(self, p):
        if self.kind is Kind.FLAT:
            return np.zeros(p.shape[:-1])
        r2 = 1.0 / self.k1 ** 2
        if self.kind is Kind.SPHERE:
            return np.abs(np.sum(p * p, axis=-1) - r2) / r2
        return np.abs(_minkowski(p, p) + r2) / r2

    def project(self, p):
        if self.kind is Kind.FLAT:
            return p
        if self.kind is Kind.SPHERE:
            return p * (1.0 / (self.k1 * np.linalg.norm(p, axis=-1,
                                                         keepdims=True)))
        return p * (1.0 / (self.k1 * np.sqrt(-_minkowski(p, p))))[..., None]

    def project_tangent(self, base, v):
        if self.kind is Kind.FLAT:
            return v
        if self.kind is Kind.SPHERE:
            coeff = np.sum(v * base, axis=-1) * self.k1 ** 2
        else:
            coeff = -_minkowski(v, base) * self.k1 ** 2
        return v - coeff[..., None] * base

    def distance(self, a, b):
        if self.kind is Kind.FLAT:
            return np.linalg.norm(b - a, axis=-1)
        k = self.k1
        if self.kind is Kind.SPHERE:
            dot = np.sum(a * b, axis=-1) * k * k
            cross = np.linalg.norm(np.cross(a, b), axis=-1) * k * k
            return np.arctan2(cross, dot) / k
        w = b + (k ** 2 * _minkowski(b, a))[..., None] * a
        return np.arcsinh(k * np.sqrt(np.maximum(_minkowski(w, w), 0.0))) / k

    def log_map(self, base, target):
        if self.kind is Kind.FLAT:
            return target - base
        d = self.distance(base, target)
        if self.kind is Kind.SPHERE:
            coeff = np.sum(target * base, axis=-1) * self.k1 ** 2
            w = target - coeff[..., None] * base
            wn = np.linalg.norm(w, axis=-1)
        else:
            coeff = -_minkowski(target, base) * self.k1 ** 2
            w = target - coeff[..., None] * base
            wn = np.sqrt(np.maximum(_minkowski(w, w), 0.0))
        w *= (d / np.where(wn == 0.0, 1.0, wn))[..., None]
        w[wn == 0.0] = 0.0
        return w


# The kernel methods as written with one branch per curved plane, before
# ``SpaceForm.sign`` merged the sphere's and the hyperboloid's: the
# references for the merged forms.

class PerPlaneKernel:
    """The SpaceForm methods whose sphere and hyperboloid branches differ
    only by the curvature sign, one branch per plane (curved planes only).

    ``norm`` and ``distance``, which kept their forms, come from the space.
    """

    def __init__(self, space):
        self.space, self.kind, self.k1 = space, space.kind, space.k1

    def constraint_defect(self, p):
        r2 = 1.0 / self.k1 ** 2
        if self.kind is Kind.SPHERE:
            return np.abs(_dot(p, p) - r2) / r2
        return np.abs(_mdot(p, p) + r2) / r2

    def project(self, p):
        if self.kind is Kind.SPHERE:
            scale = 1.0 / (self.k1 * np.sqrt(_dot(p, p)))
        else:
            scale = 1.0 / (self.k1 * np.sqrt(-_mdot(p, p)))
        return p * scale[..., None]

    def project_tangent(self, base, v):
        if self.kind is Kind.SPHERE:
            coeff = _dot(v, base) * self.k1 ** 2
        else:
            coeff = -_mdot(v, base) * self.k1 ** 2
        return v - coeff[..., None] * base

    def exp_map(self, base, vec):
        L = self.space.norm(base, vec)
        d = vec / np.where(L == 0.0, 1.0, L)[..., None]
        k = self.k1
        if self.kind is Kind.SPHERE:
            out = np.cos(k * L)[..., None] * base \
                + (np.sin(k * L) / k)[..., None] * d
        else:
            out = np.cosh(k * L)[..., None] * base \
                + (np.sinh(k * L) / k)[..., None] * d
        return self.project(np.where(L[..., None] == 0.0, base, out))

    def log_map(self, base, target):
        if self.kind is Kind.SPHERE:
            d = self.space.distance(base, target)
            w = target - (_dot(target, base) * self.k1 ** 2)[..., None] * base
            wn = np.sqrt(_dot(w, w))
        else:
            w = target + (self.k1 ** 2 * _mdot(target, base))[..., None] * base
            wn = np.sqrt(np.maximum(_mdot(w, w), 0.0))
            d = np.arcsinh(self.k1 * wn) / self.k1
        w *= (d / np.where(wn == 0.0, 1.0, wn))[..., None]
        w[wn == 0.0] = 0.0
        return w

    def rotate90(self, p, v):
        c = _cross(self.k1 * p, v)
        if self.kind is Kind.HYPERBOLIC:
            c[..., 0] = -c[..., 0]
        return c
