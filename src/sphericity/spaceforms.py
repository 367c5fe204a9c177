"""Geometry kernel for the three two-dimensional constant-curvature planes.

Coordinate models:

* flat        -- the Euclidean plane R^2.
* sphere      -- the round sphere of radius 1/k1 embedded in R^3,
                 constraint |x|^2 = 1/k1^2 (Gaussian curvature +k1^2).
* hyperbolic  -- the upper sheet of the hyperboloid <x,x> = -1/k1^2 in
                 Minkowski 3-space with signature (-,+,+), x0 > 0
                 (Gaussian curvature -k1^2).

The curvature sign is decided here once: ``SpaceForm.sign`` is +1 on the
sphere, -1 on the hyperboloid and 0 on the flat plane.  A curved model is
<p,p> = sign/k1^2 in its ambient form, with Gaussian curvature sign*k1^2,
and a method whose two curved forms differ only by that sign uses it.

All operations are pure functions of immutable value types; every method
broadcasts over leading axes, so a single call handles whole sample arrays.
Points and tangents are plain float arrays whose last axis holds the ambient
coordinates (2 for flat, 3 otherwise).

Inner products and lengths are summed component by component over that
axis, left to right, which is the order ``np.sum`` and ``np.linalg.norm`` use
on it, so the results keep their bits at a fraction of the cost.  A product
of two different vectors starts its sum from +0.0, because ``np.sum`` never
returns -0.0; a sum of squares cannot be -0.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import AntipodalPointsError, ConstraintViolation, GeometryError

# Relative tolerance for the model constraints |x|^2 = 1/k1^2 etc.
MODEL_TOL = 1e-12


class Kind(Enum):
    FLAT = "flat"
    SPHERE = "sphere"
    HYPERBOLIC = "hyperbolic"


_SIGN = {Kind.FLAT: 0.0, Kind.SPHERE: 1.0, Kind.HYPERBOLIC: -1.0}


def _dot(u, v):
    """Euclidean inner product over the last axis, bit for bit
    ``np.sum(u * v, axis=-1)``: left to right, from +0.0."""
    out = 0.0 + u[..., 0] * v[..., 0]
    for i in range(1, u.shape[-1]):
        out = out + u[..., i] * v[..., i]
    return out


def _mdot(u, v):
    """Minkowski inner product with signature (-,+,+)."""
    return -u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1] + u[..., 2] * v[..., 2]


def _cross(u, v):
    """Component-wise cross product (np.cross is slow on small arrays)."""
    out = np.empty(np.broadcast(u, v).shape)
    out[..., 0] = u[..., 1] * v[..., 2] - u[..., 2] * v[..., 1]
    out[..., 1] = u[..., 2] * v[..., 0] - u[..., 0] * v[..., 2]
    out[..., 2] = u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]
    return out


@dataclass(frozen=True)
class SpaceForm:
    """One of the three model geometries together with its scale k1.

    ``k1`` has units 1/length; it is 0 for the flat plane and > 0 otherwise.
    The Gaussian curvature is +k1^2 (sphere), -k1^2 (hyperbolic) or 0
    (flat).
    """

    kind: Kind
    k1: float = 0.0

    def __post_init__(self):
        if self.kind is Kind.FLAT:
            if self.k1 != 0.0:
                raise GeometryError("flat plane requires k1 == 0")
        elif not (self.k1 > 0.0 and 0.0 < self.k1 * self.k1 < math.inf):
            # k1^2 must neither overflow nor underflow
            raise GeometryError(
                f"{self.kind.value} geometry requires k1 > 0 with a finite, "
                f"nonzero k1^2 (got k1={self.k1})")

    # -- constructors ------------------------------------------------------

    @classmethod
    def flat(cls) -> "SpaceForm":
        return cls(Kind.FLAT, 0.0)

    @classmethod
    def sphere(cls, k1: float) -> "SpaceForm":
        return cls(Kind.SPHERE, float(k1))

    @classmethod
    def hyperbolic(cls, k1: float) -> "SpaceForm":
        return cls(Kind.HYPERBOLIC, float(k1))

    # -- basic properties --------------------------------------------------

    @property
    def sign(self) -> float:
        """Sign of the Gaussian curvature K = sign * k1^2: +1.0 on the
        sphere, -1.0 on the hyperbolic plane, 0.0 on the flat plane."""
        return _SIGN[self.kind]

    @property
    def dim(self) -> int:
        """Ambient coordinate dimension (2 flat, 3 curved)."""
        return 2 if self.kind is Kind.FLAT else 3

    def origin(self) -> np.ndarray:
        """A canonical base point (pole) of the model."""
        if self.kind is Kind.FLAT:
            return np.zeros(2)
        if self.kind is Kind.SPHERE:
            return np.array([0.0, 0.0, 1.0 / self.k1])
        return np.array([1.0 / self.k1, 0.0, 0.0])

    # -- model constraints -------------------------------------------------

    def constraint_defect(self, p) -> np.ndarray:
        """Relative deviation of p from the model constraint surface."""
        p = np.asarray(p, dtype=float)
        if self.kind is Kind.FLAT:
            return np.zeros(p.shape[:-1])
        r2 = 1.0 / self.k1 ** 2
        return np.abs(self._form(p, p) - self.sign * r2) / r2

    def check_point(self, p) -> np.ndarray:
        """Validate the model constraint; returns p as a float array."""
        p = np.asarray(p, dtype=float)
        if p.shape[-1] != self.dim:
            raise ConstraintViolation(
                f"expected {self.dim}-vector point, got shape {p.shape}")
        if not np.all(np.isfinite(p)):
            raise ConstraintViolation("point has non-finite coordinates")
        defect = self.constraint_defect(p)
        if np.any(defect > 1e4 * MODEL_TOL):
            raise ConstraintViolation(
                f"point violates {self.kind.value} model constraint "
                f"(relative defect {float(np.max(defect)):.3e})")
        if self.kind is Kind.HYPERBOLIC and np.any(p[..., 0] <= 0):
            raise ConstraintViolation("hyperboloid point must have x0 > 0")
        return p

    def project(self, p) -> np.ndarray:
        """Rescale p back onto the constraint surface (drift control)."""
        p = np.asarray(p, dtype=float)
        if self.kind is Kind.FLAT:
            return p
        scale = 1.0 / (self.k1 * np.sqrt(self.sign * self._form(p, p)))
        return p * scale[..., None]

    def project_tangent(self, base, v) -> np.ndarray:
        """Remove the component of v normal to the model at base."""
        if self.kind is Kind.FLAT:
            return np.asarray(v, dtype=float)
        coeff = self.sign * self._form(v, base) * self.k1 ** 2
        return v - coeff[..., None] * base

    # -- metric ------------------------------------------------------------

    def metric_dot(self, base, u, v) -> np.ndarray:
        """Riemannian inner product of tangent vectors u, v at base.

        On the hyperboloid the restriction of the Minkowski form to tangent
        planes is positive definite; base is accepted for API symmetry.
        """
        return self._form(np.asarray(u, dtype=float),
                          np.asarray(v, dtype=float))

    def _form(self, u, v):
        """The ambient form <u,v>: Minkowski on the hyperboloid, Euclidean
        otherwise."""
        if self.kind is Kind.HYPERBOLIC:
            return _mdot(u, v)
        return _dot(u, v)

    def norm(self, base, v) -> np.ndarray:
        g = self.metric_dot(base, v, v)
        return np.sqrt(np.maximum(g, 0.0))

    def angle_between(self, base, u, v) -> np.ndarray:
        """Angle in [0, pi] between tangent vectors u and v at base."""
        nu = self.norm(base, u)
        nv = self.norm(base, v)
        if np.any(nu == 0.0) or np.any(nv == 0.0):
            raise GeometryError("angle_between requires nonzero tangent vectors")
        c = self.metric_dot(base, u, v) / (nu * nv)
        return np.arccos(np.clip(c, -1.0, 1.0))

    # -- geodesics ---------------------------------------------------------

    def distance(self, a, b) -> np.ndarray:
        """Geodesic distance; broadcasts over leading axes."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if self.kind is Kind.FLAT:
            ab = b - a
            return np.sqrt(_dot(ab, ab))
        if self.kind is Kind.SPHERE:
            k = self.k1
            c = _cross(a, b)
            return np.arctan2(np.sqrt(_dot(c, c)) * k * k,
                              _dot(a, b) * k * k) / k
        # tangential part of b at a has Minkowski norm sinh(k d)/k, which is
        # far better conditioned near zero than the arccosh form
        k2 = self.k1 ** 2
        w = b + (k2 * _mdot(b, a))[..., None] * a
        s = np.sqrt(np.maximum(_mdot(w, w), 0.0))
        return np.arcsinh(self.k1 * s) / self.k1

    def exp_map(self, base, vec) -> np.ndarray:
        """Geodesic endpoint: follow vec from base for arc length |vec|.

        The result is re-projected onto the model surface, so drift stays
        bounded over long chains of steps.
        """
        base = np.asarray(base, dtype=float)
        vec = np.asarray(vec, dtype=float)
        if self.kind is Kind.FLAT:
            return base + vec
        L = self.norm(base, vec)
        L_safe = np.where(L == 0.0, 1.0, L)
        d = vec / L_safe[..., None]
        out = self.cs(L)[..., None] * base + self.sn(L)[..., None] * d
        out = np.where(L[..., None] == 0.0, base, out)
        return self.project(out)

    def log_map(self, base, target) -> np.ndarray:
        """Initial velocity of the unit-speed geodesic from base to target,
        scaled by the distance; inverse of exp_map inside the injectivity
        radius.  Raises AntipodalPointsError on the sphere when target is
        (numerically) antipodal to base.
        """
        base = np.asarray(base, dtype=float)
        target = np.asarray(target, dtype=float)
        if self.kind is Kind.FLAT:
            return target - base
        w = self.project_tangent(base, target)
        wn = self.norm(base, w)
        if self.kind is Kind.SPHERE:
            d = self.distance(base, target)
            antipodal = (d > (np.pi / self.k1) * (1.0 - 1e-9)) | (
                (wn == 0.0) & (d > 0.0))
            if np.any(antipodal):
                raise AntipodalPointsError(
                    "log map is undefined for antipodal points on the sphere")
        else:
            # d from the length of w: the operations distance runs, so d has
            # its bits
            d = np.arcsinh(self.k1 * wn) / self.k1
        w *= (d / np.where(wn == 0.0, 1.0, wn))[..., None]
        w[wn == 0.0] = 0.0
        return w

    # -- oriented tangent structure -----------------------------------------

    def rotate90(self, p, v) -> np.ndarray:
        """Rotate tangent vector v at p by +90 degrees.

        The rotation is the one for which the interior of a positively
        oriented (counterclockwise) curve lies on the +90 side of its
        tangent; the outward normal of such a curve is -rotate90(tangent).
        """
        v = np.asarray(v, dtype=float)
        if self.kind is Kind.FLAT:
            return np.stack([-v[..., 1], v[..., 0]], axis=-1)
        p = np.asarray(p, dtype=float)
        c = _cross(self.k1 * p, v)
        c[..., 0] *= self.sign      # the Minkowski cross product negates x0
        return c

    def frame(self, p) -> tuple[np.ndarray, np.ndarray]:
        """An orthonormal oriented tangent basis (e1, e2) at p, e2 = J e1."""
        p = np.asarray(p, dtype=float)
        if self.kind is Kind.FLAT:
            return np.array([1.0, 0.0]), np.array([0.0, 1.0])
        # the trial's tangent part has norm >= 0.43 (sphere) or >= 1 (H^2)
        y_axis = self.kind is not Kind.SPHERE or abs(p[0]) * self.k1 > 0.9
        trial = np.array([0.0, 1.0, 0.0] if y_axis else [1.0, 0.0, 0.0])
        e1 = self.project_tangent(p, trial)
        e1 = e1 / self.norm(p, e1)
        e2 = self.rotate90(p, e1)
        e2 = e2 / self.norm(p, e2)
        return e1, e2

    # -- circles -------------------------------------------------------------

    def sn(self, x):
        """Generalized sine: x, sin(k1 x)/k1 or sinh(k1 x)/k1.

        The circumference of a geodesic circle of radius x is 2*pi*sn(x).
        """
        x = np.asarray(x, dtype=float)
        if self.kind is Kind.FLAT:
            return x
        if self.kind is Kind.SPHERE:
            return np.sin(self.k1 * x) / self.k1
        return np.sinh(self.k1 * x) / self.k1

    def cs(self, x):
        """Generalized cosine: 1, cos(k1 x) or cosh(k1 x)."""
        x = np.asarray(x, dtype=float)
        if self.kind is Kind.FLAT:
            return np.ones_like(x)
        if self.kind is Kind.SPHERE:
            return np.cos(self.k1 * x)
        return np.cosh(self.k1 * x)

    def circumference(self, radius) -> np.ndarray:
        return 2.0 * np.pi * self.sn(radius)

    def mu0(self, t):
        """Geodesic curvature of the radius-t circle.

        1/t (flat), k1*cot(k1 t) (sphere, exactly 0 at t = pi/(2 k1),
        negative beyond), k1*coth(k1 t) (hyperbolic, which is k1 itself
        once cosh(k1 t) or k1 cosh(k1 t) overflows, and 1/t once k1 t is
        below the smallest normal float).
        """
        t = np.asarray(t, dtype=float)
        if np.any(t <= 0.0):
            raise GeometryError("circle radius must be positive")
        if self.kind is Kind.FLAT:
            return 1.0 / t
        if self.kind is Kind.SPHERE:
            if np.any(t >= np.pi / self.k1):
                raise GeometryError("sphere circle radius must be < pi/k1")
            x = self.k1 * t
            out = self.k1 * np.cos(x) / np.sin(x)
            # the equatorial circle is a geodesic; pin the crossing exactly
            return np.where(np.abs(x - np.pi / 2) <= 4 * np.finfo(float).eps,
                            0.0, out)
        with np.errstate(all="ignore"):     # each case is mended below
            x = self.k1 * t
            out = self.k1 * np.cosh(x) / np.sinh(x)
            inv_t = 1.0 / t
        # where cosh x or k1 cosh x overflows (x > 355), coth x is 1 to the
        # last bit; where x is below the smallest normal float (sinh x may
        # be 0 there), k1 coth x = (1/t)(1 + x^2/3 - ...) is 1/t to the last
        # bit
        out = np.where(np.isfinite(out) | (x < 1.0), out, self.k1)
        return np.where(x < np.finfo(float).tiny, inv_t, out)

    def circle_radius_of_curvature(self, k0: float) -> float:
        """Radius R of the circle whose geodesic curvature is k0.

        Inverse of mu0: 1/k0 (flat, k0 > 0), arccot(k0/k1)/k1 (sphere,
        k0 >= 0), arccoth(k0/k1)/k1 (hyperbolic, k0 > k1; smaller k0 admits
        no closed circle).
        """
        k0 = float(k0)
        if self.kind is Kind.FLAT:
            if k0 <= 0.0:
                raise GeometryError("flat circle curvature must be positive")
            return 1.0 / k0
        if self.kind is Kind.SPHERE:
            if k0 < 0.0:
                raise GeometryError("sphere circle curvature must be >= 0 here")
            return math.atan2(self.k1, k0) / self.k1
        if k0 <= self.k1:
            raise GeometryError(
                "hyperbolic circles require curvature k0 > k1 "
                f"(got k0={k0}, k1={self.k1})")
        return math.atanh(self.k1 / k0) / self.k1

    # -- charts ----------------------------------------------------------------

    def to_chart(self, origin, points) -> np.ndarray:
        """Geodesic normal coordinates of points in the frame at origin."""
        e1, e2 = self.frame(origin)
        v = self.log_map(origin, points)
        return np.stack([self.metric_dot(origin, v, e1),
                         self.metric_dot(origin, v, e2)], axis=-1)


_KARCHER_ITERATIONS = 8


def karcher_mean(space: SpaceForm, points) -> np.ndarray:
    """Riemannian center of mass of a point cloud (fixed-point iteration).

    Converges quickly for clouds inside a convexity ball; used only as a
    seed for interior searches, never as a certified quantity.
    """
    points = np.asarray(points, dtype=float)
    c = space.project(np.mean(points, axis=0))
    for _ in range(_KARCHER_ITERATIONS):
        v = space.log_map(c, points)
        step = np.mean(v, axis=0)
        c = space.exp_map(c, step)
        if space.norm(c, step) < 1e-14:
            break
    return c
