"""The extremal spindle/lune family and its width maximum.

A spindle of inradius r (for a fixed boundary curvature k0) is the convex
body whose 2D section is the lune of :func:`sphericity.curves.make_lune`:
two smaller circular arcs of radius R = circle_radius_of_curvature(k0)
meeting at two corners.  Its inscribed and circumscribed circles about the
section midpoint have radii r and rho(r); the enclosing annulus has width
d(r) = rho(r) - r, which vanishes at both endpoints r = 0 and r = R and is
maximized at a closed-form r0.

The closed forms come from the right geodesic triangle with legs (R - r,
rho) and hypotenuse R:

* flat:        rho = sqrt(2 r / k0 - r^2)
* sphere:      cos(k1 rho)  = cos(k1 R) / cos(k1 (R - r))
* hyperbolic:  cosh(k1 rho) = cosh(k1 R) / cosh(k1 (R - r))

The curved forms are evaluated through half-angle identities
(tan^2(k1 rho / 2) = tan(k1 (2R - r)/2) tan(k1 r / 2) and the tanh analog),
which are algebraically identical but remain accurate as k1 -> 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError
from .search import golden_max
from .spaceforms import Kind, SpaceForm


@dataclass(frozen=True)
class SpindleOptimum:
    """Closed-form maximizer of the spindle width."""

    R: float
    r0: float
    d0: float


def _within_radius(x, radius: float, name: str) -> np.ndarray:
    """x clipped to [0, radius]; refused when over 1e-12 radius outside."""
    x = np.asarray(x, dtype=float)
    if np.any(x < -1e-12 * radius) or np.any(x > radius * (1 + 1e-12)):
        raise GeometryError(f"{name} must lie in [0, R={radius}]")
    return np.clip(x, 0.0, radius)


def spindle_rho(space: SpaceForm, k0: float, r):
    """Circumradius (about the section midpoint) of the spindle of inradius r.

    rho(0) = 0 and rho(R) = R; vectorized over r.
    """
    radius = space.circle_radius_of_curvature(k0)
    r = _within_radius(r, radius, "spindle inradius")
    # square roots of the two factors, not of their product, which under-
    # or overflows for R beyond about 1e±154
    if space.kind is Kind.FLAT:
        return np.sqrt(r) * np.sqrt(2.0 * radius - r)
    k = space.k1
    if space.kind is Kind.SPHERE:
        a, b = np.tan(0.5 * k * (2.0 * radius - r)), np.tan(0.5 * k * r)
        return 2.0 / k * np.arctan(
            np.sqrt(np.maximum(a, 0.0)) * np.sqrt(np.maximum(b, 0.0)))
    a, b = np.tanh(0.5 * k * (2.0 * radius - r)), np.tanh(0.5 * k * r)
    return 2.0 / k * np.arctanh(
        np.sqrt(np.maximum(a, 0.0)) * np.sqrt(np.maximum(b, 0.0)))


def spindle_width(space: SpaceForm, k0: float, r):
    """Width d(r) = rho(r) - r of the annulus enclosing the spindle."""
    r = _within_radius(r, space.circle_radius_of_curvature(k0),
                       "spindle inradius")
    return spindle_rho(space, k0, r) - r


def _half_width_angle(space, radius: float) -> float:
    """arccos(sqrt(cos k1 R)) resp. arccosh(sqrt(cosh k1 R)), stably.

    Uses tan(theta/2) = sqrt(1 - cos) / (1 + sqrt(cos)) and the hyperbolic
    analog so the value degrades gracefully as k1 -> 0.
    """
    k = space.k1
    u = k * radius
    if space.kind is Kind.SPHERE:
        c = math.cos(u)
        half = math.sqrt(2.0) * abs(math.sin(0.5 * u)) / (1.0 + math.sqrt(c))
        return 2.0 * math.atan(half)
    c = math.cosh(u)
    half = math.sqrt(2.0) * math.sinh(0.5 * u) / (1.0 + math.sqrt(c))
    return 2.0 * math.atanh(half)


def spindle_optimum(space: SpaceForm, k0: float) -> SpindleOptimum:
    """Closed-form maximizer (r0, d0) of the spindle width.

    * flat:        r0 = 1/(k0 (2 + sqrt 2)),       d0 = (sqrt 2 - 1)/k0
    * sphere:      r0 = R - arccos(sqrt(cos k1 R))/k1,
                   d0 = 2 arccos(sqrt(cos k1 R))/k1 - R
    * hyperbolic:  the arccosh/cosh analogs

    The curved maximizers satisfy the stationarity relation
    cos(k1 R) = cos^2(k1 (R - r0)) (cosh analog in the hyperbolic plane).
    """
    radius = space.circle_radius_of_curvature(k0)
    if space.kind is Kind.FLAT:
        r0 = 1.0 / (k0 * (2.0 + math.sqrt(2.0)))
        d0 = (math.sqrt(2.0) - 1.0) / k0
        return SpindleOptimum(R=radius, r0=r0, d0=d0)
    theta = _half_width_angle(space, radius)
    r0 = radius - theta / space.k1
    d0 = 2.0 * theta / space.k1 - radius
    return SpindleOptimum(R=radius, r0=r0, d0=d0)


def spindle_max_width_alt(space: SpaceForm, k0: float) -> float:
    """Maximal spindle width written directly in terms of (k0, k1).

    Algebraically identical to ``spindle_optimum(space, k0).d0``:

    * sphere:      (2 arccos(sqrt(k0) / (k0^2 + k1^2)^(1/4))
                     - arccot(k0 / k1)) / k1
    * hyperbolic:  (2 arccosh(sqrt(k0) / (k0^2 - k1^2)^(1/4))
                     - arccoth(k0 / k1)) / k1

    since cos(arccot x) = x / sqrt(x^2 + 1) and cosh(arccoth x) =
    x / sqrt(x^2 - 1); with psi the arccot (arccoth) term, the arccos
    (arccosh) is arcsin(sqrt 2 sin(psi/2)) (arcsinh(sqrt 2 sinh(psi/2))).
    Defined for the curved planes only.
    """
    k1 = space.k1
    if space.kind is Kind.SPHERE:
        if k0 <= 0.0:
            raise GeometryError("sphere form requires k0 > 0")
        psi = math.atan2(k1, k0)
        return (2.0 * math.asin(min(1.0, math.sqrt(2.0)
                                    * math.sin(0.5 * psi))) - psi) / k1
    if space.kind is Kind.HYPERBOLIC:
        if k0 <= k1:
            raise GeometryError("hyperbolic form requires k0 > k1")
        chi = math.atanh(k1 / k0)
        return (2.0 * math.asinh(math.sqrt(2.0) * math.sinh(0.5 * chi))
                - chi) / k1
    raise GeometryError("the rewritten width form exists for curved planes only")


def numeric_spindle_optimum(space: SpaceForm,
                            k0: float) -> tuple[float, float]:
    """Independent golden-section oracle for the width maximum.

    Maximizes r -> spindle_width(space, k0, r) on [0, R] directly, to a
    bracket of 1e-12 R; used against the closed forms, never as the
    primary answer.
    """
    radius = space.circle_radius_of_curvature(k0)
    return golden_max(lambda r: float(spindle_width(space, k0, r)), 0.0,
                      radius, tol=1e-12 * radius)


#: the cells of a :func:`spindle_table_rows` row, in order
SPINDLE_COLUMNS = ("space", "k1", "k0", "r", "rho", "d", "r0", "d0")


def spindle_table_rows(space: SpaceForm, k0_values, r_count: int = 33):
    """Rows of ``SPINDLE_COLUMNS`` over an r grid per k0."""
    rows = []
    for k0 in k0_values:
        opt = spindle_optimum(space, k0)
        r_grid = np.linspace(0.0, opt.R, r_count)
        rho = spindle_rho(space, k0, r_grid)
        rows += [[space.kind.value, space.k1, float(k0), float(r), float(rh),
                  float(rh - r), opt.r0, opt.d0]
                 for r, rh in zip(r_grid, rho)]
    return rows
