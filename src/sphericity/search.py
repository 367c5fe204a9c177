"""Small derivative-free search utilities.

The golden-section routine doubles as the independent oracle for every
closed-form maximizer in the package, so it is intentionally kept free of
any other module's machinery.
"""

from __future__ import annotations

import math

import numpy as np

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_max(f, a: float, b: float, tol: float = 1e-12, maxiter: int = 400):
    """Golden-section maximization of a unimodal f on [a, b].

    Returns (x, f(x)) once the bracket width drops below tol.
    """
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(maxiter):
        if abs(b - a) <= tol:
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def golden_min(f, a: float, b: float, tol: float = 1e-12, maxiter: int = 400):
    x, fneg = golden_max(lambda u: -f(u), a, b, tol=tol, maxiter=maxiter)
    return x, -fneg


def _local_poly(s, values, index, window, period=None):
    """Fit a polynomial through `window` samples centered at index.

    The abscissae are unwrapped around the center when the sequence is
    periodic with the given period.  Returns (poly, lo, hi) where [lo, hi]
    is the bracketing interval of the two neighbors of the center sample,
    in the unwrapped coordinate.
    """
    n = len(s)
    half = window // 2
    idx = [(index + j) % n for j in range(-half, half + 1)]
    ss = np.array([s[i] for i in idx], dtype=float)
    vv = np.array([values[i] for i in idx], dtype=float)
    if period is not None:
        # unwrap so the abscissae increase through the window
        for j in range(1, len(ss)):
            while ss[j] <= ss[j - 1]:
                ss[j] += period
    center = ss[half]
    ss = ss - center
    deg = min(4, len(ss) - 1)
    coeffs = np.polynomial.polynomial.polyfit(ss, vv, deg)
    poly = np.polynomial.polynomial.Polynomial(coeffs)
    return poly, ss[half - 1], ss[half + 1], center


def refine_extremum(s, values, index, mode: str = "min", window: int = 5,
                    period: float | None = None):
    """Refine a discrete extremum of exact samples (s_i, v_i).

    Fits a local polynomial through the window around the arg-extreme
    sample and golden-searches it between the two neighbors.  The samples
    are assumed to lie exactly on the underlying smooth function, so the
    refined value approximates the true extremum to O(gap^4) instead of the
    O(gap^2) bias of the raw discrete extremum.

    Returns (s_star, v_star) in the original parameter (mod period).
    """
    poly, lo, hi, center = _local_poly(s, values, index, window, period)
    if mode == "min":
        x, v = golden_min(poly, lo, hi, tol=1e-13 * max(1.0, hi - lo))
    else:
        x, v = golden_max(poly, lo, hi, tol=1e-13 * max(1.0, hi - lo))
    # never report worse than the exact center sample
    v_center = values[index]
    if (mode == "min" and v_center < v) or (mode == "max" and v_center > v):
        x, v = 0.0, v_center
    s_star = center + x
    if period is not None:
        s_star = s_star % period
    return float(s_star), float(v)


def interpolate_local(s, values, index, s_star, window: int = 5,
                      period: float | None = None) -> float:
    """Evaluate the local polynomial through samples around index at s_star."""
    poly, lo, hi, center = _local_poly(s, values, index, window, period)
    x = s_star - center
    if period is not None:
        x = (x + 0.5 * period) % period - 0.5 * period
    return float(poly(x))
