"""Refinement of sampled extrema, and a golden-section search.

:func:`refine_windows` refines many discrete extrema of exact samples at
once, through the quartic that interpolates the five samples around each;
every measurement path uses it.  The golden-section routine is the
independent oracle: it checks the closed-form spindle maximizer, finds the
frame-ODE profile minimum and, in the tests, checks the quartic refinement.
It is intentionally kept free of any other module's machinery.
"""

from __future__ import annotations

import math

import numpy as np

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
#: samples on each side of the centre of a 5-sample window
WINDOW_HALF = 2
_GOLDEN_MAXITER = 400


def golden_max(f, a: float, b: float, tol: float = 1e-12):
    """Golden-section maximization of a unimodal f on [a, b].

    Returns (x, f(x)) once the bracket width drops below tol.
    """
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(_GOLDEN_MAXITER):
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


def golden_min(f, a: float, b: float, tol: float = 1e-12):
    x, fneg = golden_max(lambda u: -f(u), a, b, tol=tol)
    return x, -fneg


def windows(n: int, index) -> np.ndarray:
    """Sample indices (k, 5) of the cyclic windows centred at each index."""
    offsets = np.arange(-WINDOW_HALF, WINDOW_HALF + 1)
    return (np.atleast_1d(index)[:, None] + offsets) % n


def _poly(coef, z):
    """Polynomials with ascending coefficients on the last axis, at z."""
    out = coef[..., -1]
    for j in range(coef.shape[-1] - 2, -1, -1):
        out = out * z + coef[..., j]
    return out


def refine_windows(s, win, values, mode: str, period: float):
    """Refine the discrete extremum of every 5-sample window at once.

    ``values`` holds the samples at the indices ``win`` (from
    :func:`windows`): (k, 5), or (k, 5, m) with further columns to
    interpolate at the refined abscissa of column 0.  Each window's quartic
    interpolant is extremized between the centre's neighbours by Newton
    steps on its cubic derivative from its quadratic part's vertex, with
    both neighbours as candidates; a window whose quartic does not beat its
    centre sample keeps it.  For exact samples of a smooth function this
    is O(gap^4) accurate, not O(gap^2).  Returns (s_star mod ``period``,
    values at s_star), shaped (k,) and (k,) or (k, m).
    """
    cols = values if values.ndim == 3 else values[..., None]
    centre = s[win[:, WINDOW_HALF]]
    x = s[win] - centre[:, None]
    # unwrap the period seam so the abscissae increase through a window
    x[:, :WINDOW_HALF] -= period * (x[:, :WINDOW_HALF] >= 0.0)
    x[:, WINDOW_HALF + 1:] += period * (x[:, WINDOW_HALF + 1:] <= 0.0)
    h = 0.5 * (x[:, WINDOW_HALF + 1] - x[:, WINDOW_HALF - 1])
    z = x / h[:, None]
    y0 = cols[:, WINDOW_HALF]
    coef = np.linalg.solve(z[..., None] ** np.arange(5), cols - y0[:, None])
    coef = np.moveaxis(coef, 1, -1)                   # (k, m, 5)
    q = (1.0 if mode == "min" else -1.0) * coef[:, 0]
    dq = q[:, 1:] * np.arange(1, 5)
    ddq = dq[:, 1:] * np.arange(1, 4)
    lo, hi = z[:, WINDOW_HALF - 1], z[:, WINDOW_HALF + 1]
    zs = np.clip(np.divide(-q[:, 1], 2.0 * q[:, 2], out=np.zeros(len(q)),
                           where=q[:, 2] > 0.0), lo, hi)
    for _ in range(30):
        curv = _poly(ddq, zs)
        step = np.divide(_poly(dq, zs), curv, out=np.zeros(len(q)),
                         where=curv > 0.0)
        zs, before = np.clip(zs - step, lo, hi), zs
        if np.all(np.abs(zs - before) <= 1e-15):
            break
    cand = np.stack([zs, lo, hi], axis=1)
    best = np.argmin(_poly(q[:, None], cand), axis=1)
    z_star = cand[np.arange(len(q)), best]
    beats = _poly(q, z_star) < 0.0
    z_star = np.where(beats, z_star, 0.0)
    out = y0 + np.where(beats[:, None], _poly(coef, z_star[:, None]), 0.0)
    s_star = (centre + z_star * h) % period
    return s_star, (out if values.ndim == 3 else out[:, 0])


def refine_extremum(s, values, index, mode: str, period: float):
    """(s_star, v_star): the one-window case of :func:`refine_windows`."""
    win = windows(len(s), index)
    s_star, v = refine_windows(s, win, np.asarray(values, dtype=float)[win],
                               mode, period)
    return float(s_star[0]), float(v[0])
