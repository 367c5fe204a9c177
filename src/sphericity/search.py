"""Refinement of sampled extrema, a batched bracket search, a golden-section
search and Brent's root finder.

:func:`refine_windows` refines many discrete extrema of exact samples at
once, through the quartic that interpolates the five samples around each;
every measurement path uses it.  :func:`bracket_min` brackets the
frame-ODE profile minimum with a few vectorized calls, and the golden-section
routine finishes that search inside its bracket.  The golden-section routine
is also the independent oracle: it checks the closed-form spindle maximizer
and, in the tests, the quartic refinement and the frame-ODE minimum search
from the whole start bracket.  It is intentionally kept free of any other
module's machinery.
:func:`brentq` solves the frame-ODE closure length.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import NonClosureError

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
#: samples on each side of the centre of a 5-sample window
WINDOW_HALF = 2
_GOLDEN_MAXITER = 400
#: abscissae per call of :func:`bracket_min`; each call narrows its bracket
#: to two of their spacings, 1/128 of its width
_BRACKET_POINTS = 257
_BRENT_MIN_RTOL = 4.0 * sys.float_info.epsilon


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


def bracket_min(f, a: float, b: float, tol: float):
    """Bracket of the minimum of a unimodal f on [a, b], f taking an array
    of abscissae.

    Each call evaluates f on ``_BRACKET_POINTS`` equally spaced abscissae of
    the bracket and keeps the two spacings around the smallest value, until
    the bracket is narrower than tol (or stops narrowing in floating
    point).  Returns (a, b, f_min): the last bracket and the smallest value
    seen.
    """
    best = math.inf
    while True:
        x = np.linspace(a, b, _BRACKET_POINTS)
        fx = np.asarray(f(x), dtype=float)
        i = int(np.argmin(fx))
        best = min(best, float(fx[i]))
        width = b - a
        a, b = x[max(i - 1, 0)], x[min(i + 1, _BRACKET_POINTS - 1)]
        if not tol < b - a < width:
            return float(a), float(b), best


def brentq(f, a: float, b: float, xtol: float = 2e-12,
           rtol: float = _BRENT_MIN_RTOL, maxiter: int = 100) -> float:
    """A root of f between a and b, where f(a) and f(b) differ in sign.

    Brent's method (Brent 1973, ch. 4): inverse quadratic or secant steps,
    bisection wherever they would not shrink the bracket fast enough, until
    the bracket's half width is below (xtol + rtol |x|) / 2.  It follows
    scipy's C ``brentq`` step for step, so it evaluates f at the same
    arguments and returns the same float.  Raises ValueError for a bad
    tolerance or iteration count, or when f(a) and f(b) share a sign; raises
    NonClosureError when f is NaN, or after ``maxiter`` steps without
    convergence, carrying the last |f| as its residual.
    """
    xtol, rtol = float(xtol), float(rtol)
    if xtol <= 0.0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _BRENT_MIN_RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_BRENT_MIN_RTOL:g})")
    if maxiter < 0:
        raise ValueError("maxiter must be >= 0")

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise NonClosureError(f"root search objective is NaN at x={x!r}")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    xblk = fblk = spre = scur = 0.0
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:        # secant step
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:                   # inverse quadratic step
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:   # C's step is then inf or NaN,
                stry = math.inf         # which the test below refuses
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise NonClosureError(
        f"root search did not converge in {maxiter} iterations "
        f"(|f| = {abs(fcur):.3e} at x = {xcur!r})", residual=abs(fcur))


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
