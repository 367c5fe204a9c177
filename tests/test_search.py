"""The batched quartic refinement against the golden-section oracle."""

import numpy as np
import pytest

from sphericity import SpaceForm, make_disc_intersection
from sphericity.search import (golden_max, golden_min, refine_extremum,
                               refine_windows, windows)

P = np.polynomial.polynomial


def _oracle(s, values, index, mode, period):
    """Golden search on the same quartic window, fitted by numpy.

    v* is the golden extremum of the quartic.  Its abscissa is flat to
    sqrt(eps) there, so s* is the golden minimum of |p'| instead, which
    pins the stationary point to roundoff.
    """
    idx = np.arange(index - 2, index + 3) % len(s)
    x = s[idx] - s[index]
    x[:2] -= period * (x[:2] >= 0.0)
    x[3:] += period * (x[3:] <= 0.0)
    coef = P.polyfit(x, values[idx], 4)
    search = golden_min if mode == "min" else golden_max
    _, v = search(lambda z: P.polyval(z, coef), x[1], x[3], tol=1e-15)
    z, _ = golden_min(lambda z: abs(P.polyval(z, P.polyder(coef))), x[1],
                      x[3], tol=1e-15)
    return (s[index] + z) % period, v, coef, x


def _check(s, values, mode, period, carry=None):
    inner = values if mode == "min" else -values
    idx = np.flatnonzero((inner < np.roll(inner, 1))
                         & (inner < np.roll(inner, -1)))
    assert len(idx) > 0
    win = windows(len(s), idx)
    cols = values[win] if carry is None else np.stack(
        [values[win], carry[win]], axis=-1)
    s_star, v_star = refine_windows(s, win, cols, mode, period)
    for j, i in enumerate(idx):
        s_ref, v_ref, coef, x = _oracle(s, values, i, mode, period)
        v = v_star[j] if carry is None else v_star[j, 0]
        assert v == pytest.approx(v_ref, rel=1e-12, abs=0.0)
        assert s_star[j] == pytest.approx(s_ref, rel=1e-12, abs=0.0)
        assert refine_extremum(s, values, i, mode, period) == pytest.approx(
            (s_star[j], v), rel=1e-15, abs=0.0)
        if carry is not None:
            z = (s_star[j] - s[i] + 0.5 * period) % period - 0.5 * period
            c = P.polyfit(x, carry[(np.arange(i - 2, i + 3)) % len(s)], 4)
            assert v_star[j, 1] == pytest.approx(P.polyval(z, c), rel=1e-12,
                                                 abs=1e-14)
    return idx


@pytest.mark.parametrize("mode", ["min", "max"])
def test_windows_across_the_period_seam(mode):
    n, period = 64, 2.0 * np.pi
    s = period * np.arange(n) / n
    sign = 1.0 if mode == "max" else -1.0
    for phase in (0.01, -0.07, period / n + 0.013):
        wave = np.cos(s - phase) + 0.1 * np.cos(3.0 * (s - phase))
        values = 1.5 + sign * wave
        idx = _check(s, values, mode, period, carry=np.sin(2.0 * s))
        # the extremum's window reaches across s = 0
        assert {0, 1, n - 2, n - 1} & set(idx.tolist())


def test_non_uniform_spacing_next_to_corners():
    space = SpaceForm.flat()
    curve = make_disc_intersection(
        space, np.array([[0.0, 0.0], [0.6, 0.1], [0.2, 0.5]]), 1.0, n=256)
    gaps = np.diff(np.append(curve.s, curve.total_length))
    assert np.ptp(gaps) > 1e-4 * np.max(gaps)
    t = space.distance(np.array([0.25, 0.2]), curve.points)
    corners = set(np.flatnonzero(curve.corner).tolist())
    # the farthest points of an intersection of discs are its corners
    assert corners <= set(_check(curve.s, t, "max", curve.total_length,
                                 carry=curve.points[:, 0]).tolist())
    _check(curve.s, t, "min", curve.total_length)


@pytest.mark.parametrize("mode", ["min", "max"])
def test_flat_window_keeps_its_sample(mode):
    s = np.linspace(0.0, 1.0, 16, endpoint=False)
    values = np.full(16, 0.7)
    values[3] = 2.0
    s_star, v_star = refine_windows(s, windows(16, [9, 0]), values[
        windows(16, [9, 0])], mode, 1.0)
    assert list(s_star) == [s[9], s[0]]
    assert list(v_star) == [0.7, 0.7]
