"""The batched quartic refinement and the batched bracket search against the
golden-section oracle, and Brent's root finder against scipy's."""

import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st

from sphericity import (Kind, NonClosureError, SpaceForm, curves,
                        make_disc_intersection, make_frame_ode_curve)
from sphericity.search import (bracket_min, brentq, golden_max, golden_min,
                               refine_extremum, refine_windows, windows)

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


@settings(max_examples=300, deadline=None)
@given(mode=st.sampled_from(["min", "max"]),
       gaps=st.lists(st.floats(1e-3, 1.0), min_size=5, max_size=12),
       data=st.data())
def test_refined_extremum_never_loses_to_its_centre(mode, gaps, data):
    # exactly in floats, on any window, uniform or not: the callers take
    # the refined value as it comes, with no min/max against the sample
    n = len(gaps)
    s = np.concatenate([[0.0], np.cumsum(gaps[:-1])])
    values = np.array(data.draw(st.lists(
        st.floats(-1e3, 1e3) | st.floats(-1e-9, 1e-9), min_size=n,
        max_size=n)))
    index = data.draw(st.integers(0, n - 1))
    _, v = refine_extremum(s, values, index, mode, float(np.sum(gaps)))
    assert v <= values[index] if mode == "min" else v >= values[index]


# -- Brent's root finder against scipy.optimize.brentq -----------------------

def _solve(solver, f, a, b, **keywords):
    """(the root's uint64 bits, or the exception raised, and the list of
    arguments at which the solver evaluated f)."""
    arguments = []

    def recorded(x):
        arguments.append(x)
        return f(x)

    try:
        root = solver(recorded, a, b, **keywords)
    except (ValueError, RuntimeError) as exc:
        return exc, arguments
    return np.float64(root).view(np.uint64), arguments


def _assert_same_run(f, a, b, **keywords):
    """scipy and the port evaluate f at the same arguments and return the
    same bits; where scipy does not converge the port raises NonClosureError
    with the last |f| as its residual."""
    ours, ours_at = _solve(brentq, f, a, b, **keywords)
    theirs, theirs_at = _solve(scipy.optimize.brentq, f, a, b, **keywords)
    assert ours_at == theirs_at
    if isinstance(theirs, ValueError):
        assert type(ours) is ValueError and str(ours) == str(theirs)
    elif isinstance(theirs, RuntimeError):
        assert isinstance(ours, NonClosureError)
        assert ours.residual == abs(f(ours_at[-1]))
    else:
        assert ours == theirs


def _objective(shape: str, root: float, scale: float):
    """Sign-changing objectives, smooth or kinked, scaled down to underflow
    or up towards overflow."""
    if shape == "power":
        return lambda x: scale * math.copysign(abs(x - root) ** 3, x - root)
    if shape == "root":
        return lambda x: scale * math.copysign(abs(x - root) ** 0.5, x - root)
    if shape == "tanh":
        return lambda x: scale * (math.tanh(5.0 * (x - root))
                                  + 0.1 * (x - root))
    if shape == "kink":
        return lambda x: scale * (x - root) * (1.0 if x < root else 7.0)
    if shape == "plateau":
        return lambda x: scale * max(-1.0, min(1.0, 50.0 * (x - root)))
    return lambda x: scale * math.expm1(x - root)


@settings(max_examples=400, deadline=None)
@given(shape=st.sampled_from(["power", "root", "tanh", "kink", "plateau",
                              "expm1"]),
       root=st.floats(-3.0, 3.0),
       scale=st.sampled_from([1.0, -1.0, 1e-200, 1e-310, 1e300]),
       below=st.floats(0.0, 4.0), above=st.floats(-0.5, 4.0),
       swap=st.booleans(),
       xtol=st.sampled_from([2e-12, 1e-300, 1e-6, 0.5]),
       rtol=st.sampled_from([4.0 * np.finfo(float).eps, 1e-10, 1e-3]),
       maxiter=st.integers(0, 100))
def test_brentq_matches_scipy_bit_for_bit(shape, root, scale, below, above,
                                          swap, xtol, rtol, maxiter):
    a, b = root - below, root + above       # above < 0: no sign change
    if swap:
        a, b = b, a
    _assert_same_run(_objective(shape, root, scale), a, b, xtol=xtol,
                     rtol=rtol, maxiter=maxiter)


@pytest.mark.parametrize("kind,k1", [("flat", 0.0), ("sphere", 1.0),
                                     ("hyperbolic", 1.0)])
@pytest.mark.parametrize("m", [2, 3, 5])
def test_brentq_matches_scipy_on_the_closure_objective(monkeypatch, kind,
                                                       k1, m):
    space = SpaceForm(Kind(kind), k1)
    k0 = 2.0 if kind == "hyperbolic" else 1.0
    solves = []

    def record(f, a, b, **keywords):
        solves.append((f, a, b, keywords))
        return brentq(f, a, b, **keywords)

    monkeypatch.setattr(curves, "brentq", record)
    make_frame_ode_curve(space, lambda u: k0 + 0.1 * np.cos(
        2.0 * np.pi * m * np.asarray(u)), n=64)
    (f, a, b, keywords), = solves
    _assert_same_run(f, a, b, **keywords)
    # a run cut short: scipy's RuntimeError is the port's NonClosureError
    _assert_same_run(f, a, b, **dict(keywords, maxiter=2))


def test_brentq_refuses_a_bracket_without_a_sign_change():
    with pytest.raises(ValueError, match="different signs"):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0)


def test_brentq_raises_non_closure_on_a_nan():
    with pytest.raises(NonClosureError, match="NaN"):
        brentq(lambda x: math.nan if x > 0.5 else x - 0.3, 0.0, 1.0)


@settings(max_examples=150, deadline=None)
@given(m=st.integers(2, 24), amp=st.floats(0.01, 0.5),
       share=st.floats(0.0, 0.45), phase=st.floats(0.0, 2.0 * math.pi),
       phase2=st.floats(0.0, 2.0 * math.pi))
def test_bracket_min_matches_golden_oracle(m, amp, share, phase, phase2):
    # the frame-ODE minimum search: the bracket of 1.5 spacings either side
    # of the smallest of 2048 profile values, narrowed to 1e-9 by batched
    # calls, against the golden section on the whole bracket to 1e-12
    def profile(u):
        w = 2.0 * np.pi * m * np.asarray(u)
        return (1.5 + amp * (1.0 - share) * np.cos(w + phase)
                + amp * share * np.cos(2.0 * w + phase2))

    grid = np.linspace(0.0, 1.0, 2048, endpoint=False)
    i = int(np.argmin(profile(grid)))
    a, b = grid[i] - 1.5 / 2048, grid[i] + 1.5 / 2048
    calls = []

    def batched(u):
        calls.append(len(u))
        return profile(u % 1.0)

    lo, hi, value = bracket_min(batched, a, b, tol=1e-9)
    _, ref = golden_min(lambda u: float(profile(u % 1.0)), a, b, tol=1e-12)
    assert abs(value - ref) <= 1e-13 * abs(ref)
    assert a <= lo < hi <= b and hi - lo <= 1e-9
    assert len(calls) <= 3
