"""Geometry kernel: round trips, metric properties, circle curvatures."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sphericity import (AntipodalPointsError, ConstraintViolation,
                        GeometryError, Kind, SpaceForm, spaceforms)
from tests.oracles import PerPlaneKernel, ReductionKernel

ALL_SPACES = [SpaceForm.flat(), SpaceForm.sphere(1.0), SpaceForm.sphere(0.6),
              SpaceForm.hyperbolic(1.0), SpaceForm.hyperbolic(1.7)]


def random_points(space, rng, count, spread=1.4):
    """Random points within a ball around the origin pole."""
    origin = space.origin()
    e1, e2 = space.frame(origin)
    radius = rng.uniform(0.0, spread, count)
    if space.kind is Kind.SPHERE:
        radius = radius * min(1.0, 0.9 * np.pi / space.k1 / spread / 2)
    angle = rng.uniform(0.0, 2.0 * np.pi, count)
    vec = (radius * np.cos(angle))[:, None] * e1 \
        + (radius * np.sin(angle))[:, None] * e2
    return space.exp_map(origin, vec)


@pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: f"{s.kind.value}-{s.k1:g}")
class TestKernel:
    def test_exp_log_round_trip_1000(self, space):
        rng = np.random.default_rng(7)
        base = random_points(space, rng, 1000)
        target = random_points(space, rng, 1000)
        v = space.log_map(base, target)
        back = space.exp_map(base, v)
        assert float(np.max(space.distance(back, target))) < 1e-10
        # |log| equals the distance
        assert float(np.max(np.abs(space.norm(base, v)
                                   - space.distance(base, target)))) < 1e-10

    def test_triangle_inequality(self, space):
        rng = np.random.default_rng(11)
        a = random_points(space, rng, 400)
        b = random_points(space, rng, 400)
        c = random_points(space, rng, 400)
        slack = space.distance(a, b) + space.distance(b, c) \
            - space.distance(a, c)
        assert float(np.min(slack)) > -1e-10

    def test_distance_symmetry_and_zero(self, space):
        rng = np.random.default_rng(3)
        a = random_points(space, rng, 200)
        b = random_points(space, rng, 200)
        assert np.allclose(space.distance(a, b), space.distance(b, a),
                           atol=1e-13)
        assert float(np.max(space.distance(a, a))) < 1e-12

    def test_angle_symmetry_and_orthonormal_frame(self, space):
        rng = np.random.default_rng(5)
        pts = random_points(space, rng, 50)
        for p in pts[:10]:
            e1, e2 = space.frame(p)
            assert abs(space.metric_dot(p, e1, e1) - 1) < 1e-12
            assert abs(space.metric_dot(p, e2, e2) - 1) < 1e-12
            assert abs(space.metric_dot(p, e1, e2)) < 1e-12
            assert abs(space.angle_between(p, e1, e2) - np.pi / 2) < 1e-12
            u = 0.3 * e1 + 1.1 * e2
            v = -0.7 * e1 + 0.2 * e2
            assert abs(space.angle_between(p, u, v)
                       - space.angle_between(p, v, u)) < 1e-13
            assert space.angle_between(p, u, u) < 1e-6

    def test_model_constraint_drift_100_ops(self, space):
        rng = np.random.default_rng(13)
        p = space.origin()
        e1, e2 = space.frame(p)
        for _ in range(100):
            step = rng.uniform(-0.3, 0.3, 2)
            e1, e2 = space.frame(p)
            p = space.exp_map(p, step[0] * e1 + step[1] * e2)
        assert float(space.constraint_defect(p)) < 1e-9

    def test_mu0_inverts_radius_of_curvature(self, space):
        if space.kind is Kind.FLAT:
            k0s = np.linspace(0.05, 8.0, 40)
        elif space.kind is Kind.SPHERE:
            k0s = np.linspace(0.0, 8.0, 40)
        else:
            k0s = space.k1 * (1.0 + np.linspace(0.02, 8.0, 40))
        for k0 in k0s:
            radius = space.circle_radius_of_curvature(float(k0))
            assert abs(float(space.mu0(radius)) - k0) < 1e-12 * max(1, k0)


def test_zero_vector_exp_is_base():
    for space in ALL_SPACES:
        p = space.origin()
        assert np.allclose(space.exp_map(p, np.zeros(space.dim)), p)


def test_flat_distance_345():
    space = SpaceForm.flat()
    assert space.distance([0.0, 0.0], [3.0, 4.0]) == 5.0


def test_sphere_quarter_great_circle():
    space = SpaceForm.sphere(1.0)
    north = np.array([0.0, 0.0, 1.0])
    equator = np.array([1.0, 0.0, 0.0])
    assert abs(float(space.distance(north, equator)) - np.pi / 2) < 1e-14


def test_hyperbolic_distance_against_polyline_integration():
    # brute-force oracle: integrate the hyperboloid geodesic as a polyline,
    # doubling the resolution until the length converges below 1e-10
    space = SpaceForm.hyperbolic(1.0)
    origin = space.origin()
    e1, _ = space.frame(origin)
    tau = 1.3
    target = space.exp_map(origin, tau * e1)

    def chord_length(n):
        w = np.linspace(0.0, 1.0, n + 1)[:, None]
        pts = space.exp_map(origin, (w * tau) * e1)
        # ambient Minkowski chord lengths (first order = arc length)
        diff = np.diff(pts, axis=0)
        seg = np.sqrt(np.maximum(-diff[:, 0] ** 2 + diff[:, 1] ** 2
                                 + diff[:, 2] ** 2, 0.0))
        return float(np.sum(seg))

    prev, n = None, 64
    while True:
        cur = chord_length(n)
        if prev is not None and abs(cur - prev) < 1e-10:
            break
        prev, n = cur, n * 2
        assert n <= 2 ** 22
    assert abs(float(space.distance(origin, target)) - tau) < 1e-9
    assert abs(cur - tau) < 1e-6


def test_sphere_exp_pi_is_antipode_and_log_errors():
    space = SpaceForm.sphere(1.0)
    north = np.array([0.0, 0.0, 1.0])
    e1, _ = space.frame(north)
    south = space.exp_map(north, np.pi * e1)
    assert np.allclose(south, [0.0, 0.0, -1.0], atol=1e-12)
    with pytest.raises(AntipodalPointsError):
        space.log_map(north, south)


def test_mu0_values_and_domain():
    flat = SpaceForm.flat()
    assert float(flat.mu0(2.0)) == 0.5
    sph = SpaceForm.sphere(1.0)
    assert float(sph.mu0(np.pi / 2)) == 0.0
    assert float(sph.mu0(2.0)) < 0.0
    hyp = SpaceForm.hyperbolic(1.0)
    # k1 coth(k1 t) decreases to k1 from above
    vals = [float(hyp.mu0(t)) for t in (3.0, 5.0, 8.0)]
    assert vals[0] > vals[1] > vals[2] > 1.0
    assert abs(vals[2] - (1.0 + 2.0 * math.exp(-2 * 8.0))) < 1e-13
    with pytest.raises(GeometryError):
        flat.mu0(0.0)
    with pytest.raises(GeometryError):
        sph.mu0(np.pi)


def test_hyperbolic_mu0_is_k1_where_cosh_overflows():
    # k1 coth(k1 t) read as k1 cosh / sinh is NaN once cosh overflows
    # (k1 t > 710) and inf once k1 cosh does; coth is 1 to the last bit
    # there.  Finite values keep their bits.
    for k1, finite, overflowing in [(1.0, [1.0, 20.0, 700.0], [711.0, 1e5]),
                                    (1e150, [1e-151, 3e-148],
                                     [4e-148, 1e-100])]:
        hyp = SpaceForm.hyperbolic(k1)
        x = k1 * np.array(finite)
        with np.errstate(all="raise"):
            got = hyp.mu0(np.array(finite + overflowing))
        assert _same_bits(got[:len(finite)],
                          k1 * np.cosh(x) / np.sinh(x))
        assert np.all(got[len(finite):] == k1)
    # where k1 t is below the smallest normal float, cosh / sinh is inf (at
    # 0) or off in its last bits (subnormal); k1 coth(k1 t) is 1/t there
    hyp = SpaceForm.hyperbolic(1e-150)
    t = np.array([1e-200, 1e-160, 2e-158, 3e-158])
    with np.errstate(all="raise"):
        got = hyp.mu0(t)
    assert _same_bits(got[:3], 1.0 / t[:3])
    x = 1e-150 * t[3:]
    assert _same_bits(got[3:], 1e-150 * np.cosh(x) / np.sinh(x))


def test_circle_radius_of_curvature_values():
    assert SpaceForm.flat().circle_radius_of_curvature(1.0) == 1.0
    assert abs(SpaceForm.sphere(1.0).circle_radius_of_curvature(0.0)
               - np.pi / 2) < 1e-15
    # oracle: bisection on mu0(t) = 2
    hyp = SpaceForm.hyperbolic(1.0)
    lo, hi = 1e-6, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(hyp.mu0(mid)) > 2.0:
            lo = mid
        else:
            hi = mid
    bisected = 0.5 * (lo + hi)
    closed = hyp.circle_radius_of_curvature(2.0)
    assert abs(closed - bisected) < 1e-10
    assert abs(closed - math.log(3.0) / 2.0) < 1e-15
    with pytest.raises(GeometryError):
        hyp.circle_radius_of_curvature(0.9)
    with pytest.raises(GeometryError):
        SpaceForm.flat().circle_radius_of_curvature(0.0)
    with pytest.raises(GeometryError):
        SpaceForm.sphere(1.0).circle_radius_of_curvature(-0.5)


def test_check_point_rejects_off_model():
    sph = SpaceForm.sphere(1.0)
    with pytest.raises(ConstraintViolation):
        sph.check_point(np.array([0.0, 0.0, 1.5]))
    hyp = SpaceForm.hyperbolic(1.0)
    with pytest.raises(ConstraintViolation):
        hyp.check_point(np.array([-1.0, 0.0, 0.0]))   # lower sheet
    with pytest.raises(ConstraintViolation):
        SpaceForm.flat().check_point(np.array([0.0, 0.0, 0.0]))  # wrong dim


def test_space_form_constructor_validation():
    with pytest.raises(GeometryError):
        SpaceForm(Kind.SPHERE, 0.0)
    with pytest.raises(GeometryError):
        SpaceForm(Kind.FLAT, 1.0)


@settings(max_examples=60, deadline=None)
@given(k1=st.floats(0.2, 3.0), r=st.floats(0.05, 1.2), ang=st.floats(0, 6.28))
def test_hyperbolic_exp_log_property(k1, r, ang):
    space = SpaceForm.hyperbolic(k1)
    origin = space.origin()
    e1, e2 = space.frame(origin)
    v = r * (math.cos(ang) * e1 + math.sin(ang) * e2)
    q = space.exp_map(origin, v)
    assert abs(float(space.distance(origin, q)) - r) < 1e-11
    assert float(np.max(np.abs(space.log_map(origin, q) - v))) < 1e-9


@settings(max_examples=60, deadline=None)
@given(k1=st.floats(0.2, 3.0), r=st.floats(0.05, 0.9), ang=st.floats(0, 6.28))
def test_sphere_exp_log_property(k1, r, ang):
    space = SpaceForm.sphere(k1)
    r = r * np.pi / k1 * 0.9
    origin = space.origin()
    e1, e2 = space.frame(origin)
    v = r * (math.cos(ang) * e1 + math.sin(ang) * e2)
    q = space.exp_map(origin, v)
    assert abs(float(space.distance(origin, q)) - r) < 1e-11
    assert float(np.max(np.abs(space.log_map(origin, q) - v))) < 1e-9


# -- the component-wise sums against numpy's reductions -------------------

def _same_bits(x, y) -> bool:
    """Equal shapes and equal bits, so the sign of zero counts."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return x.shape == y.shape and np.array_equal(
        np.ascontiguousarray(x).view(np.uint64),
        np.ascontiguousarray(y).view(np.uint64))


def _kernel_mismatches(space, a, b, u, v) -> list[str]:
    """The kernel calls whose results differ from ReductionKernel's."""
    ref = ReductionKernel(space)
    calls = [("metric_dot", (b, u, v)), ("norm", (b, u)),
             ("constraint_defect", (a,)), ("project", (a,)),
             ("project_tangent", (b, u)), ("distance", (a, b)),
             ("distance", (b, a)), ("log_map", (a, b)), ("log_map", (b, a))]
    return [name for name, args in calls
            if not _same_bits(getattr(space, name)(*args),
                              getattr(ref, name)(*args))]


def _zero_heavy(rng, shape, zeros):
    """Values over six decades, a share ``zeros`` of them +0.0 or -0.0."""
    x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3.0, 3.0, shape)
    mask = rng.random(shape) < zeros
    x[mask] = rng.choice([0.0, -0.0], int(np.sum(mask)))
    return x


@st.composite
def _kernel_inputs(draw, kinds=tuple(Kind)):
    """(space, a, b, u, v): points a and b on the model, some coincident,
    and tangent-like u and v of their shapes, with many exact zeros."""
    kind = draw(st.sampled_from(kinds))
    k1 = 0.0 if kind is Kind.FLAT else 10.0 ** draw(st.floats(-3.0, 3.0))
    space = SpaceForm(kind, k1)
    n = draw(st.integers(1, 9))
    lead_a = draw(st.sampled_from([(), (n,), (4, n)]))
    zeros = draw(st.floats(0.0, 1.0))
    coincident = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    origin = space.origin()
    e1, e2 = space.frame(origin)

    def points(lead):
        # within sqrt(2)/k1 < pi/(2 k1) of the origin, so no two sphere
        # points are antipodal; the rescaling keeps exact zeros
        c = _zero_heavy(rng, lead + (2,), zeros)
        reach = np.max(np.abs(c), axis=-1, keepdims=True) * max(k1, 1e-3)
        c = c / np.maximum(reach, 1.0)
        return space.exp_map(origin, c[..., :1] * e1 + c[..., 1:] * e2)

    a, b = points(lead_a), points((n,))
    if lead_a:
        same = rng.random(a.shape[:-1]) < coincident
        a[same] = np.broadcast_to(b, a.shape)[same]
    else:
        b[rng.random(n) < coincident] = a
    u = _zero_heavy(rng, a.shape, zeros)
    v = _zero_heavy(rng, b.shape, zeros)
    return space, a, b, u, v


@settings(max_examples=300, deadline=None)
@given(case=_kernel_inputs())
def test_kernel_sums_match_numpy_reductions(case):
    assert _kernel_mismatches(*case) == []


def _dot_right_to_left(u, v):
    out = 0.0 + u[..., -1] * v[..., -1]
    for i in range(u.shape[-1] - 2, -1, -1):
        out = out + u[..., i] * v[..., i]
    return out


def _dot_from_first_product(u, v):
    out = u[..., 0] * v[..., 0]
    for i in range(1, u.shape[-1]):
        out = out + u[..., i] * v[..., i]
    return out


# Each wrong summation differs from np.sum on its products below:
# (1 + 1e-16) + 1e-16 rounds to 1 where 1 + 2e-16 does not, and np.sum of
# products that are all -0.0 is +0.0.
@pytest.mark.parametrize("wrong_dot,u", [
    (_dot_right_to_left, [1.0, 1e-16, 1e-16]),
    (_dot_from_first_product, [-0.0, -0.0, -0.0])])
def test_kernel_check_catches_a_different_summation(monkeypatch, wrong_dot,
                                                    u):
    space = SpaceForm.sphere(1.0)
    a = space.origin()
    b = space.exp_map(a, np.array([[0.3, 0.2, 0.0]]))
    u, v = np.array([u]), np.array([[1.0, 1.0, 1.0]])
    assert _kernel_mismatches(space, a, b, u, v) == []
    monkeypatch.setattr(spaceforms, "_dot", wrong_dot)
    assert "metric_dot" in _kernel_mismatches(space, a, b, u, v)


# -- the sign-merged methods against their per-plane forms ----------------

def _merged_mismatches(space, a, b, u) -> list[str]:
    """The sign-merged calls whose results differ from PerPlaneKernel's."""
    ref = PerPlaneKernel(space)
    t = ref.project_tangent(a, u)
    # k1 |t| below 7, so the hyperboloid's cosh stays finite
    t = t / np.maximum(np.max(np.abs(t), axis=-1, keepdims=True)
                       * (space.k1 / 4.0), 1.0)
    calls = [("constraint_defect", (a,)), ("constraint_defect", (b,)),
             ("project", (a,)), ("project", (a + 0.1 * t,)),
             ("project_tangent", (a, u)), ("project_tangent", (b, u)),
             ("exp_map", (a, t)), ("log_map", (a, b)), ("log_map", (b, a)),
             ("rotate90", (a, t)), ("rotate90", (b, u))]
    return [f"{name}{i}" for i, (name, args) in enumerate(calls)
            if not _same_bits(getattr(space, name)(*args),
                              getattr(ref, name)(*args))]


@st.composite
def _curved_inputs(draw):
    """_kernel_inputs on the sphere and the hyperbolic plane, whole rows of
    u set to zero as well."""
    space, a, b, u, _ = draw(_kernel_inputs(kinds=(Kind.SPHERE,
                                                   Kind.HYPERBOLIC)))
    rows = u.shape[:-1]
    zero = draw(st.lists(st.booleans(), min_size=math.prod(rows),
                         max_size=math.prod(rows)))
    u[np.reshape(zero, rows)] = 0.0
    return space, a, b, u


@settings(max_examples=300, deadline=None)
@given(case=_curved_inputs())
def test_sign_merged_methods_match_per_plane_forms(case):
    assert _merged_mismatches(*case) == []


def _sn_times_reciprocal(self, x):
    """sn with one more rounding: sin(k1 x) * (1/k1) for sin(k1 x) / k1."""
    x = np.asarray(x, dtype=float)
    if self.kind is Kind.SPHERE:
        return np.sin(self.k1 * x) * (1.0 / self.k1)
    return np.sinh(self.k1 * x) * (1.0 / self.k1)


@pytest.mark.parametrize("space", [SpaceForm.sphere(3.0),
                                   SpaceForm.hyperbolic(3.0)],
                         ids=["S2", "H2"])
def test_sign_merged_check_catches_one_more_rounding(monkeypatch, space):
    rng = np.random.default_rng(0)
    a = space.origin()
    b = random_points(space, rng, 16, spread=0.4)
    u = rng.standard_normal((16, 3))
    assert _merged_mismatches(space, a, b, u) == []
    monkeypatch.setattr(SpaceForm, "sn", _sn_times_reciprocal)
    assert _merged_mismatches(space, a, b, u) == ["exp_map6"]
