"""Sharp angle bounds: values, dominance, sharpness, verifier behavior."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sphericity.bounds
from sphericity import (GeometryError, HypothesisViolation, SpaceForm,
                        circle_exact_angle, cos_phi_lower_bound,
                        cos_phi_weak_bound, layer_width, make_circle,
                        make_lune, make_warped, make_warped_curve,
                        radial_ode_residuals, verify_angle_bound,
                        verify_radial_bounds)
from sphericity.bounds import DEFAULT_SLACK_TOL
from sphericity.curves import corner_band
from sphericity.reports import build_curve, run

FLAT = SpaceForm.flat()
SPH = SpaceForm.sphere(1.0)
HYP = SpaceForm.hyperbolic(1.0)

BOUND_CASES = [(FLAT, 1.0), (FLAT, 0.4), (SPH, 1.0), (SPH, 0.3),
               (HYP, 2.0), (HYP, 1.4)]


def brute_force_min_cos_phi(space, k0, h, n=200_000):
    """Oracle: dense sampling of the radial angle on an offset circle."""
    radius = space.circle_radius_of_curvature(k0)
    center = space.origin()
    e1, _ = space.frame(center)
    base = space.exp_map(center, (radius - h) * e1)
    curve = make_circle(space, center, k0, n=n)
    v = space.log_map(curve.points, base)
    t = space.distance(base, curve.points)
    u = -v / t[:, None]
    phi = space.angle_between(curve.points, u, curve.normals_out)
    return float(np.min(np.cos(phi)))


class TestClosedForms:
    def test_flat_value(self):
        expected = math.sqrt(2 * 0.3 * 1.0 - 0.3 ** 2 * 1.0)
        assert abs(cos_phi_lower_bound(FLAT, 1.0, 0.3) - expected) < 1e-15
        assert abs(expected - math.sqrt(0.51)) < 1e-15

    def test_flat_value_against_brute_force(self):
        oracle = brute_force_min_cos_phi(FLAT, 1.0, 0.3)
        assert abs(cos_phi_lower_bound(FLAT, 1.0, 0.3) - oracle) < 1e-9

    def test_hyperbolic_value_against_brute_force(self):
        radius = HYP.circle_radius_of_curvature(2.0)
        h = radius / 2
        expected = math.sqrt(1 - math.sinh(radius - h) ** 2
                             / math.sinh(radius) ** 2)
        got = cos_phi_lower_bound(HYP, 2.0, h)
        assert abs(got - expected) < 1e-14
        assert abs(got - brute_force_min_cos_phi(HYP, 2.0, h)) < 1e-9

    def test_sphere_value_formula(self):
        radius = SPH.circle_radius_of_curvature(1.0)
        h = 0.2
        expected = math.sqrt(1 - math.sin(radius - h) ** 2
                             / math.sin(radius) ** 2)
        assert abs(cos_phi_lower_bound(SPH, 1.0, h) - expected) < 1e-14

    @pytest.mark.parametrize("space,k0", BOUND_CASES)
    def test_endpoints(self, space, k0):
        radius = space.circle_radius_of_curvature(k0)
        assert cos_phi_lower_bound(space, k0, 0.0) == 0.0
        assert abs(cos_phi_lower_bound(space, k0, radius) - 1.0) < 1e-12
        assert abs(cos_phi_weak_bound(space, k0, radius) - 1.0) < 1e-12

    @pytest.mark.parametrize("space,k0", BOUND_CASES)
    def test_monotone_and_dominates_weak(self, space, k0):
        radius = space.circle_radius_of_curvature(k0)
        h = np.linspace(0.0, radius, 1000)
        sharp = cos_phi_lower_bound(space, k0, h)
        weak = cos_phi_weak_bound(space, k0, h)
        assert float(np.min(np.diff(sharp))) >= -1e-12
        assert float(np.min(sharp - weak)) >= -1e-12

    def test_weak_bound_values(self):
        assert abs(cos_phi_weak_bound(FLAT, 1.0, 0.3) - 0.3) < 1e-15
        radius = SPH.circle_radius_of_curvature(1.0)
        expected = math.sin(0.2) / math.sin(radius)
        assert abs(cos_phi_weak_bound(SPH, 1.0, 0.2) - expected) < 1e-15

    def test_h_domain_errors(self):
        with pytest.raises(GeometryError):
            cos_phi_lower_bound(FLAT, 1.0, 1.5)
        with pytest.raises(GeometryError):
            cos_phi_lower_bound(FLAT, 1.0, -0.1)

    def test_euclidean_limit_of_curved_bounds(self):
        # module invariant: k1 = 1e-4 agrees with flat within 1e-6
        radius = 1.0
        hs = np.linspace(0.1, 0.9, 9) * radius
        flat_vals = cos_phi_lower_bound(FLAT, 1.0, hs)
        for space in (SpaceForm.sphere(1e-4), SpaceForm.hyperbolic(1e-4)):
            vals = cos_phi_lower_bound(space, 1.0, hs)
            assert float(np.max(np.abs(vals - flat_vals))) < 1e-6


class TestCircleExactAngle:
    def test_alpha_zero_is_radial(self):
        assert circle_exact_angle(FLAT, 1.0, 0.3, 0.0) == 0.0

    def test_flat_max_angle(self):
        assert abs(circle_exact_angle(FLAT, 1.0, 0.3, np.pi / 2)
                   - math.asin(0.7)) < 1e-15

    def test_sphere_value_and_measurement(self):
        radius = np.pi / 4
        h = 0.2
        expected = math.asin(math.sin(radius - h) / math.sin(radius))
        got = circle_exact_angle(SPH, radius, h, np.pi / 2)
        assert abs(got - expected) < 1e-14
        # measured on the constructed circle
        oracle = brute_force_min_cos_phi(SPH, 1.0, h, n=100_000)
        assert abs(math.cos(got) - oracle) < 1e-6

    @pytest.mark.parametrize("space,k0", BOUND_CASES)
    def test_consistent_with_bound_at_quarter_turn(self, space, k0):
        radius = space.circle_radius_of_curvature(k0)
        for h in (0.15 * radius, 0.5 * radius, 0.85 * radius):
            phi_max = circle_exact_angle(space, radius, h, np.pi / 2)
            assert abs(math.cos(phi_max)
                       - cos_phi_lower_bound(space, k0, h)) < 1e-9

    def test_maximal_at_quarter_turn(self):
        alphas = np.linspace(0.0, np.pi, 101)
        phis = circle_exact_angle(FLAT, 1.0, 0.3, alphas)
        assert int(np.argmax(phis)) == 50


class TestVerifier:
    def test_offset_circle_sharpness(self):
        curve = make_circle(FLAT, FLAT.origin(), 1.0, n=4096)
        rep = verify_angle_bound(curve, np.array([0.7, 0.0]))
        assert rep.passed
        assert -1e-6 < rep.min_slack < 1e-5

    @pytest.mark.parametrize("space,k0", [(SPH, 1.0), (HYP, 2.0)])
    def test_offset_circle_sharpness_curved(self, space, k0):
        radius = space.circle_radius_of_curvature(k0)
        curve = make_circle(space, space.origin(), k0, n=4096)
        e1, _ = space.frame(space.origin())
        base = space.exp_map(space.origin(), 0.6 * radius * e1)
        rep = verify_angle_bound(curve, base)
        assert rep.passed
        assert -1e-6 < rep.min_slack < 1e-5

    def test_centered_circle_slack_zero(self):
        curve = make_circle(FLAT, FLAT.origin(), 1.0, n=2048)
        rep = verify_angle_bound(curve, FLAT.origin())
        assert rep.passed
        assert float(np.max(np.abs(rep.slack))) < 1e-9

    def test_hyperbolic_hypothesis_violation(self):
        # kmin at or below k1 admits no comparison circle
        curve = make_circle(HYP, HYP.origin(), 1.2, n=1024)
        rep = verify_angle_bound(curve, HYP.origin())
        assert rep.passed
        with pytest.raises(HypothesisViolation):
            verify_angle_bound(dataclasses.replace(curve, kmin=0.7),
                               HYP.origin())

    def test_sphere_hemisphere_precondition(self):
        curve = make_circle(SPH, SPH.origin(), 0.0, n=1024)  # great circle
        rep = verify_angle_bound(curve, SPH.origin())
        assert rep.passed
        # base point near the curve sees it leave its hemisphere
        e1, _ = SPH.frame(SPH.origin())
        base = SPH.exp_map(SPH.origin(), 1.2 * e1)
        with pytest.raises(HypothesisViolation):
            verify_angle_bound(curve, base)

    def test_corner_samples_are_judged_on_lunes(self):
        lune = make_lune(FLAT, 1.0, 0.29, n=2048)
        rep = verify_angle_bound(lune, lune.hint_center)
        # two corners, each with a band of 2 samples on both sides, whose
        # kappa is barred but whose angle is judged: a lune seen from its
        # centre holds its least slack right next to a corner
        band = corner_band(lune.corner)
        assert band.sum() == 10 and rep.included.all()
        assert rep.min_slack == float(np.min(rep.slack))
        assert rep.min_slack == float(np.min(rep.slack[band]))
        assert rep.min_slack < float(np.min(rep.slack[~band]))
        assert rep.passed and rep.min_slack >= -1e-9


# One k0 policy for every verifier: (measured kmin, the k0 the angle bound
# takes, or None when all three verifiers refuse).  A sphere kmin in
# [-1e-9, 1e-6) is judged at k0 = 0 and refused by both width verdicts;
# above it the guard 1e-6 is subtracted.
K0_POLICY = [(-2e-9, None), (-5e-10, 0.0), (0.0, 0.0), (5e-7, 0.0),
             (2e-6, 2e-6 - 1e-6)]


@pytest.mark.parametrize("kmin,k0", K0_POLICY)
def test_one_k0_policy_for_every_verifier(monkeypatch, kmin, k0):
    great = dataclasses.replace(make_circle(SPH, SPH.origin(), 0.0, n=1024),
                                kmin=kmin)
    metric = make_warped("spherical", T=1.6, k1=1.0)
    equator = dataclasses.replace(make_warped_curve(metric, math.pi / 2),
                                  kmin=kmin)
    angle = [(verify_angle_bound, (great, SPH.origin()))]
    widths = [(layer_width, (great,)),
              (verify_radial_bounds, (metric, equator))]
    if k0 is None:
        for verify, args in angle + widths:
            with pytest.raises(HypothesisViolation,
                               match="bound hypothesis fails for k0"):
                verify(*args)
        return
    judged_at = []

    def recording_bound(space, k0_used, h):
        judged_at.append(k0_used)
        return cos_phi_lower_bound(space, k0_used, h)

    monkeypatch.setattr(sphericity.bounds, "cos_phi_lower_bound",
                        recording_bound)
    assert verify_angle_bound(great, SPH.origin()).passed
    assert judged_at == [k0]
    if k0 == 0.0:
        for verify, args in widths:
            with pytest.raises(HypothesisViolation,
                               match="^width bound requires kmin > 0$"):
                verify(*args)
    else:
        assert layer_width(great).k0_used == k0
        assert verify_radial_bounds(metric, equator).k0_used == k0


class TestOdeIdentity:
    @pytest.mark.parametrize("space,k0", [(FLAT, 1.0), (SPH, 1.0), (HYP, 2.0)])
    def test_offset_circle_identity(self, space, k0):
        radius = space.circle_radius_of_curvature(k0)
        curve = make_circle(space, space.origin(), k0, n=4096)
        e1, _ = space.frame(space.origin())
        base = space.exp_map(space.origin(), 0.55 * radius * e1)
        resid, included = radial_ode_residuals(curve, base)
        assert included.sum() > 0.9 * curve.n
        assert float(np.max(resid)) < 1e-4


@settings(max_examples=80, deadline=None)
@given(k0=st.floats(0.2, 4.0), frac=st.floats(0.0, 1.0))
def test_flat_bound_formula_property(k0, frac):
    radius = 1.0 / k0
    h = frac * radius
    val = cos_phi_lower_bound(FLAT, k0, h)
    assert -1e-12 <= val <= 1.0
    expected = math.sqrt(max(2 * h * k0 - h * h * k0 * k0, 0.0))
    assert abs(val - min(expected, 1.0)) < 1e-12


# Corner bodies on every plane: lunes and intersections of 2-4 discs whose
# centres lie within 0.3 R of the origin along each frame axis, seen from
# the hint centre or from up to halfway to a sample.  n starts at 1024
# because coarser bodies misjudge h, not the corners: 360 disc bodies at
# n = 64 and 256, seen from 0.9 of the way to a sample, gave 130 false
# FAILs with the corner bands left out and 132 with them judged, and in
# each the measured h exceeds the distance to a 2^16-sample copy of the
# body (by 1.3e-4 and 1.6e-4 in the two added ones).  Refusing such a
# body needs a measured error budget for h.
@pytest.mark.parametrize("space,k0", [(FLAT, 1.0), (SPH, 1.0), (HYP, 2.0)])
@settings(max_examples=30, deadline=None)
@given(body=st.one_of(
           st.floats(0.05, 0.95),
           st.lists(st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
                    min_size=2, max_size=4)),
       n=st.integers(1024, 4096), pull=st.one_of(st.just(0.0),
                                                 st.floats(0.0, 0.5)),
       sample=st.integers(0, 2 ** 16))
def test_every_sample_of_a_corner_body_meets_the_bound(space, k0, body, n,
                                                       pull, sample):
    radius = space.circle_radius_of_curvature(k0)
    if isinstance(body, float):
        generator = {"provenance": "lune", "k0": k0, "r": body * radius}
    else:
        origin = space.origin()
        e1, e2 = space.frame(origin)
        centers = [space.exp_map(origin, 0.01 * radius * (a * e1 + b * e2))
                   for a, b in body]
        generator = {"provenance": "disc_intersection", "k0": k0,
                     "centers": np.array(centers).tolist()}
    config = {"suite": "angle",
              "space": {"kind": space.kind.value, "k1": space.k1},
              "generator": dict(generator, n=n)}
    curve = build_curve(space, config)
    center = curve.hint_center
    base = space.exp_map(center, pull * space.log_map(
        center, curve.points[sample % curve.n]))
    config["base_point"] = {"mode": "point", "coords": base.tolist()}
    result = run(config)
    assert not result.hypothesis_violations
    rows = result.series["angle"]["rows"]
    assert len(rows) == curve.n
    assert min(row[4] for row in rows) >= -DEFAULT_SLACK_TOL
    assert result.overall_passed
