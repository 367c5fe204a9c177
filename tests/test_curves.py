"""Curve generators and measurement: oracles and structural invariants."""

import math

import numpy as np
import pytest

from sphericity import (CurveGenerationError, GeometryError, NonClosureError,
                        SpaceForm, make_circle, make_disc_intersection,
                        make_frame_ode_curve, make_lune, make_support_curve,
                        measure_radial, min_distance_to_curve, spindle_optimum,
                        spindle_rho, winding_number)
from sphericity.curves import _frame_matrix, _integrate_frame, corner_band
from tests.oracles import validate_curve

FLAT = SpaceForm.flat()
SPH = SpaceForm.sphere(1.0)
HYP = SpaceForm.hyperbolic(1.0)

CIRCLE_CASES = [(FLAT, 1.0), (FLAT, 0.5), (SPH, 1.0), (SPH, 0.0),
                (HYP, 2.0), (HYP, 1.3)]


def structural_ok(curve, declared_k0):
    v = validate_curve(curve)
    assert v["winding"] == 1
    assert v["closure_gap"] < 1e-8
    assert v["max_tangent_normal_dot"] < 1e-9
    assert v["hemisphere_ok"]
    assert curve.kmin >= declared_k0 - 1e-6
    assert curve.max_gap <= 6.0 * curve.total_length / curve.n


@pytest.mark.parametrize("space,k0", CIRCLE_CASES,
                         ids=lambda v: str(getattr(v, "kind", v)))
def test_circle_construction(space, k0):
    curve = make_circle(space, space.origin(), k0, n=2048)
    radius = space.circle_radius_of_curvature(k0)
    assert abs(curve.total_length - float(space.circumference(radius))) < 1e-8
    assert abs(curve.kmin - k0) < 1e-8
    structural_ok(curve, k0)
    # per-sample measured curvature (spec: within 1e-8 at all samples)
    assert float(np.nanmax(np.abs(curve.kappa - k0))) < 1e-8
    # all samples equidistant from the center
    t = space.distance(space.origin(), curve.points)
    assert float(np.max(np.abs(t - radius))) < 1e-12


@pytest.mark.parametrize("space,k0,n", [
    (FLAT, 1.0, 1), (FLAT, 1.0, 2), (FLAT, 1.0, 3), (FLAT, 1.0, 4),
    (FLAT, 1e100, 64), (FLAT, 1e308, 64)])
def test_degenerate_sampling_refused(space, k0, n):
    # fewer samples than the curvature window, or a window too small for
    # float64 to resolve, is refused instead of measured
    with pytest.raises(CurveGenerationError):
        make_circle(space, space.origin(), k0, n=n)


def test_hyperbolic_circle_length_closed_form():
    # polyline-refinement oracle for the circumference 2 pi sinh(k1 R)/k1:
    # chord sums converge quadratically, so Richardson-extrapolate the two
    # finest resolutions
    k0 = 2.0
    radius = HYP.circle_radius_of_curvature(k0)
    closed_form = 2.0 * np.pi * math.sinh(radius)
    lengths = {}
    prev = None
    for n in (512, 1024, 2048, 4096, 8192):
        curve = make_circle(HYP, HYP.origin(), k0, n=n)
        polyline = float(np.sum(HYP.distance(curve.points,
                                             np.roll(curve.points, -1,
                                                     axis=0))))
        if prev is not None:
            assert abs(polyline - closed_form) < abs(prev - closed_form)
        prev = polyline
        lengths[n] = polyline
    extrapolated = (4.0 * lengths[8192] - lengths[4096]) / 3.0
    assert abs(extrapolated - closed_form) < 1e-8
    assert abs(curve.total_length - closed_form) < 1e-10


class TestLune:
    @pytest.mark.parametrize("space,k0", [(FLAT, 1.0), (SPH, 1.0), (HYP, 2.0)])
    def test_lune_structure(self, space, k0):
        r = 0.5 * spindle_optimum(space, k0).R
        curve = make_lune(space, k0, r, n=2048)
        assert curve.provenance == "lune"
        assert list(np.nonzero(curve.corner)[0]) == [0, 1024]
        # kappa is NaN exactly where the curvature window spans a corner
        assert np.array_equal(np.isnan(curve.kappa), corner_band(curve.corner))
        assert int(np.isnan(curve.kappa).sum()) == 10
        structural_ok(curve, k0)
        assert abs(curve.kmin - k0) < 1e-8
        # inradius and circumradius about the construction center
        t = space.distance(curve.hint_center, curve.points)
        assert abs(float(np.min(t)) - r) < 1e-8
        assert abs(float(np.max(t)) - float(spindle_rho(space, k0, r))) < 1e-8

    def test_flat_lune_circumradius_formula(self):
        r = 1.0 / (2.0 + math.sqrt(2.0))
        curve = make_lune(FLAT, 1.0, r, n=2048)
        t = FLAT.distance(curve.hint_center, curve.points)
        assert abs(float(np.max(t)) - math.sqrt(2 * r - r * r)) < 1e-8

    def test_lune_degenerates_to_circle(self):
        radius = 1.0
        lune = make_lune(FLAT, 1.0, radius - 1e-4, n=2048)
        circle = make_circle(FLAT, FLAT.origin(), 1.0, n=2048)
        d = FLAT.distance(lune.points[:, None, :], circle.points[None, :, :])
        hausdorff = max(float(d.min(axis=1).max()), float(d.min(axis=0).max()))
        assert hausdorff < 2e-2
        lune2 = make_lune(FLAT, 1.0, radius - 1e-6, n=2048)
        d2 = FLAT.distance(lune2.points[:, None, :], circle.points[None, :, :])
        assert float(d2.min(axis=1).max()) < float(d.min(axis=1).max())

    def test_lune_rejects_bad_inradius(self):
        with pytest.raises(CurveGenerationError):
            make_lune(FLAT, 1.0, 1.5)
        with pytest.raises(CurveGenerationError):
            make_lune(FLAT, 1.0, 0.0)


class TestSupportCurve:
    def test_pure_a0_is_circle(self):
        curve = make_support_curve(1.0, {}, k0_target=1.0, n=1024)
        assert abs(curve.kmin - 1.0) < 1e-7
        t = FLAT.distance(np.zeros(2), curve.points)
        assert float(np.max(np.abs(t - 1.0))) < 1e-12

    def test_accepts_within_curvature_budget(self):
        # rho(theta) = 1 - 3*a2*cos(2 theta) ranges over [0.7, 1.3]
        curve = make_support_curve(1.0, {2: (0.1, 0.0)}, k0_target=1 / 1.3,
                                   n=2048)
        structural_ok(curve, 1 / 1.3)
        assert curve.kmin >= 1 / 1.3 - 1e-6

    def test_rejects_excess_amplitude(self):
        # rho max = 1 + 3*0.4 = 2.2 > 1/0.9
        with pytest.raises(CurveGenerationError) as err:
            make_support_curve(1.0, {2: (0.4, 0.0)}, k0_target=0.9)
        assert err.value.where is not None

    def test_rejects_nonconvex(self):
        with pytest.raises(CurveGenerationError):
            make_support_curve(1.0, {5: (0.05, 0.0)}, k0_target=0.5)

    def test_rejects_low_harmonics(self):
        with pytest.raises(CurveGenerationError):
            make_support_curve(1.0, {1: (0.1, 0.0)}, k0_target=0.5)


class TestFrameOde:
    def test_constant_profile_reproduces_circle(self):
        curve = make_frame_ode_curve(HYP, lambda u: 2.0 + 0.0 * np.asarray(u),
                                     n=1024)
        circle = make_circle(HYP, curve.hint_center, 2.0, n=1024)
        d = HYP.distance(curve.points[:, None, :], circle.points[None, :, :])
        assert float(d.min(axis=1).max()) < 1e-7

    @pytest.mark.parametrize("space,profile,kmin_floor", [
        (HYP, lambda u: 2.0 + 0.2 * np.cos(2 * 2 * np.pi * np.asarray(u)), 1.8),
        (SPH, lambda u: 1.0 + 0.1 * np.sin(3 * 2 * np.pi * np.asarray(u)), 0.9),
        (FLAT, lambda u: 1.0 + 0.2 * np.cos(3 * 2 * np.pi * np.asarray(u)), 0.8),
    ])
    def test_profile_curves_close_and_match(self, space, profile, kmin_floor):
        curve = make_frame_ode_curve(space, profile, n=4096)
        assert curve.closure_gap < 1e-8
        assert curve.kmin >= kmin_floor - 1e-6
        structural_ok(curve, kmin_floor)
        prof_vals = np.asarray(profile(curve.s / curve.total_length))
        ok = np.isfinite(curve.kappa)
        assert float(np.max(np.abs(curve.kappa[ok] - prof_vals[ok]))) < 1e-6

    def test_asymmetric_profile_rejected(self):
        with pytest.raises(NonClosureError):
            make_frame_ode_curve(
                HYP, lambda u: 2.0 + 0.1 * np.cos(2 * np.pi * np.asarray(u)))

    @staticmethod
    def _two_harmonic_run(space, lengths_factor, steps):
        k0 = 2.0 if space is HYP else 1.0

        def profile(u):
            w = 2 * np.pi * np.asarray(u)
            return k0 + 0.3 * np.cos(2 * w) + 0.2 * np.sin(5 * w)

        p0 = space.origin()
        e1, _ = space.frame(p0)
        radius = space.circle_radius_of_curvature(k0)
        length = float(space.circumference(radius))
        lengths = length * np.asarray(lengths_factor, dtype=float)
        return _integrate_frame(space, p0, e1, profile, lengths, 1.0, steps)

    @pytest.mark.parametrize("space", [FLAT, SPH, HYP],
                             ids=lambda s: s.kind.value)
    def test_integrator_fourth_order(self, space):
        ref, coarse, fine = (self._two_harmonic_run(space, 1.0, steps)[0][0]
                             for steps in (16384, 256, 512))
        err_coarse = float(np.max(np.abs(coarse - ref)))
        err_fine = float(np.max(np.abs(fine - ref)))
        # order 4 gives a ratio of 16; a reversed commutator term gives 4
        assert err_coarse >= 12.0 * err_fine
        assert err_fine < 5e-10

    @pytest.mark.parametrize("space", [FLAT, SPH, HYP],
                             ids=lambda s: s.kind.value)
    def test_end_frame_is_isometry(self, space):
        p_end, t_end, _, _ = self._two_harmonic_run(space, [1.0, 7.3], 4096)
        for p, t in zip(p_end, t_end):
            frame = _frame_matrix(space, p, t)
            if space is FLAT:
                rot = frame[:2, 1:]
                defect = rot.T @ rot - np.eye(2)
            elif space is SPH:
                defect = frame.T @ frame - np.eye(3)
            else:
                eta = np.diag([-1.0, 1.0, 1.0])
                defect = frame.T @ eta @ frame - eta
            assert float(np.max(np.abs(defect))) < 1e-12


class TestDiscIntersection:
    def test_coincident_centers_give_circle(self):
        curve = make_disc_intersection(FLAT, [[0.2, 0.1], [0.2, 0.1]], 1.0,
                                       n=1024)
        assert curve.provenance == "disc_intersection"
        assert int(curve.corner.sum()) == 0
        t = FLAT.distance(np.array([0.2, 0.1]), curve.points)
        assert float(np.max(np.abs(t - 1.0))) < 1e-12

    def test_two_centers_equal_lune(self):
        r = 0.35
        centers = [[0.0, -(1.0 - r)], [0.0, (1.0 - r)]]
        disc = make_disc_intersection(FLAT, centers, 1.0, n=2048)
        lune = make_lune(FLAT, 1.0, r, n=2048)
        d = FLAT.distance(disc.points[:, None, :], lune.points[None, :, :])
        assert float(d.min(axis=1).max()) < 1e-9

    @pytest.mark.parametrize("space", [FLAT, SPH, HYP])
    def test_three_symmetric_centers(self, space):
        k0 = 2.0 if space is HYP else 1.0
        radius = space.circle_radius_of_curvature(k0)
        origin = space.origin()
        e1, e2 = space.frame(origin)
        side = 0.45 * radius
        centers = [space.exp_map(origin, side * (math.cos(a) * e1
                                                 + math.sin(a) * e2))
                   for a in (0.0, 2 * np.pi / 3, 4 * np.pi / 3)]
        curve = make_disc_intersection(space, np.array(centers), k0, n=2048)
        assert int(curve.corner.sum()) == 3
        structural_ok(curve, k0)
        assert abs(curve.kmin - k0) < 1e-7

    def test_far_centers_rejected(self):
        with pytest.raises(CurveGenerationError):
            make_disc_intersection(FLAT, [[0.0, 0.0], [2.5, 0.0]], 1.0)


class TestMeasurement:
    def test_radial_measurement_centered_circle(self):
        curve = make_circle(FLAT, FLAT.origin(), 1.0, n=1024)
        m = measure_radial(curve, FLAT.origin())
        assert float(np.max(m.phi)) < 1e-7
        assert float(np.max(np.abs(m.t - 1.0))) < 1e-12
        assert abs(m.h - 1.0) < 1e-10

    def test_radial_measurement_offset_circle(self):
        curve = make_circle(FLAT, FLAT.origin(), 1.0, n=4096)
        base = np.array([0.7, 0.0])
        m = measure_radial(curve, base)
        assert abs(m.h - 0.3) < 1e-10
        # max angle arcsin(0.7) at the tangency direction
        assert abs(float(np.max(m.phi)) - math.asin(0.7)) < 1e-6

    def test_radial_requires_interior_base(self):
        curve = make_circle(FLAT, FLAT.origin(), 1.0, n=512)
        with pytest.raises(Exception):
            measure_radial(curve, np.array([1.5, 0.0]))

    def test_generated_suite_structure(self, angle_suite):
        # every generated smooth curve: closed, simple-convex, positively
        # oriented, measured kmin above the declared curvature
        for curve, _ in angle_suite:
            v = validate_curve(curve)
            assert v["winding"] == 1
            assert v["closure_gap"] < 1e-8
            assert v["max_tangent_normal_dot"] < 1e-9
            assert v["hemisphere_ok"]
            assert curve.kmin >= curve.k0_declared - 1e-6

    def test_h_matches_dense_resampling_oracle(self):
        # 10x denser regeneration, discrete minimum
        curve = make_support_curve(1.0, {2: (0.06, 0.02), 3: (0.01, 0.0)},
                                   k0_target=0.7, n=4096)
        dense = make_support_curve(1.0, {2: (0.06, 0.02), 3: (0.01, 0.0)},
                                   k0_target=0.7, n=40960)
        base = np.array([0.12, -0.05])
        h = measure_radial(curve, base).h
        h_dense = float(np.min(FLAT.distance(base, dense.points)))
        assert abs(h - h_dense) < 1e-8

    def test_min_distance_refinement_beats_discrete(self):
        curve = make_circle(FLAT, FLAT.origin(), 1.0, n=512)
        base = np.array([0.41, 0.13])
        refined, _ = min_distance_to_curve(curve, base)
        truth = 1.0 - float(np.linalg.norm(base))
        discrete = float(np.min(FLAT.distance(base, curve.points)))
        assert abs(refined - truth) <= abs(discrete - truth) + 1e-14
        assert abs(refined - truth) < 1e-9


class TestOrientationHelpers:
    def test_winding_and_containment(self):
        curve = make_circle(FLAT, FLAT.origin(), 1.0, n=512)
        assert winding_number(FLAT, curve.points, np.array([0.3, 0.2])) == 1
        assert winding_number(FLAT, curve.points, np.array([1.7, 0.0])) == 0
        assert measure_radial(curve, np.array([0.0, -0.4])).h > 0.0
        with pytest.raises(GeometryError):
            measure_radial(curve, np.array([2.0, 0.0]))

    def test_law_of_sines_relation_all_spaces(self):
        # sin(phi) = sn(R-h)/sn(R) sin(alpha) with alpha at the base point
        for space, k0 in [(FLAT, 1.0), (SPH, 1.0), (HYP, 2.0)]:
            radius = space.circle_radius_of_curvature(k0)
            center = space.origin()
            curve = make_circle(space, center, k0, n=2048)
            h = 0.3 * radius
            e1, _ = space.frame(center)
            base = space.exp_map(center, (radius - h) * e1)
            m = measure_radial(curve, base)
            to_sample = space.log_map(base, curve.points)
            axis = -space.log_map(base, center)
            alpha = space.angle_between(base, to_sample,
                                        np.broadcast_to(axis, to_sample.shape))
            ratio = float(space.sn(radius - h) / space.sn(radius))
            err = np.abs(np.sin(m.phi) - ratio * np.sin(alpha))
            assert float(np.max(err)) < 1e-6
