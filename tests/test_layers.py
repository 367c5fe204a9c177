"""Incenter search, annulus widths, and the width-bound verifier."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linprog

from sphericity import (HypothesisViolation, SpaceForm, incenter, layer_width,
                        make_circle, make_disc_intersection, make_lune,
                        max_distance_to_curve, min_distance_to_curve,
                        spindle_optimum)
from sphericity import layers
from sphericity.bounds import guarded_k0, width_check
from sphericity.layers import _contacts, _model_step
from sphericity.search import refine_extremum
from tests.conftest import random_frame_ode_curve, random_support_curve
from tests.oracles import disc_intersection_inradius, smaller_arcs_inside

FLAT = SpaceForm.flat()
SPH = SpaceForm.sphere(1.0)
HYP = SpaceForm.hyperbolic(1.0)


class TestIncenter:
    def test_circle_incenter(self):
        curve = make_circle(FLAT, np.array([0.4, -0.1]), 1.0, n=2048)
        center, r, kkt = incenter(curve)
        assert float(np.linalg.norm(center - [0.4, -0.1])) < 1e-9
        assert abs(r - 1.0) < 1e-8
        assert kkt <= 1e-6

    @pytest.mark.parametrize("space,k0", [(FLAT, 1.0), (SPH, 1.0), (HYP, 2.0)])
    def test_lune_incenter_is_midpoint(self, space, k0):
        r_in = 0.6 * spindle_optimum(space, k0).R
        lune = make_lune(space, k0, r_in, n=2048)
        center, r, kkt = incenter(lune)
        assert float(space.distance(center, lune.hint_center)) < 1e-7
        assert abs(r - r_in) < 1e-7
        assert kkt <= 1e-6

    def test_two_disc_body_matches_lune(self):
        r_in = 0.35
        centers = [[0.0, -(1 - r_in)], [0.0, (1 - r_in)]]
        body = make_disc_intersection(FLAT, centers, 1.0, n=2048)
        _, r, _ = incenter(body)
        assert abs(r - r_in) < 1e-7

    def test_compass_optimality_certificate(self):
        disc_centers = [[0.2873961301448322, -0.10092636423707455],
                        [0.2914176983138768, -0.28730255342448635],
                        [0.09618569595614329, -0.005463733455968511]]
        curves = [random_support_curve(np.random.default_rng(5), n=2048),
                  make_disc_intersection(FLAT, disc_centers, 1.0, n=2048)]
        angles = np.linspace(0.0, 2.0 * np.pi, 72, endpoint=False)
        for curve in curves:
            center, r, kkt = incenter(curve)
            assert kkt <= 1e-6
            for radius in (1e-3, 1e-5):
                for a in angles:
                    probe = center + radius * np.array([np.cos(a), np.sin(a)])
                    assert min_distance_to_curve(curve, probe)[0] <= r + 1e-12

    def test_radii_are_extreme_refined_local_extrema(self):
        rng = np.random.default_rng(20240607)
        random_support_curve(rng, n=2048)
        curve = random_support_curve(rng, n=2048)
        center, r, _ = incenter(curve)
        t = FLAT.distance(center, curve.points)
        rho1, _ = max_distance_to_curve(curve, center)

        def refined(i, mode):
            return refine_extremum(curve.s, t, int(i), mode=mode,
                                   period=curve.total_length)[1]

        before, after = np.roll(t, 1), np.roll(t, -1)
        minima = np.flatnonzero((t <= before) & (t <= after))
        maxima = np.flatnonzero((t >= before) & (t >= after))
        assert r <= min(refined(i, "min") for i in minima) + 1e-12
        assert rho1 >= max(refined(i, "max") for i in maxima) - 1e-12


def _linprog_model_min(u, b, radius):
    """Least linear model at scipy's solution of the step LP.

    HiGHS's feasibility tolerances are absolute (1e-7), so the reference
    solves the LP in units of the box radius.
    """
    lp = linprog([0.0, 0.0, -1.0], A_ub=np.column_stack([u, np.ones(len(u))]),
                 b_ub=b / radius, bounds=[(-1.0, 1.0)] * 2 + [(None, None)],
                 method="highs")
    assert lp.status == 0
    return float(np.min(b - u @ (radius * np.clip(lp.x[:2], -1.0, 1.0))))


class TestModelStep:
    @staticmethod
    def _agrees(u, b, radius):
        delta, predicted = _model_step(u, b, radius)
        assert np.max(np.abs(delta)) <= radius
        assert predicted == pytest.approx(float(np.min(b - u @ delta)),
                                          rel=0.0, abs=1e-15 * radius)
        reference = _linprog_model_min(u, b, radius)
        assert predicted == pytest.approx(reference, rel=0.0,
                                          abs=1e-12 * max(1.0, radius))

    def test_random_instances_match_linprog(self):
        rng = np.random.default_rng(0)
        for i in range(400):
            m = int(rng.integers(1, 8))
            # every third instance has all directions in one half-plane
            span = 0.9 * math.pi if i % 3 == 0 else 2.0 * math.pi
            ang = rng.uniform(0.0, span, m)
            u = np.column_stack([np.cos(ang), np.sin(ang)])
            radius = 10.0 ** rng.uniform(-6.0, -1.0)
            b = rng.uniform(0.0, 3.0 * radius, m) * (i % 5 != 0)
            b[rng.integers(m)] = 0.0
            self._agrees(u, b, radius)

    def test_single_and_parallel_contacts(self):
        u = np.array([[0.6, 0.8]])
        self._agrees(u, np.zeros(1), 1e-3)
        self._agrees(np.array([[1.0, 0.0]]), np.zeros(1), 1e-3)
        par = np.array([[0.6, 0.8], [0.6, 0.8], [-0.6, -0.8]])
        self._agrees(par, np.array([0.0, 1e-4, 2e-4]), 1e-3)
        self._agrees(par, np.zeros(3), 1e-3)

    @pytest.mark.parametrize("space,k0", [(FLAT, 1.0), (SPH, 2.0), (HYP, 2.0)])
    def test_centred_circle_has_thousands_of_contacts(self, space, k0):
        curve = make_circle(space, space.origin(), k0, n=4096)
        f, u, _ = _contacts(curve, curve.hint_center)
        assert len(f) > 2000
        r = float(np.min(f))
        for radius in (1e-6, 0.25 * r):
            self._agrees(u, f - r, radius)


PLANES = [(FLAT, 1.0), (SPH, 1.0), (HYP, 2.0)]


def _disc_body(space, k0, offsets, n):
    """Intersection of the k0-discs about exp_origin(R * offset)."""
    radius = space.circle_radius_of_curvature(k0)
    origin = space.origin()
    e1, e2 = space.frame(origin)
    centers = np.array([space.exp_map(origin, radius * (a * e1 + b * e2))
                        for a, b in offsets])
    return make_disc_intersection(space, centers, k0, n=n), centers, radius


@pytest.fixture
def contact_calls(monkeypatch):
    """Counts the contact evaluations of every incenter search."""
    calls = [0]

    def counted(curve, p):
        calls[0] += 1
        return _contacts(curve, p)

    monkeypatch.setattr(layers, "_contacts", counted)
    return calls


class TestSecondOrderSteps:
    @pytest.mark.parametrize("space,k0", PLANES)
    def test_level_curve_curvature_on_circles(self, space, k0):
        rho = space.circle_radius_of_curvature(k0)
        curve = make_circle(space, space.origin(), k0, n=4096)
        e1, e2 = space.frame(curve.hint_center)
        p = space.exp_map(curve.hint_center, 0.4 * rho * (0.6 * e1 + 0.8 * e2))
        f, u, h = _contacts(curve, p)
        assert len(f) == 1
        assert h[0] == pytest.approx(float(space.mu0(rho - f[0])), rel=1e-6)
        # the distance falls off along t_c as -h s^2 / 2 (5-point stencil)
        q1, q2 = space.frame(p)
        tangent = -u[0, 1] * q1 + u[0, 0] * q2
        eps = 1e-2 * rho
        m = [min_distance_to_curve(curve, space.exp_map(p, k * eps * tangent))[0]
             for k in (-2, -1, 0, 1, 2)]
        second = (-m[0] + 16 * m[1] - 30 * m[2] + 16 * m[3] - m[4]) \
            / (12 * eps ** 2)
        assert -second == pytest.approx(h[0], rel=1e-6)
        nan_kappa = dataclasses.replace(curve, kappa=np.full(curve.n, np.nan))
        assert np.all(_contacts(nan_kappa, p)[2] == 0.0)

    @pytest.mark.parametrize("space,k0,bound", [
        (FLAT, 1.0, 15), (SPH, 1.0, 15), (SPH, 2.0, 15), (HYP, 2.0, 30),
        (HYP, 1.5, 30)])
    def test_off_centre_circle_converges(self, contact_calls, space, k0,
                                         bound):
        radius = space.circle_radius_of_curvature(k0)
        curve = make_circle(space, space.origin(), k0, n=4096)
        center = curve.hint_center
        e1, e2 = space.frame(center)
        for offset in (0.05, 0.3):
            for a in 0.1 + np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False):
                hint = space.exp_map(
                    center, offset * radius * (np.cos(a) * e1 + np.sin(a) * e2))
                contact_calls[0] = 0
                p, r, kkt = incenter(
                    dataclasses.replace(curve, hint_center=hint))
                assert contact_calls[0] <= bound, (offset, a)
                assert abs(r - radius) <= 1e-12 * max(1.0, radius)
                assert float(space.distance(p, center)) <= 1e-12
                assert kkt <= 1e-6

    @pytest.mark.parametrize("space,k0", PLANES)
    def test_three_disc_bodies_converge(self, contact_calls, space, k0):
        rng = np.random.default_rng(7)
        for _ in range(4):
            body, centers, radius = _disc_body(
                space, k0, rng.uniform(-0.3, 0.3, (3, 2)), 4096)
            contact_calls[0] = 0
            _, r, kkt = incenter(body)
            assert contact_calls[0] <= 12
            assert kkt <= 1e-6
            assert abs(r - disc_intersection_inradius(space, centers, radius)) \
                <= 1e-12 * max(1.0, radius)

    @pytest.mark.parametrize("space,k0", PLANES)
    @settings(max_examples=20, deadline=None)
    @given(grid=st.lists(st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
                         min_size=2, max_size=4))
    # bodies on which a second-order step that predicted roundoff once
    # stopped the ascent short of the inradius (H^2 and flat, respectively)
    @example(grid=[(0, 1), (13, 1), (13, -20)])
    @example(grid=[(5, -29), (-12, 23), (-30, 4)])
    def test_disc_intersection_inradius_is_exact(self, space, k0, grid):
        body, centers, radius = _disc_body(space, k0,
                                           0.01 * np.array(grid), 2048)
        _, r, kkt = incenter(body)
        assert abs(r - disc_intersection_inradius(space, centers, radius)) \
            <= 1e-12 * max(1.0, radius)
        assert kkt <= 1e-6


class TestLayerWidth:
    def test_circle_zero_width(self):
        curve = make_circle(FLAT, FLAT.origin(), 1.0, n=2048)
        rep = layer_width(curve)
        assert rep.passed
        assert abs(rep.d) < 1e-9
        assert rep.margin > 0.4

    @pytest.mark.parametrize("space,k0", [(FLAT, 1.0), (SPH, 1.0), (HYP, 2.0)])
    def test_lune_sharpness(self, space, k0):
        opt = spindle_optimum(space, k0)
        lune = make_lune(space, k0, opt.r0, n=4096)
        rep = layer_width(lune)
        assert abs(rep.d - opt.d0) < 1e-5
        assert -1e-7 <= rep.margin
        assert rep.passed

    def test_flat_lune_attains_sqrt2_minus_1(self):
        opt = spindle_optimum(FLAT, 1.0)
        lune = make_lune(FLAT, 1.0, opt.r0, n=4096)
        rep = layer_width(lune)
        assert abs(rep.d - (math.sqrt(2.0) - 1.0)) < 1e-6

    def test_random_bodies_pass(self):
        rng = np.random.default_rng(42)
        bodies = [random_support_curve(rng, n=2048) for _ in range(4)]
        for space in (SPH, HYP):
            bodies.append(random_frame_ode_curve(space, rng, n=2048))
        for space, k0 in PLANES:
            bodies.append(_disc_body(space, k0, rng.uniform(-0.3, 0.3, (3, 2)),
                                     2048)[0])
        for body in bodies:
            rep = layer_width(body)
            assert rep.passed, (body.provenance, rep.margin)
            assert rep.margin >= -1e-7

    def test_one_distance_pass_matches_three_queries(self):
        # the incenter's distances measured once give the report that
        # separate min, max and sampled-max queries give, field for field
        rng = np.random.default_rng(5)
        bodies = [make_lune(space, k0, 0.4 * spindle_optimum(space, k0).R,
                            n=2048) for space, k0 in PLANES]
        bodies += [_disc_body(space, k0, rng.uniform(-0.3, 0.3, (3, 2)),
                              2048)[0] for space, k0 in PLANES]
        bodies.append(random_support_curve(rng, n=2048))
        for body in bodies:
            space = body.space
            k0_used = guarded_k0(space, body.kmin)
            center, _, kkt = incenter(body)
            r, _ = min_distance_to_curve(body, center)
            rho1, _ = max_distance_to_curve(body, center)
            t_max = float(np.max(space.distance(center, body.points)))
            d0, margin, passed = width_check(space, k0_used, rho1 - r, t_max)
            rep = layer_width(body)
            assert np.array_equal(rep.incenter, center)
            assert (rep.r, rep.rho1, rep.d, rep.k0_used, rep.d0, rep.margin,
                    rep.passed, rep.kkt_residual) == (
                r, rho1, rho1 - r, k0_used, d0, margin, passed, kkt)

    def test_hyperbolic_hypothesis_violation(self):
        curve = make_circle(HYP, HYP.origin(), 1.2, n=1024)
        assert layer_width(curve).passed
        with pytest.raises(HypothesisViolation):
            layer_width(dataclasses.replace(curve, kmin=0.7))

    def test_report_dict(self):
        rep = layer_width(make_circle(FLAT, FLAT.origin(), 2.0, n=1024))
        doc = rep.to_dict()
        assert doc["schema"] == "layer_report/2"
        assert doc["passed"] is True
        assert doc["kkt_residual"] <= 1e-6


class TestArcContainment:
    @pytest.mark.parametrize("space,k0", [(FLAT, 1.0), (SPH, 1.0), (HYP, 2.0)])
    def test_random_pairs_inside_bodies(self, space, k0):
        rng = np.random.default_rng(17)
        r_in = 0.55 * spindle_optimum(space, k0).R
        body = make_lune(space, k0, r_in, n=1024)
        center = body.hint_center
        e1, e2 = space.frame(center)
        for _ in range(4):
            off = rng.uniform(-0.4 * r_in, 0.4 * r_in, 4)
            a = space.exp_map(center, off[0] * e1 + off[1] * e2)
            b = space.exp_map(center, off[2] * e1 + off[3] * e2)
            assert smaller_arcs_inside(body, a, b, k0=k0)

    def test_detects_escape_of_tighter_arcs(self):
        # arcs of curvature above the body's own class bulge out of a thin
        # lune: the checker must notice
        thin = make_lune(FLAT, 1.0, 0.05, n=1024)
        a = np.array([-0.25, 0.0])
        b = np.array([0.25, 0.0])
        assert smaller_arcs_inside(thin, a, b, k0=1.0)
        assert not smaller_arcs_inside(thin, a, b, k0=3.0)
