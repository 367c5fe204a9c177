"""Warped metrics: curvature certification, comparison, bound verification."""

import dataclasses
import math

import numpy as np
import pytest

from sphericity import (CurveGenerationError, GeometryError,
                        HypothesisViolation, make_warped, make_warped_curve,
                        verify_circle_curvature_comparison,
                        verify_radial_bounds)
from sphericity.curves import DEFAULT_SAMPLES
from sphericity.warped import comparison_space
from tests.oracles import warped_curve_kappa_analytic


class TestMakeWarped:
    def test_flat_family(self):
        m = make_warped("flat", T=2.0)
        assert m.k_lo == m.k_hi == 0.0
        assert abs(m.mu(0.5) - 2.0) < 1e-14

    def test_constant_curvature_families(self):
        m = make_warped("hyperbolic", T=2.0, k1=1.0)
        assert abs(m.k_lo + 1.0) < 1e-10 and abs(m.k_hi + 1.0) < 1e-10
        assert abs(m.mu(1.3) - 1.0 / math.tanh(1.3)) < 1e-14
        m2 = make_warped("spherical", T=1.4, k1=1.0)
        assert abs(m2.k_lo - 1.0) < 1e-10 and abs(m2.k_hi - 1.0) < 1e-10

    def test_cubic_band_measured_vs_analytic(self):
        eps = 0.05
        m = make_warped("cubic", T=2.0, eps=eps)
        assert abs(m.k_lo + 6 * eps) < 1e-9
        assert m.k_hi < 0.0
        t = np.linspace(0.01, 2.0, 500)
        analytic = -6 * eps / (1 + eps * t * t)
        # finite-difference curvature against the analytic value
        h = 1e-4
        f, _, fpp = m.warp(t)
        fd = -(m.warp(t + h)[0] - 2 * f + m.warp(t - h)[0]) / (h * h * f)
        assert float(np.max(np.abs(fd - analytic))) < 1e-7
        assert float(np.max(np.abs(-fpp / f - analytic))) < 1e-13

    def test_cubic_mu_value(self):
        m = make_warped("cubic", T=2.0, eps=0.05)
        t = 1.0
        expected = (1 + 0.15) / (1 + 0.05)
        assert abs(m.mu(t) - expected) < 1e-14
        # dominated by the hyperbolic comparison circle curvature
        k1 = math.sqrt(0.3)
        assert m.mu(t) <= k1 / math.tanh(k1 * t)

    def test_perturbed_sin_band_starts_at_one(self):
        m = make_warped("perturbed_sin", T=1.5, delta=0.01)
        assert m.k_lo >= 1.0 - 1e-9
        assert m.k_hi <= (1 + 0.01) / (1 - 0.06) * (1 + 0.03) + 1e-9

    def test_perturbed_sin_delta_out_of_range_refused(self):
        with pytest.raises(CurveGenerationError,
                           match=r"^perturbed_sin requires 0 < delta < 1/6$"):
            make_warped("perturbed_sin", T=1.5, delta=0.2)

    @pytest.mark.parametrize("amp,band,bad", [
        (0.1, "[-2.34315, 0.394714]", 1.3598),
        (0.3, "[-4.74944, 2.32015]", 0.7712)], ids=["above", "below"])
    def test_curvature_leaving_declared_band_refused(self, amp, band, bad):
        # a large bump turns K positive (above the declared [-4, 0]) and,
        # larger still, pushes it below -4 first
        with pytest.raises(CurveGenerationError) as err:
            make_warped("sinh_bump", T=2.0, k1=1.0, amp=amp, center=1.0,
                        width=0.5)
        assert str(err.value) == (f"curvature band {band} leaves the "
                                  f"declared band [-4, 0] at t = {bad:.6f}")
        assert err.value.where == pytest.approx(bad, abs=1e-12)

    def test_warp_positivity_enforced(self):
        with pytest.raises(CurveGenerationError) as err:
            make_warped("spherical", T=3.5, k1=1.0)   # sin vanishes at pi
        assert err.value.where is not None

    @pytest.mark.parametrize("family,params,unread", [
        ("flat", {"k1": 1.0}, "k1"),
        ("spherical", {"k1": 1.0, "k2": 2.0}, "k2"),
        ("cubic", {"eps": 0.05, "epz": 7.0}, "epz"),
        ("perturbed_sin", {"delta": 0.01, "eps": 0.05}, "eps")])
    def test_parameter_the_family_does_not_read_refused(self, family, params,
                                                        unread):
        # an unread parameter once built the metric as if it were absent
        with pytest.raises(CurveGenerationError) as err:
            make_warped(family, T=1.4, **params)
        takes = ", ".join(repr(k) for k in params if k != unread) or "none"
        assert str(err.value) == (f"{unread!r} is not a parameter of family "
                                  f"{family!r}, which takes {takes}")

    def test_bump_family_certified(self):
        m = make_warped("sinh_bump", T=2.0, k1=1.0, amp=0.02, center=1.0,
                        width=0.5)
        assert m.k_hi <= 1e-9
        assert m.k_lo >= -4.0

    @pytest.mark.parametrize("family,params,T", [
        ("flat", {}, 2.0), ("hyperbolic", {"k1": 1.0}, 2.0),
        ("spherical", {"k1": 1.0}, 1.4), ("cubic", {"eps": 0.05}, 2.0),
        ("perturbed_sin", {"delta": 0.01}, 1.5),
        ("sinh_bump", {"k1": 1.0, "amp": 0.02, "center": 1.0, "width": 0.5},
         2.0)])
    def test_warp_derivatives_match_central_differences(self, family, params,
                                                        T):
        # mu, the graph curvature and cos(phi) read f'; K reads f''
        m = make_warped(family, T=T, **params)
        t, h = np.linspace(0.02 * T, 0.98 * T, 500), 1e-5 * T
        _, fp, fpp = m.warp(t)
        (f_lo, fp_lo, _), (f_hi, fp_hi, _) = m.warp(t - h), m.warp(t + h)
        for value, fd in ((fp, (f_hi - f_lo) / (2 * h)),
                          (fpp, (fp_hi - fp_lo) / (2 * h))):
            assert float(np.max(np.abs(fd - value)
                                / np.maximum(1.0, np.abs(value)))) < 1e-8

    def test_mu_refuses_radii_outside_zero_to_T(self):
        m = make_warped("cubic", T=2.0, eps=0.05)
        assert type(m.mu(2.0)) is float
        assert type(m.mu(np.float64(1.0))) is float
        assert m.mu(np.array([0.5, 2.0])).shape == (2,)
        for bad in (0.0, -0.5, 2.0 + 1e-9, [0.5, 2.5]):
            with pytest.raises(GeometryError, match=r"radius must lie in"):
                m.mu(bad)


class TestMuComparison:
    def test_constant_warps_attain_equality(self):
        for fam, params, T in (("hyperbolic", {"k1": 1.0}, 2.0),
                               ("spherical", {"k1": 1.0}, 1.4),
                               ("flat", {}, 2.0)):
            rep = verify_circle_curvature_comparison(
                make_warped(fam, T=T, **params))
            assert rep.passed
            assert float(np.max(np.abs(rep.slack))) < 1e-10

    def test_cubic_dominated(self):
        rep = verify_circle_curvature_comparison(
            make_warped("cubic", T=2.0, eps=0.05))
        assert rep.comparison == "hyperbolic"
        assert abs(rep.k1_used - math.sqrt(0.3)) < 1e-6
        assert rep.min_slack >= -1e-9

    def test_perturbed_sin_dominated(self):
        rep = verify_circle_curvature_comparison(
            make_warped("perturbed_sin", T=1.5, delta=0.01))
        assert rep.comparison == "sphere"
        assert rep.min_slack >= -1e-9

    def test_mixed_band_has_no_comparison(self):
        m = make_warped("cubic", T=2.0, eps=0.05)
        mixed = dataclasses.replace(m, k_lo=-0.1, k_hi=0.1)
        with pytest.raises(HypothesisViolation):
            comparison_space(mixed)


class TestWarpedCurves:
    def test_coordinate_circle_angles_vanish(self):
        m = make_warped("cubic", T=2.0, eps=0.05)
        curve = make_warped_curve(m, 0.9, {})
        ver = verify_radial_bounds(m, curve)
        assert ver.angle_passed and ver.width_passed
        assert abs(ver.d) < 1e-12
        assert abs(ver.min_angle_slack
                   - (1.0 - ver.bound_cos)) < 1e-12

    @pytest.mark.parametrize("family,params", [("flat", {}),
                                               ("cubic", {"eps": 0.05})])
    def test_kappa_matches_analytic_derivatives(self, family, params):
        m = make_warped(family, T=2.0, **params)
        n = DEFAULT_SAMPLES
        for j in (1, 2, 4, 32, 256, n // 4):
            amp = 0.3 * 0.8 / (j * j + 1)
            harmonics = {j: (amp * math.cos(j), amp * math.sin(j))}
            curve = make_warped_curve(m, 0.8, harmonics)
            oracle = warped_curve_kappa_analytic(m, 0.8, harmonics,
                                                 curve.theta)
            assert np.allclose(curve.kappa, oracle, rtol=1e-12, atol=0.0)
            assert curve.kmin <= float(np.min(curve.kappa))
            rho_p = -j * amp * np.sin(j * (curve.theta - 1.0))
            assert np.allclose(curve.rho_p, rho_p, rtol=0.0,
                               atol=1e-11 * j * amp)

    @pytest.mark.parametrize("j,named", [
        (0, "start at j = 1"), (2.5, "order 2.5 is not an integer"),
        (DEFAULT_SAMPLES // 2, "at or above the Nyquist")])
    def test_refuses_orders_outside_one_to_nyquist(self, j, named):
        m = make_warped("flat", T=2.0)
        with pytest.raises(CurveGenerationError, match=named):
            make_warped_curve(m, 0.8, {j: (1e-3, 0.0)})

    def test_circle_kappa_equals_mu(self):
        m = make_warped("perturbed_sin", T=1.5, delta=0.01)
        curve = make_warped_curve(m, 0.7, {})
        assert abs(curve.kmin - m.mu(0.7)) < 1e-9

    def test_overflowing_curvature_refused(self):
        # f^2 overflows in the graph curvature formula
        metric = make_warped("cubic", T=2.0, eps=1e200)
        with pytest.raises(CurveGenerationError):
            make_warped_curve(metric, 0.8, {})

    def test_rho_domain_enforced(self):
        m = make_warped("cubic", T=2.0, eps=0.05)
        with pytest.raises(CurveGenerationError):
            make_warped_curve(m, 1.9, {2: (0.3, 0.0)})

    @pytest.mark.parametrize("family,params,T,rho0", [
        ("cubic", {"eps": 0.05}, 2.0, 0.8),
        ("perturbed_sin", {"delta": 0.01}, 1.5, 0.7),
    ])
    def test_seeded_curves_pass_bounds(self, family, params, T, rho0):
        metric = make_warped(family, T=T, **params)
        rng = np.random.default_rng(99)
        for _ in range(20):
            harmonics = {}
            for j in (2, 3):
                amp = 0.05 * rho0 * rng.uniform(0.2, 1.0) / j
                ph = rng.uniform(0, 2 * np.pi)
                harmonics[j] = (amp * math.cos(ph), amp * math.sin(ph))
            curve = make_warped_curve(metric, rho0, harmonics)
            ver = verify_radial_bounds(metric, curve)
            assert ver.angle_passed and ver.width_passed
            assert ver.min_angle_slack >= -1e-9
            assert ver.width_margin >= -1e-7

    def test_eccentric_curve_rejected_not_judged(self):
        metric = make_warped("cubic", T=2.0, eps=0.05)
        bad = make_warped_curve(metric, 1.0, {2: (0.5, 0.0)})
        with pytest.raises(HypothesisViolation):
            verify_radial_bounds(metric, bad)

    def test_sphere_side_ball_hypothesis(self):
        metric = make_warped("perturbed_sin", T=1.5, delta=0.01)
        k2 = math.sqrt(metric.k_hi)
        # rho reaching past pi/(2 k2) violates the ball hypothesis
        rho0 = np.pi / (2 * k2) * 1.02
        if rho0 < metric.T:
            curve = make_warped_curve(metric, rho0, {})
            with pytest.raises(HypothesisViolation):
                verify_radial_bounds(metric, curve)
