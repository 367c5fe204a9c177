"""Curve generators and measurement: oracles and structural invariants."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sphericity import (AntipodalPointsError, CurveGenerationError,
                        GeometryError, NonClosureError, SpaceForm, curves,
                        make_circle, make_disc_intersection,
                        make_frame_ode_curve, make_lune, make_support_curve,
                        measure_radial, min_distance_to_curve,
                        spindle_optimum, spindle_rho, winding_number)
from sphericity.cli import main
from sphericity.curves import (_PERIOD_STEPS, _SCAN_BLOCK, _compose,
                               _detect_symmetry_order, _expm1_traceless3,
                               _frame_generators, _frame_matrix,
                               _graph_coefficients, _integrate_frame,
                               _period_rotation, _prefix_products,
                               _support_rho_dense, _window_fit_kappa,
                               corner_band)
from tests.conftest import frame_ode_curve_and_floor
from tests.oracles import (_fixed_point, _rotation_defect,
                           detect_symmetry_order_loop, validate_curve,
                           window_fit_kappa_lapack, winding_number_chart)

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

    @pytest.mark.parametrize("m", [512, 600, 1000])
    def test_rejects_orders_at_or_above_nyquist(self, m):
        # n = 1024 samples alias them: m = 600 (exact kmin 1/1.4 = 0.714)
        # measured kmin 0.844, m = 1000 measured 0.9997
        with pytest.raises(CurveGenerationError,
                           match=f"order {m} is at or above the Nyquist"
                           ) as err:
            make_support_curve(1.0, {m: (0.4 / (m * m - 1), 0.0)},
                               k0_target=0.7, n=1024)
        assert err.value.where == m

    def test_accepts_order_below_nyquist(self):
        curve = make_support_curve(1.0, {511: (0.4 / (511 ** 2 - 1), 0.0)},
                                   k0_target=0.7, n=1024)
        assert curve.n == 1024

    def test_rejects_non_integer_order(self):
        with pytest.raises(CurveGenerationError, match="not an integer"):
            make_support_curve(1.0, {2.5: (0.01, 0.0)}, k0_target=0.5)

    def test_aliased_order_refused_by_cli(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"seed": 0, "space": {"kind": "flat", "k1": 0.0},
             "generator": {"provenance": "support_function", "a0": 1.0,
                           "harmonics": {"600": [0.4 / (600 ** 2 - 1), 0.0]},
                           "k0_target": 0.7, "n": 1024}}))
        assert main(["verify-angle", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "order 600" in err and len(err.splitlines()) == 1


@settings(max_examples=150, deadline=None)
@given(a0=st.floats(0.1, 10.0),
       terms=st.dictionaries(st.integers(2, 64),
                             st.tuples(st.floats(-0.5, 0.5),
                                       st.floats(-0.5, 0.5)), max_size=4),
       ratio=st.floats(0.5, 1.5))
def test_spectral_rho_matches_pointwise(a0, terms, ratio):
    # the admissibility check's one-FFT rho against h + h'' summed at each
    # dense angle, and both checks' refusals away from the bounds
    n = 1024
    n_dense = 8 * n
    harmonics = {m: (a0 * a / (m * m - 1), a0 * b / (m * m - 1))
                 for m, (a, b) in terms.items()}
    theta = 2.0 * np.pi * np.arange(n_dense) / n_dense
    rho = np.full(n_dense, a0)
    scale = a0
    for m, (am, bm) in harmonics.items():
        rho += (1 - m * m) * (am * np.cos(m * theta) + bm * np.sin(m * theta))
        scale += (m * m - 1) * math.hypot(am, bm)
    spectral = _support_rho_dense(a0, harmonics, n_dense)
    assert float(np.max(np.abs(spectral - rho))) <= 1e-13 * scale

    top = float(np.max(rho))
    k0_target = 1.0 / (ratio * top) if top > 0.0 else 1.0
    ceiling = 1.0 / k0_target + 1e-12
    band = 1e-12 * scale
    if min(abs(float(np.min(rho))), abs(top - ceiling)) <= band:
        return
    pointwise_refuses = bool(np.any((rho <= 0.0) | (rho > ceiling)))
    try:
        make_support_curve(a0, harmonics, k0_target=k0_target, n=n)
        refused = False
    except CurveGenerationError as err:
        refused = "violates 0 < h + h''" in str(err)
    assert refused == pointwise_refuses


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

    @pytest.mark.parametrize("space,k", [(FLAT, 0.0), (SPH, -0.1),
                                         (HYP, 1.0)],
                             ids=["flat", "sphere", "hyperbolic"])
    def test_profile_minimum_of_no_closed_circle_rejected(self, space, k):
        with pytest.raises(GeometryError, match="circle"):
            make_frame_ode_curve(
                space, lambda u: k + 0.05 * (1 + np.cos(4 * np.pi * u)))

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
        d, _, _ = _integrate_frame(space, p0, e1, profile, lengths, 1.0,
                                   steps)
        frames = _frame_matrix(space, p0, e1) @ (np.eye(3) + d)
        scale = 1.0 if space is FLAT else space.k1
        return frames[:, :space.dim, 0] / scale, frames[:, :space.dim, 1]

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

    @staticmethod
    def _isometry_defect(space, p, t):
        """How far the frame at (p, T) is from an isometry."""
        frame = _frame_matrix(space, p, t)
        if space is FLAT:
            rot = frame[:2, 1:]
            defect = rot.T @ rot - np.eye(2)
        elif space is SPH:
            defect = frame.T @ frame - np.eye(3)
        else:
            eta = np.diag([-1.0, 1.0, 1.0])
            defect = frame.T @ eta @ frame - eta
        return float(np.max(np.abs(defect)))

    @pytest.mark.parametrize("space", [FLAT, SPH, HYP],
                             ids=lambda s: s.kind.value)
    def test_end_frame_is_isometry(self, space):
        p_end, t_end = self._two_harmonic_run(space, [1.0, 7.3], 4096)
        for p, t in zip(p_end, t_end):
            assert self._isometry_defect(space, p, t) < 1e-12

    @pytest.mark.parametrize("count", [1, _SCAN_BLOCK - 1, _SCAN_BLOCK + 1,
                                       3 * _SCAN_BLOCK + 7, 683])
    @pytest.mark.parametrize("space", [FLAT, SPH, HYP],
                             ids=lambda s: s.kind.value)
    def test_blocked_scan_matches_sequential_product(self, space, count):
        # step factors of a curve of length 2 with curvature in [0.5, 2.5]:
        # the blocked scan against the running product, one step at a time,
        # for counts the block size does not divide
        rng = np.random.default_rng(count)
        g0, g1 = _frame_generators(space)
        kappa = rng.uniform(0.5, 2.5, size=(count, 1, 1, 1))
        incs = _expm1_traceless3((2.0 / count) * (g0 + kappa * g1))
        ref = np.array(incs)
        for i in range(1, count):
            ref[i] = _compose(ref[i - 1], incs[i])
        assert float(np.max(np.abs(_prefix_products(incs) - ref))) <= 1e-14

    @pytest.mark.parametrize("space", [FLAT, SPH, HYP],
                             ids=lambda s: s.kind.value)
    def test_stored_frames_are_isometries(self, space):
        # a period of 3 * _SCAN_BLOCK + 7 samples, two steps each
        k0 = 2.0 if space is HYP else 1.0
        p0 = space.origin()
        e1, _ = space.frame(p0)
        length = float(space.circumference(
            space.circle_radius_of_curvature(k0)))
        count = 3 * _SCAN_BLOCK + 7
        _, points, tangents = _integrate_frame(
            space, p0, e1, lambda u: k0 + 0.2 * np.cos(2 * np.pi * u),
            length, 1.0, 2 * count, store_every=2)
        assert points.shape == (count, 1, space.dim)
        for p, t in zip(points[:, 0], tangents[:, 0]):
            assert self._isometry_defect(space, p, t) < 1e-12


    @staticmethod
    def _check_period_rotation(space, d):
        """_period_rotation of the maps d against the eigenvector reference
        on their ambient matrices; returns how many carried a rotation."""
        p0 = space.origin()
        e1, _ = space.frame(p0)
        f0 = _frame_matrix(space, p0, e1)
        scale = 1.0 if space is FLAT else space.k1
        sin, cos, a = _period_rotation(space, d)
        rotations = 0
        for i in range(len(d)):
            mat = f0 @ (np.eye(3) + d[i]) @ np.linalg.inv(f0)
            ref_sin, ref_cos = _rotation_defect(space, mat, p0, 0.0)
            if math.isnan(ref_sin):
                assert np.isnan(sin[i]) and np.isnan(cos[i])
                assert np.all(np.isnan(a[i]))
                continue
            rotations += 1
            assert abs(sin[i] - ref_sin) <= 1e-12
            assert abs(cos[i] - ref_cos) <= 1e-12
            center = (f0 @ a[i])[:space.dim] / scale
            ref_center = _fixed_point(space, mat, p0)
            assert float(np.max(np.abs(center - ref_center))) <= 1e-12
        return rotations

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("space,k0", [
        (FLAT, 1.0), (SpaceForm.sphere(0.4), 0.5), (SPH, 1.0),
        (SpaceForm.sphere(2.5), 1.5), (HYP, 2.0)],
        ids=["flat", "sphere0.4", "sphere1", "sphere2.5", "hyperbolic"])
    def test_period_rotation_matches_reference(self, space, k0, m):
        # the closure scan's 41 candidate lengths around the mean-curvature
        # circle length, read in closed form and by the eigenvector reference
        def profile(u):
            return k0 + 0.15 * k0 * np.cos(2 * np.pi * m * np.asarray(u))

        guess = float(space.circumference(space.circle_radius_of_curvature(k0)))
        p0 = space.origin()
        e1, _ = space.frame(p0)
        d, _, _ = _integrate_frame(space, p0, e1, profile,
                                   np.linspace(0.55, 1.8, 41) * guess,
                                   1.0 / m, _PERIOD_STEPS)
        assert self._check_period_rotation(space, d) == 41

    @pytest.mark.parametrize("space", [FLAT, SPH, HYP],
                             ids=lambda s: s.kind.value)
    def test_period_rotation_nan_without_rotation(self, space):
        # maps within 1e-10 of the identity carry no rotation to read, and
        # neither does a translation (a boost along T on the hyperbolic
        # plane, a shift along T on the flat one)
        g0, g1 = _frame_generators(space)
        d = _expm1_traceless3(np.array([1e-10 * (g0 + g1), 1e-11 * g1,
                                        0.7 * g0, 1e-10 * g0]))
        if space is SPH:
            d = d[[0, 1, 3]]                # a sphere "shift" is a rotation
        assert self._check_period_rotation(space, d) == 0

    @pytest.mark.parametrize("k1", [0.3, 1.0, 10.0])
    @pytest.mark.parametrize("k0", [0.0, 1e-12, 1e-6, 1e-3])
    def test_great_circle_closure(self, k0, k1):
        # near and at k0 = 0 the centre lies a quarter turn from the start
        # point, where reading the angle through a0 = cos(distance) fails
        curve = make_frame_ode_curve(SpaceForm.sphere(k1),
                                     lambda u: k0 + 0.0 * np.asarray(u),
                                     n=1024)
        turns = curve.total_length * math.hypot(k0, k1) / (2 * math.pi)
        assert abs(turns - 1.0) <= 1e-13

    @pytest.mark.parametrize("k0,amp,m,n", [(1.001, 0.0009, 3, 1024),
                                            (1.002, 0.001, 2, 4096)])
    def test_hyperbolic_closure_gap_is_measured(self, tmp_path, capsys,
                                                k0, amp, m, n):
        # profiles barely above k1 on H^2(1): the replicated curve misses
        # its start point by far more than 1e-8 (and leaves the hyperboloid)
        def profile(u):
            return k0 + amp * np.cos(2 * np.pi * m * np.asarray(u))

        with pytest.raises(NonClosureError) as err:
            make_frame_ode_curve(HYP, profile, n=n)
        assert err.value.residual > 1e-8
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"seed": 0, "space": {"kind": "hyperbolic", "k1": 1.0},
             "generator": {"provenance": "frame_ode", "k0": k0, "n": n,
                           "terms": [[m, amp, 0.0]]}}))
        assert main(["verify-angle", "--config", str(cfg)]) == 1
        assert "residual=" in capsys.readouterr().err

    def test_root_search_without_convergence_is_non_closure(
            self, tmp_path, capsys, monkeypatch):
        # a closure solve cut short is refused with its last |defect|, and
        # the CLI exits 1 with one error line, not a traceback
        monkeypatch.setattr(curves, "_ROOT_MAXITER", 1)
        with pytest.raises(NonClosureError, match="did not converge") as err:
            make_frame_ode_curve(SPH, lambda u: 1.2 + 0.1 * np.cos(
                6 * np.pi * np.asarray(u)), n=256)
        assert 0.0 < err.value.residual < 1.0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"seed": 0, "space": {"kind": "sphere", "k1": 1.0},
             "generator": {"provenance": "frame_ode", "k0": 1.2, "n": 256,
                           "terms": [[3, 0.1, 0.0]]}}))
        assert main(["verify-angle", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: root search did not converge")
        assert len(err.splitlines()) == 1 and "residual=" in err

    @staticmethod
    def _record_candidates(monkeypatch):
        """Batch sizes and lengths of the closure solve's integrations."""
        batches = []

        def record(space, p0, t0, profile, lengths, u_end, steps,
                   store_every=None):
            if store_every is None:
                batches.append([float(x) for x in np.atleast_1d(lengths)])
            return _integrate_frame(space, p0, t0, profile, lengths, u_end,
                                    steps, store_every)

        monkeypatch.setattr(curves, "_integrate_frame", record)
        return batches

    @pytest.mark.parametrize("space,k0", [(FLAT, 1.0), (SPH, 1.2),
                                          (HYP, 2.0)],
                             ids=["flat", "sphere", "hyperbolic"])
    def test_profile_work_per_curve(self, space, k0):
        # the symmetry screen (two calls, 1,585 points), the 2048-point
        # mean, the minimum search (three calls of 257 points, then at most
        # 20 golden-section steps), one table for the closure solve (1,024
        # points) and one for the final pass (5,460): about 55 calls and
        # 28k points when every order was tested on every point, the
        # golden section ran from the 2048-point grid and every closure
        # length evaluated the profile again
        sizes = []

        def profile(u):
            sizes.append(np.size(u))
            return k0 + 0.1 * np.cos(6 * np.pi * np.asarray(u))

        make_frame_ode_curve(space, profile, n=4096)
        assert len(sizes) <= 26
        assert sum(sizes) <= 11_000

    @staticmethod
    def _frame_config(tmp_path, kind, k0, terms, n):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"seed": 0, "space": {"kind": kind,
                                  "k1": 0.0 if kind == "flat" else 1.0},
             "generator": {"provenance": "frame_ode", "k0": k0, "n": n,
                           "terms": terms}}))
        return str(cfg)

    @pytest.mark.parametrize("n,multiple", [(512, 640), (4096, 4096)])
    def test_aliased_terms_refused_by_cli(self, tmp_path, capsys, n,
                                          multiple):
        # at n = 512 the 640-fold term read kmin 1.1973 against the exact
        # 1.15, and at n = 4096 the samples do not see the 4096-fold term
        # at all (kmin 1.2000); both exited 0
        cfg = self._frame_config(tmp_path, "sphere", 1.2,
                                 [[multiple, 0.05, 0]], n)
        assert main(["verify-angle", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "'generator.terms'" in err
        assert f"multiple {multiple} is at or above the Nyquist" in err

    def test_term_below_nyquist_accepted_by_cli(self, tmp_path):
        cfg = self._frame_config(tmp_path, "sphere", 1.2, [[255, 0.05, 0]],
                                 512)
        assert main(["verify-angle", "--config", cfg]) == 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kind,k0,terms,cause", [
        ("sphere", 1.2, [[3, 1e308, 0]], "curvature profile is 1e+308"),
        ("flat", 1e-300, [[3, 1e-301, 0]],
         "frame-ODE step generators overflow")], ids=["huge", "tiny"])
    def test_overflowing_profiles_refused_without_warnings(
            self, tmp_path, capsys, kind, k0, terms, cause):
        # these printed numpy RuntimeWarnings (an overflowing symmetry
        # mismatch, overflowing step generators) before their error line,
        # and the tiny one blamed the closure bracket
        cfg = self._frame_config(tmp_path, kind, k0, terms, 4096)
        assert main(["verify-angle", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cause}")
        assert len(err.splitlines()) == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_profile_refused(self):
        def profile(u):
            u = np.asarray(u, dtype=float)
            return np.where(u < 0.5, 1.2, np.inf) + 0.0 * u

        with pytest.raises(CurveGenerationError,
                           match="curvature profile is inf at u = 0.5"):
            make_frame_ode_curve(SPH, profile)

    # roots 0.76% above and 0.57% below the mean-curvature circle length
    FAR_ROOTS = [
        (SPH, lambda u: 1.0 + 0.6 * np.cos(4 * np.pi * np.asarray(u))),
        (HYP, lambda u: 2.0 + 0.8 * np.cos(4 * np.pi * np.asarray(u)))]

    @pytest.mark.parametrize("space,profile", [
        (FLAT, lambda u: 1.0 + 0.2 * np.cos(6 * np.pi * np.asarray(u))),
        (SPH, lambda u: 1.2 + 0.1 * np.cos(6 * np.pi * np.asarray(u))),
        (HYP, lambda u: 2.0 + 0.15 * np.cos(6 * np.pi * np.asarray(u))),
        *FAR_ROOTS], ids=["flat", "sphere", "hyperbolic", "sphere-far",
                          "hyperbolic-far"])
    def test_closure_solve_integrates_each_length_once(self, monkeypatch,
                                                       space, profile):
        # Brent reads the bracket ends off the scan instead of integrating
        # them again
        batches = self._record_candidates(monkeypatch)
        make_frame_ode_curve(space, profile, n=256)
        lengths = [x for batch in batches for x in batch]
        assert len(lengths) == len(set(lengths))
        assert len(batches[0]) == 2

    @pytest.mark.parametrize("space", [FLAT, SPH, HYP],
                             ids=lambda s: s.kind.value)
    def test_first_stage_brackets_random_curves(self, monkeypatch, space):
        # the fixtures' random profiles all close within 0.5% of the
        # mean-curvature circle length: one two-length integration, then
        # Brent on single lengths
        batches = self._record_candidates(monkeypatch)
        rng = np.random.default_rng(20240504)
        for _ in range(8):
            batches.clear()
            curve = frame_ode_curve_and_floor(space, rng, n=256)[0]
            assert curve.closure_gap <= 1e-8
            assert [len(b) for b in batches] == [2] + [1] * (len(batches) - 1)

    @pytest.mark.parametrize("space,profile", FAR_ROOTS,
                             ids=["sphere", "hyperbolic"])
    def test_far_root_matches_wide_stages_alone(self, monkeypatch, space,
                                                profile):
        batches = self._record_candidates(monkeypatch)
        curve = make_frame_ode_curve(space, profile, n=256)
        assert [len(b) for b in batches[:2]] == [2, 13]
        monkeypatch.setattr(curves, "_BRACKET_STAGES",
                            curves._BRACKET_STAGES[1:])
        wide = make_frame_ode_curve(space, profile, n=256)
        guess = float(space.circumference(
            space.circle_radius_of_curvature(float(np.mean(
                profile(np.linspace(0.0, 1.0, 2048, endpoint=False)))))))
        assert abs(curve.total_length - wide.total_length) <= 1e-13 * guess


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

    def test_generated_suite_structure(self, support_suite, frame_ode_suite):
        # every generated smooth curve: closed, simple-convex, positively
        # oriented, measured kmin above the floor it was drawn to meet
        for curve, _, floor in support_suite + frame_ode_suite:
            v = validate_curve(curve)
            assert v["winding"] == 1
            assert v["closure_gap"] < 1e-8
            assert v["max_tangent_normal_dot"] < 1e-9
            assert v["hemisphere_ok"]
            assert curve.kmin >= floor - 1e-6

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


# ---------------------------------------------------------------------------
# Closed-form curvature window fit, azimuth winding number, one-call
# symmetry detection: each against the formulation it replaced
# ---------------------------------------------------------------------------

def _cos_profile(k0, terms):
    def profile(u):
        u = np.asarray(u, dtype=float)
        out = np.full_like(u, k0)
        for mult, amp, ph in terms:
            out = out + amp * np.cos(2.0 * np.pi * mult * u + ph)
        return out
    return profile


def _generated(space, kind, phase, n):
    """One curve of each generator; ``phase`` turns its construction."""
    k0 = 2.0 if space is HYP else 1.2
    radius = space.circle_radius_of_curvature(k0)
    if kind == "circle":
        return make_circle(space, space.origin(), k0, n=n, phase=phase)
    if kind == "lune":
        return make_lune(space, k0, (0.5 + 0.1 * phase) * radius, n=n)
    if kind == "frame_ode":
        return make_frame_ode_curve(
            space, _cos_profile(k0 + 0.1, [(3, 0.1, phase)]), n=n)
    if kind == "disc_intersection":
        e1, e2 = space.frame(space.origin())
        angles = phase + np.array([0.0, 2.1, 4.0])
        centers = [space.exp_map(space.origin(), 0.2 * radius
                                 * (math.cos(a) * e1 + math.sin(a) * e2))
                   for a in angles]
        return make_disc_intersection(space, np.array(centers), k0, n=n)
    return make_support_curve(
        1.0, {2: (0.03 * math.cos(phase), 0.03 * math.sin(phase)),
              3: (-0.008, 0.012)}, k0_target=0.8, n=n)


_FIT_CASES = [(space, kind) for space in (FLAT, SPH, HYP)
              for kind in ("circle", "lune", "frame_ode", "disc_intersection")]
_FIT_CASES.append((FLAT, "support"))


class TestWindowFit:
    @pytest.mark.parametrize("n", [64, 1024, 4096])
    @pytest.mark.parametrize(
        "space,kind", _FIT_CASES,
        ids=[f"{s.kind.value}-{k}" for s, k in _FIT_CASES])
    def test_matches_lapack_oracle(self, space, kind, n):
        for phase in (0.0, 0.7, 2.3):
            curve = _generated(space, kind, phase, n)
            args = (space, curve.points, curve.tangents, curve.normals_out)
            oracle = window_fit_kappa_lapack(*args)
            rel = np.abs(_window_fit_kappa(*args) - oracle) / np.abs(oracle)
            assert float(np.max(rel)) <= 1e-13, (phase, float(np.max(rel)))

    @pytest.mark.parametrize("h", [1e-1, 1e-3, 1e-6])
    def test_exact_quartic_recovered(self, h):
        # nodes of y = c1 x + c2 x^2/2 + c3 x^3/6 + c4 x^4/24 in flat normal
        # coordinates, unevenly spaced: the cubic through (x, y/x) is exact
        rng = np.random.default_rng(7)
        c = rng.uniform(-2.0, 2.0, size=(4, 50))
        x = h * (np.array([-2.0, -1.0, 1.0, 2.0])[:, None]
                 + rng.uniform(-0.3, 0.3, size=(4, 50)))
        y = x * (c[0] + x * (c[1] / 2 + x * (c[2] / 6 + x * c[3] / 24)))
        c1, c2 = _graph_coefficients(x, y)
        eps = np.finfo(float).eps
        # roundoff of y (relative eps) reaches c1 through z = y / x, about
        # |y| / h, and c2 through one more factor 1 / h
        scale = np.max(np.abs(y), axis=0) / h
        assert np.all(np.abs(c1 - c[0]) <= 16 * eps * scale)
        assert np.all(np.abs(c2 - c[1]) <= 16 * eps * scale / h)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "space,k0,n", test_degenerate_sampling_refused.pytestmark[0].args[1])
    def test_degenerate_sampling_refused_without_warnings(self, space, k0, n):
        # that test, unedited and on its own cases, with warnings as errors
        test_degenerate_sampling_refused(space, k0, n)

    def test_underflowing_window_refused_though_measurable(self):
        # at k0 = 1e100 the closed form still reads the curvature, but the
        # LAPACK fit found its x^4/24 column zero and refused the circle
        radius = 1.0 / 1e100
        alphas = 2.0 * np.pi * np.arange(64) / 64
        dirs = np.stack([np.cos(alphas), np.sin(alphas)], axis=-1)
        tangents = np.stack([-dirs[:, 1], dirs[:, 0]], axis=-1)
        x = radius * np.sin(alphas[[-2, -1, 1, 2]])[:, None]
        y = radius * (1.0 - np.cos(alphas[[-2, -1, 1, 2]]))[:, None]
        _, c2 = _graph_coefficients(x, y)
        assert abs(float(c2[0]) / 1e100 - 1.0) < 1e-3
        with pytest.raises(CurveGenerationError, match="singular"):
            _window_fit_kappa(FLAT, radius * dirs, tangents, dirs)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_refusal_set_unchanged(self):
        # flat circles at n = 64: the LAPACK fit measured k0 = 1e10 and
        # 1e79, refused 1e80 (x^4/24 underflows) and read NaN in every
        # window at 1e-300 (x^4/24 overflows), which left none to measure
        for k0 in (1e10, 1e79):
            curve = make_circle(FLAT, FLAT.origin(), k0, n=64)
            assert abs(curve.kmin / k0 - 1.0) < 1e-4
        with pytest.raises(CurveGenerationError, match="singular"):
            make_circle(FLAT, FLAT.origin(), 1e80, n=64)
        with pytest.raises(CurveGenerationError, match="no corner-free"):
            make_circle(FLAT, FLAT.origin(), 1e-300, n=64)


class TestAzimuthWinding:
    @pytest.mark.parametrize("space", [FLAT, SPH, HYP],
                             ids=lambda s: s.kind.value)
    def test_matches_chart_oracle(self, space):
        rng = np.random.default_rng(11)
        k0 = 2.0 if space is HYP else 1.2
        radius = space.circle_radius_of_curvature(k0)
        curves = [make_circle(space, space.origin(), k0, n=1024),
                  make_lune(space, k0, 0.4 * radius, n=1024)]
        e1, e2 = space.frame(space.origin())
        for curve in curves:
            # inside, just outside and far from the curve
            for lo, hi in ((0.0, 0.35), (1.05, 1.5), (2.0, 2.5)):
                r = radius * rng.uniform(lo, hi, size=50)
                a = rng.uniform(0.0, 2.0 * np.pi, size=50)
                for p in space.exp_map(space.origin(), r[:, None] * (
                        np.cos(a)[:, None] * e1 + np.sin(a)[:, None] * e2)):
                    assert winding_number(space, curve.points, p) == \
                        winding_number_chart(space, curve.points, p)

    def test_antipodal_point_refused_on_sphere(self):
        curve = make_circle(SPH, SPH.origin(), 1.2, n=256)
        antipode = -curve.points[17]
        for chart in (winding_number, winding_number_chart):
            with pytest.raises(AntipodalPointsError):
                chart(SPH, curve.points, antipode)
        nearby = SPH.exp_map(antipode, 1e-6 * SPH.frame(antipode)[0])
        assert winding_number(SPH, curve.points, nearby) == \
            winding_number_chart(SPH, curve.points, nearby)


class TestSymmetryOrder:
    @pytest.mark.parametrize("terms,order", [
        ([(2, 0.3, 0.1)], 2), ([(3, 0.2, 0.0), (6, 0.05, 1.0)], 3),
        ([(7, 0.1, 2.0)], 7), ([(64, 0.01, 0.5)], 64),
        ([(3, 0.2, 0.0), (7, 0.1, 0.4)], 0)], ids=["m2", "m3", "m7", "m64",
                                                  "none"])
    def test_matches_loop_with_two_calls(self, terms, order):
        calls = []
        profile = _cos_profile(1.5, terms)

        def counted(u):
            calls.append(np.shape(u))
            return profile(u)

        found = _detect_symmetry_order(counted)
        assert found == detect_symmetry_order_loop(profile)
        assert found[0] == order
        assert len(calls) == 2

    def test_constant_scalar_profile(self):
        # a profile may return one scalar for the whole grid
        assert _detect_symmetry_order(lambda u: 1.5) == (64, 0.0) \
            == detect_symmetry_order_loop(lambda u: 1.5)

    @settings(max_examples=150, deadline=None)
    @given(m=st.integers(2, 64), data=st.data())
    def test_screen_matches_loop_on_cosine_profiles(self, m, data):
        # m-fold cosine terms with multiples up to 700, and on some draws a
        # term of size 1e-12 to 1e-8 that breaks the symmetry
        terms = [(m * data.draw(st.integers(1, 700 // m)),
                  data.draw(st.floats(0.01, 0.3)),
                  data.draw(st.floats(0.0, 2.0 * math.pi)))
                 for _ in range(data.draw(st.integers(1, 3)))]
        if data.draw(st.booleans()):
            terms.append((data.draw(st.integers(1, 700).filter(
                lambda j: j % m)), 10.0 ** data.draw(st.floats(-12.0, -8.0)),
                data.draw(st.floats(0.0, 2.0 * math.pi))))
        profile = _cos_profile(1.5, terms)
        assert _detect_symmetry_order(profile) == \
            detect_symmetry_order_loop(profile)

    def test_near_symmetric_profiles_match_loop(self):
        # a 1-fold term of size eps breaks the 3-fold symmetry by a relative
        # mismatch of about eps * sqrt(3) / 1.6, around the 1e-10 threshold
        found = set()
        for eps in np.geomspace(3e-11, 3e-10, 12):
            profile = _cos_profile(1.5, [(3, 0.1, 0.0), (1, eps, 0.3)])
            m, mismatch = _detect_symmetry_order(profile)
            assert (m, mismatch) == detect_symmetry_order_loop(profile)
            found.add(m)
        assert found == {0, 3}
