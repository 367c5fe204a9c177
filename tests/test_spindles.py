"""Spindle family: closed forms vs kernel-triangle and golden oracles."""

import math

import numpy as np
import pytest

from sphericity import (GeometryError, SpaceForm, numeric_spindle_optimum,
                        spindle_max_width_alt, spindle_optimum, spindle_rho,
                        spindle_table_rows, spindle_width)
from sphericity.spindles import SPINDLE_COLUMNS

FLAT = SpaceForm.flat()
SPH = SpaceForm.sphere(1.0)
HYP = SpaceForm.hyperbolic(1.0)

CASES = [(FLAT, 1.0), (FLAT, 0.5), (SPH, 1.0), (SPH, 0.4),
         (HYP, 2.0), (HYP, 1.3)]


def triangle_oracle_rho(space, k0, r):
    """Circumradius from the kernel: right triangle with legs (R - r, rho).

    Places the arc center one leg below the section midpoint and checks the
    hypotenuse back to the corner; solved by bisection on the kernel
    distance, fully independent of the closed forms.
    """
    radius = space.circle_radius_of_curvature(k0)
    origin = space.origin()
    e1, e2 = space.frame(origin)
    arc_center = space.exp_map(origin, -(radius - r) * e2)

    def hyp_gap(rho):
        corner = space.exp_map(origin, rho * e1)
        return float(space.distance(arc_center, corner)) - radius

    lo, hi = 0.0, radius
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hyp_gap(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestRho:
    @pytest.mark.parametrize("space,k0", CASES)
    def test_endpoints(self, space, k0):
        radius = space.circle_radius_of_curvature(k0)
        assert float(spindle_rho(space, k0, 0.0)) == 0.0
        assert abs(float(spindle_rho(space, k0, radius)) - radius) < 1e-12

    def test_flat_formula(self):
        assert abs(float(spindle_rho(FLAT, 1.0, 0.5))
                   - math.sqrt(0.75)) < 1e-15

    @pytest.mark.parametrize("space,k0", CASES)
    def test_against_triangle_oracle(self, space, k0):
        radius = space.circle_radius_of_curvature(k0)
        for frac in (0.2, 0.5, 0.8):
            r = frac * radius
            closed = float(spindle_rho(space, k0, r))
            assert abs(closed - triangle_oracle_rho(space, k0, r)) < 1e-10

    def test_hyperbolic_cosh_identity(self):
        # cosh(k1 R) = cosh(k1 rho) cosh(k1 (R - r))
        radius = HYP.circle_radius_of_curvature(2.0)
        r = radius / 2
        rho = float(spindle_rho(HYP, 2.0, r))
        assert abs(math.cosh(radius)
                   - math.cosh(rho) * math.cosh(radius - r)) < 1e-14
        assert abs(rho - math.acosh(math.cosh(radius)
                                    / math.cosh(radius - r))) < 1e-14

    def test_sphere_cos_identity(self):
        # cos(k1 R) = cos(k1 rho) cos(k1 (R - r))
        radius = SPH.circle_radius_of_curvature(1.0)
        r = 0.4 * radius
        rho = float(spindle_rho(SPH, 1.0, r))
        assert abs(math.cos(radius)
                   - math.cos(rho) * math.cos(radius - r)) < 1e-14
        assert abs(rho - math.acos(math.cos(radius)
                                   / math.cos(radius - r))) < 1e-14

    def test_domain_error(self):
        with pytest.raises(GeometryError):
            spindle_rho(FLAT, 1.0, 1.5)


class TestWidth:
    @pytest.mark.parametrize("space,k0", CASES)
    def test_nonnegative_and_unimodal(self, space, k0):
        radius = space.circle_radius_of_curvature(k0)
        r = np.linspace(0.0, radius, 1000)
        d = spindle_width(space, k0, r)
        assert float(np.min(d)) >= -1e-12
        assert abs(float(d[0])) < 1e-12 and abs(float(d[-1])) < 1e-12
        # exactly one sign change of the discrete difference
        signs = np.sign(np.diff(d))
        changes = np.sum(np.abs(np.diff(signs[signs != 0])) > 0)
        assert changes == 1

    def test_flat_width_at_optimal_r(self):
        r0 = 1.0 / (2.0 + math.sqrt(2.0))
        assert abs(float(spindle_width(FLAT, 1.0, r0))
                   - (math.sqrt(2.0) - 1.0)) < 1e-15


class TestOptimum:
    def test_flat_closed_form_exact(self):
        opt = spindle_optimum(FLAT, 1.0)
        assert opt.r0 == 1.0 / (1.0 * (2.0 + math.sqrt(2.0)))
        assert opt.d0 == (math.sqrt(2.0) - 1.0) / 1.0

    @pytest.mark.parametrize("space,k0", CASES)
    def test_matches_golden_oracle(self, space, k0):
        opt = spindle_optimum(space, k0)
        r_num, d_num = numeric_spindle_optimum(space, k0)
        assert abs(r_num - opt.r0) < 1e-7
        assert abs(d_num - opt.d0) < 1e-9

    @pytest.mark.parametrize("space,k0", CASES)
    def test_local_maximality(self, space, k0):
        opt = spindle_optimum(space, k0)
        d_star = float(spindle_width(space, k0, opt.r0))
        for eps in (1e-4, -1e-4):
            assert d_star >= float(spindle_width(space, k0, opt.r0 + eps))

    def test_sphere_values(self):
        opt = spindle_optimum(SPH, 1.0)
        theta = math.acos(math.sqrt(math.cos(math.pi / 4)))
        assert abs(opt.r0 - (math.pi / 4 - theta)) < 1e-14
        assert abs(opt.d0 - (2 * theta - math.pi / 4)) < 1e-14
        assert abs(opt.r0 - 0.2135) < 5e-4
        assert abs(opt.d0 - 0.3585) < 5e-4

    def test_hyperbolic_values(self):
        opt = spindle_optimum(HYP, 2.0)
        radius = math.log(3.0) / 2.0
        theta = math.acosh(math.sqrt(math.cosh(radius)))
        assert abs(opt.d0 - (2 * theta - radius)) < 1e-14

    @pytest.mark.parametrize("space,k0", [(SPH, 1.0), (SPH, 0.4),
                                          (HYP, 2.0), (HYP, 1.3)])
    def test_stationarity_identity(self, space, k0):
        # cs(k1 R) = cs(k1 (R - r0))^2 at the maximizer
        opt = spindle_optimum(space, k0)
        lhs = float(space.cs(opt.R))
        rhs = float(space.cs(opt.R - opt.r0)) ** 2
        assert abs(lhs - rhs) < 1e-10


class TestRewrittenForm:
    @pytest.mark.parametrize("k1", [0.5, 0.75, 1.0, 1.5])
    @pytest.mark.parametrize("ratio", [0.4, 0.8, 1.2, 2.0, 4.0])
    def test_sphere_identity_grid(self, k1, ratio):
        space = SpaceForm.sphere(k1)
        k0 = ratio * k1
        assert abs(spindle_max_width_alt(space, k0)
                   - spindle_optimum(space, k0).d0) < 1e-10

    @pytest.mark.parametrize("k1", [0.5, 0.75, 1.0, 1.5])
    @pytest.mark.parametrize("ratio", [1.25, 1.6, 2.2, 3.5, 6.0])
    def test_hyperbolic_identity_grid(self, k1, ratio):
        space = SpaceForm.hyperbolic(k1)
        k0 = ratio * k1
        assert abs(spindle_max_width_alt(space, k0)
                   - spindle_optimum(space, k0).d0) < 1e-10

    def test_euclidean_limit(self):
        flat_d0 = math.sqrt(2.0) - 1.0
        for space in (SpaceForm.sphere(1e-4), SpaceForm.hyperbolic(1e-4)):
            assert abs(spindle_max_width_alt(space, 1.0) - flat_d0) < 1e-6

    def test_flat_rejected(self):
        with pytest.raises(GeometryError):
            spindle_max_width_alt(FLAT, 1.0)


class TestLimits:
    def test_d0_continuous_toward_flat(self):
        flat_d0 = spindle_optimum(FLAT, 1.0).d0
        for kind in (SpaceForm.sphere, SpaceForm.hyperbolic):
            prev_gap = None
            for k1 in (1e-2, 1e-3, 1e-4):
                gap = abs(spindle_optimum(kind(k1), 1.0).d0 - flat_d0)
                if prev_gap is not None:
                    assert gap < prev_gap
                prev_gap = gap
            assert prev_gap < 1e-7


from hypothesis import given, settings, strategies as st


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(["flat", "sphere", "hyperbolic"]),
       k1=st.floats(0.2, 2.0), ratio=st.floats(1.05, 6.0),
       frac=st.floats(0.0, 1.0))
def test_width_dominated_by_optimum_property(kind, k1, ratio, frac):
    if kind == "flat":
        space, k0 = FLAT, ratio
    elif kind == "sphere":
        space, k0 = SpaceForm.sphere(k1), ratio * k1
    else:
        space, k0 = SpaceForm.hyperbolic(k1), ratio * k1
    opt = spindle_optimum(space, k0)
    r = frac * opt.R
    assert float(spindle_width(space, k0, r)) <= opt.d0 + 1e-12


def test_table_rows_schema():
    rows = spindle_table_rows(FLAT, [0.5, 1.0, 2.0], r_count=7)
    assert len(rows) == 21
    assert SPINDLE_COLUMNS == ("space", "k1", "k0", "r", "rho", "d", "r0",
                               "d0")
    assert {len(values) for values in rows} == {len(SPINDLE_COLUMNS)}
    for row in (dict(zip(SPINDLE_COLUMNS, values)) for values in rows):
        assert row["space"] == "flat" and row["k1"] == 0.0
        assert abs(row["d"] - (row["rho"] - row["r"])) < 1e-12
        assert abs(row["d0"] - (math.sqrt(2.0) - 1.0) / row["k0"]) < 1e-14
