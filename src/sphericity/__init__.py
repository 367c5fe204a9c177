"""Numerical certificates for sharp roundness bounds of convex curves.

The package measures, in the three constant-curvature plane geometries and
on rotationally symmetric metrics with pinched curvature, how circle-like a
closed convex curve is: the angle between radial geodesics and outward
normals, and the width of the thinnest concentric annulus enclosing the
curve.  Closed-form sharp bounds are provided together with brute-force
oracles and verifiers that certify measured curves against the bounds.
"""

from .spaceforms import Kind, SpaceForm, karcher_mean
from .errors import (AntipodalPointsError, ConstraintViolation,
                     CurveGenerationError, GeometryError, HypothesisViolation,
                     NonClosureError)
from .curves import (ClosedCurve, RadialMeasurement, make_circle,
                     make_disc_intersection, make_frame_ode_curve, make_lune,
                     make_support_curve, max_distance_to_curve, measure_radial,
                     min_distance_to_curve, winding_number)
from .spindles import (SpindleOptimum, numeric_spindle_optimum,
                       spindle_max_width_alt, spindle_optimum, spindle_rho,
                       spindle_table_rows, spindle_width)
from .bounds import (AngleReport, circle_exact_angle, cos_phi_lower_bound,
                     cos_phi_weak_bound, radial_ode_residuals,
                     verify_angle_bound)
from .layers import LayerReport, incenter, layer_width
from .warped import (MuComparisonReport, WarpedCurve, WarpedMetric,
                     WarpedVerification, make_warped, make_warped_curve,
                     verify_circle_curvature_comparison,
                     verify_radial_bounds)
from .io import load_curve, save_curve

__version__ = "0.1.0"

__all__ = [
    "AngleReport", "AntipodalPointsError", "ClosedCurve",
    "ConstraintViolation", "CurveGenerationError",
    "GeometryError", "HypothesisViolation", "Kind", "LayerReport",
    "MuComparisonReport", "NonClosureError", "RadialMeasurement",
    "SpaceForm", "SpindleOptimum", "WarpedCurve",
    "WarpedMetric", "WarpedVerification", "circle_exact_angle",
    "cos_phi_lower_bound", "cos_phi_weak_bound", "incenter",
    "karcher_mean", "layer_width",
    "make_circle", "make_disc_intersection", "make_frame_ode_curve",
    "make_lune", "make_support_curve", "make_warped", "make_warped_curve",
    "load_curve", "save_curve",
    "max_distance_to_curve", "measure_radial",
    "min_distance_to_curve", "numeric_spindle_optimum",
    "radial_ode_residuals", "spindle_max_width_alt",
    "spindle_optimum", "spindle_rho", "spindle_table_rows",
    "spindle_width", "verify_angle_bound",
    "verify_circle_curvature_comparison", "verify_radial_bounds",
    "winding_number", "__version__",
]
