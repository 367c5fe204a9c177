"""Beyond constant curvature: rotationally symmetric pinched metrics.

When the Gaussian curvature of dt^2 + f(t)^2 dtheta^2 keeps one sign, the
coordinate circles are dominated by the comparison plane's circles, and
pole-centered convex curves obey the same angle and width bounds as in
that plane.  Curves that break the curvature hypothesis are rejected, not
judged.
"""

from sphericity import (HypothesisViolation, make_warped, make_warped_curve,
                        verify_circle_curvature_comparison,
                        verify_radial_bounds)

print("=== certified metric families ===")
for family, params, T in (("cubic", {"eps": 0.05}, 2.0),
                          ("perturbed_sin", {"delta": 0.01}, 1.5),
                          ("sinh_bump", {"k1": 1.0, "amp": 0.02,
                                         "center": 1.0, "width": 0.5}, 2.0)):
    metric = make_warped(family, T=T, **params)
    print(f"{family}: measured curvature band "
          f"[{metric.k_lo:+.6f}, {metric.k_hi:+.6f}]")
    comp = verify_circle_curvature_comparison(metric)
    print(f"  circle curvature dominated by the {comp.comparison} plane "
          f"(k1 = {comp.k1_used:.4f}): min slack {comp.min_slack:.2e}")

print("\n=== bounds on a pole-centered curve (cubic metric) ===")
metric = make_warped("cubic", T=2.0, eps=0.05)
print(f"coordinate circle at t = 1: curvature {metric.mu(1.0):.6f}")
curve = make_warped_curve(metric, 0.8, {2: (0.04, 0.0), 3: (0.0, 0.015)})
ver = verify_radial_bounds(metric, curve)
print(f"curve kmin = {curve.kmin:.6f}, h = {ver.h:.6f}")
print(f"angle bound ({ver.comparison} comparison): cos(phi) >= "
      f"{ver.bound_cos:.6f}, min slack {ver.min_angle_slack:.4f}")
print(f"width: d = {ver.d:.6f} <= d0 = {ver.d0:.6f} "
      f"(margin {ver.width_margin:.4f})")

print("\n=== hypothesis-violating curve is rejected ===")
eccentric = make_warped_curve(metric, 1.0, {2: (0.5, 0.0)})
try:
    verify_radial_bounds(metric, eccentric)
except HypothesisViolation as exc:
    print(f"rejected: {exc}")
