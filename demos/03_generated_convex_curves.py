"""Generating certified convex curves and checking them against the bound.

Three generator families produce curves whose minimal curvature is known:
support functions on the flat plane, curvature-profile integration on the
curved planes, and non-smooth intersections of equal discs.  Every one of
them satisfies the radial-angle bound with nonnegative slack.
"""

import numpy as np

from sphericity import (SpaceForm, make_disc_intersection,
                        make_frame_ode_curve, make_support_curve,
                        verify_angle_bound)

flat = SpaceForm.flat()
print("=== support-function curve (flat) ===")
curve = make_support_curve(1.0, {2: (0.06, 0.0), 3: (0.0, 0.02)},
                           k0_target=0.7)
print(f"length {curve.total_length:.6f}, measured kmin {curve.kmin:.6f} "
      f"(target 0.7)")
rep = verify_angle_bound(curve, np.array([0.1, -0.05]))
print(f"angle bound: passed={rep.passed}, min slack {rep.min_slack:.3e}")

print("\n=== curvature-profile curve (hyperbolic plane) ===")
hyp = SpaceForm.hyperbolic(1.0)
curve = make_frame_ode_curve(
    hyp, lambda u: 2.0 + 0.2 * np.cos(2 * 2 * np.pi * np.asarray(u)))
print(f"closure solved: length {curve.total_length:.6f}, "
      f"gap {curve.closure_gap:.2e}, kmin {curve.kmin:.6f} (profile min 1.8)")
rep = verify_angle_bound(curve, curve.hint_center)
print(f"angle bound: passed={rep.passed}, min slack {rep.min_slack:.3e}")

print("\n=== three-disc intersection (sphere, corners allowed) ===")
sph = SpaceForm.sphere(1.0)
origin = sph.origin()
e1, e2 = sph.frame(origin)
centers = [sph.exp_map(origin, 0.3 * (np.cos(a) * e1 + np.sin(a) * e2))
           for a in (0.0, 2 * np.pi / 3, 4 * np.pi / 3)]
body = make_disc_intersection(sph, np.array(centers), 1.0)
print(f"corners: {int(body.corner.sum())}, measured kmin {body.kmin:.6f}")
rep = verify_angle_bound(body, body.hint_center)
print(f"angle bound (corners judged too): passed={rep.passed}, "
      f"min slack {rep.min_slack:.3e}")
