"""The annulus-width bound, its sharpness witness, and a non-smooth body.

Every k0-convex closed curve fits in an annulus, centered at its incenter,
of width at most the maximal spindle width d0(k0).  The lune at the
optimal inradius attains the bound; everything else has room to spare.
"""

import numpy as np

from sphericity import (SpaceForm, layer_width, make_disc_intersection,
                        make_lune, make_support_curve, spindle_optimum)

for space, k0 in ((SpaceForm.flat(), 1.0), (SpaceForm.sphere(1.0), 1.0),
                  (SpaceForm.hyperbolic(1.0), 2.0)):
    opt = spindle_optimum(space, k0)
    lune = make_lune(space, k0, opt.r0)
    rep = layer_width(lune)
    print(f"{space.kind.value}: lune at r0 -> d = {rep.d:.9f}, "
          f"d0 = {opt.d0:.9f}, |d - d0| = {abs(rep.d - opt.d0):.2e} "
          f"(sharpness witness)")

print("\n=== a smooth random body stays well below the bound ===")
curve = make_support_curve(1.0, {2: (0.07, 0.02), 4: (0.0, 0.008)},
                           k0_target=0.75)
rep = layer_width(curve)
print(f"incenter {np.round(rep.incenter, 6)}, r = {rep.r:.6f}, "
      f"rho1 = {rep.rho1:.6f}")
print(f"width d = {rep.d:.6f} <= d0 = {rep.d0:.6f} "
      f"(margin {rep.margin:.6f})")

print("\n=== corners are fine: intersection of three discs ===")
body = make_disc_intersection(
    SpaceForm.flat(), [[0.0, 0.0], [0.5, 0.0], [0.25, 0.43]], 1.0)
rep = layer_width(body)
print(f"Reuleaux-style body: d = {rep.d:.6f} <= d0 = {rep.d0:.6f}, "
      f"passed = {rep.passed}")
print(f"incenter KKT residual {rep.kkt_residual:.1e} "
      f"(0 when the contact directions surround the incenter)")
