"""Shared fixtures: seeded families of random verified-geometry curves.

The heavyweight curve batches are session-scoped so the property suites and
the acceptance criteria share one generation pass.
"""

import math

import numpy as np
import pytest

from sphericity import SpaceForm, make_frame_ode_curve, make_support_curve


def random_support_curve(rng, n=4096):
    """Flat convex curve with curvature-radius wiggle drawn from the seed."""
    return support_curve_and_floor(rng, n)[0]


def support_curve_and_floor(rng, n=4096):
    """A random support curve and the curvature floor it was drawn to meet,
    its ``k0_target``."""
    a0 = 1.0
    wiggle = rng.uniform(0.05, 0.35)
    orders = rng.choice([2, 3, 4, 5], size=2, replace=False)
    weights = rng.dirichlet(np.ones(len(orders)))
    harmonics = {}
    for m, w in zip(orders, weights):
        amp = wiggle * w / (m * m - 1)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        harmonics[int(m)] = (amp * math.cos(phase), amp * math.sin(phase))
    k0_target = 1.0 / (a0 + wiggle)
    return (make_support_curve(a0, harmonics, k0_target=k0_target, n=n),
            k0_target)


def random_frame_ode_curve(space, rng, n=4096):
    """Curvature-profile curve on a curved plane, m-fold symmetric."""
    return frame_ode_curve_and_floor(space, rng, n)[0]


def frame_ode_curve_and_floor(space, rng, n=4096):
    """A random frame-ODE curve and the curvature floor it was drawn to
    meet, its profile's minimum (on a grid of 2^16 points)."""
    if space.kind.value == "hyperbolic":
        k0 = rng.uniform(1.7, 2.6)
        amp_total = rng.uniform(0.05, min(0.25, k0 - 1.3))
    else:
        k0 = rng.uniform(0.8, 1.4)
        amp_total = rng.uniform(0.05, 0.25) * k0 * 0.4
    m = int(rng.choice([2, 3, 4]))
    split = rng.uniform(0.55, 0.9)
    terms = [(m, amp_total * split, rng.uniform(0, 2 * np.pi)),
             (2 * m, amp_total * (1 - split), rng.uniform(0, 2 * np.pi))]

    def profile(u):
        u = np.asarray(u, dtype=float)
        out = np.full_like(u, k0)
        for mult, amp, ph in terms:
            out = out + amp * np.cos(2.0 * np.pi * mult * u + ph)
        return out

    floor = float(np.min(profile(np.linspace(0.0, 1.0, 1 << 16,
                                             endpoint=False))))
    return make_frame_ode_curve(space, profile, n=n), floor


def interior_base_point(curve, rng, pull=0.3):
    """Random base point strictly inside the curve, near its hint center."""
    space = curve.space
    center = curve.hint_center
    h = float(np.min(space.distance(center, curve.points)))
    radius = rng.uniform(0.0, pull) * h
    angle = rng.uniform(0.0, 2.0 * np.pi)
    e1, e2 = space.frame(center)
    return space.exp_map(center,
                         radius * (math.cos(angle) * e1 + math.sin(angle) * e2))


@pytest.fixture(scope="session")
def support_suite():
    """100 seeded (support-function curve, base point, curvature floor)
    triples (criterion suite)."""
    rng = np.random.default_rng(20240501)
    out = []
    for _ in range(100):
        curve, floor = support_curve_and_floor(rng)
        base = interior_base_point(curve, rng)
        out.append((curve, base, floor))
    return out


@pytest.fixture(scope="session")
def frame_ode_suite():
    """30 sphere + 30 hyperbolic seeded (frame-ODE curve, base point,
    curvature floor) triples."""
    out = []
    for space, seed in ((SpaceForm.sphere(1.0), 20240502),
                        (SpaceForm.hyperbolic(1.0), 20240503)):
        rng = np.random.default_rng(seed)
        for _ in range(30):
            curve, floor = frame_ode_curve_and_floor(space, rng)
            base = interior_base_point(curve, rng)
            out.append((curve, base, floor))
    return out


@pytest.fixture(scope="session")
def angle_suite(support_suite, frame_ode_suite):
    return [(curve, base)
            for curve, base, _ in support_suite + frame_ode_suite]
