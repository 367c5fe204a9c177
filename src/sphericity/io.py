"""JSON serialization of curves and warped metrics.

Curve files carry the space-form header and one array per sample field:
coords, arc length, measured curvature, corner flag, and optionally the
exact tangent/outward normal.  Floats are written as their shortest
round-trip repr, so the round trip is bit-identical.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .curves import ClosedCurve
from .errors import GeometryError
from .spaceforms import SpaceForm
from .warped import WarpedMetric, make_warped

CURVE_SCHEMA = "closed_curve/2"
WARPED_CURVE_SCHEMA = "warped_curve/2"


def _check_schema(data, expected: str, what: str):
    schema = data.get("schema") if isinstance(data, dict) else None
    if schema != expected:
        raise GeometryError(
            f"unsupported {what} schema {schema!r}; expected {expected!r}")


def space_to_dict(space: SpaceForm) -> dict:
    return {"kind": space.kind.value, "k1": space.k1}


def space_from_dict(d: dict) -> SpaceForm:
    kind = d["kind"]
    if kind == "flat":
        return SpaceForm.flat()
    if kind == "sphere":
        return SpaceForm.sphere(float(d["k1"]))
    if kind == "hyperbolic":
        return SpaceForm.hyperbolic(float(d["k1"]))
    raise GeometryError(f"unknown space kind {kind!r}")


def curve_to_dict(curve: ClosedCurve) -> dict:
    return {
        "schema": CURVE_SCHEMA,
        "space": space_to_dict(curve.space),
        "provenance": curve.provenance,
        "k0_declared": curve.k0_declared,
        "total_length": curve.total_length,
        "kmin": curve.kmin,
        "closure_gap": curve.closure_gap,
        "hint_center": None if curve.hint_center is None
        else curve.hint_center.tolist(),
        "coords": curve.points.tolist(),
        "s": curve.s.tolist(),
        "kappa": [k if math.isfinite(k) else None
                  for k in curve.kappa.tolist()],
        "corner": curve.corner.tolist(),
        "tangent": curve.tangents.tolist(),
        "normal_out": curve.normals_out.tolist(),
    }


def _frames_from_differences(space, points):
    """Tangents/normals recovered from the sampled points alone."""
    fwd = np.roll(points, -1, axis=0)
    bwd = np.roll(points, 1, axis=0)
    chord = space.log_map(points, fwd) - space.log_map(points, bwd)
    tangents = space.project_tangent(points, chord)
    tangents = tangents / space.norm(points, tangents)[:, None]
    normals = -space.rotate90(points, tangents)
    return tangents, normals


def curve_from_dict(data: dict) -> ClosedCurve:
    """Curve from a ``closed_curve/2`` document.

    The tangent/normal arrays may be absent (curves from other tools); they
    are then recovered from the points, which must run counterclockwise.
    """
    _check_schema(data, CURVE_SCHEMA, "curve")
    space = space_from_dict(data["space"])
    points = np.array(data["coords"], dtype=float)
    if "tangent" in data and "normal_out" in data:
        tangents = np.array(data["tangent"], dtype=float)
        normals = np.array(data["normal_out"], dtype=float)
    else:
        from .curves import winding_number
        from .spaceforms import karcher_mean
        tangents, normals = _frames_from_differences(space, points)
        seed = karcher_mean(space, points)
        if winding_number(space, points, seed) != 1:
            raise GeometryError("stored curves must be positively oriented")
    hint = data.get("hint_center")
    s = np.array(data["s"], dtype=float)
    if not (np.all(np.diff(s) > 0.0)
            and np.all(s[-1:] - s[:1] < float(data["total_length"]))):
        raise GeometryError("arc lengths must increase within total_length")
    return ClosedCurve(
        space=space, points=points, s=s,
        tangents=tangents, normals_out=normals,
        kappa=np.array(data["kappa"], dtype=float),
        corner=np.array(data["corner"], dtype=bool),
        total_length=float(data["total_length"]), kmin=float(data["kmin"]),
        provenance=data["provenance"],
        k0_declared=None if data.get("k0_declared") is None
        else float(data["k0_declared"]),
        closure_gap=float(data.get("closure_gap", 0.0)),
        hint_center=None if hint is None else np.array(hint, dtype=float))


def save_curve(curve: ClosedCurve, path):
    with open(path, "w") as fh:
        fh.write(json.dumps(curve_to_dict(curve)) + "\n")


def load_curve(path) -> ClosedCurve:
    with open(path) as fh:
        return curve_from_dict(json.load(fh))


def warped_curve_to_dict(curve) -> dict:
    """Serialize a pole-centered graph curve with its metric header."""
    return {
        "schema": WARPED_CURVE_SCHEMA,
        "metric": metric_to_dict(curve.metric),
        "kmin": curve.kmin,
        "theta": curve.theta.tolist(),
        "rho": curve.rho.tolist(),
        "kappa": curve.kappa.tolist(),
    }


def warped_curve_from_dict(data: dict):
    from .warped import WarpedCurve
    _check_schema(data, WARPED_CURVE_SCHEMA, "warped curve")
    return WarpedCurve(metric=metric_from_dict(data["metric"]),
                       theta=np.array(data["theta"], dtype=float),
                       rho=np.array(data["rho"], dtype=float),
                       kappa=np.array(data["kappa"], dtype=float),
                       kmin=float(data["kmin"]))


def metric_to_dict(metric: WarpedMetric) -> dict:
    return {
        "schema": "warped_metric/1",
        "family": metric.family,
        "params": {k: float(v) for k, v in metric.params.items()},
        "T": metric.T,
        "k_lo": metric.k_lo,
        "k_hi": metric.k_hi,
    }


def metric_from_dict(data: dict) -> WarpedMetric:
    _check_schema(data, "warped_metric/1", "metric")
    return make_warped(data["family"], T=float(data["T"]),
                       **{k: float(v) for k, v in data["params"].items()})
