"""JSON serialization of curves.

Curve files carry the space-form header and one array per sample field:
coords, arc length, measured curvature, optionally the exact
tangent/outward normal, and the list of corner indices.  Each sample array
is written as the base64 text of its little-endian float64 bytes, so the
round trip is bit-identical (NaNs, signed zeros and subnormals included).
"""

from __future__ import annotations

import base64
import json
import math

import numpy as np

from .curves import ClosedCurve
from .errors import GeometryError
from .spaceforms import SpaceForm

CURVE_SCHEMA = "closed_curve/3"
_FLOAT64 = np.dtype("<f8")


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


def _encode(array) -> str:
    """Base64 of the row-major little-endian float64 bytes."""
    raw = np.ascontiguousarray(array, dtype=_FLOAT64).tobytes()
    return base64.b64encode(raw).decode("ascii")


def _decode(data: dict, name: str, shape: tuple, finite: bool = True):
    """C-contiguous float64 array of ``shape`` from the field ``name``."""
    try:
        raw = base64.b64decode(data[name], validate=True)
    except (TypeError, ValueError) as exc:
        raise GeometryError(f"{name}: not base64 float64 data ({exc})") \
            from None
    expected = 8 * math.prod(shape)
    if len(raw) != expected:
        raise GeometryError(
            f"{name}: {len(raw)} bytes, expected {expected} for shape {shape}")
    array = np.frombuffer(raw, dtype=_FLOAT64).astype(float, copy=False)
    if finite and not np.all(np.isfinite(array)):
        raise GeometryError(f"{name}: non-finite values")
    return array.reshape(shape)


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
        "n": curve.n,
        "coords": _encode(curve.points),
        "s": _encode(curve.s),
        "kappa": _encode(curve.kappa),
        "corners": np.flatnonzero(curve.corner).tolist(),
        "tangent": _encode(curve.tangents),
        "normal_out": _encode(curve.normals_out),
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


def _corner_mask(data: dict, n: int):
    indices = data["corners"]
    if not (isinstance(indices, list)
            and all(type(i) is int and 0 <= i < n for i in indices)):
        raise GeometryError(
            f"corners: must be a list of sample indices in [0, {n})")
    corner = np.zeros(n, dtype=bool)
    corner[indices] = True
    return corner


def _is_finite_number(x) -> bool:
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and math.isfinite(x))


def _finite(data: dict, name: str) -> float:
    if not _is_finite_number(data[name]):
        raise GeometryError(f"{name}: must be a finite number")
    return float(data[name])


def _hint_center(data: dict, dim: int):
    hint = data.get("hint_center")
    if hint is None:
        return None
    if not (isinstance(hint, list) and len(hint) == dim
            and all(map(_is_finite_number, hint))):
        raise GeometryError(f"hint_center: must be {dim} finite numbers")
    return np.array(hint, dtype=float)


def curve_from_dict(data: dict) -> ClosedCurve:
    """Curve from a ``closed_curve/3`` document.

    The tangent/normal arrays may be absent (curves from other tools); they
    are then recovered from the points, which must run counterclockwise.
    """
    schema = data.get("schema") if isinstance(data, dict) else None
    if schema != CURVE_SCHEMA:
        raise GeometryError(f"unsupported curve schema {schema!r}; "
                            f"expected {CURVE_SCHEMA!r}")
    space = space_from_dict(data["space"])
    n = data["n"]
    if type(n) is not int or n < 1:
        raise GeometryError(f"n: expected a positive integer, got {n!r}")
    points = _decode(data, "coords", (n, space.dim))
    if "tangent" in data and "normal_out" in data:
        tangents = _decode(data, "tangent", (n, space.dim))
        normals = _decode(data, "normal_out", (n, space.dim))
    else:
        from .curves import winding_number
        from .spaceforms import karcher_mean
        tangents, normals = _frames_from_differences(space, points)
        seed = karcher_mean(space, points)
        if winding_number(space, points, seed) != 1:
            raise GeometryError("stored curves must be positively oriented")
    s = _decode(data, "s", (n,))
    total_length = _finite(data, "total_length")
    if not (np.all(np.diff(s) > 0.0)
            and np.all(s[-1:] - s[:1] < total_length)):
        raise GeometryError("arc lengths must increase within total_length")
    return ClosedCurve(
        space=space, points=points, s=s,
        tangents=tangents, normals_out=normals,
        kappa=_decode(data, "kappa", (n,), finite=False),
        corner=_corner_mask(data, n),
        total_length=total_length, kmin=_finite(data, "kmin"),
        provenance=data["provenance"],
        k0_declared=None if data.get("k0_declared") is None
        else float(data["k0_declared"]),
        closure_gap=float(data.get("closure_gap", 0.0)),
        hint_center=_hint_center(data, space.dim))


def save_curve(curve: ClosedCurve, path):
    with open(path, "w") as fh:
        fh.write(json.dumps(curve_to_dict(curve)) + "\n")


def load_curve(path) -> ClosedCurve:
    with open(path) as fh:
        return curve_from_dict(json.load(fh))
