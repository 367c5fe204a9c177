"""JSON serialization of curves.

A curve file is its samples: the space-form header, coords, arc length,
optionally the exact tangents, and the list of corner indices.  Each sample
array is written as the base64 text of its little-endian float64 bytes, so
the round trip is bit-identical (NaNs, signed zeros and subnormals
included).  The loader derives the outward normals, ``kappa`` and ``kmin``
from the samples with :meth:`ClosedCurve.from_samples` (which refuses
tangents the points contradict), as the generators do, and refuses any
field the schema does not list.  A file still claims its arc lengths ``s``,
its corners and where each tangent lies between its neighbouring chords.
"""

from __future__ import annotations

import base64
import json
import math

import numpy as np

from .curves import ClosedCurve, winding_number
from .errors import ConstraintViolation, GeometryError
from .spaceforms import Kind, SpaceForm, karcher_mean

CURVE_SCHEMA = "closed_curve/4"
_FIELDS = frozenset({"schema", "space", "provenance", "total_length",
                     "closure_gap", "hint_center", "n", "coords", "s",
                     "corners", "tangent"})
_REQUIRED = ("space", "n", "coords", "s", "total_length", "corners")
_FLOAT64 = np.dtype("<f8")


def _is_finite_number(x) -> bool:
    """An int or float, not a bool, whose float value is finite."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:               # an int beyond the float range
        return False


def space_from_dict(d: dict) -> SpaceForm:
    """Space form of a ``{"kind": ..., "k1": ...}`` object (a config's
    ``space`` block or a curve file's header); k1 must be 0 on the flat
    plane."""
    if not (isinstance(d, dict) and "kind" in d
            and _is_finite_number(d.get("k1"))):
        raise GeometryError("must be an object with a kind and a finite "
                            "number k1")
    unknown = sorted(d.keys() - {"kind", "k1"})
    if unknown:
        raise GeometryError(f"unknown key {unknown[0]!r}; a space has only "
                            "a kind and k1")
    try:
        kind = Kind(d["kind"])
    except ValueError:
        raise GeometryError(f"unknown space kind {d['kind']!r}") from None
    k1 = float(d["k1"])
    if kind is Kind.FLAT and k1 == 0.0:
        return SpaceForm.flat()         # a k1 of -0.0 too
    return SpaceForm(kind, k1)


def _encode(array) -> str:
    """Base64 of the row-major little-endian float64 bytes."""
    raw = np.ascontiguousarray(array, dtype=_FLOAT64).tobytes()
    return base64.b64encode(raw).decode("ascii")


def _decode(data: dict, name: str, shape: tuple):
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
    if not np.all(np.isfinite(array)):
        raise GeometryError(f"{name}: non-finite values")
    return array.reshape(shape)


def curve_to_dict(curve: ClosedCurve) -> dict:
    return {
        "schema": CURVE_SCHEMA,
        "space": {"kind": curve.space.kind.value, "k1": curve.space.k1},
        "provenance": curve.provenance,
        "total_length": curve.total_length,
        "closure_gap": curve.closure_gap,
        "hint_center": None if curve.hint_center is None
        else curve.hint_center.tolist(),
        "n": curve.n,
        "coords": _encode(curve.points),
        "s": _encode(curve.s),
        "corners": np.flatnonzero(curve.corner).tolist(),
        "tangent": _encode(curve.tangents),
    }


def _tangents_from_differences(space, points):
    """Unit tangents recovered from the sampled points alone."""
    chord = (space.log_map(points, np.roll(points, -1, axis=0))
             - space.log_map(points, np.roll(points, 1, axis=0)))
    tangents = space.project_tangent(points, chord)
    return tangents / space.norm(points, tangents)[:, None]


def _corner_mask(data: dict, n: int):
    indices = data["corners"]
    if not (isinstance(indices, list)
            and all(type(i) is int and 0 <= i < n for i in indices)):
        raise GeometryError(
            f"corners: must be a list of sample indices in [0, {n})")
    corner = np.zeros(n, dtype=bool)
    corner[indices] = True
    return corner


def _hint_center(data: dict, dim: int):
    hint = data.get("hint_center")
    if hint is None:
        return None
    if not (isinstance(hint, list) and len(hint) == dim
            and all(map(_is_finite_number, hint))):
        raise GeometryError(f"hint_center: must be {dim} finite numbers")
    return np.array(hint, dtype=float)


def curve_from_dict(data: dict) -> ClosedCurve:
    """Curve from a ``closed_curve/4`` document.

    The normals, ``kappa`` and ``kmin`` are measured from the samples,
    whose coords must lie on the model surface.  The tangent array may be
    absent (curves from other tools); it is then recovered from the points,
    which must run counterclockwise.
    """
    schema = data.get("schema") if isinstance(data, dict) else None
    if schema != CURVE_SCHEMA:
        raise GeometryError(f"unsupported curve schema {schema!r}; "
                            f"expected {CURVE_SCHEMA!r}")
    unknown = sorted(data.keys() - _FIELDS)
    if unknown:
        raise GeometryError(f"{unknown[0]}: not a {CURVE_SCHEMA} field")
    for name in _REQUIRED:
        if name not in data:
            raise GeometryError(f"{name}: missing required field")
    try:
        space = space_from_dict(data["space"])
    except GeometryError as exc:
        raise GeometryError(f"space: {exc}") from None
    n = data["n"]
    if type(n) is not int or n < 1:
        raise GeometryError(f"n: expected a positive integer, got {n!r}")
    points = _decode(data, "coords", (n, space.dim))
    try:
        space.check_point(points)
    except ConstraintViolation as exc:
        raise GeometryError(f"coords: {exc}") from None
    if "tangent" in data:
        tangents = _decode(data, "tangent", (n, space.dim))
    else:
        tangents = _tangents_from_differences(space, points)
        seed = karcher_mean(space, points)
        if winding_number(space, points, seed) != 1:
            raise GeometryError("stored curves must be positively oriented")
    s = _decode(data, "s", (n,))
    total_length = data["total_length"]
    if not _is_finite_number(total_length):
        raise GeometryError("total_length: must be a finite number")
    if not (np.all(np.diff(s) > 0.0)
            and np.all(s[-1:] - s[:1] < total_length)):
        raise GeometryError("arc lengths must increase within total_length")
    provenance = data.get("provenance")
    if not isinstance(provenance, str):
        raise GeometryError("provenance: must be a string")
    closure_gap = data.get("closure_gap", 0.0)
    if not (_is_finite_number(closure_gap) and closure_gap >= 0.0):
        raise GeometryError("closure_gap: must be a finite number >= 0")
    return ClosedCurve.from_samples(
        space, points, s, tangents, _corner_mask(data, n), total_length,
        provenance, hint_center=_hint_center(data, space.dim),
        closure_gap=float(closure_gap))


def save_curve(curve: ClosedCurve, path):
    with open(path, "w") as fh:
        fh.write(json.dumps(curve_to_dict(curve)) + "\n")


def load_curve(path) -> ClosedCurve:
    with open(path) as fh:
        return curve_from_dict(json.load(fh))
