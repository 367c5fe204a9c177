"""Checked reading of JSON documents, and JSON serialization of curves.

Both documents the package reads, a run config and a ``closed_curve/4``
curve file, are read through ``_g``: a lookup of one dotted key path whose
value passes through one of the converters below.  A reader works on its
own copy of the document (``_Document``), which records every path it looks
up; once the reader is done, the first key no lookup reached is refused.
A refusal is a ConfigError whose message reads ``<key path>: <reason>``.

A curve file is its samples: the space-form header, coords, arc length,
the exact tangents, and the list of corner indices.  Each sample
array is written as the base64 text of its little-endian float64 bytes, so
the round trip is bit-identical (NaNs, signed zeros and subnormals
included).  The loader derives the outward normals, ``kappa`` and ``kmin``
from the samples with :meth:`ClosedCurve.from_samples` (which refuses
tangents the points contradict and samples that run clockwise), as the
generators do.  A file still claims its arc lengths ``s``, its corners and
where each tangent lies between its neighbouring chords.
"""

from __future__ import annotations

import base64
import json
import math
from functools import partial

import numpy as np

from .curves import ClosedCurve
from .errors import ConfigError
from .spaceforms import Kind, SpaceForm

CURVE_SCHEMA = "closed_curve/4"
_FLOAT64 = np.dtype("<f8")

#: largest sample count a config or a curve file may hold
MAX_SAMPLES = 1 << 16


class _Document(dict):
    """A reader's own copy of a JSON object, with the key paths looked up
    in it."""

    def __init__(self, data, name: str):
        if not isinstance(data, dict):
            raise ConfigError(f"{name} must be a JSON object")
        super().__init__(data)
        self.read = set()

    def first_unread(self):
        """The dotted path of the first key, in document order and at any
        depth, that no looked-up path reaches, or None."""
        return next(_unread_keys(self, self.read), None)


def _unread_keys(node: dict, read: set, prefix: str = ""):
    """Dotted paths, in document order, of the keys below ``node`` that no
    path in ``read`` reaches; a path reaches every key below it."""
    for key, value in node.items():
        path = f"{prefix}{key}"
        if path in read:
            continue
        if not any(p.startswith(path + ".") for p in read):
            yield path
        elif isinstance(value, dict):
            yield from _unread_keys(value, read, path + ".")


def _g(doc: dict, path: str, kind=None, default=None,
       required: bool = False):
    """Checked lookup of a dotted key path such as ``generator.k0``.

    Every container on the path must be a JSON object.  A missing or null
    value reads as ``default``; a value other than None is returned through
    the converter ``kind``.  A value the converter rejects, a non-object
    container and a missing required key raise ConfigError naming the path.
    A ``_Document`` records the path as read, with everything below it.
    """
    if isinstance(doc, _Document):
        doc.read.add(path)
    parts = path.split(".")
    node = doc
    for depth, part in enumerate(parts):
        if not isinstance(node, dict):
            raise ConfigError(
                f"{'.'.join(parts[:depth])}: {node!r} is not a JSON object")
        node = node.get(part)
        if node is None:
            if required:
                raise ConfigError(
                    f"{'.'.join(parts[:depth + 1])}: missing required key")
            node = default
            break
    if kind is None or node is None:
        return node
    try:
        return kind(node)
    except (TypeError, ValueError, KeyError, OverflowError, OSError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


# Converters for _g: each returns the checked value or raises TypeError or
# ValueError (a curve file's reader also OSError).

def _is_finite_number(x) -> bool:
    """An int or float, not a bool, whose float value is finite."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:               # an int beyond the float range
        return False


def _number(x) -> float:
    if not _is_finite_number(x):
        raise ValueError(f"{x!r} is not a finite number")
    return float(x)


def _integer(x) -> int:
    if type(x) is not int and not _number(x).is_integer():
        raise ValueError(f"{x!r} is not an integer")
    return int(x)


def _count(lo: int, hi: int):
    def convert(x) -> int:
        value = _integer(x)
        if not lo <= value <= hi:
            raise ValueError(f"{x!r} is not an integer in [{lo}, {hi}]")
        return value
    return convert


def _of_type(kind: type):
    def convert(x):
        if not isinstance(x, kind):
            raise TypeError(f"{x!r} is not a {kind.__name__}")
        return x
    return convert


_text, _object, _list = _of_type(str), _of_type(dict), _of_type(list)


def _one_of(*values: str):
    def convert(x) -> str:
        if not (isinstance(x, str) and x in values):
            raise ValueError(f"{x!r} is not {' or '.join(map(repr, values))}")
        return x
    return convert


def _numbers(x, size: int | None = None) -> list:
    values = [_number(v) for v in _list(x)]
    if not values or len(values) != (size or len(values)):
        raise ValueError(f"{x!r} is not a list of {size or 'some'} numbers")
    return values


def _array(ndim: int):
    def convert(x) -> np.ndarray:
        arr = np.asarray(x, dtype=object)
        if arr.ndim != ndim or not all(map(_is_finite_number, arr.flat)):
            raise ValueError(f"{x!r} is not a {ndim}-D array of finite numbers")
        return arr.astype(float)
    return convert


def _on_model(space: SpaceForm, convert):
    """``convert``, then refuse points off the model surface of ``space``
    (check_point raises a ConstraintViolation, a ValueError)."""
    return lambda x: space.check_point(convert(x))


def _float64(shape: tuple):
    """The C-contiguous float64 array of ``shape`` in a base64 text."""
    def convert(text) -> np.ndarray:
        try:
            raw = base64.b64decode(_text(text), validate=True)
        except ValueError as exc:
            raise ValueError(f"not base64 float64 data ({exc})") from None
        expected = 8 * math.prod(shape)
        if len(raw) != expected:
            raise ValueError(
                f"{len(raw)} bytes, expected {expected} for shape {shape}")
        array = np.frombuffer(raw, dtype=_FLOAT64).astype(float, copy=False)
        if not np.all(np.isfinite(array)):
            raise ValueError("non-finite values")
        return array.reshape(shape)
    return convert


def _plane(kind: Kind, k1) -> SpaceForm:
    """The space form of a kind and k1 (SpaceForm raises a GeometryError,
    a ValueError, for a pair that names no plane)."""
    k1 = _number(k1)
    if kind is Kind.FLAT and k1 == 0.0:
        return SpaceForm.flat()         # a k1 of -0.0 too
    return SpaceForm(kind, k1)


def read_space(doc: dict) -> SpaceForm:
    """Space form of a document's ``space`` block (a config's or a curve
    file's header), read as ``space.kind`` and ``space.k1``; k1 must be 0
    on the flat plane."""
    kind = _g(doc, "space.kind", Kind, required=True)
    return _g(doc, "space.k1", partial(_plane, kind), required=True)


def _encode(array) -> str:
    """Base64 of the row-major little-endian float64 bytes."""
    raw = np.ascontiguousarray(array, dtype=_FLOAT64).tobytes()
    return base64.b64encode(raw).decode("ascii")


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


def _corner_mask(n: int):
    """The corner mask of a list of sample indices in [0, n)."""
    index = _count(0, n - 1)

    def convert(x) -> np.ndarray:
        corner = np.zeros(n, dtype=bool)
        corner[[index(i) for i in _list(x)]] = True
        return corner
    return convert


def _gap(x) -> float:
    value = _number(x)
    if value < 0.0:
        raise ValueError(f"{x!r} is negative")
    return value


def curve_from_dict(data: dict) -> ClosedCurve:
    """Curve from a ``closed_curve/4`` document.

    The normals, ``kappa`` and ``kmin`` are measured from the stored
    samples, whose coords must lie on the model surface, and their stored
    tangents, which every file must hold.
    """
    doc = _Document(data, "a curve file")
    _g(doc, "schema", _one_of(CURVE_SCHEMA), required=True)
    space = read_space(doc)
    n = _g(doc, "n", _count(1, MAX_SAMPLES), required=True)
    shape = (n, space.dim)
    points = _g(doc, "coords", _on_model(space, _float64(shape)),
                required=True)
    tangents = _g(doc, "tangent", _float64(shape), required=True)
    total_length = _g(doc, "total_length", _number, required=True)
    s = _g(doc, "s", _float64((n,)), required=True)
    if not (np.all(np.diff(s) > 0.0) and s[-1] - s[0] < total_length):
        raise ConfigError("s: arc lengths must increase within total_length")
    corner = _g(doc, "corners", _corner_mask(n), required=True)
    provenance = _g(doc, "provenance", _text, required=True)
    closure_gap = _g(doc, "closure_gap", _gap, 0.0)
    hint_center = _g(doc, "hint_center", _on_model(space, _array(1)))
    unread = doc.first_unread()
    if unread is not None:
        raise ConfigError(f"{unread}: not a {CURVE_SCHEMA} field")
    return ClosedCurve.from_samples(
        space, points, s, tangents, corner, total_length, provenance,
        hint_center=hint_center, closure_gap=closure_gap)


def save_curve(curve: ClosedCurve, path):
    with open(path, "w") as fh:
        fh.write(json.dumps(curve_to_dict(curve)) + "\n")


def load_curve(path) -> ClosedCurve:
    with open(path) as fh:
        return curve_from_dict(json.load(fh))
