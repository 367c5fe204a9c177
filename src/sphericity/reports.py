"""Suite runner: build test objects from a config, verify, emit reports.

A run is fully determined by the config document and its seed; the random
generator is numpy's default PCG64 (``numpy.random.default_rng(seed)``),
which is stable across platforms, so reports are byte-identical across
repeated runs (the timestamp lives in an isolated metadata field and is
excluded from the config hash).  report.json is the ``json.dumps(...,
sort_keys=True, indent=2)`` text of a result; the cells of its finite float
tables are formatted once, for report.json and the CSV alike.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import __version__
from .bounds import slack_check, verify_angle_bound
from .curves import (DEFAULT_SAMPLES, make_circle, make_disc_intersection,
                     make_frame_ode_curve, make_lune, make_support_curve)
from .errors import ConfigError, GeometryError, HypothesisViolation
from .io import (MAX_SAMPLES, _Document, _array, _count, _g, _integer,
                 _list, _number, _numbers, _object, _of_type, _on_model,
                 _one_of, _text, load_curve, read_space)
from .layers import layer_width
from .spaceforms import Kind, SpaceForm
from .spindles import (SPINDLE_COLUMNS, numeric_spindle_optimum,
                       spindle_max_width_alt, spindle_optimum,
                       spindle_table_rows)
from .warped import FAMILIES, family_params, make_warped, \
    make_warped_curve, verify_circle_curvature_comparison, \
    verify_radial_bounds


def _harmonics(x) -> dict:
    return {int(m): _numbers(ab, 2) for m, ab in _object(x).items()}


def _terms(n: int):
    """``[multiple, amplitude, phase]`` rows, each integer multiple below the
    Nyquist order n/2 of n samples, which would alias it."""
    def convert(x) -> list:
        terms = [(_integer(m), a, ph)
                 for m, a, ph in (_numbers(t, 3) for t in _list(x))]
        for m, _, _ in terms:
            if 2 * abs(m) >= n:
                raise ValueError(
                    f"multiple {m} is at or above the Nyquist order n/2 = "
                    f"{n / 2:g} of {n} samples (aliased)")
        return terms
    return convert


@dataclass
class SuiteResult:
    """Named check results plus plot-ready series."""

    suite: str
    checks: list = field(default_factory=list)
    series: dict = field(default_factory=dict)
    hypothesis_violations: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        # series kind -> (its rows, their _float_text), filled on first use
        self._texts = {}

    @property
    def overall_passed(self) -> bool:
        return all(c["verdict"] == "pass" for c in self.checks)

    @property
    def exit_code(self) -> int:
        if self.hypothesis_violations:
            return 3
        return 0 if self.overall_passed else 2

    def add_check(self, name: str, measured: float, bound: float,
                  slack: float, passed: bool):
        """Record one check; a non-finite value is refused, not judged."""
        values = dict(measured=float(measured), bound=float(bound),
                      slack=float(slack))
        if not all(map(math.isfinite, values.values())):
            raise GeometryError(f"check {name!r} is not finite: {values}")
        self.checks.append({"name": name, **values,
                            "verdict": "pass" if passed else "fail"})

    def _cell_text(self, kind):
        """``_float_text`` of the rows of series ``kind``, made once:
        report.json and the CSV take the same strings.  A written result's
        series are final."""
        rows = self.series[kind].get("rows")
        if kind not in self._texts or self._texts[kind][0] is not rows:
            self._texts[kind] = rows, _float_text(rows)
        return self._texts[kind][1]

    def to_dict(self) -> dict:
        return {
            "schema": "suite_result/1",
            "suite": self.suite,
            "overall": "pass" if self.overall_passed else "fail",
            "exit_code": self.exit_code,
            "checks": self.checks,
            "hypothesis_violations": self.hypothesis_violations,
            "series": self.series,
            "metadata": self.metadata,
        }


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def build_curve(space: SpaceForm, config: dict):
    """Construct the curve of a config's ``generator`` block."""
    prov = _g(config, "generator.provenance",
              _one_of("circle", "lune", "support_function", "frame_ode",
                      "disc_intersection"), required=True)
    n = _g(config, "generator.n", _count(1, MAX_SAMPLES), DEFAULT_SAMPLES)
    if prov in ("circle", "lune", "frame_ode", "disc_intersection"):
        k0 = _g(config, "generator.k0", _number, required=True)
    if prov == "circle":
        center = _g(config, "generator.center", _on_model(space, _array(1)),
                    space.origin())
        return make_circle(space, center, k0, n=n,
                           phase=_g(config, "generator.phase", _number, 0.0))
    if prov == "lune":
        r = _g(config, "generator.r", default="optimal")
        r = spindle_optimum(space, k0).r0 if r == "optimal" \
            else _g(config, "generator.r", _number)
        return make_lune(space, k0, r, n=n)
    if prov == "support_function":
        return make_support_curve(
            _g(config, "generator.a0", _number, 1.0),
            _g(config, "generator.harmonics", _harmonics, {}),
            k0_target=_g(config, "generator.k0_target", _number,
                         required=True), n=n)
    if prov == "frame_ode":
        terms = _g(config, "generator.terms", _terms(n), [])

        def profile(u):
            u = np.asarray(u, dtype=float)
            out = np.full_like(u, k0)
            for mm, amp, ph in terms:
                out = out + amp * np.cos(2.0 * np.pi * mm * u + ph)
            return out

        return make_frame_ode_curve(space, profile, n=n)
    centers = _g(config, "generator.centers", _on_model(space, _array(2)),
                 required=True)
    return make_disc_intersection(space, centers, k0, n=n)


def _base_point(space: SpaceForm, curve, config: dict):
    mode = _g(config, "base_point.mode", _one_of("hint", "point", "offset"),
              "hint")
    if mode == "hint":
        return curve.hint_center
    if mode == "point":
        return _g(config, "base_point.coords", _on_model(space, _array(1)),
                  required=True)
    center = curve.hint_center
    dist = _g(config, "base_point.distance", _number, required=True)
    # refused beyond the farthest sample, before exp_map can overflow
    if not abs(dist) <= np.max(space.distance(center, curve.points)):
        raise GeometryError("base point is not strictly inside the curve")
    e1, _ = space.frame(center)
    return space.exp_map(center, dist * e1)


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def _run_angle(config, result, rng):
    space = read_space(config)
    curve = build_curve(space, config)
    base = _base_point(space, curve, config)
    try:
        rep = verify_angle_bound(curve, base)
    except HypothesisViolation as exc:
        result.hypothesis_violations.append(str(exc))
        return
    result.add_check("angle_min_slack", rep.min_slack,
                     *slack_check(rep.min_slack))
    table = np.column_stack((rep.s, rep.t, rep.phi,
                             np.full(rep.s.shape, rep.bound_cos), rep.slack))
    result.series["angle"] = {
        "columns": ["s", "t", "phi", "bound", "slack"],
        "rows": table.tolist(),
    }


def _run_width(config, result, rng):
    curve = _g(config, "curve_file", lambda x: load_curve(_text(x)))
    if curve is None:
        curve = build_curve(read_space(config), config)
    try:
        rep = layer_width(curve)
    except HypothesisViolation as exc:
        result.hypothesis_violations.append(str(exc))
        return
    result.add_check("width_margin", rep.d, rep.d0, rep.margin, rep.passed)
    result.series["width"] = {
        "columns": ["r", "rho1", "d", "d0", "margin"],
        "rows": [[rep.r, rep.rho1, rep.d, rep.d0, rep.margin]],
    }
    result.metadata["layer_report"] = rep.to_dict()


def _run_spindle_table(config, result, rng):
    space = read_space(config)
    k0_values = _g(config, "spindle.k0", _numbers, [1.0])
    r_count = _g(config, "spindle.r_count", _count(0, MAX_SAMPLES), 33)
    result.series["spindle"] = {
        "columns": list(SPINDLE_COLUMNS),
        "rows": spindle_table_rows(space, k0_values, r_count)}
    for k0 in k0_values:
        opt = spindle_optimum(space, k0)
        r_num, d_num = numeric_spindle_optimum(space, k0)
        checks = [("spindle_oracle_r0", r_num, opt.r0, 1e-7),
                  ("spindle_oracle_d0", d_num, opt.d0, 1e-9)]
        if space.sign:
            checks.append(("spindle_alt_form",
                           spindle_max_width_alt(space, k0), opt.d0, 1e-10))
        for name, value, exact, rel_tol in checks:
            # every length of the family scales with the circle radius R
            tol, gap = rel_tol * opt.R, abs(value - exact)
            result.add_check(f"{name}_k0={k0:g}", value, exact, tol - gap,
                             gap <= tol)


def _run_warped(config, result, rng):
    family = _g(config, "warped.family", _one_of(*FAMILIES), required=True)
    params = _g(config, "warped.params", lambda x: family_params(
        family, {k: _number(v) for k, v in _object(x).items()}), {})
    T = _g(config, "warped.T", _number, required=True)
    metric = make_warped(family, T=T, **params)
    comp = verify_circle_curvature_comparison(metric)
    result.add_check("mu_comparison_min_slack", comp.min_slack,
                     *slack_check(comp.min_slack))
    rho0 = _g(config, "warped.rho0", _number, 0.8)
    strength = _g(config, "warped.strength", _number, 0.05)
    count = _g(config, "warped.curves", _count(0, 1000), 5)
    rows = []
    for i in range(count):
        harmonics = {}
        for j in (2, 3, 4):
            amp = strength * rho0 * rng.uniform(0.2, 1.0) / j ** 2
            phase = rng.uniform(0.0, 2.0 * np.pi)
            harmonics[j] = (amp * math.cos(phase), amp * math.sin(phase))
        curve = make_warped_curve(metric, rho0, harmonics)
        try:
            ver = verify_radial_bounds(metric, curve)
        except HypothesisViolation as exc:
            result.hypothesis_violations.append(f"curve {i}: {exc}")
            continue
        result.add_check(f"warped_angle_slack_{i}", ver.min_angle_slack,
                         *slack_check(ver.min_angle_slack))
        result.add_check(f"warped_width_margin_{i}", ver.d, ver.d0,
                         ver.width_margin, ver.width_passed)
        rows.append([i, curve.kmin, ver.h, ver.min_angle_slack, ver.d,
                     ver.d0])
    if _g(config, "warped.violating", _of_type(bool), False):
        # deliberately eccentric curve whose curvature drops below the
        # comparison threshold; must be rejected, not judged
        bad = make_warped_curve(metric, rho0,
                                {2: (0.55 * rho0, 0.0)})
        try:
            verify_radial_bounds(metric, bad)
            result.add_check("violating_curve_rejected", 0.0, 1.0, -1.0,
                             False)
        except HypothesisViolation as exc:
            result.hypothesis_violations.append(f"violating curve: {exc}")
    result.series["warped"] = {
        "columns": ["index", "kmin", "h", "angle_slack", "d", "d0"],
        "rows": rows,
    }


def _run_sweep(config, result, rng):
    k0 = _g(config, "sweep.k0", _number, 1.0)
    k1_values = _g(config, "sweep.k1", _numbers,
                   [0.5, 0.3, 0.1, 0.03, 0.01, 3e-3, 1e-3])
    tol = 1e-5      # fixed: no config key sets a verdict threshold
    flat_d0 = spindle_optimum(SpaceForm.flat(), k0).d0
    rows = []
    for kind in ("sphere", "hyperbolic"):
        # a hyperbolic circle of curvature k0 needs k0 > k1
        usable = [k1 for k1 in k1_values if kind == "sphere" or k1 < k0]
        if not usable:
            result.hypothesis_violations.append(
                f"sweep: no {kind} row, every k1 in {k1_values} is >= "
                f"k0 = {k0:.6g}")
            continue
        first = len(rows)
        for k1 in usable:
            d0 = spindle_optimum(SpaceForm(Kind(kind), k1), k0).d0
            rows.append([kind, k1, d0, d0 - flat_d0])
        # judged at the smallest k1, whatever the order of sweep.k1
        _, _, d_lim, _ = min(rows[first:], key=lambda row: row[1])
        result.add_check(f"euclidean_limit_{kind}", d_lim, flat_d0,
                         tol - abs(d_lim - flat_d0),
                         abs(d_lim - flat_d0) <= tol)
    result.series["width_sweep"] = {
        "columns": ["kind", "k1", "d0", "d0_minus_flat"],
        "rows": rows,
    }


_RUNNERS = {
    "angle": _run_angle,
    "width": _run_width,
    "spindle-table": _run_spindle_table,
    "warped": _run_warped,
    "sweep": _run_sweep,
}


def run(config: dict) -> SuiteResult:
    """Run a config's suite, then refuse the first key it did not read."""
    config = _Document(config, "config")
    suite = _g(config, "suite", _one_of(*_RUNNERS), required=True)
    seed = _g(config, "seed", _count(0, 2 ** 63 - 1), 0)
    result = SuiteResult(suite=suite)
    result.metadata = {
        "config_hash": config_hash(config),
        "version": __version__,
        "seed": seed,
        "rng": "numpy.random.default_rng (PCG64)",
        "timestamp": None,
    }
    _RUNNERS[suite](config, result, np.random.default_rng(seed))
    unread = config.first_unread()
    if unread is not None:
        raise ConfigError(
            f"config key {unread!r} is not read by the {suite} suite")
    result.metadata["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    return result


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def _float_text(rows):
    """The ``float.__repr__`` of each cell, row by row, of a table ``rows``
    (a list of lists of one length) whose cells are all finite floats,
    else None.  Finiteness is one sum of the cells, tested cell by cell
    only when the sum is not finite (it may overflow).  The text is made
    column by column: a column whose cells all hold one nonzero double
    takes one repr (0.0 == -0.0, so a column of zeros is written cell by
    cell, keeping each sign)."""
    if not (isinstance(rows, (list, tuple))
            and set(map(type, rows)) <= {list, tuple}
            and len(set(map(len, rows))) == 1):
        return None
    flat = list(chain.from_iterable(rows))
    if not (flat and all(issubclass(t, float) for t in set(map(type, flat)))):
        return None
    with np.errstate(over="ignore", invalid="ignore"):     # np.float64 cells
        total = sum(flat)
    if not (math.isfinite(total) or all(map(math.isfinite, flat))):
        return None
    width = len(rows[0])
    cells = [None] * len(flat)
    for c in range(width):
        column = flat[c::width]
        first = column[0]
        cells[c::width] = ([float.__repr__(first)] * len(column)
                           if first and column.count(first) == len(column)
                           else map(float.__repr__, column))
    return cells


def _joined(cells, width: int, first: str, between: str, row_break: str,
            last: str) -> str:
    """``first``, the cells of a table of ``width`` columns (row by row)
    with ``between`` two cells of a row and ``row_break`` between rows,
    then ``last``: one join over the cells interleaved with the
    separators."""
    seps = [between] * (len(cells) + 1)
    seps[::width] = [row_break] * (len(cells) // width + 1)
    seps[0], seps[-1] = first, last
    parts = [None] * (2 * len(cells) + 1)
    parts[::2] = seps
    parts[1::2] = cells
    return "".join(parts)


def result_json(result: SuiteResult, drop_timestamp: bool = False) -> str:
    """report.json's text: ``json.dumps(result.to_dict(), sort_keys=True,
    indent=2)`` and a newline.  Each series table of finite floats is
    dumped as a fresh random placeholder, which the table's text, one join
    of its memoized cells and the separators json.dumps writes at the
    indent of ``series.<kind>.rows``, then replaces."""
    doc = result.to_dict()
    if drop_timestamp:
        doc["metadata"] = dict(doc["metadata"], timestamp=None)
    doc["series"] = dict(doc["series"])
    row, cell = "\n" + " " * 8, "\n" + " " * 10
    tables = {}
    for kind, series in result.series.items():
        cells = result._cell_text(kind)
        if cells is not None:
            placeholder = os.urandom(16).hex()
            doc["series"][kind] = dict(series, rows=placeholder)
            tables[json.dumps(placeholder)] = _joined(
                cells, len(series["rows"][0]), "[" + row + "[" + cell,
                "," + cell, row + "]," + row + "[" + cell, row + "]\n      ]")
    text = json.dumps(doc, sort_keys=True, indent=2)
    for placeholder, table in tables.items():
        text = text.replace(placeholder, table, 1)
    return text + "\n"


def emit_plot_data(result: SuiteResult, kind: str, out_path) -> str:
    """Write one series as CSV (header line, stable column order).

    A float cell is written as ``float.__repr__``, the shortest text that
    reads back as the same double and the text report.json gives it, and
    every other cell as str().  A table of equal-length rows of finite
    floats takes the strings report.json is made from and is written by
    one join of its cells and separators; any other table row by row.
    """
    if kind not in result.series:
        raise GeometryError(
            f"result has no series {kind!r}; available: "
            f"{sorted(result.series)}")
    series = result.series[kind]
    rows = series["rows"]
    header = ",".join(series["columns"]) + "\n"
    cells = result._cell_text(kind)
    if cells is not None:
        text = _joined(cells, len(rows[0]), header, ",", "\n", "\n")
    else:
        text = header + "".join(
            ",".join([float.__repr__(v) if isinstance(v, float) else str(v)
                      for v in row]) + "\n" for row in rows)
    with open(out_path, "w") as fh:
        fh.write(text)
    return text
