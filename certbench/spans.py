"""Outside-in layer trace: spans around the library's public functions.

The tracer replaces each listed function at every ``sphericity`` module
binding that holds it (for example ``layers.min_distance_to_curve`` as well as
``curves.min_distance_to_curve``), and ``SpaceForm`` methods on the class.
Nothing under ``src/`` changes; the wrappers exist only between
``install()`` and ``uninstall()``.

A span records its name, start, end, parent and op id in flat arrays that
stay in memory until ``save()``.  A function re-entered directly under a span
of its own name (``golden_min`` calling ``golden_max``) stays one span.  A
span with a same-name ancestor further up (a golden search inside
``refine_extremum`` inside a golden line search) is its own span and call,
but its time is already inside the ancestor's, so ``busy_s`` leaves it out.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# span name -> (home module, attribute names there)
SPANS = {
    "spaceforms.distance": ("sphericity.spaceforms", ("SpaceForm.distance",)),
    "spaceforms.log_map": ("sphericity.spaceforms", ("SpaceForm.log_map",)),
    "spaceforms.exp_map": ("sphericity.spaceforms", ("SpaceForm.exp_map",)),
    "spaceforms.project": ("sphericity.spaceforms", ("SpaceForm.project",)),
    "curves.make_circle": ("sphericity.curves", ("make_circle",)),
    "curves.make_lune": ("sphericity.curves", ("make_lune",)),
    "curves.make_support_curve": ("sphericity.curves", ("make_support_curve",)),
    "curves.make_frame_ode_curve": ("sphericity.curves",
                                    ("make_frame_ode_curve",)),
    "curves.make_disc_intersection": ("sphericity.curves",
                                      ("make_disc_intersection",)),
    "curves.measure_radial": ("sphericity.curves", ("measure_radial",)),
    "curves.min_distance_to_curve": ("sphericity.curves",
                                     ("min_distance_to_curve",)),
    "curves.max_distance_to_curve": ("sphericity.curves",
                                     ("max_distance_to_curve",)),
    "search.refine_extremum": ("sphericity.search", ("refine_extremum",)),
    "search.golden": ("sphericity.search", ("golden_max", "golden_min")),
    "bounds.verify_angle_bound": ("sphericity.bounds", ("verify_angle_bound",)),
    "layers.layer_width": ("sphericity.layers", ("layer_width",)),
    "layers.incenter": ("sphericity.layers", ("incenter",)),
    "spindles.spindle_optimum": ("sphericity.spindles", ("spindle_optimum",)),
    "spindles.numeric_spindle_optimum": ("sphericity.spindles",
                                         ("numeric_spindle_optimum",)),
    "warped.make_warped": ("sphericity.warped", ("make_warped",)),
    "warped.make_warped_curve": ("sphericity.warped", ("make_warped_curve",)),
    "warped.verify_radial_bounds": ("sphericity.warped",
                                    ("verify_radial_bounds",)),
    "io.save_curve": ("sphericity.io", ("save_curve",)),
    "io.load_curve": ("sphericity.io", ("load_curve",)),
    "reports.run": ("sphericity.reports", ("run",)),
    "reports.result_json": ("sphericity.reports", ("result_json",)),
    "reports.emit_plot_data": ("sphericity.reports", ("emit_plot_data",)),
    "cli.main": ("sphericity.cli", ("main",)),
}

SPAN_STATS = (("calls", "count/op"), ("busy_s", "s/op"), ("self_s", "s/op"),
              ("errors", "count/op"))

# Counters recorded at span boundaries, in addition to the span stats.
# ``spaceforms.distance.points`` counts point pairs; the bytes a distance
# call reads follow from it (2 points x 2-3 float64 coordinates each) and are
# computed, not measured.
COUNTERS = {
    "spaceforms.distance.points": "count/op",
    "search.golden.evals": "count/op",
    "curves.frame_ode.root_evals": "count/op",
    "io.save_curve.bytes": "B/op",
    "reports.emit_plot_data.bytes": "B/op",
}


def _distance_points(args, kwargs, result):
    return int(np.size(result))


def _saved_bytes(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return os.path.getsize(path)


def _plot_bytes(args, kwargs, result):
    return len(result.encode())


# span name -> (counter name, measure(args, kwargs, result))
_MEASURES = {
    "spaceforms.distance": ("spaceforms.distance.points", _distance_points),
    "io.save_curve": ("io.save_curve.bytes", _saved_bytes),
    "reports.emit_plot_data": ("reports.emit_plot_data.bytes", _plot_bytes),
}

# span name -> counter of evaluations of the objective passed as 1st argument
_COUNTED_OBJECTIVES = {"search.golden": "search.golden.evals"}


def _resolve(home: str, attr: str):
    obj = importlib.import_module(home)
    owner = obj
    for part in attr.split("."):
        owner, obj = obj, getattr(obj, part)
    return owner, attr.split(".")[-1], obj


class Tracer:
    """Records spans and counters for the ops run while it is installed."""

    def __init__(self):
        self.names = list(SPANS)
        self._name_id = {name: i for i, name in enumerate(self.names)}
        self.op = array("l")
        self.parent = array("l")
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.error = array("b")
        self.nested = array("b")    # has an ancestor span of the same name
        self._active = [0] * len(self.names)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.op_id = -1
        self._stack = []
        self._patches = self._plan()

    # -- patching ---------------------------------------------------------
    def _plan(self):
        """(owner, attribute, original, wrapper) for every binding."""
        importlib.import_module("sphericity")   # loads every submodule
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "sphericity" or key.startswith("sphericity.")]
        patches = []
        for span, (home, attrs) in SPANS.items():
            for attr in attrs:
                owner, leaf, original = _resolve(home, attr)
                wrapper = self._wrap(span, original)
                if isinstance(owner, type):
                    patches.append((owner, leaf, original, wrapper))
                    continue
                for module in modules:
                    for key, value in vars(module).items():
                        if value is original:
                            patches.append((module, key, original, wrapper))
        curves = sys.modules["sphericity.curves"]
        brentq = curves.brentq
        patches.append((curves, "brentq", brentq,
                        self._count_objective("curves.frame_ode.root_evals",
                                              brentq)))
        return patches

    def install(self):
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, original, _ in self._patches:
            setattr(owner, key, original)

    @contextmanager
    def tracing(self, op_id: int):
        self.op_id = op_id
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    # -- wrappers ---------------------------------------------------------
    def _counting(self, counter, f):
        def counted(*args, **kwargs):
            self.counters[counter] += 1
            return f(*args, **kwargs)
        return counted

    def _count_objective(self, counter, fn):
        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            return fn(self._counting(counter, f), *args, **kwargs)
        return wrapper

    def _wrap(self, span, fn):
        name_id = self._name_id[span]
        clock = time.perf_counter
        measure = _MEASURES.get(span)
        objective_counter = _COUNTED_OBJECTIVES.get(span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            if stack and self.name[stack[-1]] == name_id:
                return fn(*args, **kwargs)
            if objective_counter is not None:
                args = (self._counting(objective_counter, args[0]),) + args[1:]
            index = len(self.start)
            active = self._active
            self.op.append(self.op_id)
            self.parent.append(stack[-1] if stack else -1)
            self.name.append(name_id)
            self.error.append(0)
            self.nested.append(active[name_id] > 0)
            self.end.append(0.0)
            active[name_id] += 1
            stack.append(index)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.error[index] = 1
                raise
            finally:
                self.end[index] = clock()
                stack.pop()
                active[name_id] -= 1
            if measure is not None:
                counter, how = measure
                self.counters[counter] += how(args, kwargs, result)
            return result

        return wrapper

    # -- results ----------------------------------------------------------
    def arrays(self) -> dict:
        return {"op": np.array(self.op, dtype=np.int64),
                "parent": np.array(self.parent, dtype=np.int64),
                "name": np.array(self.name, dtype=np.int64),
                "start": np.array(self.start, dtype=float),
                "end": np.array(self.end, dtype=float),
                "error": np.array(self.error, dtype=np.int8),
                "nested": np.array(self.nested, dtype=bool)}

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the time its child spans cover."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = a["parent"] >= 0
        covered = np.bincount(a["parent"][child], weights=dur[child],
                              minlength=len(dur))
        return dur - covered

    def layer_stats(self, n_ops: int) -> dict:
        """Per-op means of calls, busy_s, self_s and errors for each span,
        plus the counters."""
        a = self.arrays()
        count = len(self.names)
        dur = a["end"] - a["start"]
        stats = {
            "calls": np.bincount(a["name"], minlength=count),
            "busy_s": np.bincount(a["name"], weights=dur * ~a["nested"],
                                  minlength=count),
            "self_s": np.bincount(a["name"], weights=self.self_times(),
                                  minlength=count),
            "errors": np.bincount(a["name"], weights=a["error"],
                                  minlength=count),
        }
        out = {}
        for i, span in enumerate(self.names):
            for stat, _ in SPAN_STATS:
                out[f"{span}.{stat}"] = float(stats[stat][i]) / n_ops
        for counter, total in self.counters.items():
            out[counter] = total / n_ops
        return out

    def top_level_time(self, op_id: int) -> float:
        a = self.arrays()
        top = (a["op"] == op_id) & (a["parent"] < 0)
        return float(np.sum(a["end"][top] - a["start"][top]))

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
