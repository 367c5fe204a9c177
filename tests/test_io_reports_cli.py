"""Serialization round trips, suite runner determinism, CLI exit codes."""

import base64
import contextlib
import copy
import functools
import io
import json
import math
import os
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cli_runs
import sphericity.reports
from sphericity import (GeometryError, SpaceForm, layer_width, make_circle,
                        make_disc_intersection, make_frame_ode_curve,
                        make_lune, make_support_curve, spindle_optimum,
                        verify_angle_bound)
from sphericity.cli import main
from sphericity.curves import ClosedCurve
from sphericity.io import (_float64, _g, curve_from_dict, curve_to_dict,
                           load_curve, save_curve)
from sphericity.reports import (ConfigError, SuiteResult, _float_text,
                                config_hash, emit_plot_data, result_json,
                                run)

FLAT = SpaceForm.flat()


def _b64(values) -> str:
    """Producer-side encoding: base64 of the little-endian float64 bytes."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode()


def _unb64(text: str) -> np.ndarray:
    return np.frombuffer(base64.b64decode(text), dtype="<f8").copy()


# Floats at the edges of binary64: signed zeros, subnormals, the extremes.
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                -1e-310, sys.float_info.max, -sys.float_info.max]
_FINITE = st.one_of(st.sampled_from(_EDGE_FLOATS),
                    st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _extreme_curves(draw):
    """Curves whose stored arrays and header floats are edge-case floats."""
    space = draw(st.sampled_from([FLAT, SpaceForm.sphere(1.0),
                                  SpaceForm.hyperbolic(2.0)]))
    n = draw(st.integers(1, 6))

    def array(elements, shape):
        size = math.prod(shape)
        values = draw(st.lists(elements, min_size=size, max_size=size))
        return np.array(values, dtype=float).reshape(shape)

    # strictly increasing, with a span below the largest float
    s = np.array(sorted(draw(st.lists(
        st.one_of(st.sampled_from(_EDGE_FLOATS[:6]),
                  st.floats(-1e300, 1e300)),
        min_size=n, max_size=n, unique=True))))
    hint = draw(st.none() | st.lists(_FINITE, min_size=space.dim,
                                     max_size=space.dim))
    return ClosedCurve(
        space=space, points=array(_FINITE, (n, space.dim)), s=s,
        tangents=array(_FINITE, (n, space.dim)),
        normals_out=np.zeros((n, space.dim)), kappa=np.zeros(n),
        corner=np.array(draw(st.lists(st.booleans(), min_size=n,
                                      max_size=n)), dtype=bool),
        total_length=sys.float_info.max, kmin=0.0, provenance="circle",
        closure_gap=draw(_FINITE),
        hint_center=None if hint is None else np.array(hint))


# Every generator, on the curved planes where it serves them, with corners
# (lunes, a 3-disc body) and without; the frame-ODE curves carry a closure
# gap.
ROUND_TRIP_CURVES = {
    "lune-S2": lambda: make_lune(SpaceForm.sphere(1.0), 1.0, 0.15, n=512),
    "lune-H2": lambda: make_lune(SpaceForm.hyperbolic(1.0), 2.0, 0.1, n=512),
    "circle-S2": lambda: make_circle(SpaceForm.sphere(1.0),
                                     SpaceForm.sphere(1.0).origin(), 1.5,
                                     n=256),
    "circle-H2": lambda: make_circle(SpaceForm.hyperbolic(1.0),
                                     SpaceForm.hyperbolic(1.0).origin(), 2.0,
                                     n=256),
    "support": lambda: make_support_curve(1.0, {2: (0.05, 0.0)},
                                          k0_target=0.8, n=256),
    "frame_ode-S2": lambda: make_frame_ode_curve(
        SpaceForm.sphere(1.0),
        lambda u: 1.0 + 0.1 * np.cos(6 * np.pi * np.asarray(u)), n=256),
    "frame_ode-H2": lambda: make_frame_ode_curve(
        SpaceForm.hyperbolic(1.0),
        lambda u: 2.0 + 0.1 * np.cos(4 * np.pi * np.asarray(u)), n=256),
    "disc_intersection": lambda: make_disc_intersection(
        FLAT, [[0.0, 0.0], [0.5, 0.2], [0.1, 0.6]], 1.0, n=256),
}


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


class TestCurveSerialization:
    def test_round_trip_bit_identical(self, tmp_path):
        path = tmp_path / "curve.json"
        for name, make in ROUND_TRIP_CURVES.items():
            curve = make()
            save_curve(curve, path)
            loaded = load_curve(path)
            # the loader derives normals_out, kappa and kmin as the
            # generator did, bit for bit
            for field in ("points", "s", "tangents", "normals_out", "kappa",
                          "hint_center", "kmin", "total_length",
                          "closure_gap"):
                assert np.array_equal(_bits(getattr(loaded, field)),
                                      _bits(getattr(curve, field))), \
                    (name, field)
            assert np.array_equal(loaded.corner, curve.corner), name
            assert loaded.provenance == curve.provenance, name
            # a second dump reproduces the same document byte for byte
            assert json.dumps(curve_to_dict(loaded)) \
                == json.dumps(curve_to_dict(curve)), name

    @settings(max_examples=60, deadline=None)
    @given(curve=_extreme_curves())
    def test_edge_case_floats_round_trip_bit_exact(self, curve):
        # the loader would refuse most of these sample sets (it measures
        # them), so the encode -> JSON -> decode path is checked on its own
        doc = json.loads(json.dumps(curve_to_dict(curve)))
        shape = curve.points.shape
        for field, name, dims in (("points", "coords", shape),
                                  ("s", "s", (curve.n,)),
                                  ("tangents", "tangent", shape)):
            a, b = _g(doc, name, _float64(dims)), getattr(curve, field)
            assert a.dtype == np.float64 and a.flags.c_contiguous, name
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), name
        assert doc["corners"] == np.flatnonzero(curve.corner).tolist()
        for name in ("total_length", "closure_gap", "hint_center"):
            a, b = doc[name], getattr(curve, name)
            assert (a is None and b is None) or \
                np.array_equal(_bits(a), _bits(b)), name

    @pytest.mark.parametrize("index", [1, -1])
    def test_non_increasing_arc_length_refused(self, index):
        doc = curve_to_dict(make_circle(FLAT, FLAT.origin(), 1.0, n=64))
        s = _unb64(doc["s"])
        s[index] = s[0] if index == 1 else doc["total_length"]
        doc["s"] = _b64(s)
        with pytest.raises(GeometryError, match="arc lengths"):
            curve_from_dict(doc)

    # The normals of a loaded curve are turned from its stored tangents: a
    # loader that rebuilt them from chord differences moved the least angle
    # slack of a flat support curve by 4.4e-5 at n = 256.
    @pytest.mark.parametrize("name", sorted(ROUND_TRIP_CURVES))
    def test_loaded_curve_verifies_to_the_same_angle_report(self, tmp_path,
                                                            name):
        curve = ROUND_TRIP_CURVES[name]()
        save_curve(curve, tmp_path / "curve.json")
        loaded = load_curve(tmp_path / "curve.json")
        base = curve.hint_center
        expected, got = (verify_angle_bound(c, base) for c in (curve, loaded))
        for field in ("min_slack", "slack", "phi", "t", "bound_cos"):
            assert np.array_equal(_bits(getattr(got, field)),
                                  _bits(getattr(expected, field))), field
        assert got.passed == expected.passed

    def test_bad_schema_rejected(self):
        with pytest.raises(GeometryError):
            curve_from_dict({"schema": "something_else/9"})
        doc = curve_to_dict(make_circle(FLAT, FLAT.origin(), 1.0, n=64))
        for old in ("closed_curve/1", "closed_curve/2", "closed_curve/3"):
            doc["schema"] = old
            with pytest.raises(GeometryError, match=old):
                curve_from_dict(doc)


def _spoil(doc, field, how):
    """A copy of a curve document with one field made invalid (or added:
    a field the document lacks starts as n encoded zeros)."""
    doc = dict(doc)
    n = doc["n"]
    text = doc.get(field, _b64(np.zeros(n)))
    if how == "truncated":
        doc[field] = text[:-1]
    elif how == "non_alphabet":
        doc[field] = text[:8] + "*" + text[9:]
    elif how == "short":
        doc[field] = _b64(_unb64(text)[:-1])
    elif how in ("scaled", "negated", "overflowing"):
        factor = {"scaled": 3.0, "negated": -1.0, "overflowing": 1e200}[how]
        doc[field] = _b64(_unb64(text) * factor)
    elif how in ("nan", "inf"):
        values = _unb64(text)
        values[n // 2] = math.nan if how == "nan" else -math.inf
        doc[field] = _b64(values)
    elif how == "index":
        doc[field] = [0, n]
    elif how == "negative_index":
        doc[field] = [-1]
    else:
        doc[field] = how
    return doc


# (field, how it is spoiled): each must be refused naming the field.
# ``kappa``, ``kmin`` and ``normal_out`` are derived on load, so a file that
# stores them is refused for the unknown field, whatever its value; a stored
# tangent must be a unit vector between the chords to its neighbours.
CURVE_FILE_REFUSALS = [
    ("coords", "truncated"), ("coords", "scaled"), ("tangent", "truncated"),
    ("tangent", "scaled"), ("tangent", "negated"), ("tangent", "overflowing"),
    ("s", "non_alphabet"), ("kappa", "non_alphabet"),
    ("coords", "short"), ("normal_out", "short"), ("kappa", "short"),
    ("coords", "nan"), ("coords", "inf"), ("s", "nan"),
    ("tangent", "inf"), ("normal_out", "nan"),
    ("corners", "index"), ("corners", "negative_index"),
    ("corners", [1.5]), ("coords", [[0.0, 1.0]]), ("n", 0), ("n", "64"),
    ("hint_center", [math.nan, 0.0, 0.0]), ("hint_center", [0.0, 0.0]),
    ("kmin", math.nan), ("kmin", "1.0"), ("total_length", math.inf),
]


class TestCurveFileRefusals:
    @pytest.fixture(scope="class")
    def doc(self):
        return curve_to_dict(make_lune(SpaceForm.sphere(1.0), 1.0, 0.3, n=64))

    @pytest.mark.parametrize("field,how", CURVE_FILE_REFUSALS,
                             ids=[f"{f}-{h}" for f, h in CURVE_FILE_REFUSALS])
    def test_refused_naming_the_field(self, doc, field, how):
        assert len(doc["corners"]) == 2
        curve_from_dict(doc)   # the unspoiled document loads
        with pytest.raises(GeometryError, match=f"^{field}: "):
            curve_from_dict(_spoil(doc, field, how))

    # A hint centre off the model was kept as it was: an S² file's incenter
    # came out off the sphere (exit 0), and an H² file was refused as
    # degenerate after a RuntimeWarning.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("space,k0,r,hint", [
        (SpaceForm.sphere(1.0), 1.0, 0.3, [0.0, 0.0, 1.5]),
        (SpaceForm.hyperbolic(1.0), 2.0, 0.1, [1.5, 0.0, 0.0])],
        ids=["S2", "H2"])
    def test_hint_center_off_the_model_refused(self, tmp_path, space, k0, r,
                                               hint):
        doc = curve_to_dict(make_lune(space, k0, r, n=64))
        doc["hint_center"] = hint
        path = tmp_path / "curve.json"
        path.write_text(json.dumps(doc))
        code, err = _run_cli(tmp_path, "verify-width",
                             {"seed": 0, "curve_file": str(path)},
                             "--out", str(tmp_path / "out"))
        assert code == 1 and len(err.splitlines()) == 1
        assert err.startswith("error: curve_file: hint_center: point "
                              f"violates {space.kind.value} model constraint")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field,how", [("coords", "truncated"),
                                           ("s", "short"),
                                           ("coords", "nan"),
                                           ("corners", "index"),
                                           ("hint_center", [math.nan] * 3),
                                           ("kmin", math.nan)])
    def test_verify_width_refuses_curve_file(self, tmp_path, doc, field,
                                             how):
        path = tmp_path / "bad_curve.json"
        path.write_text(json.dumps(_spoil(doc, field, how)))
        code, err = _run_cli(tmp_path, "verify-width",
                             {"seed": 0, "curve_file": str(path)})
        assert code == 1
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert f"{field}: " in err and "Traceback" not in err


class TestSuiteRunner:
    def test_angle_suite_sharpness_config(self):
        cfg = {"suite": "angle", "seed": 0,
               "space": {"kind": "flat", "k1": 0.0},
               "generator": {"provenance": "circle", "k0": 1.0, "n": 4096},
               "base_point": {"mode": "offset", "distance": 0.7}}
        res = run(cfg)
        assert res.overall_passed and res.exit_code == 0
        assert 0.0 <= res.checks[0]["measured"] < 1e-5

    def test_width_suite_lune_witness(self):
        cfg = {"suite": "width", "seed": 0,
               "space": {"kind": "sphere", "k1": 1.0},
               "generator": {"provenance": "lune", "k0": 1.0,
                             "r": "optimal", "n": 4096}}
        res = run(cfg)
        assert res.exit_code == 0
        assert abs(res.checks[0]["slack"]) < 1e-5   # margin ~ 0 at the witness

    def test_width_suite_reads_curve_file(self, tmp_path):
        curve = make_support_curve(1.0, {2: (0.05, 0.0)}, k0_target=0.8,
                                   n=2048)
        path = tmp_path / "c.json"
        save_curve(curve, path)
        res = run({"suite": "width", "seed": 0, "curve_file": str(path)})
        assert res.exit_code == 0

    def test_spindle_table_flat(self):
        cfg = {"suite": "spindle-table", "seed": 0,
               "space": {"kind": "flat", "k1": 0.0},
               "spindle": {"k0": [0.5, 1.0, 2.0]}}
        res = run(cfg)
        assert res.exit_code == 0
        rows = res.series["spindle"]["rows"]
        k0_col = res.series["spindle"]["columns"].index("k0")
        d0_col = res.series["spindle"]["columns"].index("d0")
        for row in rows:
            assert abs(row[d0_col]
                       - (np.sqrt(2.0) - 1.0) / row[k0_col]) < 1e-14

    def test_failed_check_exit_code_2(self):
        # at k1 = 0.5 both d0 rows are far from the flat d0 (the sphere's
        # slack is -0.0178): the fixed 1e-5 cannot call them the Euclidean
        # limit
        cfg = {"suite": "sweep", "seed": 0,
               "sweep": {"k0": 1.0, "k1": [0.5]}}
        res = run(cfg)
        assert res.exit_code == 2
        assert [c["verdict"] for c in res.checks] == ["fail", "fail"]

    def test_sweep_checks_do_not_depend_on_the_k1_order(self):
        # the Euclidean limit was judged on the last row, so [0.001, 0.5]
        # exited 2 where [0.5, 0.001] exited 0
        checks = [run({"suite": "sweep", "seed": 0,
                       "sweep": {"k0": 1.0, "k1": k1}}).checks
                  for k1 in ([0.5, 0.001], [0.001, 0.5])]
        assert checks[0] == checks[1]
        assert [c["verdict"] for c in checks[0]] == ["pass", "pass"]

    def test_hypothesis_violation_exit_code_3(self):
        cfg = {"suite": "warped", "seed": 1,
               "warped": {"family": "cubic", "params": {"eps": 0.05},
                          "T": 2.0, "curves": 1, "violating": True}}
        res = run(cfg)
        assert res.exit_code == 3
        assert res.hypothesis_violations

    def test_determinism_byte_identical(self):
        cfg = {"suite": "warped", "seed": 7,
               "warped": {"family": "perturbed_sin",
                          "params": {"delta": 0.01}, "T": 1.5, "curves": 3}}
        first, second = run(cfg), run(cfg)
        first.metadata["timestamp"] = second.metadata["timestamp"] = None
        assert result_json(first) == result_json(second)

    def test_config_hash_is_canonical(self):
        a = {"suite": "sweep", "seed": 0}
        b = {"seed": 0, "suite": "sweep"}
        assert config_hash(a) == config_hash(b)

    def test_unknown_suite_rejected(self):
        with pytest.raises(ConfigError):
            run({"suite": "nonsense"})

    def test_missing_generator_rejected(self):
        with pytest.raises(ConfigError):
            run({"suite": "angle", "seed": 0,
                 "space": {"kind": "flat", "k1": 0.0}})

    def test_emit_plot_data_schema(self, tmp_path):
        cfg = {"suite": "sweep", "seed": 0, "sweep": {"k0": 1.0}}
        res = run(cfg)
        text = emit_plot_data(res, "width_sweep", tmp_path / "s.csv")
        header = text.splitlines()[0]
        assert header == "kind,k1,d0,d0_minus_flat"
        with pytest.raises(GeometryError) as err:
            emit_plot_data(res, "nope", tmp_path / "x.csv")
        assert "width_sweep" in str(err.value)

    @pytest.mark.parametrize("rows", [
        [[0.1, 1.0], [-0.0, 5e-324], [np.float64(0.7), 1e300]],
        [[0.1, math.nan], [-math.inf, 2.0]],
        [["a", 1, 0.5], [True, None, np.float64(-0.0)], [], [2.5]],
    ], ids=["finite", "non-finite", "mixed"])
    def test_writing_one_result_twice_gives_identical_bytes(self, rows):
        def result():
            return SuiteResult("t", series={"t": {
                "columns": ["a", "b"], "rows": copy.deepcopy(rows)}})

        def written(res):
            return result_json(res), emit_plot_data(res, "t", os.devnull)

        res = result()
        first = written(res)
        assert written(res) == first
        # the CSV written first gives the same bytes as well
        res = result()
        csv = emit_plot_data(res, "t", os.devnull)
        assert written(res) == (first[0], csv) == first

    def test_replaced_rows_are_formatted_again(self):
        res = SuiteResult("t", series={"t": {"columns": ["a"],
                                             "rows": [[0.1]]}})
        assert emit_plot_data(res, "t", os.devnull) == "a\n0.1\n"
        res.series["t"]["rows"] = [[0.2]]
        assert emit_plot_data(res, "t", os.devnull) == "a\n0.2\n"
        assert json.loads(result_json(res))["series"]["t"]["rows"] == [[0.2]]

    def test_written_result_keeps_its_fields(self):
        cfg = {"suite": "angle", "seed": 0,
               "space": {"kind": "sphere", "k1": 1.0},
               "generator": {"provenance": "circle", "k0": 1.5, "n": 256},
               "base_point": {"mode": "offset", "distance": 0.3}}
        res, fresh = run(cfg), run(cfg)
        result_json(res)
        emit_plot_data(res, "angle", os.devnull)
        assert list(res.to_dict()) == [
            "schema", "suite", "overall", "exit_code", "checks",
            "hypothesis_violations", "series", "metadata"]
        fresh.metadata["timestamp"] = res.metadata["timestamp"]
        assert res == fresh and repr(res) == repr(fresh)


class TestCli:
    def _write(self, tmp_path, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_verify_angle_pass(self, tmp_path, capsys):
        cfg = {"seed": 0, "space": {"kind": "flat", "k1": 0.0},
               "generator": {"provenance": "circle", "k0": 1.0, "n": 1024},
               "base_point": {"mode": "offset", "distance": 0.7}}
        rc = main(["verify-angle", "--config", self._write(tmp_path, cfg),
                   "--out", str(tmp_path), "--format", "both"])
        assert rc == 0
        assert capsys.readouterr().out.startswith("PASS")
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["overall"] == "pass"
        assert (tmp_path / "angle.csv").exists()

    def test_verify_warped_violation_exit_3(self, tmp_path):
        cfg = {"seed": 0,
               "warped": {"family": "cubic", "params": {"eps": 0.05},
                          "T": 2.0, "curves": 1, "violating": True}}
        rc = main(["verify-warped", "--config", self._write(tmp_path, cfg)])
        assert rc == 3

    def test_sweep_without_hyperbolic_row_exit_3(self, tmp_path):
        cfg = {"seed": 0, "sweep": {"k0": 0.5, "k1": [1.0]}}
        rc = main(["sweep", "--config", self._write(tmp_path, cfg),
                   "--out", str(tmp_path)])
        assert rc == 3
        report = json.loads((tmp_path / "report.json").read_text())
        assert [c["name"] for c in report["checks"]] \
            == ["euclidean_limit_sphere"]
        assert "[1.0]" in report["hypothesis_violations"][0]
        rows = report["series"]["width_sweep"]["rows"]
        assert [row[0] for row in rows] == ["sphere"]

    @pytest.mark.parametrize("kind,k1,k0", [("flat", 0.0, 1e-3),
                                             ("hyperbolic", 1.0, 1.0000001),
                                             ("sphere", 1.0, 1e3)])
    def test_spindle_oracle_tolerances_scale_with_R(self, tmp_path, kind, k1,
                                                    k0):
        cfg = {"seed": 0, "space": {"kind": kind, "k1": k1},
               "spindle": {"k0": [k0], "r_count": 3}}
        rc = main(["spindle-table", "--config", self._write(tmp_path, cfg),
                   "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "report.json").read_text())
        check = next(c for c in report["checks"]
                     if c["name"].startswith("spindle_oracle_r0"))
        tol = check["slack"] + abs(check["measured"] - check["bound"])
        assert tol <= 1e-6 * check["bound"]

    def test_missing_config_usage_error(self, tmp_path, capsys):
        rc = main(["verify-angle", "--config", str(tmp_path / "nope.json")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_config_parse_error_positions(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{\n  \"suite\": angle\n}")
        rc = main(["verify-angle", "--config", str(path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "line 2" in err

    def test_seed_override_changes_hash_not_determinism(self, tmp_path):
        cfg = {"seed": 0,
               "warped": {"family": "cubic", "params": {"eps": 0.05},
                          "T": 2.0, "curves": 2}}
        path = self._write(tmp_path, cfg)
        rc1 = main(["verify-warped", "--config", path, "--out",
                    str(tmp_path / "a"), "--seed", "5"])
        rc2 = main(["verify-warped", "--config", path, "--out",
                    str(tmp_path / "b"), "--seed", "5"])
        assert rc1 == rc2 == 0
        a = json.loads((tmp_path / "a" / "report.json").read_text())
        b = json.loads((tmp_path / "b" / "report.json").read_text())
        a["metadata"]["timestamp"] = b["metadata"]["timestamp"] = None
        assert a == b

    def test_generator_error_line_keeps_diagnostics(self, tmp_path, capsys):
        cfg = {"seed": 0, "space": {"kind": "hyperbolic", "k1": 1.0},
               "generator": {"provenance": "frame_ode", "k0": 2.0, "n": 512,
                             "terms": [[1, 0.1, 0.0]]}}
        rc = main(["verify-angle", "--config", self._write(tmp_path, cfg)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "residual=" in err
        assert "Traceback" not in err

    def test_unknown_subcommand_usage_error(self):
        assert main(["frobnicate"]) == 1

    def test_config_level_output_path(self, tmp_path, capsys):
        # --out is the one way to name the output directory: a config's
        # "out" is refused by the read rule, and nothing is written
        out_dir = tmp_path / "from_config"
        cfg = {"seed": 0, "space": {"kind": "flat", "k1": 0.0},
               "generator": {"provenance": "circle", "k0": 1.0, "n": 512},
               "out": str(out_dir)}
        rc = main(["verify-angle", "--config", self._write(tmp_path, cfg)])
        assert rc == 1
        assert capsys.readouterr().err \
            == "error: config key 'out' is not read by the angle suite\n"
        assert not out_dir.exists()


# Config inputs that once crashed the CLI with a traceback, with the key path
# that the error line must name.
CONFIG_CRASHERS = [
    ({"generator.k0": "abc"}, "generator.k0"),
    ({"": [1, 2]}, "config"),
    ({"space": "flat"}, "space"),
    ({"generator": {"provenance": "frame_ode", "k0": 1.0, "n": 64,
                    "terms": [[2, 0.1]]}}, "generator.terms"),
    ({"generator.k0": math.nan}, "generator.k0"),
    ({"out": 5}, "out"),
]

# One base config per fuzzed subcommand, its committed
# tests/cli_configs/<subcommand>.json, and the key paths the fuzz replaces.
FUZZ_BASE = {command: (cli_runs.load(command), keys) for command, keys in {
    "verify-angle": ["seed", "space", "space.k1", "generator.k0",
                     "generator.n", "generator.phase", "generator.center",
                     "base_point", "base_point.distance", "tolerances"],
    "verify-width": ["space.kind", "generator.provenance", "generator.k0",
                     "generator.r", "generator.n", "generator.terms",
                     "generator.harmonics", "generator.centers",
                     "curve_file", "tolerances"],
    "spindle-table": ["space", "space.k1", "spindle", "spindle.k0",
                      "spindle.r_count"],
    "verify-warped": ["warped.family", "warped.params", "warped.params.eps",
                      "warped.params.delta", "warped.T", "warped.rho0",
                      "warped.curves", "warped.violating"],
    "sweep": ["seed", "sweep", "sweep.k0", "sweep.k1", "sweep.limit_tol"],
}.items()}
FUZZ_VALUES = ["abc", [1, 2], {"a": 1}, None, math.nan, 1e300, -1e300, 0,
               -1]


def _configured(command, overrides):
    config = copy.deepcopy(FUZZ_BASE[command][0])
    for path, value in overrides.items():
        value = copy.deepcopy(value)
        if path == "":
            return value
        *parents, key = path.split(".")
        node = config
        for part in parents:
            if not isinstance(node.get(part), dict):
                node[part] = {}
            node = node[part]
        node[key] = value
    return config


def _run_cli(tmp_dir, command, config, *args):
    path = tmp_dir / "fuzz.json"
    path.write_text(json.dumps(config))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main([command, "--config", str(path), *args])
    return code, err.getvalue()


@pytest.mark.parametrize("overrides,key", CONFIG_CRASHERS,
                         ids=[k for _, k in CONFIG_CRASHERS])
def test_config_error_exits_1_naming_the_key(tmp_path, overrides, key):
    code, err = _run_cli(tmp_path, "verify-angle",
                         _configured("verify-angle", overrides))
    assert code == 1
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert key in err


# Keys a suite does not read, misspelt or foreign to it, each of which once
# ran as if absent (a misspelt "violating" turned exit 3 into 0, a misspelt
# "terms" verified a plain circle, a "limit_tol" loosened the Euclidean
# limit): (subcommand, config, the error line after "error: ").  The curve
# file of "curve_file" is written by the test.
UNREAD_KEYS = [
    ("verify-warped", {"seed": 0, "warped": {
        "family": "perturbed_sin", "params": {"delta": 0.05}, "T": 1.0,
        "rho0": 0.6, "curves": 2, "violatng": True}},
     "config key 'warped.violatng' is not read by the warped suite"),
    ("verify-angle", {"seed": 0, "space": {"kind": "sphere", "k1": 1.0},
                      "generator": {"provenance": "frame_ode", "k0": 1.2,
                                    "term": [[3, 0.1, 0]]}},
     "config key 'generator.term' is not read by the angle suite"),
    ("verify-angle", {"seed": 0, "space": {"kind": "sphere", "k1": 1.0},
                      "generator": {"provenance": "frame_ode", "k0": 1.2,
                                    "terms": [[640, 0.05, 0]], "N": 512}},
     "config key 'generator.N' is not read by the angle suite"),
    ("verify-angle", dict(FUZZ_BASE["verify-angle"][0],
                          warped=FUZZ_BASE["verify-warped"][0]["warped"]),
     "config key 'warped' is not read by the angle suite"),
    ("verify-width", {"seed": 0, "curve_file": "curve.json",
                      "space": {"kind": "flat", "k1": 0.0}},
     "config key 'space' is not read by the width suite"),
    ("sweep", {"seed": 0, "sweep": {"k0": 1.0, "k1": [0.5],
                                    "limit_tol": 1.0}},
     "config key 'sweep.limit_tol' is not read by the sweep suite"),
    ("verify-angle", dict(FUZZ_BASE["verify-angle"][0], out="elsewhere"),
     "config key 'out' is not read by the angle suite"),
    ("verify-angle", dict(FUZZ_BASE["verify-angle"][0], space={
        "kind": "sphere", "k1": 1.0, "k2": 5}),
     "config key 'space.k2' is not read by the angle suite"),
    ("verify-warped", {"seed": 0, "warped": {
        "family": "cubic", "params": {"eps": 0.05, "epz": 7}, "T": 2.0,
        "curves": 1}},
     "warped.params: 'epz' is not a parameter of family 'cubic', which "
     "takes 'eps'"),
]


@pytest.mark.parametrize("command,config,named", UNREAD_KEYS,
                         ids=["warped.violatng", "generator.term",
                              "generator.N", "warped-in-angle",
                              "space-beside-curve_file", "sweep.limit_tol",
                              "out", "space.k2", "warped.params.epz"])
def test_unread_key_exits_1_naming_it(tmp_path, command, config, named):
    save_curve(make_circle(FLAT, FLAT.origin(), 1.0, n=64),
               tmp_path / "curve.json")
    if "curve_file" in config:
        config = dict(config, curve_file=str(tmp_path / "curve.json"))
    code, err = _run_cli(tmp_path, command, config,
                         "--out", str(tmp_path / "out"))
    assert code == 1
    assert err == f"error: {named}\n"
    assert not (tmp_path / "out").exists()


# Values that were read loosely (a boolean or a numeric string as a number,
# a fractional count or frame-ODE multiple truncated, a string as a flag),
# and a misspelt warped family and an absent family parameter, which were
# refused without their key path: (subcommand, overrides, the key path the
# error line must start with).
LOOSE_CONFIG_VALUES = [
    ("verify-angle", {"base_point.distance": True}, "base_point.distance"),
    ("verify-angle", {"generator.k0": "1.0"}, "generator.k0"),
    ("verify-angle", {"generator.n": 64.9}, "generator.n"),
    ("verify-angle", {"generator.center": [True, "0.0"]}, "generator.center"),
    ("verify-angle", {"space": {"kind": "sphere", "k1": 1.0},
                      "generator": {"provenance": "frame_ode", "k0": 1.2,
                                    "n": 1024, "terms": [[3.9, 0.1, 0]]},
                      "base_point": {"mode": "hint"}}, "generator.terms"),
    ("verify-warped", {"warped.violating": "false"}, "warped.violating"),
    ("verify-warped", {"warped.family": "cubicc"}, "warped.family"),
    ("verify-warped", {"warped.params": None}, "warped.params"),
]


@pytest.mark.parametrize("command,overrides,key", LOOSE_CONFIG_VALUES,
                         ids=[k for _, _, k in LOOSE_CONFIG_VALUES])
def test_loose_config_value_exits_1_naming_the_key(tmp_path, command,
                                                   overrides, key):
    code, err = _run_cli(tmp_path, command, _configured(command, overrides))
    assert code == 1
    assert err.startswith(f"error: {key}: ") and len(err.splitlines()) == 1


# Warped configs whose warp, its curvature or a generated curve's graph
# curvature overflows float64: refused with exit 1, and no report is
# written.
WARPED_OVERFLOWS = [("hyperbolic", {"k1": 1.0}, 1000.0),
                    ("cubic", {"eps": 1e300}, 1e300),
                    ("cubic", {"eps": 1e300}, 2.0),
                    ("cubic", {"eps": 1e200}, 2.0),
                    ("cubic", {"eps": 0.05}, 1e300)]


@pytest.mark.parametrize("family,params,T", WARPED_OVERFLOWS)
def test_warped_overflow_refused(tmp_path, family, params, T):
    config = {"seed": 0, "warped": {"family": family, "params": params,
                                    "T": T}}
    code, err = _run_cli(tmp_path, "verify-warped", config,
                         "--out", str(tmp_path / "out"))
    assert code == 1
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("eps", [1e200, 1e300])
def test_warped_huge_eps_without_curves_judged(tmp_path, eps):
    # the hyperbolic comparison plane's mu0 stays finite (k1 ~ 2.4e150 at
    # eps = 1e300); only the curves' graph curvature overflows
    config = {"seed": 0, "warped": {"family": "cubic", "params": {"eps": eps},
                                    "T": 2.0, "curves": 0}}
    code, err = _run_cli(tmp_path, "verify-warped", config)
    assert code == 0 and err == ""


@pytest.mark.parametrize("out", ["taken", "taken/sub"],
                         ids=["existing-file", "below-a-file"])
def test_unwritable_out_exits_1(tmp_path, out):
    (tmp_path / "taken").write_text("")
    code, err = _run_cli(tmp_path, "sweep", FUZZ_BASE["sweep"][0],
                         "--out", str(tmp_path / out))
    assert code == 1
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_non_finite_check_refused_by_name():
    with pytest.raises(GeometryError, match="angle_min_slack"):
        SuiteResult("angle").add_check("angle_min_slack", math.nan, 0.0,
                                       0.0, True)


_fuzz_cases = st.sampled_from(sorted(FUZZ_BASE)).flatmap(
    lambda command: st.tuples(st.just(command), st.dictionaries(
        st.sampled_from(FUZZ_BASE[command][1]), st.sampled_from(FUZZ_VALUES),
        max_size=2)))


@settings(max_examples=50, deadline=None)
@given(case=_fuzz_cases)
@example(case=("verify-angle", {"generator.k0": "abc"}))
@example(case=("verify-angle", {"": [1, 2]}))
@example(case=("verify-angle", {"space": "flat"}))
@example(case=("verify-angle", {"generator": {
    "provenance": "frame_ode", "k0": 1.0, "n": 64, "terms": [[2, 0.1]]}}))
@example(case=("verify-angle", {"generator.k0": math.nan}))
def test_cli_fuzz_exits_cleanly(tmp_path_factory, case):
    command, overrides = case
    code, err = _run_cli(tmp_path_factory.mktemp("fuzz"), command,
                         _configured(command, overrides))
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if "tolerances" in overrides:
        # no suite reads it: refused once the suite has run, unless another
        # override is refused first
        assert code == 1
        if len(overrides) == 1:
            assert "'tolerances'" in err


# Offsets beyond the farthest sample: refused as outside the curve before
# exp_map, whose norm overflowed at 1e300 with a RuntimeWarning.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("distance", [1e300, -1e300, 1.5])
def test_far_offset_base_point_refused(tmp_path, distance):
    code, err = _run_cli(tmp_path, "verify-angle", _configured(
        "verify-angle", {"base_point.distance": distance}))
    assert code == 1
    assert err == "error: base point is not strictly inside the curve\n"


# A flat circle whose ring length times n overflowed float64 in the arc
# lengths, with a RuntimeWarning, before the curve was refused.
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_tiny_k0_circle_refused_without_warning(tmp_path):
    code, err = _run_cli(tmp_path, "verify-angle", _configured(
        "verify-angle", {"generator.k0": 1e-306, "base_point.mode": "hint"}))
    assert code == 1
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("make,kmin", [
    (lambda: make_lune(FLAT, 1.0, spindle_optimum(FLAT, 1.0).r0), 3.0),
    (lambda: make_circle(FLAT, FLAT.origin(), 1.0), 0.2)],
    ids=["optimal-lune", "unit-circle"])
def test_verify_width_judges_curve_file_by_its_samples(tmp_path, make, kmin):
    curve = make()
    path = tmp_path / "curve.json"
    save_curve(curve, path)
    config = {"seed": 0, "curve_file": str(path)}
    out = ("--out", str(tmp_path / "out"))
    assert _run_cli(tmp_path, "verify-width", config, *out) == (0, "")
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["checks"][0]["bound"] == layer_width(curve).d0
    # a stored kmin once replaced the measured one and moved the bound, and
    # tangents rescaled by 1/kmin divided the measured kappa by it
    doc = json.loads(path.read_text())
    for edited, named in (
            (dict(doc, schema="closed_curve/3", kmin=kmin), "closed_curve/3"),
            (dict(doc, kmin=kmin), "kmin: "),
            (dict(doc, tangent=_b64(curve.tangents / kmin)), "tangent: ")):
        path.write_text(json.dumps(edited))
        code, err = _run_cli(tmp_path, "verify-width", config, *out)
        assert code == 1 and named in err and len(err.splitlines()) == 1


# Coordinates off the model surface were refused only through the tangent
# check, naming ``tangent``; a hyperboloid file without tangents first
# printed a RuntimeWarning from the tangents derived from them.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("space,k0,keep_tangent", [
    (SpaceForm.hyperbolic(1.0), 2.0, False),
    (SpaceForm.sphere(1.0), 1.0, True)], ids=["H2-no-tangent", "S2"])
def test_off_model_coords_refused_naming_coords(tmp_path, space, k0,
                                                keep_tangent):
    doc = curve_to_dict(make_circle(space, space.origin(), k0, n=256))
    doc["coords"] = _b64(_unb64(doc["coords"]) * 1.01)
    if not keep_tangent:
        del doc["tangent"]
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(doc))
    code, err = _run_cli(tmp_path, "verify-width",
                         {"seed": 0, "curve_file": str(path)})
    assert code == 1 and len(err.splitlines()) == 1
    assert "coords: " in err and "model constraint" in err


# A file without tangents once loaded with tangents rebuilt from chord
# differences of its points, which moved the least angle slack by up to
# 44,000 times its 1e-9 tolerance.
@pytest.mark.parametrize("absent", [True, False], ids=["missing", "null"])
def test_curve_file_without_tangent_refused(tmp_path, absent):
    doc = curve_to_dict(make_circle(FLAT, FLAT.origin(), 1.0, n=64))
    if absent:
        del doc["tangent"]
    else:
        doc["tangent"] = None
    with pytest.raises(ConfigError, match="^tangent: missing required key$"):
        curve_from_dict(doc)
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(doc))
    assert _run_cli(tmp_path, "verify-width",
                    {"seed": 0, "curve_file": str(path)}) \
        == (1, "error: curve_file: tangent: missing required key\n")


# A file whose samples run clockwise loaded: the flat support curve read
# kmin -1.19 instead of 0.86, and verify-width exited 3 (the hypothesis
# fails) for a convex curve that meets it.
@pytest.mark.parametrize("make", [
    lambda: make_support_curve(1.0, {2: (0.05, 0.02)}, k0_target=0.5, n=256),
    lambda: make_lune(SpaceForm.sphere(1.0), 1.0, 0.3, n=256),
    lambda: make_circle(SpaceForm.hyperbolic(1.0),
                        SpaceForm.hyperbolic(1.0).origin(), 2.0, n=256)],
    ids=["flat-support", "S2-lune", "H2-circle"])
def test_clockwise_curve_file_refused(tmp_path, make):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(cli_runs.reversed_curve(make())))
    reason = ("coords: samples run clockwise, not counterclockwise (no "
              "neighbouring sample lies inward of a tangent)")
    with pytest.raises(GeometryError, match=f"^{re.escape(reason)}$"):
        load_curve(path)
    assert _run_cli(tmp_path, "verify-width",
                    {"seed": 0, "curve_file": str(path)}) \
        == (1, f"error: curve_file: {reason}\n")


def test_reversed_great_circle_loads():
    # every neighbour lies on the tangent geodesic: no orientation to read
    s2 = SpaceForm.sphere(1.0)
    great = make_circle(s2, s2.origin(), 0.0, n=256)
    assert curve_from_dict(cli_runs.reversed_curve(great)).n == 256


# Header fields of a curve file: neither enters a verdict, but a wrong type
# or value is refused naming the field or a key below it (``space.k1``), not
# converted or stored as is.
HEADER_REFUSALS = [("closure_gap", "abc"), ("closure_gap", math.nan),
                   ("closure_gap", True), ("closure_gap", -1e-3),
                   ("closure_gap", math.inf), ("provenance", [1]),
                   ("provenance", None), ("provenance", 3),
                   ("provenance", "missing"), ("space", "missing"),
                   ("n", "missing"), ("coords", "missing"),
                   ("s", "missing"), ("total_length", "missing"),
                   ("corners", "missing"), ("space", "flat"),
                   ("space", [0.0]), ("space", {"kind": "sphere"}),
                   ("space", {"k1": 1.0}),
                   ("space", {"kind": "sphere", "k1": None}),
                   ("space", {"kind": "sphere", "k1": "one"}),
                   ("space", {"kind": "sphere", "k1": True}),
                   ("space", {"kind": "sphere", "k1": -1.0}),
                   ("space", {"kind": "torus", "k1": 1.0}),
                   ("space", {"kind": "flat", "k1": 5.0}),
                   ("space", {"kind": "flat", "k1": 0.0, "k2": 1.0})]


@pytest.mark.parametrize("field,value", HEADER_REFUSALS,
                         ids=[f"{f}-{v}" for f, v in HEADER_REFUSALS])
def test_curve_file_header_refused_naming_the_field(tmp_path, field, value):
    doc = curve_to_dict(make_circle(FLAT, FLAT.origin(), 1.0, n=64))
    if value == "missing":
        del doc[field]
    else:
        doc[field] = value
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(doc))
    code, err = _run_cli(tmp_path, "verify-width",
                         {"seed": 0, "curve_file": str(path)})
    assert code == 1 and len(err.splitlines()) == 1
    assert re.match(rf"error: curve_file: {field}[.:]", err)


@pytest.mark.parametrize("field", ["total_length", "space"])
def test_curve_file_integer_beyond_float_range_refused(tmp_path, field):
    doc = curve_to_dict(make_circle(FLAT, FLAT.origin(), 1.0, n=64))
    if field == "space":
        doc["space"] = {"kind": "sphere", "k1": 10 ** 400}
    else:
        doc[field] = 10 ** 400
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(doc))
    code, err = _run_cli(tmp_path, "verify-width",
                         {"seed": 0, "curve_file": str(path)})
    assert code == 1 and len(err.splitlines()) == 1
    assert re.match(rf"error: curve_file: {field}[.:]", err)


# A config's space block passes the curve header's checks: a flat plane
# with a nonzero or missing k1, and a boolean, string or out-of-range k1,
# are refused naming ``space.k1``, not ignored or converted.
CONFIG_SPACE_REFUSALS = [{"kind": "flat", "k1": 5.0}, {"kind": "flat"},
                         {"kind": "sphere", "k1": True},
                         {"kind": "sphere", "k1": "2"},
                         {"kind": "hyperbolic", "k1": 10 ** 400}]


@pytest.mark.parametrize("space", CONFIG_SPACE_REFUSALS,
                         ids=["flat-k1", "flat-no-k1", "bool", "string",
                              "huge-int"])
def test_config_space_refused_naming_space(tmp_path, space):
    code, err = _run_cli(tmp_path, "verify-angle",
                         _configured("verify-angle", {"space": space}))
    assert code == 1
    assert err.startswith("error: space.k1: ")
    assert len(err.splitlines()) == 1


# One rule for both documents: each value is accepted, or refused for the
# same reason after its key path, as a config's generator.n and a curve
# file's n, and as a config's generator.center and a curve file's
# hint_center (a curve file once refused n = 64.0 and kept a hint centre
# off the model).
ONE_RULE_VALUES = [("n", v) for v in (64, 64.0, 64.9, "64", True, 0,
                                      10 ** 400)]
ONE_RULE_VALUES += [("center", v) for v in (
    [0.0, 0.0, 1.0], [0, 0, 1], [0.0, 0.0, 1.5], [0.0, 1.0],
    [True, 0.0, 1.0], "abc", [[0.0, 0.0, 1.0]])]


@pytest.mark.parametrize("key,value", ONE_RULE_VALUES, ids=[
    f"{k}={'10**400' if v == 10 ** 400 else repr(v)}" for k, v in ONE_RULE_VALUES])
def test_config_and_curve_file_read_a_value_alike(key, value):
    sphere = SpaceForm.sphere(1.0)
    doc = curve_to_dict(make_circle(sphere, sphere.origin(), 1.0, n=64))
    config = {"suite": "width", "seed": 0,
              "space": {"kind": "sphere", "k1": 1.0},
              "generator": {"provenance": "circle", "k0": 1.0, "n": 64}}
    field = "n" if key == "n" else "hint_center"
    doc[field] = value
    config["generator"][key] = value

    def reason(read, path):
        """The refusal of ``read()`` after ``path: ``, or None."""
        try:
            read()
        except ConfigError as exc:
            assert str(exc).startswith(f"{path}: ")
            return str(exc)[len(path) + 2:]
        return None

    assert reason(lambda: curve_from_dict(doc), field) \
        == reason(lambda: run(config), f"generator.{key}")


@functools.lru_cache(maxsize=None)
def _saved(name):
    """(curve, its saved document) of a ROUND_TRIP_CURVES entry."""
    curve = ROUND_TRIP_CURVES[name]()
    return curve, curve_to_dict(curve)


_JSON_VALUES = (st.none() | st.booleans() | st.floats() | st.text(max_size=3)
                | st.lists(st.floats(), max_size=3))


@st.composite
def _claims(draw):
    """A config with a ``tolerances`` block, a saved curve with derived
    fields added, or a saved curve with its tangents rescaled or turned:
    (command, config, curve document or None, the field the refusal must
    name, the first added in document order)."""
    kind = draw(st.sampled_from(["tolerances", "derived", "tangent"]))
    if kind == "tolerances":
        command = draw(st.sampled_from(["verify-angle", "verify-width"]))
        block = draw(_JSON_VALUES | st.dictionaries(
            st.sampled_from(["slack_tol", "margin_tol"]), st.floats()))
        return (command, dict(FUZZ_BASE[command][0], tolerances=block), None,
                "'tolerances'")
    curve, doc = _saved(draw(st.sampled_from(sorted(ROUND_TRIP_CURVES))))
    doc = dict(doc)
    if kind == "tangent" and draw(st.booleans()):
        # turned in the tangent plane by more than any of these curves turns
        # between two samples
        angle = draw(st.floats(0.05, math.pi)) * draw(st.sampled_from(
            [-1.0, 1.0]))
        turned = curve.space.rotate90(curve.points, curve.tangents)
        doc["tangent"] = _b64(math.cos(angle) * curve.tangents
                              + math.sin(angle) * turned)
        return "verify-width", {"seed": 0}, doc, "tangent: "
    if kind == "tangent":
        scale = draw(st.sampled_from([-1.0, 0.0]) | st.floats(
            -1e3, 1e3).filter(lambda a: abs(a - 1.0) > 1e-9))
        doc["tangent"] = _b64(curve.tangents * scale)
        return "verify-width", {"seed": 0}, doc, "tangent: "
    arrays = {"kappa": curve.kappa, "normal_out": curve.normals_out}
    fields = draw(st.lists(st.sampled_from(
        ["kmin", "kappa", "k0_declared", "normal_out"]), min_size=1,
        max_size=4, unique=True))
    for field in fields:
        if field in arrays and draw(st.booleans()):
            # the true array, or the true array rescaled
            doc[field] = _b64(arrays[field] * draw(st.floats(-1e3, 1e3)))
        else:
            doc[field] = draw(_JSON_VALUES)
    return "verify-width", {"seed": 0}, doc, f"{fields[0]}: "


@settings(max_examples=60, deadline=None)
@given(case=_claims())
def test_stored_claims_are_refused_never_judged(tmp_path_factory, case):
    command, config, doc, named = case
    tmp = tmp_path_factory.mktemp("claims")
    if doc is not None:
        (tmp / "curve.json").write_text(json.dumps(doc))
        config = dict(config, curve_file=str(tmp / "curve.json"))
    code, err = _run_cli(tmp, command, config)
    assert code == 1
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert named in err


def _per_cell_csv(series) -> str:
    """Oracle: the CSV text as one float.__repr__() / str() call per cell."""
    def cell(v):
        return float.__repr__(v) if isinstance(v, float) else str(v)
    lines = [",".join(series["columns"])]
    lines += [",".join(cell(v) for v in row) for row in series["rows"]]
    return "\n".join(lines) + "\n"


def _per_row_angle_rows(rep):
    """Oracle: the angle series rows built one sample at a time."""
    return [[float(rep.s[i]), float(rep.t[i]), float(rep.phi[i]),
             rep.bound_cos, float(rep.slack[i])]
            for i in range(len(rep.s))]


# Spindle tables at the extremes of k0, where R = 1/k0 (or its curved
# analog) leaves the range in which r (2R - r) is representable.
EXTREME_SPINDLE_CONFIGS = [("flat", 0.0, 1e160), ("flat", 0.0, 1e300),
                           ("flat", 0.0, 1e-300), ("sphere", 1.0, 1e160),
                           ("sphere", 1.0, 1e300), ("hyperbolic", 1.0, 1e160),
                           ("hyperbolic", 1.0, 1e300)]


@pytest.mark.parametrize("kind,k1,k0", EXTREME_SPINDLE_CONFIGS)
def test_spindle_table_extreme_k0_passes(tmp_path, kind, k1, k0):
    code, err = _run_cli(tmp_path, "spindle-table",
                         {"seed": 0, "space": {"kind": kind, "k1": k1},
                          "spindle": {"k0": [k0], "r_count": 5}})
    assert (code, err) == (0, "")


# Floats json and repr write specially, text json escapes or that looks
# like the placeholder a float table is dumped as (32 hex digits, quoted or
# not), and tables of floats whose row template precondition breaks only in
# the last row.
_SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324,
                   1.7976931348623157e308]
_floats = st.floats() | st.sampled_from(_SPECIAL_FLOATS)
_texts = (st.text() | st.text(alphabet='"\\/\b\f\n\r\t\x00\x1f\x7fé\u2028😀')
          | st.text("0123456789abcdef", min_size=32, max_size=32).flatmap(
              lambda h: st.sampled_from([h, f'"{h}"', f'"rows": "{h}"'])))
_json_scalars = (st.none() | st.booleans() | st.integers() | _floats
                 | _floats.map(np.float64) | _texts)


def _break_last_row(rows, how):
    last = list(rows[-1])
    if how == "ragged":
        last.append(1.0)
    elif how in ("int", "bool", "empty list"):
        last[-1] = {"int": 1, "bool": True, "empty list": []}[how]
    elif how == "tuple":
        last = tuple(last)
    return rows[:-1] + [last]


_float_tables = st.builds(
    _break_last_row,
    st.integers(1, 4).flatmap(lambda width: st.lists(
        st.lists(_floats, min_size=width, max_size=width), min_size=1,
        max_size=5)),
    st.sampled_from(["none", "ragged", "int", "bool", "empty list", "tuple"]))
_json_docs = st.recursive(
    _json_scalars | _float_tables,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=3).map(tuple)
                      | st.dictionaries(_texts, children, max_size=4)
                      | st.dictionaries(st.integers(), children, max_size=3)),
    max_leaves=20)
_results = st.builds(
    SuiteResult, suite=_texts,
    checks=st.lists(st.fixed_dictionaries({
        "name": _texts, "measured": _floats, "bound": _floats,
        "slack": _floats, "verdict": st.sampled_from(["pass", "fail"])}),
        max_size=3),
    series=st.dictionaries(_texts, st.fixed_dictionaries(
        {"columns": st.lists(_texts, max_size=3),
         "rows": _float_tables | _json_docs}), max_size=2),
    hypothesis_violations=st.lists(_texts, max_size=2),
    metadata=st.dictionaries(_texts, _json_scalars | _float_tables,
                             max_size=2))


def _tables(**tables):
    """A result whose series ``kind`` holds the rows ``tables[kind]``."""
    return SuiteResult("t", series={kind: {"columns": ["a", "b"],
                                           "rows": rows}
                                    for kind, rows in tables.items()})


@settings(max_examples=300, deadline=None)
@given(result=_results)
@example(result=_tables(non_finite=[[1.0, math.nan], [-0.0, -math.inf]],
                        ragged=[[1.0, 2.0], [3.0]],
                        int_cell=[[1.0, 2.0], [3.0, 4]],
                        bool_cell=[[1.0, True]], empty=[], empty_row=[[]]))
@example(result=_tables(float64=[[np.float64(0.1), 2.0], (3.0, 4.0)]))
# a column is written with one repr only when all its cells hold one
# nonzero double: 0.0 == -0.0, and their reprs differ
@example(result=_tables(zeros=[[0.0, 1.0], [0.0, 2.0]],
                        negative_zeros=[[-0.0, 1.0], [-0.0, 2.0]],
                        mixed_zeros=[[0.0, 1.0], [-0.0, 2.0], [0.0, 3.0]]))
@example(result=_tables(t=[[-0.0, 1.5], [0.0, 1.5], [0.0, 1.5]]))
@example(result=_tables(t=[[2.5, 1.0], [2.5, -1.0], [2.5, 0.0]]))
@example(result=_tables(t=[[np.float64(2.5), 1.0],
                           [np.float64(2.5), -1.0]]))
@example(result=_tables(one_row=[[0.5, -0.0, 0.5]],
                        one_column=[[0.5], [0.5], [-0.0], [0.0]]))
@example(result=SuiteResult(
    'a "suite"\x00', checks=[{"name": '"rows": "0123456789abcdef' * 2,
                              "measured": 1.0, "bound": 0.5, "slack": 0.5,
                              "verdict": "pass"}],
    series={'"rows"\x00': {"columns": ['"a"'], "rows": [[1.0], [2.0]]}},
    hypothesis_violations=['bound "fails"\x00'],
    metadata={"\x00": "0123456789abcdef" * 2, "e": [{}, []]}))
def test_result_json_matches_json_dumps(result):
    text = json.dumps(result.to_dict(), sort_keys=True, indent=2) + "\n"
    assert result_json(result) == text
    assert result_json(result) == text          # the cells from the memo
    # the placeholders go into a copy: the result is left as it was
    assert json.dumps(result.to_dict(), sort_keys=True, indent=2) + "\n" \
        == text


_CSV_CELLS = {"float": _floats, "float64": _floats.map(np.float64),
              "int": st.integers(), "bool": st.booleans(), "none": st.none(),
              "text": st.text(max_size=3)}
# runs of one to three rows with the same cell types
_csv_runs = st.lists(st.sampled_from(sorted(_CSV_CELLS)), max_size=4).flatmap(
    lambda kinds: st.lists(st.tuples(*map(_CSV_CELLS.get, kinds)).map(list),
                           min_size=1, max_size=3))


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(_csv_runs, max_size=4).map(
    lambda runs: sum(runs, [])))
@example(rows=[])
@example(rows=[[1.0, math.nan, -math.inf], [2, "a", True], [], [],
               [np.float64(-0.0), 5e-324, None]])
# the zero-sign guard of the one-repr columns, as in the result_json test
@example(rows=[[0.0, 1.0], [0.0, 2.0]])
@example(rows=[[-0.0, 1.0], [-0.0, 2.0]])
@example(rows=[[0.0, 1.0], [-0.0, 2.0], [0.0, 3.0]])
@example(rows=[[-0.0, 1.5], [0.0, 1.5], [0.0, 1.5]])
@example(rows=[[2.5, 1.0], [2.5, -1.0], [2.5, 0.0]])
@example(rows=[[np.float64(2.5), 1.0], [np.float64(2.5), -1.0]])
@example(rows=[[0.5, -0.0, 0.5]])
@example(rows=[[0.5], [0.5], [-0.0], [0.0]])
def test_emit_plot_data_matches_per_cell_formulas(rows):
    series = {"columns": ["a", "b"], "rows": rows}
    text = emit_plot_data(SuiteResult("t", series={"t": series}), "t",
                          os.devnull)
    assert text == _per_cell_csv(series)


# The finiteness test of a float table summed every cell: np.float64 cells
# whose sum overflows printed numpy's RuntimeWarning, and finite Python
# floats whose sum overflows were refused the column-wise text.
@pytest.mark.parametrize("rows,column_wise", [
    ([[np.float64(1e308), np.float64(1e308)]], True),
    ([[1e308, 1e308]], True),
    ([[np.float64(1e308), 1e308], [-1e308, np.float64(-1e308)]], True),
    ([[np.float64(math.inf), np.float64(-math.inf)]], False),
    ([[1e308, math.inf]], False)], ids=["float64", "float", "mixed",
                                        "float64-infinities", "float-inf"])
def test_float_table_whose_sum_overflows(rows, column_wise):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = _tables(t=rows)
        assert result_json(result) == json.dumps(
            result.to_dict(), sort_keys=True, indent=2) + "\n"
        assert emit_plot_data(result, "t", os.devnull) \
            == _per_cell_csv(result.series["t"])
        assert (_float_text(rows) is not None) == column_wise


# The CLI configs whose outputs the pull-request check compares between the
# base and the head, with the exit code of each one that does not pass.
CLI_CONFIGS = cli_runs.configs()
CLI_CONFIG_EXITS = {"verify-angle.salias": 1, "verify-warped.typo": 1,
                    "verify-warped.family": 1, "verify-warped.params": 1,
                    "verify-angle.s67": 1, "verify-width.clockwise": 1,
                    "verify-angle.hnear": 3, "verify-warped.equator": 3,
                    "verify-warped.violating": 3, "verify-width.sgreat": 3}
# Those that write report.json: every one not refused.
REPORT_CONFIGS = [p for p in CLI_CONFIGS
                  if CLI_CONFIG_EXITS.get(p.stem, 0) != 1]


@pytest.fixture(scope="module")
def curve_file_dir(tmp_path_factory):
    """A directory holding the curve files the verify-width configs name."""
    path = tmp_path_factory.mktemp("curve_files")
    cli_runs.write_curve_files(path)
    return path


@pytest.mark.parametrize("config", CLI_CONFIGS,
                         ids=[p.stem for p in CLI_CONFIGS])
def test_cli_config_exit_code_and_repeatable_bytes(curve_file_dir, tmp_path,
                                                   monkeypatch, config):
    monkeypatch.chdir(curve_file_dir)
    first, second = (cli_runs.run_config(config, tmp_path / name)
                     for name in ("first", "second"))
    assert first.exit_code == CLI_CONFIG_EXITS.get(config.stem, 0)
    assert first == second


@pytest.mark.parametrize("config", REPORT_CONFIGS,
                         ids=[p.stem for p in REPORT_CONFIGS])
def test_cli_outputs_match_per_cell_formulas(curve_file_dir, tmp_path,
                                             monkeypatch, config):
    monkeypatch.chdir(curve_file_dir)
    angle_reports = []
    verify = sphericity.reports.verify_angle_bound

    def recording_verify(*args, **kwargs):
        angle_reports.append(verify(*args, **kwargs))
        return angle_reports[-1]

    monkeypatch.setattr(sphericity.reports, "verify_angle_bound",
                        recording_verify)
    result = cli_runs.run_config(config, tmp_path / "out")
    assert result.exit_code == CLI_CONFIG_EXITS.get(config.stem, 0)
    files = result.files
    text = files["report.json"]
    doc = json.loads(text)
    if "angle" in doc["series"]:
        (rep,) = angle_reports
        assert len(doc["series"]["angle"]["rows"]) == len(rep.s)
        doc["series"]["angle"]["rows"] = _per_row_angle_rows(rep)
        if cli_runs.load(config.stem)["generator"]["provenance"] == "lune":
            # both corners and their curvature windows have rows
            assert rep.included.all() and len(rep.s) == 256
    assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == text
    layer = doc["metadata"].get("layer_report")
    assert ("layer_report.json" in files) == (layer is not None)
    if layer is not None:
        assert files["layer_report.json"] \
            == json.dumps(layer, sort_keys=True, indent=2) + "\n"
    # a report without series holds the violation that stopped its suite
    assert doc["series"] or doc["hypothesis_violations"]
    assert {name for name in files if name.endswith(".csv")} \
        == {f"{kind}.csv" for kind in doc["series"]}
    for kind, series in doc["series"].items():
        assert files[f"{kind}.csv"] == _per_cell_csv(series)
    # each finite float cell has the same text in the CSV as in report.json
    as_written = json.loads(text, parse_float=lambda t: (t,))
    for kind, series in as_written["series"].items():
        csv_rows = [line.split(",")
                    for line in files[f"{kind}.csv"].splitlines()[1:]]
        assert len(csv_rows) == len(series["rows"])
        for row, csv_row in zip(series["rows"], csv_rows):
            floats = [v for v in row if isinstance(v, tuple)]
            assert floats == [(c,) for v, c in zip(row, csv_row)
                              if isinstance(v, tuple)]
