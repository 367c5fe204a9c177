"""Serialization round trips, suite runner determinism, CLI exit codes."""

import base64
import contextlib
import copy
import io
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import sphericity.reports
from sphericity import (GeometryError, SpaceForm, layer_width, make_circle,
                        make_disc_intersection, make_frame_ode_curve,
                        make_lune, make_support_curve)
from sphericity.cli import main
from sphericity.curves import ClosedCurve
from sphericity.io import (curve_from_dict, curve_to_dict, load_curve,
                           save_curve)
from sphericity.reports import (ConfigError, SuiteResult, config_hash,
                                emit_plot_data, result_json, run)

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
    """Curves whose arrays hold edge-case floats (and NaN/inf in kappa)."""
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
    kappa = array(st.one_of(_FINITE, st.floats()), (n,))
    hint = draw(st.none() | st.lists(_FINITE, min_size=space.dim,
                                     max_size=space.dim))
    return ClosedCurve(
        space=space, points=array(_FINITE, (n, space.dim)), s=s,
        tangents=array(_FINITE, (n, space.dim)),
        normals_out=array(_FINITE, (n, space.dim)), kappa=kappa,
        corner=np.array(draw(st.lists(st.booleans(), min_size=n,
                                      max_size=n)), dtype=bool),
        total_length=sys.float_info.max, kmin=draw(_FINITE),
        provenance="circle", k0_declared=draw(st.none() | _FINITE),
        closure_gap=draw(_FINITE),
        hint_center=None if hint is None else np.array(hint))


class TestCurveSerialization:
    def test_round_trip_bit_identical(self, tmp_path):
        sph, hyp = SpaceForm.sphere(1.0), SpaceForm.hyperbolic(1.0)
        curves = [
            make_lune(sph, 1.0, 0.15, n=512),
            make_circle(hyp, hyp.origin(), 2.0, n=256),
            make_support_curve(1.0, {2: (0.05, 0.0)}, k0_target=0.8, n=256),
            make_frame_ode_curve(
                sph, lambda u: 1.0 + 0.1 * np.cos(6 * np.pi * np.asarray(u)),
                n=256),
            make_disc_intersection(FLAT, [[0.0, 0.0], [0.5, 0.2], [0.1, 0.6]],
                                   1.0, n=256),
        ]
        path = tmp_path / "curve.json"
        for curve in curves:
            save_curve(curve, path)
            loaded = load_curve(path)
            for name in ("points", "s", "tangents", "normals_out", "corner",
                         "hint_center"):
                assert np.array_equal(getattr(loaded, name),
                                      getattr(curve, name)), name
            assert np.array_equal(loaded.kappa, curve.kappa, equal_nan=True)
            for name in ("total_length", "kmin", "closure_gap", "provenance",
                         "k0_declared"):
                assert getattr(loaded, name) == getattr(curve, name), name
            # a second dump reproduces the same document byte for byte
            assert json.dumps(curve_to_dict(loaded)) \
                == json.dumps(curve_to_dict(curve))

    @settings(max_examples=60, deadline=None)
    @given(curve=_extreme_curves())
    def test_edge_case_floats_round_trip_bit_exact(self, curve):
        loaded = curve_from_dict(json.loads(json.dumps(curve_to_dict(curve))))
        for name in ("points", "s", "tangents", "normals_out", "kappa"):
            a, b = getattr(loaded, name), getattr(curve, name)
            assert a.dtype == np.float64 and a.flags.c_contiguous, name
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), name
        assert np.array_equal(loaded.corner, curve.corner)
        if curve.hint_center is None:
            assert loaded.hint_center is None
        else:
            assert np.array_equal(loaded.hint_center.view(np.uint64),
                                  curve.hint_center.view(np.uint64))
        for name in ("total_length", "kmin", "closure_gap", "k0_declared"):
            a, b = getattr(loaded, name), getattr(curve, name)
            assert (a is None and b is None) or \
                np.float64(a).view(np.uint64) == np.float64(b).view(np.uint64)

    @pytest.mark.parametrize("index", [1, -1])
    def test_non_increasing_arc_length_refused(self, index):
        doc = curve_to_dict(make_circle(FLAT, FLAT.origin(), 1.0, n=64))
        s = _unb64(doc["s"])
        s[index] = s[0] if index == 1 else doc["total_length"]
        doc["s"] = _b64(s)
        with pytest.raises(GeometryError, match="arc lengths"):
            curve_from_dict(doc)

    def test_frames_recovered_when_absent(self):
        curve = make_circle(FLAT, FLAT.origin(), 1.0, n=2048)
        doc = curve_to_dict(curve)
        del doc["tangent"], doc["normal_out"]
        loaded = curve_from_dict(doc)
        dots = np.sum(loaded.tangents * curve.tangents, axis=-1)
        assert float(np.min(dots)) > 1.0 - 1e-9
        # widths survive a frame-less round trip (they use points only)
        rep = layer_width(loaded)
        assert rep.passed and abs(rep.d) < 1e-9

    def test_bad_schema_rejected(self):
        with pytest.raises(GeometryError):
            curve_from_dict({"schema": "something_else/9"})
        doc = curve_to_dict(make_circle(FLAT, FLAT.origin(), 1.0, n=64))
        for old in ("closed_curve/1", "closed_curve/2"):
            doc["schema"] = old
            with pytest.raises(GeometryError, match=old):
                curve_from_dict(doc)


def _spoil(doc, field, how):
    """A copy of a curve document with one field made invalid."""
    doc = dict(doc)
    n, text = doc["n"], doc.get(field)
    if how == "truncated":
        doc[field] = text[:-1]
    elif how == "non_alphabet":
        doc[field] = text[:8] + "*" + text[9:]
    elif how == "short":
        doc[field] = _b64(_unb64(text)[:-1])
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
CURVE_FILE_REFUSALS = [
    ("coords", "truncated"), ("tangent", "truncated"),
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
        cfg = {"suite": "angle", "seed": 0,
               "space": {"kind": "flat", "k1": 0.0},
               "generator": {"provenance": "circle", "k0": 1.0, "n": 512},
               "base_point": {"mode": "offset", "distance": 0.7},
               "tolerances": {"slack_tol": -1.0}}   # unreachable demand
        res = run(cfg)
        assert res.exit_code == 2

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
        first = result_json(run(cfg), drop_timestamp=True)
        second = result_json(run(cfg), drop_timestamp=True)
        assert first == second

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

    def test_config_level_output_path(self, tmp_path):
        out_dir = tmp_path / "from_config"
        cfg = {"seed": 0, "space": {"kind": "flat", "k1": 0.0},
               "generator": {"provenance": "circle", "k0": 1.0, "n": 512},
               "out": str(out_dir)}
        rc = main(["verify-angle", "--config", self._write(tmp_path, cfg)])
        assert rc == 0
        assert (out_dir / "report.json").exists()


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

# One base config per fuzzed subcommand and the key paths the fuzz replaces.
FUZZ_BASE = {
    "verify-angle": (
        {"seed": 0, "space": {"kind": "flat", "k1": 0.0},
         "generator": {"provenance": "circle", "k0": 1.0, "n": 64},
         "base_point": {"mode": "offset", "distance": 0.3}},
        ["seed", "space", "space.k1", "generator.k0", "generator.n",
         "generator.phase", "generator.center", "base_point",
         "base_point.distance", "tolerances.slack_tol"]),
    "verify-width": (
        {"seed": 0, "space": {"kind": "sphere", "k1": 1.0},
         "generator": {"provenance": "lune", "k0": 1.0, "r": 0.3, "n": 64}},
        ["space.kind", "generator.provenance", "generator.k0", "generator.r",
         "generator.n", "generator.terms", "generator.harmonics",
         "generator.centers", "curve_file", "tolerances.margin_tol"]),
    "spindle-table": (
        {"seed": 0, "space": {"kind": "hyperbolic", "k1": 1.0},
         "spindle": {"k0": [1.5, 2.0], "r_count": 9}},
        ["space", "space.k1", "spindle", "spindle.k0", "spindle.r_count"]),
    "verify-warped": (
        {"seed": 0, "warped": {"family": "cubic", "params": {"eps": 0.05},
                               "T": 2.0, "rho0": 0.8, "curves": 1}},
        ["warped.family", "warped.params", "warped.params.eps",
         "warped.params.delta", "warped.T", "warped.rho0", "warped.curves",
         "warped.violating"]),
    "sweep": (
        {"seed": 0, "sweep": {"k0": 1.0, "k1": [0.5, 0.01],
                              "limit_tol": 1e-5}},
        ["seed", "sweep", "sweep.k0", "sweep.k1", "sweep.limit_tol"]),
}
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


# Warped configs whose warp, curvature or comparison circle curvature
# overflows float64: refused with exit 1 before any check is judged.
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


def _per_cell_csv(series) -> str:
    """Oracle: the CSV text as one format() / str() call per cell."""
    def cell(v):
        return format(v, ".17g") if isinstance(v, float) else str(v)
    lines = [",".join(series["columns"])]
    lines += [",".join(cell(v) for v in row) for row in series["rows"]]
    return "\n".join(lines) + "\n"


def _per_row_angle_rows(rep):
    """Oracle: the angle series rows built one included sample at a time."""
    return [[float(rep.s[i]), float(rep.t[i]), float(rep.phi[i]),
             rep.bound_cos, float(rep.slack[i])]
            for i in np.nonzero(rep.included)[0]]


# The CLI test configs: one base config per subcommand, the offset angle
# witness at n=1024, and a flat lune, whose corner samples the angle series
# leaves out.
CLI_OUTPUT_CONFIGS = [(command, config)
                      for command, (config, _) in sorted(FUZZ_BASE.items())]
CLI_OUTPUT_CONFIGS += [
    ("verify-angle", {"seed": 0, "space": {"kind": "flat", "k1": 0.0},
                      "generator": {"provenance": "circle", "k0": 1.0,
                                    "n": 1024},
                      "base_point": {"mode": "offset", "distance": 0.7}}),
    ("verify-angle", {"seed": 0, "space": {"kind": "flat", "k1": 0.0},
                      "generator": {"provenance": "lune", "k0": 1.0,
                                    "r": 0.3, "n": 256}}),
]


@pytest.mark.parametrize("command,config", CLI_OUTPUT_CONFIGS,
                         ids=[f"{c}-{i}" for i, (c, _)
                              in enumerate(CLI_OUTPUT_CONFIGS)])
def test_cli_outputs_match_per_cell_formulas(tmp_path, monkeypatch, command,
                                             config):
    angle_reports = []
    verify = sphericity.reports.verify_angle_bound

    def recording_verify(*args, **kwargs):
        angle_reports.append(verify(*args, **kwargs))
        return angle_reports[-1]

    monkeypatch.setattr(sphericity.reports, "verify_angle_bound",
                        recording_verify)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([command, "--config", str(path), "--out", str(out),
                     "--format", "both"])
    assert code == 0
    text = (out / "report.json").read_text()
    doc = json.loads(text)
    if command == "verify-angle":
        (rep,) = angle_reports
        doc["series"]["angle"]["rows"] = _per_row_angle_rows(rep)
        if config["generator"]["provenance"] == "lune":
            assert not rep.included.all()
    assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == text
    assert doc["series"]
    written = {p.stem for p in out.glob("*.csv")}
    assert written == set(doc["series"])
    for kind, series in doc["series"].items():
        assert (out / f"{kind}.csv").read_text() == _per_cell_csv(series)


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
