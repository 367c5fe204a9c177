"""Serialization round trips, suite runner determinism, CLI exit codes."""

import json

import numpy as np
import pytest

from sphericity import (GeometryError, SpaceForm, layer_width, make_circle,
                        make_lune, make_support_curve, make_warped)
from sphericity.cli import main
from sphericity.io import (curve_from_dict, curve_to_dict, load_curve,
                           metric_from_dict, metric_to_dict, save_curve)
from sphericity.reports import (ConfigError, config_hash, emit_plot_data,
                                result_json, run)

FLAT = SpaceForm.flat()


class TestCurveSerialization:
    def test_round_trip_bit_identical(self, tmp_path):
        curve = make_lune(SpaceForm.sphere(1.0), 1.0, 0.15, n=512)
        path = tmp_path / "curve.json"
        save_curve(curve, path)
        loaded = load_curve(path)
        assert np.array_equal(loaded.points, curve.points)
        assert np.array_equal(loaded.s, curve.s)
        assert np.array_equal(loaded.tangents, curve.tangents)
        assert np.array_equal(loaded.normals_out, curve.normals_out)
        assert np.array_equal(loaded.corner, curve.corner)
        nan_safe = np.nan_to_num
        assert np.array_equal(nan_safe(loaded.kappa), nan_safe(curve.kappa))
        assert loaded.total_length == curve.total_length
        assert loaded.kmin == curve.kmin
        # a second dump reproduces the same document byte for byte
        assert json.dumps(curve_to_dict(loaded)) \
            == json.dumps(curve_to_dict(curve))

    def test_reduced_precision_round_trips_structurally(self):
        curve = make_circle(FLAT, FLAT.origin(), 1.0, n=256)
        doc = curve_to_dict(curve, digits=12)
        loaded = curve_from_dict(doc)
        assert float(np.max(np.abs(loaded.points - curve.points))) < 1e-11

    def test_frames_recovered_when_absent(self):
        curve = make_circle(FLAT, FLAT.origin(), 1.0, n=2048)
        doc = curve_to_dict(curve, include_frames=False)
        loaded = curve_from_dict(doc)
        dots = np.sum(loaded.tangents * curve.tangents, axis=-1)
        assert float(np.min(dots)) > 1.0 - 1e-9
        # widths survive a frame-less round trip (they use points only)
        rep = layer_width(loaded)
        assert rep.passed and abs(rep.d) < 1e-9

    def test_bad_schema_rejected(self):
        with pytest.raises(GeometryError):
            curve_from_dict({"schema": "something_else/9"})

    def test_metric_round_trip(self):
        metric = make_warped("cubic", T=2.0, eps=0.05)
        doc = metric_to_dict(metric)
        loaded = metric_from_dict(doc)
        assert loaded.family == metric.family
        assert loaded.k_lo == metric.k_lo
        t = np.linspace(0.1, 1.9, 7)
        assert np.array_equal(loaded.f(t), metric.f(t))


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

    def test_all_suite_runs_implied_sections(self):
        cfg = {"suite": "all", "seed": 0,
               "space": {"kind": "flat", "k1": 0.0},
               "generator": {"provenance": "circle", "k0": 1.0, "n": 1024},
               "base_point": {"mode": "offset", "distance": 0.6},
               "spindle": {"k0": [1.0]},
               "sweep": {"k0": 1.0}}
        res = run(cfg)
        assert res.exit_code == 0
        names = {c["name"] for c in res.checks}
        assert "angle_min_slack" in names
        assert "width_margin" in names
        assert any(n.startswith("spindle_oracle") for n in names)
        assert any(n.startswith("euclidean_limit") for n in names)

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
