"""Tests of the benchmark itself: inputs, oracle, span tree, contract."""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import run
import spans
import sphericity
import sphericity.layers
import sphericity.reports
import worker
import workloads

HERE = Path(__file__).resolve().parent
SMALL_N = 512


def _specs(workload, seed, count=40):
    stream = workloads.schedule(workload, np.random.default_rng(seed))
    return [next(stream) for _ in range(count)]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(workload):
    first = json.dumps(_specs(workload, 7))
    assert json.dumps(_specs(workload, 7)) == first
    assert json.dumps(_specs(workload, 8)) != first


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_kind_is_scheduled_and_warmed_up(workload):
    scheduled = {spec["kind"] for spec in _specs(workload, 1, count=60)}
    assert scheduled == set(workloads.kinds_of(workload))
    warm = workloads.warm_up_kinds(workload)
    assert set(warm) <= scheduled and len(set(warm)) == len(warm)


def _judged(spec, outcome, **obs):
    tally = worker.Tally()
    judgement = worker._judge(spec, dict(obs, outcome=outcome), None)
    tally.add(spec, judgement)
    return judgement, tally


def test_oracle_flags_injected_fail_and_refusal():
    random_curve = _specs("angle-mix", 1, count=8)[3]
    assert random_curve["kind"] == "frame_ode_sphere"
    for outcome in ("fail", "refused", "error: RuntimeError: boom"):
        judgement, tally = _judged(random_curve, outcome)
        assert not judgement.allowed and judgement.hard
        assert (tally.wrong, tally.failed) == (1, 1)
    judgement, tally = _judged(random_curve, "pass")
    assert judgement.allowed and (tally.wrong, tally.failed) == (0, 0)


def test_oracle_near_critical_counts_but_does_not_fail_the_run():
    spec = workloads.draw_spec("near_critical_1e-9", np.random.default_rng(0))
    assert _judged(spec, "refused")[0].allowed
    assert _judged(spec, "pass")[0].allowed
    judgement, tally = _judged(spec, "fail", min_cos=0.5)
    assert not judgement.allowed and not judgement.hard
    assert (tally.wrong, tally.failed) == (1, 0)


def test_known_defect_has_a_fixed_share_of_whole_cycles():
    preamble, cycle = workloads.WORKLOADS["angle-mix"]
    specs = _specs("angle-mix", 2, count=len(preamble) + 3 * len(cycle) + 5)
    tally = worker.Tally()
    for spec in specs:
        allowed = spec["kind"] != "near_critical_1e-9"
        tally.add(spec, workloads.Judgement(allowed, hard=False))
    # the five ops of the unfinished fourth cycle do not count
    result = dict(tally.to_dict(), attempted=len(specs))
    assert run.verdict_counts(result) == (len(preamble) + 3 * len(cycle), 3)
    frame_ode = [k for k in cycle if k.startswith("frame_ode")]
    assert 2 * len(frame_ode) > len(cycle) + len(preamble)  # they set p50
    # one more soft wrong verdict per cycle trips the verdict_ok_frac bound
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bound = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    ok_now, ok_worse = 1 - 1 / len(cycle), 1 - 2 / len(cycle)
    assert (ok_now - ok_worse) / ok_now > bound["verdict_ok_frac"]


def test_oracle_witness_tolerances():
    rng = np.random.default_rng(3)
    spec = workloads.draw_spec("angle_witness_sphere", rng)
    offset = spec["offset_frac"] * workloads.circle_radius("sphere", spec["k0"])
    exact = workloads.offset_circle_min_cos("sphere", spec["k0"], offset)
    assert _judged(spec, "pass", min_cos=exact + 5e-7)[0].allowed
    assert not _judged(spec, "pass", min_cos=exact + 2e-6)[0].allowed
    lune = workloads.draw_spec("lune_hyperbolic", rng)
    assert _judged(lune, "pass", d=1.0, d0=1.0 + 1e-6, margin=0.0)[0].allowed
    assert not _judged(lune, "pass", d=1.0, d0=1.0 + 2e-5, margin=0.0)[0].allowed
    assert not _judged(lune, "pass", d=1.0, d0=1.0, margin=-1e-6)[0].allowed


def test_oracle_cli_exit_codes_and_determinism(tmp_path):
    spec = dict(workloads.draw_spec("cli_warped_violating",
                                    np.random.default_rng(4)),
                config_id=0, serial=0)
    ctx = workloads.Context(tmp_path)
    obs = workloads.certify(spec, ctx)
    assert obs["outcome"] == "exit:3"
    assert workloads.judge(spec, obs, ctx).allowed
    assert workloads.judge(spec, obs, ctx).allowed   # same bytes again
    assert not workloads.judge(spec, dict(obs, outcome="exit:0"), ctx).allowed
    report = Path(obs["out_dir"]) / "report.json"
    doc = json.loads(report.read_text())
    doc["checks"].append({"name": "injected"})
    report.write_text(json.dumps(doc))
    assert not workloads.judge(spec, obs, ctx).allowed


def test_witness_digits_and_percentiles():
    assert run.witness_digits([1e-8, 1e-9]) == pytest.approx(8.0)
    assert run.witness_digits([0.0]) == pytest.approx(52 * np.log10(2.0))
    p50, p90 = run.percentiles([0.001 * i for i in range(1, 101)])
    assert p50 == pytest.approx(50.5) and 90.0 < p90 < 91.0


def test_host_speed_scales_to_the_reference_probe():
    speed = worker.HostSpeed()
    speed.at = [0.0, 1.0, 2.0, 3.0]
    speed.took = [2 * worker.REF_PROBE_S] * 4
    assert speed.scale([0.5, 2.5]) == pytest.approx([0.5, 0.5])
    speed.took[1] = 100.0       # one hiccup is outvoted by its neighbours
    assert speed.scale([1.0]) == pytest.approx([0.5])
    result = {"latencies_s": [1.0, 3.0], "scale": [0.5, 2.0]}
    assert run.scaled(result) == [0.5, 6.0]


def _traced_ops(tmp_path):
    tracer = spans.Tracer()
    ctx = workloads.Context(tmp_path)
    rng = np.random.default_rng(5)
    walls = []
    for op_id, name in enumerate(("support_angle", "frame_ode_hyperbolic",
                                  "lune_sphere", "cli_angle_circle",
                                  "round_trip_circle")):
        spec = dict(workloads.draw_spec(name, rng, n=SMALL_N),
                    config_id=op_id, serial=op_id)
        with tracer.tracing(op_id):
            t = time.perf_counter()
            obs = workloads.certify(spec, ctx)
            walls.append(time.perf_counter() - t)
        assert workloads.judge(spec, obs, ctx).allowed, (name, obs)
    return tracer, walls


def test_span_tree_is_consistent(tmp_path):
    tracer, walls = _traced_ops(tmp_path)
    a = tracer.arrays()
    assert len(a["start"]) > 100
    assert np.all(a["end"] >= a["start"])
    assert np.all(tracer.self_times() >= -1e-9)
    child = np.nonzero(a["parent"] >= 0)[0]
    parent = a["parent"][child]
    assert np.all(parent < child)
    assert np.all(a["op"][parent] == a["op"][child])
    assert np.all(a["start"][child] >= a["start"][parent])
    assert np.all(a["end"][child] <= a["end"][parent])
    names = set(np.array(tracer.names)[a["name"]])
    assert {"curves.make_frame_ode_curve", "layers.incenter", "cli.main",
            "io.save_curve", "search.golden"} <= names
    stats = tracer.layer_stats(len(walls))
    assert stats["curves.frame_ode.root_evals"] > 0
    assert stats["search.golden.evals"] > 0
    assert stats["io.save_curve.bytes"] > 0


def test_top_level_spans_account_for_op_time(tmp_path):
    tracer, walls = _traced_ops(tmp_path)
    for op_id, wall in enumerate(walls):
        covered = tracer.top_level_time(op_id)
        assert 0.8 * wall <= covered <= wall, (op_id, covered, wall)


def test_tracer_wraps_every_binding_and_restores_them():
    original = sphericity.curves.min_distance_to_curve
    make_circle = sphericity.reports.make_circle
    distance = sphericity.SpaceForm.distance
    tracer = spans.Tracer()
    with tracer.tracing(0):
        assert sphericity.layers.min_distance_to_curve is not original
        assert sphericity.reports.make_circle is not make_circle
        assert sphericity.SpaceForm.distance is not distance
        sphericity.SpaceForm.flat().distance(np.zeros(2), np.ones((3, 2)))
    assert sphericity.layers.min_distance_to_curve is original
    assert sphericity.curves.min_distance_to_curve is original
    assert sphericity.reports.make_circle is make_circle
    assert sphericity.SpaceForm.distance is distance
    assert tracer.counters["spaceforms.distance.points"] == 3
    # every patched binding is back to its original
    for owner, key, value, _ in tracer._patches:
        assert getattr(owner, key) is value


def test_benchmark_json_lists_the_reported_metrics():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} \
        == run.per_layer_units()
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "certbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "certbench/run.py", "--workload", "angle-mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
