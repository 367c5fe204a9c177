"""The output-tree comparer of cli_runs, on synthetic trees: no CLI runs."""

import json

import cli_runs

PASS = "PASS: suite=width checks=1 failures=0 violations=0\n"


def _tree(root, **configs):
    """Write an output tree as ``cli_runs.run_all`` does: ``configs`` maps
    a config name to (exit code, stdout, stderr, {file name: text})."""
    root.mkdir()
    runs = {}
    for name, (code, out, err, files) in configs.items():
        runs[name] = {"exit code": code, "stdout": out, "stderr": err}
        for file, text in files.items():
            (root / name).mkdir(exist_ok=True)
            (root / name / file).write_text(text)
    (root / cli_runs.RUNS).write_text(json.dumps(runs))
    return root


def _compare(tmp_path, base, head):
    return cli_runs.compare(_tree(tmp_path / "base", **base),
                            _tree(tmp_path / "head", **head))


def test_exit_code_move(tmp_path):
    report = {"report.json": "{}\n"}
    err = "error: curve_file: coords: samples run clockwise\n"
    assert _compare(tmp_path, {"w": (3, PASS, "", report)},
                    {"w": (1, "", err, {})}) == [
        "DIFFERS  w exit code: base 3, head 1",
        f"DIFFERS  w stdout: base {PASS!r}, head ''",
        f"DIFFERS  w stderr: base '', head {err!r}",
        "DIFFERS  ./w/report.json"]


def test_stderr_change_of_a_config_that_writes_nothing(tmp_path):
    assert _compare(tmp_path, {"s67": (1, "", "error: one\n", {})},
                    {"s67": (1, "", "error: two\n", {})}) == [
        "same     s67 exit code: base 1, head 1",
        "same     s67 stdout: base '', head ''",
        "DIFFERS  s67 stderr: base 'error: one\\n', head 'error: two\\n'"]


def test_csv_values_equal_and_different(tmp_path):
    base = {"equal.csv": "a,b\n0.1,x\n", "other.csv": "a\n0.1\n",
            "same.csv": "a\n-0.0\n"}
    head = {"equal.csv": "a,b\n1e-1,x\n", "other.csv": "a\n0.0\n",
            "same.csv": "a\n-0.0\n"}
    assert _compare(tmp_path, {"c": (0, PASS, "", base)},
                    {"c": (0, PASS, "", head)}) == [
        "same     c exit code: base 0, head 0",
        f"same     c stdout: base {PASS!r}, head {PASS!r}",
        "same     c stderr: base '', head ''",
        "DIFFERS (values equal)  ./c/equal.csv",
        "DIFFERS (values differ)  ./c/other.csv",
        "same     ./c/same.csv"]


def test_moved_layer_report_line(tmp_path):
    base = {"layer_report.json": '{\n  "r": 0.5,\n  "d": 0.25\n}\n'}
    head = {"layer_report.json": '{\n  "r": 0.5,\n  "d": 0.125\n}\n'}
    assert _compare(tmp_path, {"l": (0, PASS, "", base)},
                    {"l": (0, PASS, "", head)}) == [
        "same     l exit code: base 0, head 0",
        f"same     l stdout: base {PASS!r}, head {PASS!r}",
        "same     l stderr: base '', head ''",
        "DIFFERS  ./l/layer_report.json",
        "--- base/l/layer_report.json",
        "+++ head/l/layer_report.json",
        "@@ -3 +3 @@",
        '-  "d": 0.25',
        '+  "d": 0.125']


def test_config_on_one_side_only(tmp_path):
    assert _compare(tmp_path, {"old": (1, "", "error: gone\n", {})},
                    {"new": (0, PASS, "", {"report.json": "{}\n",
                                           "width.csv": "r\n0.5\n"})}) == [
        f"head only  new exit code 0, stdout {PASS!r}, stderr ''",
        "head only  ./new/report.json",
        "head only  ./new/width.csv",
        "base only  old exit code 1, stdout '', stderr 'error: gone\\n'"]
