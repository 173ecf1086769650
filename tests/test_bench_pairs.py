"""The regression verdicts and the multi-workload run of `scripts/bench_pairs.py`."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _script():
    path = os.path.join(ROOT, "scripts", "bench_pairs.py")
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = _script()


class TestRegression:
    def test_worse_past_the_bound(self):
        parent = [1.0, 1.0, 1.0, 1.0]
        assert bench.regression(parent, [1.25] * 4, "lower", 0.2) == "worse"
        assert bench.regression(parent, [1.15] * 4, "lower", 0.2) == "ok"
        assert bench.regression(parent, [0.75] * 4, "higher", 0.2) == "worse"
        assert bench.regression(parent, [1.5] * 4, "higher", 0.2) == "ok"

    def test_wide_parent_spread_is_unresolved(self):
        # quartiles 0.8 and 1.2 of median 1.0: a spread of 0.4 > 0.2 * 1.0
        parent = [0.6, 0.8, 1.0, 1.2, 1.4]
        assert bench.regression(parent, [1.0] * 5, "lower", 0.2) == "unresolved"
        assert bench.regression(parent, [1.0] * 5, "lower", 0.5) == "ok"
        # worse takes precedence over unresolved
        assert bench.regression(parent, [1.3] * 5, "lower", 0.2) == "worse"

    def test_change_beating_every_parent_run_resolves(self):
        parent = [0.6, 0.8, 1.0, 1.2, 1.4]
        assert bench.regression(parent, [0.5] * 5, "lower", 0.2) == "ok"
        assert bench.regression(parent, [0.5, 0.5, 0.5, 0.5, 1.4], "lower", 0.2) == "unresolved"
        assert bench.regression(parent, [1.5] * 5, "higher", 0.2) == "ok"

    def test_identical_runs_are_ok(self):
        assert bench.regression([25, 25], [25, 25], "lower", 0.15) == "ok"

    def test_summarize_adds_the_verdict_only_with_a_bound(self):
        m = bench.summarize([1.0, 1.0], [2.0, 2.0], "lower", 0.2)
        assert (m["bound"], m["regression"]) == (0.2, "worse")
        assert "regression" not in bench.summarize([1.0], [2.0], "lower")


def _result(value):
    return {
        "failed": 0,
        "attempted": 3,
        "metrics": {"wall_s": value, "layer.calls": 7},
    }


def test_several_workloads_in_one_file(tmp_path, monkeypatch, capsys):
    spec = {
        "end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.2}],
        "per_layer": [{"name": "layer.calls", "better": "lower"}],
    }
    roots = {}
    for side in ("parent", "change"):
        roots[side] = tmp_path / side
        roots[side].mkdir()
        (roots[side] / "BENCHMARK.json").write_text(json.dumps(spec))
    values = {str(roots["parent"]): 1.0, str(roots["change"]): 1.5}
    calls = []
    monkeypatch.setattr(bench, "commit_of", lambda root: (None, None))
    monkeypatch.setattr(
        bench,
        "run_once",
        lambda root, w, seed, seconds, trace: calls.append((w, root)) or _result(values[root]),
    )
    out = tmp_path / "BENCH.json"
    assert bench.main([
        "--parent", str(roots["parent"]), "--change", str(roots["change"]),
        "--workload", "a", "b", "--pairs", "2", "--seconds", "1", "--out", str(out),
    ]) == 0
    # parent first in even pairs, change first in odd ones, workload by workload
    sides = [root.rsplit(os.sep, 1)[1] for _, root in calls]
    assert [w for w, _ in calls] == ["a"] * 4 + ["b"] * 4
    assert sides == ["parent", "change", "change", "parent"] * 2
    doc = json.loads(out.read_text())
    assert set(doc["workloads"]) == {"a", "b"}
    wall = doc["workloads"]["b"]["metrics"]["wall_s"]
    assert (wall["bound"], wall["regression"]) == (0.2, "worse")
    assert "regression" not in doc["workloads"]["b"]["metrics"]["layer.calls"]
    printed = capsys.readouterr().out
    assert "a wall_s: parent 1 change 1.5 wins 0/2 gain False regression worse" in printed


@pytest.mark.parametrize("pairs", ["0", "-1"])
def test_pairs_must_be_positive(pairs, tmp_path):
    with pytest.raises(SystemExit):
        bench.main([
            "--parent", str(tmp_path), "--change", str(tmp_path), "--workload", "a",
            "--pairs", pairs, "--seconds", "1", "--out", str(tmp_path / "x.json"),
        ])
