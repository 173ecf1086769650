"""Tests of the benchmark itself: inputs, checkers, tracer and runner.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import shortgf as sg  # noqa: E402
from inputs import GENERATORS, KNOWN_DEFECT_ITEM, make_inputs  # noqa: E402
from probe import SpeedProbe  # noqa: E402
from run import END_TO_END  # noqa: E402
from tracer import Tracer, metric_names  # noqa: E402
from workloads import (  # noqa: E402
    KNOWN_FAILURES,
    WORKLOADS,
    calculus_item,
    check_calculus,
    run_items,
)

# The known polytope_gf miscount, moved by (37, 733, -84) into the positive
# orthant: 2 lattice points, but the GF misses the non-simple vertex (0, 0, 22)
# (originally (-37, -733, 106), where 5 rows are tight).
DEFECT_ROWS = (
    (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
    (20, -1, 0), (5, -3, -19), (1, 4, 28), (-20, 1, 0),
)
DEFECT_RHS = (7, 0, 140, 0, 22, 0, 7, -418, 617, 0)
DEFECT_SIDES = (8, 141, 23)


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_same_seed_same_inputs(workload):
    assert make_inputs(workload, 7) == make_inputs(workload, 7)


@pytest.mark.parametrize("workload", ["calculus", "number_theory"])
def test_seed_changes_inputs(workload):
    assert make_inputs(workload, 7) != make_inputs(workload, 8)


def test_known_miscount_counts_as_failure():
    defect = ("polytope", 3, DEFECT_ROWS, DEFECT_RHS)
    items = (("pair", DEFECT_SIDES, defect, ("points", 3, ()), (0, 0, 22)),)
    outcomes = run_items(sg, calculus_item, items)
    failures, _ = check_calculus(sg, items, outcomes)
    assert len(failures) == 1
    assert "wrong f" in failures[0] and "coefficient" in failures[0]


def test_known_defect_item_gives_its_known_failure():
    items = make_inputs("calculus", 11)[:1]
    assert items == (KNOWN_DEFECT_ITEM,)
    failures, _ = check_calculus(sg, items, run_items(sg, calculus_item, items))
    assert tuple(failures) == KNOWN_FAILURES["calculus"]


def test_raising_item_counts_as_failure_and_run_goes_on():
    unbounded = ("polytope", 1, ((-1,),), (0,))
    fine = ("points", 1, ((3,),))
    items = (
        ("pair", (8,), unbounded, fine, (0,)),
        ("pair", (8,), fine, fine, (3,)),
    )
    outcomes = run_items(sg, calculus_item, items)
    failures, gfs = check_calculus(sg, items, outcomes)
    assert len(failures) == 1 and failures[0].startswith("item 0: raised")
    assert len(gfs) == 5  # the second item was still run and checked


def _calculus_sample():
    return make_inputs("calculus", 3)[:16] + (
        ("pair", (8,), ("points", 1, ((1,), (5,))), ("slab", 1, (0,), (4,)), (1,)),
    )


def _canonical(outcome):
    """Comparable form of one calculus outcome."""
    return {
        key: (sg.format_gf(v) if isinstance(v, sg.ShortGF) else repr(v))
        for key, v in outcome.items()
    }


def test_traced_and_untraced_outputs_identical():
    items = _calculus_sample()
    plain = run_items(sg, calculus_item, items)
    tracer = Tracer(sg)
    try:
        traced = run_items(sg, calculus_item, items)
    finally:
        tracer.uninstall()
    assert [_canonical(o) for o in traced] == [_canonical(o) for o in plain]
    plain_fail, plain_gfs = check_calculus(sg, items, plain)
    traced_fail, traced_gfs = check_calculus(sg, items, traced)
    assert plain_fail == traced_fail
    assert sum(len(g.terms) for g in traced_gfs) == sum(len(g.terms) for g in plain_gfs)
    layers = tracer.metrics(1.0)
    assert layers["calculus.tau_hadamard.calls"] > 0
    assert layers["barvinok.lattice_gf_mapped.calls"] > 0
    # the wrappers were installed and are gone again
    assert sg.barvinok.polytope_gf.__name__ == "polytope_gf"
    assert not hasattr(sg.barvinok.polytope_gf, "__wrapped__")
    assert not hasattr(sg.calculus.lattice_gf_mapped, "__wrapped__")


def test_tracer_catches_calls_inside_the_package():
    tracer = Tracer(sg)
    try:
        sg.prime_pi(100, r=8)
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"numlab.prime_pi", "numlab.segment_set", "calculus.tau_hadamard"} <= names
    roots = [span for span in tracer.spans if span[3] < 0]
    assert [span[0] for span in roots] == ["numlab.prime_pi"]


def test_benchmark_json_matches_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == metric_names()
    assert len(spec["per_layer"]) <= 128


def test_probe_samples_inside_the_region():
    with SpeedProbe() as probe:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(probe.samples) > 2 * 3  # edge samples plus alarm samples
    assert 0 < probe.in_region_wall_s < 0.3
    assert probe.slowdown > 0


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line(trace, section):
    proc = _run("--workload", "number_theory", "--seed", "1", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 16
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec[section]
    }


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "number_theory", "--seed", "0", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
