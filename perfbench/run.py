"""Benchmark runner for shortgf.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src/``.
Every repetition is a fresh interpreter (``rep.py``), started one at a time,
so each pays the cold cost a CLI call pays (module-global caches start
empty).  A run first starts SETUP_SAMPLES interpreters that only set up,
then repeats the workload until the next repetition would end after
``--seconds`` (at least MIN_REPS times, unless that would take the run past
OVERRUN times ``--seconds``), and reports medians.  A repetition still
running SLACK_S seconds after that OVERRUN limit fails the run.  Times are
divided by the machine-speed factor each repetition measured (probe.py);
NOTES.md says why.

With ``--trace 0`` the last stdout line is
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end metrics;
with ``--trace 1`` the run times one untraced repetition, then traced ones,
and reports the per-layer metrics.  ``--workload all`` runs every workload
in turn and prints one such line per workload.  ``failed`` leaves out the
failures listed in workloads.KNOWN_FAILURES; the log lines before the result
report those apart, and ``fail_frac`` there counts both.  Exits non-zero,
printing no result, when a repetition fails to run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import metric_names, unit  # noqa: E402
from workloads import KNOWN_FAILURES, WORKLOADS  # noqa: E402

REP = os.path.join(HERE, "rep.py")
SETUP_SAMPLES = 7
MIN_REPS = 2
OVERRUN = 2.0
SLACK_S = 120

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "out_terms": "count",
    "out_gf_length": "bits",
}


class RepError(RuntimeError):
    pass


def spawn(workload, seed, mode, deadline):
    """Run one repetition in a fresh interpreter and return its JSON result."""
    spawned_at = time.monotonic()
    timeout = deadline - spawned_at
    if timeout <= 0:
        raise RepError("out of time before the repetition started")
    try:
        proc = subprocess.run(
            [sys.executable, REP, workload, str(seed), mode, repr(spawned_at)],
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise RepError(f"{mode} repetition exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise RepError(f"{mode} repetition exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def repeat(workload, seed, mode, started, seconds, min_reps, deadline):
    """Repetitions until the next would end more than `seconds` after the
    start; while fewer than `min_reps`, until it would end more than
    OVERRUN times `seconds` after it, which bounds a run on a slow machine."""
    reps = []
    while True:
        t0 = time.monotonic()
        reps.append(spawn(workload, seed, mode, deadline))
        duration = time.monotonic() - t0
        end = time.monotonic() + duration
        limit = seconds if len(reps) >= min_reps else OVERRUN * seconds
        if end > started + limit:
            return reps


def _median(reps, key):
    return statistics.median(rep[key] for rep in reps)


def run(workload, seed, seconds, trace, log):
    started = time.monotonic()
    deadline = started + OVERRUN * seconds + SLACK_S
    if trace:
        plain = spawn(workload, seed, "plain", deadline)
        reps = repeat(workload, seed, "traced", started, seconds, 1, deadline)
        metrics = {
            name: {"value": statistics.median(r["layers"][name] for r in reps), "unit": unit(name)}
            for name in metric_names()
        }
        untraced = plain["raw_wall_s"] / plain["slowdown"]
        overhead = metrics["trace.wall_s"]["value"] - untraced
        metrics["trace.overhead_s"]["value"] = overhead
        log(
            f"{workload}: {len(reps)} traced repetitions; traced wall "
            f"{metrics['trace.wall_s']['value']:.3f} s, untraced {untraced:.3f} s, "
            f"overhead {overhead:.3f} s; top-level coverage "
            f"{metrics['trace.coverage']['value']:.4f}"
        )
    else:
        setups = [spawn(workload, seed, "setup", deadline) for _ in range(SETUP_SAMPLES)]
        reps = repeat(workload, seed, "plain", started, seconds, MIN_REPS, deadline)
        for rep in reps:
            rep["wall_s"] = rep["raw_wall_s"] / rep["slowdown"]
            rep["cpu_s"] = rep["raw_cpu_s"] / rep["slowdown"]
        for rep in setups + reps:
            rep["setup_s"] = rep["raw_setup_s"] / rep["setup_slowdown"]
        values = {key: _median(reps, key) for key in END_TO_END if key != "setup_s"}
        values["setup_s"] = _median(setups + reps, "setup_s")
        metrics = {key: {"value": values[key], "unit": u} for key, u in END_TO_END.items()}
        log(f"{workload}: {len(reps)} repetitions, {len(setups) + len(reps)} set-ups")
        for key in ("raw_wall_s", "slowdown", "wall_s"):
            log(f"{workload} per-repetition {key}: {' '.join(f'{rep[key]:.4f}' for rep in reps)}")
    attempted = sum(rep["attempted"] for rep in reps)
    failures = [line for rep in reps for line in rep["failures"]]
    known = [line for rep in reps for line in rep["known_failures"]]
    for key, metric in metrics.items():
        log(f"{workload} {key} {metric['value']:.6g} {metric['unit']}")
    log(
        f"{workload} fail_frac {(len(failures) + len(known)) / attempted:.6g} ratio "
        f"({len(known)} known, {len(failures)} other failed items of {attempted})"
    )
    for line in sorted(set(failures)):
        log(f"{workload} FAILED {line}")
    for line in KNOWN_FAILURES.get(workload, ()):
        state = "still failing" if line in known else "no longer seen"
        log(f"{workload} KNOWN FAILURE {state}: {line}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    log = lambda line: print(line, flush=True)  # noqa: E731
    try:
        results = [run(name, args.seed, args.seconds, args.trace, log) for name in names]
    except RepError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
