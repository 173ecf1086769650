"""One cold repetition of one workload, in its own interpreter.

    python3 perfbench/rep.py <workload> <seed> <mode> <spawned_at>

mode is ``setup`` (import shortgf, make the inputs, stop), ``plain`` (time
the workload with tracing off) or ``traced`` (the same with every layer
function wrapped).  The timed region is sampled by probe.SpeedProbe:
``raw_wall_s`` / ``raw_cpu_s`` exclude the probes' own time and
``slowdown`` is the machine-speed factor to divide them by; per-layer times
of a traced run are divided by it already.  ``setup_slowdown`` comes from
probes taken right after set-up.  ``spawned_at`` is the parent's time.monotonic() just
before it started this process; CLOCK_MONOTONIC is system-wide, so
``ready - spawned_at`` is the set-up time including interpreter start.
Prints one JSON object on stdout; a traced repetition also writes its spans
to ``.perfbench/spans-<workload>-<seed>.jsonl``.  Runs against ``src/`` of
the checkout that holds this file and exits non-zero if shortgf cannot be
imported from there.
"""

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPANS_DIR = os.path.join(ROOT, ".perfbench")


def _cpu_s():
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def main(argv):
    workload, seed, mode, spawned_at = argv[0], int(argv[1]), argv[2], float(argv[3])
    sys.path.insert(0, SRC)
    import shortgf as sg

    if not os.path.abspath(sg.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"shortgf was imported from {sg.__file__}, not {SRC}")
    sys.path.insert(0, HERE)
    from inputs import make_inputs
    from probe import SpeedProbe, slowdown_now
    from tracer import Tracer, unit
    from workloads import KNOWN_FAILURES, WORKLOADS, run_items

    inputs = make_inputs(workload, seed)
    setup_s = time.monotonic() - spawned_at
    result = {"raw_setup_s": setup_s, "setup_slowdown": slowdown_now()}
    if mode == "setup":
        print(json.dumps(result))
        return
    item_fn, check = WORKLOADS[workload]
    tracer = None
    if mode == "traced":
        tracer = Tracer(sg)
    with SpeedProbe() as probe:
        cpu0 = _cpu_s()
        wall0 = time.perf_counter()
        outcomes = run_items(sg, item_fn, inputs)
        wall = time.perf_counter() - wall0
        cpu = _cpu_s() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
    failures, gfs = check(sg, inputs, outcomes)
    known = KNOWN_FAILURES.get(workload, ())
    result.update(
        raw_wall_s=wall - probe.in_region_wall_s,
        raw_cpu_s=cpu - probe.in_region_cpu_s,
        slowdown=probe.slowdown,
        peak_rss_mb=peak_rss_mb,
        attempted=len(inputs),
        failures=[line for line in failures if line not in known],
        known_failures=[line for line in failures if line in known],
        out_terms=sum(len(g.terms) for g in gfs),
        out_gf_length=sum(sg.gf_length(g) for g in gfs),
    )
    if tracer is not None:
        # Probes ran inside whatever span was open; take their share out of
        # every span time evenly, then scale to the reference speed.
        scale = result["raw_wall_s"] / wall / probe.slowdown
        result["layers"] = {
            name: value * scale if unit(name) == "s" else value
            for name, value in tracer.metrics(wall).items()
        }
        os.makedirs(SPANS_DIR, exist_ok=True)
        tracer.dump(os.path.join(SPANS_DIR, f"spans-{workload}-{seed}.jsonl"))
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
