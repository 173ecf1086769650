"""Alternating parent/change runs of the benchmark, written to a BENCH file.

    python3 scripts/bench_pairs.py --parent DIR --change DIR \\
        --workload calculus number_theory --pairs 10 --seconds 25 --out BENCH_30.json

For each workload ``W`` given, in turn, each pair runs ``perfbench/run.py
--workload W --seed S --seconds T --trace X`` once in each checkout, one run
at a time, parent first in even pairs and change first in odd ones, and
reads the JSON result on the run's last stdout line.  The file gets, per
workload (``W`` or ``W traced``), every run's metrics, ``failed`` and
``attempted``, and per metric each side's median and quartiles, the pairs
the change wins and loses (ties count for neither), and ``gain``: whether
the change wins at least nine tenths of the pairs and its median is better
than the parent's by more than the parent's quartile spread.  An end-to-end
metric also gets ``bound`` and ``regression`` (see `regression`).  Which way
is better and the bounds come from the change's ``BENCHMARK.json``.  A
traced entry keeps the per-layer metrics that are nonzero on either side.
The file is written after each workload, and the verdicts are printed.

When ``--out`` exists its other workloads are kept, so one file collects
runs of several workloads; it must name the same two commits.  The file
also records each checkout's commit (``git rev-parse HEAD``, with whether
the tree had uncommitted changes) and the Python version.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def commit_of(root):
    """(commit, dirty) of a git checkout; (None, None) outside one."""
    try:
        head = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "-C", root, "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return None, None
    return head, bool(status.strip())


def run_once(root, workload, seed, seconds, trace):
    """One benchmark run in `root`: the JSON result of its last stdout line."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    return {
        "failed": result["failed"],
        "attempted": result["attempted"],
        "metrics": {k: m["value"] for k, m in result["metrics"].items()},
    }


def quartiles(values):
    """(q1, median, q3); a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def regression(parent, change, better, bound):
    """The verdict on one end-to-end metric whose median may worsen by at
    most `bound` times the parent's median.

    ``worse`` when the change's median is worse than the parent's by more
    than that; else ``unresolved`` when the parent's quartile spread exceeds
    it too, unless every change run beats every parent run; else ``ok``.
    """
    sign = -1 if better == "lower" else 1
    pq1, pmed, pq3 = quartiles(parent)
    cmed = quartiles(change)[1]
    allowed = bound * abs(pmed)
    if sign * (pmed - cmed) > allowed:
        return "worse"
    if pq3 - pq1 > allowed and not all(
        sign * (c - p) > 0 for c in change for p in parent
    ):
        return "unresolved"
    return "ok"


def summarize(parent, change, better, bound=None):
    """Medians, quartiles, wins and the gain rule for one metric, and the
    regression verdict when it has a bound."""
    sign = -1 if better == "lower" else 1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    verdict = {}
    if bound is not None:
        verdict = {"bound": bound, "regression": regression(parent, change, better, bound)}
    return {
        "better": better,
        "parent": parent,
        "change": change,
        "parent_median": pmed,
        "parent_quartiles": [pq1, pq3],
        "change_median": cmed,
        "change_quartiles": [cq1, cq3],
        "relative": (cmed - pmed) / pmed if pmed else None,
        "wins": wins,
        "losses": losses,
        "gain": wins * 10 >= 9 * len(parent) and sign * (cmed - pmed) > pq3 - pq1,
        **verdict,
    }


def directions(root):
    """Metric name -> ('lower' or 'higher', its bound or None), from the
    checkout's BENCHMARK.json; only end-to-end metrics have a bound."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {
        m["name"]: (m["better"], m.get("bound"))
        for m in spec["end_to_end"] + spec["per_layer"]
    }


def run_pairs(roots, workload, args):
    """`args.pairs` alternating runs of `workload` per side, printed as they end."""
    wall = "trace.wall_s" if args.trace else "wall_s"
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(
                run_once(roots[side], workload, args.seed, args.seconds, args.trace)
            )
        line = " ".join(
            f"{side}={runs[side][-1]['metrics'][wall]:.4f}" for side in ("parent", "change")
        )
        print(f"{workload} pair {i + 1}/{args.pairs} ({order[0]} first): {wall} {line}", flush=True)
    return runs


def entry(runs, specs, args):
    """The BENCH file's entry for one workload's runs."""
    names = list(runs["change"][0]["metrics"])
    if args.trace:
        names = [
            k for k in names
            if any(r["metrics"][k] for side in runs for r in runs[side])
        ]
    return {
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "failed": {side: [r["failed"] for r in runs[side]] for side in runs},
        "attempted": {side: [r["attempted"] for r in runs[side]] for side in runs},
        "metrics": {
            k: summarize(
                [r["metrics"][k] for r in runs["parent"]],
                [r["metrics"][k] for r in runs["change"]],
                *specs.get(k, ("lower", None)),
            )
            for k in names
        },
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workload", required=True, nargs="+")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    header = {
        side: dict(zip(("commit", "dirty"), commit_of(root)))
        for side, root in roots.items()
    }
    doc = {"parent": header["parent"], "change": header["change"], "workloads": {}}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
        for side in roots:
            if doc[side]["commit"] != header[side]["commit"]:
                sys.exit(f"{args.out} holds runs of another {side} commit")
    doc["python"] = platform.python_version()

    specs = directions(roots["change"])
    for workload in args.workload:
        key = f"{workload} traced" if args.trace else workload
        doc["workloads"][key] = entry(run_pairs(roots, workload, args), specs, args)
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        for k, m in doc["workloads"][key]["metrics"].items():
            if "regression" in m or k in ("trace.wall_s", "calculus.tau_hadamard.total_s"):
                print(
                    f"{key} {k}: parent {m['parent_median']:.4g} change {m['change_median']:.4g} "
                    f"wins {m['wins']}/{args.pairs} gain {m['gain']} "
                    f"regression {m.get('regression', '-')}"
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())
