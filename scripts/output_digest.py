"""Digest of every output of the benchmark's items, per workload and seed.

    python3 scripts/output_digest.py --seeds 7 11
    python3 scripts/output_digest.py --seeds 7 --workload calculus --root DIR

For each workload and seed this makes the benchmark's inputs, runs its items
and its checker (``perfbench/workloads.py``), and prints one line:

    <workload> seed=<s> gfs=<count> failed=<count> sha256=<hex> values_sha256=<hex>

``sha256`` is the sha256 of ``format_gf`` of the checker's GFs, joined in
the order the checker returns them.  ``values_sha256`` is the sha256 of the
``repr`` of each item's other outputs, item by item: the counts, encoding
texts, coefficients, norms, packing maps and number-theory results, or the
error an item raised.  Two checkouts that print the same lines give
byte-identical outputs on every benchmark workload.  ``--root`` is the
checkout whose ``src/`` and ``perfbench/`` are imported (default: the one
that holds this script), so one copy of the script digests any commit.
Nothing under ``perfbench/`` is written: bytecode caching is off.
"""

import argparse
import hashlib
import os
import sys

WORKLOADS = ("circuit_accept", "circuit_encode", "calculus", "number_theory")


def values(sg, outcome):
    """An item's outputs other than its GFs and encodings, in order."""
    if isinstance(outcome, dict):
        outcome = tuple(outcome.values())
    elif not isinstance(outcome, tuple):
        outcome = (outcome,)
    return [x for x in outcome if not isinstance(x, (sg.ShortGF, sg.SegmentEncoding))]


def digest(sg, workloads, workload, seed, make_inputs):
    item_fn, check = workloads.WORKLOADS[workload]
    inputs = make_inputs(workload, seed)
    outcomes = workloads.run_items(sg, item_fn, inputs)
    failures, gfs = check(sg, inputs, outcomes)
    h = hashlib.sha256()
    for g in gfs:
        h.update(sg.format_gf(g).encode())
    hv = hashlib.sha256()
    for out in outcomes:
        hv.update(repr(values(sg, out)).encode())
    return len(gfs), len(failures), h.hexdigest(), hv.hexdigest()


def main(argv):
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--root", default=here)
    args = ap.parse_args(argv)
    root = os.path.abspath(args.root)
    sys.dont_write_bytecode = True
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import shortgf as sg
    import workloads
    from inputs import make_inputs

    if not os.path.abspath(sg.__file__).startswith(os.path.join(root, "src") + os.sep):
        raise SystemExit(f"shortgf was imported from {sg.__file__}, not {root}/src")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for seed in args.seeds:
        for name in names:
            count, failed, gfs_hex, values_hex = digest(
                sg, workloads, name, seed, make_inputs
            )
            print(
                f"{name} seed={seed} gfs={count} failed={failed} sha256={gfs_hex} "
                f"values_sha256={values_hex}"
            )
            sys.stdout.flush()


if __name__ == "__main__":
    main(sys.argv[1:])
