"""Command-line interface.

Verbs: count, coeff, norm, op, project, encode, segment, alt, demo, selftest.
Exit codes: 1 usage, 2 semantic error, 3 resource limit.  `--seed` (default
0) seeds only the random trials of `selftest`: every other verb is
deterministic and writes the same output for any seed.  The seed is
recorded in the provenance line printed to stderr, together with input
digests and the package version.
"""

import argparse
import hashlib
import os
import sys

from . import __version__
from .calculus import (
    TauMap,
    boolean_combine,
    choose_tau,
    coefficient,
    compress,
    decompress,
    evaluate_at_one,
    hadamard,
    minkowski_oracle,
    norm,
    oracle_project,
)
from .encoder import (
    compress_encoding,
    encode_alternating,
    encode_segment,
    format_encoding,
    parse_circuit,
    parse_encoding,
    segment_gf,
)
from .errors import FormatError, ResourceLimitError, ShortGFError
from .gfcore import LatticeBox, format_gf, read_gf, write_gf
from .numlab import (
    count_square_roots,
    factor_semiprime_from_sigma,
    find_ap,
    prime_pi,
    r4_coefficients,
    segment_set,
    sigma_from_r4,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()[:12]


def _provenance(paths, seed):
    digests = " ".join(f"{p}:{_digest(p)}" for p in paths)
    print(
        f"# shortgf {__version__} seed={seed} inputs: {digests or '-'}",
        file=sys.stderr,
    )


def _box_from_flag(value, nvars):
    if value is None:
        return None
    parts = [int(x) for x in value.split(",")]
    if len(parts) == 1:
        parts = parts * nvars
    return LatticeBox(tuple(parts))


def _emit_gf(gf, out):
    if out:
        write_gf(gf, out)
    else:
        sys.stdout.write(format_gf(gf))


def build_parser():
    ap = _Parser(prog="shortgf", description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument(
        "--limit-points",
        type=int,
        default=10_000_000,
        help="cap on brute-force enumeration sizes",
    )
    sub = ap.add_subparsers(dest="verb", required=True)

    s = sub.add_parser("count", help="cardinality of a finite support")
    s.add_argument("gf")

    s = sub.add_parser("coeff", help="coefficient at one exponent")
    s.add_argument("gf")
    s.add_argument("--point", required=True, help="comma-separated exponent")

    s = sub.add_parser(
        "norm",
        help="coordinatewise support maxima in the box, one exact degree per "
        "coordinate ('empty' for an empty support)",
    )
    s.add_argument("gf")
    s.add_argument("--box", required=True)

    s = sub.add_parser("op", help="binary operations on GF files")
    s.add_argument(
        "kind",
        choices=[
            "hadamard", "union", "intersect", "minus", "minkowski",
            "compress", "decompress",
        ],
    )
    s.add_argument("inputs", nargs="+")
    s.add_argument("--box")
    s.add_argument("--groups", help="comma-separated group sizes for packing")
    s.add_argument("--base", type=int, help="packing base (power of two)")
    s.add_argument("-o", "--output")

    s = sub.add_parser("project", help="oracle projection of a boxed GF")
    s.add_argument("gf")
    s.add_argument("--keep", required=True)
    s.add_argument("--box", required=True)
    s.add_argument("--mode", choices=["project", "anti", "specialize"], default="project")
    s.add_argument("-o", "--output")

    s = sub.add_parser("encode", help="encode a circuit as a boxed GF")
    s.add_argument("--circuit", required=True)
    s.add_argument("--emit-pieces", help="directory for per-cell projections")
    s.add_argument("--pack", action="store_true", help="pack z into one variable")
    s.add_argument("-o", "--output")

    s = sub.add_parser("segment", help="recover the accepted set of an encoding")
    s.add_argument("encoding")
    s.add_argument("-o", "--output")

    s = sub.add_parser("alt", help="alternating-quantifier membership")
    s.add_argument("--prefix", default="E", choices=["E", "A", ""])
    s.add_argument("--circuit", required=True)
    s.add_argument("--cert-bits", type=int, default=0)

    s = sub.add_parser("demo", help="number-theory demonstrations")
    demo = s.add_subparsers(dest="demo", required=True)
    d = demo.add_parser("squares")
    d.add_argument("--r", type=int, default=6)
    d = demo.add_parser("jacobi")
    d.add_argument("--r", type=int, default=16)
    d.add_argument("--K", type=int, default=50)
    d = demo.add_parser("factor")
    d.add_argument("--n", type=int, required=True)
    d.add_argument("--sigma", type=int, required=True)
    d = demo.add_parser("sqcong")
    d.add_argument("--alpha", type=int, required=True)
    d.add_argument("--beta", type=int, required=True)
    d.add_argument("--gamma", type=int, required=True)
    d = demo.add_parser("pi")
    d.add_argument("--n", type=int, required=True)
    d = demo.add_parser("ap")
    d.add_argument("--set", dest="set_file", required=True)
    d.add_argument("--k", type=int, default=3)

    s = sub.add_parser("selftest", help="run the acceptance suite")
    s.add_argument("--quick", action="store_true")
    s.add_argument("--criteria", help="comma-separated criterion numbers")
    return ap


def _cmd_op(args):
    kind = args.kind
    if kind in ("hadamard", "union", "intersect", "minus", "minkowski"):
        if len(args.inputs) != 2:
            raise FormatError(f"{kind} takes two GF files")
        f = read_gf(args.inputs[0])
        g = read_gf(args.inputs[1])
        box = _box_from_flag(args.box, f.nvars)
        if kind == "hadamard":
            out = hadamard(f, g, box=box)
        elif kind == "minkowski":
            if box is None:
                raise FormatError("minkowski requires --box")
            out = minkowski_oracle(f, g, box, limit=args.limit_points)
        else:
            if box is None:
                raise FormatError(f"{kind} requires --box")
            out = boolean_combine(f, g, box, kind)
        _emit_gf(out, args.output)
        return 0
    # compress or decompress
    if len(args.inputs) != 1:
        raise FormatError(f"{kind} takes one GF file")
    f = read_gf(args.inputs[0])
    groups = (
        tuple(int(x) for x in args.groups.split(","))
        if args.groups
        else (f.nvars,)
    )
    box = _box_from_flag(args.box, f.nvars)
    if kind == "compress":
        tau = choose_tau(f, groups, box=box)
        out = compress(f, tau)
        print(f"# packing base N={tau.N} groups={groups}", file=sys.stderr)
    else:
        if not args.base:
            raise FormatError("decompress requires --base")
        tau = TauMap(args.base, groups)
        out = decompress(f, tau)
    _emit_gf(out, args.output)
    return 0


def _cmd_demo(args):
    if args.demo == "squares":
        seg = segment_set("SQUARES", args.r)
        print(f"squares below 2^{args.r}: {len(seg.points)} points")
        print(" ".join(str(x) for x in seg.points))
        return 0
    if args.demo == "jacobi":
        a = r4_coefficients(args.r, args.K)
        print("k  a(k)  8*sum(d|k, 4 not| d)  sigma(k)")
        for k in range(1, args.K + 1):
            jac = 8 * sum(d for d in range(1, k + 1) if k % d == 0 and d % 4)
            print(f"{k}  {a[k]}  {jac}  {sigma_from_r4(k, a)}")
        return 0
    if args.demo == "factor":
        p, q = factor_semiprime_from_sigma(args.n, args.sigma)
        print(f"{args.n} = {p} * {q}")
        return 0
    if args.demo == "sqcong":
        count = count_square_roots(args.alpha, args.beta, args.gamma)
        print(count)
        return 0
    if args.demo == "pi":
        print(prime_pi(args.n))
        return 0
    if args.demo == "ap":
        with open(args.set_file) as fh:
            pts = [int(tok) for tok in fh.read().split()]
        witness = find_ap(pts, args.k)
        if witness is None:
            print(f"no {args.k}-term progression")
        else:
            print(
                f"start={witness.start} difference={witness.difference} "
                f"terms={witness.terms()}"
            )
        return 0
    raise FormatError(f"unknown demo {args.demo!r}")


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    paths = []
    for attr in ("gf", "encoding", "circuit", "set_file"):
        val = getattr(args, attr, None)
        if val:
            paths.append(val)
    paths.extend(getattr(args, "inputs", []) or [])
    try:
        _provenance([p for p in paths if _exists(p)], args.seed)
        if args.verb == "count":
            f = read_gf(args.gf)
            print(evaluate_at_one(f))
            return 0
        if args.verb == "coeff":
            f = read_gf(args.gf)
            point = tuple(int(x) for x in args.point.split(","))
            print(coefficient(f, point))
            return 0
        if args.verb == "norm":
            f = read_gf(args.gf)
            box = _box_from_flag(args.box, f.nvars)
            result = norm(f, box)
            print("empty" if result is None else ",".join(str(x) for x in result))
            return 0
        if args.verb == "op":
            return _cmd_op(args)
        if args.verb == "project":
            f = read_gf(args.gf)
            box = _box_from_flag(args.box, f.nvars)
            keep = [int(x) for x in args.keep.split(",")]
            out = oracle_project(f, keep, box, mode=args.mode, limit=args.limit_points)
            _emit_gf(out, args.output)
            return 0
        if args.verb == "encode":
            with open(args.circuit) as fh:
                circuit = parse_circuit(fh.read())
            enc = encode_segment(circuit)
            if args.pack:
                enc = compress_encoding(enc)
            text = format_encoding(enc)
            if args.output:
                with open(args.output, "w") as fh:
                    fh.write(text)
            else:
                sys.stdout.write(text)
            if args.emit_pieces:
                os.makedirs(args.emit_pieces, exist_ok=True)
                for i, piece in enumerate(enc.pieces):
                    with open(
                        os.path.join(args.emit_pieces, f"piece{i:03d}.gf"), "w"
                    ) as fh:
                        fh.write(format_gf(piece))
            return 0
        if args.verb == "segment":
            with open(args.encoding) as fh:
                enc = parse_encoding(fh.read())
            seg = segment_gf(enc)
            if args.output:
                with open(args.output, "w") as fh:
                    fh.write(format_gf(seg))
            accepted = sorted(t.numer[0] for t in seg.terms)
            print(" ".join(str(x) for x in accepted))
            return 0
        if args.verb == "alt":
            with open(args.circuit) as fh:
                circuit = parse_circuit(fh.read())
            _, accepted = encode_alternating(circuit, args.prefix, args.cert_bits)
            print(" ".join(str(x) for x in accepted))
            return 0
        if args.verb == "demo":
            return _cmd_demo(args)
        if args.verb == "selftest":
            from .acceptance import run_all

            criteria = (
                [int(x) for x in args.criteria.split(",")]
                if args.criteria
                else None
            )
            reports = run_all(criteria=criteria, quick=args.quick, seed=args.seed)
            return 0 if all(r["passed"] for r in reports) else 2
        raise FormatError(f"unknown verb {args.verb!r}")
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except (FormatError, ShortGFError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _exists(path):
    return isinstance(path, str) and os.path.exists(path)
