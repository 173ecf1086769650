"""The four workloads: per item, a timed part that calls the public shortgf
API, and a checker that compares the outputs with an independent oracle.

``run_items(sg, item_fn, inputs)`` is the timed region.  It returns one
outcome per item: the item's outputs, or the ShortGFError / ValueError it
raised, so that one failing item does not end the run.
``check(sg, inputs, outcomes)`` runs outside the timed region and returns
``(failures, gfs)``: one line per failed item, and the GFs whose term count
and length the run reports as ``out_terms`` / ``out_gf_length``.
``KNOWN_FAILURES`` lists the failure lines of a known defect.
"""

from fractions import Fraction
from itertools import product


def run_items(sg, item_fn, items):
    outcomes = []
    for item in items:
        try:
            outcomes.append(item_fn(sg, item))
        except (sg.ShortGFError, ValueError) as exc:
            outcomes.append(exc)
    return outcomes


def _split(outcomes):
    """Pairs (index, outputs) of the items that returned, and failure lines."""
    ok, failures = [], []
    for i, out in enumerate(outcomes):
        if isinstance(out, Exception):
            failures.append(f"item {i}: raised {type(out).__name__}: {out}")
        else:
            ok.append((i, out))
    return ok, failures


# ---------------------------------------------------------------------------
# independent oracles (plain Python, no shortgf)


def xor_truth_table(r):
    """Inputs below 2^r whose two low bits differ: what xor_detector accepts."""
    return [x for x in range(1 << r) if (x & 1) != (x >> 1 & 1)]


def primes_up_to(n):
    flags = bytearray([1]) * (n + 1)
    flags[:2] = b"\x00\x00"
    for i in range(2, int(n**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(range(i * i, n + 1, i)))
    return sum(flags)


def square_roots(alpha, beta, gamma):
    return sum(1 for x in range(gamma + 1) if (x * x - alpha) % beta == 0)


def operand_points(desc, sides):
    """The point set an operand descriptor stands for, by enumeration."""
    kind, n = desc[0], desc[1]
    if kind == "points":
        return set(desc[2])
    if kind == "slab":
        lows, highs = desc[2], desc[3]
        return set(product(*(range(lo, hi + 1) for lo, hi in zip(lows, highs))))
    if kind == "progression":
        start, step, count = desc[2], desc[3], desc[4]
        return set(
            product(
                *(
                    range(start[j], start[j] + step[j] * count[j], step[j])
                    for j in range(n)
                )
            )
        )
    rows, rhs = desc[2], desc[3]
    return {
        x
        for x in product(*(range(s) for s in sides))
        if all(sum(a * v for a, v in zip(row, x)) <= b for row, b in zip(rows, rhs))
    }


# ---------------------------------------------------------------------------
# circuit_accept: encode_segment + segment_gf, as `shortgf alt --prefix ''`


def accept_item(sg, item):
    circuit = sg.xor_detector(item[1])
    return sg.segment_gf(sg.encode_segment(circuit))


def check_circuit_accept(sg, inputs, outcomes):
    ok, failures = _split(outcomes)
    gfs = []
    for i, seg in ok:
        r = inputs[i][1]
        got = sorted(p[0] for p in sg.support_points(seg, (1 << r,)))
        if got != xor_truth_table(r):
            failures.append(f"item {i}: accepted {got} != {xor_truth_table(r)}")
        gfs.append(seg)
    return failures, gfs


# ---------------------------------------------------------------------------
# circuit_encode: `shortgf encode --pack` then `shortgf count`


def encode_item(sg, item):
    enc = sg.encode_segment(sg.xor_detector(item[1]))
    packed = sg.compress_encoding(enc)
    text = sg.format_encoding(packed)
    return enc, packed, text, sg.evaluate_at_one(packed.fr)


def check_circuit_encode(sg, inputs, outcomes):
    ok, failures = _split(outcomes)
    gfs = []
    for i, (enc, packed, text, count) in ok:
        want = sum(len(pts) for pts in enc.cell_points)
        if count != want:
            failures.append(f"item {i}: count {count} != {want} cell points")
        back = sg.parse_encoding(text)
        if [g.terms for g in (back.fr, *back.pieces)] != [
            g.terms for g in (packed.fr, *packed.pieces)
        ]:
            failures.append(f"item {i}: parse_encoding does not read the text back")
        gfs.append(packed.fr)
    return failures, gfs


# ---------------------------------------------------------------------------
# calculus: boolean operations, coefficient, norm, compression round trips


def build_operand(sg, desc):
    kind, n = desc[0], desc[1]
    if kind == "points":
        return sg.from_point_set(desc[2], n)
    if kind == "slab":
        return sg.box_range_gf(desc[2], desc[3])
    if kind == "progression":
        # product of 1-D progressions, expanded over the 2^n corner terms
        start, step, count = desc[2], desc[3], desc[4]
        denoms = tuple(
            tuple(step[j] if i == j else 0 for i in range(n)) for j in range(n)
        )
        terms = []
        for mask in range(1 << n):
            ends = [j for j in range(n) if mask >> j & 1]
            numer = tuple(
                start[j] + step[j] * count[j] if j in ends else start[j]
                for j in range(n)
            )
            terms.append(sg.GFTerm(Fraction((-1) ** len(ends)), numer, denoms))
        return sg.canonicalize(sg.ShortGF(n, tuple(terms)))
    return sg.polytope_gf(sg.Polyhedron(desc[2], desc[3], n))


def calculus_item(sg, item):
    box = sg.LatticeBox(item[1])
    if item[0] == "pair":
        f = build_operand(sg, item[2])
        g = build_operand(sg, item[3])
        return {
            "f": f,
            "g": g,
            "intersect": sg.boolean_combine(f, g, box, "intersect", check=False),
            "union": sg.boolean_combine(f, g, box, "union", check=False),
            "minus": sg.boolean_combine(f, g, box, "minus", check=False),
            "coefficient": sg.coefficient(f, item[4]),
            "norm": sg.norm(f, box),
        }
    g = build_operand(sg, item[2])
    tau = sg.choose_tau(g, (len(item[1]),), box=box)
    packed = sg.compress(g, tau)
    return {"g": g, "tau": tau, "packed": packed, "restored": sg.decompress(packed, tau)}


def _pair_failures(sg, item, out):
    sides = item[1]
    want_f = operand_points(item[2], sides)
    want_g = operand_points(item[3], sides)
    want = {
        "f": want_f,
        "g": want_g,
        "intersect": want_f & want_g,
        "union": want_f | want_g,
        "minus": want_f - want_g,
    }
    bad = [key for key, pts in want.items() if sg.support_points(out[key], sides) != pts]
    if out["coefficient"] != (1 if item[4] in want_f else 0):
        bad.append("coefficient")
    want_norm = (
        tuple(max(p[j] for p in want_f) for j in range(len(sides))) if want_f else None
    )
    if out["norm"] != want_norm:
        bad.append("norm")
    return bad


def _round_trip_failures(sg, item, out):
    sides = item[1]
    want = operand_points(item[2], sides)
    tau = out["tau"]
    bad = []
    if sg.support_points(out["g"], sides) != want:
        bad.append("operand")
    packed_box = (tau.N ** len(sides),)
    if sg.support_points(out["packed"], packed_box) != {tau.apply(p) for p in want}:
        bad.append("compress")
    restored = sg.support_points(out["restored"], (tau.N,) * len(sides))
    if restored != want:
        bad.append(
            f"decompress (adds {sorted(restored - want)}, loses {sorted(want - restored)})"
        )
    return bad


def check_calculus(sg, inputs, outcomes):
    ok, failures = _split(outcomes)
    gfs = []
    for i, out in ok:
        item = inputs[i]
        if item[0] == "pair":
            bad = _pair_failures(sg, item, out)
            gfs += [out[k] for k in ("f", "g", "intersect", "union", "minus")]
        else:
            bad = _round_trip_failures(sg, item, out)
            gfs += [out[k] for k in ("g", "packed", "restored")]
        if bad:
            failures.append(f"item {i} ({item[0]}): wrong {', '.join(bad)}")
    return failures, gfs


# ---------------------------------------------------------------------------
# number_theory: prime counting and square-root counting gadgets


def number_item(sg, item):
    if item[0] == "prime_pi":
        return sg.prime_pi(item[1], r=item[2])
    return sg.count_square_roots(*item[1:])


def _interval(sg, top):
    """1 + t + ... + t^top as a two-term short GF."""
    one = ((1,),)
    return sg.ShortGF(
        1, (sg.GFTerm(Fraction(1), (0,), one), sg.GFTerm(Fraction(-1), (top + 1,), one))
    )


def gadget_products(sg, item):
    """The Hadamard products the gadget for `item` counts, rebuilt with the
    public API the way numlab.prime_pi / count_square_roots build them."""
    if item[0] == "prime_pi":
        n, r = item[1:]
        return [sg.hadamard(sg.segment_set("PRIMES", r).gf, _interval(sg, n))]
    alpha, beta, gamma = item[1:]
    r = 2 * max(1, (gamma - 1).bit_length() + 1)
    trimmed = sg.hadamard(sg.segment_set("SQUARES", r).gf, _interval(sg, gamma * gamma))
    cls = sg.ShortGF(1, (sg.GFTerm(Fraction(1), (alpha % beta,), ((beta,),)),))
    return [trimmed, sg.hadamard(trimmed, cls)]


def check_number_theory(sg, inputs, outcomes):
    ok, failures = _split(outcomes)
    gfs = []
    for i, got in ok:
        item = inputs[i]
        want = primes_up_to(item[1]) if item[0] == "prime_pi" else square_roots(*item[1:])
        if got != want:
            failures.append(f"item {i} {item}: {got} != {want}")
        # The outputs are integers; report the size of the products the
        # gadget counts instead, rebuilt here outside the timed region.
        products = gadget_products(sg, item)
        if sg.evaluate_at_one(products[-1]) != want:
            failures.append(f"item {i} {item}: rebuilt product does not count {want}")
        gfs += products
    return failures, gfs


# Failure lines the code is known to give, by workload.  A run reports them
# apart from `failed`, which counts every other failure; an item that fails
# in any other way than its line here counts as failed.
KNOWN_FAILURES = {
    # inputs.KNOWN_DEFECT_ITEM: polytope_gf miscounts at a non-simple vertex
    "calculus": ("item 0 (round_trip): wrong decompress (adds [(0, 7)], loses [])",),
}

# name -> (item function, checker)
WORKLOADS = {
    "circuit_accept": (accept_item, check_circuit_accept),
    "circuit_encode": (encode_item, check_circuit_encode),
    "calculus": (calculus_item, check_calculus),
    "number_theory": (number_item, check_number_theory),
}
