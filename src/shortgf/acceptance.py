"""Acceptance suite: one function per criterion, exact checks only.

Each criterion returns a report dict with `passed`, `detail`, and `seconds`;
`run_all` prints one line per criterion.  The CLI selftest and the pytest
acceptance module both drive these functions.
"""

import random
import time

from .barvinok import Polyhedron, enumerate_polytope_points, polytope_gf
from .calculus import (
    boolean_combine,
    box_range_gf,
    choose_tau,
    coefficient,
    complement_in_box,
    compress,
    decompress,
    evaluate_at_one,
    norm,
    oracle_project,
    support_points,
)
from .encoder import (
    alternating_pipeline,
    and_gate,
    compress_encoding,
    count_certificates,
    encode_segment,
    even_detector,
    minkowski_gadget,
    segment_gf,
    square_tester,
    violation_projection_by_bits,
    xor_detector,
)
from .gfcore import LatticeBox, from_point_set, progression_gf
from .numlab import (
    ap_threshold,
    count_square_roots,
    count_square_roots_direct,
    divisor_sum,
    factor_semiprime_from_sigma,
    find_ap,
    prime_pi,
    r4_coefficients,
    segment_set,
    sieve_primes,
    sigma_from_r4,
)
from .presburger import (
    LinearAtom,
    PAFormula,
    QuantBlock,
    conj,
    disj,
    disjointify,
    eval_formula,
    negate,
)


def _sample_polytope(rng, n, entry_bound=20, nonneg=False):
    rows = []
    rhs = []
    upper = rng.randint(3, 12)
    for j in range(n):
        e = [0] * n
        e[j] = 1
        rows.append(tuple(e))
        rhs.append(upper)
        e2 = [0] * n
        e2[j] = -1
        rows.append(tuple(e2))
        rhs.append(0 if nonneg else rng.choice([0, 0, 2]))
    for _ in range(rng.randint(1, 3)):
        rows.append(tuple(rng.randint(-entry_bound, entry_bound) for _ in range(n)))
        rhs.append(rng.randint(-10, 2 * entry_bound))
    return Polyhedron(tuple(rows), tuple(rhs), n)


def criterion_1(seed=0, trials=100):
    """Counting: random rational polytopes, n <= 4, exact lattice counts."""
    rng = random.Random(seed)
    t0 = time.time()
    for trial in range(trials):
        n = rng.choice([1, 2, 2, 3, 3, 4])
        p = _sample_polytope(rng, n)
        got = evaluate_at_one(polytope_gf(p))
        want = len(enumerate_polytope_points(p))
        if got != want:
            return _report(1, False, f"trial {trial}: {got} != {want}", t0)
    return _report(1, True, f"{trials} polytopes, exact count match", t0)


def _random_gf(rng, n, side):
    """A genuine 0/1 short GF with support inside [0, side)^n, index <= 2."""
    kind = rng.randrange(4)
    if kind == 0:
        npts = rng.randint(0, 6)
        pts = {
            tuple(rng.randrange(side) for _ in range(n)) for _ in range(npts)
        }
        return from_point_set(sorted(pts), n)
    if kind == 1:  # box slab
        lows = [rng.randrange(side // 2) for _ in range(n)]
        highs = [rng.randint(lo, side - 1) for lo in lows]
        return box_range_gf(lows, highs)
    if kind == 2:  # arithmetic progression per coordinate (index <= n)
        start = [rng.randrange(side // 2) for _ in range(n)]
        step = [rng.randint(1, 3) for _ in range(n)]
        count = [
            rng.randint(1, (side - 1 - start[j]) // step[j] + 1)
            for j in range(n)
        ]
        vecs = [tuple(step[j] * (i == j) for i in range(n)) for j in range(n)]
        return progression_gf(start, vecs, count)
    # clipped random polytope (support stays inside the box)
    p = _sample_polytope(rng, n, entry_bound=8, nonneg=True)
    rows = list(p.A)
    rhs = list(p.b)
    for j in range(n):
        e = [0] * n
        e[j] = 1
        rows.append(tuple(e))
        rhs.append(side - 1)
    return polytope_gf(Polyhedron(tuple(rows), tuple(rhs), n))


def criterion_2(seed=0, pairs=50):
    """Operation calculus vs oracle set algebra on boxed GF pairs."""
    rng = random.Random(seed + 1)
    t0 = time.time()
    for trial in range(pairs):
        n = 1 if trial % 2 == 0 else 2
        side = 64 if n == 1 else 16
        box = LatticeBox(tuple(side for _ in range(n)))
        f = _random_gf(rng, n, side)
        g = _random_gf(rng, n, side)
        sf = support_points(f, box)
        sg = support_points(g, box)
        cap = support_points(boolean_combine(f, g, box, "intersect", check=False), box)
        cup = support_points(boolean_combine(f, g, box, "union", check=False), box)
        diff = support_points(boolean_combine(f, g, box, "minus", check=False), box)
        comp = support_points(complement_in_box(f, box, check=False), box)
        full = set(box.points())
        if cap != sf & sg or cup != sf | sg or diff != sf - sg:
            return _report(2, False, f"trial {trial}: set algebra mismatch", t0)
        if comp != full - sf:
            return _report(2, False, f"trial {trial}: complement mismatch", t0)
        pt = tuple(rng.randrange(side) for _ in range(n))
        want = 1 if pt in sf else 0
        if coefficient(f, pt) != want:
            return _report(2, False, f"trial {trial}: coefficient mismatch at {pt}", t0)
        nr = norm(f, box)
        if sf:
            want_nr = tuple(max(p[j] for p in sf) for j in range(n))
            if nr != want_nr:
                return _report(2, False, f"trial {trial}: norm {nr} != {want_nr}", t0)
        elif nr is not None:
            return _report(2, False, f"trial {trial}: norm of empty GF not empty", t0)
    return _report(2, True, f"{pairs} pairs: set algebra, coefficient, norm", t0)


def criterion_3(seed=0, trials=50):
    """Compression round trip preserves supports and cardinality."""
    rng = random.Random(seed + 2)
    t0 = time.time()
    for trial in range(trials):
        n = rng.choice([1, 2, 2, 3])
        side = 8 if n >= 2 else 32
        box = LatticeBox(tuple(side for _ in range(n)))
        if n == 3:
            # keep three-variable operands dense: unpacking denominator-heavy
            # operands in three groups costs six-dimensional auxiliary
            # polytopes per term pair, past the suite's time budget
            pts = {
                tuple(rng.randrange(side) for _ in range(n))
                for _ in range(rng.randint(1, 6))
            }
            g = from_point_set(sorted(pts), n)
        else:
            g = _random_gf(rng, n, side)
        tau = choose_tau(g, (n,), box=box)
        packed = compress(g, tau)
        before = evaluate_at_one(g)
        after = evaluate_at_one(packed)
        if before != after:
            return _report(3, False, f"trial {trial}: count changed {before}->{after}", t0)
        sg = support_points(g, box)
        sample = sorted(sg) if len(sg) <= 8 else rng.sample(sorted(sg), 8)
        for p in sample:
            if coefficient(packed, tau.apply(p)) != 1:
                return _report(3, False, f"trial {trial}: packed image of {p} missing", t0)
        restored = decompress(packed, tau)
        sr = support_points(restored, LatticeBox(tuple(tau.N for _ in range(n))))
        if sr != sg:
            return _report(3, False, f"trial {trial}: round trip lost support", t0)
    return _report(3, True, f"{trials} round trips, supports and counts intact", t0)


def _segment_circuits():
    # the square tester runs at r=3; larger gate counts push the clause count
    # (and with it the disjoint cell count) past the suite's time budget
    return [
        ("even r=3", even_detector(3)),
        ("even r=4", even_detector(4)),
        ("and r=8", and_gate(8, 8, 1)),
        ("xor r=4", xor_detector(4)),
        ("squares r=3", square_tester(3)),
    ]


def criterion_4(seed=0, include_heavy=True):
    """Segment pipeline: acceptance sets, piece unions, one-witness property."""
    t0 = time.time()
    circuits = _segment_circuits()
    if not include_heavy:
        circuits = [c for c in circuits if not c[0].startswith("squares")]
    for name, circ in circuits:
        enc = encode_segment(circ)
        seg = segment_gf(enc)  # checks the piece union + uniqueness internally
        got = sorted(p[0] for p in support_points(seg, (1 << circ.r,)))
        want = circ.truth_table()
        if got != want:
            return _report(4, False, f"{name}: {got} != {want}", t0)
        expected_proj = violation_projection_by_bits(enc.cnf, enc.box)
        if enc.proj_points() != expected_proj:
            return _report(4, False, f"{name}: piece union mismatch", t0)
    return _report(4, True, f"{len(circuits)} circuits, segments exact", t0)


def criterion_5(seed=0):
    """Three-variable compression leaves projections and segments unchanged."""
    t0 = time.time()
    circuits = [
        ("even r=3", even_detector(3)),
        ("and r=8", and_gate(8, 8, 1)),
        ("squares r=3", square_tester(3)),
    ]
    rng = random.Random(seed + 5)
    for name, circ in circuits:
        enc = encode_segment(circ)
        packed = compress_encoding(enc)
        c_before = evaluate_at_one(enc.fr)
        c_after = evaluate_at_one(packed.fr)
        if c_before != c_after:
            return _report(5, False, f"{name}: count changed {c_before}->{c_after}", t0)
        seg_a = support_points(segment_gf(enc), (1 << circ.r,))
        seg_b = support_points(segment_gf(packed), (1 << circ.r,))
        if seg_a != seg_b:
            return _report(5, False, f"{name}: segments differ", t0)
        # spot-check packed support through the packing map, point by point
        pts = sorted({pt for cell in enc.cell_points for pt in cell})
        sample = pts if len(pts) <= 10 else rng.sample(pts, 10)
        for pt in sample:
            image = packed.tau.apply(pt)
            val = coefficient(packed.fr, image)
            if val != 1:
                return _report(
                    5, False, f"{name}: packed coefficient at {image} is {val}", t0
                )
    return _report(5, True, "packed encodings match projections and segments", t0)


def criterion_6(seed=0):
    """Four-square convolution identity, divisor-sum recovery, factoring."""
    t0 = time.time()
    a = r4_coefficients(16, 200)
    for k in range(1, 201):
        jacobi = 8 * sum(d for d in range(1, k + 1) if k % d == 0 and d % 4)
        if a[k] != jacobi:
            return _report(6, False, f"a({k}) = {a[k]} != {jacobi}", t0)
        if sigma_from_r4(k, a) != divisor_sum(k):
            return _report(6, False, f"sigma({k}) mismatch", t0)
    rng = random.Random(seed + 6)
    primes = [p for p in sieve_primes(100) if p > 2]
    done = 0
    seen = set()
    while done < 20:
        p, q = rng.sample(primes, 2)
        n = p * q
        if n > 10_000 or n in seen:
            continue
        seen.add(n)
        got = factor_semiprime_from_sigma(n, divisor_sum(n))
        if got != (min(p, q), max(p, q)):
            return _report(6, False, f"factors of {n}: {got}", t0)
        done += 1
    return _report(6, True, "a(k) identity, sigma, 20 semiprimes", t0)


def criterion_7(seed=0, trials=100):
    """Square-congruence counting gadget vs brute-force loop."""
    rng = random.Random(seed + 7)
    t0 = time.time()
    for trial in range(trials):
        alpha = rng.randint(0, 200)
        beta = rng.randint(1, 200)
        gamma = rng.randint(1, 200)
        got = count_square_roots(alpha, beta, gamma)
        want = count_square_roots_direct(alpha, beta, gamma)
        if got != want:
            return _report(7, False, f"({alpha},{beta},{gamma}): {got} != {want}", t0)
    return _report(7, True, f"{trials} sampled triples, exact", t0)


def criterion_8(seed=0):
    """Prime counting through the Hadamard pipeline vs the sieve."""
    t0 = time.time()
    primes = sieve_primes(1 << 16)
    for n in (100, 1000, 10_000, (1 << 16) - 1):
        want = sum(1 for p in primes if p <= n)
        got = prime_pi(n, r=16)
        if got != want:
            return _report(8, False, f"pi({n}) = {got} != {want}", t0)
        if n == 100 and got != 25:
            return _report(8, False, "pi(100) != 25", t0)
    return _report(8, True, "pi at 10^2, 10^3, 10^4, 2^16-1 matches sieve", t0)


def _sample_exists_formula(rng):
    """Random body over (x, y) used as an existential formula in x."""
    def atom():
        return LinearAtom.from_dict(
            {"x": rng.randint(-2, 2), "y": rng.randint(-3, 3)},
            rng.randint(-8, 60),
        )

    clauses = []
    for _ in range(rng.randint(2, 3)):
        lits = []
        for _ in range(rng.randint(1, 2)):
            a = atom()
            lits.append(a if rng.random() < 0.7 else negate(a))
        clauses.append(conj(lits))
    return disj(clauses)


def criterion_9(seed=0, trials=100):
    """Pigeonhole progression bound on sampled existential formulas."""
    rng = random.Random(seed + 9)
    t0 = time.time()
    xside, yside = 256, 16
    box = LatticeBox((xside, yside))
    checked = 0
    for trial in range(trials):
        body = _sample_exists_formula(rng)
        formula = PAFormula(
            (QuantBlock("E", ("y",), yside),), body, ("x",)
        )
        truth = {
            x
            for x in range(xside)
            if any(
                eval_formula(PAFormula((), body, ("x", "y")), (x, y))
                for y in range(yside)
            )
        }
        cells = disjointify(body, box, ("x", "y"))
        m = len(cells)
        if m == 0:
            continue  # empty truth region; the bound is vacuous
        for k in (2, 3):
            threshold = ap_threshold(1, k, m)
            if len(truth) > threshold:
                checked += 1
                if find_ap(truth, k + 1) is None:
                    return _report(
                        9, False, f"trial {trial}: no AP_{k+1} above threshold", t0
                    )
    squares = segment_set("SQUARES", 20)
    if find_ap(squares.points, 4) is not None:
        return _report(9, False, "squares segment contains an AP_4", t0)
    return _report(
        9, True, f"{checked} above-threshold cases all contain progressions", t0
    )


def criterion_10(seed=0, families=20):
    """Certificate counting on toy accept tables; staircase-slice identity."""
    rng = random.Random(seed + 10)
    t0 = time.time()
    for r in (2, 3):
        step = 1 << r
        diag = from_point_set([(x + step * x,) for x in range(step)], 1)
        for x in range(step):
            if count_certificates(diag, x, r) != 1:
                return _report(10, False, f"diagonal count at {x}", t0)
        full = from_point_set(
            [(x + step * c,) for x in range(step) for c in range(step)], 1
        )
        for x in range(step):
            if count_certificates(full, x, r) != step:
                return _report(10, False, f"full-table count at {x}", t0)
        table = {
            (x, c): rng.random() < 0.4
            for x in range(step)
            for c in range(step)
        }
        gf = from_point_set(
            [(x + step * c,) for (x, c), ok in table.items() if ok], 1
        )
        for x in range(step):
            want = sum(1 for c in range(step) if table[(x, c)])
            if count_certificates(gf, x, r) != want:
                return _report(10, False, f"random table count at {x}", t0)
    for fam in range(families):
        npieces = rng.randint(1, 3)
        pieces = [
            from_point_set(
                sorted({(rng.randrange(16),) for _ in range(rng.randint(1, 5))}),
                1,
            )
            for _ in range(npieces)
        ]
        gadget = minkowski_gadget(pieces, 16)
        if not gadget.ok:
            return _report(10, False, f"family {fam}: slice != union", t0)
    return _report(10, True, "counts match row sums; 20 staircase slices", t0)


def criterion_11(seed=0, trials=12):
    """One-alternation pipelines match direct exists-forall evaluation."""
    rng = random.Random(seed + 11)
    t0 = time.time()
    boxes = [(8, 8, 8), (64, 16, 64), (16, 16, 32)]
    for trial in range(trials):
        xs, ys, zs = boxes[trial % len(boxes)]

        def atom():
            return LinearAtom.from_dict(
                {
                    "x": rng.randint(-2, 2),
                    "y": rng.randint(-2, 2),
                    "z": rng.randint(-2, 2),
                },
                rng.randint(-4, 40),
            )

        lits = []
        for _ in range(rng.randint(2, 4)):
            a = atom()
            lits.append(a if rng.random() < 0.7 else negate(a))
        body = disj([conj(lits[: max(1, len(lits) // 2)]), conj(lits[len(lits) // 2 :])])
        formula = PAFormula(
            (QuantBlock("E", ("y",), ys), QuantBlock("A", ("z",), zs)),
            body,
            ("x",),
        )
        pipeline = alternating_pipeline(formula, (xs, ys, zs))
        if not pipeline.negated:
            return _report(11, False, f"trial {trial}: body region not negated", t0)
        want = tuple(
            (x,) for x in range(xs) if eval_formula(formula, (x,))
        )
        if pipeline.accepted != want:
            return _report(11, False, f"trial {trial}: membership mismatch", t0)
        # the explicit projection/anti-projection chain: with f holding the
        # complement of the body's region, which the pipeline enumerated,
        # anti-projection over z keeps the (x, y) with the body true for
        # every z, and projecting out y gives exactly the exists-forall members
        neg_gf = from_point_set(sorted(pipeline.region_points), 3)
        anti = oracle_project(neg_gf, (0, 1), (xs, ys, zs), mode="anti")
        proj = oracle_project(anti, (0,), (xs, ys), mode="project")
        got = tuple(sorted(support_points(proj, (xs,))))
        if got != want:
            return _report(11, False, f"trial {trial}: chain mismatch", t0)
    return _report(11, True, f"{trials} pipelines match direct evaluation", t0)


def _report(number, passed, detail, t0):
    return {
        "criterion": number,
        "passed": passed,
        "detail": detail,
        "seconds": round(time.time() - t0, 2),
    }


ALL_CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
    10: criterion_10,
    11: criterion_11,
}

QUICK_KWARGS = {
    1: {"trials": 20},
    2: {"pairs": 12},
    3: {"trials": 12},
    4: {"include_heavy": False},
    5: {},
    6: {},
    7: {"trials": 25},
    8: {},
    9: {"trials": 25},
    10: {"families": 8},
    11: {"trials": 6},
}


def run_all(criteria=None, quick=False, seed=0):
    numbers = sorted(criteria or ALL_CRITERIA)
    reports = []
    for num in numbers:
        kwargs = dict(QUICK_KWARGS.get(num, {})) if quick else {}
        report = ALL_CRITERIA[num](seed=seed, **kwargs)
        reports.append(report)
        status = "PASS" if report["passed"] else "FAIL"
        print(
            f"[{status}] criterion {num:2d}: {report['detail']} "
            f"({report['seconds']}s)"
        )
    return reports
