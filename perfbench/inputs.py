"""Seeded inputs for the benchmark workloads.

Pure Python that never imports shortgf: the same seed gives the same inputs
whatever the package (its acceptance suite included) looks like.  Inputs are
plain tuples that describe what to build; the workloads turn them into
short GFs inside the timed region.

Operand descriptors (``side`` bounds every coordinate to [0, side)):

    ("points", n, pts)                          explicit point set
    ("slab", n, lows, highs)                    integer box, bounds inclusive
    ("progression", n, start, step, count)      product of 1-D progressions
    ("polytope", n, rows, rhs)                  {x : rows . x <= rhs}, bounded
"""

import random

# Circuit workloads: xor_detector(CIRCUIT_R); the seed does not change them.
CIRCUIT_R = 2

# number_theory: prime_pi(n, r=PRIME_PI_R) for each n, then seeded
# count_square_roots triples.
PRIME_PI_R = 16
PRIME_PI_NS = (100, 1000, 10_000, 2**16 - 1)
SQRT_TRIPLES = 12

# calculus: seeded items per repetition, after KNOWN_DEFECT_ITEM; every
# ROUND_TRIP_EVERY-th item is a compress -> decompress round trip, the
# others are operand pairs.  256 items
# run whole cycles of the kind mix in calculus_inputs: 192 pairs over the
# 2 dimensions x 16 kind pairs, 64 round trips over 4 dimensions x 4 kinds.
CALCULUS_ITEMS = 256
ROUND_TRIP_EVERY = 4
CORPUS_SEED = 0

# A fixed first calculus item that hits the known polytope_gf miscount at a
# non-simple vertex: decompress adds the point (0, 7) to this clipped 2-D
# polytope (it is the operand of trial 12 of the acceptance suite's
# criterion 3 at seed 0).  It comes first so that it always meets a cold
# cache.  workloads.KNOWN_FAILURES holds the failure it gives.
KNOWN_DEFECT_ITEM = (
    "round_trip",
    (8, 8),
    (
        "polytope",
        2,
        ((1, 0), (-1, 0), (0, 1), (0, -1), (6, -7), (4, -4), (1, 0), (0, 1)),
        (3, 0, 3, 0, -2, 5, 7, 7),
    ),
)


KINDS = ("points", "slab", "progression", "polytope")


def _operand(rng, kind, n, side):
    """One 0/1 operand of the given kind inside [0, side)^n."""
    if kind == "points":
        pts = {
            tuple(rng.randrange(side) for _ in range(n))
            for _ in range(rng.randint(0, 6))
        }
        return ("points", n, tuple(sorted(pts)))
    if kind == "slab":
        lows = tuple(rng.randrange(side // 2) for _ in range(n))
        highs = tuple(rng.randint(lo, side - 1) for lo in lows)
        return ("slab", n, lows, highs)
    if kind == "progression":
        start = tuple(rng.randrange(side // 2) for _ in range(n))
        step = tuple(rng.randint(1, 3) for _ in range(n))
        count = tuple(
            rng.randint(1, (side - 1 - start[j]) // step[j] + 1) for j in range(n)
        )
        return ("progression", n, start, step, count)
    # random polytope in the nonnegative orthant, clipped to the box
    upper = rng.randint(3, 12)
    rows, rhs = [], []
    for j in range(n):
        unit = tuple(1 if i == j else 0 for i in range(n))
        rows += [unit, tuple(-x for x in unit), unit]
        rhs += [upper, 0, side - 1]
    for _ in range(rng.randint(1, 3)):
        rows.append(tuple(rng.randint(-8, 8) for _ in range(n)))
        rhs.append(rng.randint(-10, 16))
    return ("polytope", n, tuple(rows), tuple(rhs))


def calculus_inputs(seed):
    """Items ("pair", sides, f, g, point) and ("round_trip", sides, g).

    KNOWN_DEFECT_ITEM comes first, then CALCULUS_ITEMS seeded items.
    Dimensions and kinds run through a fixed cycle, so every seed gets the
    same mix of slow 2-D items and cheap 1-D ones.  The seed draws the
    points, slabs and progressions and the coefficient query points.  The
    polytopes come from one fixed draw (CORPUS_SEED) for every seed: the
    cost and output size of a random 2-D polytope item vary too much (a
    coefficient of variation near 1.2 per item) for a few hundred seeded
    draws to give run-to-run spreads within the benchmark's bounds.
    """
    rng = random.Random(seed)
    corpus = random.Random(CORPUS_SEED)

    def operand(kind, n, side):
        return _operand(corpus if kind == "polytope" else rng, kind, n, side)

    items = [KNOWN_DEFECT_ITEM]
    pairs = trips = 0
    for i in range(CALCULUS_ITEMS):
        if i % ROUND_TRIP_EVERY == ROUND_TRIP_EVERY - 1:
            n = (1, 2, 2, 3)[trips % 4]
            kind = KINDS[trips // 4 % 4]
            trips += 1
            side = 8 if n >= 2 else 32
            if n == 3:
                # dense 3-D operands only: denominators in three packed
                # groups make six-dimensional auxiliary polytopes per pair
                pts = {
                    tuple(rng.randrange(side) for _ in range(n))
                    for _ in range(rng.randint(1, 6))
                }
                g = ("points", n, tuple(sorted(pts)))
            else:
                g = operand(kind, n, side)
            items.append(("round_trip", (side,) * n, g))
        else:
            n = 1 + pairs % 2
            side = 64 if n == 1 else 16
            f = operand(KINDS[pairs // 2 % 4], n, side)
            g = operand(KINDS[pairs // 8 % 4], n, side)
            pairs += 1
            point = tuple(rng.randrange(side) for _ in range(n))
            items.append(("pair", (side,) * n, f, g, point))
    return tuple(items)


def number_theory_inputs(seed):
    """Items ("prime_pi", n, r) and ("sqrt", alpha, beta, gamma)."""
    rng = random.Random(seed)
    items = [("prime_pi", n, PRIME_PI_R) for n in PRIME_PI_NS]
    for _ in range(SQRT_TRIPLES):
        beta = rng.randint(2, 60)
        items.append(("sqrt", rng.randrange(beta), beta, rng.randint(40, 120)))
    return tuple(items)


def circuit_inputs(seed):
    """The stock circuit; fixed, so every seed gives the same input."""
    return (("xor_detector", CIRCUIT_R),)


GENERATORS = {
    "circuit_accept": circuit_inputs,
    "circuit_encode": circuit_inputs,
    "calculus": calculus_inputs,
    "number_theory": number_theory_inputs,
}


def make_inputs(workload, seed):
    return GENERATORS[workload](seed)
