"""Operation suite over short GFs.

Exact evaluation at the all-ones point, monomial substitution, Hadamard and
linear-functional Hadamard products (built per term pair: by a membership
test when the f-term is a monomial and the g-term has at most one vector, as
a product of 1-D progressions when the pair is separable, else through an
auxiliary equality-constrained polytope), boolean set operations on
box-supported GFs, coefficient extraction, norm by one exact polynomial
degree per coordinate, oracle-backed projection and Minkowski operations,
and positional-base compression/decompression of finite supports.

The polytope step is the costly one, and the same pair recurs: the
intersect, union and minus calls on one pair of operands build the same
Hadamard product.  So `_polytope_pair_terms` keeps the terms of the 64 most
recently built pairs, keyed on every argument that defines the pair's
polytope and its coefficient (the term data, the functional, the box when
the pair is boxed, and the variable count).
"""

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from . import _linalg as la
from ._subst import evaluate_at_one, substitute
from .barvinok import lattice_gf_mapped
from .errors import (
    ResourceLimitError,
    SpecializationError,
    UnboundedPolyhedronError,
    ZeroImageError,
)
from .gfcore import (
    LatticeBox,
    as_box,
    canonical_sum,
    canonicalize,
    from_point_set,
    monomial,
    oracle_expand,
    positive_terms,
    progression_gf,
)

__all__ = [
    "TauMap",
    "evaluate_at_one",
    "substitute_monomials",
    "specialize_vars",
    "tau_hadamard",
    "hadamard",
    "multiply",
    "boolean_combine",
    "complement_in_box",
    "coefficient",
    "norm",
    "proj_member",
    "oracle_project",
    "minkowski_oracle",
    "support_points",
    "compress",
    "decompress",
    "choose_tau",
    "box_range_gf",
    "gf_equal_on_box",
]


@dataclass(frozen=True)
class TauMap:
    """Positional-base packing map: consecutive variable groups into one
    coordinate each via x_1 + N x_2 + N^2 x_3 + ...  N is a power of two."""

    N: int
    grouping: tuple

    def __post_init__(self):
        object.__setattr__(self, "grouping", tuple(int(s) for s in self.grouping))
        if self.N < 2 or self.N & (self.N - 1):
            raise ValueError("N must be a power of two >= 2")
        if any(s < 1 for s in self.grouping):
            raise ValueError("group sizes must be positive")

    @property
    def nvars(self):
        return sum(self.grouping)

    @property
    def ngroups(self):
        return len(self.grouping)

    def rows(self):
        """The ngroups x nvars packing matrix."""
        out = []
        pos = 0
        for size in self.grouping:
            row = [0] * self.nvars
            p = 1
            for i in range(size):
                row[pos + i] = p
                p *= self.N
            out.append(tuple(row))
            pos += size
        return out

    def apply(self, point):
        return tuple(la.dot(r, point) for r in self.rows())


def substitute_monomials(f, vrows, out_nvars):
    """Map exponents linearly: numerators a -> V a, denominators b -> V b.

    Rejects any denominator with zero image; the limit-taking variant is
    reserved for the specialization paths where finite support is guaranteed.
    """
    return substitute(f, [tuple(r) for r in vrows], out_nvars)


def _coordinates(keep, nvars):
    """`keep` as a list; ValueError unless it holds distinct indices of
    range(nvars)."""
    keep = list(keep)
    if len(set(keep)) != len(keep) or not all(i in range(nvars) for i in keep):
        raise ValueError(
            f"keep must hold distinct coordinates of range({nvars}), not {keep}"
        )
    return keep


def specialize_vars(f, keep):
    """Set all variables outside `keep` to one; requires finite support.

    Collapsed denominator factors are resolved by the exact perturbation
    limit, so the result is a faithful short GF of the specialized series.
    `keep` holds distinct coordinates of f, else ValueError.
    """
    keep = _coordinates(keep, f.nvars)
    vrows = [
        tuple(1 if j == k else 0 for j in range(f.nvars)) for k in keep
    ]
    return substitute(f, vrows, len(keep), allow_collapse=True)


# ---------------------------------------------------------------------------
# Hadamard machinery


_INF = float("inf")


def _support_box(apex, vecs):
    """Per-coordinate (lo, hi) bounds of apex + N vecs.

    lo is the apex coordinate unless some vector decreases it, then -inf;
    hi likewise.
    """
    return [
        (
            a if all(v[c] >= 0 for v in vecs) else -_INF,
            a if all(v[c] <= 0 for v in vecs) else _INF,
        )
        for c, a in enumerate(apex)
    ]


def _image_box(rows, bounds):
    """Interval image of a box under an integer matrix."""
    out = []
    for row in rows:
        lo = hi = 0
        for c, (blo, bhi) in zip(row, bounds):
            if c > 0:
                lo += c * blo
                hi += c * bhi
            elif c < 0:
                lo += c * bhi
                hi += c * blo
        out.append((lo, hi))
    return out


def _meets(image, g_box):
    """Does the image box reach the support box of the g-term?  A monomial
    g-term's box is its apex, [(b, b), ...]."""
    return all(
        lo <= ghi and glo <= hi for (lo, hi), (glo, ghi) in zip(image, g_box)
    )


def _unit_steps(vecs, n):
    """Per-coordinate step of vectors that are positive multiples of
    distinct unit vectors, 0 where no vector moves; None for other vectors."""
    steps = [0] * n
    for v in vecs:
        moved = [c for c, x in enumerate(v) if x]
        if len(moved) != 1 or v[moved[0]] < 0 or steps[moved[0]]:
            return None
        steps[moved[0]] = v[moved[0]]
    return steps


def _separable_terms(coeff, aA, vecsA, aB, vecsB, box):
    """Terms of a separable pair under the identity functional, or None.

    A pair is separable when every vector of either term is a positive
    multiple of a unit vector and no two vectors of one term share a
    coordinate.  Each term's set is then a product of 1-D sets, apex_c +
    N step_c or the apex coordinate alone, and so is their intersection:
    per coordinate, the two residues meet by CRT above the larger apex, and
    the box, when given, cuts the result to [0, side - 1].  The pair's GF
    is the product of the 1-D progressions' GFs.  The box must be given
    when both terms have vectors; otherwise one term is a monomial, which
    bounds every coordinate.

    The terms are those of the polytope path, byte for byte.  A coordinate
    with one point gets no vector: a vector there would write the point as
    two terms, t^a (1 - t^v) / (1 - t^v), where the polytope path's
    reduction to a full-dimensional fibre has dropped that direction.  The
    fibre's coordinates follow the f-term's vectors, and Brion's sum visits
    the vertices in their lexicographic order, so the terms are sorted by
    their numerators read in the order of the f-term's vectors.
    """
    n = len(aA)
    stepsA, stepsB = _unit_steps(vecsA, n), _unit_steps(vecsB, n)
    if stepsA is None or stepsB is None:
        return None
    firsts, vecs, counts = [], [], []
    for c, (a, s, b, t) in enumerate(zip(aA, stepsA, aB, stepsB)):
        lo = max(a, b)
        hi = min(a if not s else _INF, b if not t else _INF)
        if box is not None:
            lo, hi = max(lo, 0), min(hi, box.sides[c] - 1)
        # x = a (mod s) and x = b (mod t); a fixed side adds no congruence
        r, m = (a, s) if s else (b, t) if t else (lo, 1)
        if s and t:
            g = gcd(s, t)
            if (b - a) % g:
                return ()
            m = s // g * t
            r = a + s * ((b - a) // g * pow(s // g, -1, t // g) % (t // g))
        first = lo + (r - lo) % m
        if first > hi:
            return ()
        firsts.append(first)
        if first + m <= hi:
            vecs.append(tuple(m if i == c else 0 for i in range(n)))
            counts.append((hi - first) // m + 1)
    order = [c for v in vecsA for c, x in enumerate(v) if x]
    gf = progression_gf(firsts, vecs, counts, coeff)
    return sorted(gf.terms, key=lambda t: [t.numer[c] for c in order])


@lru_cache(maxsize=64)
def _polytope_pair_terms(
    coeff, aA, vecsA, tau_a, aB, vecsB, tau_rows, boxed, box, out_nvars
):
    """Terms of one term pair through its auxiliary polytope.

    Solutions (zeta, xi) >= 0 of tau(aA + sum zeta_i B_i) = aB + sum xi_j D_j,
    with aA + sum zeta_i B_i confined to the box when `boxed`, are mapped
    to exponents aA + sum zeta_i B_i.

    The same pair recurs: the intersect, union and minus calls on one pair
    of operands each build the same Hadamard product.  So the terms are
    cached on every argument, as the tuple of frozen GFTerms every caller
    shares: the coefficient, the tuples aA, vecsA, tau_a, aB, vecsB, the
    tuple of tuples tau_rows, `boxed`, the box (None unless `boxed`) and
    out_nvars.  The repeats come close together, so the least recently
    used pair is evicted past 64 entries, which keeps the memory flat; a
    pair that raises is not cached.  `cache_info()` counts the hits.
    """
    p, q = len(vecsA), len(vecsB)
    dB = len(aB)
    m = p + q
    ineqs = []
    for i in range(m):
        row = [0] * m
        row[i] = -1
        ineqs.append((tuple(row), 0))
    if boxed:
        for c in range(out_nvars):
            up = [vecsA[i][c] for i in range(p)] + [0] * q
            ineqs.append((tuple(up), box.sides[c] - 1 - aA[c]))
            ineqs.append((tuple(-x for x in up), aA[c]))
    eq_rows = []
    eq_rhs = []
    for r in range(dB):
        row = [la.dot(tau_rows[r], vecsA[i]) for i in range(p)]
        row += [-vecsB[j][r] for j in range(q)]
        eq_rows.append(tuple(row))
        eq_rhs.append(aB[r] - tau_a[r])
    exp_rows = [
        tuple(vecsA[i][c] for i in range(p)) + tuple(0 for _ in range(q))
        for c in range(out_nvars)
    ]
    return lattice_gf_mapped(
        ineqs, eq_rows, eq_rhs, m, exp_rows, tuple(aA), out_nvars,
        coeff_factor=coeff,
    ).terms


def _pair_terms(
    coeff, aA, vecsA, tau_a, aB, vecsB, tau_rows, pinned, boxed, box, out_nvars
):
    """Terms of one term pair of a linear-functional Hadamard product.

    Under the identity functional (`pinned`) a separable pair, a pair of
    monomials included, is a product of progressions (`_separable_terms`);
    every other pair goes through its auxiliary polytope, which for a
    monomial f-term is the point t^aA or empty.  `tau_hadamard` settles a
    monomial f-term against a g-term with at most one vector itself, and
    calls this only for pairs whose supports may meet.
    """
    if boxed and box is None:
        raise UnboundedPolyhedronError(
            "a support box is required for this Hadamard product"
        )
    if pinned:
        terms = _separable_terms(
            coeff, aA, vecsA, aB, vecsB, box if boxed else None
        )
        if terms is not None:
            return terms
    return _polytope_pair_terms(
        coeff, aA, vecsA, tau_a, aB, vecsB, tau_rows, boxed,
        box if boxed else None, out_nvars,
    )


def tau_hadamard(f, g, tau_rows, box=None):
    """Linear-functional Hadamard product: coefficients alpha_x * beta_tau(x).

    f ranges over the output variables; g over the functional's target
    coordinates; tau_rows is the (g.nvars x f.nvars) integer matrix of the
    functional, and `box`, when given, has f.nvars sides; other shapes raise
    ValueError.  Bilinear over term pairs; a pair's terms count the points
    of a bounded auxiliary polytope, so the result's index is at most p + q
    for single terms with p and q denominators.  Each pair takes one of
    three rules.

    Monomial membership.  An f-term with no vector maps to the one point
    tau(aA), so each of its pairs is cA * cB * t^aA or nothing.  Against a
    g-term with no vector it hits when tau(aA) = aB; against one with one
    vector v, when tau(aA) - aB = k v for an integer k >= 0, read off v's
    first nonzero coordinate by `divmod`.  A hit implies that the supports
    meet, so no box is built.  The hits of an f-term are summed into one
    triple (cA * (sum of their cB), aA, ()), written out, even when the sum
    is zero, once the run of hits ends: at a g-term with two or more
    vectors, or at the f-term's end.  The result is the same as one triple
    per pair: `canonical_sum` merges the collected triples by key in the
    order keys first occur, sums exactly, and builds a term only for a
    nonzero sum.  A g-term with two or more vectors goes to `_pair_terms`
    when tau(aA) lies in its support box.

    Separable.  Under the identity functional a pair whose vectors are all
    positive multiples of unit vectors, no two of one term on the same
    coordinate, is a product of 1-D progressions, found per coordinate
    without building the polytope (`_separable_terms`).  Its index is then
    at most the number of coordinates both terms move.

    Polytope.  Every other pair builds its auxiliary polytope, unless its
    supports cannot meet.  Each term apex + N vecs lies in its bounding
    box: per coordinate, the apex bounds it from below unless some vector
    decreases that coordinate, and from above unless some vector increases
    it.  The f-term's box, cut to the support box when the pair's system
    carries the box rows, is mapped through tau by interval arithmetic;
    every tau(x) for a point x the pair counts lies in that image, and every
    point of the g-term lies in its own box.  So when the two boxes miss,
    no integer point, indeed no real one, solves the pair's system, and its
    polytope would give the zero GF.

    `box` is a precondition on both operands' supports, not a filter: it
    adds the box rows that keep a pair's polytope bounded.  A pair bounded
    without them carries no box rows: one whose f-term is a monomial, and,
    under the identity functional, one whose g-term is a monomial.  The
    box does not cut the f-term of such a pair, so f's support outside the
    box can reach the result.

    The polytope path is memoized: `_polytope_pair_terms` caches a pair's
    terms on all of its arguments, tau_rows as a tuple of tuples and the
    box only when the pair is boxed, for the 64 most recent pairs.
    """
    tau_rows = tuple(tuple(r) for r in tau_rows)
    if len(tau_rows) != g.nvars or any(len(r) != f.nvars for r in tau_rows):
        raise ValueError(
            f"the functional must have {g.nvars} rows of {f.nvars} entries"
        )
    if box is not None:
        box = as_box(box)
        if box.nvars != f.nvars:
            raise ValueError("box arity does not match nvars")
    terms_f = positive_terms(f)
    # per nonzero g-term: its data, its support box, and for one vector the
    # vector's first nonzero coordinate (None for any other count)
    g_rows = [
        (
            cB, aB, vecsB, _support_box(aB, vecsB),
            next(c for c, x in enumerate(vecsB[0]) if x)
            if len(vecsB) == 1 else None,
        )
        for cB, aB, vecsB in positive_terms(g)
        if cB
    ]
    several = g.nvars > 1
    ident = tuple(
        tuple(1 if i == j else 0 for j in range(f.nvars))
        for i in range(g.nvars)
    )
    pinned = g.nvars == f.nvars and tau_rows == ident
    collected = []
    for cA, aA, vecsA in terms_f:
        if cA == 0:
            continue
        tau_a = aA if pinned else tuple(la.dot(r, aA) for r in tau_rows)
        if not vecsA:
            total, hit = 0, False
            for cB, aB, vecsB, g_box, lead in g_rows:
                if lead is not None:
                    v = vecsB[0]
                    k, r = divmod(tau_a[lead] - aB[lead], v[lead])
                    if r or k < 0 or (several and any(
                        t - b != k * x for t, b, x in zip(tau_a, aB, v)
                    )):
                        continue
                elif not vecsB:
                    if tau_a != aB:
                        continue
                else:
                    if not all(
                        lo <= x <= hi for x, (lo, hi) in zip(tau_a, g_box)
                    ):
                        continue
                    if hit:
                        collected.append((cA * total, aA, ()))
                        total, hit = 0, False
                    collected.extend(
                        (t.coeff, t.numer, t.denoms)
                        for t in _pair_terms(
                            cA * cB, aA, vecsA, tau_a, aB, vecsB, tau_rows,
                            pinned, False, box, f.nvars,
                        )
                    )
                    continue
                total += cB
                hit = True
            if hit:
                collected.append((cA * total, aA, ()))
            continue
        f_box = _support_box(aA, vecsA)
        free = clipped = _image_box(tau_rows, f_box)
        if box is not None:
            cut = [
                (max(lo, 0), min(hi, u - 1)) for (lo, hi), u in zip(f_box, box.sides)
            ]
            empty = any(lo > hi for lo, hi in cut)
            clipped = None if empty else _image_box(tau_rows, cut)
        for cB, aB, vecsB, g_box, _ in g_rows:
            # the system carries the box rows unless the pair is bounded
            # without them: a monomial g-term under the identity functional
            boxed = bool(vecsB) or not pinned
            image = clipped if boxed else free
            if image is None or not _meets(image, g_box):
                continue
            collected.extend(
                (t.coeff, t.numer, t.denoms)
                for t in _pair_terms(
                    cA * cB, aA, vecsA, tau_a, aB, vecsB, tau_rows, pinned,
                    boxed, box, f.nvars,
                )
            )
    return canonical_sum(f.nvars, collected)


def hadamard(f, g, box=None):
    """Coefficientwise product; the identity functional applied coordinatewise.

    Both supports must lie in `box`; a pair whose g-term is a monomial
    carries no box rows (see `tau_hadamard`).
    """
    if f.nvars != g.nvars:
        raise ValueError("operands must share a variable space")
    ident = [
        tuple(1 if i == j else 0 for j in range(f.nvars))
        for i in range(f.nvars)
    ]
    return tau_hadamard(f, g, ident, box=box)


def multiply(f, g):
    """Series product (Cauchy/Minkowski with multiplicity), term by term."""
    if f.nvars != g.nvars:
        raise ValueError("operands must share a variable space")
    triples = [
        (s.coeff * t.coeff, la.vadd(s.numer, t.numer), s.denoms + t.denoms)
        for s in f.terms
        for t in g.terms
        if s.coeff and t.coeff
    ]
    return canonical_sum(f.nvars, triples)


# ---------------------------------------------------------------------------
# boolean operations on box-supported GFs


def _check_zero_one(f, box):
    table = oracle_expand(canonicalize(f), box)
    if not table.is_zero_one():
        raise ValueError("operand is not a 0/1 generating function on the box")
    return table


def boolean_combine(f, g, box, mode, check=True):
    """Set algebra on supports: mode is one of 'intersect', 'union', 'minus'.

    Both supports must lie in `box`, which bounds the Hadamard product's
    pair polytopes rather than cutting the operands; a pair whose g-term is
    a monomial carries no box rows (see `tau_hadamard`).  Any other mode
    raises ValueError before either operand is expanded.
    """
    if mode not in ("intersect", "union", "minus"):
        raise ValueError(f"unknown mode {mode!r}")
    box = as_box(box)
    if check:
        _check_zero_one(f, box)
        _check_zero_one(g, box)
    h = hadamard(f, g, box=box)
    if mode == "intersect":
        return h
    # f + g - h or f - h, under f's orientation when every operand shares it
    ops = ((1, f), (1, g), (-1, h)) if mode == "union" else ((1, f), (-1, h))
    triples = [(s * t.coeff, t.numer, t.denoms) for s, op in ops for t in op.terms]
    same = all(op.orientation == f.orientation for _, op in ops)
    bound = max(op.index_bound for _, op in ops)
    return canonical_sum(f.nvars, triples, bound, f.orientation if same else None)


def box_range_gf(lows, highs):
    """GF of the integer box prod [lo_j, hi_j]: zero when some hi_j = lo_j - 1,
    ValueError when some hi_j is smaller."""
    n = len(lows)
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    return progression_gf(lows, units, [hi - lo + 1 for lo, hi in zip(lows, highs)])


def complement_in_box(f, box, check=True):
    """Finite complement of the support within the box."""
    box = as_box(box)
    full = box_range_gf([0] * box.nvars, [u - 1 for u in box.sides])
    return boolean_combine(full, f, box, "minus", check=check)


def coefficient(f, point):
    """Coefficient at one exponent: Hadamard with the monomial, evaluated at one."""
    h = hadamard(f, monomial(f.nvars, point))
    return evaluate_at_one(h)


def _degree(p):
    """Degree of a one-variable GF that is a polynomial; None when it is zero.

    Each term is first written as c s^a / prod (1 - s^m) with every m > 0
    (`positive_terms`: a factor 1 / (1 - s^b) with b < 0 is
    -s^m / (1 - s^m), m = -b).  Let Q = prod_m (1 - s^m)^k_m, k_m the
    largest multiplicity of m in one term.  Each term times Q is c s^a
    times the factors of Q its own denominator lacks, so N = P Q is a sum
    of at most 2^k monomials per term, k the number of lacking factors.
    As P is a polynomial, deg P = deg N - deg Q exactly, at a cost that
    depends on neither the exponents nor the degree.
    """
    terms = []
    mult = Counter()
    for c, (a,), vecs in positive_terms(p):
        own = Counter(m for (m,) in vecs)
        terms.append((c, a, own))
        mult |= own
    numer = Counter()
    for c, a, own in terms:
        poly = {a: c}
        for m, k in mult.items():
            for _ in range(k - own[m]):
                times = dict(poly)
                for e, v in poly.items():
                    times[e + m] = times.get(e + m, 0) - v
                poly = times
        numer.update(poly)
    top = max((e for e, v in numer.items() if v), default=None)
    if top is None:
        return None
    return top - sum(m * k for m, k in mult.items())


def norm(f, box):
    """Coordinatewise support maxima within the box (None when empty).

    h is f's Hadamard product with the box GF.  For each coordinate j,
    specializing every other variable of h to one leaves the polynomial
    P_j(s) = sum over the support of h of coeff * s^(x_j), whose degree
    `_degree` finds exactly; P_j = 0 means an empty support.  In one
    variable P_0 = h, so the result is exact for any coefficients.  In
    more, each coefficient of P_j is a sum over a fibre of the support, so
    the coefficients of f on the box must be nonnegative: with signs, a
    fibre could sum to zero.  The max-norm is the largest coordinate of
    the result.
    """
    box = as_box(box)
    n = f.nvars
    h = hadamard(f, box_range_gf([0] * n, [u - 1 for u in box.sides]), box=box)
    if n == 0:
        # a GF in no variables is the constant sum of its coefficients
        return () if sum(t.coeff for t in h.terms) else None
    maxima = []
    for j in range(n):
        top = _degree(h if n == 1 else specialize_vars(h, [j]))
        if top is None:
            return None
        maxima.append(top)
    return tuple(maxima)


def proj_member(f, point, keep=None):
    """Is `point` in the projection of supp(f) onto the kept coordinates?

    Specializes the dropped variables to one (exact limits handle collapsed
    factors; finite support required) and tests the coefficient.
    """
    if keep is None:
        keep = list(range(len(point)))
    return coefficient(specialize_vars(f, keep), point) != 0


def oracle_project(f, keep, box, mode="project", limit=None):
    """Brute-force projection of a box-supported GF onto kept coordinates.

    mode 'project' returns the projected support as a dense GF; 'anti' its
    complement within the kept sub-box; 'specialize' verifies that every
    projected point has exactly one witness before projecting.  `keep` and
    `mode` are checked before the support is expanded; any other mode
    raises ValueError.
    """
    if mode not in ("project", "anti", "specialize"):
        raise ValueError(f"unknown mode {mode!r}")
    keep = _coordinates(keep, as_box(box).nvars)
    pts = _project_points(support_points(f, box, limit=limit), keep, box, mode, limit)
    return from_point_set(pts, len(keep))


def _project_points(points, keep, box, mode, limit=None):
    """The point list behind `oracle_project`'s GF, from the support points;
    `keep` holds distinct coordinates of the box, else ValueError."""
    box = as_box(box)
    keep = _coordinates(keep, box.nvars)
    support = sorted(points)
    if mode == "specialize":
        witness = {}
        for pt in support:
            key = tuple(pt[i] for i in keep)
            w = tuple(x for i, x in enumerate(pt) if i not in keep)
            if key in witness and witness[key] != w:
                raise SpecializationError(key, witness[key], w)
            witness[key] = w
    projected = sorted({tuple(pt[i] for i in keep) for pt in support})
    if mode == "anti":
        sub = LatticeBox(tuple(box.sides[i] for i in keep))
        if limit is not None and sub.volume() > limit:
            raise ResourceLimitError("anti-projection box exceeds the point limit")
        proj_set = set(projected)
        return [p for p in sub.points() if p not in proj_set]
    return projected


def support_points(f, box, limit=None):
    """Support of a GF within a box, via the expansion oracle."""
    return oracle_expand(canonicalize(f), box, limit=limit).support()


def minkowski_oracle(f, g, box, out_box=None, limit=None):
    """Pointwise-sum support of two box-supported GFs, as a dense GF.

    g and `out_box` must have f's variable count, else ValueError.
    """
    box = as_box(box)
    out_box = box if out_box is None else as_box(out_box)
    if g.nvars != f.nvars or out_box.nvars != f.nvars:
        raise ValueError("g and the output box must have f's variable count")
    sa = support_points(f, box, limit=limit)
    sb = support_points(g, box, limit=limit)
    sums = {la.vadd(a, b) for a in sa for b in sb}
    for pt in sums:
        if not out_box.contains(pt):
            raise ValueError(f"Minkowski sum point {pt} overflows the output box")
    return from_point_set(sorted(sums), f.nvars)


# ---------------------------------------------------------------------------
# compression


_TAU_MAX_DOUBLINGS = 48  # most doublings of the packing base choose_tau tries


def choose_tau(f, grouping, box=None):
    """Smallest power-of-two base covering the box whose packing map keeps
    every denominator image nonzero, doubling on degeneracy."""
    grouping = tuple(grouping)
    need = 2
    if box is not None:
        sides = box.sides if isinstance(box, LatticeBox) else tuple(box)
        need = max(2, max(sides))
    n_pow = 1 << (need - 1).bit_length()
    denoms = [d for t in f.terms for d in t.denoms]
    for _ in range(_TAU_MAX_DOUBLINGS):
        tau = TauMap(n_pow, grouping)
        rows = tau.rows()
        if all(
            any(la.dot(r, d) for r in rows) for d in denoms
        ):
            return tau
        n_pow *= 2
    raise ZeroImageError(-1, denoms[0])


def compress(f, tau):
    """Pack each variable group into one coordinate: support maps through tau.

    Injective on the [0,N) box, so supports (and the evaluation at one) are
    preserved; denominator images must be nonzero (see `choose_tau`).
    """
    return substitute_monomials(f, tau.rows(), tau.ngroups)


def decompress(f, tau):
    """Recover the unpacked support: functional Hadamard of the box GF with f."""
    n = tau.nvars
    box = LatticeBox(tuple(tau.N for _ in range(n)))
    full = box_range_gf([0] * n, [tau.N - 1] * n)
    return tau_hadamard(full, f, tau.rows(), box=box)


def gf_equal_on_box(f, g, box):
    """Semantic, box-relative equality: identical oracle tables."""
    box = as_box(box)
    ta = oracle_expand(canonicalize(f), box)
    tb = oracle_expand(canonicalize(g), box)
    return ta.support_with_values() == tb.support_with_values()
