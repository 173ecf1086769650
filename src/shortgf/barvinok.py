"""Short GFs of lattice points of rational polyhedra in fixed low dimension.

Pipeline: check boundedness (`la.is_bounded`, one exact LP), enumerate
vertices by a pivoting walk along the edges (`la.vertices_of`), take the
dual of each tangent cone (the cone spanned by the tight constraint
normals), triangulate it by pulling over its facets (`la.extreme_rays` of
the dual of the cone being triangulated), decompose each simplicial piece
into unimodular signed cones by repeated replacement with a short
parallelepiped vector, dualize the unimodular pieces back, and sum the
vertex-cone rational functions (Brion).  Only the root cone of each
decomposition is inverted (`la.scaled_inverse_int`): each child carries its
scaled inverse by an exact rank-one update, and each unimodular piece is
dualized from the inverse it carries.  Lower-dimensional pieces are
discarded in the dual, where they correspond to cones with lines and
contribute zero.  `la.extreme_rays` is the only loop over subsets of tight
rows, and `la.is_bounded` is the one boundedness test.

Lower-dimensional and equality-constrained inputs are reduced to the
full-dimensional case by an integer parameterization of their affine lattice
hull (column Hermite form), so the same core serves the equality-constrained
auxiliary polytopes of the Hadamard machinery.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from . import _linalg as la
from ._subst import substitute
from .errors import (
    FormatError,
    ResourceLimitError,
    UnboundedPolyhedronError,
)
from .gfcore import (
    GFTerm,
    ShortGF,
    canonicalize,
    int_vector,
    normalized,
    progression_gf,
    term_from_positive,
    zero_gf,
)

_LLL_THRESHOLD = 32  # above this index, prefer basis-reduced short vectors


@dataclass(frozen=True)
class Polyhedron:
    """Rational H-polyhedron {x : A x <= b}."""

    A: tuple
    b: tuple
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("dimension must be nonnegative")
        object.__setattr__(
            self, "A", tuple(tuple(Fraction(x) for x in row) for row in self.A)
        )
        object.__setattr__(self, "b", tuple(Fraction(x) for x in self.b))
        if any(len(row) != self.n for row in self.A) or len(self.A) != len(self.b):
            raise ValueError("inconsistent dimensions")

    def scaled_int_rows(self):
        """Integer rows defining the same rational polyhedron."""
        rows = la.integer_rows(c + (b,) for c, b in zip(self.A, self.b))
        return [(tuple(r[:-1]), r[-1]) for r in rows]

    def lattice_rows(self):
        """Integer rows tightened to the same set of integer points."""
        out = []
        for coeffs, rhs in self.scaled_int_rows():
            norm = la.normalize_row(coeffs, rhs)
            if norm is None:
                if rhs < 0:
                    return None  # trivially empty
                continue
            out.append(norm)
        return out


# ---------------------------------------------------------------------------
# simplicial decomposition


def _parallelepiped_point(gen_cols, inverse):
    """Nonzero lattice point of the half-open parallelepiped, as (point, rem).

    `inverse` = (det, R) is `scaled_inverse_int` of W, the matrix whose
    columns are gen_cols, as the decomposition carries it down from the
    root cone; the point is sum_i (rem_i / det) g_i with 0 <= rem_i < det.
    Chooses the point minimizing max rem_i (ties broken lexicographically).
    """
    pts = la.enumerate_parallelepiped(gen_cols, inverse)
    best = None
    for pt, rem in pts:
        if not any(pt):
            continue
        key = (max(rem), pt)
        if best is None or key < best[0]:
            best = (key, pt, rem)
    if best is None:
        raise ValueError("unimodular cone reached decomposition loop")
    return best[1], best[2]


def _short_vector_lll(gen_cols, inverse):
    """Short nonzero vector w = W lam with all |lam_i| < 1, via basis reduction.

    `inverse` = (det, R) is `scaled_inverse_int` of W, the matrix whose
    columns are gen_cols, as the decomposition carries it down from the
    root cone.  Returns (w, beta) with lam = beta / det, or None.
    """
    d = len(gen_cols)
    det, inv = inverse
    # columns of det * W^{-1} form a basis of the lam-lattice, scaled by det
    basis = [tuple(inv[i][j] for i in range(d)) for j in range(d)]
    reduced = la.lll_reduce(basis)
    best = None
    for beta in reduced:
        if not any(beta):
            continue
        m = max(abs(x) for x in beta)
        if m >= det:
            continue
        if best is None or m < best[0]:
            # beta is an integer combination of the columns of det * W^{-1},
            # so W beta is det times a nonzero integer vector
            w = tuple(
                sum(gen_cols[j][i] * beta[j] for j in range(d)) // det
                for i in range(d)
            )
            best = (m, w, beta)
    if best is None:
        return None
    _, w, beta = best
    if all(x <= 0 for x in beta):
        # w in -K: K and the child cones then cover the whole space, so the
        # signed children would leave a whole-space term, which polarizes to
        # a spurious point cone at the vertex.  -w has all lam >= 0.
        return tuple(-x for x in w), tuple(-x for x in beta)
    return w, beta


def decompose_unimodular_fulldim(gen_cols, sign):
    """Signed unimodular decomposition of a full-dimensional simplicial cone.

    Valid modulo lower-dimensional cones: replacing a generator with a short
    parallelepiped (or basis-reduced) vector w = W beta / det yields child
    cones signed by the orientation of w's coefficient beta_i.  Only the root
    cone is inverted.  Each child carries its `scaled_inverse_int` (det', R')
    by the exact rank-one update det' = |beta_i|, R'_i = s R_i and
    R'_k = s (beta_i R_k - beta_k R_i) / det for k != i, s = sign(beta_i)
    (Sherman-Morrison; R' is an integer matrix, so the division is exact).
    Returns a list of (sign, gen_cols, inv), inv = W^-1 of the leaf (det 1)
    as rows of ints.
    """
    d = len(gen_cols)
    cols = tuple(gen_cols)
    inverse = la.scaled_inverse_int([[cols[j][i] for j in range(d)] for i in range(d)])
    if inverse is None:
        raise ValueError("degenerate simplicial cone")
    out = []
    stack = [(sign, cols, inverse)]
    guard = 0
    while stack:
        guard += 1
        if guard > 200_000:
            raise ResourceLimitError("cone decomposition did not converge")
        s, cols, inverse = stack.pop()
        det, inv = inverse
        if det == 1:
            out.append((s, cols, inv))
            continue
        found = _short_vector_lll(cols, inverse) if det > _LLL_THRESHOLD else None
        if found is None:
            found = _parallelepiped_point(cols, inverse)
        w, beta = found
        for i, b_i in enumerate(beta):
            if b_i == 0:
                continue
            t = 1 if b_i > 0 else -1
            r_i = inv[i]
            child_inv = tuple(
                tuple(t * y for y in r_i)
                if k == i
                else tuple(t * (b_i * x - b_k * y) // det for x, y in zip(r_k, r_i))
                for k, (b_k, r_k) in enumerate(zip(beta, inv))
            )
            child = tuple(w if j == i else cols[j] for j in range(d))
            stack.append((t * s, child, (abs(b_i), child_inv)))
    return out


# ---------------------------------------------------------------------------
# triangulation (pulling)


def _coordinates_in_span(gens):
    """Express vectors of a rank-r family in r coordinates (integer-scaled).

    The basis is the first r independent generators: the pivot columns of
    the echelon form of the matrix whose columns are the generators.  Each
    generator's coordinates are scaled to a primitive integer vector.
    """
    n = len(gens[0])
    pivots, w, pivot, _ = la.echelon([[g[i] for g in gens] for i in range(n)])
    r = len(pivots)
    s = 1 if pivot > 0 else -1
    coords = [
        la.primitive([s * w[i][j] for i in range(r)]) for j in range(len(gens))
    ]
    return coords, r


def triangulate_cone(gens):
    """Pulling triangulation of a pointed cone given by generators.

    Returns a list of tuples of generator indices, each a simplicial cone of
    the same dimension; ties broken lexicographically on the generator list.
    """
    gens = [la.primitive(g) for g in gens]
    order = sorted(range(len(gens)), key=lambda i: gens[i])
    uniq = []
    index_of = {}
    for i in order:
        if gens[i] not in index_of:
            index_of[gens[i]] = len(uniq)
            uniq.append(gens[i])
    coords, r = _coordinates_in_span(uniq)
    simplices = _triangulate_rec(coords, list(range(len(uniq))), r)
    return [tuple(uniq[i] for i in s) for s in simplices]


def _triangulate_rec(coords, active, r):
    """Triangulate cone(coords[i] for i in active) of rank r (in r-coords)."""
    if len(active) == r:
        return [tuple(active)]
    sub = [coords[i] for i in active]
    subc, rr = _coordinates_in_span(sub)
    local = {i: subc[pos] for pos, i in enumerate(active)}
    v0 = active[0]
    simplices = []
    # the inward facet normals h are the extreme rays of {h : h . g >= 0}
    for h in la.extreme_rays([[-x for x in local[i]] for i in active], rr):
        facet = [i for i in active if la.dot(h, local[i]) == 0]
        if v0 not in facet:
            for s in _triangulate_rec(coords, facet, rr - 1):
                simplices.append((v0,) + s)
    if not simplices:
        raise ValueError("triangulate_cone needs a pointed cone")
    return simplices


# ---------------------------------------------------------------------------
# vertex machinery


@lru_cache(maxsize=20_000)
def _dual_cone_gf_terms(normals):
    """Positive-form (sign, gen_cols, dual_cols) triples for one vertex's tangent cone.

    `normals` is the sorted tuple of the distinct primitive tight constraint
    normals, which span the dual of the tangent cone; triangulate and
    decompose there, then polarize each unimodular piece W (columns
    dual_cols) back to gen_cols from the W^-1 the decomposition returns
    with it.  The same cone shape recurs across vertices, so the results
    are cached on `normals` as tuples every caller shares, the least
    recently used evicted past 20,000 entries; `cache_info()` counts the
    hits.
    """
    results = []
    for simplex in triangulate_cone(list(normals)):
        cols = tuple(tuple(g) for g in simplex)
        for sign, ucols, inv in decompose_unimodular_fulldim(cols, 1):
            # polar generators g_i solve W^T G = -I: columns of -(W^{-1})^T,
            # i.e. the negated rows of the W^{-1} the decomposition carried
            polar_cols = tuple(tuple(-x for x in row) for row in inv)
            results.append((sign, polar_cols, ucols))
    return tuple(results)


def _unimodular_cone_term(nums, den, gen_cols, dual_cols, sign):
    """GF of the shifted unimodular cone: sign * t^a / prod(1 - t^g).

    The vertex is nums / den, den > 0, and a is the unique lattice point of
    vertex + sum [0,1) g_i.  The cone is the polar of the cone on dual_cols:
    with W the matrix of dual_cols, the generator matrix is G = -(W^-1)^T,
    so G^-1 = -W^T and the vertex has coordinates gamma_j =
    -<dual_cols[j], nums> / den in the basis g, rounded up to
    -(<dual_cols[j], nums> // den).
    """
    d = len(gen_cols)
    apex = [0] * d
    for j in range(d):
        c = -(la.dot(dual_cols[j], nums) // den)
        for i in range(d):
            apex[i] += c * gen_cols[j][i]
    return Fraction(sign), tuple(apex), tuple(gen_cols)


def _brion_fulldim(rows, verts):
    """Positive-form term triples of the lattice-point GF of a full-dim polytope.

    `verts` is `la.vertices_of(rows, d)`, as `_reduce_to_fulldim` returns
    it: each vertex is the integer pair (nums, den) the cone terms round.
    """
    triples = []
    for (nums, den), tight in verts:
        normals = tuple(sorted({la.primitive(rows[i][0]) for i in tight}))
        for sign, polar_cols, ucols in _dual_cone_gf_terms(normals):
            triples.append(_unimodular_cone_term(nums, den, polar_cols, ucols, sign))
    return triples


class _EmptyPolytope(Exception):
    pass


def _reduce_to_fulldim(ineq_rows, eq_rows, eq_rhs, m):
    """Reduce {y : A y <= b, E y = h} to a full-dimensional system.

    Returns (rows, y0, k_cols, verts) with the integer points of the input
    in bijection with those of {z : rows hold}, via y = y0 + K z, and verts
    the `la.vertices_of` list of the final rows (empty when K has no
    columns).  Raises _EmptyPolytope when there are no integer points
    (bounded inputs only).  Implicit equalities are found as opposite row
    pairs and, failing that, from the affine hull of the vertex set: its
    normals h are the kernel of the integer differences
    nums_i * d0 - n0 * den_i from the first vertex n0 / d0, each giving the
    equation h * (d0 / g) . z = (h . n0) / g with g = gcd(h . n0, d0).
    """
    y0 = tuple(0 for _ in range(m))
    k_cols = [tuple(1 if i == j else 0 for i in range(m)) for j in range(m)]
    rows = []
    for coeffs, rhs in ineq_rows:
        norm = la.normalize_row(coeffs, rhs)
        if norm is None:
            if rhs < 0:
                raise _EmptyPolytope
            continue
        rows.append(norm)
    eqs = [(tuple(c), r) for c, r in zip(eq_rows, eq_rhs)]

    for _ in range(m + 2):
        if eqs:
            d_prev = len(k_cols)
            sol = la.solve_affine_lattice(
                [list(c) for c, _ in eqs], [r for _, r in eqs], d_prev
            )
            if sol is None:
                raise _EmptyPolytope
            z0, kc = sol
            y0 = tuple(
                y0[i] + sum(k_cols[j][i] * z0[j] for j in range(d_prev))
                for i in range(m)
            )
            k_cols = [
                tuple(
                    sum(k_cols[j][i] * col[j] for j in range(d_prev))
                    for i in range(m)
                )
                for col in kc
            ]
            new_rows = []
            for coeffs, rhs in rows:
                shifted = rhs - la.dot(coeffs, z0)
                newc = tuple(la.dot(coeffs, col) for col in kc)
                if not any(newc):
                    if shifted < 0:
                        raise _EmptyPolytope
                    continue
                new_rows.append(la.normalize_row(newc, shifted))
            rows = new_rows
            eqs = []
        d = len(k_cols)
        if d == 0:
            return [], y0, k_cols, []
        rows = la.dedupe_rows(rows)
        reduced = la.reduce_rows_boxsafe(rows, d)
        if reduced is None:
            raise _EmptyPolytope
        rows = reduced
        new_eqs, rows = la.extract_equalities(rows)
        if new_eqs:
            eqs = new_eqs
            continue
        if not rows:
            raise UnboundedPolyhedronError("no constraints left; input unbounded")
        verts = la.vertices_of(rows, d)
        if not verts:
            raise _EmptyPolytope
        n0, d0 = verts[0][0]
        diffs = [
            [x * d0 - y * den for x, y in zip(nums, n0)]
            for (nums, den), _ in verts[1:]
        ]
        normals = la.kernel_basis(diffs, d)
        if not normals:
            return rows, y0, k_cols, verts
        eqs = []
        for h in normals:
            rhs = la.dot(h, n0)
            g = gcd(rhs, d0)
            eqs.append((tuple(x * (d0 // g) for x in h), rhs // g))
    raise ResourceLimitError("affine-hull reduction did not converge")


def lattice_gf_mapped(
    ineq_rows,
    eq_rows,
    eq_rhs,
    m,
    exp_rows,
    exp_offset,
    out_nvars,
    coeff_factor=1,
):
    """Short GF over out-space of sum over {y in Z^m : A y <= b, E y = h} of t^(M y + o).

    The solution set must be bounded.  This is the shared engine behind
    polytope GFs and the Hadamard auxiliary polytopes.  After the reduction
    to a full-dimensional fibre z: a point is one monomial; a segment
    lo <= z <= hi whose image vector v is nonzero is written directly as the
    progression t^(o + lo v) (1 - t^((hi-lo+1) v))/(1 - t^v), the two terms
    that Brion's sum and `substitute` give for it; anything else takes
    Brion's sum over the vertices of the fibre, substituted into out-space.
    """
    try:
        rows, y0, k_cols, verts = _reduce_to_fulldim(
            ineq_rows, eq_rows, eq_rhs, m
        )
    except _EmptyPolytope:
        return zero_gf(out_nvars)
    offset = tuple(
        o + la.dot(erow, y0) for o, erow in zip(exp_offset, exp_rows)
    )
    d = len(k_cols)
    if d == 0:
        return progression_gf(offset, (), (), coeff_factor)
    vrows = [
        tuple(la.dot(erow, k_cols[j]) for j in range(d)) for erow in exp_rows
    ]
    if d == 1 and any(row[0] for row in vrows):
        v = tuple(row[0] for row in vrows)
        ((lo_num,), lo_den), ((hi_num,), hi_den) = verts[0][0], verts[-1][0]
        lo, hi = -(-lo_num // lo_den), hi_num // hi_den
        apex = la.vadd(offset, [lo * x for x in v])
        return normalized(progression_gf(apex, (v,), (hi - lo + 1,), coeff_factor))
    triples = _brion_fulldim(rows, verts)
    zgf = ShortGF(
        d,
        tuple(
            term_from_positive(sign, apex, tuple(cols))
            for sign, apex, cols in triples
        ),
    )
    return substitute(
        zgf,
        vrows,
        out_nvars,
        shift=offset,
        coeff_factor=coeff_factor,
        allow_collapse=True,
    )


# ---------------------------------------------------------------------------
# public operations


def polytope_gf(polyhedron):
    """Short GF of the polytope's lattice points via signed cone decomposition.

    A row 0 . x <= b with b < 0 gives the zero GF before boundedness is
    checked.  Rows with a nontrivial recession cone give the zero GF when
    interval propagation empties some variable's range, as in
    `enumerate_polytope_points`, and raise UnboundedPolyhedronError
    otherwise.
    """
    n = polyhedron.n
    lrows = polyhedron.lattice_rows()
    if lrows is None:
        return zero_gf(n)
    if not la.is_bounded(lrows, n):
        if la.propagate_bounds(lrows, [[None, None]] * n, rounds=8) is None:
            return zero_gf(n)
        raise UnboundedPolyhedronError("unbounded polyhedra are unsupported")
    ident = [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
    return lattice_gf_mapped(
        lrows, [], [], n, ident, tuple(0 for _ in range(n)), n
    )


def enumerate_polytope_points(polyhedron, limit=None):
    """Brute-force lattice points; the independent oracle for counting tests.

    A depth-first search of the `lattice_rows` over the box that interval
    propagation derives from them, in lexicographic order.  It shares
    nothing with `polytope_gf` beyond the rows: no reduction to full
    dimension.  When propagation leaves a side of the box open, a bounded
    input takes the box of its vertices instead, and an unbounded one
    raises UnboundedPolyhedronError; the vertices set only the search box,
    and every point is still checked against every row.
    """
    rows = polyhedron.lattice_rows()
    if rows is None:
        return []
    n = polyhedron.n
    bounds = la.propagate_bounds(rows, [[None, None]] * n, rounds=8)
    if bounds is None:
        return []
    if any(lo is None or hi is None for lo, hi in bounds):
        if not la.is_bounded(rows, n):
            raise UnboundedPolyhedronError("could not derive finite bounds")
        verts = la.vertices_of(rows, n)
        if not verts:
            return []
        bounds = [
            [
                min(-(-nums[j] // den) for (nums, den), _ in verts),
                max(nums[j] // den for (nums, den), _ in verts),
            ]
            for j in range(n)
        ]
    return la.lattice_points(rows, bounds, limit=limit)


def semigroup_gf(b):
    """1 / prod_j (1 - t^(b_j)): the numerical-semigroup short power series."""
    bs = int_vector(b)
    if any(x < 1 for x in bs):
        raise ValueError("semigroup generators must be positive")
    term = GFTerm(Fraction(1), (0,), tuple((x,) for x in bs))
    return canonicalize(ShortGF(1, (term,)))


# ---------------------------------------------------------------------------
# text format


def format_polyhedron(p):
    lines = [f"poly n={p.n}"]
    for row, rhs in zip(p.A, p.b):
        cells = " ".join(f"{c.numerator}/{c.denominator}" for c in row)
        lines.append(f"{cells} <= {rhs.numerator}/{rhs.denominator}")
    return "\n".join(lines) + "\n"


def parse_polyhedron(text):
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("poly "):
        raise FormatError("missing 'poly' header")
    try:
        n = int(dict(p.split("=", 1) for p in lines[0].split()[1:])["n"])
    except (KeyError, ValueError) as exc:
        raise FormatError(f"bad header: {lines[0]!r}") from exc
    rows = []
    rhs = []
    for ln in lines[1:]:
        if ln.count("<=") != 1:
            raise FormatError(f"bad row: {ln!r}")
        left, right = ln.split("<=")
        try:
            coeffs = [Fraction(tok) for tok in left.split()]
            bound = Fraction(right.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"bad row: {ln!r}") from exc
        if len(coeffs) != n:
            raise FormatError(f"row arity != {n}: {ln!r}")
        rows.append(tuple(coeffs))
        rhs.append(bound)
    try:
        return Polyhedron(tuple(rows), tuple(rhs), n)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
