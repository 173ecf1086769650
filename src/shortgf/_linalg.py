"""Exact integer/rational linear algebra helpers.

No floating point.  Every exact determinant, inverse and kernel basis goes
through one fraction-free (Bareiss) Gauss-Jordan routine, `echelon`:
`det_int`, `kernel_basis` and `scaled_inverse_int` wrap it.  `solve_square`
and `matrix_inverse_fraction` are Gauss-Jordan over `fractions.Fraction`.
No program code calls `det_int`, `solve_square` or
`matrix_inverse_fraction`: they are kept as the references the tests
compare against (the benchmark tracer also wraps the last).  Rows of
inequality systems are (coeffs, rhs) pairs of ints meaning coeffs . x <= rhs.
A rational point leaves as one reduced integer pair (nums, den), den > 0,
meaning x = nums / den, and a parallelepiped coordinate lam as the integer
residue det * lam; only `lll_reduce` computes in Fractions.
`enumerate_parallelepiped` reduces no lattice of its own: it lists the
residues as the subgroup of (Z/det)^d spanned by the columns of the scaled
inverse det * W^-1 that the unimodular decomposition carries.

`_first_vertex` is the one exact pivoting kernel: an active-set simplex
with Bland's rule in integers (Bland 1977).  `vertices_of` walks the edge
graph from the vertex it finds (the adjacency walk of Avis-Fukuda 1992),
and `is_bounded` is one call of it on the recession cone.  `extreme_rays`
((n-1)-subsets of normals) is the only enumeration of row subsets; it
serves cones of few rows: the edge directions at every vertex, simple or
degenerate, tangent cones and the facets of the triangulation.

`propagate_bounds`, `lattice_points`, `reduce_rows_boxsafe`, `box_rows` and
`dedupe_rows` are the one integer-bounds kernel: a row is its nonzero (j, c)
pairs, listed at most once per call, and its rhs, and a bound from
c * x_j <= limit is the floor limit // c, or for c < 0 the ceiling
-(limit // -c).
"""

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import mul

from .errors import ResourceLimitError


def vec_gcd(v):
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return g


def primitive(v):
    """Divide an integer vector by the gcd of its entries (zero vector unchanged)."""
    g = vec_gcd(v)
    if g <= 1:
        return tuple(v)
    return tuple(x // g for x in v)


def dot(a, b):
    return sum(map(mul, a, b))


def vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def echelon(rows, ncols=None):
    """Fraction-free (Bareiss) Gauss-Jordan elimination of an integer matrix.

    Pivots are sought in the first `ncols` columns (all by default), so an
    augmented matrix [A | B] is reduced on A.  Returns (pivots, w, pivot,
    sign): the pivot columns; the reduced rows, where row i < len(pivots)
    holds `pivot` in column pivots[i] and 0 in every other pivot column, and
    the later rows vanish on the first `ncols` columns; the common pivot
    value (a minor of size len(pivots), 1 when there is no pivot); and
    (-1)^(row swaps).  After each step every entry is, up to sign, a minor
    of the input, so each division by the previous pivot is exact.  A
    square nonsingular W has det W = sign * pivot.
    """
    w = [list(r) for r in rows]
    m = len(w)
    if ncols is None:
        ncols = len(w[0]) if w else 0
    pivots = []
    prev = 1
    sign = 1
    for c in range(ncols):
        r = len(pivots)
        if r == m:
            break
        piv = next((i for i in range(r, m) if w[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            w[r], w[piv] = w[piv], w[r]
            sign = -sign
        rk = w[r]
        pk = rk[c]
        for i in range(m):
            if i != r:
                f = w[i][c]
                w[i] = [(pk * x - f * y) // prev for x, y in zip(w[i], rk)]
        prev = pk
        pivots.append(c)
    return pivots, w, prev, sign


def integer_rows(rows):
    """Scale each row of ints or Fractions by its denominators' lcm."""
    out = []
    for r in rows:
        den = lcm(*(x.denominator for x in r))
        out.append([x.numerator * (den // x.denominator) for x in r])
    return out


def det_int(rows):
    """Determinant of a square integer matrix."""
    pivots, _, pivot, sign = echelon(rows)
    return sign * pivot if len(pivots) == len(rows) else 0


def kernel_basis(rows, n):
    """Primitive integer basis of {h in Q^n : rows . h = 0}, rows of ints.

    One vector per free column of the echelon form, in column order, with a
    positive entry in its free column.
    """
    pivots, w, pivot, _ = echelon(rows, n)
    s = 1 if pivot > 0 else -1
    basis = []
    for fc in range(n):
        if fc in pivots:
            continue
        v = [0] * n
        v[fc] = s * pivot
        for row, pc in zip(w, pivots):
            v[pc] = -s * row[fc]
        basis.append(primitive(v))
    return basis


def solve_square(rows, rhs):
    """Solve an n x n integer (or Fraction) system exactly.

    Returns a tuple of Fractions, or None when the matrix is singular.  The
    Fraction reference for the integer solve the tests define.
    """
    n = len(rows)
    w = [[Fraction(x) for x in r] + [Fraction(rhs[i])] for i, r in enumerate(rows)]
    for k in range(n):
        piv = next((i for i in range(k, n) if w[i][k] != 0), None)
        if piv is None:
            return None
        if piv != k:
            w[k], w[piv] = w[piv], w[k]
        inv = 1 / w[k][k]
        w[k] = [x * inv for x in w[k]]
        for i in range(n):
            if i != k and w[i][k]:
                f = w[i][k]
                w[i] = [x - f * y for x, y in zip(w[i], w[k])]
    return tuple(w[i][n] for i in range(n))


def hnf_columns(rows, m):
    """Column echelon form of an integer matrix by unimodular column operations.

    rows: r x m integer matrix (list of rows).  Returns (H, U, pivots) with
    A.U = H, U unimodular m x m, and H in lower column-echelon form: pivots is
    a list of (row, col) positions of the staircase.
    """
    h = [list(r) for r in rows]
    r = len(h)
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]

    def col_op(j, k, a, b, c, d):
        # (col_j, col_k) <- (a*col_j + b*col_k, c*col_j + d*col_k)
        for mat in (h, u):
            for row in mat:
                x, y = row[j], row[k]
                row[j] = a * x + b * y
                row[k] = c * x + d * y

    pivots = []
    col = 0
    for row_i in range(r):
        if col >= m:
            break
        j = next((j for j in range(col, m) if h[row_i][j] != 0), None)
        if j is None:
            continue
        if j != col:
            col_op(col, j, 0, 1, 1, 0)
        for j in range(col + 1, m):
            while h[row_i][j] != 0:
                a, b = h[row_i][col], h[row_i][j]
                if abs(a) > abs(b):
                    col_op(col, j, 0, 1, 1, 0)
                    continue
                q = b // a
                col_op(j, col, 1, -q, 0, 1)
        pivots.append((row_i, col))
        col += 1
    # sign normalization: make pivot entries positive
    for row_i, c in pivots:
        if h[row_i][c] < 0:
            for mat in (h, u):
                for row in mat:
                    row[c] = -row[c]
    return h, u, pivots


def solve_affine_lattice(eq_rows, eq_rhs, m):
    """Integer solutions of E y = h for y in Z^m.

    Returns (y0, K) with the solution set y0 + K Z^d (K columns a lattice
    basis of the kernel, in column-echelon form), or None when no integer
    solution exists.  For an empty equation list returns (0, identity).
    """
    h, u, pivots = hnf_columns(eq_rows, m)
    # particular solution: solve the staircase h . w = rhs with w supported on pivots
    w = [0] * m
    resid = list(eq_rhs)
    for row_i, col in pivots:
        val = resid[row_i] - sum(h[row_i][c] * w[c] for c in range(col))
        if val % h[row_i][col] != 0:
            return None
        w[col] = val // h[row_i][col]
    y0 = tuple(sum(u[i][c] * w[c] for c in range(m)) for i in range(m))
    for i, row in enumerate(eq_rows):
        if dot(row, y0) != eq_rhs[i]:
            return None
    pivot_cols = {c for _, c in pivots}
    free_cols = [c for c in range(m) if c not in pivot_cols]
    k_cols = [tuple(u[i][c] for i in range(m)) for c in free_cols]
    if k_cols:
        # re-echelonize the kernel basis so downstream bound propagation is staircase
        kt = [list(col) for col in k_cols]  # d x m, treat columns-as-rows
        h2, u2, piv2 = hnf_columns([list(r) for r in zip(*kt)], len(k_cols))
        k_cols = [tuple(h2[i][j] for i in range(m)) for j in range(len(k_cols))]
        k_cols = [c for c in k_cols if any(c)]
    return y0, k_cols


def normalize_row(coeffs, rhs):
    """Primitive integer row with floor-tightened rhs (integer-point equivalent)."""
    g = vec_gcd(coeffs)
    if g == 0:
        return None  # constant row; caller decides on feasibility via rhs sign
    if g == 1:
        return tuple(coeffs), rhs
    q, r = divmod(rhs, g)
    return tuple(c // g for c in coeffs), q  # floor division tightens


def dedupe_rows(rows):
    """The least rhs per normal direction, in first-occurrence order."""
    best = {}
    for coeffs, rhs in rows:
        best[coeffs] = min(rhs, best.get(coeffs, rhs))
    return list(best.items())


def extract_equalities(rows):
    """Split opposite-row pairs a.x <= b, -a.x <= -b into equalities a.x = b.

    Returns (eq_list, ineq_list); pairs with -a rhs < -b (empty slab) are kept
    as inequalities so emptiness is discovered downstream.
    """
    by_normal = dict(rows)
    eqs = []
    used = set()
    for coeffs, rhs in rows:
        neg = tuple(-c for c in coeffs)
        if coeffs not in used and by_normal.get(neg) == -rhs:
            eqs.append((coeffs, rhs))
            used.update((coeffs, neg))
    return eqs, [(c, b) for c, b in rows if c not in used]


def box_rows(bounds):
    """The rows x_j <= hi, -x_j <= -lo of a finite box, in variable order."""
    rows = []
    for j, (lo, hi) in enumerate(bounds):
        unit = [0] * len(bounds)
        unit[j] = 1
        rows.append((tuple(unit), hi))
        unit[j] = -1
        rows.append((tuple(unit), -lo))
    return rows


def propagate_bounds(rows, bounds, rounds, settled=0):
    """Tighten per-variable integer bounds by interval propagation over the rows.

    bounds: list of [lo, hi] (entries may be None for unknown); returns a new
    list, or None when some variable's range becomes empty (checked after
    each round).  A round visits the rows in order and each row's variables
    in index order, skipping one while another lacks the bound it needs; a
    new bound is seen at once by every later step.  At most `rounds` rounds
    run, and the cap is part of the result: `reduce_rows_boxsafe` writes its
    6-round bounds into rows whose GF reaches the output bytes, so a worklist
    must stop where the rounds stop.

    `rows[:settled]` are taken as already propagated into `bounds`: round 1
    visits only `rows[settled:]`, and every later round visits all rows (their
    pairs are listed only then).  When `bounds` is a fixpoint of
    `rows[:settled]` those rows would change nothing in round 1, so the
    result is exactly that of `settled=0`; for any `settled` it drops no
    integer point of the rows.
    """
    bnd = [list(b) for b in bounds]
    sweep = _row_pairs(rows[settled:])
    for _ in range(rounds):
        changed = False
        for pairs, rhs in sweep:
            for j, c in pairs:
                limit = rhs  # c * x_j <= limit over the box
                for k, ck in pairs:
                    if k != j:
                        b = bnd[k][ck < 0]  # the bound that minimises ck * x_k
                        if b is None:
                            break
                        limit -= ck * b
                else:
                    if c > 0:
                        hi = limit // c
                        if bnd[j][1] is None or hi < bnd[j][1]:
                            bnd[j][1] = hi
                            changed = True
                    else:
                        lo = -(limit // -c)
                        if bnd[j][0] is None or lo > bnd[j][0]:
                            bnd[j][0] = lo
                            changed = True
        if any(lo is not None and hi is not None and lo > hi for lo, hi in bnd):
            return None
        if not changed:
            break
        if settled:
            sweep = _row_pairs(rows[:settled]) + sweep
            settled = 0
    return bnd


def _row_pairs(rows):
    """Each row as (its nonzero (j, c) pairs, rhs)."""
    return [([(j, c) for j, c in enumerate(a) if c], b) for a, b in rows]


def reduce_rows_boxsafe(rows, n):
    """Integer-point-preserving row reduction.

    Tightens per-variable bounds by propagation (valid for every integer
    point), replaces unit rows with those bounds, and drops any other row that
    already holds over the resulting box.  Returns None when the box is
    detected empty, or the original rows when no finite box is derivable.
    """
    bounds = propagate_bounds(rows, [[None, None]] * n, rounds=6)
    if bounds is None:
        return None
    if any(lo is None or hi is None for lo, hi in bounds):
        return rows
    out = box_rows(bounds)
    for coeffs, rhs in rows:
        if [c for c in coeffs if c] in ([1], [-1]):
            continue  # unit rows give way to the box rows
        if sum(c * b[c > 0] for c, b in zip(coeffs, bounds)) > rhs:
            out.append((coeffs, rhs))
    return dedupe_rows(out)


def lattice_points(rows, bounds, limit=None, first_only=False):
    """Integer points of {x : rows hold, bounds[j][0] <= x_j <= bounds[j][1]}.

    Depth-first with bound narrowing, so the points come in lexicographic
    order.  A row is checked at its last support variable, as the bound the
    fixed earlier coordinates leave on it.  All bounds must be finite.  They
    are first tightened by interval propagation over the rows, because the
    search alone would prove an empty region of a large box empty point by
    point.  Propagation drops no integer point, so the points, the
    `first_only` witness and the `limit` error match a search of the box.
    """
    n = len(bounds)
    if any(lo is None or hi is None for lo, hi in bounds):
        raise ValueError("lattice_points requires finite bounds")
    bounds = propagate_bounds(rows, bounds, rounds=8)
    if bounds is None:
        return []
    at_depth = [[] for _ in range(n)]
    for rest, rhs in _row_pairs(rows):
        if rest:
            j, c = rest.pop()
            at_depth[j].append((rest, c, rhs))
        elif rhs < 0:
            return []
    out = []
    point = [0] * n

    def rec(depth):
        if depth == n:
            out.append(tuple(point))
            if limit is not None and len(out) > limit:
                raise ResourceLimitError(f"lattice enumeration exceeded {limit} points")
            return first_only
        lo, hi = bounds[depth]
        for rest, c, rhs in at_depth[depth]:
            room = rhs - sum(ck * point[k] for k, ck in rest)
            if c > 0:
                hi = min(hi, room // c)
            else:
                lo = max(lo, -(room // -c))
        for v in range(lo, hi + 1):
            point[depth] = v
            if rec(depth + 1):
                return True
        return False

    rec(0)
    return out


def _independent_rows(normals):
    """Indices of a maximal set of linearly independent normals, least first.

    They are the pivot columns of `echelon` on the transposed matrix.
    """
    return echelon([list(col) for col in zip(*normals)])[0]


def _reduced(nums, den):
    """(nums, den) with den > 0 divided by their gcd."""
    g = gcd(den, *nums)
    if g > 1:
        return [x // g for x in nums], den // g
    return nums, den


def _first_vertex(rows, basis):
    """A vertex of {x : rows hold} as reduced (nums, den), or None when it is empty.

    `basis` indexes n linearly independent rows (x in Q^n), as
    `_independent_rows` gives them.  Their intersection point is a vertex
    of the system of just those rows; the other rows are then added one at
    a time in index order.  While the current vertex breaks the new row r,
    an active-set simplex lowers a_r . x over the rows added so far.  Bland's rule makes it end:
    the basis row that leaves is the least index whose multiplier has the
    wrong sign, and the entering row is the least index of the ratio test,
    which includes row r itself, so the step stops on r's hyperplane.  When
    no multiplier has the wrong sign and r is still broken, the system is
    empty.  All arithmetic is integer: the vertex is nums / den and the
    basis inverse is `scaled_inverse_int`'s (d, R) with R = d * W^-1.
    """
    basis = list(basis)
    active = [False] * len(rows)
    for i in basis:
        active[i] = True
    den, r_rows = scaled_inverse_int([rows[i][0] for i in basis])
    b_basis = [rows[i][1] for i in basis]
    nums, den = _reduced([dot(row, b_basis) for row in r_rows], den)
    for r, (a_r, b_r) in enumerate(rows):
        if active[r]:
            continue
        active[r] = True
        while dot(a_r, nums) > b_r * den:
            cols = list(zip(*r_rows))
            j = min(
                (j for j, col in enumerate(cols) if dot(a_r, col) > 0),
                key=basis.__getitem__,
                default=None,
            )
            if j is None:
                return None
            direction = [-x for x in cols[j]]
            # least t = slack / (den * a . direction) over the blocking rows;
            # row r blocks from the other side, where both signs flip
            enter = None
            for i, on in enumerate(active):
                if not on:
                    continue
                coeffs, rhs = rows[i]
                ad = dot(coeffs, direction)
                slack = rhs * den - dot(coeffs, nums)
                if i == r:
                    ad, slack = -ad, -slack
                elif ad <= 0:
                    continue
                if enter is None or slack * step_ad < step_slack * ad:
                    enter, step_slack, step_ad = i, slack, ad
            nums, den = _reduced(
                [x * step_ad + step_slack * y for x, y in zip(nums, direction)],
                den * step_ad,
            )
            basis[j] = enter
            r_rows = scaled_inverse_int([rows[i][0] for i in basis])[1]
    return nums, den


def vertices_of(rows, n):
    """Vertices of {x : rows hold} by a walk along the edges of the polyhedron.

    Rows are integer (coeffs, rhs) pairs; returns ((nums, den), tight row
    indices) per vertex, the vertex nums / den as a reduced integer pair
    with den > 0, sorted by value for determinism, and [] when the system
    is empty or its normals have rank < n.  `_first_vertex` finds one vertex;
    from each vertex found, every edge direction is followed to the first
    row it meets.  The edge directions are the `extreme_rays` of the tight
    normals, at a simple vertex and a degenerate one alike; the next vertex
    does not depend on a direction's positive scale.  An edge that meets no
    row is an unbounded ray and leads nowhere.  The vertices and bounded
    edges of a polyhedron with a vertex form a connected graph, so the walk
    reaches every vertex.  All arithmetic is integer.
    """
    normals = [r[0] for r in rows]
    basis = _independent_rows(normals)
    if len(basis) < n:
        return []
    start = _first_vertex(rows, basis)
    if start is None:
        return []
    nums, den = start
    slacks = [b * den - dot(a, nums) for a, b in rows]
    tight = tuple(i for i, s in enumerate(slacks) if not s)
    seen = {(tuple(nums), den): tight}
    stack = [(nums, den, slacks, tight)]
    while stack:
        nums, den, slacks, tight = stack.pop()
        for direction in extreme_rays([normals[i] for i in tight], n):
            ads = [dot(a, direction) for a in normals]
            step_slack = None
            for i, ad in enumerate(ads):
                if ad > 0 and (
                    step_slack is None or slacks[i] * step_ad < step_slack * ad
                ):
                    step_slack, step_ad = slacks[i], ad
            if step_slack is None:
                continue
            new_nums = [x * step_ad + step_slack * y for x, y in zip(nums, direction)]
            new_den = den * step_ad
            g = gcd(new_den, *new_nums)
            key = (tuple(x // g for x in new_nums), new_den // g)
            if key in seen:
                continue
            new_slacks = [
                (s * step_ad - step_slack * ad) // g for s, ad in zip(slacks, ads)
            ]
            new_tight = tuple(i for i, s in enumerate(new_slacks) if not s)
            seen[key] = new_tight
            stack.append((*key, new_slacks, new_tight))
    common = lcm(*(den for _, den in seen))
    return sorted(
        seen.items(),
        key=lambda item: [x * (common // item[0][1]) for x in item[0][0]],
    )


def extreme_rays(normals, n):
    """Primitive extreme rays of the cone {d : N d <= 0}, each once.

    Every extreme ray of a pointed cone spans the kernel of n - 1 of the
    normals, so the rays are found by trying both signs of each 1-D kernel
    of an (n - 1)-subset; they come in the order `combinations` first
    reaches them.  On a cone with a line the rays it yields are not all of
    its directions; the callers pass normals of rank n, as at a vertex.  In
    0 dimensions the cone is {0}, which has no rays.
    """
    if n == 0:
        return
    seen = set()
    for combo in combinations(normals, n - 1):
        basis = kernel_basis(combo, n)
        if len(basis) != 1:
            continue
        for ray in (basis[0], tuple(-x for x in basis[0])):
            if ray not in seen and all(dot(r, ray) <= 0 for r in normals):
                seen.add(ray)
                yield ray


def is_bounded(rows, n):
    """True when {x : rows hold} has the recession cone {0}, empty or not.

    With normals a_i of rank n, a nonzero d with A d <= 0 has some
    a_i . d < 0, so the cone is {0} exactly when {d : A d <= 0,
    (sum_i a_i) . d <= -1} is empty: one `_first_vertex` call.  Always true
    in 0 dimensions, where the only point is ().
    """
    normals = [r[0] for r in rows]
    basis = _independent_rows(normals)
    if len(basis) < n:
        return False
    total = tuple(sum(col) for col in zip(*normals))
    cone = [(a, 0) for a in normals] + [(total, -1)]
    return _first_vertex(cone, basis) is None


def matrix_inverse_fraction(rows):
    """Exact inverse of a square integer matrix as rows of Fractions.

    The Fraction reference for `scaled_inverse_int`.
    """
    n = len(rows)
    cols = []
    for j in range(n):
        e = [1 if i == j else 0 for i in range(n)]
        sol = solve_square(rows, e)
        if sol is None:
            return None
        cols.append(sol)
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def scaled_inverse_int(rows):
    """Integer inverse of a nonsingular square integer matrix W, scaled by |det W|.

    Returns (d, R) with d = |det W| > 0 and R = d * W^-1 (the adjugate up to
    sign) as rows of ints, or None when W is singular: `echelon` of [W | I].
    """
    n = len(rows)
    pivots, w, pivot, _ = echelon(
        [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)], n
    )
    if len(pivots) < n:
        return None
    s = 1 if pivot > 0 else -1
    return s * pivot, tuple(tuple(s * x for x in row[n:]) for row in w)


_PPD_CAP = 10_000_000  # most lattice classes one parallelepiped step lists


def enumerate_parallelepiped(gen_cols, inverse):
    """Integer points of {sum_i lam_i g_i : lam in [0,1)^d} for a full-rank basis.

    gen_cols: list of d integer d-vectors (the generators, as columns), and
    inverse = (det, R), `scaled_inverse_int` of the matrix W they form (the
    unimodular decomposition carries it down from its root cone).
    Returns a sorted list of (point, rem) pairs, rem the integer residues
    with lam = rem / det, 0 <= rem_i < det; includes the origin.  x -> R x
    mod det maps Z^d onto the residues with kernel W Z^d, so the residues
    are the det elements of the subgroup of (Z/det)^d that the columns of
    R mod det generate.  It is closed from 0 one column at a time, a coset
    of the group so far per multiple of the column, and each residue gives
    the point W rem / det, an exact division.  Raises ResourceLimitError
    when det exceeds `_PPD_CAP`.
    """
    d = len(gen_cols)
    det, r_rows = inverse
    if det > _PPD_CAP:
        raise ResourceLimitError(f"parallelepiped has {det} lattice classes")
    rems = [(0,) * d]
    seen = set(rems)
    for j in range(d):
        g = tuple(row[j] % det for row in r_rows)
        group = rems[:]
        shift = g
        while shift not in seen:
            coset = [tuple((x + y) % det for x, y in zip(r, shift)) for r in group]
            rems += coset
            seen.update(coset)
            shift = tuple((x + y) % det for x, y in zip(shift, g))
    w_rows = tuple(zip(*gen_cols))
    return sorted(
        (tuple(dot(row, rem) // det for row in w_rows), rem) for rem in rems
    )


_LLL_MAX_ROUNDS = 10_000


def lll_reduce(basis):
    """Textbook LLL (delta = 3/4) over the rationals; basis is a list of
    linearly independent integer row vectors.

    The Gram-Schmidt coefficients mu and squared lengths |b*_i|^2 are
    computed once and then kept up to date: size reduction of row k by row
    j leaves every b*_i unchanged and only moves mu[k][:j+1], and a swap
    of rows k - 1 and k changes two lengths and columns k - 1, k of mu
    (Cohen 1993, Algorithm 2.6.3).  Raises ResourceLimitError rather than
    return an unreduced basis when the swap-and-size-reduce loop runs past
    `_LLL_MAX_ROUNDS` rounds.
    """
    b = [list(r) for r in basis]
    n = len(b)
    bstar = []
    norms = []
    mu = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        v = [Fraction(x) for x in b[i]]
        for j in range(i):
            mu[i][j] = dot(b[i], bstar[j]) / norms[j]
            v = [x - mu[i][j] * y for x, y in zip(v, bstar[j])]
        bstar.append(v)
        norms.append(dot(v, v))
    k = 1
    guard = 0
    while k < n:
        guard += 1
        if guard > _LLL_MAX_ROUNDS:
            raise ResourceLimitError(
                f"LLL reduction did not finish in {_LLL_MAX_ROUNDS} rounds"
            )
        for j in range(k - 1, -1, -1):
            q = mu[k][j] + Fraction(1, 2)
            r = q.numerator // q.denominator  # nearest integer to mu[k][j]
            if r != 0:
                b[k] = [x - r * y for x, y in zip(b[k], b[j])]
                for i in range(j):
                    mu[k][i] -= r * mu[j][i]
                mu[k][j] -= r
        m = mu[k][k - 1]
        if norms[k] >= (Fraction(3, 4) - m * m) * norms[k - 1]:
            k += 1
            continue
        b[k], b[k - 1] = b[k - 1], b[k]
        for j in range(k - 1):
            mu[k][j], mu[k - 1][j] = mu[k - 1][j], mu[k][j]
        new_norm = norms[k] + m * m * norms[k - 1]
        mu[k][k - 1] = m * norms[k - 1] / new_norm
        norms[k] = norms[k - 1] * norms[k] / new_norm
        norms[k - 1] = new_norm
        for i in range(k + 1, n):
            t = mu[i][k]
            mu[i][k] = mu[i][k - 1] - m * t
            mu[i][k - 1] = t + mu[k][k - 1] * mu[i][k]
        k = max(k - 1, 1)
    return [tuple(r) for r in b]
