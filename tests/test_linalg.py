"""Integer linear-algebra kernels against Fraction references."""

import random
from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd, lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import shortgf._linalg
from shortgf._linalg import (
    box_rows,
    dedupe_rows,
    det_int,
    echelon,
    enumerate_parallelepiped,
    extract_equalities,
    extreme_rays,
    integer_rows,
    is_bounded,
    kernel_basis,
    lattice_points,
    lll_reduce,
    matrix_inverse_fraction,
    propagate_bounds,
    reduce_rows_boxsafe,
    scaled_inverse_int,
    solve_square,
    vertices_of,
)
from shortgf.errors import ResourceLimitError


def square_matrices(max_n, bound):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-bound, bound), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )


@st.composite
def rect_matrices(draw, entries=st.integers(-3, 3)):
    """(rows, n): 0-5 rows of n in 1..6 entries; small entries give rank drops."""
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), max_size=5))
    return rows, n


def rank_int(rows):
    """Rank of a matrix with integer or Fraction entries."""
    return len(echelon(integer_rows(rows))[0])


def solve(rows, rhs):
    """Solve a nonsingular square integer system rows . x = rhs by `echelon`.

    Returns (nums, den) with x_j = nums[j] / den, den > 0 and the gcd of den
    and all nums 1, or None when the matrix is singular.
    """
    n = len(rows)
    pivots, w, den, _ = echelon([list(r) + [b] for r, b in zip(rows, rhs)], n)
    if len(pivots) < n:
        return None
    nums = [row[n] for row in w]
    if den < 0:
        den = -den
        nums = [-x for x in nums]
    g = gcd(den, *nums)
    if g > 1:
        den //= g
        nums = [x // g for x in nums]
    return nums, den


def det_reference(w):
    """Leibniz formula: sum over permutations of signed products."""
    n = len(w)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= w[i][j]
        total += term
    return total


class TestEchelon:
    @settings(max_examples=200, deadline=None)
    @given(square_matrices(5, 9), st.data())
    def test_solve_matches_fraction_solve(self, w, data):
        n = len(w)
        rhs = data.draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n))
        ref = solve_square(w, rhs)
        got = solve(w, rhs)
        if ref is None:
            assert got is None
            return
        nums, den = got
        assert den > 0 and gcd(den, *nums) == 1
        assert tuple(Fraction(x, den) for x in nums) == ref

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(square_matrices(5, 9), square_matrices(4, 1)))
    def test_det_is_signed_pivot(self, w):
        pivots, _, pivot, sign = echelon(w)
        want = det_reference(w)
        assert det_int(w) == want
        if want:
            assert len(pivots) == len(w) and sign * pivot == want
        else:
            assert len(pivots) < len(w)

    @settings(max_examples=200, deadline=None)
    @given(rect_matrices())
    def test_echelon_form(self, system):
        rows, n = system
        pivots, w, pivot, _ = echelon(rows, n)
        r = len(pivots)
        assert pivot != 0 and pivots == sorted(pivots)
        for i, row in enumerate(w):
            for j, c in enumerate(pivots):
                assert row[c] == (pivot if i == j else 0)
            if i >= r:
                assert not any(row)

    @settings(max_examples=200, deadline=None)
    @given(rect_matrices())
    def test_rank_plus_kernel_dimension(self, system):
        rows, n = system
        basis = kernel_basis(rows, n)
        assert rank_int(rows) + len(basis) == n
        assert rank_int(basis) == len(basis)
        for v in basis:
            assert gcd(*v) == 1
            assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows)

    @settings(max_examples=100, deadline=None)
    @given(rect_matrices(st.fractions(-5, 5, max_denominator=6)))
    def test_fraction_rows_match_cleared_rows(self, system):
        rows, _ = system
        den = lcm(*(x.denominator for row in rows for x in row))
        cleared = [[int(x * den) for x in row] for row in rows]
        assert rank_int(rows) == rank_int(cleared)


def parallelepiped_reference(gen_cols):
    """Brute force over the bounding box, with lam = W^-1 x in Fractions."""
    d = len(gen_cols)
    w_rows = [[gen_cols[j][i] for j in range(d)] for i in range(d)]
    w_inv = matrix_inverse_fraction(w_rows)
    ranges = [
        range(
            sum(min(g[i], 0) for g in gen_cols),
            sum(max(g[i], 0) for g in gen_cols) + 1,
        )
        for i in range(d)
    ]
    out = []
    for pt in product(*ranges):
        lam = tuple(sum(r * x for r, x in zip(row, pt)) for row in w_inv)
        if all(0 <= x < 1 for x in lam):
            out.append((pt, lam))
    return sorted(out)


class TestScaledInverse:
    @settings(max_examples=200, deadline=None)
    @given(square_matrices(6, 9))
    def test_matches_fraction_inverse(self, w):
        assume(det_int(w) != 0)
        d, r = scaled_inverse_int(w)
        n = len(w)
        assert d == abs(det_int(w))
        assert all(isinstance(x, int) for row in r for x in row)
        for i in range(n):
            for j in range(n):
                assert sum(w[i][k] * r[k][j] for k in range(n)) == (
                    d if i == j else 0
                )
        ref = matrix_inverse_fraction(w)
        assert tuple(tuple(Fraction(x, d) for x in row) for row in r) == ref

    def test_singular_gives_none(self):
        assert scaled_inverse_int([[1, 2], [2, 4]]) is None
        assert scaled_inverse_int([[0, 0, 1], [0, 1, 0], [0, 2, 0]]) is None

    def test_unimodular_is_exact_inverse(self):
        w = [[2, 1, 0], [1, 1, 0], [3, 5, -1]]
        assert scaled_inverse_int(w) == (
            1,
            tuple(tuple(int(x) for x in row) for row in matrix_inverse_fraction(w)),
        )


class TestEnumerateParallelepiped:
    @settings(max_examples=150, deadline=None)
    @given(square_matrices(3, 4))
    @example([[2, 0, 0], [0, 2, 0], [0, 0, 3]])  # classes Z/2 x Z/6, not cyclic
    @example([[2, 1], [1, 1]])  # det 1: the origin alone
    def test_matches_fraction_reference(self, cols):
        cols = [tuple(c) for c in cols]
        assume(det_int(cols) != 0)
        w_rows = [[c[i] for c in cols] for i in range(len(cols))]
        inverse = scaled_inverse_int(w_rows)
        got = enumerate_parallelepiped(cols, inverse)
        det = inverse[0]
        # the residues are det * lam, all integers
        want = [
            (pt, tuple(det * x for x in lam))
            for pt, lam in parallelepiped_reference(cols)
        ]
        assert got == want
        assert all(isinstance(x, int) for _, rem in got for x in rem)
        assert len(got) == abs(det_int(cols))

    def test_class_cap_raises(self, monkeypatch):
        cols = [(1, 0), (1, 2)]  # det 2
        inverse = scaled_inverse_int([[1, 1], [0, 2]])
        assert len(enumerate_parallelepiped(cols, inverse)) == 2
        monkeypatch.setattr(shortgf._linalg, "_PPD_CAP", 1)
        with pytest.raises(ResourceLimitError):
            enumerate_parallelepiped(cols, inverse)


@st.composite
def boxed_systems(draw):
    """1-4 variables, bounds within +-6, 0-5 rows with coefficients in [-4, 4]."""
    n = draw(st.integers(1, 4))
    bounds = [
        sorted(draw(st.lists(st.integers(-6, 6), min_size=2, max_size=2)))
        for _ in range(n)
    ]
    row = st.tuples(
        st.tuples(*[st.integers(-4, 4)] * n), st.integers(-30, 30)
    )
    return draw(st.lists(row, max_size=5)), bounds


def lattice_points_reference(rows, bounds):
    """Every box point that satisfies every row, in lexicographic order."""
    return [
        pt
        for pt in product(*(range(lo, hi + 1) for lo, hi in bounds))
        if all(sum(c * x for c, x in zip(coeffs, pt)) <= rhs for coeffs, rhs in rows)
    ]


class TestLatticePoints:
    @settings(max_examples=150, deadline=None)
    @given(boxed_systems(), st.integers(0, 40), st.integers(0, 5))
    def test_matches_brute_force(self, system, limit, k):
        rows, bounds = system
        want = lattice_points_reference(rows, bounds)
        assert lattice_points(rows, bounds) == want
        assert lattice_points(rows, bounds, first_only=True) == want[:1]
        # bounds propagated over some of the rows drop no point, so a search
        # from them (as disjointify's carried bounds) finds the same points
        tight = propagate_bounds(rows[:k], bounds, rounds=8)
        if tight is None:
            assert want == []
        else:
            assert lattice_points(rows, tight) == want
            assert lattice_points(rows, tight, first_only=True) == want[:1]
        if len(want) > limit:
            with pytest.raises(ResourceLimitError):
                lattice_points(rows, bounds, limit=limit)
        else:
            assert lattice_points(rows, bounds, limit=limit) == want

    def test_empty_region_of_a_huge_box(self):
        # no point of [0, 2^20)^5 has x0 + x4 <= -1; a search that checks
        # the row only once x4 is fixed would visit 2^80 prefixes
        bounds = [[0, (1 << 20) - 1]] * 5
        rows = [((1, 0, 0, 0, 1), -1)]
        assert lattice_points(rows, bounds, first_only=True) == []


# The form `propagate_bounds` replaced (each row's support rebuilt in every
# round), kept verbatim as its reference: updates must be seen in its order.
def propagate_bounds_reference(rows, bounds, rounds):
    """Tighten per-variable integer bounds by interval propagation over the rows.

    bounds: list of [lo, hi] (entries may be None for unknown); returns a new
    list, or None when some variable's range becomes empty.
    """
    bnd = [list(b) for b in bounds]
    for _ in range(rounds):
        changed = False
        for coeffs, rhs in rows:
            support = [j for j, c in enumerate(coeffs) if c != 0]
            for j in support:
                c = coeffs[j]
                rest_min = 0
                ok = True
                for k in support:
                    if k == j:
                        continue
                    ck = coeffs[k]
                    lo, hi = bnd[k]
                    if ck > 0:
                        if lo is None:
                            ok = False
                            break
                        rest_min += ck * lo
                    else:
                        if hi is None:
                            ok = False
                            break
                        rest_min += ck * hi
                if not ok:
                    continue
                limit = rhs - rest_min  # c * xj <= limit over the box
                if c > 0:
                    new_hi = limit // c
                    if bnd[j][1] is None or new_hi < bnd[j][1]:
                        bnd[j][1] = new_hi
                        changed = True
                else:
                    q = limit // c
                    if limit % c != 0:
                        q += 1  # ceil for negative divisor
                    if bnd[j][0] is None or q > bnd[j][0]:
                        bnd[j][0] = q
                        changed = True
        for lo, hi in bnd:
            if lo is not None and hi is not None and lo > hi:
                return None
        if not changed:
            break
    return bnd


@st.composite
def open_systems(draw):
    """1-4 variables, bounds within +-6 that may be None or empty, 0-6 rows
    with coefficients in [-4, 4]."""
    n = draw(st.integers(1, 4))
    end = st.none() | st.integers(-6, 6)
    bounds = [[draw(end), draw(end)] for _ in range(n)]
    row = st.tuples(
        st.tuples(*[st.integers(-4, 4)] * n), st.integers(-30, 30)
    )
    return draw(st.lists(row, max_size=6)), bounds


class TestBoundsKernel:
    @settings(max_examples=300, deadline=None)
    @given(open_systems(), st.integers(1, 8))
    def test_propagation_matches_the_reference(self, system, rounds):
        rows, bounds = system
        want = propagate_bounds_reference(rows, bounds, rounds)
        assert propagate_bounds(rows, bounds, rounds) == want

    @settings(max_examples=300, deadline=None)
    @given(open_systems(), st.integers(1, 8), st.integers(0, 6))
    def test_settled_prefix_at_a_fixpoint_is_exact(self, system, rounds, k):
        # bounds already propagated to a fixpoint of rows[:k], as disjointify
        # carries them, give the full sweep's result without revisiting them
        rows, bounds = system
        k = min(k, len(rows))
        fix = propagate_bounds_reference(rows[:k], bounds, 64)
        assume(fix is not None)
        assume(propagate_bounds_reference(rows[:k], fix, 1) == fix)
        want = propagate_bounds_reference(rows, fix, rounds)
        assert propagate_bounds(rows, fix, rounds, settled=k) == want

    @settings(max_examples=300, deadline=None)
    @given(boxed_systems(), st.integers(1, 8), st.integers(0, 5))
    def test_settled_prefix_drops_no_point(self, system, rounds, k):
        # any settled count, fixpoint or not, keeps every integer point
        rows, bounds = system
        want = lattice_points_reference(rows, bounds)
        got = propagate_bounds(rows, bounds, rounds, settled=min(k, len(rows)))
        if got is None:
            assert want == []
        else:
            for pt in want:
                assert all(lo <= x <= hi for x, (lo, hi) in zip(pt, got))

    @given(
        st.lists(
            st.tuples(
                st.tuples(st.integers(-1, 1), st.integers(-1, 1)),
                st.integers(-5, 5),
            ),
            max_size=8,
        )
    )
    def test_dedupe_keeps_the_least_rhs_in_first_occurrence_order(self, rows):
        got = dedupe_rows(rows)
        assert [c for c, _ in got] == list(dict.fromkeys(c for c, _ in rows))
        for coeffs, rhs in got:
            assert rhs == min(b for c, b in rows if c == coeffs)

    def test_box_rows_in_variable_order(self):
        assert box_rows([[0, 3], [-2, 5]]) == [
            ((1, 0), 3),
            ((-1, 0), 0),
            ((0, 1), 5),
            ((0, -1), 2),
        ]

    def test_equalities_pair_opposite_rows_once(self):
        # x0 = 3 from an opposite pair; the pair on x1 is an empty slab and
        # stays as two inequalities, as does the repeated row
        rows = [((1, 0), 3), ((0, 1), 2), ((-1, 0), -3), ((0, -1), -3), ((1, 0), 3)]
        assert extract_equalities(rows) == (
            [((1, 0), 3)],
            [((0, 1), 2), ((0, -1), -3)],
        )

    def test_boxsafe_reduction_leads_with_the_box_rows(self):
        # x, y >= 0 and x + y <= 4 give the box [0, 4]^2; the unit rows go
        # and the diagonal row, broken at the box corner (4, 4), stays last
        rows = [((1, 1), 4), ((-1, 0), 0), ((0, -1), 0)]
        assert reduce_rows_boxsafe(rows, 2) == box_rows([[0, 4], [0, 4]]) + [
            ((1, 1), 4)
        ]
        assert reduce_rows_boxsafe(rows + [((1, 0), -1)], 2) is None
        assert reduce_rows_boxsafe(rows[:1], 2) == rows[:1]


def basic_feasible_solutions(rows, n):
    """Every vertex as a feasible solution of some n rows taken as equations.

    The n-subset enumeration `vertices_of` replaced, kept as its reference:
    ((nums, den), tight) per vertex, sorted by the value of the Fractions.
    """
    seen = {}
    for subset in combinations(range(len(rows)), n):
        sol = solve([rows[i][0] for i in subset], [rows[i][1] for i in subset])
        if sol is None:
            continue
        nums, den = sol
        if all(
            sum(c * x for c, x in zip(coeffs, nums)) <= rhs * den
            for coeffs, rhs in rows
        ):
            seen[(tuple(nums), den)] = None
    out = []
    for nums, den in seen:
        tight = tuple(
            i
            for i, (coeffs, rhs) in enumerate(rows)
            if sum(c * x for c, x in zip(coeffs, nums)) == rhs * den
        )
        out.append(((nums, den), tight))
    return sorted(out, key=lambda t: as_fractions(t[0]))


def as_fractions(pair):
    nums, den = pair
    return tuple(Fraction(x, den) for x in nums)


def is_bounded_reference(rows, n):
    """Boundedness by rank and the (n-1)-subset ray search of `extreme_rays`."""
    normals = [r[0] for r in rows]
    return rank_int(normals) >= n and next(extreme_rays(normals, n), None) is None


def random_system(rng, n):
    """Rows in n variables drawn to give empty, unbounded, rank-deficient,
    degenerate and lower-dimensional systems alike."""
    kind = rng.choice(("free", "boxed", "slab", "flat"))
    width = n if kind == "flat" else n + 1
    rows = []
    if kind == "boxed":
        for j in range(n):
            unit = tuple(int(i == j) for i in range(n))
            rows.append((unit, rng.randint(0, 3)))
            rows.append((tuple(-x for x in unit), rng.randint(-1, 1)))
    for _ in range(rng.randint(0, width + 2)):
        coeffs = [rng.randint(-2, 2) for _ in range(n)]
        if kind == "flat":
            coeffs[-1] = 0  # every normal misses the last axis: rank < n
        rows.append((tuple(coeffs), rng.randint(-3, 3)))
    if kind == "slab" and rows:
        coeffs, rhs = rng.choice(rows)
        rows.append((tuple(-x for x in coeffs), -rhs))  # an equality pair
    rng.shuffle(rows)
    return rows


class TestVerticesOf:
    SQUARE = [((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)]
    # the square pyramid over [0, 2]^2 with apex (1, 1, 1), tight on 4 rows
    PYRAMID = [
        ((0, 0, -1), 0),
        ((-1, 0, 1), 0),
        ((1, 0, 1), 2),
        ((0, -1, 1), 0),
        ((0, 1, 1), 2),
    ]
    OCTAHEDRON = [
        ((a, b, c), 1) for a in (1, -1) for b in (1, -1) for c in (1, -1)
    ]
    # a cell of encode_segment(xor_detector(2)): 48 vertices, 18 degenerate
    CIRCUIT_CELL = [
        ((1, 0, 0, 0, 0), 3),
        ((-1, 0, 0, 0, 0), 0),
        ((0, 1, 0, 0, 0), 29),
        ((0, -1, 0, 0, 0), -4),
        ((0, 0, 1, 0, 0), 3),
        ((0, 0, -1, 0, 0), 0),
        ((0, 0, 0, 1, 0), 7),
        ((0, 0, 0, -1, 0), -1),
        ((0, 0, 0, 0, 1), 7),
        ((0, 0, 0, 0, -1), -1),
        ((0, -1, 2, 0, 0), -2),
        ((0, -1, 4, 0, 0), -4),
        ((0, 1, -8, 0, 0), 7),
        ((0, -1, 8, 0, 0), -4),
        ((1, 0, 0, -2, 0), -1),
        ((0, 1, 0, -4, 0), 1),
        ((0, -1, 0, 4, 0), 0),
        ((0, 1, 0, 0, -4), 1),
        ((0, -1, 0, 0, 4), 0),
    ]

    def test_unit_square(self):
        got = [v for v, _ in vertices_of(self.SQUARE, 2)]
        assert got == [((0, 0), 1), ((0, 1), 1), ((1, 0), 1), ((1, 1), 1)]

    def test_pyramid_and_octahedron(self):
        got = vertices_of(self.PYRAMID, 3)
        assert got == basic_feasible_solutions(self.PYRAMID, 3)
        assert (((1, 1, 1), 1), (1, 2, 3, 4)) in got and len(got) == 5
        got = vertices_of(self.OCTAHEDRON, 3)
        assert got == basic_feasible_solutions(self.OCTAHEDRON, 3)
        assert len(got) == 6 and all(len(t) == 4 for _, t in got)
        # without its base the pyramid is a cone: one vertex, unbounded
        cone = self.PYRAMID[1:]
        assert vertices_of(cone, 3) == basic_feasible_solutions(cone, 3)
        for rows in (self.PYRAMID, self.OCTAHEDRON, cone):
            assert is_bounded(rows, 3) == is_bounded_reference(rows, 3)
        assert not is_bounded(cone, 3)

    def test_circuit_cell(self):
        got = vertices_of(self.CIRCUIT_CELL, 5)
        assert got == basic_feasible_solutions(self.CIRCUIT_CELL, 5)
        assert len(got) == 48 and sum(len(t) > 5 for _, t in got) == 18
        assert is_bounded(self.CIRCUIT_CELL, 5)

    def test_matches_basic_feasible_solutions(self):
        rng = random.Random(17)
        seen = set()
        for n in range(1, 6):
            for _ in range((400, 300, 200, 80, 30)[n - 1]):
                rows = random_system(rng, n)
                want = basic_feasible_solutions(rows, n)
                assert vertices_of(rows, n) == want
                bounded = is_bounded_reference(rows, n)
                assert is_bounded(rows, n) == bounded
                if rank_int([r[0] for r in rows]) < n:
                    seen.add("rank-deficient")
                elif not want:
                    seen.add("empty")
                if not bounded:
                    seen.add("unbounded")
                if any(len(t) > n for _, t in want):
                    seen.add("degenerate")
                pts = [as_fractions(v) for v, _ in want]
                diffs = [[x - y for x, y in zip(v, pts[0])] for v in pts]
                if want and rank_int(diffs) < n:
                    seen.add("lower-dimensional")
        assert seen == {
            "rank-deficient",
            "empty",
            "unbounded",
            "degenerate",
            "lower-dimensional",
        }

    @settings(max_examples=150, deadline=None)
    @given(boxed_systems())
    def test_pairs_are_reduced_and_sorted_by_value(self, system):
        rows, bounds = system
        n = len(bounds)
        for j, (lo, hi) in enumerate(bounds):
            unit = tuple(int(i == j) for i in range(n))
            rows = rows + [(unit, hi), (tuple(-x for x in unit), -lo)]
        got = vertices_of(rows, n)
        for (nums, den), tight in got:
            assert isinstance(nums, tuple) and len(nums) == n
            assert den > 0 and gcd(den, *nums) == 1
            slacks = [
                b * den - sum(c * x for c, x in zip(a, nums)) for a, b in rows
            ]
            assert min(slacks) >= 0
            assert tight == tuple(i for i, s in enumerate(slacks) if not s)
        values = [as_fractions(v) for v, _ in got]
        assert values == sorted(set(values))

    def test_zero_dimensional(self):
        assert vertices_of([((), 0), ((), 2)], 0) == [(((), 1), (0,))]
        assert vertices_of([((), -1)], 0) == []


def tangent_cone_rays(normals, n):
    """Reference rays of {d : normals . d <= 0} (n >= 2), by a loop over
    the (n-1)-subsets of the normals."""
    rays = []
    seen = set()
    for combo in combinations(range(len(normals)), n - 1):
        basis = kernel_basis([normals[i] for i in combo], n)
        if len(basis) != 1:
            continue
        dvec = basis[0]
        for cand in (dvec, tuple(-x for x in dvec)):
            if all(sum(a * b for a, b in zip(nrm, cand)) <= 0 for nrm in normals):
                if cand not in seen:
                    seen.add(cand)
                    rays.append(cand)
    return rays


class TestExtremeRays:
    def test_matches_the_tangent_cone_loop(self):
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randint(2, 4)
            normals = [
                tuple(rng.randint(-3, 3) for _ in range(n))
                for _ in range(rng.randint(1, n + 3))
            ]
            got = list(extreme_rays(normals, n))
            assert len(set(got)) == len(got)
            assert set(got) == set(tangent_cone_rays(normals, n))
            for ray in got:
                assert any(ray) and gcd(*ray) == 1
                assert all(sum(a * b for a, b in zip(r, ray)) <= 0 for r in normals)

    def test_simple_cone_rays_are_the_columns_of_minus_the_inverse(self):
        # at a vertex tight on n independent rows W the edge directions
        # are the columns of -W^-1, up to a positive scale
        rng = random.Random(25)
        checked = 0
        while checked < 200:
            n = rng.randint(2, 4)
            w = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(n)]
            inverse = scaled_inverse_int(w)
            if inverse is None:
                continue
            checked += 1
            cols = {
                tuple(-x // gcd(*col) for x in col) for col in zip(*inverse[1])
            }
            got = list(extreme_rays(w, n))
            assert len(got) == n and set(got) == cols

    def test_one_dimensional(self):
        assert list(extreme_rays([(-2,)], 1)) == [(1,)]
        assert list(extreme_rays([(1,), (-1,)], 1)) == []
        assert list(extreme_rays([], 1)) == [(1,), (-1,)]

    def test_zero_dimensional(self):
        # the cone in R^0 is {0}: no rays, and every polyhedron is bounded
        assert list(extreme_rays([()], 0)) == []
        assert list(extreme_rays([], 0)) == []
        assert is_bounded([((), 1)], 0)
        assert is_bounded([], 0)

    def test_is_bounded(self):
        square = [((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)]
        assert is_bounded(square, 2)
        assert not is_bounded(square[:3], 2)  # a half-strip
        assert not is_bounded([((1, 1), 2), ((-1, -1), 2)], 2)  # rank 1
        assert not is_bounded([], 2)
        assert is_bounded([((1,), 3), ((-1,), -5)], 1)  # empty, yet bounded


def lll_reduce_reference(basis):
    """LLL (delta = 3/4) that recomputes Gram-Schmidt after every row change."""
    b = [list(r) for r in basis]
    n = len(b)

    def gram(b):
        bstar = []
        mu = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            v = [Fraction(x) for x in b[i]]
            for j in range(i):
                denom = sum(x * x for x in bstar[j])
                mu[i][j] = sum(x * y for x, y in zip(b[i], bstar[j])) / denom
                v = [x - mu[i][j] * y for x, y in zip(v, bstar[j])]
            bstar.append(v)
        return bstar, mu

    bstar, mu = gram(b)
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = mu[k][j] + Fraction(1, 2)
            r = q.numerator // q.denominator
            if r != 0:
                b[k] = [x - r * y for x, y in zip(b[k], b[j])]
                bstar, mu = gram(b)
        lhs = sum(x * x for x in bstar[k])
        rhs = (Fraction(3, 4) - mu[k][k - 1] ** 2) * sum(x * x for x in bstar[k - 1])
        if lhs >= rhs:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            bstar, mu = gram(b)
            k = max(k - 1, 1)
    return [tuple(r) for r in b]


class TestLLL:
    # consecutive Fibonacci numbers F20, F21, F22: unimodular, badly skewed
    BASIS = [(6765, 10946), (10946, 17711)]

    def test_reduces_fibonacci_basis(self):
        reduced = lll_reduce(self.BASIS)
        assert abs(det_int(reduced)) == 1
        assert max(abs(x) for row in reduced for x in row) == 1

    def test_matches_full_recompute(self):
        rng = random.Random(23)
        checked = 0
        while checked < 150:
            n = rng.randint(1, 6)
            basis = [tuple(rng.randint(-40, 40) for _ in range(n)) for _ in range(n)]
            if det_int(basis) == 0:
                continue
            assert lll_reduce(basis) == lll_reduce_reference(basis)
            checked += 1

    def test_round_cap_raises(self, monkeypatch):
        monkeypatch.setattr(shortgf._linalg, "_LLL_MAX_ROUNDS", 1)
        with pytest.raises(ResourceLimitError):
            lll_reduce(self.BASIS)
