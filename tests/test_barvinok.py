"""Polytope GFs against exhaustive lattice enumeration."""

import random
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shortgf import (
    GFTerm,
    LatticeBox,
    Polyhedron,
    UnboundedPolyhedronError,
    enumerate_polytope_points,
    evaluate_at_one,
    format_polyhedron,
    gf_index,
    oracle_expand,
    parse_polyhedron,
    polytope_gf,
    semigroup_gf,
    support_points,
    triangulate_cone,
    zero_gf,
)
from shortgf import _linalg as la
from shortgf.barvinok import (
    _LLL_THRESHOLD,
    _dual_cone_gf_terms,
    _parallelepiped_point,
    _short_vector_lll,
    decompose_unimodular_fulldim,
)


@st.composite
def cut_boxes(draw):
    """A 3-D box around a lattice point p, cut by three planes through p.

    For independent cut normals p is an integral vertex whose tangent cone
    has normals with entries up to 20, so its dual cones usually exceed
    _LLL_THRESHOLD and take the basis-reduction path of the unimodular
    decomposition.
    """
    p = draw(st.tuples(*[st.integers(-3, 3)] * 3))
    rows, rhs = [], []
    for j in range(3):
        e = tuple(int(i == j) for i in range(3))
        rows += [e, tuple(-x for x in e)]
        rhs += [p[j] + draw(st.integers(1, 4)), -p[j] + draw(st.integers(1, 4))]
    cuts = st.tuples(*[st.integers(-20, 20)] * 3)
    for a in draw(st.lists(cuts, min_size=3, max_size=3)):
        rows.append(a)
        rhs.append(sum(x * c for x, c in zip(a, p)))
    return Polyhedron(tuple(rows), tuple(rhs), 3)


def interval(lo_num, lo_den, hi_num, hi_den):
    return Polyhedron(
        ((Fraction(1),), (Fraction(-1),)),
        (Fraction(hi_num, hi_den), Fraction(-lo_num, lo_den)),
        1,
    )


def as_pair(point):
    """A point of Fractions as the reduced (nums, den) pair of `la.vertices_of`."""
    den = lcm(*(x.denominator for x in point))
    return tuple(int(x * den) for x in point), den


def tangent_cones(p):
    """Vertices of p with the extreme rays of each vertex's tangent cone."""
    rows = p.scaled_int_rows()
    return [
        (vertex, tuple(sorted(la.extreme_rays([rows[i][0] for i in tight], p.n))))
        for vertex, tight in la.vertices_of(rows, p.n)
    ]


class TestVertexCones:
    def test_interval(self):
        p = interval(0, 1, 3, 1)
        cones = tangent_cones(p)
        assert [v for v, _ in cones] == [((0,), 1), ((3,), 1)]
        assert cones[0][1] == ((1,),)
        assert cones[1][1] == ((-1,),)
        # [1/2, 7/3]: the rows are 3x <= 7 and -2x <= -1
        cones = tangent_cones(interval(1, 2, 7, 3))
        assert cones == [(((1,), 2), ((1,),)), (((7,), 3), ((-1,),))]

    def test_triangle(self):
        p = Polyhedron(((-1, 0), (0, -1), (1, 1)), (0, 0, 2), 2)
        cones = tangent_cones(p)
        assert len(cones) == 3
        verts = {v for v, _ in cones}
        assert verts == {((0, 0), 1), ((2, 0), 1), ((0, 2), 1)}

    def test_random_3d_vertices_match_basic_solution_oracle(self):
        rng = random.Random(5)
        for _ in range(5):
            rows, rhs = [], []
            for j in range(3):
                e = [0, 0, 0]
                e[j] = 1
                rows.append(tuple(e))
                rhs.append(rng.randint(2, 10))
                e2 = [0, 0, 0]
                e2[j] = -1
                rows.append(tuple(e2))
                rhs.append(0)
            rows.append(tuple(rng.randint(-10, 10) for _ in range(3)))
            rhs.append(rng.randint(5, 30))
            p = Polyhedron(tuple(rows), tuple(rhs), 3)
            got = {tuple(v) for v, _ in la.vertices_of(p.scaled_int_rows(), 3)}
            # oracle: all feasible basic solutions of 3-subsets
            expect = set()
            for sub in combinations(range(len(rows)), 3):
                sol = la.solve_square([rows[i] for i in sub], [rhs[i] for i in sub])
                if sol is None:
                    continue
                if all(
                    sum(Fraction(c) * x for c, x in zip(row, sol)) <= b
                    for row, b in zip(rows, rhs)
                ):
                    expect.add(as_pair(sol))
            assert got == expect

    def test_unbounded_rejected(self):
        # the half-line x >= 0 has the vertex 0, but polytope_gf refuses it
        p = Polyhedron(((-1,),), (0,), 1)
        assert tangent_cones(p) == [(((0,), 1), ((1,),))]
        assert not la.is_bounded(p.scaled_int_rows(), 1)
        with pytest.raises(UnboundedPolyhedronError):
            polytope_gf(p)

    def test_empty_gives_empty(self):
        p = Polyhedron(((1,), (-1,)), (0, -2), 1)
        assert tangent_cones(p) == []

    def test_point_has_the_zero_tangent_cone(self):
        # the tangent cone of a point is {0}: no rays, in 1-D as in 2-D
        point_1d = Polyhedron(((1,), (-1,)), (2, -2), 1)
        assert tangent_cones(point_1d) == [(((2,), 1), ())]
        point_2d = Polyhedron(((1, 0), (-1, 0), (0, 1), (0, -1)), (2, -2, 1, -1), 2)
        assert tangent_cones(point_2d) == [(((2, 1), 1), ())]

    def test_no_constraints_rejected(self):
        p = Polyhedron((), (), 2)
        assert tangent_cones(p) == []
        assert not la.is_bounded([], 2)
        with pytest.raises(UnboundedPolyhedronError):
            polytope_gf(p)


class TestTriangulateCone:
    def test_square_cone_splits_in_two(self):
        gens = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]
        simplices = triangulate_cone(gens)
        assert len(simplices) == 2
        assert all(la.det_int([list(g) for g in s]) != 0 for s in simplices)

    def test_non_pointed_cone_rejected(self):
        with pytest.raises(ValueError, match="pointed"):
            triangulate_cone([(1, 0), (-1, 0), (0, 1)])


def is_inverse(inv, cols):
    """Whether the rows `inv` times the matrix with columns `cols` is I."""
    d = len(cols)
    return all(
        la.dot(inv[i], cols[j]) == int(i == j) for i in range(d) for j in range(d)
    )


def unimodular_pieces(gens):
    """The (sign, cols) pieces of the cone on `gens`, each checked to have
    |det| 1 and to come with its inverse."""
    out = decompose_unimodular_fulldim(gens, 1)
    for _, cols, inv in out:
        assert abs(la.det_int([list(c) for c in cols])) == 1
        assert is_inverse(inv, cols)
    return [(sign, cols) for sign, cols, _ in out]


def corner_polytope(gens):
    """{x : g . x <= 0 for g in gens, -x_j <= 6}: the tight normals at the
    vertex 0 are `gens`, so its dual tangent cone is the cone on them."""
    n = len(gens[0])
    rows = tuple(gens) + tuple(tuple(-int(i == j) for i in range(n)) for j in range(n))
    return Polyhedron(rows, (0,) * len(gens) + (6,) * n, n)


def corner_count(gens):
    """Lattice points of `corner_polytope(gens)`, the same by GF and by search."""
    p = corner_polytope(gens)
    count = len(enumerate_polytope_points(p))
    assert evaluate_at_one(polytope_gf(p)) == count
    return count


def short_vector_reference(gen_cols, inverse):
    """`_short_vector_lll` as it was written over Fractions: (w, lam)."""
    d = len(gen_cols)
    det, inv = inverse
    basis = [tuple(inv[i][j] for i in range(d)) for j in range(d)]
    best = None
    for beta in la.lll_reduce(basis):
        if not any(beta):
            continue
        m = max(abs(x) for x in beta)
        if m >= det:
            continue
        if best is None or m < best[0]:
            lam = tuple(Fraction(x, det) for x in beta)
            w = tuple(sum(gen_cols[j][i] * lam[j] for j in range(d)) for i in range(d))
            if all(x.denominator == 1 for x in w) and any(x.numerator for x in w):
                best = (m, tuple(int(x) for x in w), lam)
    if best is None:
        return None
    _, w, lam = best
    if all(x <= 0 for x in lam):
        return tuple(-x for x in w), tuple(-x for x in lam)
    return w, lam


def decompose_reference(gen_cols, sign):
    """`decompose_unimodular_fulldim` as it was written before it carried
    the inverse: a fresh `scaled_inverse_int` of every popped cone, the
    unimodular leaves included."""
    d = len(gen_cols)

    out = []
    stack = [(sign, tuple(gen_cols))]
    while stack:
        s, cols = stack.pop()
        inverse = la.scaled_inverse_int(
            [[cols[j][i] for j in range(d)] for i in range(d)]
        )
        det = inverse[0]
        if det == 1:
            out.append((s, cols, inverse[1]))
            continue
        found = _short_vector_lll(cols, inverse) if det > _LLL_THRESHOLD else None
        if found is None:
            found = _parallelepiped_point(cols, inverse)
        w, lam = found
        for i in range(d):
            if lam[i] == 0:
                continue
            child = tuple(w if j == i else cols[j] for j in range(d))
            stack.append((s if lam[i] > 0 else -s, child))
    return out


class TestDecomposeUnimodular:
    def test_only_the_root_cone_is_inverted(self, monkeypatch):
        inverted = []
        real = la.scaled_inverse_int

        def recording(rows):
            inverted.append(tuple(map(tuple, rows)))
            return real(rows)

        def forbidden(rows):
            raise AssertionError("det_int called")

        monkeypatch.setattr(la, "scaled_inverse_int", recording)
        monkeypatch.setattr(la, "det_int", forbidden)
        # det 40 takes the basis-reduction step, its children the
        # parallelepiped enumeration
        gens = ((1, 0, 0), (0, 1, 0), (3, 7, 40))
        out = decompose_unimodular_fulldim(gens, 1)
        assert inverted == [((1, 0, 3), (0, 1, 7), (0, 0, 40))]
        assert len(out) > 1
        assert all(is_inverse(inv, cols) for _, cols, inv in out)

    def test_polarization_inverts_nothing_itself(self, monkeypatch):
        normals = ((-2, -1, 3), (-1, 2, 3), (1, -2, 3), (2, 1, 3))
        simplices = triangulate_cone(list(normals))
        calls = []
        real = la.scaled_inverse_int

        def counting(rows):
            calls.append(rows)
            return real(rows)

        monkeypatch.setattr(la, "scaled_inverse_int", counting)
        terms = _dual_cone_gf_terms.__wrapped__(normals)
        # one root inverse per simplex of the triangulation, none per leaf
        assert len(simplices) > 1 and len(calls) == len(simplices)
        assert len(terms) > len(simplices)
        for _, polar_cols, dual_cols in terms:
            assert all(
                la.dot(g, w) == -int(i == j)
                for i, g in enumerate(polar_cols)
                for j, w in enumerate(dual_cols)
            )

    def test_carried_inverses_match_the_reference(self):
        rng = random.Random(31)
        checked = lll_roots = 0
        while checked < 200:
            d = rng.randint(2, 4)
            cols = tuple(
                tuple(rng.randint(-6, 6) for _ in range(d)) for _ in range(d)
            )
            inverse = la.scaled_inverse_int([[c[i] for c in cols] for i in range(d)])
            if inverse is None or inverse[0] > 48:
                continue
            checked += 1
            lll_roots += inverse[0] > _LLL_THRESHOLD
            sign = rng.choice((1, -1))
            assert decompose_unimodular_fulldim(cols, sign) == decompose_reference(
                cols, sign
            )
        assert lll_roots > 10

    def test_degenerate_root_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            decompose_unimodular_fulldim(((1, 2), (2, 4)), 1)

    def test_short_vector_matches_the_fraction_formula(self):
        rng = random.Random(29)
        checked = found = 0
        while checked < 200:
            d = rng.randint(2, 4)
            cols = [tuple(rng.randint(-9, 9) for _ in range(d)) for _ in range(d)]
            inverse = la.scaled_inverse_int(
                [[c[i] for c in cols] for i in range(d)]
            )
            if inverse is None or inverse[0] <= 32:
                continue
            det = inverse[0]
            got = _short_vector_lll(cols, inverse)
            want = short_vector_reference(cols, inverse)
            checked += 1
            if want is None:
                assert got is None
                continue
            found += 1
            w, beta = got
            assert w == want[0]
            assert tuple(Fraction(x, det) for x in beta) == want[1]
        assert found > 100

    def test_unimodular_identity(self):
        gens = ((1, 0), (0, 1))
        assert decompose_unimodular_fulldim(gens, 1) == [(1, gens, gens)]
        assert decompose_unimodular_fulldim(gens, -1) == [(-1, gens, gens)]
        skew = ((1, 0), (3, 1))
        assert decompose_unimodular_fulldim(skew, 1) == [(1, skew, ((1, -3), (0, 1)))]

    def test_index_two_cone_conserves_counts(self):
        gens = ((1, 0), (1, 2))
        assert len(unimodular_pieces(gens)) == 2
        assert corner_count(gens) == 58

    def test_index_five_cone(self):
        gens = ((1, 0), (1, 5))
        assert len(unimodular_pieces(gens)) == 5
        assert corner_count(gens) == 51

    def test_long_generator_index_two(self):
        # a 500k-point bounding box, but only two lattice classes
        gens = ((1, 0, 10**6), (1, 2, 0), (0, 0, 1))
        assert abs(la.det_int([list(g) for g in gens])) == 2
        w = (1, 1, 500_000)
        assert set(unimodular_pieces(gens)) == {
            (1, ((1, 0, 10**6), w, (0, 0, 1))),
            (1, (w, (1, 2, 0), (0, 0, 1))),
        }
        assert corner_count(gens) == 658


class TestPolytopeGF:
    def test_interval_count(self):
        assert evaluate_at_one(polytope_gf(interval(0, 1, 3, 1))) == 4

    def test_triangle_count(self):
        p = Polyhedron(((-1, 0), (0, -1), (1, 1)), (0, 0, 2), 2)
        assert evaluate_at_one(polytope_gf(p)) == 6

    def test_support_is_indicator(self):
        p = Polyhedron(((-1, 0), (0, -1), (1, 1)), (0, 0, 2), 2)
        f = polytope_gf(p)
        assert support_points(f, (4, 4)) == set(enumerate_polytope_points(p))
        tab = oracle_expand(f, LatticeBox((4, 4)))
        assert tab.is_zero_one()

    def test_index_bound(self):
        for n in (1, 2, 3):
            rows = []
            rhs = []
            for j in range(n):
                e = [0] * n
                e[j] = 1
                rows.append(tuple(e))
                rhs.append(3)
                e2 = [0] * n
                e2[j] = -1
                rows.append(tuple(e2))
                rhs.append(0)
            f = polytope_gf(Polyhedron(tuple(rows), tuple(rhs), n))
            assert gf_index(f) <= n

    def test_random_counts(self):
        rng = random.Random(17)
        for _ in range(20):
            n = rng.choice([1, 2, 2, 3])
            rows, rhs = [], []
            for j in range(n):
                e = [0] * n
                e[j] = 1
                rows.append(tuple(e))
                rhs.append(rng.randint(2, 8))
                e2 = [0] * n
                e2[j] = -1
                rows.append(tuple(e2))
                rhs.append(0)
            for _ in range(rng.randint(1, 2)):
                rows.append(tuple(rng.randint(-20, 20) for _ in range(n)))
                rhs.append(rng.randint(-5, 25))
            p = Polyhedron(tuple(rows), tuple(rhs), n)
            assert evaluate_at_one(polytope_gf(p)) == len(
                enumerate_polytope_points(p)
            )

    def test_integral_vertex_counted_once(self):
        # the short vector of a dual cone can come out in minus the cone;
        # keeping it lost the integral vertex (-37, -733, 106), where five
        # rows are tight
        rows = (
            ((1, 0, 0), -30), ((-1, 0, 0), 37), ((0, 1, 0), -593),
            ((0, -1, 0), 733), ((0, 0, 1), 106), ((0, 0, -1), -84),
            ((20, -1, 0), 0), ((5, -3, -19), 0), ((1, 4, 28), 0),
            ((-20, 1, 0), 7),
        )
        p = Polyhedron(tuple(r for r, _ in rows), tuple(b for _, b in rows), 3)
        assert len(enumerate_polytope_points(p)) == 2
        assert evaluate_at_one(polytope_gf(p)) == 2

    @settings(max_examples=20, deadline=None)
    @given(cut_boxes())
    def test_counts_match_enumeration(self, p):
        assert evaluate_at_one(polytope_gf(p)) == len(enumerate_polytope_points(p))

    def test_unbounded_rejected(self):
        with pytest.raises(UnboundedPolyhedronError):
            polytope_gf(Polyhedron(((1,),), (3,), 1))

    def test_constant_row_empty_set_is_the_zero_gf(self):
        # 0 . x <= -1 holds nowhere: no row bounds x, yet the set is empty
        p = Polyhedron(((0,),), (-1,), 1)
        assert polytope_gf(p) == zero_gf(1)
        assert enumerate_polytope_points(p) == []

    def test_empty_set_with_a_recession_cone_is_the_zero_gf(self):
        # x <= -1 and -x <= 0 hold nowhere, and y is free in both rows: the
        # rows alone are unbounded, but propagation empties x's range
        p = Polyhedron(((1, 0), (-1, 0)), (-1, 0), 2)
        assert enumerate_polytope_points(p) == []
        assert polytope_gf(p) == zero_gf(2)

    def test_single_vertex_fibres(self):
        # three rows through one vertex and nothing else: the fibre is that
        # vertex, with no integer point when it is fractional
        rows = ((-1, -1), (1, -1), (1, 3))
        assert polytope_gf(Polyhedron(rows, (-1, 0, 2), 2)).terms == ()
        f = polytope_gf(Polyhedron(rows, (-2, 0, 4), 2))
        assert [(t.coeff, t.numer, t.denoms) for t in f.terms] == [(1, (1, 1), ())]

    def test_enumeration_searches_the_propagated_box(self):
        # x + y = 3 in [0, 4]^2, found in lexicographic order without
        # reducing the equality first
        rows = ((1, 1), (-1, -1), (-1, 0), (0, -1), (1, 0), (0, 1))
        p = Polyhedron(rows, (3, -3, 0, 0, 4, 4), 2)
        assert enumerate_polytope_points(p) == [(0, 3), (1, 2), (2, 1), (3, 0)]
        assert enumerate_polytope_points(Polyhedron(((1,), (-1,)), (0, -1), 1)) == []
        with pytest.raises(UnboundedPolyhedronError):
            enumerate_polytope_points(Polyhedron(((1,),), (3,), 1))

    def test_enumeration_bounds_the_diamond_by_its_vertices(self):
        # |x| + |y| <= 2: no row has a single variable, so propagation
        # leaves every side open and the vertices give the search box
        diamond = Polyhedron(((1, 1), (1, -1), (-1, 1), (-1, -1)), (2, 2, 2, 2), 2)
        pts = enumerate_polytope_points(diamond)
        assert len(pts) == 13 == evaluate_at_one(polytope_gf(diamond))
        assert pts == sorted(
            (x, y) for x in range(-2, 3) for y in range(-2, 3) if abs(x) + abs(y) <= 2
        )
        # an empty bounded input with open sides has no vertices
        hole = Polyhedron(((2, 2), (-2, -2), (1, -1), (-1, 1)), (1, -1, 5, 5), 2)
        assert enumerate_polytope_points(hole) == []

    def test_enumeration_rejects_the_strip(self):
        # -2 <= x + y <= 2 is bounded in no direction along x - y
        strip = Polyhedron(((1, 1), (-1, -1)), (2, 2), 2)
        with pytest.raises(UnboundedPolyhedronError):
            enumerate_polytope_points(strip)

    def test_zero_dimensional_polyhedron(self):
        # R^0 holds the single point (): a row 0 <= b keeps it when b >= 0
        for rows, rhs, want in (
            (((),), (1,), [()]),
            ((), (), [()]),
            (((),), (-1,), []),
        ):
            p = Polyhedron(rows, rhs, 0)
            gf = polytope_gf(p)
            assert gf.terms == ((GFTerm(1, ()),) if want else ())
            assert enumerate_polytope_points(p) == want

    def test_scaled_int_rows_clear_each_rows_denominators(self):
        p = Polyhedron(((Fraction(1, 2), Fraction(-2, 3)), (3, 0)), (Fraction(5, 4), 7), 2)
        assert p.scaled_int_rows() == [((6, -8), 15), ((3, 0), 7)]


class TestSemigroupGF:
    def test_single_generator(self):
        f = semigroup_gf((1,))
        tab = oracle_expand(f, LatticeBox((5,)))
        assert tab.support() == {(i,) for i in range(5)}

    def test_two_generators(self):
        f = semigroup_gf((2, 3))
        tab = oracle_expand(f, LatticeBox((10,)))
        assert tab[(7,)] == 1
        assert tab[(1,)] == 0

    def test_membership(self):
        f = semigroup_gf((3, 5, 7))
        tab = oracle_expand(f, LatticeBox((12,)))
        assert tab[(11,)] != 0  # 3 + 3 + 5

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            semigroup_gf((0, 2))


class TestPolyhedronFormat:
    def test_round_trip(self):
        p = Polyhedron(
            ((Fraction(1, 2), Fraction(-3)), (Fraction(0), Fraction(1))),
            (Fraction(7, 3), Fraction(4)),
            2,
        )
        text = format_polyhedron(p)
        q = parse_polyhedron(text)
        assert q == p
        assert format_polyhedron(q) == text

    def test_accepts_plain_integers(self):
        q = parse_polyhedron("poly n=1\n1 <= 3\n-1 <= 0\n")
        assert q.n == 1
        assert evaluate_at_one(polytope_gf(q)) == 4
