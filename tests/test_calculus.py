"""Operation calculus against the expansion oracle."""

import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shortgf import (
    GFTerm,
    InfiniteSupportError,
    LatticeBox,
    Polyhedron,
    ShortGF,
    TauMap,
    ZeroImageError,
    boolean_combine,
    box_range_gf,
    canonicalize,
    choose_tau,
    coefficient,
    complement_in_box,
    compress,
    decompress,
    evaluate_at_one,
    from_point_set,
    gf_index,
    hadamard,
    minkowski_oracle,
    monomial,
    multiply,
    norm,
    oracle_expand,
    oracle_project,
    polytope_gf,
    proj_member,
    semigroup_gf,
    specialize_vars,
    substitute_monomials,
    support_points,
    tau_hadamard,
    zero_gf,
)
from shortgf.errors import SpecializationError


def interval_gf(lo, hi):
    """GF of {lo..hi} as t^lo (1 - t^(hi-lo+1))/(1 - t)."""
    return ShortGF(
        1,
        (
            GFTerm(1, (lo,), ((1,),)),
            GFTerm(-1, (hi + 1,), ((1,),)),
        ),
    )


class TestEvaluateAtOne:
    def test_certificate_comb(self):
        r = 3
        step = 1 << r
        f = ShortGF(
            1,
            (
                GFTerm(1, (5,), ((step,),)),
                GFTerm(-1, (5 + step * step,), ((step,),)),
            ),
        )
        assert evaluate_at_one(f) == 8

    def test_interval(self):
        p = Polyhedron(((1,), (-1,)), (3, 0), 1)
        assert evaluate_at_one(polytope_gf(p)) == 4

    def test_random_polytopes(self):
        from shortgf import enumerate_polytope_points

        rng = random.Random(23)
        for _ in range(10):
            n = rng.choice([1, 2])
            rows, rhs = [], []
            for j in range(n):
                e = [0] * n
                e[j] = 1
                rows.append(tuple(e))
                rhs.append(rng.randint(1, 9))
                e2 = [0] * n
                e2[j] = -1
                rows.append(tuple(e2))
                rhs.append(0)
            rows.append(tuple(rng.randint(-5, 5) for _ in range(n)))
            rhs.append(rng.randint(0, 12))
            p = Polyhedron(tuple(rows), tuple(rhs), n)
            assert evaluate_at_one(polytope_gf(p)) == len(
                enumerate_polytope_points(p)
            )

    def test_infinite_support_raises(self):
        # 1/(1-t) has a pole at t = 1; its eps^-1 coefficient does not vanish
        with pytest.raises(InfiniteSupportError):
            evaluate_at_one(ShortGF(1, (GFTerm(1, (0,), ((1,),)),)))

    def test_cancelling_poles_pass(self):
        # 1/(1-t) - t^3/(1-t) = 1 + t + t^2: the poles of the terms cancel
        f = ShortGF(
            1, (GFTerm(1, (0,), ((1,),)), GFTerm(-1, (3,), ((1,),)))
        )
        assert evaluate_at_one(f) == 3


class TestSubstituteMonomials:
    def test_packing_monomial(self):
        f = ShortGF(2, (GFTerm(1, (1, 1)),))
        g = substitute_monomials(f, [(1, 4)], 1)
        tab = oracle_expand(canonicalize(g), LatticeBox((8,)))
        assert tab.support_with_values() == {(5,): 1}

    def test_collapse_to_power_series(self):
        f = ShortGF(2, (GFTerm(1, (0, 0), ((1, 0), (0, 1))),))
        g = substitute_monomials(f, [(1, 1)], 1)
        tab = oracle_expand(canonicalize(g), LatticeBox((8,)))
        assert tab[(3,)] == 4  # pairs with x1 + x2 = 3

    def test_zero_image_rules(self):
        f = ShortGF(2, (GFTerm(1, (0, 0), ((1, -4),)),))
        substitute_monomials(f, [(1, 4)], 1)  # image 1 - 16 = -15, fine
        g = ShortGF(2, (GFTerm(1, (0, 0), ((4, -1),)),))
        with pytest.raises(ZeroImageError):
            substitute_monomials(g, [(1, 4)], 1)


@st.composite
def small_polytopes(draw, min_dim=1):
    """A min_dim..3-D box [lo, hi] in the nonnegative orthant, maybe cut by
    sum(x) <= c, with its lattice points by brute force."""
    n = draw(st.integers(min_dim, 3))
    lows = [draw(st.integers(0, 2)) for _ in range(n)]
    highs = [lo + draw(st.integers(0, 3)) for lo in lows]
    rows, rhs = [], []
    for j in range(n):
        unit = tuple(1 if i == j else 0 for i in range(n))
        rows += [unit, tuple(-u for u in unit)]
        rhs += [highs[j], -lows[j]]
    cut = draw(st.none() | st.integers(0, sum(highs)))
    if cut is not None:
        rows.append((1,) * n)
        rhs.append(cut)
    pts = [
        p
        for p in product(*(range(lo, hi + 1) for lo, hi in zip(lows, highs)))
        if cut is None or sum(p) <= cut
    ]
    return Polyhedron(tuple(rows), tuple(rhs), n), highs, pts


class TestLambdaDraw:
    """Results that depend on the drawn lambda only through exact limits."""

    SEEDS = (0, 1, 2)

    @settings(max_examples=25, deadline=None)
    @given(small_polytopes(), st.randoms(use_true_random=False))
    def test_evaluate_at_one_counts_for_every_seed(self, poly, rng):
        p, _, pts = poly
        subset = [q for q in pts if rng.random() < 0.5]
        for seed in self.SEEDS:
            assert evaluate_at_one(from_point_set(subset, p.n), seed=seed) == len(subset)
            assert evaluate_at_one(polytope_gf(p), seed=seed) == len(pts)

    @settings(max_examples=60, deadline=None)
    @given(small_polytopes(min_dim=2), st.data())
    def test_specialize_vars_is_projection_with_multiplicity(self, poly, data):
        p, highs, pts = poly
        keep = data.draw(
            st.lists(st.integers(0, p.n - 1), min_size=1, max_size=p.n - 1, unique=True)
            .map(sorted)
        )
        want = Counter(tuple(q[i] for i in keep) for q in pts)
        box = LatticeBox(tuple(highs[i] + 1 for i in keep))
        f = polytope_gf(p)
        for seed in self.SEEDS:
            g = specialize_vars(f, keep, seed=seed)
            assert oracle_expand(canonicalize(g), box).support_with_values() == want


class TestTauHadamard:
    def test_plain_hadamard_intervals(self):
        f = interval_gf(0, 5)
        g = ShortGF(1, (GFTerm(1, (0,), ((2,),)), GFTerm(-1, (6,), ((2,),))))
        h = hadamard(f, g, box=(8,))
        assert support_points(h, (8,)) == {(0,), (2,), (4,)}
        assert evaluate_at_one(h) == 3

    def test_monomial_extracts_coefficient(self):
        f = interval_gf(0, 9)
        h = hadamard(f, monomial(1, (4,)), box=(16,))
        assert support_points(h, (16,)) == {(4,)}

    def test_functional_product_random(self):
        rng = random.Random(9)
        for _ in range(10):
            pts = sorted(
                {(rng.randrange(8), rng.randrange(8)) for _ in range(6)}
            )
            f = from_point_set(pts, 2)
            tpts = sorted({(rng.randrange(16),) for _ in range(4)})
            g = from_point_set(tpts, 1)
            tau = [(1, 1)]  # functional x1 + x2
            h = tau_hadamard(f, g, tau, box=(8, 8))
            want = {p for p in pts if (p[0] + p[1],) in set(tpts)}
            assert support_points(h, (8, 8)) == want

    def test_index_bound_single_terms(self):
        f = ShortGF(1, (GFTerm(1, (0,), ((1,), (2,))),))  # p = 2
        g = ShortGF(1, (GFTerm(1, (0,), ((3,),)),))  # q = 1
        h = hadamard(f, g, box=(16,), merge=False)
        assert gf_index(h) <= 3

    def test_power_series_multiplicities(self):
        sg = semigroup_gf((2, 3))
        h = hadamard(sg, interval_gf(0, 9), box=(10,))
        tab = oracle_expand(canonicalize(h), LatticeBox((10,)))
        for k in range(10):
            want = sum(
                1
                for a in range(6)
                for b in range(4)
                if 2 * a + 3 * b == k
            )
            assert tab[(k,)] == want


class TestBooleanCombine:
    def test_union_evens_and_interval(self):
        f = interval_gf(0, 5)
        g = ShortGF(1, (GFTerm(1, (0,), ((2,),)), GFTerm(-1, (8,), ((2,),))))
        u = boolean_combine(f, g, (8,), "union")
        assert support_points(u, (8,)) == {(i,) for i in (0, 1, 2, 3, 4, 5, 6)}
        assert evaluate_at_one(u) == 7

    def test_self_difference_empty(self):
        f = interval_gf(2, 6)
        d = boolean_combine(f, f, (8,), "minus")
        assert support_points(d, (8,)) == set()

    def test_random_set_algebra(self):
        rng = random.Random(31)
        box = LatticeBox((16,))
        for _ in range(10):
            sa = {(rng.randrange(16),) for _ in range(rng.randint(0, 8))}
            sb = {(rng.randrange(16),) for _ in range(rng.randint(0, 8))}
            f, g = from_point_set(sorted(sa), 1), from_point_set(sorted(sb), 1)
            assert support_points(
                boolean_combine(f, g, box, "intersect"), box
            ) == sa & sb
            assert support_points(
                boolean_combine(f, g, box, "union"), box
            ) == sa | sb
            assert support_points(
                boolean_combine(f, g, box, "minus"), box
            ) == sa - sb

    def test_rejects_non_01(self):
        f = ShortGF(1, (GFTerm(2, (1,)),))
        with pytest.raises(ValueError):
            boolean_combine(f, f, (4,), "union")


class TestComplement:
    def test_small(self):
        f = from_point_set([(1,), (2,)], 1)
        c = complement_in_box(f, (4,))
        assert support_points(c, (4,)) == {(0,), (3,)}

    def test_involution(self):
        f = from_point_set([(0,), (3,), (5,)], 1)
        cc = complement_in_box(complement_in_box(f, (8,)), (8,))
        assert support_points(cc, (8,)) == {(0,), (3,), (5,)}

    def test_squares_complement_count(self):
        squares = from_point_set([(k * k,) for k in range(8)], 1)
        c = complement_in_box(squares, (64,))
        assert evaluate_at_one(c) == 56


class TestCoefficient:
    def test_interval(self):
        f = interval_gf(0, 3)
        assert coefficient(f, (2,)) == 1
        assert coefficient(f, (5,)) == 0

    def test_semigroup(self):
        assert coefficient(semigroup_gf((2, 3)), (7,)) == 1

    def test_matches_oracle(self):
        rng = random.Random(41)
        f = polytope_gf(
            Polyhedron(((-1, 0), (0, -1), (1, 1)), (0, 0, 5), 2)
        )
        tab = oracle_expand(f, LatticeBox((8, 8)))
        for _ in range(25):
            pt = (rng.randrange(8), rng.randrange(8))
            assert coefficient(f, pt) == tab[pt]


class TestNorm:
    def test_two_points(self):
        assert norm(from_point_set([(3,), (7,)], 1), (16,)) == (7,)

    def test_interval_13(self):
        p = Polyhedron(((1,), (-1,)), (13, 0), 1)
        assert norm(polytope_gf(p), (16,)) == (13,)

    def test_random_matches_oracle(self):
        rng = random.Random(43)
        for _ in range(5):
            pts = {
                (rng.randrange(12), rng.randrange(12))
                for _ in range(rng.randint(1, 6))
            }
            f = from_point_set(sorted(pts), 2)
            got = norm(f, (16, 16))
            assert got == tuple(max(p[j] for p in pts) for j in range(2))

    def test_empty(self):
        assert norm(zero_gf(1), (8,)) is None


class TestProjMember:
    def test_triangle(self):
        f = polytope_gf(
            Polyhedron(((-1, 0), (0, -1), (1, 1)), (0, 0, 3), 2)
        )
        assert proj_member(f, (2,), keep=[0]) is True
        assert proj_member(f, (4,), keep=[0]) is False

    def test_random_agreement(self):
        rng = random.Random(47)
        pts = sorted({(rng.randrange(16), rng.randrange(8)) for _ in range(10)})
        f = from_point_set(pts, 2)
        xs = {p[0] for p in pts}
        for x in range(16):
            assert proj_member(f, (x,), keep=[0]) == (x in xs)


class TestOracleProject:
    def test_project(self):
        f = from_point_set([(0, 0), (1, 5)], 2)
        g = oracle_project(f, [0], (2, 8))
        assert support_points(g, (2,)) == {(0,), (1,)}

    def test_anti(self):
        f = from_point_set([(1, 0), (2, 3)], 2)
        g = oracle_project(f, [0], (4, 4), mode="anti")
        assert support_points(g, (4,)) == {(0,), (3,)}

    def test_specialize_unique(self):
        f = from_point_set([(0, 1), (2, 5)], 2)
        g = oracle_project(f, [0], (4, 8), mode="specialize")
        assert support_points(g, (4,)) == {(0,), (2,)}

    def test_specialize_violation(self):
        f = from_point_set([(0, 1), (0, 2)], 2)
        with pytest.raises(SpecializationError):
            oracle_project(f, [0], (4, 4), mode="specialize")


class TestMinkowski:
    def test_small_sum(self):
        f = from_point_set([(0,), (1,)], 1)
        g = from_point_set([(0,), (2,)], 1)
        h = minkowski_oracle(f, g, (4,))
        assert support_points(h, (4,)) == {(0,), (1,), (2,), (3,)}

    def test_identity_element(self):
        f = from_point_set([(2,), (5,)], 1)
        h = minkowski_oracle(f, from_point_set([(0,)], 1), (8,))
        assert support_points(h, (8,)) == {(2,), (5,)}

    def test_semigroup_example_truncated(self):
        # sums of the truncated generator streams match the semigroup on [0,20)
        f2 = from_point_set([(2 * a,) for a in range(10)], 1)
        f3 = from_point_set([(3 * b,) for b in range(7)], 1)
        h = minkowski_oracle(f2, f3, (20,), out_box=(40,))
        sg = semigroup_gf((2, 3))
        got = {p for p in support_points(h, (40,)) if p[0] < 20}
        assert got == support_points(sg, (20,))

    def test_overflow_detected(self):
        f = from_point_set([(3,)], 1)
        with pytest.raises(ValueError):
            minkowski_oracle(f, f, (4,), out_box=(4,))


class TestCompression:
    def test_pack_points(self):
        g = from_point_set([(0, 0), (1, 2), (3, 1)], 2)
        tau = TauMap(4, (2,))
        f = compress(g, tau)
        assert support_points(f, (16,)) == {(0,), (9,), (7,)}

    def test_count_invariant(self):
        g = from_point_set([(0, 0), (1, 2), (3, 1)], 2)
        tau = TauMap(4, (2,))
        assert evaluate_at_one(compress(g, tau)) == evaluate_at_one(g)

    def test_unpack_monomial(self):
        f = from_point_set([(9,)], 1)
        tau = TauMap(4, (2,))
        g = decompress(f, tau)
        assert support_points(g, (4, 4)) == {(1, 2)}

    def test_round_trip_random(self):
        rng = random.Random(53)
        for _ in range(8):
            pts = sorted(
                {(rng.randrange(8), rng.randrange(8)) for _ in range(5)}
            )
            g = from_point_set(pts, 2)
            tau = choose_tau(g, (2,), box=(8, 8))
            back = decompress(compress(g, tau), tau)
            assert support_points(back, (8, 8)) == set(pts)

    def test_round_trip_polytope_with_integral_vertex(self):
        # the dual cone at the integral vertex (0, 1) needs the basis-reduced
        # short vector; a w in minus the cone once added the point (0, 7)
        p = Polyhedron(
            ((1, 0), (-1, 0), (0, 1), (0, -1), (6, -7), (4, -4), (1, 0), (0, 1)),
            (3, 0, 3, 0, -2, 5, 7, 7),
            2,
        )
        g = polytope_gf(p)
        tau = choose_tau(g, (2,), box=(8, 8))
        back = decompress(compress(g, tau), tau)
        want = {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)}
        assert support_points(back, (tau.N, tau.N)) == want

    def test_zero_gf(self):
        tau = TauMap(8, (2,))
        assert decompress(zero_gf(1), tau).terms == ()

    def test_decompress_index_bound(self):
        f = from_point_set([(9,)], 1)
        tau = TauMap(4, (2,))
        g = decompress(f, tau, merge=False)
        assert gf_index(g) <= 2 + 0 + 2  # n + s with slack for the box GF


class TestMultiply:
    def test_dense_product(self):
        f = from_point_set([(0,), (1,)], 1)
        g = multiply(f, f)
        tab = oracle_expand(g, LatticeBox((4,)))
        assert tab.support_with_values() == {(0,): 1, (1,): 2, (2,): 1}
