"""Operation calculus against the expansion oracle."""

import hashlib
import importlib.util
import os
import random
from collections import Counter
from fractions import Fraction
from itertools import product
from operator import mul
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import shortgf
from shortgf import (
    GFTerm,
    InfiniteSupportError,
    LatticeBox,
    Polyhedron,
    ResourceLimitError,
    ShortGF,
    TauMap,
    UnboundedPolyhedronError,
    ZeroImageError,
    boolean_combine,
    box_range_gf,
    canonicalize,
    choose_tau,
    coefficient,
    complement_in_box,
    compress,
    concat,
    decompress,
    direction_for,
    evaluate_at_one,
    from_point_set,
    gf_index,
    hadamard,
    minkowski_oracle,
    monomial,
    multiply,
    norm,
    normalized,
    oracle_expand,
    oracle_project,
    polytope_gf,
    prime_pi,
    progression_gf,
    proj_member,
    scale,
    segment_set,
    semigroup_gf,
    specialize_vars,
    substitute_monomials,
    support_points,
    tau_hadamard,
    zero_gf,
)
from shortgf._subst import substitute
from shortgf.errors import SpecializationError
from shortgf.calculus import _pair_terms, _polytope_pair_terms, _separable_terms
from shortgf.gfcore import format_gf, term_from_positive, term_positive_form


def collected_triples():
    """Patch `calculus.canonical_sum` to record, per call, the raw triples
    handed to it; `tau_hadamard` hands over one (c, a, bs) per pair term
    and per monomial run, unmerged and unoriented."""
    calls = []
    inner = shortgf.calculus.canonical_sum

    def record(nvars, triples, *rest):
        calls.append(list(triples))
        return inner(nvars, triples, *rest)

    return calls, mock.patch.object(shortgf.calculus, "canonical_sum", record)


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
        g = ShortGF(2, (GFTerm(1, (0, 0)), GFTerm(1, (0, 0), ((4, -1),))))
        with pytest.raises(ZeroImageError) as err:
            substitute_monomials(g, [(1, 4)], 1)
        # the error names the canonical denominator: (4, -1) pairs positively
        # with the default direction (2, 3), so the term carries (-4, 1)
        assert (err.value.term_index, err.value.vector) == (1, (-4, 1))

    def test_map_of_the_wrong_shape_raises(self):
        f = from_point_set([(0, 0, 1), (0, 0, 2), (1, 0, 1)], 3)
        with pytest.raises(ValueError, match="2 rows of 3 entries"):
            substitute_monomials(f, [(1, 0), (0, 1)], 2)
        with pytest.raises(ValueError, match="1 rows of 3 entries"):
            substitute_monomials(f, [(1, 0, 0), (0, 1, 0)], 1)
        with pytest.raises(ValueError, match="shift must have 1 entries"):
            substitute(f, [(1, 1, 1)], 1, shift=(0, 0))
        assert substitute(f, [(1, 1, 1)], 1, shift=(2,)).terms


@st.composite
def raw_gfs(draw):
    """A 1-3-D GF of 1-4 terms with numerators in [-3, 3] and 0-2 nonzero
    denominator vectors in [-2, 2]^n, not canonicalized."""
    n = draw(st.integers(1, 3))
    coord = st.integers(-3, 3)
    vec = st.tuples(*[st.integers(-2, 2)] * n).filter(any)
    terms = [
        GFTerm(
            Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3))),
            tuple(draw(coord) for _ in range(n)),
            tuple(draw(st.lists(vec, max_size=2))),
        )
        for _ in range(draw(st.integers(1, 4)))
    ]
    return ShortGF(n, tuple(terms))


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
    """Results that depend on the moment-curve lambda only through exact limits."""

    @settings(max_examples=25, deadline=None)
    @given(small_polytopes(), st.randoms(use_true_random=False))
    def test_evaluate_at_one_counts(self, poly, rng):
        p, _, pts = poly
        subset = [q for q in pts if rng.random() < 0.5]
        assert evaluate_at_one(from_point_set(subset, p.n)) == len(subset)
        assert evaluate_at_one(polytope_gf(p)) == len(pts)

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
        g = specialize_vars(polytope_gf(p), keep)
        assert oracle_expand(canonicalize(g), box).support_with_values() == want


@st.composite
def single_term_pairs(draw):
    """(f, g, tau, box): one term each, with 0-2 denominator vectors in
    [-2, 2]^n, under the identity or a random 1-2-row functional with
    entries in [-2, 2].  g's numerator is within 1 of the image of f's, so
    that most pairs meet."""
    n = draw(st.integers(1, 2))
    if draw(st.booleans()):
        tau = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    else:
        row = st.tuples(*[st.integers(-2, 2)] * n)
        tau = tuple(draw(st.lists(row, min_size=1, max_size=2)))

    def single(numer):
        vec = st.tuples(*[st.integers(-2, 2)] * len(numer)).filter(any)
        term = GFTerm(
            draw(st.sampled_from((1, -1, 2, Fraction(1, 3)))),
            numer,
            tuple(draw(st.lists(vec, max_size=2))),
        )
        return ShortGF(len(numer), (term,))

    side = 6
    a = tuple(draw(st.integers(0, side - 1)) for _ in range(n))
    image = [sum(map(mul, r, a)) + draw(st.integers(-1, 1)) for r in tau]
    return single(a), single(tuple(image)), tau, (side,) * n


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

    def test_monomial_pairs_carry_no_box_rows(self):
        # under the identity a monomial g-term bounds its pair's system, so
        # the box does not cut the f-term there
        f = interval_gf(0, 30)
        h = hadamard(f, from_point_set([(3,), (20,)], 1), box=(16,))
        assert support_points(h, (32,)) == {(3,), (20,)}

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

    @settings(max_examples=60, deadline=None)
    @given(single_term_pairs())
    @example(
        (
            ShortGF(1, (GFTerm(1, (0,), ((1,), (2,))),)),  # p = 2
            ShortGF(1, (GFTerm(1, (0,), ((3,),)),)),  # q = 1
            ((1,),),
            (16,),
        )
    )
    def test_index_bound_single_terms(self, pair):
        f, g, tau, box = pair
        p, q = gf_index(f), gf_index(g)
        # the bound is per term pair: read the pair terms unmerged
        calls, patch = collected_triples()
        with patch:
            h = tau_hadamard(f, g, tau, box=box)
        (raw,) = calls
        assert max((len(bs) for _, _, bs in raw), default=0) <= p + q
        assert gf_index(h) <= p + q

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

    def test_monomial_pair_terms_need_the_pair_to_meet(self):
        # t^7 against t^49 under the identity, and against t^48 under
        # tau = 7x, give no term; against t^49 under tau = 7x it is t^7
        ident, seven = ((1,),), ((7,),)
        args = (Fraction(1), (7,), (), (7,), (49,), (), ident, True)
        assert _pair_terms(*args, False, None, 1) == ()
        args = (Fraction(1), (7,), (), (49,), (48,), (), seven, False)
        assert _pair_terms(*args, False, None, 1) == ()
        args = (Fraction(2), (7,), (), (49,), (49,), (), seven, False)
        assert _pair_terms(*args, False, None, 1) == (GFTerm(2, (7,)),)

    def test_two_series_need_a_box(self):
        # neither term is a monomial, so the pair's polytope needs box rows
        f = ShortGF(1, (GFTerm(1, (0,), ((1,),)),))
        g = ShortGF(1, (GFTerm(1, (0,), ((2,),)),))
        with pytest.raises(UnboundedPolyhedronError):
            hadamard(f, g)

    def test_box_of_the_wrong_arity_raises(self):
        # zipped against a 1-D box the pairs' box rows would miss a side,
        # and the 6-point intersection would come out as the zero GF
        f, g = box_range_gf([0, 0], [2, 3]), box_range_gf([1, 1], [4, 4])
        assert evaluate_at_one(hadamard(f, g, box=(8, 8))) == 6
        for sides in ((8,), (8, 8, 8)):
            with pytest.raises(ValueError, match="box arity does not match nvars"):
                hadamard(f, g, box=sides)

    def test_functional_of_the_wrong_shape_raises(self):
        f = from_point_set([(1, 1), (2, 5)], 2)
        # a 1 x 1 functional would be read as x_0
        with pytest.raises(ValueError, match="1 rows of 2 entries"):
            tau_hadamard(f, box_range_gf([0], [2]), [(1,)], box=(8, 8))
        # a third row against a 2-D g would be dropped
        g = box_range_gf([0, 0], [7, 7])
        rows = [(1, 0), (0, 1), (1, 1)]
        with pytest.raises(ValueError, match="2 rows of 2 entries"):
            tau_hadamard(f, g, rows, box=(8, 8))
        with pytest.raises(ValueError, match="2 rows of 2 entries"):
            tau_hadamard(f, g, rows[:1], box=(8, 8))


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

    def test_rejects_unknown_mode(self):
        f = from_point_set([(1,)], 1)
        with pytest.raises(ValueError, match="unknown mode"):
            boolean_combine(f, f, (4,), "xor")
        for alias in ("&", "|", "\\"):
            with pytest.raises(ValueError, match="unknown mode"):
                boolean_combine(f, f, (4,), alias)

    def test_mode_is_checked_before_any_work(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("work done for an unknown mode")

        monkeypatch.setattr(shortgf.calculus, "hadamard", fail)
        monkeypatch.setattr(shortgf.calculus, "oracle_expand", fail)
        f = from_point_set([(1,)], 1)
        with pytest.raises(ValueError, match="unknown mode"):
            boolean_combine(f, f, (4,), "xor")


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


class TestBoxRange:
    def test_empty_side_is_zero_series(self):
        f = box_range_gf([3], [2])
        assert oracle_expand(f, LatticeBox((8,))).support_with_values() == {}
        assert evaluate_at_one(f) == 0

    def test_inverted_side_raises(self):
        with pytest.raises(ValueError, match="nonnegative"):
            box_range_gf([3], [1])

    def test_lists_of_different_lengths_raise(self):
        # zip would cut the highs down to the one low: the interval [0, 3]
        for lows, highs in (([0], [3, 5]), ([0, 0], [3])):
            with pytest.raises(ValueError, match="one high per low"):
                box_range_gf(lows, highs)


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

    def test_coordinates_out_of_range_raise(self):
        f = box_range_gf([0, 0, 0], [1, 2, 3])
        with pytest.raises(ValueError, match="distinct coordinates"):
            specialize_vars(f, [5])
        with pytest.raises(ValueError, match="distinct coordinates"):
            proj_member(f, (0,), keep=[7])
        with pytest.raises(ValueError, match="distinct coordinates"):
            specialize_vars(f, [1, 1])


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

    def test_anti_sub_box_over_limit(self):
        f = from_point_set([(1, 0)], 2)
        assert oracle_project(f, [0, 1], (4, 4), mode="anti", limit=16).terms
        with pytest.raises(ResourceLimitError):
            oracle_project(f, [0, 1], (4, 4), mode="anti", limit=15)

    @pytest.mark.parametrize("keep", [[-1], [5], [0, 0]])
    def test_bad_coordinates_raise(self, keep, monkeypatch):
        f = box_range_gf([0, 0, 0], [1, 2, 3])
        pts = [(0, 1, 2), (1, 0, 3)]
        with pytest.raises(ValueError, match="distinct coordinates"):
            shortgf.calculus._project_points(pts, keep, (4, 4, 4), "project")
        # checked before the support is expanded
        monkeypatch.setattr(shortgf.calculus, "support_points", None)
        with pytest.raises(ValueError, match="distinct coordinates"):
            oracle_project(f, keep, (4, 4, 4))

    def test_unknown_mode_raises(self, monkeypatch):
        f = box_range_gf([0, 0], [1, 2])
        # checked before the support is expanded
        monkeypatch.setattr(shortgf.calculus, "support_points", None)
        with pytest.raises(ValueError, match="unknown mode"):
            oracle_project(f, [0], (4, 4), mode="antiproject")


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

    def test_arities_must_match(self):
        g2 = box_range_gf([0, 0], [1, 1])
        g1 = box_range_gf([0], [1])
        with pytest.raises(ValueError, match="variable count"):
            minkowski_oracle(g2, g2, (4, 4), out_box=(3,))
        with pytest.raises(ValueError, match="variable count"):
            minkowski_oracle(g2, g1, (4, 4))
        h = minkowski_oracle(g2, g2, (4, 4), out_box=(3, 3))
        assert support_points(h, (3, 3)) == set(product(range(3), repeat=2))


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

    def test_apply_needs_one_entry_per_variable(self):
        tau = TauMap(4, (1, 2))
        assert tau.apply((1, 2, 3)) == (1, 14)
        # la.dot zips a row with the point, so a short or long point would
        # be packed from the wrong coordinates
        for point in ((1, 2), (1, 2, 3, 4)):
            with pytest.raises(ValueError, match="3 entries"):
                tau.apply(point)

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

    @settings(max_examples=60, deadline=None)
    @given(raw_gfs(), st.data())
    def test_compress_keeps_count_and_index(self, f, data):
        # without a collapse each term maps to one term, and merging only
        # removes terms
        n = f.nvars
        grouping = data.draw(st.sampled_from([(n,), (1,) * n]))
        tau = choose_tau(f, grouping)
        packed = compress(f, tau)
        assert len(packed.terms) <= len(f.terms)
        assert gf_index(packed) <= gf_index(f)

    def test_decompress_index_bound(self):
        f = from_point_set([(9,)], 1)
        tau = TauMap(4, (2,))
        calls, patch = collected_triples()
        with patch:
            g = decompress(f, tau)
        (raw,) = calls
        # n + s with slack for the box GF, per unmerged pair term
        assert max((len(bs) for _, _, bs in raw), default=0) <= 2 + 0 + 2
        assert gf_index(g) <= 2 + 0 + 2


class TestMultiply:
    def test_dense_product(self):
        f = from_point_set([(0,), (1,)], 1)
        g = multiply(f, f)
        tab = oracle_expand(g, LatticeBox((4,)))
        assert tab.support_with_values() == {(0,): 1, (1,): 2, (2,): 1}


# ---------------------------------------------------------------------------
# Hadamard-based operations on the four operand kinds of the calculus
# benchmark, against the expansion oracle and set algebra


KINDS = ("points", "slab", "progression", "polytope")
SIDES = {1: 24, 2: 8}


def _table(f, box):
    return oracle_expand(canonicalize(f), LatticeBox(tuple(box))).support_with_values()


def _indicator(pts):
    return {p: 1 for p in pts}


def _operand(kind, n, side, draw):
    """A 0/1 GF of the given kind inside [0, side)^n and its point set."""
    cells = list(product(range(side), repeat=n))
    if kind == "points":
        pts = draw(st.sets(st.sampled_from(cells), max_size=5))
        return from_point_set(sorted(pts), n), pts
    if kind == "slab":
        lows = [draw(st.integers(0, side - 1)) for _ in range(n)]
        highs = [draw(st.integers(lo, side - 1)) for lo in lows]
        pts = set(product(*(range(lo, hi + 1) for lo, hi in zip(lows, highs))))
        return box_range_gf(lows, highs), pts
    if kind == "progression":
        start = [draw(st.integers(0, side // 2)) for _ in range(n)]
        step = [draw(st.integers(1, 3)) for _ in range(n)]
        count = [
            draw(st.integers(1, (side - 1 - s) // d + 1)) for s, d in zip(start, step)
        ]
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
            terms.append(GFTerm((-1) ** len(ends), numer, denoms))
        pts = set(
            product(
                *(range(s, s + d * c, d) for s, d, c in zip(start, step, count))
            )
        )
        return canonicalize(ShortGF(n, tuple(terms))), pts
    # a polytope in the nonnegative orthant, clipped to the box
    rows, rhs = [], []
    for j in range(n):
        unit = tuple(1 if i == j else 0 for i in range(n))
        rows += [unit, tuple(-x for x in unit)]
        rhs += [side - 1, 0]
    for _ in range(draw(st.integers(1, 2))):
        rows.append(tuple(draw(st.integers(-4, 4)) for _ in range(n)))
        rhs.append(draw(st.integers(-4, 3 * side)))
    pts = {
        x
        for x in cells
        if all(sum(a * v for a, v in zip(row, x)) <= b for row, b in zip(rows, rhs))
    }
    return polytope_gf(Polyhedron(tuple(rows), tuple(rhs), n)), pts


@st.composite
def operand_pairs(draw, count=2):
    """(n, side, [(gf, points), ...]): operands of any kinds in one 1-2-D box."""
    n = draw(st.integers(1, 2))
    side = SIDES[n]
    ops = [
        _operand(draw(st.sampled_from(KINDS)), n, side, draw) for _ in range(count)
    ]
    return n, side, ops


class TestHadamardOracle:
    @settings(max_examples=60, deadline=None)
    @given(operand_pairs())
    def test_hadamard_is_coefficientwise(self, case):
        n, side, ((f, pf), (g, pg)) = case
        box = (side,) * n
        assert _table(hadamard(f, g, box=box), box) == _indicator(pf & pg)

    @settings(max_examples=30, deadline=None)
    @given(operand_pairs())
    def test_boolean_combine_is_set_algebra(self, case):
        n, side, ((f, pf), (g, pg)) = case
        box = LatticeBox((side,) * n)
        for mode, want in (
            ("intersect", pf & pg),
            ("union", pf | pg),
            ("minus", pf - pg),
        ):
            got = boolean_combine(f, g, box, mode, check=False)
            assert _table(got, box.sides) == _indicator(want), mode

    @settings(max_examples=60, deadline=None)
    @given(operand_pairs(count=1), st.data())
    def test_coefficient_inside_and_outside_the_box(self, case, data):
        # points off the support and outside the box: these monomial pairs
        # carry no box rows
        n, side, ((f, pf),) = case
        coord = st.integers(-3, side + 2)
        for _ in range(3):
            point = tuple(data.draw(coord) for _ in range(n))
            assert coefficient(f, point) == (1 if point in pf else 0), point
        if pf:
            point = data.draw(st.sampled_from(sorted(pf)))
            assert coefficient(f, point) == 1

    @settings(max_examples=30, deadline=None)
    @given(operand_pairs(count=1))
    def test_decompress_restores_the_support(self, case):
        n, side, ((g, pg),) = case
        box = (side,) * n
        tau = choose_tau(g, (n,), box=box)
        packed = compress(g, tau)
        assert _table(packed, (tau.N**n,)) == _indicator(tau.apply(p) for p in pg)
        back = decompress(packed, tau)
        assert _table(back, (tau.N,) * n) == _indicator(pg)


    @settings(max_examples=40, deadline=None)
    @given(operand_pairs(count=1), st.data())
    def test_tau_hadamard_with_a_functional(self, case, data):
        # coefficients alpha_x * beta_tau(x) for a non-identity tau: these
        # pairs never take the separable path
        n, side, ((f, pf),) = case
        d = data.draw(st.integers(1, 2))
        tau = [tuple(data.draw(st.integers(-1, 2)) for _ in range(n)) for _ in range(d)]
        assume(tau != [tuple(int(i == j) for j in range(n)) for i in range(n)])
        g, pg = _operand(data.draw(st.sampled_from(KINDS)), d, SIDES[d], data.draw)
        box = (side,) * n
        with mock.patch.object(
            shortgf.calculus, "_separable_terms", wraps=_separable_terms
        ) as separable:
            h = tau_hadamard(f, g, tau, box=box)
        assert separable.call_count == 0
        want = {
            x for x in pf if tuple(sum(a * b for a, b in zip(r, x)) for r in tau) in pg
        }
        assert _table(h, box) == _indicator(want)

    @settings(max_examples=40, deadline=None)
    @given(operand_pairs())
    def test_multiply_is_the_cauchy_product(self, case):
        n, side, ((f, pf), (g, pg)) = case
        want = Counter(tuple(a + b for a, b in zip(x, y)) for x in pf for y in pg)
        assert _table(multiply(f, g), (2 * side,) * n) == dict(want)


NORM_SIDES = {1: 24, 2: 8, 3: 4}


@st.composite
def norm_operands(draw):
    """(box, gf, points): a points, slab or polytope operand in a 1-3-D box,
    joined half of the time by the box's far corner."""
    n = draw(st.integers(1, 3))
    side = NORM_SIDES[n]
    f, pts = _operand(draw(st.sampled_from(("points", "slab", "polytope"))), n, side, draw)
    corner = (side - 1,) * n
    if corner not in pts and draw(st.booleans()):
        f, pts = concat(f, monomial(n, corner)), pts | {corner}
    return (side,) * n, f, pts


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

    @settings(max_examples=60, deadline=None)
    @given(norm_operands())
    @example(((4, 4, 4), zero_gf(3), set()))
    @example(((8, 8), from_point_set([(2, 5)], 2), {(2, 5)}))
    @example(((4, 4, 4), from_point_set([(3, 3, 3)], 3), {(3, 3, 3)}))
    def test_matches_the_oracle_maxima(self, case):
        box, f, pts = case
        support = oracle_expand(canonicalize(f), LatticeBox(box)).support()
        assert support == pts
        want = (
            tuple(max(p[j] for p in support) for j in range(len(box)))
            if support
            else None
        )
        assert norm(f, box) == want

    def test_slab_in_a_huge_box(self):
        side = 2**40
        f = box_range_gf([3, 5], [side - 1, 2**39])
        assert norm(f, (side, side)) == (side - 1, 2**39)

    def test_progression_with_a_huge_step(self):
        f = progression_gf((7,), ((2**30,),), (5,))
        assert norm(f, (2**33,)) == (7 + 4 * 2**30,)

    def test_signed_coefficients_in_one_variable(self):
        # the support is {3, 5} and {3, 5, 6}, although the coefficients
        # sum to 0 and 1
        f = ShortGF(1, (GFTerm(1, (3,)), GFTerm(-1, (5,))))
        assert norm(f, (8,)) == (5,)
        g = ShortGF(1, (GFTerm(1, (3,)), GFTerm(1, (5,)), GFTerm(-1, (6,))))
        assert norm(g, (8,)) == (6,)


def _in_unit_cone(x, apex, vecs):
    """Is x in apex + N vecs, for vectors that are positive multiples of
    distinct unit vectors?"""
    for c, (xc, ac) in enumerate(zip(x, apex)):
        steps = [v[c] for v in vecs if v[c]]
        if steps and not (xc >= ac and (xc - ac) % steps[0] == 0):
            return False
        if not steps and xc != ac:
            return False
    return True


@st.composite
def separable_operands(draw):
    """(n, sides, f, g): progressions along unit vectors, in any vector
    order.  Each apex steps back from a point near the box's low corner by
    0-2 steps per vector, then moves off it by -1..2: apexes fall inside and
    outside the box, and most lowest-corner pairs meet.  A side with no
    vector is a monomial."""
    n = draw(st.integers(1, 3))
    sides = tuple(draw(st.integers(3, 8)) for _ in range(n))
    meet = [draw(st.integers(0, min(2, s - 1))) for s in sides]

    def operand():
        apex, vecs = list(meet), []
        for c in draw(st.permutations(range(n))):
            step = draw(st.integers(0, 4))
            if step:
                vecs.append(tuple(step if i == c else 0 for i in range(n)))
                apex[c] -= step * draw(st.integers(0, 2))
            apex[c] += draw(st.integers(-1, 2))
        counts = [draw(st.integers(1, 6)) for _ in vecs]
        return progression_gf(apex, vecs, counts)

    return n, sides, operand(), operand()


class TestSeparablePairs:
    """Term pairs along unit vectors: the progression equals the polytope."""

    @staticmethod
    def _both_paths(f, g, box):
        """Per term pair as tau_hadamard forms it under the identity: its
        coefficient, each term's apex and vectors, whether it is boxed, and
        its terms by the separable and by the polytope path."""
        n = f.nvars
        ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        for tf in f.terms:
            cA, aA, vecsA = term_positive_form(tf)
            for tg in g.terms:
                cB, aB, vecsB = term_positive_form(tg)
                boxed = bool(vecsA) and bool(vecsB)
                coeff = cA * cB
                yield (
                    coeff, aA, vecsA, aB, vecsB, boxed,
                    _separable_terms(coeff, aA, vecsA, aB, vecsB, box if boxed else None),
                    _polytope_pair_terms(
                        coeff, aA, vecsA, aA, aB, vecsB, ident, boxed, box, n
                    ),
                )

    def test_terms_follow_the_f_vectors_order(self):
        # Brion's vertices come in lexicographic order of the fibre
        # coordinates, which follow the f-term's vectors: here y before x
        f = progression_gf((0, 1), ((0, 2), (1, 0)), (3, 4))
        g = box_range_gf([0, 0], [5, 7])
        pair = next(self._both_paths(f, g, LatticeBox((6, 8))))
        terms, polytope = pair[-2:]
        assert tuple(terms) == tuple(polytope)
        numers = [t.numer for t in terms]
        assert numers == sorted(numers, key=lambda a: (a[1], a[0])) != sorted(numers)

    @settings(max_examples=100, deadline=None)
    @given(separable_operands())
    def test_progression_matches_the_polytope_path(self, case):
        n, sides, f, g = case
        box = LatticeBox(sides)
        for coeff, aA, vecsA, aB, vecsB, boxed, terms, polytope in self._both_paths(
            f, g, box
        ):
            assert terms is not None
            assert tuple(terms) == tuple(polytope)
            both = sum(
                1
                for c in range(n)
                if any(v[c] for v in vecsA) and any(v[c] for v in vecsB)
            )
            assert max((len(t.denoms) for t in terms), default=0) <= both
            # an unboxed pair has a monomial side, its one candidate point
            window = list(box.points()) if boxed else [aB if vecsA else aA]
            pts = [
                x
                for x in window
                if _in_unit_cone(x, aA, vecsA) and _in_unit_cone(x, aB, vecsB)
            ]
            assert evaluate_at_one(ShortGF(n, tuple(terms))) == coeff * len(pts)
            lo = (0,) * n if boxed else window[0]
            shifted = tuple(
                GFTerm(t.coeff, tuple(a - b for a, b in zip(t.numer, lo)), t.denoms)
                for t in terms
            )
            got = _table(ShortGF(n, shifted), sides if boxed else (1,) * n)
            assert got == {tuple(a - b for a, b in zip(x, lo)): coeff for x in pts}


class TestHadamardWork:
    """Work the Hadamard machinery skips, counted through monkeypatched layers."""

    @staticmethod
    def _count(monkeypatch, module, name):
        # a pair polytope cached by an earlier test would not be rebuilt
        _polytope_pair_terms.cache_clear()
        calls = []
        real = getattr(module, name)

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
        return calls

    def test_disjoint_supports_build_no_polytope(self, monkeypatch):
        calls = self._count(monkeypatch, shortgf.calculus, "lattice_gf_mapped")
        f = box_range_gf([4, 4], [7, 7])
        g = from_point_set([(0, 1), (2, 3), (3, 0)], 2)
        h = hadamard(f, g, box=(8, 8))
        assert h.terms == ()
        assert coefficient(f, (1, 5)) == 0
        assert calls == []

    def test_separable_pairs_build_no_polytope(self, monkeypatch):
        calls = self._count(monkeypatch, shortgf.calculus, "lattice_gf_mapped")
        box = (8, 8)
        f = box_range_gf([1, 0], [6, 5])
        g = progression_gf((0, 1), ((2, 0), (0, 3)), (4, 3))
        h = hadamard(f, g, box=box)
        assert _table(h, box) == _indicator(product((2, 4, 6), (1, 4)))
        assert calls == []
        # a facet off the unit directions gives the polytope operand's
        # terms other vectors, so its pairs take the polytope path
        disc = polytope_gf(
            Polyhedron(((1, 0), (-1, 0), (0, 1), (0, -1), (1, 2)), (7, 0, 7, 0, 9), 2)
        )
        h = hadamard(disc, g, box=box)
        assert _table(h, box) == _indicator(
            (x, y) for x in (0, 2, 4, 6) for y in (1, 4) if x + 2 * y <= 9
        )
        assert calls

    def test_full_dimensional_fibre_enumerates_vertices_once(self, monkeypatch):
        calls = self._count(monkeypatch, shortgf._linalg, "vertices_of")
        triangle = Polyhedron(((-1, 0), (0, -1), (1, 1)), (0, 0, 4), 2)
        assert evaluate_at_one(polytope_gf(triangle)) == 15
        assert len(calls) == 1

    def test_canonicalize_keeps_oriented_terms(self):
        # (-1, 0) pairs negatively with the default ell = (2, 3), (1, 0) not
        kept = GFTerm(1, (0, 0), ((-1, 0),))
        flipped = GFTerm(1, (0, 0), ((1, 0),))
        g = canonicalize(ShortGF(2, (kept, flipped)))
        assert g.terms[0] is kept
        assert g.terms[1] == GFTerm(-1, (-1, 0), ((-1, 0),))

    def test_normalized_keeps_unmerged_sorted_terms(self):
        single = GFTerm(1, (0,), ((-2,), (-1,)))
        unsorted = GFTerm(1, (1,), ((-1,), (-2,)))
        twice = GFTerm(1, (5,))
        g = normalized(ShortGF(1, (single, unsorted, twice, twice)))
        assert g.terms[0] is single
        assert g.terms[1] == GFTerm(1, (1,), ((-2,), (-1,)))
        assert g.terms[2] == GFTerm(2, (5,))

    def test_hadamard_builds_terms_without_coercion(self, monkeypatch):
        # monomial pairs, the 1-D divisibility test and separable pairs
        f1 = from_point_set([(3,), (9,), (12,)], 1)
        g1 = box_range_gf([2], [10])
        f2 = from_point_set([(0, 1), (2, 3), (3, 0), (5, 5)], 2)
        g2 = box_range_gf([1, 0], [4, 6])
        calls = self._count(monkeypatch, GFTerm, "__new__")
        h1 = hadamard(f1, g1, box=(16,))
        h2 = hadamard(f2, g2, box=(8, 8))
        h3 = hadamard(g2, f2, box=(8, 8))
        assert calls == []
        assert _table(h1, (16,)) == _indicator([(3,), (9,)])
        for h in (h2, h3):
            assert _table(h, (8, 8)) == _indicator([(2, 3), (3, 0)])

    def test_hadamard_builds_gfs_without_checks(self, monkeypatch):
        # monomial, divisibility and separable pairs: canonicalize,
        # normalized, progression_gf and tau_hadamard build their GFs
        # from terms that are already valid
        f1 = from_point_set([(3,), (9,), (12,)], 1)
        g1 = box_range_gf([2], [10])
        f2 = from_point_set([(0, 1), (2, 3), (3, 0), (5, 5)], 2)
        g2 = box_range_gf([1, 0], [4, 6])
        calls = self._count(monkeypatch, ShortGF, "__post_init__")
        h1 = hadamard(f1, g1, box=(16,))
        h2 = hadamard(g2, f2, box=(8, 8))
        h3 = hadamard(g2, progression_gf((1, 0), ((2, 0),), (2,)), box=(8, 8))
        assert calls == []
        assert _table(h1, (16,)) == _indicator([(3,), (9,)])
        assert _table(h2, (8, 8)) == _indicator([(2, 3), (3, 0)])
        assert _table(h3, (8, 8)) == _indicator([(1, 0), (3, 0)])
        assert all(h.index_bound >= gf_index(h) for h in (h1, h2, h3))
        # the public constructor still checks every term
        with pytest.raises(ValueError, match="arity"):
            ShortGF(2, (GFTerm(1, (0,)),))
        with pytest.raises(ValueError, match="index bound"):
            ShortGF(1, (GFTerm(1, (0,), ((1,),)),), index_bound=0)
        assert len(calls) == 2

    @staticmethod
    def _discs():
        """Two 2-D polytope operands in the 8 x 8 box, with facets off the
        unit directions, so their pairs take the polytope path."""
        unit = ((1, 0), (-1, 0), (0, 1), (0, -1))
        f = polytope_gf(Polyhedron(unit + ((1, 2),), (7, 0, 7, 0, 9), 2))
        g = polytope_gf(Polyhedron(unit + ((2, 1),), (7, 0, 7, 0, 10), 2))
        pf = {(x, y) for x in range(8) for y in range(8) if x + 2 * y <= 9}
        pg = {(x, y) for x in range(8) for y in range(8) if 2 * x + y <= 10}
        return f, g, pf, pg

    def test_boolean_modes_share_the_pair_polytopes(self, monkeypatch):
        f, g, pf, pg = self._discs()
        box = LatticeBox((8, 8))
        modes = (("intersect", pf & pg), ("union", pf | pg), ("minus", pf - pg))
        calls = self._count(monkeypatch, shortgf.calculus, "lattice_gf_mapped")
        warm, built = {}, []
        for mode, want in modes:
            before = len(calls)
            warm[mode] = boolean_combine(f, g, box, mode, check=False)
            built.append(len(calls) - before)
            assert _table(warm[mode], box.sides) == _indicator(want), mode
        # every pair polytope fits the cache, and only the first mode builds
        assert 0 < _polytope_pair_terms.cache_info().currsize == built[0]
        assert built[1:] == [0, 0]
        for mode, _ in modes:
            _polytope_pair_terms.cache_clear()
            cold = boolean_combine(f, g, box, mode, check=False)
            assert format_gf(cold) == format_gf(warm[mode]), mode

    def test_coefficient_and_box_are_part_of_the_key(self):
        f, g, pf, pg = self._discs()
        _polytope_pair_terms.cache_clear()
        for c in (2, 3, Fraction(-1, 2)):
            h = hadamard(scale(f, c), g, box=(8, 8))
            assert _table(h, (8, 8)) == {x: c for x in pf & pg}, c
        for sides in ((8, 8), (10, 12)):
            h = hadamard(f, g, box=sides)
            assert _table(h, sides) == _indicator(pf & pg), sides
        # one pair of cones, the box rows cutting it: x >= y >= 0 meets
        # the positive quadrant in a triangle of the box
        apex, vecsA, vecsB = (0, 0), ((1, 0), (1, 1)), ((1, 0), (0, 1))
        ident = ((1, 0), (0, 1))
        for coeff, sides in ((Fraction(1), (4, 4)), (Fraction(1), (6, 3)),
                             (Fraction(5), (6, 3))):
            terms = _polytope_pair_terms(
                coeff, apex, vecsA, apex, apex, vecsB, ident, True,
                LatticeBox(sides), 2,
            )
            want = {
                (x, y): coeff for x in range(sides[0]) for y in range(sides[1])
                if y <= x
            }
            assert _table(ShortGF(2, terms), sides) == want, (coeff, sides)


def _in_support_box(y, apex, vecs):
    """Is y in the bounding box of apex + N vecs?  Per coordinate the apex
    bounds it from below unless a vector decreases that coordinate, and
    from above unless one increases it."""
    return all(
        (a <= x or any(v[c] < 0 for v in vecs))
        and (x <= a or any(v[c] > 0 for v in vecs))
        for c, (x, a) in enumerate(zip(y, apex))
    )


def _reference_tau_hadamard(f, g, tau):
    """tau_hadamard of a dense f by the general rule: every pair whose
    boxes meet goes through its auxiliary polytope, then the collected
    terms are canonicalized and normalized.  Unboxed: each pair has a
    monomial f-term."""
    tau = tuple(tuple(r) for r in tau)
    terms_g = [term_positive_form(t) for t in canonicalize(g).terms]
    collected = []
    for tf in canonicalize(f).terms:
        cA, aA, vecsA = term_positive_form(tf)
        assert vecsA == ()
        image = tuple(sum(map(mul, r, aA)) for r in tau)
        for cB, aB, vecsB in terms_g:
            if cA and cB and _in_support_box(image, aB, vecsB):
                collected += _polytope_pair_terms(
                    cA * cB, aA, (), image, aB, vecsB, tau, False, None, f.nvars
                )
    return normalized(canonicalize(ShortGF(f.nvars, tuple(collected))))


def _series_coefficient(g, y):
    """Coefficient of t^y in g's expansion: each term's multipliers
    k >= 0 with apex + sum k_j v_j = y, counted by brute force.  Every
    vector pairs positively with the orientation's ell, which bounds k."""
    gc = canonicalize(g)
    ell = gc.orientation.ell
    total = 0
    for t in gc.terms:
        coeff, apex, vecs = term_positive_form(t)
        diff = tuple(a - b for a, b in zip(y, apex))
        reach = sum(map(mul, ell, diff))
        if reach < 0:
            continue
        ranges = [range(reach // sum(map(mul, ell, v)) + 1) for v in vecs]
        for ks in product(*ranges):
            step = [sum(k * v[c] for k, v in zip(ks, vecs)) for c in range(len(y))]
            if tuple(step) == diff:
                total += coeff
    return total


COEFFS = st.integers(-3, 3) | st.builds(Fraction, st.integers(-3, 3), st.integers(2, 3))


@st.composite
def dense_operand_pairs(draw):
    """(f, g, tau): f a dense GF of 1-6 monomials in 1-3 variables, with
    signed int or Fraction coefficients, zero included, and repeated
    exponents; tau the identity or a random 1-3-row functional with entries
    in [-2, 2]; g a GF of 1-4 terms with 0, 1 or 2 vectors in [-3, 3]^d.
    Each g-term's apex steps back from the image of a point of f by -1..2
    multiples of each vector, then moves off it by -1..1 on a coin flip, so
    pairs hit, miss by a remainder and miss by a negative multiple."""
    n = draw(st.integers(1, 3))
    if draw(st.booleans()):
        tau = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    else:
        row = st.tuples(*[st.integers(-2, 2)] * n)
        tau = tuple(draw(st.lists(row, min_size=1, max_size=3)))
    d = len(tau)
    pool = draw(st.lists(st.tuples(*[st.integers(-2, 4)] * n), min_size=1, max_size=3))
    points = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    f = ShortGF(n, tuple(GFTerm(draw(COEFFS), p) for p in points))
    ell = direction_for(d).ell
    vec = st.tuples(*[st.integers(-3, 3)] * d).filter(any)
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        x = draw(st.sampled_from(pool))
        apex = [sum(map(mul, r, x)) for r in tau]
        vecs = draw(st.lists(vec, max_size=2))
        # mostly along ell, so that the vectors stay as drawn
        vecs = [
            v if sum(map(mul, ell, v)) > 0 or draw(st.booleans())
            else tuple(-a for a in v)
            for v in vecs
        ]
        for v in vecs:
            k = draw(st.integers(-1, 2))
            apex = [a - k * b for a, b in zip(apex, v)]
        if draw(st.booleans()):
            apex = [a + draw(st.integers(-1, 1)) for a in apex]
        terms.append(term_from_positive(draw(COEFFS), tuple(apex), tuple(vecs)))
    return f, ShortGF(d, tuple(terms)), tau


class TestMonomialMembership:
    """A monomial f-term's pairs settled by one membership test per g-term."""

    @settings(max_examples=150, deadline=None)
    @given(dense_operand_pairs())
    @example(
        (
            ShortGF(1, (GFTerm(1, (2,)),)),
            ShortGF(1, (term_from_positive(1, (4,), ((1,),)),)),  # k = -2
            ((1,),),
        )
    )
    def test_bytes_match_the_polytope_reference(self, case):
        f, g, tau = case
        h = tau_hadamard(f, g, tau)
        ref = _reference_tau_hadamard(f, g, tau)
        assert format_gf(h) == format_gf(ref)
        assert h.orientation == ref.orientation

    @settings(max_examples=100, deadline=None)
    @given(dense_operand_pairs())
    def test_coefficients_match_brute_force(self, case):
        f, g, tau = case
        h = tau_hadamard(f, g, tau)
        assert all(t.denoms == () for t in h.terms)
        got = {t.numer: t.coeff for t in h.terms}
        assert len(got) == len(h.terms)
        alpha = Counter()
        for t in f.terms:
            alpha[t.numer] += t.coeff
        want = {}
        for x, a in alpha.items():
            c = a * _series_coefficient(g, tuple(sum(map(mul, r, x)) for r in tau))
            if c:
                want[x] = c
        assert got == want

    def test_prime_pi_interval_terms_cancel_past_n(self):
        seg = segment_set("PRIMES", 7)
        g = box_range_gf([0], [100])
        # +1/(1 - t) and -t^101/(1 - t): both reach every p > 100
        assert [term_positive_form(t) for t in canonicalize(g).terms] == [
            (1, (0,), ((1,),)),
            (-1, (101,), ((1,),)),
        ]
        h = hadamard(seg.gf, g)
        assert [(t.numer, t.coeff) for t in h.terms] == [
            ((p,), 1) for p in seg.points if p <= 100
        ]
        assert prime_pi(100) == 25
        # unmerged: one monomial triple per f-term some pair hits, a zero
        # sum included, and none for a prime below 50, which no pair hits
        calls, patch = collected_triples()
        for lo in (0, 50):
            with patch:
                hadamard(seg.gf, box_range_gf([lo], [100]))
            assert calls.pop() == [
                (int(p <= 100), (p,), ()) for p in seg.points if p >= lo
            ]

    def test_a_two_vector_g_term_breaks_the_run(self):
        # t^6 against 1/(1 - t), 1/((1 - t^2)(1 - t^3)) and -t^4/(1 - t^2):
        # 6 = 2 * 3 = 3 * 2, so the middle pair counts 2 through its polytope
        f = ShortGF(1, (GFTerm(3, (6,)),))
        g = ShortGF(1, (
            term_from_positive(1, (0,), ((1,),)),
            term_from_positive(1, (0,), ((2,), (3,))),
            term_from_positive(-1, (4,), ((2,),)),
        ))
        assert format_gf(hadamard(f, g)) == format_gf(ShortGF(1, (GFTerm(6, (6,)),)))
        calls, patch = collected_triples()
        with patch:
            hadamard(f, g)
        (raw,) = calls
        assert raw[0] == (3, (6,), ()) and raw[-1] == (-3, (6,), ())
        assert {(a, bs) for _, a, bs in raw[1:-1]} == {((6,), ())}
        assert sum(c for c, _, _ in raw[1:-1]) == 6

    def test_first_occurrence_keeps_a_zero_run(self):
        # f: t^3, then t^5, then t^3 + t^4 + ...; g: t^3 - t^3/(1 - t).
        # t^3's run sums to zero and t^5's to -1; the ray's pair with t^3
        # gives t^3 again, so t^3 keeps the first place its zero run took
        f = ShortGF(1, (
            GFTerm(1, (3,)),
            GFTerm(1, (5,)),
            term_from_positive(1, (3,), ((1,),)),
        ))
        g = ShortGF(1, (
            GFTerm(1, (3,)),
            term_from_positive(-1, (3,), ((1,),)),
        ))
        h = hadamard(f, g, box=(8,))
        assert [(t.numer, t.coeff, t.denoms) for t in h.terms][:2] == [
            ((3,), 1, ()),
            ((5,), -1, ()),
        ]
        # f is 2, 1, 2, 1, 1 and g is 0, -1, -1, -1, -1 on 3..7
        assert _table(h, (8,)) == {(4,): -1, (5,): -2, (6,): -1, (7,): -1}


def _perfbench_module(name):
    """A module of the benchmark's `perfbench/` directory, loaded by path."""
    path = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "perfbench",
        f"{name}.py",
    )
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestInternalTerms:
    """Terms that the package builds without GFTerm's coercion are exact and
    equal to the public constructor's.  Exact includes the coefficient rule:
    an int, or a Fraction whose denominator is > 1."""

    @staticmethod
    def _assert_exact(terms):
        for t in terms:
            c = t.coeff
            assert type(c) is int or (type(c) is Fraction and c.denominator > 1), c
            assert type(t.numer) is tuple
            assert all(type(x) is int for x in t.numer)
            assert type(t.denoms) is tuple
            for d in t.denoms:
                assert type(d) is tuple and all(type(x) is int for x in d)
            assert t == GFTerm(t.coeff, t.numer, t.denoms)

    @settings(max_examples=40, deadline=None)
    @given(raw_gfs(), st.data())
    def test_producers_build_exact_terms(self, f, data):
        n = f.nvars
        g = canonicalize(f)
        self._assert_exact(g.terms)
        self._assert_exact(normalized(f).terms)
        self._assert_exact(normalized(concat(g, g)).terms)
        # term_from_positive inverts term_positive_form, from an int
        # coefficient and a list apex as well
        for t in g.terms:
            c, apex, vecs = term_positive_form(t)
            back = term_from_positive(c, apex, vecs)
            self._assert_exact([back])
            assert back == t
            self._assert_exact([term_from_positive(int(c * 6), list(apex), vecs)])
        side = 4
        lows = [data.draw(st.integers(0, side - 1)) for _ in range(n)]
        highs = [data.draw(st.integers(lo, side - 1)) for lo in lows]
        box = (side,) * n
        slab = box_range_gf(lows, highs)
        steps = [data.draw(st.integers(1, 2)) for _ in range(n)]
        units = [
            tuple(s if i == j else 0 for i in range(n)) for j, s in enumerate(steps)
        ]
        counts = [(side - lo - 1) // s + 1 for lo, s in zip(lows, steps)]
        prog = progression_gf(lows, units, counts)
        cells = list(product(range(side), repeat=n))
        pts = from_point_set(data.draw(st.sets(st.sampled_from(cells), max_size=4)), n)
        self._assert_exact(slab.terms + prog.terms + pts.terms)
        for a, b in ((slab, prog), (prog, pts), (pts, slab)):
            h = hadamard(a, b, box=box)
            self._assert_exact(h.terms)
            self._assert_exact(specialize_vars(h, [0]).terms)
        self._assert_exact(specialize_vars(prog, [n - 1]).terms)

    def test_polytope_terms_are_exact(self):
        disc = polytope_gf(
            Polyhedron(((1, 0), (-1, 0), (0, 1), (0, -1), (1, 2)), (7, 0, 7, 0, 9), 2)
        )
        self._assert_exact(disc.terms)
        slab = box_range_gf([1, 0], [6, 5])
        self._assert_exact(hadamard(disc, slab, box=(8, 8)).terms)
        self._assert_exact(specialize_vars(disc, [1]).terms)

    def test_benchmark_item_terms_are_exact(self):
        # the benchmark's calculus item 0 (a polytope compressed and
        # decompressed) and a square-root gadget of number_theory
        inputs = _perfbench_module("inputs")
        workloads = _perfbench_module("workloads")
        (item,) = inputs.make_inputs("calculus", 7)[:1]
        out = workloads.calculus_item(shortgf, item)
        gfs = [v for v in out.values() if isinstance(v, ShortGF)]
        sqrt = next(i for i in inputs.make_inputs("number_theory", 7) if i[0] == "sqrt")
        gfs += workloads.gadget_products(shortgf, sqrt)
        assert len(gfs) == 5 and all(g.terms for g in gfs)
        for g in gfs:
            self._assert_exact(g.terms)


class TestHadamardBytes:
    """The bytes of Hadamard-product results on seeded inputs are fixed."""

    # sha256 of format_gf, one per (input seed, result) below
    SHA256 = {
        (0, "intersect"): "df5ab34898c5262ce71a28bf34f444ab2184243cd8d67116f8afcc7a07665b1c",
        (0, "union"): "3b690ae1e515943987dd8a239f6ea2674e9bb237cbc0aa71c4b0f295c9b74c1b",
        (0, "minus"): "5dca310b539fab41b0e801d7b423e1e127dceada460843e67817c0a777b1c72a",
        (0, "decompress_points"): "c34d92574a8227cbaf48b6afe620ca33c1a47f66ff9362c1728579318a2244a2",
        (0, "decompress_polytope"): "2412bab48184f370e7c2ad9abf3d8bd10398e426edde36c28374a92a25343418",
        (1, "intersect"): "66fe53413ec5f1bcfa8237d84946bbc4dd677f9a03a4080f62aa0e804e5e4c72",
        (1, "union"): "a49322c124b9caba0dfb73c15d32330adc85754879b0b4fa3983a8d910383023",
        (1, "minus"): "84d03b68e615321bbcc7e3c6c94312987cef0b6706838ba350650354c54f2bac",
        (1, "decompress_points"): "5a218d4b91b5c6fd59651b1c7193aa204185d97f5971f762ccc154b956ec50f4",
        (1, "decompress_polytope"): "69ce897fdfd921f6a52149ecd2eac97c4a632739658f32055cdc0a063aba3be9",
    }

    @staticmethod
    def _results(seed):
        rng = random.Random(seed)
        side = 8

        def disc():
            rows = [(1, 0), (-1, 0), (0, 1), (0, -1)]
            rhs = [side - 1, 0, side - 1, 0]
            rows.append((rng.randint(1, 4), rng.randint(1, 4)))
            rhs.append(rng.randint(side, 3 * side))
            return polytope_gf(Polyhedron(tuple(rows), tuple(rhs), 2))

        f = disc()
        lows = [rng.randrange(side // 2) for _ in range(2)]
        g = box_range_gf(lows, [rng.randint(lo, side - 1) for lo in lows])
        box = LatticeBox((side, side))
        pts = sorted({(rng.randrange(side), rng.randrange(side)) for _ in range(5)})
        packed_pts = from_point_set(pts, 2)
        tau = choose_tau(packed_pts, (2,), box=box)
        out = {
            mode: boolean_combine(f, g, box, mode, check=False)
            for mode in ("intersect", "union", "minus")
        }
        out["decompress_points"] = decompress(compress(packed_pts, tau), tau)
        tau = choose_tau(f, (2,), box=box)
        out["decompress_polytope"] = decompress(compress(f, tau), tau)
        return out

    @pytest.mark.parametrize("seed", (0, 1))
    def test_seeded_results_unchanged(self, seed):
        for name, gf in self._results(seed).items():
            digest = hashlib.sha256(format_gf(gf).encode()).hexdigest()
            assert digest == self.SHA256[(seed, name)], name
