"""Core data model: canonical flips, the expansion oracle, lengths, formats."""

import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from shortgf import (
    ExpansionDirection,
    FormatError,
    GFTerm,
    LatticeBox,
    NonCanonicalError,
    ShortGF,
    box_range_gf,
    canonicalize,
    concat,
    direction_for,
    format_gf,
    from_point_set,
    gf_index,
    gf_length,
    hadamard,
    is_canonical,
    normalized,
    oracle_expand,
    parse_gf,
    progression_gf,
    segment_set,
    semigroup_gf,
    support_points,
)
import shortgf.gfcore
from shortgf._subst import substitute
from shortgf.gfcore import (
    _gf,
    _term,
    canonical_sum,
    moment_vector,
    oriented,
    positive_terms,
    term_from_positive,
    term_positive_form,
)


def expand(f, box):
    g = f if is_canonical(f) else canonicalize(f)
    return oracle_expand(g, LatticeBox(box))


class TestCanonicalize:
    def test_flip_identity_single_factor(self):
        # 1/(1-t) flips to -t^(-1)/(1-t^(-1)) under a positive direction
        f = ShortGF(1, (GFTerm(1, (0,), ((1,),)),))
        g = canonicalize(f)
        (term,) = g.terms
        assert term.coeff == -1
        assert term.numer == (-1,)
        assert term.denoms == ((-1,),)
        tab = oracle_expand(g, LatticeBox((4,)))
        assert tab.support_with_values() == {
            (0,): 1, (1,): 1, (2,): 1, (3,): 1,
        }

    def test_identity_case(self):
        f = ShortGF(1, (GFTerm(-1, (-1,), ((-1,),)),))
        g = canonicalize(f)
        assert g.terms == f.terms

    def test_canonical_input_is_returned_itself(self):
        # (1, -1) pairs to -1 with the default ell = (2, 3), to 3 with (5, 2)
        f = canonicalize(ShortGF(2, (GFTerm(1, (0, 0), ((1, -1),)),)))
        assert canonicalize(f) is f
        same = ShortGF(f.nvars, f.terms, f.index_bound, f.orientation)
        assert canonicalize(same) is same
        other = ExpansionDirection((5, 2))
        g = canonicalize(ShortGF(f.nvars, f.terms, f.index_bound, other))
        assert g.orientation == other
        assert g.terms == (GFTerm(-1, (-1, 1), ((-1, 1),)),)

    def test_canonicalize_preserves_oracle_random(self):
        rng = random.Random(3)
        for _ in range(20):
            terms = []
            for _ in range(rng.randint(1, 3)):
                numer = (rng.randint(0, 4), rng.randint(0, 4))
                k = rng.randint(0, 2)
                denoms = []
                while len(denoms) < k:
                    d = (rng.randint(-2, 2), rng.randint(-2, 2))
                    if any(d):
                        denoms.append(d)
                terms.append(GFTerm(rng.choice([1, -1]), numer, tuple(denoms)))
            f = ShortGF(2, tuple(terms))
            g1 = canonicalize(f)
            assert g1.orientation == direction_for(2)
            g2 = canonicalize(g1)
            t1 = oracle_expand(g1, LatticeBox((8, 8)))
            t2 = oracle_expand(g2, LatticeBox((8, 8)))
            assert t1.support_with_values() == t2.support_with_values()

    def test_degenerate_primes_take_the_moment_curve(self):
        # denominator (3, -2) pairs to zero against ell = (2, 3) and to -1
        # against the moment-curve point (1, 2)
        f = ShortGF(2, (GFTerm(1, (0, 0), ((3, -2),)),))
        g = canonicalize(f)
        assert g.orientation == ExpansionDirection((1, 2))
        assert g.terms == f.terms
        assert is_canonical(g)
        assert canonicalize(g) is g


# vectors that pair to zero with the default primes (2, 3) and (2, 3, 5)
_PRIME_ZEROS = {2: [(3, -2), (-3, 2)], 3: [(3, -2, 0), (0, 5, -3), (5, 0, -2)]}


@st.composite
def oriented_gfs(draw):
    """Raw GFs in 1-3 variables: signed int and Fraction coefficients,
    mixed-sign denominators, some pairing to zero with the default primes
    (which forces the moment-curve fallback), and no, the default or
    another orientation."""
    n = draw(st.integers(1, 3))
    entry = st.integers(-3, 3)
    vec = st.tuples(*[entry] * n).filter(any)
    if n in _PRIME_ZEROS:
        vec = st.one_of(vec, st.sampled_from(_PRIME_ZEROS[n]))
    coeff = st.one_of(
        st.integers(-4, 4),
        st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
    )
    terms = draw(
        st.lists(
            st.builds(
                GFTerm, coeff, st.tuples(*[entry] * n), st.lists(vec, max_size=3)
            ),
            max_size=4,
        )
    )
    ell = st.lists(st.integers(1, 9), min_size=n, max_size=n, unique=True)
    orientation = draw(
        st.one_of(
            st.none(),
            st.just(direction_for(n)),
            st.builds(lambda e: ExpansionDirection(tuple(e)), ell),
        )
    )
    return ShortGF(n, tuple(terms), orientation=orientation)


class TestOrientation:
    @settings(max_examples=300, deadline=None)
    @given(oriented_gfs())
    @example(ShortGF(2, (GFTerm(Fraction(-3, 2), (1, 0), ((3, -2), (1, 1))),)))
    @example(ShortGF(2, (GFTerm(2, (0, 1), ((-1, 1),)),), 1, ExpansionDirection((5, 2))))
    def test_positive_terms_match_the_canonical_gf(self, f):
        g = canonicalize(f)
        want = [term_positive_form(t) for t in g.terms]
        got = positive_terms(f)
        assert got == want
        assert repr(got) == repr(want)
        for t in f.terms + g.terms:
            assert term_from_positive(*term_positive_form(t)) == t

    def test_oriented_keeps_unflipped_triples(self):
        # against the default ell = (2, 3): (1, 0) pairs to 2, (-1, 0) to -2
        kept = (1, (0, 0), ((1, 0),))
        flipped = (Fraction(1, 2), (1, 1), ((-1, 0), (0, 1)))
        direction, out = oriented(2, [kept, flipped])
        assert direction == direction_for(2)
        assert out[0] is kept
        assert out[1] == (Fraction(-1, 2), (2, 1), ((1, 0), (0, 1)))

    def test_oriented_takes_the_given_direction(self):
        # (1, -1) pairs to -1 with (2, 3) and to 3 with (5, 2)
        triple = (1, (0, 0), ((1, -1),))
        assert oriented(2, [triple])[1] == [(-1, (-1, 1), ((-1, 1),))]
        other = ExpansionDirection((5, 2))
        assert oriented(2, [triple], other) == (other, [triple])

    def test_progression_gf_bytes_on_the_fallback(self):
        # (-3, 2) pairs to zero with (2, 3); under (1, 2) both vectors
        # pair positively, so the base term flips both
        f = progression_gf((0, 0), ((-3, 2), (1, 0)), (3, 2))
        assert f.orientation == ExpansionDirection((1, 2))
        assert format_gf(f) == (
            "gf nvars=2 index=2\n"
            "term c=1/1 a=2,-2 b=3,-2;-1,0\n"
            "term c=-1/1 a=-7,4 b=3,-2;-1,0\n"
            "term c=-1/1 a=4,-2 b=3,-2;-1,0\n"
            "term c=1/1 a=-5,4 b=3,-2;-1,0\n"
        )
        g = progression_gf((1, 1), ((3, -2),), (2,), -2)
        assert format_gf(g) == (
            "gf nvars=2 index=1\nterm c=-2/1 a=1,1 b=3,-2\nterm c=2/1 a=7,-3 b=3,-2\n"
        )

    def test_progression_gf_rejects_bad_vectors(self):
        with pytest.raises(ValueError, match="nonzero"):
            progression_gf((0, 0), ((0, 0),), (2,))
        with pytest.raises(ValueError, match="as long as the apex"):
            progression_gf((0, 0), ((0,),), (2,))

    def test_substitution_builds_each_term_once(self, monkeypatch):
        # 1 / (1 - t^-1) under t -> u^-1 has the image 1 / (1 - u), which
        # flips to -u^-1 / (1 - u^-1)
        calls = []
        real = shortgf.gfcore._term
        monkeypatch.setattr(
            shortgf.gfcore, "_term", lambda *a: calls.append(a) or real(*a)
        )
        f = ShortGF(1, (GFTerm(1, (0,), ((-1,),)),))
        g = substitute(f, [(-1,)], 1)
        assert g.terms == (GFTerm(-1, (-1,), ((-1,),)),)
        assert len(calls) == len(g.terms)


@st.composite
def moment_cases(draw):
    """(n, vecs, k): nonzero integer vectors of arity n with entries in
    +-20, some of them built to pair to zero at a moment-curve point."""
    n = draw(st.integers(1, 4))
    free = st.tuples(*[st.integers(-20, 20)] * n).filter(any)
    # (x - r) * q(x) has the root x = r; its coefficients stay within +-18
    rooted = st.builds(
        lambda r, q: tuple(
            (q[i - 1] if i else 0) - r * (q[i] if i < n - 1 else 0)
            for i in range(n)
        ),
        st.integers(1, 5),
        st.tuples(*[st.integers(-3, 3)] * (n - 1)).filter(any),
    )
    vec = st.one_of(free, rooted) if n > 1 else free
    return n, draw(st.lists(vec, max_size=8)), draw(st.integers(1, 4))


def _moment_point(n, x):
    return tuple(x**i for i in range(n))


class TestMomentVector:
    @settings(max_examples=300, deadline=None)
    @given(moment_cases())
    @example((2, [(1, -1), (2, -1), (3, -1)], 1))
    @example((3, [(2, -3, 1)], 1))
    def test_least_valid_point_within_cauchy_bound(self, case):
        n, vecs, k = case
        lam = moment_vector(n, vecs, k)
        least = lam[1] if n > 1 else k
        assert lam == _moment_point(n, least)

        def valid(x):
            point = _moment_point(n, x)
            return all(sum(a * b for a, b in zip(point, v)) for v in vecs)

        assert valid(least)
        assert least >= k and not any(valid(x) for x in range(k, least))
        assert least <= max(k, 1 + max((abs(x) for v in vecs for x in v), default=0))


class TestOracleExpand:
    def test_geometric_sum(self):
        f = ShortGF(1, (GFTerm(1, (0,), ((1,),)), GFTerm(-1, (4,), ((1,),))))
        tab = expand(f, (8,))
        assert tab.support_with_values() == {(0,): 1, (1,): 1, (2,): 1, (3,): 1}

    def test_monomial(self):
        tab = expand(ShortGF(1, (GFTerm(1, (3,)),)), (8,))
        assert tab.support_with_values() == {(3,): 1}

    def test_knapsack_coefficient(self):
        f = ShortGF(1, (GFTerm(1, (0,), ((2,), (3,))),))
        tab = expand(f, (10,))
        # independent enumeration of 2a+3b = 7
        count7 = sum(
            1 for a in range(4) for b in range(3) if 2 * a + 3 * b == 7
        )
        assert count7 == 1
        assert tab[(7,)] == count7
        assert tab[(1,)] == 0

    def test_rejects_non_canonical(self):
        f = ShortGF(1, (GFTerm(1, (0,), ((1,),)),))
        with pytest.raises(NonCanonicalError):
            oracle_expand(f, LatticeBox((4,)))

    @pytest.mark.parametrize("sides", [(4,), (4, 4, 4)])
    def test_rejects_box_of_wrong_arity(self, sides):
        # zip over the sides would truncate: (4,) would keep only (0, 0)
        f = from_point_set([(1, 2), (0, 0)], 2)
        with pytest.raises(ValueError, match="box arity does not match nvars"):
            oracle_expand(f, LatticeBox(sides))
        with pytest.raises(ValueError, match="box arity does not match nvars"):
            support_points(f, sides)


class TestFromPointSet:
    def test_empty(self):
        f = from_point_set([], 1)
        assert f.terms == ()
        assert expand(f, (4,)).support() == set()

    def test_two_points(self):
        f = from_point_set([(3,), (7,)], 1)
        assert expand(f, (8,)).support() == {(3,), (7,)}

    def test_squares_segment(self):
        squares = [(k * k,) for k in range(8) if k * k < 64]
        f = from_point_set(squares, 1)
        assert len(f.terms) == 8
        assert expand(f, (64,)).support() == set(squares)

    def test_round_trip_with_support(self):
        pts = {(1, 2), (0, 0), (3, 1)}
        f = from_point_set(sorted(pts), 2)
        assert expand(f, (4, 4)).support() == pts

    def test_builds_the_gf_without_rechecking_its_terms(self, monkeypatch):
        calls = []
        real = ShortGF.__post_init__
        monkeypatch.setattr(
            ShortGF, "__post_init__", lambda f: calls.append(1) or real(f)
        )
        f = from_point_set([(3, 1), (0, 2), (3, 1)], 2)
        assert calls == []
        assert [t.numer for t in f.terms] == [(0, 2), (3, 1)]
        assert f.index_bound == 0 and f.orientation == direction_for(2)
        with pytest.raises(ValueError, match="point arity mismatch"):
            from_point_set([(1, 2), (3,)], 2)
        with pytest.raises(ValueError, match="nvars must be nonnegative"):
            from_point_set([], -1)


@st.composite
def progressions(draw):
    """(apex, independent vecs, counts 0..4, coeff) in 1-2 dimensions; every
    point apex + sum m_j v_j lies in [0, 45)^n."""
    n = draw(st.integers(1, 2))
    k = draw(st.integers(0, n))
    vecs = [tuple(draw(st.integers(-3, 3)) for _ in range(n)) for _ in range(k)]
    if k == 1:
        assume(any(vecs[0]))
    if k == 2:
        assume(vecs[0][0] * vecs[1][1] != vecs[0][1] * vecs[1][0])
    counts = [draw(st.integers(0, 4)) for _ in range(k)]
    apex = tuple(draw(st.integers(18, 24)) for _ in range(n))
    coeff = Fraction(
        draw(st.integers(-3, 3).filter(bool)), draw(st.integers(1, 3))
    )
    return apex, vecs, counts, coeff


class TestProgressionGF:
    @settings(max_examples=60, deadline=None)
    @given(progressions())
    def test_matches_point_multiset(self, prog):
        apex, vecs, counts, coeff = prog
        f = progression_gf(apex, vecs, counts, coeff)
        assert len(f.terms) == 1 << len(vecs)
        want = Counter()
        for ms in product(*(range(c) for c in counts)):
            point = list(apex)
            for m, v in zip(ms, vecs):
                point = [a + m * x for a, x in zip(point, v)]
            want[tuple(point)] += 1
        table = oracle_expand(f, LatticeBox((45,) * len(apex)))
        assert table.support_with_values() == {p: coeff * m for p, m in want.items()}

    def test_dependent_vectors_count_with_multiplicity(self):
        f = progression_gf((0,), ((1,), (1,)), (2, 2))
        assert expand(f, (4,)).support_with_values() == {(0,): 1, (1,): 2, (2,): 1}

    def test_negative_or_missing_count_raises(self):
        with pytest.raises(ValueError, match="nonnegative"):
            progression_gf((0,), ((2,),), (-1,))
        with pytest.raises(ValueError, match="one nonnegative count per vector"):
            progression_gf((0, 0), ((1, 0), (0, 1)), (3,))


class TestTermConstructors:
    def test_public_constructor_coerces(self):
        # a coefficient is an int, or a Fraction whose denominator is > 1
        for c in (1, 1.0, Fraction(1), Fraction(4, 4), "1"):
            t = GFTerm(c, [1.0], [[2]])
            assert type(t.coeff) is int and t.coeff == 1
        assert t.numer == (1,) and type(t.numer[0]) is int
        assert t.denoms == ((2,),) and type(t.denoms[0][0]) is int
        for c in (Fraction(3, 2), 1.5, "3/2"):
            t = GFTerm(c, (0,))
            assert type(t.coeff) is Fraction and t.coeff == Fraction(3, 2)

    def test_integral_results_are_ints(self):
        half = Fraction(1, 2)
        (t,) = normalized(ShortGF(1, ((half, (3,)), (half, (3,))))).terms
        assert type(t.coeff) is int and t.coeff == 1
        (t,) = parse_gf("gf nvars=1 index=0\nterm c=6/3 a=5 b=\n").terms
        assert type(t.coeff) is int and t.coeff == 2
        t = _term(Fraction(-8, 4), (0,))
        assert type(t.coeff) is int and t.coeff == -2
        assert type(_term(Fraction(3, 2), (0,)).coeff) is Fraction

    def test_internal_constructor_validates(self):
        t = _term(Fraction(3, 2), (1, 2), ((0, -1),))
        assert t == GFTerm(Fraction(3, 2), (1, 2), ((0, -1),))
        with pytest.raises(ValueError, match="nonzero"):
            _term(Fraction(1), (1, 2), ((0, 0),))
        with pytest.raises(ValueError, match="length mismatch"):
            _term(Fraction(1), (1, 2), ((1,),))

    @pytest.mark.parametrize(
        "build",
        [
            lambda x: GFTerm(1, (x,), ((1,),)),
            lambda x: GFTerm(1, (0,), ((x,),)),
            lambda x: LatticeBox((x, 3)),
            lambda x: progression_gf((x,), ((1,),), (3,)),
            lambda x: progression_gf((0,), ((x,),), (3,)),
            lambda x: progression_gf((0,), ((1,),), (x,)),
            lambda x: from_point_set([(1, x)], 2),
            lambda x: semigroup_gf((3, x)),
        ],
        ids=[
            "GFTerm_numer", "GFTerm_denoms", "LatticeBox", "progression_apex",
            "progression_vecs", "progression_counts", "from_point_set",
            "semigroup_gf",
        ],
    )
    def test_exponents_are_never_truncated(self, build):
        # integral values of any number type build the same object; a
        # fractional one raises instead of being cut down to its int()
        assert build(Fraction(2)) == build(2.0) == build(2)
        for x in (Fraction(5, 2), 2.5, Fraction(7, 3)):
            with pytest.raises(ValueError, match="non-integral"):
                build(x)


class TestLengthAndIndex:
    def test_length_monomial(self):
        assert gf_length(ShortGF(1, (GFTerm(1, (0,)),))) == 1

    def test_length_geometric(self):
        assert gf_length(ShortGF(1, (GFTerm(1, (0,), ((1,),)),))) == 2

    def test_length_doubling_law(self):
        def bits(v):
            return 1 + (v - 1).bit_length() if v else 0

        for p, q in [(1, 1), (3, 2), (5, 1)]:
            base = ShortGF(1, (GFTerm(Fraction(p, q), (0,)),))
            doubled = ShortGF(1, (GFTerm(Fraction(2 * p, q), (0,)),))
            c = Fraction(p, q)
            c2 = Fraction(2 * p, q)
            want = bits(abs(c2.numerator * c2.denominator)) - bits(
                abs(c.numerator * c.denominator)
            )
            assert gf_length(doubled) - gf_length(base) == want

    def test_index(self):
        poly = from_point_set([(3,), (7,)], 1)
        assert gf_index(poly) == 0
        knap = ShortGF(1, (GFTerm(1, (0,), ((1,), (2,))),))
        assert gf_index(knap) == 2
        assert gf_index(concat(poly, knap)) == 2

    def test_index_of_concat_is_max(self):
        a = ShortGF(1, (GFTerm(1, (0,), ((1,),)),))
        b = from_point_set([(1,)], 1)
        assert gf_index(concat(a, b)) == max(gf_index(a), gf_index(b))


class TestNormalized:
    def test_merges_identical_terms(self):
        f = ShortGF(1, (GFTerm(1, (2,)), GFTerm(2, (2,)), GFTerm(-3, (2,))))
        assert normalized(f).terms == ()

    def test_oracle_unchanged(self):
        f = ShortGF(
            1,
            (
                GFTerm(1, (0,), ((1,),)),
                GFTerm(1, (0,), ((1,),)),
                GFTerm(-1, (5,), ((1,),)),
            ),
        )
        g = normalized(canonicalize(f))
        assert (
            expand(f, (8,)).support_with_values()
            == expand(g, (8,)).support_with_values()
        )


@st.composite
def raw_triple_lists(draw):
    """(nvars, triples, index_bound, direction) for `canonical_sum`.

    The triples are drawn from a small pool of (a, bs), each with its bs
    also reversed, so keys repeat, some in another vector order, and their
    signed int and Fraction coefficients can sum to zero before a later
    triple of the same key.  Entries in [-3, 3] often pair to zero with the
    first primes, which forces the moment-curve fallback.
    """
    n = draw(st.integers(1, 3))
    entry = st.integers(-3, 3)
    vec = st.tuples(*[entry] * n).filter(any)
    pool = draw(
        st.lists(
            st.tuples(st.tuples(*[entry] * n), st.lists(vec, max_size=3)),
            min_size=1,
            max_size=4,
        )
    )
    pool = [(a, tuple(bs)) for a, bs in pool] + [
        (a, tuple(reversed(bs))) for a, bs in pool
    ]
    coeff = st.integers(-2, 2) | st.fractions(-2, 2, max_denominator=3)
    triples = draw(
        st.lists(
            st.tuples(coeff, st.sampled_from(pool)).map(lambda x: (x[0], *x[1])),
            max_size=10,
        )
    )
    bound = draw(st.none() | st.integers(3, 4))
    direction = draw(
        st.none()
        | st.permutations(range(1, 6)).map(
            lambda p: ExpansionDirection(tuple(p[:n]))
        )
    )
    return n, triples, bound, direction


class TestCanonicalSum:
    @settings(max_examples=200, deadline=None)
    @given(raw_triple_lists())
    # a zero-sum key before a later triple of the same key; two raw keys
    # with one canonical form that cancel; a vector pairing to zero with
    # (2, 3); a given direction under which (1, -1) pairs positively
    @example((1, [(1, (0,), ()), (2, (1,), ()), (-1, (0,), ()), (3, (0,), ())], None, None))
    @example((1, [(1, (0,), ((1,),)), (1, (-1,), ((-1,),)), (1, (2,), ())], None, None))
    @example((2, [(1, (0, 0), ((3, -2), (1, 0))), (-1, (0, 0), ((1, 0), (3, -2)))], None, None))
    @example((2, [(Fraction(1, 2), (0, 0), ((1, -1),))], 3, ExpansionDirection((5, 2))))
    def test_equals_normalized_canonicalize(self, case):
        n, triples, bound, direction = case
        got = canonical_sum(n, triples, bound, direction)
        want = normalized(
            canonicalize(_gf(n, tuple(_term(*t) for t in triples), bound, direction))
        )
        assert format_gf(got) == format_gf(want)
        assert got.orientation == want.orientation
        assert [type(t.coeff) for t in got.terms] == [type(t.coeff) for t in want.terms]

    def test_builds_one_term_per_output_term(self, monkeypatch):
        # every prime above 100 hits both terms of g and sums to zero, and
        # no term is built for it
        f = segment_set("PRIMES", 7).gf
        g = box_range_gf([0], [100])
        inner = shortgf.gfcore._term
        calls = []

        def count(*args):
            calls.append(args)
            return inner(*args)

        for name, module in list(sys.modules.items()):
            if name.startswith("shortgf") and getattr(module, "_term", None) is inner:
                monkeypatch.setattr(module, "_term", count)
        h = hadamard(f, g)
        assert len(h.terms) == 25
        assert len(calls) == len(h.terms)


class TestFormat:
    def test_round_trip_bit_exact(self):
        f = ShortGF(
            2,
            (
                GFTerm(Fraction(-3, 7), (1, -2), ((1, 0), (0, -4))),
                GFTerm(1, (0, 0)),
            ),
            index_bound=3,
        )
        text = format_gf(f)
        g = parse_gf(text)
        assert g.nvars == f.nvars
        assert g.index_bound == f.index_bound
        assert g.terms == f.terms
        assert format_gf(g) == text

    def test_header_errors(self):
        with pytest.raises(FormatError):
            parse_gf("nope\n")
        with pytest.raises(FormatError):
            parse_gf("gf nvars=2 index=1\nterm c=1/1 a=1 b=\n")

    def test_empty_denominator_field(self):
        f = parse_gf("gf nvars=1 index=0\nterm c=1/1 a=5 b=\n")
        assert f.terms[0].denoms == ()


class TestOracleSoundness:
    def test_constructors_give_zero_one(self):
        rng = random.Random(11)
        for _ in range(10):
            pts = {
                (rng.randrange(6), rng.randrange(6)) for _ in range(rng.randint(0, 8))
            }
            f = from_point_set(sorted(pts), 2)
            assert expand(f, (6, 6)).is_zero_one()
