"""Data model for short rational generating functions and the expansion oracle.

A short GF is a finite sum of terms  c * t^a / prod_j (1 - t^(b_j))  with
integer exponent vectors a, b_j (b_j != 0) and an exact c: an int, or a
Fraction only when it is not integral.  The series
semantics of such an expression depends on a choice of Laurent region; we fix
it with an *expansion direction* ell (strictly positive, pairwise-distinct
entries).

One rule, `_flip`, orients a term: 1/(1-t^v) = -t^(-v)/(1-t^(-v)).  A term
is canonical under ell when <ell, b> < 0 for every denominator b, and in
positive form (c, apex, vecs) when every vector pairs positively; it then
reads c * sum_{m >= 0} t^(apex + sum_j m_j v_j).  `canonicalize` flips the
vectors that pair positively, `oriented` and `positive_terms` those that
pair negatively, and `term_positive_form` and `term_from_positive` all of
them.  No other module chooses a direction (`direction_pairings`).

A term is its own (c, a, bs) triple: `GFTerm` is a named tuple, equal to
the plain tuple with the same entries and hashed like it, so a term goes
wherever a triple does.  Operations that sum terms hand their raw triples
to `canonical_sum`, which orients, merges and builds each nonzero term once.

In canonical form each term expands as

    c * (-1)^k * sum_{m_1..m_k >= 1} t^(a - sum_j m_j b_j),

which is locally finite because every step moves the exponent strictly upward
in the ell direction.  `oracle_expand` enumerates these sums over a box and is
the reference semantics every other operation in the package is tested against.
"""

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import prod
from operator import add, mul, neg, sub

from .errors import (
    FormatError,
    NonCanonicalError,
    ResourceLimitError,
)

_PRIME_POOL = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
    151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229,
]


@dataclass(frozen=True)
class ExpansionDirection:
    """Direction fixing the Laurent region; entries are distinct and positive.

    `direction_for` gives the first primes; `canonicalize` falls back to a
    point of the moment curve (`moment_vector` from 2) when they are
    degenerate for the GF at hand.
    """

    ell: tuple

    def __post_init__(self):
        if len(set(self.ell)) != len(self.ell) or any(e <= 0 for e in self.ell):
            raise ValueError("direction entries must be distinct and positive")


def direction_for(nvars):
    """The default expansion direction: the first nvars primes."""
    return ExpansionDirection(tuple(_PRIME_POOL[:nvars]))


def moment_vector(nvars, vecs, k):
    """(1, k', k'^2, ..) for the least k' >= k >= 1 that pairs nonzero with
    every vector of `vecs`.

    <(1, x, .., x^(n-1)), v> is a nonzero integer polynomial in x, so by
    Cauchy's root bound each of its roots has |x| < 1 + max_i |v_i|; the
    search stops by k' = max(k, 1 + max |v_i|) at the latest.
    """
    vecs = set(vecs)
    while True:
        lam = tuple(k**i for i in range(nvars))
        if all(sum(map(mul, lam, v)) for v in vecs):
            return lam
        k += 1


def int_vector(v):
    """v as a tuple of ints; ValueError when an entry is not integral.

    Integral Fractions and floats such as Fraction(2) and 2.0 are accepted;
    Fraction(3, 2) is rejected, not truncated to 1.
    """
    v = tuple(v)
    ints = tuple(map(int, v))
    if ints != v:
        raise ValueError(f"{v!r} has a non-integral entry")
    return ints


class GFTerm(namedtuple("GFTerm", "coeff numer denoms")):
    """One summand c * t^numer / prod (1 - t^d) for d in denoms.

    A term is its own (coeff, numer, denoms) triple: it unpacks as one,
    compares equal to a plain tuple with the same entries and shares that
    tuple's hash.  The coefficient is an int, or a Fraction whose
    denominator is > 1.  The public constructor reads it through Fraction,
    coerces the exponents to int tuples, rejecting a non-integral exponent,
    and validates the denominator vectors.  Internal producers build terms
    with `_term`, which keeps the coefficient rule and the validation, not
    the coercions.
    """

    __slots__ = ()

    def __new__(cls, coeff, numer, denoms=()):
        c = Fraction(coeff)
        numer = int_vector(numer)
        denoms = tuple(map(int_vector, denoms))
        for d in denoms:
            if not any(d):
                raise ValueError("denominator exponent vectors must be nonzero")
            if len(d) != len(numer):
                raise ValueError("denominator vector length mismatch")
        coeff = c.numerator if c.denominator == 1 else c
        return tuple.__new__(cls, (coeff, numer, denoms))


def _term(coeff, numer, denoms=()):
    """GFTerm from an int or Fraction coefficient and int tuples.

    The rules of `GFTerm.__new__` still hold: an integral Fraction
    becomes its int numerator, and every denominator vector is nonzero
    and as long as the numerator.
    """
    if type(coeff) is not int and coeff.denominator == 1:
        coeff = coeff.numerator
    n = len(numer)
    for d in denoms:
        if not any(d):
            raise ValueError("denominator exponent vectors must be nonzero")
        if len(d) != n:
            raise ValueError("denominator vector length mismatch")
    return tuple.__new__(GFTerm, (coeff, numer, denoms))


@dataclass(frozen=True)
class ShortGF:
    """A short GF: declared variable count, index bound and a list of terms.

    The public constructor coerces each term to a GFTerm and checks its
    arity and the index bound.  Internal producers whose terms are already
    valid GFTerms build the GF with `_gf`, which skips those checks.
    """

    nvars: int
    terms: tuple
    index_bound: int = None
    orientation: ExpansionDirection = None

    def __post_init__(self):
        if self.nvars < 0:
            raise ValueError("nvars must be nonnegative")
        terms = tuple(
            t if isinstance(t, GFTerm) else GFTerm(*t) for t in self.terms
        )
        object.__setattr__(self, "terms", terms)
        for t in terms:
            if len(t.numer) != self.nvars:
                raise ValueError("term arity does not match nvars")
        idx = max((len(t.denoms) for t in terms), default=0)
        if self.index_bound is None:
            object.__setattr__(self, "index_bound", idx)
        elif idx > self.index_bound:
            raise ValueError("term exceeds the declared index bound")


def _gf(nvars, terms, index_bound=None, orientation=None):
    """ShortGF of a tuple of valid GFTerms, without re-checking them.

    The caller guarantees what `ShortGF.__post_init__` would check: every
    term is a GFTerm of arity `nvars`, and none has more denominators than
    `index_bound`.  A `None` bound becomes the largest denominator count.
    """
    if index_bound is None:
        index_bound = max((len(t.denoms) for t in terms), default=0)
    f = object.__new__(ShortGF)
    object.__setattr__(f, "nvars", nvars)
    object.__setattr__(f, "terms", terms)
    object.__setattr__(f, "index_bound", index_bound)
    object.__setattr__(f, "orientation", orientation)
    return f


@dataclass(frozen=True)
class LatticeBox:
    """Product of half-open ranges [0, U_j), U_j >= 1."""

    sides: tuple

    def __post_init__(self):
        object.__setattr__(self, "sides", int_vector(self.sides))
        if any(u < 1 for u in self.sides):
            raise ValueError("box sides must be positive")

    @property
    def nvars(self):
        return len(self.sides)

    def contains(self, point):
        return all(0 <= x < u for x, u in zip(point, self.sides))

    def bounds(self):
        return [[0, u - 1] for u in self.sides]

    def volume(self):
        return prod(self.sides)

    def points(self):
        return product(*(range(u) for u in self.sides))


def as_box(box):
    """`box` itself when it is a LatticeBox, else the LatticeBox of its sides."""
    return box if isinstance(box, LatticeBox) else LatticeBox(tuple(box))


@dataclass
class CoefficientTable:
    """Exact coefficients over a box; absent keys are zero."""

    table: dict
    box: LatticeBox

    def __getitem__(self, point):
        return self.table.get(tuple(point), 0)

    def support(self):
        return {p for p, c in self.table.items() if c != 0}

    def is_zero_one(self):
        return all(c in (0, 1) for c in self.table.values())

    def __eq__(self, other):
        if isinstance(other, CoefficientTable):
            return self.support_with_values() == other.support_with_values()
        return NotImplemented

    def support_with_values(self):
        return {p: c for p, c in self.table.items() if c != 0}


def zero_gf(nvars):
    return ShortGF(nvars, ())


def monomial(nvars, point):
    return ShortGF(nvars, (GFTerm(1, tuple(point)),), orientation=direction_for(nvars))


def from_point_set(points, nvars):
    """Dense GF of a finite point set: one monomial term per point, index 0.

    Every point is checked against `nvars` here, so the GF is built with
    `_gf`, which does not check the terms again.
    """
    if nvars < 0:
        raise ValueError("nvars must be nonnegative")
    pts = sorted(set(map(int_vector, points)))
    for p in pts:
        if len(p) != nvars:
            raise ValueError("point arity mismatch")
    terms = tuple(_term(1, p) for p in pts)
    return _gf(nvars, terms, 0, direction_for(nvars))


def progression_gf(apex, vecs, counts, coeff=1):
    """coeff * t^apex * prod_j (1 - t^(counts[j] v_j)) / (1 - t^(v_j)), canonicalized.

    The GF of the points apex + sum_j m_j v_j, 0 <= m_j < counts[j]: an
    interval, a progression or a grid.  The product is expanded into its 2^k
    terms in mask order.  Dependent vectors count a point once per way of
    reaching it.  A count of 0 gives the zero series; a negative count, a
    non-integral entry, or a count list as long as `vecs` is not, raises
    ValueError.  `coeff` is an int or a Fraction.
    """
    if len(counts) != len(vecs) or any(c < 0 for c in counts):
        raise ValueError("need one nonnegative count per vector")
    apex = int_vector(apex)
    vecs = tuple(map(int_vector, vecs))
    n = len(apex)
    if any(len(v) != n or not any(v) for v in vecs):
        raise ValueError("need nonzero vectors as long as the apex")
    # every term has the denominators of coeff * t^apex / prod (1 - t^v_j),
    # so orienting that one term, the first in mask order, orients them all
    direction, (ps,) = direction_pairings(n, [vecs])
    first = _term(*_flip(coeff, apex, vecs, [-p for p in ps]))
    signs = (first.coeff, -first.coeff)
    steps = [tuple(c * x for x in v) for v, c in zip(vecs, int_vector(counts))]
    terms = [first]
    for mask in range(1, 1 << len(vecs)):
        numer = first.numer
        for j, step in enumerate(steps):
            if mask >> j & 1:
                numer = tuple(map(add, numer, step))
        terms.append(_term(signs[mask.bit_count() & 1], numer, first.denoms))
    return _gf(n, tuple(terms), len(vecs), direction)


def gf_index(f):
    """Maximum denominator count over terms; 0 for pure polynomials."""
    return max((len(t.denoms) for t in f.terms), default=0)


def _entry_bits(v):
    if v == 0:
        return 0
    return 1 + (abs(v) - 1).bit_length()  # ceil(log2|v|) + 1


def gf_length(f):
    """Total bit length of all constants in the displayed form."""
    total = 0
    for t in f.terms:
        pq = abs(t.coeff.numerator * t.coeff.denominator)
        total += _entry_bits(pq) if pq else 0
        for v in t.numer:
            total += _entry_bits(v)
        for d in t.denoms:
            for v in d:
                total += _entry_bits(v)
    return total


def is_canonical(f):
    if f.orientation is None:
        return False
    ell = f.orientation.ell
    return all(
        sum(e * b for e, b in zip(ell, d)) < 0 for t in f.terms for d in t.denoms
    )


def direction_pairings(nvars, vec_lists, direction=None):
    """The expansion direction a term list is oriented by, and the pairings.

    `vec_lists` holds one sequence of vectors per term.  The direction is
    `direction`, else `direction_for(nvars)`; when some vector pairs to zero
    with it, the moment-curve point `moment_vector(nvars, vecs, 2)` is taken
    instead.  Returns (direction, pairings), with one list of <ell, v> per
    term, () for a term with no vectors.  The fallback depends only on
    which pairings are zero, so denominators b and positive-form vectors -b
    choose the same direction.
    """

    def pair(ell):
        return [[sum(map(mul, ell, v)) for v in vs] if vs else () for vs in vec_lists]

    direction = direction or direction_for(nvars)
    pairings = pair(direction.ell)
    if not all(all(ps) for ps in pairings):
        ell = moment_vector(nvars, (v for vs in vec_lists for v in vs), 2)
        direction = ExpansionDirection(ell)
        pairings = pair(ell)
    return direction, pairings


def _flip(c, point, vecs, pairings):
    """(c, point, vecs), the term c * t^point / prod (1 - t^v), with each
    v whose pairing is negative flipped to -v, which negates c and moves
    the point to point - v.  The package's one orientation rule."""
    out = []
    for v, p in zip(vecs, pairings):
        if p < 0:
            c = -c
            point = tuple(map(sub, point, v))
            v = tuple(map(neg, v))
        out.append(v)
    return c, point, tuple(out)


def oriented(nvars, triples, direction=None):
    """(direction, triples), each `_flip` triple with every v that has
    <ell, v> < 0 flipped, ell being `direction_pairings`' choice: the
    positive forms of the terms `canonicalize` would make of the triples.
    A triple with nothing to flip is kept as the same object."""
    direction, pairings = direction_pairings(
        nvars, [vecs for _, _, vecs in triples], direction
    )
    return direction, [
        _flip(*t, ps) if ps and min(ps) < 0 else t
        for t, ps in zip(triples, pairings)
    ]


def positive_terms(f):
    """`[term_positive_form(t) for t in canonicalize(f).terms]` without
    building that GF: each term is the triple (c, a, b's), `oriented` under
    f's orientation."""
    return oriented(f.nvars, f.terms, f.orientation)[1]


def canonicalize(f):
    """Flip denominator vectors until all pair negatively with the direction.

    The flip identity 1/(1-t^b) = -t^(-b)/(1-t^(-b)) preserves the rational
    function (`_flip`).  The direction is f's own orientation, else
    `direction_for(f.nvars)`; when some denominator pairs to zero with it,
    the moment-curve point `moment_vector(n, denoms, 2)` is taken instead
    (`direction_pairings`).  f is returned itself when it is already
    canonical under its orientation.  Each pairing <ell, b> is computed once
    per direction tried, and a term with no vector to flip is kept as the
    same object.  To re-orient f, canonicalize a copy with the new one.
    """
    direction, pairings = direction_pairings(
        f.nvars, [t.denoms for t in f.terms], f.orientation
    )
    flips = [any(p > 0 for p in ps) for ps in pairings]
    if direction == f.orientation and not any(flips):
        return f
    terms = tuple(
        _term(*_flip(*t, [-p for p in ps])) if flip else t
        for t, ps, flip in zip(f.terms, pairings, flips)
    )
    return _gf(f.nvars, terms, f.index_bound, direction)


def canonical_sum(nvars, triples, index_bound=None, direction=None):
    """`normalized(canonicalize(_gf(nvars, terms, index_bound, direction)))`
    of the terms c * t^a / prod (1 - t^b) of a list of raw (c, a, bs),
    building a term only for a key whose sum is nonzero.

    Every triple, a zero one included, takes part in `direction_pairings`
    and in a `None` bound, and is `_flip`ped by its negated pairings.  The
    sums keep their keys (a, sorted bs) in first-occurrence order, a key
    whose sum is zero included, and the zero sums are then dropped.
    """
    direction, pairings = direction_pairings(
        nvars, [bs for _, _, bs in triples], direction
    )
    if index_bound is None:
        index_bound = max((len(bs) for _, _, bs in triples), default=0)
    acc = {}
    for (c, a, bs), ps in zip(triples, pairings):
        if ps:
            if max(ps) > 0:
                c, a, bs = _flip(c, a, bs, [-p for p in ps])
            if len(bs) > 1:
                bs = tuple(sorted(bs))
        key = (a, bs)
        hit = acc.get(key)
        acc[key] = c if hit is None else hit + c
    terms = tuple(_term(c, *key) for key, c in acc.items() if c)
    return _gf(nvars, terms, index_bound, direction)


def term_positive_form(term):
    """Rewrite a canonical term as c' * sum_{m >= 0} t^(apex + sum m_j v_j).

    Returns (coeff, apex, vecs), every denominator flipped (`_flip`) to
    pair positively: the expansion the oracle enumerates.
    """
    return _flip(*term, (-1,) * len(term.denoms))


def term_from_positive(coeff, apex, vecs):
    """Inverse of `term_positive_form`: the term whose denominators are the
    flipped vecs, with `coeff` an int or a Fraction."""
    return _term(*_flip(coeff, tuple(apex), vecs, (-1,) * len(vecs)))


def oracle_expand(f, box, limit=None):
    """Exact coefficient of t^x for every x in the box, by direct enumeration.

    Requires a canonicalized input; enumerates, per term, all multiplier
    tuples whose exponent stays inside the box (each step strictly increases
    the pairing with ell, which is bounded on the box, so the walk terminates).
    """
    box = as_box(box)
    if box.nvars != f.nvars:
        raise ValueError("box arity does not match nvars")
    if not is_canonical(f):
        raise NonCanonicalError("oracle_expand requires a canonicalized GF")
    ell = f.orientation.ell
    max_ell = sum(e * (u - 1) for e, u in zip(ell, box.sides))
    table = {}
    steps = 0
    for term in f.terms:
        coeff, apex, vecs = term_positive_form(term)
        if coeff == 0:
            continue
        weights = [sum(e * v for e, v in zip(ell, vec)) for vec in vecs]

        def rec(point, level, pairing):
            nonlocal steps
            steps += 1
            if limit is not None and steps > limit:
                raise ResourceLimitError("oracle expansion exceeded step limit")
            if pairing > max_ell:
                return
            if level == len(vecs):
                if box.contains(point):
                    table[point] = table.get(point, 0) + coeff
                return
            vec = vecs[level]
            w = weights[level]
            cur = point
            p = pairing
            while p <= max_ell:
                rec(cur, level + 1, p)
                cur = tuple(a + b for a, b in zip(cur, vec))
                p += w

        rec(apex, 0, sum(e * a for e, a in zip(ell, apex)))
    table = {k: v for k, v in table.items() if v != 0}
    return CoefficientTable(table, box)


def normalized(f):
    """Merge terms with the same numerator and denominator multiset, and
    drop zero terms.

    The terms keep the order of their keys' first occurrences, with their
    denominator vectors sorted.  A term whose key occurs once and whose
    denominators are already sorted is kept as the same object.  The
    package's own results are merged by `canonical_sum`, which gives this
    pass of their canonical GF without building a term per raw triple.
    """
    acc = {}
    for t in f.terms:
        d = t.denoms
        key = (t.numer, d if len(d) < 2 else tuple(sorted(d)))
        hit = acc.get(key)
        acc[key] = (t.coeff, t) if hit is None else (hit[0] + t.coeff, None)
    terms = tuple(
        t if t is not None and t.denoms == key[1] else _term(c, *key)
        for key, (c, t) in acc.items()
        if c
    )
    return _gf(f.nvars, terms, f.index_bound, f.orientation)


def concat(f, g):
    """Plain term concatenation (the sum f + g)."""
    if f.nvars != g.nvars:
        raise ValueError("variable count mismatch")
    bound = max(f.index_bound, g.index_bound)
    orient = f.orientation if f.orientation == g.orientation else None
    return ShortGF(f.nvars, f.terms + g.terms, bound, orient)


def scale(f, c):
    c = Fraction(c)
    return ShortGF(
        f.nvars,
        tuple(GFTerm(t.coeff * c, t.numer, t.denoms) for t in f.terms),
        f.index_bound,
        f.orientation,
    )


# ---------------------------------------------------------------------------
# text format


def format_gf(f):
    """One object per file: header line then one line per term.

    Round-trips bit-exactly: read(format(f)) == f up to orientation.
    """
    lines = [f"gf nvars={f.nvars} index={f.index_bound}"]
    for t in f.terms:
        a = ",".join(str(x) for x in t.numer)
        b = ";".join(",".join(str(x) for x in d) for d in t.denoms)
        c = f"{t.coeff.numerator}/{t.coeff.denominator}"
        lines.append(f"term c={c} a={a} b={b}")
    return "\n".join(lines) + "\n"


def parse_gf(text):
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("gf "):
        raise FormatError("missing 'gf' header")
    header = lines[0].split()
    fields = dict(part.split("=", 1) for part in header[1:] if "=" in part)
    try:
        nvars = int(fields["nvars"])
        index_bound = int(fields["index"])
    except (KeyError, ValueError) as exc:
        raise FormatError(f"bad header: {lines[0]!r}") from exc
    terms = []
    for ln in lines[1:]:
        if not ln.startswith("term "):
            raise FormatError(f"unexpected line: {ln!r}")
        parts = dict(p.split("=", 1) for p in ln.split()[1:] if "=" in p)
        try:
            p, q = parts["c"].split("/")
            coeff = Fraction(int(p), int(q))
            numer = tuple(int(x) for x in parts["a"].split(",")) if parts["a"] else ()
            braw = parts.get("b", "")
            denoms = tuple(
                tuple(int(x) for x in grp.split(","))
                for grp in braw.split(";")
                if grp
            )
            term = GFTerm(coeff, numer, denoms)
        except (KeyError, ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"bad term line: {ln!r}") from exc
        if len(numer) != nvars:
            raise FormatError(f"term arity {len(numer)} != nvars {nvars}")
        terms.append(term)
    try:
        return ShortGF(nvars, tuple(terms), index_bound)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def write_gf(f, path):
    with open(path, "w") as fh:
        fh.write(format_gf(f))


def read_gf(path):
    with open(path) as fh:
        return parse_gf(fh.read())
