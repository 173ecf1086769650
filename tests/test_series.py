"""The Todd-series kernel behind evaluation at one and variable collapse."""

from fractions import Fraction
from itertools import product
from math import exp, expm1, factorial, isclose, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shortgf import GFTerm, InfiniteSupportError, ShortGF, evaluate_at_one
from shortgf._series import limit_series, todd_coefficients
from shortgf.gfcore import moment_vector


def _inverse(a):
    """Power-series inverse by the O(k^2) recurrence that the Todd table replaces."""
    out = [1 / Fraction(a[0])]
    for i in range(1, len(a)):
        out.append(-sum(a[j] * out[i - j] for j in range(1, i + 1)) / a[0])
    return out


def _expm1_over_x(nu, k):
    """(e^x - 1)/x at x = nu*eps: the coefficients nu^i/(i+1)! for i <= k."""
    return [Fraction(nu**i, factorial(i + 1)) for i in range(k + 1)]


def _times(a, b):
    return [sum(a[j] * b[i - j] for j in range(i + 1)) for i in range(len(a))]


def _fraction_limit_series(alpha, nus, order):
    """(lead, coeffs): the Fraction form of `limit_series`, term by term.

    exp(alpha*eps) * prod_j 1/(1 - e^(nu_j*eps)) = lead * eps^-len(nus) *
    sum_i coeffs[i] eps^i, with lead = prod_j (-1/nu_j).
    """
    todd = todd_coefficients(order)
    coeffs = [Fraction(alpha**i, factorial(i)) for i in range(order + 1)]
    lead = Fraction(1)
    for nu in nus:
        lead *= Fraction(-1, nu)
        out = [Fraction(0)] * (order + 1)
        for j, t in enumerate(todd):
            if t:
                w = t * nu**j
                for i in range(order + 1 - j):
                    if coeffs[i]:
                        out[i + j] += coeffs[i] * w
        coeffs = out
    return lead, coeffs


def _as_fractions(alpha, nus, order):
    den, ints = limit_series(alpha, nus, order)
    assert all(type(x) is int for x in (den, *ints))
    return [Fraction(x, den) for x in ints]


NONZERO = st.integers(-30, 30).filter(bool)


def test_todd_table_matches_series_inverse():
    assert todd_coefficients(12) == _inverse(_expm1_over_x(1, 12))


def test_todd_table_known_bernoulli_values():
    t = todd_coefficients(12)
    assert len(t) == 13
    assert t[0] == 1 and t[1] == Fraction(-1, 2)
    assert t[2] == Fraction(1, 12) and t[4] == Fraction(-1, 720)
    assert t[6] == Fraction(1, 30240)
    assert all(t[i] == 0 for i in range(3, 13, 2))


@settings(max_examples=80, deadline=None)
@given(
    alpha=st.integers(-50, 50),
    nus=st.lists(NONZERO, max_size=4),
    order=st.integers(0, 6),
)
def test_limit_series_matches_reference_product(alpha, nus, order):
    coeffs = [Fraction(alpha**i, factorial(i)) for i in range(order + 1)]
    lead = Fraction(1)
    for nu in nus:
        lead *= Fraction(-1, nu)
        coeffs = _times(coeffs, _inverse(_expm1_over_x(nu, order)))
    assert _fraction_limit_series(alpha, nus, order) == (lead, coeffs)
    assert _as_fractions(alpha, nus, order) == [lead * c for c in coeffs]


@settings(max_examples=40, deadline=None)
@given(
    alpha=st.integers(-5, 5),
    nus=st.lists(st.integers(-5, 5).filter(bool), min_size=1, max_size=3),
)
def test_limit_series_is_the_laurent_expansion(alpha, nus):
    # exp(alpha e) / prod (1 - e^(nu e)) against e^-k * sum ints[i]/den e^i
    eps = 1e-3
    lead, coeffs = _fraction_limit_series(alpha, nus, 8)
    scaled = _as_fractions(alpha, nus, 8)
    assert scaled == [lead * c for c in coeffs]
    want = exp(alpha * eps)
    for nu in nus:
        want /= -expm1(nu * eps)
    got = sum(float(c) * eps**i for i, c in enumerate(scaled))
    assert isclose(got * eps ** -len(nus), want, rel_tol=1e-9)


def test_limit_series_scale():
    # K = 1: D = lcm(1, 2) = 2, so den = 1! * (-nu * 2) and ints are the
    # exp series [1, alpha] times the scaled Todd series [2, -nu]
    assert limit_series(3, [5], 1) == (-10, [2, 6 - 5])
    assert limit_series(3, [], 2) == (2, [2, 6, 9])


# ---------------------------------------------------------------------------
# evaluate_at_one against a Fraction-only reference


def _reference_at_one(f):
    """(value, poles) by the Fraction product, with the same moment-curve lambda.

    poles[j] is the summed coefficient of eps^-j, j >= 1.
    """
    constraints = [d for t in f.terms for d in t.denoms]
    lam = moment_vector(f.nvars, constraints, 1) if constraints else None
    total = Fraction(0)
    poles = {}
    for term in f.terms:
        k = len(term.denoms)
        if k == 0:
            total += term.coeff
            continue
        lead, coeffs = _fraction_limit_series(
            sum(x * y for x, y in zip(lam, term.numer)),
            [sum(x * y for x, y in zip(lam, b)) for b in term.denoms],
            k,
        )
        total += term.coeff * lead * coeffs[k]
        for j in range(1, k + 1):
            poles[j] = poles.get(j, 0) + term.coeff * lead * coeffs[k - j]
    return total, poles


COEFFS = st.sampled_from(
    [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 3), Fraction(-5, 7)]
)


@st.composite
def gf_sums(draw):
    """(f, count or None): finite progression blocks plus raw terms.

    A block c * t^a * prod_j (1 - t^(m_j b_j)) / (1 - t^(b_j)), expanded
    into its corner terms, has finite support and sums to c * prod_j m_j;
    a raw term c * t^a / prod_j (1 - t^(b_j)) with 0..3 denominators
    usually makes the support infinite.
    """
    n = draw(st.integers(1, 3))
    point = st.tuples(*[st.integers(-3, 3)] * n)
    vector = st.tuples(*[st.integers(-2, 2)] * n).filter(any)
    terms = []
    count = Fraction(0)
    for _ in range(draw(st.integers(0, 3))):
        c, a = draw(COEFFS), draw(point)
        sides = draw(st.lists(st.tuples(vector, st.integers(1, 3)), max_size=3))
        for corner in product((0, 1), repeat=len(sides)):
            shift = [sum(e * m * b[i] for e, (b, m) in zip(corner, sides)) for i in range(n)]
            terms.append(
                GFTerm(
                    c * (-1) ** sum(corner),
                    tuple(x + y for x, y in zip(a, shift)),
                    tuple(b for b, _ in sides),
                )
            )
        count += c * prod(m for _, m in sides)
    raw = draw(st.lists(st.tuples(COEFFS, point, st.lists(vector, max_size=3)), max_size=2))
    terms += [GFTerm(c, a, tuple(bs)) for c, a, bs in raw]
    return ShortGF(n, tuple(terms)), None if raw else count


# t/(1 - t)^2 = 1/(1 - t)^2 - 1/(1 - t): the eps^-1 poles of the two terms
# cancel, the eps^-2 pole does not
POLE_2_ONLY = ShortGF(1, (GFTerm(1, (0,), ((1,), (1,))), GFTerm(-1, (0,), ((1,),))))


@settings(max_examples=150, deadline=None)
@given(gf=gf_sums())
@example(gf=(POLE_2_ONLY, None))
def test_evaluate_at_one_matches_fraction_reference(gf):
    f, count = gf
    value, poles = _reference_at_one(f)
    if any(poles.values()):
        with pytest.raises(InfiniteSupportError):
            evaluate_at_one(f)
    else:
        assert evaluate_at_one(f) == value
    if count is not None:
        assert not any(poles.values()) and value == count


def test_cancelled_first_pole_still_raises():
    _, poles = _reference_at_one(POLE_2_ONLY)
    assert poles[1] == 0 and poles[2] != 0
    with pytest.raises(InfiniteSupportError):
        evaluate_at_one(POLE_2_ONLY)
