"""The Todd-series kernel behind evaluation at one and variable collapse."""

from fractions import Fraction
from math import exp, expm1, factorial, isclose

from hypothesis import given, settings
from hypothesis import strategies as st

from shortgf._series import limit_series, todd_coefficients


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
    assert limit_series(alpha, nus, order) == (lead, coeffs)


@settings(max_examples=40, deadline=None)
@given(
    alpha=st.integers(-5, 5),
    nus=st.lists(st.integers(-5, 5).filter(bool), min_size=1, max_size=3),
)
def test_limit_series_is_the_laurent_expansion(alpha, nus):
    # exp(alpha e) / prod (1 - e^(nu e)) against lead * e^-k * sum coeffs e^i
    eps = 1e-3
    lead, coeffs = limit_series(alpha, nus, 8)
    want = exp(alpha * eps)
    for nu in nus:
        want /= -expm1(nu * eps)
    got = float(lead) * sum(float(c) * eps**i for i, c in enumerate(coeffs))
    assert isclose(got * eps ** -len(nus), want, rel_tol=1e-9)
