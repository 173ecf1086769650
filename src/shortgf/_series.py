"""Exact series for the exponential-substitution limits.

Evaluating a short GF at the all-ones point, and specializing variables whose
denominator exponents collapse to zero, both substitute t_j <- exp(eps*lam_j)
and read one coefficient of a Laurent series in eps.  A term t^a / prod_j
(1 - t^(b_j)) becomes exp(alpha*eps) * prod_j 1/(1 - e^(nu_j*eps)), with
alpha = <lam, a>, nu_j = <lam, b_j>, and

    1/(1 - e^(nu*eps)) = -1/(nu*eps) * Td(nu*eps),
    Td(x) = x/(e^x - 1) = sum_i B_i x^i / i!,

the Todd series, whose coefficients B_i/i! are tabled once for all terms.

The product is taken in integers.  Truncated after eps^K, the exp series
times K! has integer coefficients K!/i! * alpha^i, and the Todd table times
the lcm D of its denominators has integer entries D * B_i/i!.  With k factors
the product is then K! * D^k times the true series, and `limit_series`
returns it with that scale and the leads -1/nu_j folded into one integer
denominator K! * prod_j (-nu_j * D).  No Fraction is made while the
series is multiplied out; a caller divides by that denominator only where
it needs an exact value.
"""

from fractions import Fraction
from functools import cache
from math import factorial, lcm

_TODD = [Fraction(1)]  # _TODD[i] = B_i / i!


def todd_coefficients(order):
    """B_0/0!, .., B_order/order!, the coefficients of x/(e^x - 1).

    The table grows on demand from sum_{j<=i} B_j/j! / (i-j+1)! = 0 for i >= 1,
    the coefficients of Td(x) * (e^x - 1)/x = 1.
    """
    while len(_TODD) <= order:
        i = len(_TODD)
        _TODD.append(-sum(_TODD[j] / factorial(i - j + 1) for j in range(i)))
    return _TODD[: order + 1]


@cache
def _scaled_tables(order):
    """The integer exp weights K!/i!, the lcm D and the Todd table times D."""
    todd = todd_coefficients(order)
    d = lcm(*(t.denominator for t in todd))
    kfact = factorial(order)
    return (
        tuple(kfact // factorial(i) for i in range(order + 1)),
        d,
        tuple(int(t * d) for t in todd),
    )


def limit_series(alpha, nus, order):
    """(den, ints) with exp(alpha*eps) * prod_j 1/(1 - e^(nu_j*eps)) =
    eps^-len(nus) * sum_i Fraction(ints[i], den) eps^i, truncated after
    eps^order.

    Each nu_j is nonzero.  ints[i] is the eps^i coefficient of
    exp(alpha*eps) * prod_j Td(nu_j*eps) times K! * D^k (K = order, k =
    len(nus), D the lcm of the denominators of `todd_coefficients(K)`), all in
    integers: the exp series enters as K!/i! * alpha^i and each Todd factor
    as D * B_j/j! * nu^j.  den = K! * prod_j (-nu_j * D) carries that scale
    and the lead prod_j (-1/nu_j); it may be negative.
    """
    weights, d, todd = _scaled_tables(order)
    coeffs = [w * alpha**i for i, w in enumerate(weights)]
    den = weights[0]
    for nu in nus:
        den *= -nu * d
        out = [0] * (order + 1)
        for j, t in enumerate(todd):
            if t:
                w = t * nu**j
                for i in range(order + 1 - j):
                    if coeffs[i]:
                        out[i + j] += coeffs[i] * w
        coeffs = out
    return den, coeffs


def eulerian_polynomials(max_order):
    """Coefficient lists of the polynomials A_i with sum_{m>=0} m^i w^m = A_i(w)/(1-w)^(i+1).

    A_0 = 1, A_1 = w, A_2 = w + w^2, ...; entry [i][k] is the coefficient of w^k.
    Recurrence: A_i = w (1-w) A_{i-1}' + i w A_{i-1}.
    """
    polys = [[1]]
    for i in range(1, max_order + 1):
        prev = polys[-1]
        deriv = [k * prev[k] for k in range(1, len(prev))]  # A'_{i-1}
        # w * A'_{i-1}
        t1 = [0] + deriv
        # -w^2 * A'_{i-1}
        t2 = [0, 0] + [-c for c in deriv]
        # i * w * A_{i-1}
        t3 = [0] + [i * c for c in prev]
        size = max(len(t1), len(t2), len(t3))
        cur = [0] * size
        for t in (t1, t2, t3):
            for k, c in enumerate(t):
                cur[k] += c
        while cur and cur[-1] == 0:
            cur.pop()
        polys.append(cur)
    return polys
