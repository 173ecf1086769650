"""Monomial substitution on short GFs, including exact limits.

The exponent map x -> V x (+ shift) sends a term c t^a / prod(1 - t^b) to
c u^(Va) / prod(1 - u^(Vb)).  When some V b = 0 the substituted factor is
singular; for finite-support inputs the total is still a Laurent polynomial,
and the correct value is the eps^0 coefficient after perturbing the
substitution by t_j <- u^(V e_j) * exp(eps * lam_j), where lam is the point
(1, k, k^2, ..) of the moment curve with the least k >= 1 at which no
collapsed vector pairs to zero (`moment_vector`).  Each collapsed factor
1/(1 - e^(nu*eps)) is -1/(nu*eps) times the Todd series
x/(e^x - 1) = sum_i B_i x^i / i! at x = nu*eps (`limit_series`);
surviving factors contribute series whose coefficients are m-th moment sums

    sum_{m>=0} m^i w^m = A_i(w) / (1-w)^(i+1),    w = u^(Vb),

with A_i the classical Eulerian-style moment polynomials.  Expanding those
numerators monomial by monomial yields short GF terms again, with index at
most the original term's denominator count.

`_substitute_positive` does the work on terms in positive form (c, apex,
vecs), oriented as `canonicalize` orients them: `substitute` hands over a
GF's `positive_terms`, `barvinok.lattice_gf_mapped` Brion's cone triples in
that orientation (`gfcore.oriented`), so they never become a z-space GF.
Its output triples go to `gfcore.canonical_sum`, which orients each by
one flip and builds a term only for a key whose sum is nonzero.
"""

from fractions import Fraction
from math import factorial, gcd
from operator import mul

from . import _linalg as la
from ._series import eulerian_polynomials, limit_series
from .errors import InfiniteSupportError, ZeroImageError
from .gfcore import canonical_sum, moment_vector, positive_terms


def substitute(
    f,
    vrows,
    out_nvars,
    shift=None,
    coeff_factor=1,
    allow_collapse=False,
):
    """Apply the exponent map x -> V x + shift to a short GF.

    vrows: out_nvars rows of length f.nvars, and shift out_nvars entries;
    ValueError otherwise.  With allow_collapse=False a
    denominator image of zero raises ZeroImageError; with True the input must
    have finite support and the exact limit is taken.  The result is
    canonical and has its identical terms merged.  The positive forms of
    f's canonical terms (`positive_terms`) go to `_substitute_positive`.
    """
    if len(vrows) != out_nvars or any(len(r) != f.nvars for r in vrows):
        raise ValueError(
            f"the exponent map must have {out_nvars} rows of {f.nvars} entries"
        )
    if shift is None:
        shift = tuple(0 for _ in range(out_nvars))
    elif len(shift) != out_nvars:
        raise ValueError(f"the shift must have {out_nvars} entries")
    return _substitute_positive(
        f.nvars,
        positive_terms(f),
        vrows,
        out_nvars,
        shift,
        coeff_factor,
        allow_collapse,
    )


def _substitute_positive(
    nvars, triples, vrows, out_nvars, shift, coeff_factor, allow_collapse
):
    """`substitute` of the GF whose terms have the positive forms `triples`.

    Each triple (c, apex, vecs) stands for c * sum_{m >= 0} t^(apex + sum
    m_j v_j) in `nvars` variables, with every v already oriented as
    `canonicalize` orients the GF's denominators -v; the limit terms of
    collapsed vectors depend on that orientation.  `shift` is a tuple and
    `coeff_factor` an int or a Fraction.  A zero image raises
    ZeroImageError with the term's index and its canonical denominator -v.
    """
    collapsed_vecs = []
    per_term = []
    for ti, (c, apex, vecs) in enumerate(triples):
        images = tuple(
            tuple(sum(map(mul, row, v)) for row in vrows) for v in vecs
        )
        dead = [j for j, im in enumerate(images) if not any(im)]
        if dead and not allow_collapse:
            raise ZeroImageError(ti, tuple(-x for x in vecs[dead[0]]))
        per_term.append((c, apex, vecs, images, dead))
        collapsed_vecs.extend(vecs[j] for j in dead)

    lam = moment_vector(nvars, collapsed_vecs, 1) if collapsed_vecs else None
    max_d = max((len(dead) for _, _, _, _, dead in per_term), default=0)
    eulerian = eulerian_polynomials(max_d) if max_d else None

    # (apex, vecs) -> [num, den]: the coefficient num / den summed over the
    # key's emissions, in first-emission order
    acc = {}

    def add(key, num, den):
        hit = acc.get(key)
        if hit is None:
            acc[key] = [num, den]
        elif hit[1] == den:
            hit[0] += num
        else:
            g = gcd(hit[1], den)
            hit[0] = hit[0] * (den // g) + num * (hit[1] // g)
            hit[1] = hit[1] // g * den

    for c, apex, vecs, images, dead in per_term:
        if c == 0:
            continue
        base_shift = tuple(
            s + sum(map(mul, row, apex)) for s, row in zip(shift, vrows)
        )
        scale = c * coeff_factor
        if not dead:
            add((base_shift, images), scale.numerator, scale.denominator)
            continue
        d = len(dead)
        alive = [j for j in range(len(vecs)) if j not in dead]
        nu_dead = [la.dot(lam, vecs[j]) for j in dead]
        den, series = limit_series(la.dot(lam, apex), nu_dead, d)
        nu_alive = [la.dot(lam, vecs[j]) for j in alive]
        scale_num, scale_den = scale.numerator, scale.denominator * den

        def emit(pos, remaining, num, fden, extra_apex, extra_vecs):
            # num / fden = prod over the alive factors of nu^i / i! * a_ik
            if pos == len(alive):
                total = num * series[remaining]
                if total:
                    add(
                        (
                            tuple(a + e for a, e in zip(base_shift, extra_apex)),
                            tuple(extra_vecs),
                        ),
                        scale_num * total,
                        scale_den * fden,
                    )
                return
            j = alive[pos]
            gvec = images[j]
            nu = nu_alive[pos]
            for i in range(remaining + 1):
                if i and nu == 0:
                    break
                poly = eulerian[i]
                for k, a_ik in enumerate(poly):
                    if a_ik == 0:
                        continue
                    emit(
                        pos + 1,
                        remaining - i,
                        num * nu**i * a_ik,
                        fden * factorial(i),
                        tuple(e + k * gv for e, gv in zip(extra_apex, gvec)),
                        extra_vecs + [gvec] * (i + 1),
                    )

        emit(0, d, 1, 1, tuple(0 for _ in range(out_nvars)), [])

    # the positive form (c, apex, vecs) is the raw term c u^apex / prod
    # (1 - u^v), a zero sum included: its canonical key may set a later
    # key's place.  An integral sum leaves as an int, with no Fraction built
    return canonical_sum(
        out_nvars,
        [
            (num // den if num % den == 0 else Fraction(num, den), apex, vecs)
            for (apex, vecs), (num, den) in acc.items()
        ],
    )


def evaluate_at_one(f):
    """Limit of f(t) as t -> (1,..,1), exact, via t_j <- exp(eps * lam_j).

    Each term contributes exp(<lam,a> eps) times, per denominator b, -1/(nu eps)
    and the Todd series x/(e^x - 1) = sum_i B_i x^i / i! at x = nu eps = <lam,b> eps.
    `limit_series` multiplies these out in integers, and the value and the
    pole sums are accumulated in integers over one common denominator, the
    lcm of the terms' denominators; the only Fraction is the returned one.

    Returns a Fraction: for a GF of finite support the cardinality of the
    support; for a short power series of finite support the sum of all
    coefficients.  A finite support makes f a Laurent polynomial, so the
    poles eps^-j (j >= 1) of the summed term series cancel; when they do not,
    f has infinite support and InfiniteSupportError is raised.  The check is
    necessary but not sufficient: poles can cancel at the moment-curve lam
    (`moment_vector` from 1) for some infinite supports, and then the
    returned value is meaningless.
    """
    constraints = [d for t in f.terms for d in t.denoms]
    lam = moment_vector(f.nvars, constraints, 1) if constraints else None
    # acc[j] / common is the coefficient of eps^-j of the summed series
    acc = [0] * (max((len(t.denoms) for t in f.terms), default=0) + 1)
    common = 1
    for term in f.terms:
        if term.coeff == 0:
            continue
        k = len(term.denoms)
        if k == 0:
            den, series = 1, [1]
        else:
            den, series = limit_series(
                la.dot(lam, term.numer), [la.dot(lam, b) for b in term.denoms], k
            )
        num = term.coeff.numerator
        den *= term.coeff.denominator
        if den < 0:
            num, den = -num, -den
        m = den // gcd(common, den)
        if m > 1:
            acc = [x * m for x in acc]
            common *= m
        num *= common // den
        for j in range(k + 1):
            acc[j] += num * series[k - j]
    if any(acc[1:]):
        raise InfiniteSupportError(
            "evaluation at one has a pole: the GF does not have finite support"
        )
    return Fraction(acc[0], common)
