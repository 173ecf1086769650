"""Number-theoretic pipelines over short GFs.

Truncated square/prime segments, four-square representation counts by exact
convolution with the divisor-sum identity, divisor-sum recovery and semiprime
factoring, square-congruence counting through Hadamard gadgets, prime
counting, and arithmetic-progression detection with the pigeonhole threshold
for existential formulas.
"""

from dataclasses import dataclass
from math import isqrt

from .calculus import box_range_gf, evaluate_at_one, hadamard
from .errors import ResourceLimitError
from .gfcore import GFTerm, ShortGF, from_point_set

# ---------------------------------------------------------------------------
# segments


@dataclass(frozen=True)
class Segment:
    """A truncated slice of a language of integers: points below 2^r."""

    r: int
    kind: str
    points: tuple
    gf: ShortGF


def _is_prime(n):
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def sieve_primes(limit):
    """Primes below `limit` by Eratosthenes; the reference for prime counting."""
    if limit < 3:
        return []
    flags = bytearray([1]) * limit
    flags[0] = flags[1] = 0
    i = 2
    while i * i < limit:
        if flags[i]:
            flags[i * i :: i] = bytearray(len(range(i * i, limit, i)))
        i += 1
    return [i for i in range(limit) if flags[i]]


_SEGMENT_CAP = 1 << 18  # most points (SQUARES, EVEN) or sieve bytes (PRIMES)


def segment_set(kind, r):
    """Point set and dense GF of a named segment below 2^r.  Raises
    ResourceLimitError, listing none, past `_SEGMENT_CAP` points of SQUARES
    or EVEN, or a PRIMES sieve longer than `_SEGMENT_CAP`."""
    bound = 1 << r
    sizes = dict(SQUARES=isqrt(bound - 1) + 1, PRIMES=bound, EVEN=(bound + 1) // 2)
    if kind not in sizes:
        raise ValueError(f"unknown segment kind {kind!r}")
    if sizes[kind] > _SEGMENT_CAP:
        raise ResourceLimitError(f"{kind} segment has more than {_SEGMENT_CAP} entries")
    if kind == "SQUARES":
        pts = [k * k for k in range(sizes[kind])]
    elif kind == "PRIMES":
        pts = sieve_primes(bound)
    else:
        pts = list(range(0, bound, 2))
    gf = from_point_set([(x,) for x in pts], 1)
    return Segment(r, kind, tuple(pts), gf)


# ---------------------------------------------------------------------------
# four squares and divisor sums


def r4_coefficients(r, K):
    """Counts of ordered four-square representations with signs, for k <= K.

    Fourth power of the signed square comb (weight 1 at zero, 2 at each
    positive square), by exact dense convolution truncated at K.
    """
    if K >= (1 << r):
        raise ValueError("K must be below 2^r")
    theta = [0] * (K + 1)
    k = 0
    while k * k <= K:
        theta[k * k] = 1 if k == 0 else 2
        k += 1

    def conv(a, b):
        out = [0] * (K + 1)
        for i, ai in enumerate(a):
            if ai:
                for j in range(0, K + 1 - i):
                    if b[j]:
                        out[i + j] += ai * b[j]
        return out

    g2 = conv(theta, theta)
    g4 = conv(g2, g2)
    return g4


def r4_by_tuples(k):
    """Brute-force count of signed 4-tuples with sum of squares k (oracle)."""
    count = 0
    m = isqrt(k)
    for a in range(-m, m + 1):
        ka = k - a * a
        if ka < 0:
            continue
        mb = isqrt(ka)
        for b in range(-mb, mb + 1):
            kb = ka - b * b
            if kb < 0:
                continue
            mc = isqrt(kb)
            for c in range(-mc, mc + 1):
                kc = kb - c * c
                if kc < 0:
                    continue
                d = isqrt(kc)
                if d * d == kc:
                    count += 1 if d == 0 else 2
    return count


_THETA_CAP = 1 << 18  # most terms signed_theta_gf lists


def signed_theta_gf(r, K=None):
    """The signed square comb as an index-0 short power series (coefficient 2
    at positive squares), truncated below min(2^r, K+1).  Raises
    ResourceLimitError, listing none, past `_THETA_CAP` terms, and
    ValueError for K < 0."""
    bound = 1 << r
    if K is not None:
        if K < 0:
            raise ValueError("K must be nonnegative")
        bound = min(bound, K + 1)
    if bound > _THETA_CAP**2:  # isqrt(bound - 1) + 1 > _THETA_CAP
        raise ResourceLimitError(f"signed theta has more than {_THETA_CAP} terms")
    terms = [GFTerm(1, (0,))]
    k = 1
    while k * k < bound:
        terms.append(GFTerm(2, (k * k,)))
        k += 1
    return ShortGF(1, tuple(terms))


def divisor_sum(k):
    total = 0
    for d in range(1, isqrt(k) + 1):
        if k % d == 0:
            total += d
            if d != k // d:
                total += k // d
    return total


def sigma_from_r4(k, a_table):
    """Divisor sum from four-square counts: s(k) = a(k)/8 collects divisors not
    divisible by four, and the 4-adic chain supplies the rest."""
    if k < 1:
        raise ValueError("k must be positive")
    a_k = a_table[k]
    if a_k % 8 != 0:
        raise ValueError(f"four-square count at {k} is not divisible by 8")
    s = a_k // 8
    if k % 4 == 0:
        return s + 4 * sigma_from_r4(k // 4, a_table)
    return s


def factor_semiprime_from_sigma(n, sigma):
    """Split n = p*q with distinct primes from sigma(n) = n + p + q + 1."""
    s = sigma - n - 1  # p + q
    disc = s * s - 4 * n
    if disc < 0:
        raise ValueError(f"{n} is not a distinct-prime semiprime for this sigma")
    root = isqrt(disc)
    if root * root != disc or (s - root) % 2 != 0:
        raise ValueError(f"{n} is not a distinct-prime semiprime for this sigma")
    p = (s - root) // 2
    q = (s + root) // 2
    if p * q != n or p < 2 or not _is_prime(p) or not _is_prime(q) or p == q:
        raise ValueError(f"{n} is not a distinct-prime semiprime for this sigma")
    return p, q


# ---------------------------------------------------------------------------
# square congruences and prime counting


def count_square_roots(alpha, beta, gamma):
    """#{x : 0 <= x <= gamma, x^2 = alpha mod beta} via the Hadamard gadget.

    Squares up to gamma^2 are intersected with the congruence-class comb
    t^alpha / (1 - t^beta) and the interval comb (1 - t^(gamma^2+1))/(1 - t),
    then counted by evaluation at one.  Bijective with the x themselves since
    squaring is injective on the nonnegative integers.
    """
    if alpha < 0 or beta < 1 or gamma < 1:
        raise ValueError("alpha >= 0, beta >= 1, gamma >= 1 required")
    r = 2 * max(1, (gamma - 1).bit_length() + 1)  # squares up to gamma^2 < 2^r
    seg = segment_set("SQUARES", r)
    cls = ShortGF(1, (GFTerm(1, (alpha % beta,), ((beta,),)),))
    trimmed = hadamard(seg.gf, box_range_gf([0], [gamma * gamma]))
    matched = hadamard(trimmed, cls)
    return int(evaluate_at_one(matched))


def count_square_roots_direct(alpha, beta, gamma):
    """Brute-force loop; the oracle for the gadget."""
    return sum(
        1 for x in range(gamma + 1) if (x * x - alpha) % beta == 0
    )


def prime_pi(n, r=None):
    """pi(n) by intersecting the prime segment with [0, n] and evaluating."""
    if n < 1:
        return 0
    if r is None:
        r = n.bit_length()
    if n >= (1 << r):
        raise ValueError("n must be below 2^r")
    seg = segment_set("PRIMES", r)
    h = hadamard(seg.gf, box_range_gf([0], [n]))
    return int(evaluate_at_one(h))


# ---------------------------------------------------------------------------
# arithmetic progressions


@dataclass(frozen=True)
class APWitness:
    start: int
    difference: int
    length: int

    def terms(self):
        return [self.start + i * self.difference for i in range(self.length)]


def find_ap(points, k):
    """First k-term arithmetic progression in the set, in lexicographic
    (start, difference) order; None when AP-free.  Quadratic scan over pairs."""
    if k < 3:
        raise ValueError("progressions of length < 3 are not searched")
    pts = sorted(set(points))
    index = set(pts)
    for i, start in enumerate(pts):
        for second in pts[i + 1 :]:
            d = second - start
            ok = True
            for step in range(2, k):
                if start + step * d not in index:
                    ok = False
                    break
            if ok:
                return APWitness(start, d, k)
    return None


def ap_threshold(n, k, m):
    """Pigeonhole bound: an existential formula with one free variable, n
    quantified variables and m disjoint cells whose truth set exceeds
    k^(n+1) * m must contain a nontrivial (k+1)-term progression."""
    if n < 1 or k < 1 or m < 1:
        raise ValueError("n, k, m must be positive")
    return k ** (n + 1) * m
