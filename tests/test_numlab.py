"""Number-theory pipelines against direct enumeration."""

import hashlib
import random
from math import isqrt

import pytest

import shortgf
from shortgf import (
    GFTerm,
    ShortGF,
    ap_threshold,
    coefficient,
    count_square_roots,
    count_square_roots_direct,
    divisor_sum,
    factor_semiprime_from_sigma,
    find_ap,
    format_gf,
    hadamard,
    prime_pi,
    r4_by_tuples,
    multiply,
    r4_coefficients,
    segment_set,
    sieve_primes,
    sigma_from_r4,
    signed_theta_gf,
)
from shortgf.errors import ResourceLimitError


class TestSegments:
    def test_squares_six(self):
        seg = segment_set("SQUARES", 6)
        assert seg.points == (0, 1, 4, 9, 16, 25, 36, 49)

    def test_primes_five(self):
        seg = segment_set("PRIMES", 5)
        assert seg.points == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
        assert len(seg.points) == 11

    def test_even_three(self):
        from shortgf import GFTerm, ShortGF, gf_equal_on_box

        seg = segment_set("EVEN", 3)
        assert seg.points == (0, 2, 4, 6)
        comb = ShortGF(
            1, (GFTerm(1, (0,), ((2,),)), GFTerm(-1, (8,), ((2,),)))
        )
        assert gf_equal_on_box(seg.gf, comb, (8,))

    def test_too_many_entries_raise_before_listing(self):
        # 2^100 squares, 2^199 evens, a sieve of 2^200 bytes: sizes known first
        for kind in ("SQUARES", "PRIMES", "EVEN"):
            with pytest.raises(ResourceLimitError, match="more than"):
                segment_set(kind, 200)

    def test_cap_counts_points_or_sieve_bytes(self, monkeypatch):
        monkeypatch.setattr(shortgf.numlab, "_SEGMENT_CAP", 16)
        assert len(segment_set("SQUARES", 8).points) == 16  # squares below 256
        assert len(segment_set("EVEN", 5).points) == 16
        assert segment_set("PRIMES", 4).points == (2, 3, 5, 7, 11, 13)
        for kind, r in (("SQUARES", 9), ("EVEN", 6), ("PRIMES", 5)):
            with pytest.raises(ResourceLimitError):
                segment_set(kind, r)


class TestSignedTheta:
    def test_terms(self):
        # weight 1 at zero and 2 at each positive square below 2^16
        f = signed_theta_gf(16)
        want = (GFTerm(1, (0,)),) + tuple(GFTerm(2, (k * k,)) for k in range(1, 256))
        assert f.terms == want and all(type(t.coeff) is int for t in f.terms)
        assert hashlib.sha256(format_gf(f).encode()).hexdigest() == (
            "dda5e66511cdde5515285b9f8c32d1503717011dc954f17816df794ca65a0342"
        )
        assert signed_theta_gf(16, K=100).terms == want[:11]

    def test_too_many_terms_raise_before_listing(self):
        # 2^50 terms: the count is known before the loop
        with pytest.raises(ResourceLimitError, match="more than"):
            signed_theta_gf(100)
        assert len(signed_theta_gf(100, K=99).terms) == 10

    def test_cap_counts_terms(self, monkeypatch):
        monkeypatch.setattr(shortgf.numlab, "_THETA_CAP", 16)
        assert len(signed_theta_gf(8).terms) == 16  # squares below 256
        assert len(signed_theta_gf(100, K=255).terms) == 16
        with pytest.raises(ResourceLimitError):
            signed_theta_gf(100, K=256)
        with pytest.raises(ResourceLimitError):
            signed_theta_gf(9)


class TestFourSquares:
    def test_small_values(self):
        a = r4_coefficients(10, 20)
        assert a[0] == 1
        assert a[1] == 8
        assert a[12] == 96

    def test_matches_signed_tuple_oracle(self):
        a = r4_coefficients(10, 30)
        for k in range(31):
            assert a[k] == r4_by_tuples(k), k

    def test_divisor_identity(self):
        a = r4_coefficients(12, 100)
        for k in range(1, 101):
            want = 8 * sum(d for d in range(1, k + 1) if k % d == 0 and d % 4)
            assert a[k] == want

    def test_theta_fourth_power_through_the_calculus(self):
        # the paper's truncated theta function as a short GF operand
        theta = signed_theta_gf(5)
        theta4 = multiply(multiply(theta, theta), multiply(theta, theta))
        a = r4_coefficients(5, 31)
        for k in range(32):
            assert coefficient(theta4, (k,)) == a[k], k


class TestSigma:
    def test_examples(self):
        a = r4_coefficients(10, 20)
        assert sigma_from_r4(1, a) == 1
        assert sigma_from_r4(12, a) == 28
        assert sigma_from_r4(16, a) == 31

    def test_matches_enumeration(self):
        a = r4_coefficients(12, 60)
        for k in range(1, 61):
            assert sigma_from_r4(k, a) == divisor_sum(k)

    def test_corruption_detected(self):
        with pytest.raises(ValueError):
            sigma_from_r4(2, {2: 7})


class TestFactoring:
    def test_examples(self):
        assert factor_semiprime_from_sigma(15, 24) == (3, 5)
        assert factor_semiprime_from_sigma(77, 96) == (7, 11)

    def test_non_semiprime_rejected(self):
        with pytest.raises(ValueError):
            factor_semiprime_from_sigma(16, 31)

    def test_random_semiprimes(self):
        rng = random.Random(3)
        primes = [p for p in sieve_primes(80) if p > 2]
        for _ in range(10):
            p, q = rng.sample(primes, 2)
            n = p * q
            assert factor_semiprime_from_sigma(n, divisor_sum(n)) == (
                min(p, q),
                max(p, q),
            )


class TestSquareCongruences:
    def test_mod_one(self):
        assert count_square_roots(0, 1, 3) == 4

    def test_mod_eight(self):
        assert count_square_roots(1, 8, 10) == 5

    def test_random_grid(self):
        rng = random.Random(5)
        for _ in range(15):
            alpha, beta, gamma = (
                rng.randint(0, 200),
                rng.randint(1, 200),
                rng.randint(1, 200),
            )
            assert count_square_roots(alpha, beta, gamma) == (
                count_square_roots_direct(alpha, beta, gamma)
            )


class TestPrimePi:
    def test_tiny(self):
        assert prime_pi(1) == 0

    def test_hundred(self):
        assert prime_pi(100) == 25

    def test_whole_segment(self):
        r = 10
        seg = segment_set("PRIMES", r)
        assert prime_pi((1 << r) - 1, r=r) == len(seg.points)

    def test_product_bytes_unchanged(self):
        # the Hadamard product prime_pi(1000, r=10) counts, as format_gf text
        seg = segment_set("PRIMES", 10)
        interval = ShortGF(1, (GFTerm(1, (0,), ((1,),)), GFTerm(-1, (1001,), ((1,),))))
        text = format_gf(hadamard(seg.gf, interval))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "0ca25a2467db8775f474772f0a92055f377bc2df2c632c3b99d402e99b9e4a50"
        )


class TestAPs:
    def test_triple(self):
        w = find_ap([1, 2, 3], 3)
        assert (w.start, w.difference, w.length) == (1, 1, 3)

    def test_four_terms(self):
        w = find_ap([1, 5, 9, 13], 4)
        assert (w.start, w.difference, w.length) == (1, 4, 4)

    def test_squares_ap4_free(self):
        seg = segment_set("SQUARES", 10)
        assert find_ap(seg.points, 4) is None

    def test_squares_contain_ap3(self):
        seg = segment_set("SQUARES", 10)
        w = find_ap(seg.points, 3)
        assert w is not None
        assert all(isqrt(t) ** 2 == t for t in w.terms())

    def test_short_lengths_rejected(self):
        with pytest.raises(ValueError):
            find_ap([1, 2], 2)

    def test_threshold(self):
        assert ap_threshold(1, 3, 2) == 18

    def test_interval_pigeonhole_smoke(self):
        # one disjoint cell covering an interval: any run longer than the
        # threshold contains progressions of every small length
        pts = list(range(30))
        for k in (2, 3):
            if len(pts) > ap_threshold(1, k, 1):
                assert find_ap(pts, k + 1) is not None
