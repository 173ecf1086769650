"""Integer linear-algebra kernels against Fraction references."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import shortgf._linalg
from shortgf._linalg import (
    det_int,
    enumerate_parallelepiped,
    lattice_points,
    lll_reduce,
    matrix_inverse_fraction,
    scaled_inverse_int,
)
from shortgf.errors import ResourceLimitError


def square_matrices(max_n, bound):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-bound, bound), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )


def parallelepiped_reference(gen_cols):
    """Brute force over the bounding box, with lam = W^-1 x in Fractions."""
    d = len(gen_cols)
    w_rows = [[gen_cols[j][i] for j in range(d)] for i in range(d)]
    w_inv = matrix_inverse_fraction(w_rows)
    ranges = [
        range(
            sum(min(g[i], 0) for g in gen_cols),
            sum(max(g[i], 0) for g in gen_cols) + 1,
        )
        for i in range(d)
    ]
    out = []
    for pt in product(*ranges):
        lam = tuple(sum(r * x for r, x in zip(row, pt)) for row in w_inv)
        if all(0 <= x < 1 for x in lam):
            out.append((pt, lam))
    return sorted(out)


class TestScaledInverse:
    @settings(max_examples=200, deadline=None)
    @given(square_matrices(6, 9))
    def test_matches_fraction_inverse(self, w):
        assume(det_int(w) != 0)
        d, r = scaled_inverse_int(w)
        n = len(w)
        assert d == abs(det_int(w))
        assert all(isinstance(x, int) for row in r for x in row)
        for i in range(n):
            for j in range(n):
                assert sum(w[i][k] * r[k][j] for k in range(n)) == (
                    d if i == j else 0
                )
        ref = matrix_inverse_fraction(w)
        assert tuple(tuple(Fraction(x, d) for x in row) for row in r) == ref

    def test_singular_gives_none(self):
        assert scaled_inverse_int([[1, 2], [2, 4]]) is None
        assert scaled_inverse_int([[0, 0, 1], [0, 1, 0], [0, 2, 0]]) is None

    def test_unimodular_is_exact_inverse(self):
        w = [[2, 1, 0], [1, 1, 0], [3, 5, -1]]
        assert scaled_inverse_int(w) == (
            1,
            tuple(tuple(int(x) for x in row) for row in matrix_inverse_fraction(w)),
        )


class TestEnumerateParallelepiped:
    @settings(max_examples=150, deadline=None)
    @given(square_matrices(3, 4))
    def test_matches_fraction_reference(self, cols):
        cols = [tuple(c) for c in cols]
        assume(det_int(cols) != 0)
        got = enumerate_parallelepiped(cols)
        assert got == parallelepiped_reference(cols)
        assert len(got) == abs(det_int(cols))


@st.composite
def boxed_systems(draw):
    """1-4 variables, bounds within +-6, 0-5 rows with coefficients in [-4, 4]."""
    n = draw(st.integers(1, 4))
    bounds = [
        sorted(draw(st.lists(st.integers(-6, 6), min_size=2, max_size=2)))
        for _ in range(n)
    ]
    row = st.tuples(
        st.tuples(*[st.integers(-4, 4)] * n), st.integers(-30, 30)
    )
    return draw(st.lists(row, max_size=5)), bounds


def lattice_points_reference(rows, bounds):
    """Every box point that satisfies every row, in lexicographic order."""
    return [
        pt
        for pt in product(*(range(lo, hi + 1) for lo, hi in bounds))
        if all(sum(c * x for c, x in zip(coeffs, pt)) <= rhs for coeffs, rhs in rows)
    ]


class TestLatticePoints:
    @settings(max_examples=150, deadline=None)
    @given(boxed_systems(), st.integers(0, 40))
    def test_matches_brute_force(self, system, limit):
        rows, bounds = system
        want = lattice_points_reference(rows, bounds)
        assert lattice_points(rows, bounds) == want
        assert lattice_points(rows, bounds, first_only=True) == want[:1]
        if len(want) > limit:
            with pytest.raises(ResourceLimitError):
                lattice_points(rows, bounds, limit=limit)
        else:
            assert lattice_points(rows, bounds, limit=limit) == want

    def test_empty_region_of_a_huge_box(self):
        # no point of [0, 2^20)^5 has x0 + x4 <= -1; a search that checks
        # the row only once x4 is fixed would visit 2^80 prefixes
        bounds = [[0, (1 << 20) - 1]] * 5
        rows = [((1, 0, 0, 0, 1), -1)]
        assert lattice_points(rows, bounds, first_only=True) == []


class TestLLL:
    # consecutive Fibonacci numbers F20, F21, F22: unimodular, badly skewed
    BASIS = [(6765, 10946), (10946, 17711)]

    def test_reduces_fibonacci_basis(self):
        reduced = lll_reduce(self.BASIS)
        assert abs(det_int(reduced)) == 1
        assert max(abs(x) for row in reduced for x in row) == 1

    def test_round_cap_raises(self, monkeypatch):
        monkeypatch.setattr(shortgf._linalg, "_LLL_MAX_ROUNDS", 1)
        with pytest.raises(ResourceLimitError):
            lll_reduce(self.BASIS)
