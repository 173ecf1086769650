"""Integer linear-algebra kernels against Fraction references."""

from fractions import Fraction
from itertools import product

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shortgf._linalg import (
    det_int,
    enumerate_parallelepiped,
    matrix_inverse_fraction,
    scaled_inverse_int,
)


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
