import random
from itertools import permutations
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latlab import intlinalg
from latlab.intlinalg import (
    bareiss_det,
    certified_rank,
    char_poly,
    format_matrix,
    gram_det,
    gram_matrix,
    hnf,
    identity,
    kernel_basis,
    mat_mul,
    rank,
)


# reference oracles for the tests; the package itself does not need them
def transpose(M):
    return [list(col) for col in zip(*M)] if M else []


def in_row_span_hnf(H, v) -> bool:
    """Membership of v in the integer row span of an HNF matrix H."""
    w = list(v)
    pivots = {}
    for row in H:
        c = next((j for j, x in enumerate(row) if x), None)
        if c is not None:
            pivots[c] = row
    for c in range(len(w)):
        x = w[c]
        if not x:
            continue
        row = pivots.get(c)
        if row is None or x % row[c]:
            return False
        q = x // row[c]
        for j in range(c, len(w)):
            w[j] -= q * row[j]
    return not any(w)


def poly_eval_matrix(coeffs, M):
    """Evaluate a polynomial (coefficients highest first) at a square matrix."""
    n = len(M)
    acc = [[0] * n for _ in range(n)]
    for c in coeffs:
        acc = mat_mul(acc, M)
        for i in range(n):
            acc[i][i] += c
    return acc


small_matrix = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r, max_size=r,
        )
    )
)


def test_hnf_examples():
    assert hnf([[2, 4], [1, 3]]) == [[1, 1], [0, 2]]
    assert hnf(identity(3)) == identity(3)
    assert hnf([[0, 0], [0, 0]]) == [[0, 0], [0, 0]]


@settings(max_examples=100, deadline=None)
@given(small_matrix)
def test_hnf_idempotent_and_span_preserving(M):
    H = hnf(M)
    assert hnf(H) == H
    for row in M:
        assert in_row_span_hnf(H, row)
    # appending span members must not change the canonical form
    H2 = hnf([list(r) for r in M] + [list(r) for r in H])
    assert intlinalg.nonzero_rows(H2) == intlinalg.nonzero_rows(H)


@settings(max_examples=60, deadline=None)
@given(small_matrix)
def test_rank_equals_rank_of_transpose(M):
    assert rank(M) == rank(transpose(M))


def _square(M):
    k = min(len(M), len(M[0]))
    return [row[:k] for row in M[:k]]


square_matrix = small_matrix.map(_square)
# the last row is the sum of the others
singular_matrix = square_matrix.filter(lambda M: len(M) > 1).map(
    lambda M: M[:-1] + [[sum(col) for col in zip(*M[:-1])]])


def _leibniz_det(M):
    n = len(M)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= M[i][j]
        total += term
    return total


@settings(max_examples=150, deadline=None)
@given(st.one_of(square_matrix, singular_matrix))
@example([[0, 1], [1, 0]])  # one row swap
@example([[0, 0, 2], [3, 0, 0], [0, 5, 1]])  # two row swaps
@example([[1, 2, 3], [2, 4, 6], [0, 0, 1]])  # singular, a pivot column skipped
def test_bareiss_det_matches_leibniz(M):
    assert bareiss_det(M) == _leibniz_det(M)


@settings(max_examples=100, deadline=None)
@given(small_matrix)
def test_certified_rank_matches_bareiss_rank(M):
    r = rank(M)
    with mock.patch.object(intlinalg, "rank", wraps=intlinalg.rank) as fallback:
        # every minor is far below the prime, so a cap equal to the rank is
        # certified by the modular pass alone
        assert certified_rank(M, r) == r
        assert fallback.call_count == 0
        # the modular rank cannot reach a cap above the rank, so Bareiss decides
        assert certified_rank(M, r + 1) == r
        assert fallback.call_count == 1


def test_rank_examples():
    assert rank(identity(4)) == 4
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[0, 0], [0, 0]]) == 0


def _random_unimodular(n, rng):
    U = identity(n)
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        for t in range(n):
            U[i][t] += c * U[j][t]
    return U


def test_gram_det_examples_and_unimodular_invariance():
    assert gram_det(identity(3)) == 1
    rng = random.Random(7)
    B = [[2, 0, 1, -1], [0, 3, 1, 0], [1, 1, 0, 5]]
    d = gram_det(B)
    for _ in range(5):
        U = _random_unimodular(3, rng)
        assert gram_det(mat_mul(U, B)) == d


def test_gram_det_singular():
    with pytest.raises(ValueError, match="singular Gram"):
        gram_det([[1, 2], [2, 4]])


def test_char_poly_examples():
    assert char_poly([[0, 0], [0, 0]]) == [1, 0, 0]
    assert char_poly([[1, 0], [0, 1]]) == [1, -2, 1]
    with pytest.raises(ValueError):
        char_poly([[1, 2, 3], [4, 5, 6]])


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                       min_size=n, max_size=n)
))
def test_cayley_hamilton(M):
    coeffs = char_poly(M)
    n = len(M)
    assert poly_eval_matrix(coeffs, M) == [[0] * n for _ in range(n)]


def test_cayley_hamilton_size_ten():
    rng = random.Random(11)
    for _ in range(3):
        M = [[rng.randrange(-3, 4) for _ in range(10)] for _ in range(10)]
        coeffs = char_poly(M)
        assert poly_eval_matrix(coeffs, M) == [[0] * 10 for _ in range(10)]


def test_kernel_sum_zero():
    basis = kernel_basis(3, ((((1, 1, 1)), 0),))
    assert len(basis) == 2
    for row in basis:
        assert sum(row) == 0


def test_kernel_two_z_squared():
    basis = kernel_basis(2, (((1, 0), 2), ((0, 1), 2)))
    assert len(basis) == 2
    assert gram_det(basis) == 16


def test_kernel_rank7_example():
    rows = (((1,) * 9, 0), (tuple(range(1, 10)), 0))
    basis = kernel_basis(9, rows)
    assert len(basis) == 7
    assert gram_det(basis) == 540


def test_kernel_box_completeness():
    # every small integer vector satisfying the congruences lies in the span
    basis = kernel_basis(3, (((1, 2, 3), 0), ((1, 0, 1), 2)))
    H = hnf(basis)
    for a in range(-3, 4):
        for b in range(-3, 4):
            for c in range(-3, 4):
                v = (a, b, c)
                satisfies = (a + 2 * b + 3 * c == 0) and ((a + c) % 2 == 0)
                assert in_row_span_hnf(H, v) == satisfies


def test_kernel_no_rows_is_identity():
    assert kernel_basis(3, ()) == identity(3)


def test_gram_matrix_values():
    B = [[1, -1, 0], [0, 1, -1]]
    assert gram_matrix(B) == [[2, -1], [-1, 2]]


def test_matrix_text_roundtrip():
    assert format_matrix([[1, -2, 3], [0, 5, -7]]) == "2 3\n1 -2 3\n0 5 -7\n"
