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


def nonzero_rows(M):
    return [list(row) for row in M if any(row)]


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


def faddeev_leverrier(M):
    """Coefficients of det(t*I - M), highest degree first, by the
    Faddeev-LeVerrier recurrence; every division is exact, so the whole
    computation stays in the integers."""
    n = len(M)
    for row in M:
        if len(row) != n:
            raise ValueError("characteristic polynomial needs a square matrix")
    if n == 0:
        return [1]
    coeffs = [1]
    Mk = [list(row) for row in M]
    for k in range(1, n + 1):
        ck, r = divmod(-sum(Mk[i][i] for i in range(n)), k)
        if r:
            raise ArithmeticError("Faddeev-LeVerrier division must be exact")
        coeffs.append(ck)
        if k == n:
            break
        for i in range(n):
            Mk[i][i] += ck
        Mk = mat_mul(M, Mk)
    return coeffs


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
    assert nonzero_rows(H2) == nonzero_rows(H)


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


def _square(n):
    return st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                    min_size=n, max_size=n)


def _zero_row(M, i):
    M[i] = [0] * len(M)
    return M


def _strictly_upper(M):
    return [[x if j > i else 0 for j, x in enumerate(row)] for i, row in enumerate(M)]


# general (non-symmetric) squares, squares with a forced zero row (singular)
# and strictly upper-triangular squares (nilpotent)
square_matrix = st.integers(1, 8).flatmap(lambda n: st.one_of(
    _square(n),
    st.builds(_zero_row, _square(n), st.integers(0, n - 1)),
    _square(n).map(_strictly_upper),
))


@settings(max_examples=150, deadline=None)
@given(square_matrix)
@example([])
@example([[0]])
@example([[0, 1, 2], [0, 0, 3], [0, 0, 0]])
@example([[1, 2], [2, 4]])
@example([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
def test_char_poly_matches_faddeev_leverrier(M):
    assert char_poly(M) == faddeev_leverrier(M)


def _prime_calls():
    return mock.patch.object(intlinalg, "_char_poly_mod_p", wraps=intlinalg._char_poly_mod_p)


def test_char_poly_joins_many_primes():
    rng = random.Random(5)
    for _ in range(3):
        M = [[rng.randint(-(1 << 40), 1 << 40) for _ in range(8)] for _ in range(8)]
        with _prime_calls() as calls:
            coeffs = char_poly(M)
        assert coeffs == faddeev_leverrier(M)
        assert max(abs(c).bit_length() for c in coeffs) > 300
        assert calls.call_count > 4


def test_char_poly_of_a_matrix_zero_mod_the_first_prime():
    p = intlinalg._prime(0)
    M = [[p * x for x in row] for row in ([1, -2, 0], [3, 1, 1], [0, 5, -1])]
    assert [[x % p for x in row] for row in M] == [[0] * 3] * 3
    with _prime_calls() as calls:
        assert char_poly(M) == faddeev_leverrier(M)
    assert calls.call_count > 1


def test_char_poly_of_a_large_diagonal():
    d = [(1 << 70) + 3, -(1 << 65), 7, -(1 << 90) - 1, 0, 1 << 61]
    M = [[d[i] if i == j else 0 for j in range(len(d))] for i in range(len(d))]
    expected = [1]
    for r in d:  # multiply by (t - r)
        expected = [a - r * b for a, b in zip(expected + [0], [0] + expected)]
    assert char_poly(M) == expected


def test_char_poly_raises_when_the_prime_list_runs_out():
    M = [[1 << 80, 1], [1, 1 << 80]]
    with mock.patch.object(intlinalg, "_PRIME_COUNT", 2):
        with pytest.raises(ArithmeticError, match="more than 2 primes"):
            char_poly(M)
    assert char_poly(M) == faddeev_leverrier(M)


def test_prime_list():
    assert intlinalg._prime(0) == intlinalg._CERT_PRIME == (1 << 61) - 1
    primes = [intlinalg._prime(i) for i in range(6)]
    assert primes == sorted(primes, reverse=True)
    assert all(q < 1 << 61 for q in primes)
    sympy = pytest.importorskip("sympy")
    assert primes == [sympy.prevprime(q) for q in [1 << 61] + primes[:-1]]


def test_miller_rabin():
    is_prime = intlinalg._is_prime
    small = [n for n in range(200) if n > 1 and all(n % q for q in range(2, n))]
    assert [n for n in range(200) if is_prime(n)] == small
    # a strong pseudoprime to every prime base up to 31, and a Carmichael number
    assert not is_prime(3825123056546413051)
    assert not is_prime(561)
    assert is_prime((1 << 61) - 1) and is_prime((1 << 89) - 1)
    assert not is_prime((1 << 61) + 1)


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
