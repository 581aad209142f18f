import random
from collections.abc import Mapping
from fractions import Fraction
from itertools import combinations_with_replacement, permutations
from math import comb, prod
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from references import (
    bareiss_rank,
    dense_hnf,
    dense_kernel_basis,
    faddeev_leverrier,
    gram_det_by_bareiss,
    identity,
    pivot_columns_mod_p_sequential,
    sequence_min_poly,
)

from latlab import families, intlinalg, lattice, perfection
from latlab.intlinalg import (
    bareiss_det,
    certified_rank,
    char_poly,
    echelon_gram_det,
    format_matrix,
    gram_det,
    gram_matrix,
    hnf,
    kernel_basis,
    krylov_min_poly,
    lll,
    mat_mul,
    rank,
    sym_power_rows,
)


# reference oracles for the tests; the package itself does not need them
def transpose(M):
    return [list(col) for col in zip(*M)] if M else []


def nonzero_rows(M):
    return [list(row) for row in M if any(row)]


def hnf_coordinates(H, v):
    """Integer coefficients of v over the nonzero rows of an HNF matrix H,
    or None when v is not in their integer row span."""
    w = list(v)
    rows = nonzero_rows(H)
    pivots = {next(j for j, x in enumerate(row) if x): i for i, row in enumerate(rows)}
    coeffs = [0] * len(rows)
    for c in range(len(w)):
        x = w[c]
        if not x:
            continue
        i = pivots.get(c)
        if i is None or x % rows[i][c]:
            return None
        q = coeffs[i] = x // rows[i][c]
        for j in range(c, len(w)):
            w[j] -= q * rows[i][j]
    return coeffs


def in_row_span_hnf(H, v) -> bool:
    """Membership of v in the integer row span of an HNF matrix H."""
    return hnf_coordinates(H, v) is not None


def rational_gram_schmidt(b):
    """(d, lam) of intlinalg.lll for independent rows b, by classical
    Gram-Schmidt over the rationals: d[i] is the product of the squared
    norms of b*_0 .. b*_(i-1) and lam[k][j] = d[j+1] mu_kj."""
    n = len(b)
    star, norms = [], []
    mu = [[Fraction(0)] * n for _ in range(n)]
    for k, row in enumerate(b):
        v = [Fraction(x) for x in row]
        for j in range(k):
            mu[k][j] = sum(x * y for x, y in zip(row, star[j])) / norms[j]
            v = [x - mu[k][j] * y for x, y in zip(v, star[j])]
        star.append(v)
        norms.append(sum(x * x for x in v))
    d = [Fraction(1)]
    for q in norms:
        d.append(d[-1] * q)
    lam = [[d[j + 1] * mu[k][j] if j < k else 0 for j in range(n)] for k in range(n)]
    return d, lam


def poly_eval_matrix(coeffs, M):
    """Evaluate a polynomial (coefficients highest first) at a square matrix."""
    n = len(M)
    acc = [[0] * n for _ in range(n)]
    for c in coeffs:
        acc = mat_mul(acc, M)
        for i in range(n):
            acc[i][i] += c
    return acc


def dense_rank_mod_p(rows, cap):
    """Dense elimination modulo _CERT_PRIME, the loop the sparse eliminator
    replaced: each row is reduced against every earlier pivot and pivots in
    its first nonzero column.  Returns (rank, rows consumed): the rows it
    read before it stopped, at the end or once the rank reaches cap."""
    p = intlinalg._CERT_PRIME
    pivots = []
    consumed = 0
    for row in rows:
        consumed += 1
        v = [x % p for x in row]
        for col, prow in pivots:
            f = v[col]
            if f:
                v = [(a - f * b) % p for a, b in zip(v, prow)]
        col = next((j for j, x in enumerate(v) if x), None)
        if col is None:
            continue
        inv = pow(v[col], -1, p)
        pivots.append((col, [(a * inv) % p for a in v]))
        if len(pivots) == cap:
            break
    return len(pivots), consumed


def assert_stops_with_the_dense_loop(rows, cap, dense_result):
    """The sparse eliminator on rows gives the rank in dense_result, the
    dense loop's (rank, rows consumed) on the same rows made dense, and the
    shortest prefix whose sparse rank reaches the cap is the prefix the
    dense loop read: it does not depend on the pivot order."""
    r, consumed = dense_result
    assert len(intlinalg._pivot_columns_mod_p(rows, cap)) == r
    if r == cap:
        assert (len(intlinalg._pivot_columns_mod_p(rows[:consumed - 1], cap)) < cap
                == len(intlinalg._pivot_columns_mod_p(rows[:consumed], cap)))


def dense_sym_power_rows(vectors, k):
    """Dense degree-k flattenings: every degree-k monomial evaluated at v, in
    the order of combinations_with_replacement over the coordinates."""
    return [list(map(prod, combinations_with_replacement(v, k))) for v in vectors]


def dense(rows):
    """Sparse {column: value} rows as a matrix over the columns they use."""
    cols = sorted(set().union(*rows))
    return [[row.get(c, 0) for c in cols] for row in rows]


def sparse(M):
    return [{j: x for j, x in enumerate(row) if x} for row in M]


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


@settings(max_examples=300, deadline=None)
@given(small_matrix)
@example([[0, 2, 4], [0, 3, 1], [5, 0, 1]])  # pivot row swapped up, unequal entries reduced
@example([[0, 1, 1], [2, 3, 5]])  # pivot swap of two rows holding the same columns 1 and 2
@example([[2, 4, 6], [1, 2, 3], [0, 0, 1]])  # a row vanishes under Euclid
@example([[1, 0, 3], [2, 5, 0]])  # fill-in into column 2, which the reduced row did not hold
@example([[1, 5], [0, -3]])  # a negative pivot, with an entry above it to reduce
def test_hnf_matches_the_dense_loop(M):
    assert hnf(M) == dense_hnf(M)


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


def test_bareiss_det_refuses_a_matrix_that_is_not_square():
    with pytest.raises(ValueError, match="square"):
        bareiss_det([[1, 2]])


_P = intlinalg._CERT_PRIME


@st.composite
def sparse_matrix(draw, entries=st.integers(-3, 3)):
    """Sparse rows over columns 0-20, with explicit zero entries, zero rows,
    duplicate rows and sums of two rows."""
    rows = draw(st.lists(st.dictionaries(st.integers(0, 20), entries, max_size=6), max_size=8))
    if rows:
        index = st.integers(0, len(rows) - 1)
        rows += [dict(rows[i]) for i in draw(st.lists(index, max_size=2))]
        for i, j in draw(st.lists(st.tuples(index, index), max_size=2)):
            a, b = rows[i], rows[j]
            rows.append({c: a.get(c, 0) + b.get(c, 0) for c in a.keys() | b.keys()})
    rows += [{}] * draw(st.integers(0, 2))
    return draw(st.permutations(rows))


# small entries next to entries that vanish or nearly vanish mod the prime
mod_p_entry = st.one_of(st.integers(-3, 3), st.sampled_from([_P, -_P, 2 * _P, _P - 1, _P + 1]))


@settings(max_examples=300, deadline=None)
@given(sparse_matrix(mod_p_entry), st.integers(-2, 2))
@example([{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: 1}, {0: 1, 1: 2, 2: 1}], 0)
@example([{0: _P}, {0: 2, 1: _P}, {1: 1}], 1)
def test_sparse_rank_mod_p_matches_the_dense_loop(rows, offset):
    full = dense_rank_mod_p(dense(rows), -1)[0]
    cap = max(full + offset, 1)
    result = dense_rank_mod_p(dense(rows), cap)
    assert_stops_with_the_dense_loop(rows, cap, result)
    assert result[0] == min(full, cap) <= bareiss_rank(dense(rows))


@settings(max_examples=200, deadline=None)
@given(sparse_matrix(mod_p_entry))
@example([{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: 1}, {0: 1, 1: 2, 2: 1}])
@example([{0: _P}, {0: 2, 1: _P}, {1: 1}])
@example([{0: _P, 1: 1}, {0: 1}])  # rank 2 over Q, 1 mod the prime
@example([{0: 0}, {0: 1, 1: 1}])  # a stored zero
# entries of a pivot column that vanish, or exceed the prime, mod p
@example([{0: 1, 1: 2}, {0: _P, 1: 1}, {0: _P + 1, 1: -_P, 2: 2 * _P}, {0: -_P, 2: 3}])
@example([{5: 1, 3: 1}, {3: 1, 0: 1}, {5: 1, 3: 2}])  # a new pivot cleared from two rows
def test_pivot_columns_match_the_sequential_eliminator(rows):
    # the one-pass reduction finds the pivots of the eliminator that
    # reduced each row pivot by pivot, in the same order, below, at and
    # above the rank modulo the prime
    r = len(pivot_columns_mod_p_sequential(rows, -1))
    for cap in (-1, r, r + 1):
        assert intlinalg._pivot_columns_mod_p(rows, cap) == pivot_columns_mod_p_sequential(rows, cap)


class RecordingPivots(Mapping):
    """A read-only view of the eliminator's pivots that records the column
    of each pivot row read through it; a membership test reads no row."""

    def __init__(self, pivots):
        self.pivots = pivots
        self.read = []

    def __getitem__(self, col):
        row = self.pivots[col]
        self.read.append(col)
        return row

    def __contains__(self, col):
        return col in self.pivots

    def __iter__(self):
        return iter(self.pivots)

    def __len__(self):
        return len(self.pivots)


@settings(max_examples=200, deadline=None)
@given(sparse_matrix(mod_p_entry))
# the third row makes column 5 a pivot, which must then be cleared from the
# column-3 pivot row {3: 1, 5: 1} and the column-0 pivot row {0: 1, 5: -1}
@example([{5: 1, 3: 1}, {3: 1, 0: 1}, {5: 1, 3: 2}])
def test_rows_meet_only_the_pivots_in_their_support(rows):
    # Each incoming row goes to _reduce with the stored pivots.  At every
    # call no stored pivot row has an entry in another pivot's column, and
    # reducing the row reads at most one pivot row per entry of its support,
    # counted through a recording view of the pivots: each read is of a
    # column where the row is nonzero mod the prime, and none is repeated.
    # A trailing empty row, read because the cap is above any rank, shows
    # the final state too.
    reduce = intlinalg._reduce

    def checked_reduce(row, pivots):
        for prow in pivots.values():
            assert not prow.keys() & pivots.keys()
        recording = RecordingPivots(pivots)
        v = reduce(row, recording)
        support = {c for c, x in row.items() if x % _P}
        assert len(recording.read) == len(set(recording.read))
        assert set(recording.read) <= support
        assert len(recording.read) <= len(support)
        return v

    with mock.patch.object(intlinalg, "_reduce", checked_reduce):
        cols = intlinalg._pivot_columns_mod_p(rows + [{}], len(rows) + 1)
    assert len(cols) == dense_rank_mod_p(dense(rows), -1)[0]


@settings(max_examples=200, deadline=None)
@given(sparse_matrix(mod_p_entry), st.integers(0, 2))
@example([{0: _P, 1: 1}, {0: 1}], 0)  # rank 2 over Q, 1 mod the prime
@example([{0: 0}, {0: 1, 1: 1}], 1)  # a stored zero, below the cap
def test_certified_rank_is_exact_when_entries_vanish_mod_p(rows, extra):
    r = bareiss_rank(dense(rows))
    assert certified_rank(rows, r + extra) == r


@settings(max_examples=100, deadline=None)
@given(st.one_of(small_matrix.map(sparse), sparse_matrix()))
@example([{0: 0}, {0: 1, 1: 1}])  # a stored zero, which the HNF must not see
def test_certified_rank_matches_bareiss_rank(M):
    r = bareiss_rank(dense(M))
    with mock.patch.object(intlinalg, "_hnf_rows", wraps=intlinalg._hnf_rows) as fallback:
        # every minor is far below the prime (Hadamard's bound), so a cap
        # equal to the rank is certified by the modular pass alone
        assert certified_rank(M, r) == r
        assert fallback.call_count == 0
        # the modular rank cannot reach a cap above the rank, so the HNF decides
        assert certified_rank(M, r + 1) == r
        assert fallback.call_count == 1


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                       min_size=1, max_size=5)), st.integers(1, 3))
def test_sym_power_rows_relabel_the_dense_flattening(vecs, k):
    n = len(vecs[0])
    labels = [sum(i * n ** (k - 1 - t) for t, i in enumerate(m))
              for m in combinations_with_replacement(range(n), k)]
    assert len(set(labels)) == len(labels)
    for row, full in zip(sym_power_rows(vecs, k), dense_sym_power_rows(vecs, k)):
        assert row == {c: x for c, x in zip(labels, full) if x}


# Sym2 ranks of the perfbench analyze specs and of Ld:30
SYM2_RANKS = {
    "Ld:26": 351, "LA:Z/24": 276, "Od:20": 210, "Md:20": 210, "Mneg:Z/30": 136,
    "Ld:30": 465, "T:4": 120, "Craig:q=13,k=2": 78, "Ld:6": 20, "LA:Z/4+Z/2": 26,
}
# small enough for the dense loop, the last four for Bareiss too; the --work
# run below puts the dense loop on every spec
DENSE_SIZED = ("Mneg:Z/30", "T:4", "Craig:q=13,k=2", "Ld:6", "LA:Z/4+Z/2")
BAREISS_SIZED = DENSE_SIZED[1:]


def _shortest_vectors(spec):
    """(lattice rank, shortest vectors) of a family spec."""
    lat = families.build_family(spec)
    return lat.rank, lattice.minimum(lat, 12)[1].vectors


@pytest.mark.parametrize("spec", list(SYM2_RANKS))
def test_sym2_rank_of_the_analyze_specs(spec):
    d, vecs = _shortest_vectors(spec)
    assert perfection.sym_square_rank(vecs, d) == SYM2_RANKS[spec]
    # the one-pass reduction finds the sequential eliminator's pivots, in
    # order, on the rows that sym_square_rank ranks (the squares on the
    # span's pivot coordinates) and on the squares on every coordinate
    span, coords = intlinalg.span_coordinates(vecs, d)
    for rows in (sym_power_rows(coords, 2), sym_power_rows(vecs, 2)):
        for cap in (-1, comb(span + 1, 2)):
            assert (intlinalg._pivot_columns_mod_p(rows, cap)
                    == pivot_columns_mod_p_sequential(rows, cap))
    if spec in DENSE_SIZED:
        full = dense_sym_power_rows(vecs, 2)
        cap = comb(d + 1, 2)
        assert_stops_with_the_dense_loop(sym_power_rows(vecs, 2), cap, dense_rank_mod_p(full, cap))
    if spec in BAREISS_SIZED:
        assert bareiss_rank(full) == SYM2_RANKS[spec]


@st.composite
def vector_sets(draw):
    """Vectors of one length n <= 6: integer combinations of at most n base
    vectors, so the span is often below n, plus repeated and scaled
    vectors.  Some entries are multiples of _CERT_PRIME, which vanish
    modulo it, so the modular span can fall short of the span over Q."""
    n = draw(st.integers(1, 6))
    entry = st.one_of(st.integers(-3, 3), st.sampled_from([_P, -_P, 2 * _P]))
    base = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=n))
    coeffs = st.lists(st.integers(-2, 2), min_size=len(base), max_size=len(base))
    vecs = [tuple(sum(c * b[i] for c, b in zip(cs, base)) for i in range(n))
            for cs in draw(st.lists(coeffs, max_size=6))]
    vecs += [tuple(b) for b in base]
    index = st.integers(0, len(vecs) - 1)
    for i, m in draw(st.lists(st.tuples(index, st.sampled_from([1, -1, 2, 3])), max_size=3)):
        vecs.append(tuple(m * x for x in vecs[i]))
    return draw(st.permutations(vecs))


# 13 vectors with entries near small multiples of _P.  Combining rows by
# Bezout coefficients in the HNF of their Sym2 rows doubles the rows' size
# with every column (seconds of CPU for 13 x 21 rows); Euclidean reduction
# keeps them near the size of the result
_LARGE_ENTRIES = [tuple(a * _P + b for a, b in zip(high, low)) for high, low in zip(
    [[3, 1, -1, -1, 0, -2], [2, 0, -1, 0, 0, 1], [1, 1, 0, 2, 4, 1], [1, -2, -2, 1, -2, 4],
     [0, 1, 0, 0, 0, 0], [-5, 2, 1, -3, -4, -1], [4, 0, -2, 0, 0, 2], [4, 0, -2, -4, -2, 0],
     [0, 1, 0, -1, 0, 0], [-1, 0, 0, 1, 2, 0], [1, 0, 0, 0, 2, -1], [-4, -2, 0, -2, -4, -2],
     [1, 0, 0, 1, 0, 2]],
    [[6, -1, 5, 2, 4, 3], [0, -3, 0, 1, 0, 0], [2, 2, 0, 0, 1, -3], [-4, -8, -3, 2, -4, 0],
     [2, 0, -1, 1, 2, -1], [-4, 1, -7, 1, 3, -6], [0, -6, 0, 2, 0, 0], [-8, -6, 0, 0, -1, -2],
     [-2, 0, -2, 0, 1, -3], [0, 2, 1, 0, 0, -2], [0, 2, 3, -1, 0, 0], [-4, 0, 2, 0, -2, 2],
     [0, -2, -3, 0, -1, 0]])]


@settings(max_examples=200, deadline=None)
@given(vector_sets(), st.integers(0, 2))
@example([(_P, 1), (0, 1)], 0)  # span 2, one pivot modulo the prime
@example(_LARGE_ENTRIES, 1)
@example([(1, 2, 3), (2, 4, 6), (0, 0, 0)], 1)  # span 1 below dim 2
def test_sym_square_rank_matches_bareiss_on_the_dense_squares(vecs, slack):
    span = bareiss_rank(vecs)
    expected = bareiss_rank(dense_sym_power_rows(vecs, 2))
    assert perfection.sym_square_rank(vecs) == expected
    assert perfection.sym_square_rank(vecs, span + slack) == expected
    # when the modular pass finds the whole span, the vectors that made its
    # pivots, cut to the pivot columns, have a nonzero determinant over Q;
    # the pass reads the vectors last-first, as span_coordinates does
    rows = sym_power_rows(vecs[::-1], 1)
    cols = sorted(intlinalg._pivot_columns_mod_p(rows, len(vecs[0])))
    if len(cols) == span:
        counts = [len(intlinalg._pivot_columns_mod_p(rows[:i], -1)) for i in range(len(rows) + 1)]
        made = [v for v, a, b in zip(vecs[::-1], counts, counts[1:]) if b > a]
        assert bareiss_det([[v[c] for c in cols] for v in made]) != 0


@settings(max_examples=200, deadline=None)
@given(vector_sets(), st.integers(1, 2))
@example([(_P, 0), (0, 1)], 0)  # span 2, one pivot modulo the prime
@example([(0, 0, 0), (1, 2, 3), (1, 2, 3), (0, 0, 0), (-2, -4, -6)], 1)  # span 1
def test_span_coordinates_below_the_modular_cap(vecs, slack):
    # the modular pass stops below the cap, so the HNF gives the span and
    # its pivot columns: exactly s coordinates, injective on the span
    s = bareiss_rank(vecs)
    with mock.patch.object(intlinalg, "_hnf_rows", wraps=intlinalg._hnf_rows) as fallback:
        span, coords = intlinalg.span_coordinates(vecs, s + slack)
    assert fallback.call_count == 1
    assert span == s
    assert all(len(v) == s for v in coords)
    assert bareiss_rank(coords) == s
    squares = bareiss_rank(dense_sym_power_rows(vecs, 2))
    assert perfection.sym_square_rank(vecs, s + slack) == squares


@settings(max_examples=200, deadline=None)
@given(vector_sets(), st.integers(0, 2))
@example([(_P, 0), (0, 1)], 0)  # span 2, one pivot modulo the prime: the HNF runs
@example([(1, 2, 3), (2, 4, 6), (0, 0, 0)], 1)  # span 1 below the cap 2
def test_span_coordinates_match_the_rows_built_at_once(vecs, slack):
    # span_coordinates builds each degree-1 row as the modular pass reads
    # it; the HNF fallback must still see every row, so the columns are
    # those of the flattening built whole and handed to both passes
    cap = bareiss_rank(vecs) + slack
    rows = sym_power_rows(vecs[::-1], 1)
    cols = intlinalg._pivot_columns_mod_p(rows, cap)
    if len(cols) < cap:
        cols = [min(row) for row in intlinalg._hnf_rows(rows)]
    span, coords = intlinalg.span_coordinates(vecs, cap)
    assert span == len(cols)
    assert coords == [tuple(x for c, x in enumerate(v) if c in cols) for v in vecs]


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


@st.composite
def echelon_bases(draw):
    """d <= 5 rows in echelon form over d + k columns, k = 0..4 of them
    non-pivot columns, with pivots of either sign and often above 1, and
    negative entries right of the pivots."""
    d, k = draw(st.integers(0, 5)), draw(st.integers(0, 4))
    n = d + k
    leads = sorted(draw(st.permutations(range(n)))[:d])
    entry = st.integers(-9, 9)
    pivot = st.one_of(st.integers(2, 9), st.integers(-9, -1), st.just(1))
    B = []
    for c in leads:
        B.append([0] * c + [draw(pivot)] + draw(st.lists(entry, min_size=n - c - 1,
                                                         max_size=n - c - 1)))
    return B


@settings(max_examples=400, deadline=None)
@given(echelon_bases())
@example([[2, 1, 0, -3, 5, 1], [0, 3, 2, 0, -1, 4]])  # k = 4, D = 6
@example([[3, 0, 1], [0, 5, -2]])  # k = 1, pivots above 1
@example([[2, 7], [0, 3]])  # k = 0
def test_echelon_gram_det_matches_bareiss_on_the_gram_matrix(B):
    assert echelon_gram_det(B) == gram_det_by_bareiss(B)


def test_echelon_gram_det_rejects_rows_out_of_echelon_form():
    with pytest.raises(ValueError, match="echelon form"):
        echelon_gram_det([[0, 1, 2], [1, 0, 0]])
    with pytest.raises(ValueError, match="echelon form"):
        echelon_gram_det([[1, 1, 2], [3, 0, 0]])
    with pytest.raises(ValueError, match="nonzero"):
        echelon_gram_det([[1, 1, 2], [0, 0, 0]])


def _residues(coeffs):
    return [c % _P for c in coeffs]


def _sparse_rows(M):
    """The {column: value} rows of a dense matrix, as krylov_min_poly takes
    them."""
    return [{j: x for j, x in enumerate(row) if x} for row in M]


def test_char_poly_examples():
    assert char_poly([[0, 0], [0, 0]]) == [1, 0, 0]
    assert char_poly([[1, 0], [0, 1]]) == [1, _P - 2, 1]
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
    assert _residues(sum(poly_eval_matrix(coeffs, M), [])) == [0] * (n * n)


def test_cayley_hamilton_size_ten():
    rng = random.Random(11)
    for _ in range(3):
        M = [[rng.randrange(-3, 4) for _ in range(10)] for _ in range(10)]
        coeffs = char_poly(M)
        assert _residues(sum(poly_eval_matrix(coeffs, M), [])) == [0] * 100


def _square_of_size(n):
    return st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                    min_size=n, max_size=n)


def _zero_row(M, i):
    M[i] = [0] * len(M)
    return M


def _strictly_upper(M):
    return [[x if j > i else 0 for j, x in enumerate(row)] for i, row in enumerate(M)]


def _scaled(M, c):
    return [[c * x for x in row] for row in M]


# general (non-symmetric) squares, squares with a forced zero row (singular),
# strictly upper-triangular squares (nilpotent) and squares scaled by up to
# 2**200, whose coefficients are far larger than the prime
char_poly_matrix = st.integers(1, 8).flatmap(lambda n: st.one_of(
    _square_of_size(n),
    st.builds(_zero_row, _square_of_size(n), st.integers(0, n - 1)),
    _square_of_size(n).map(_strictly_upper),
    st.builds(_scaled, _square_of_size(n), st.integers(-(1 << 200), 1 << 200)),
))


@settings(max_examples=150, deadline=None)
@given(char_poly_matrix)
@example([])
@example([[0]])
@example([[0, 1, 2], [0, 0, 3], [0, 0, 0]])
@example([[1, 2], [2, 4]])
@example([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
def test_char_poly_matches_faddeev_leverrier(M):
    assert char_poly(M) == _residues(faddeev_leverrier(M))


def test_char_poly_of_a_matrix_zero_mod_the_first_prime():
    M = [[_P * x for x in row] for row in ([1, -2, 0], [3, 1, 1], [0, 5, -1])]
    assert faddeev_leverrier(M) != [1, 0, 0, 0]
    assert char_poly(M) == _residues(faddeev_leverrier(M)) == [1, 0, 0, 0]


def test_char_poly_of_a_large_diagonal():
    d = [(1 << 70) + 3, -(1 << 65), 7, -(1 << 90) - 1, 0, 1 << 61]
    M = [[d[i] if i == j else 0 for j in range(len(d))] for i in range(len(d))]
    expected = [1]
    for r in d:  # multiply by (t - r)
        expected = [a - r * b for a, b in zip(expected + [0], [0] + expected)]
    assert char_poly(M) == _residues(expected)


def _divides(g, f):
    """Whether the monic g divides f modulo _P, both highest degree first."""
    f = list(f)
    for i in range(len(f) - len(g) + 1):
        c = f[i]
        for j, x in enumerate(g):
            f[i + j] = (f[i + j] - c * x) % _P
    return not any(f)


def _at(coeffs, M, b):
    """coeffs(M) b modulo _P, by Horner's rule with dense products."""
    v = [0] * len(M)
    for c in coeffs:
        v = [(sum(x * y for x, y in zip(row, v)) + c * z) % _P for row, z in zip(M, b)]
    return v


def _symmetric_01_of_size(n):
    cells = [(i, j) for i in range(n) for j in range(i, n)]

    def fill(bits):
        A = [[0] * n for _ in range(n)]
        for (i, j), bit in zip(cells, bits):
            A[i][j] = A[j][i] = int(bit)
        return A

    return st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)).map(fill)


# symmetric 0/1 matrices, diagonal included, and small integer squares
min_poly_matrix = st.integers(0, 9).flatmap(
    lambda n: st.one_of(_symmetric_01_of_size(n), _square_of_size(n)))


@settings(max_examples=150, deadline=None)
@given(min_poly_matrix, st.integers(0, 2**32))
@example([[0, 1, 0], [0, 0, 1], [0, 0, 0]], 0)  # nilpotent: g = t^3 or less
@example([[1, 1], [1, 1]], 0)
def test_krylov_min_poly_divides_the_characteristic_polynomial(M, seed):
    n = len(M)
    rng = random.Random(seed)
    b = [rng.randrange(-9, 10) for _ in range(n)]
    u = [rng.randrange(_P) for _ in range(n)]
    g = krylov_min_poly(_sparse_rows(M), b, u)
    assert g[0] == 1 and _divides(g, char_poly(M))
    # a random 61-bit u loses nothing of b, but for odds of n / p
    assert _at(g, M, b) == [0] * n
    # the early stop gives the minimal polynomial of all 2n terms
    seq, v = [], [x % _P for x in b]
    for _ in range(2 * n):
        seq.append(sum(x * y for x, y in zip(u, v)) % _P)
        v = [sum(x * y for x, y in zip(row, v)) % _P for row in M]
    assert g == sequence_min_poly(seq, _P)
    # the default start vectors give, but for the same odds, the minimal
    # polynomial of M itself
    g = krylov_min_poly(_sparse_rows(M))
    assert _divides(g, char_poly(M))
    assert _residues(sum(poly_eval_matrix(g, M), [])) == [0] * (n * n)


def test_krylov_min_poly_stops_once_g_annihilates_b():
    # the 4-cube has the five eigenvalues 0, +-2, +-4; g of degree 5 is found
    # from 10 terms, and the 11th, which g predicts, ends the sequence
    # short of its 2n = 32 terms
    class Counted(list):
        terms = 0

        def __iter__(self):  # the projection reads u once per term
            Counted.terms += 1
            return super().__iter__()

    Q4 = [[int(bin(i ^ j).count("1") == 1) for j in range(16)] for i in range(16)]
    rng = random.Random(1)
    u = Counted(rng.randrange(_P) for _ in range(16))
    g = krylov_min_poly(_sparse_rows(Q4), [1] + [0] * 15, u)
    assert g == _residues([1, 0, -20, 0, 64, 0])  # t (t^2 - 4) (t^2 - 16)
    assert Counted.terms == 11
    # a column outside the n x n matrix, as a dense 2 x 3 matrix would give
    for rows in ([{0: 1, 1: 2, 2: 3}, {0: 4, 1: 5, 2: 6}], [{-1: 1}]):
        with pytest.raises(ValueError, match="outside"):
            krylov_min_poly(rows)


def lucas_lehmer(e):
    """Whether 2**e - 1 is prime, for an odd prime e (Lucas-Lehmer test)."""
    m = (1 << e) - 1
    s = 4
    for _ in range(e - 2):
        s = (s * s - 2) % m
    return s == 0


def test_cert_prime_is_a_mersenne_prime():
    assert _P == (1 << 61) - 1
    assert lucas_lehmer(61)
    # prime exponents whose Mersenne numbers are composite
    assert not any(lucas_lehmer(e) for e in (11, 23, 29, 67, 257))


def test_hnf_det_rank_and_char_poly_match_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import hermite_normal_form

    rng = random.Random(11)

    def matrix(r, c):
        return [[rng.randint(-9, 9) if rng.random() < 0.7 else 0 for _ in range(c)]
                for _ in range(r)]

    for _ in range(150):
        M = matrix(rng.randint(1, 5), rng.randint(1, 5))
        assert rank(M) == sympy.Matrix(M).rank(), M
        # sympy's HNF is the column form (Cohen Alg. 2.4.5) of the column
        # lattice; on the transpose with coordinates reversed, and read back
        # reversed, it is the row form that hnf computes
        if any(map(any, M)):
            cols = hermite_normal_form(sympy.Matrix([row[::-1] for row in M]).T)
            assert nonzero_rows(hnf(M)) == [row[::-1] for row in cols.T.tolist()][::-1], M
        n = rng.randint(1, 6)
        Q = matrix(n, n)
        assert bareiss_det(Q) == sympy.Matrix(Q).det(method="berkowitz"), Q
        assert char_poly(Q) == _residues(sympy.Matrix(Q).charpoly().all_coeffs()), Q


def assert_lll_output(B, b, d, lam):
    """b spans the rows of B, (d, lam) is its Gram-Schmidt data, and b is
    size-reduced and meets the Lovasz condition with delta = 3/4, all checked
    in exact integers."""
    n = len(B)
    assert len(b) == n and nonzero_rows(hnf(b)) == nonzero_rows(hnf(B))
    assert (d, lam) == rational_gram_schmidt(b)
    assert all(x > 0 for x in d)
    for k in range(n):
        for j in range(k):
            assert 2 * abs(lam[k][j]) <= d[j + 1], (k, j)
        if k:
            assert 4 * d[k + 1] * d[k - 1] >= 3 * d[k] ** 2 - 4 * lam[k][k - 1] ** 2, k


LLL_SPECS = ("Ld:12", "Od:12", "Md:9:excl=1", "LA:Z/13", "Mneg:Z/16", "T:3",
             "Craig:q=11,k=3", "SidonInv:q=11", "Sidon:Z/7:set=0,1,3")


@pytest.mark.parametrize("spec", LLL_SPECS)
def test_lll_of_a_lattice_basis(spec):
    lat = families.build_family(families.parse_family(spec, strict=False))
    b, d, lam = lll(lat.basis)
    assert_lll_output(lat.basis, b, d, lam)
    assert nonzero_rows(hnf(b)) == [list(row) for row in lat.basis]
    assert d[-1] == lat.det
    # b = T basis: T is integral because each row of b lies in the lattice,
    # and unimodular
    T = [hnf_coordinates(lat.basis, row) for row in b]
    assert None not in T
    assert abs(bareiss_det(T)) == 1
    assert mat_mul(T, lat.basis) == b


independent_rows = st.integers(1, 5).flatmap(
    lambda r: st.integers(r, 6).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-30, 30), min_size=c, max_size=c),
            min_size=r, max_size=r,
        )
    )
)


@settings(max_examples=150, deadline=None)
@given(independent_rows)
@example([[1, 2, 3], [2, 4, 6]])
@example([[0, 0]])
@example([[1, 0, 0], [0, 1, 0], [1, 1, 0]])
@example([[1, 1], [1, 0]])  # the second row is shorter: one swap
def test_lll_reduces_or_rejects_dependent_rows(B):
    if rank(B) < len(B):
        with pytest.raises(ValueError, match="linearly independent"):
            lll(B)
        return
    assert_lll_output(B, *lll(B))


def test_lll_inexact_division_raises(monkeypatch):
    # a divmod reporting a remainder on every division, seen by intlinalg alone
    monkeypatch.setattr(intlinalg, "divmod", lambda a, b: (a // b, 1), raising=False)
    with pytest.raises(ArithmeticError, match="not exact"):
        lll([[1, 2, 3], [3, 1, 2], [2, 3, 1]])


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


def test_kernel_basis_matches_the_saturated_sympy_nullspace():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_decomp

    systems = [
        (3, [((1, 2, 3), 0), ((1, 0, 1), 2)]),
        (4, [((1, 1, 1, 1), 0), ((0, 1, 2, 3), 4)]),
        (5, [((2, -1, 0, 3, 1), 6), ((1, 1, 1, 1, 1), 0), ((0, 3, 1, 0, 2), 9)]),
        (4, [((2, 4, 6, 8), 0)]),
        (3, [((1, 2, 4), 8)]),
        (4, [((1, 1, 0, 0), 2), ((0, 1, 1, 0), 2), ((0, 0, 1, 1), 2)]),
    ]
    for spec in ("LA:Z/4+Z/2", "Craig:q=9,k=2", "Od:7"):
        cs = families.make(families.parse_family(spec))
        systems.append((cs.ambient_dim, list(cs.rows)))
    for n, rows in systems:
        # v is in the lattice when W v - diag(m) t = 0 for an integer t with
        # one entry per congruence row: the integer kernel of that matrix,
        # which is the saturation of its rational nullspace, cut to v
        mods = [m for _, m in rows if m]
        M, c = [], 0
        for w, m in rows:
            M.append(list(w) + [-m if m and j == c else 0 for j in range(len(mods))])
            c += bool(m)
        null = []
        for col in sympy.Matrix(M).nullspace():
            den = sympy.ilcm(*(x.q for x in col))
            null.append([int(x * den) for x in col])
        _, _, V = smith_normal_decomp(sympy.Matrix(null))
        saturated = [[int(x) for x in row] for row in V.inv().tolist()[:len(null)]]
        expected = nonzero_rows(hnf([row[:n] for row in saturated]))
        assert kernel_basis(n, rows) == expected, rows


@st.composite
def constraint_systems(draw):
    """(n, rows): n <= 7 coordinates under up to four equality and
    congruence rows with moduli up to 2^6; some weight columns are zero in
    every row, and rows repeat or are zero."""
    n = draw(st.integers(1, 7))
    zero_cols = draw(st.sets(st.integers(0, n - 1), max_size=2))
    weight = st.one_of(st.integers(-4, 4), st.integers(-70, 70))
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        w = [0 if j in zero_cols else draw(weight) for j in range(n)]
        rows.append((tuple(w), draw(st.one_of(st.just(0), st.integers(1, 64)))))
    if rows and draw(st.booleans()):
        rows.append(rows[0])
    return n, tuple(draw(st.permutations(rows)))


@settings(max_examples=300, deadline=None)
@given(constraint_systems())
@example((3, (((0, 0, 0), 5), ((1, 2, 0), 0))))  # a zero row and a zero column
@example((4, (((1, 3, 5, 7), 64), ((2, 6, 10, 14), 64))))
def test_kernel_basis_matches_the_dense_reference(system):
    n, rows = system
    assert kernel_basis(n, rows) == dense_kernel_basis(n, rows)


@pytest.mark.parametrize("spec", ["LA:Z/128", "T:7", "Ld:60"])
def test_kernel_basis_of_the_largest_builds_matches_the_dense_reference(spec):
    cs = families.make(families.parse_family(spec))
    basis = kernel_basis(cs.ambient_dim, cs.rows)
    assert basis == dense_kernel_basis(cs.ambient_dim, cs.rows)
    assert echelon_gram_det(basis) == gram_det_by_bareiss(basis)


def test_gram_matrix_values():
    B = [[1, -1, 0], [0, 1, -1]]
    assert gram_matrix(B) == [[2, -1], [-1, 2]]
    assert gram_matrix([]) == []


# sparse rows with zero rows and negative and large entries mixed in
gram_rows = st.integers(0, 8).flatmap(lambda n: st.lists(
    st.lists(st.one_of(st.just(0), st.integers(-3, 3), st.integers(-2**70, 2**70)),
             min_size=n, max_size=n)
    | st.just([0] * n),
    max_size=8,
))


@settings(max_examples=300, deadline=None)
@given(gram_rows)
@example([[0, 0, 0], [1, -2, 0], [0, 0, 0], [0, 5, -1]])
def test_gram_matrix_matches_the_dense_definition(B):
    assert gram_matrix(B) == [[sum(a * b for a, b in zip(u, v)) for v in B] for u in B]


def test_matrix_text_roundtrip():
    assert format_matrix([[1, -2, 3], [0, 5, -7]]) == "2 3\n1 -2 3\n0 5 -7\n"


if __name__ == "__main__":
    # PYTHONPATH=src python3 tests/test_intlinalg.py --work checks the sparse
    # eliminator against the dense loop on the Sym2 rows of every spec in
    # SYM2_RANKS and prints, for each, the certified rank, the CPU seconds
    # of sym_square_rank and of the dense loop, and the work of the three
    # eliminations: the span pass, the Sym2 pass on the span's pivot
    # coordinates that sym_square_rank runs, and for comparison the Sym2
    # pass on the ambient coordinates.  The work is counted here, around
    # the eliminator: the rows it read, the rows it reduced to zero, and
    # its entry updates, one per pivot-row entry applied, by _reduce to a
    # row or by the clearing step to a stored pivot row.
    # It then runs every graph argv of the CLI corpus, and graph LA:Z/16,
    # and prints, for each spectrum taken, the order n, the Gershgorin bound,
    # the terms of each Krylov sequence (the first, then one per restart),
    # the distinct roots stripped from their minimal polynomials mod p,
    # whether the exact product ran (it runs when those roots split every
    # minimal polynomial), whether the spectrum is integral, and the CPU
    # seconds of the spectrum, of minvec_graph, of degrees (the first call
    # to read the graph's int rows, so it pays for building them) and of
    # srg_parameters.  Last, for the
    # three largest kernel lattices the benchmark builds, it prints n, the
    # rank d, the k = n - d non-pivot columns of the HNF basis, the basis's
    # nonzeros, the least CPU seconds of three runs of the kernel and of
    # the Gram determinant, each next to its reference, and the HNF row
    # operations of one kernel run.
    # Last, it recomputes the ten reference tables at --jobs 1 and prints
    # their CPU seconds and, for the span and the Sym2 rank passes in turn,
    # the fallbacks that the modular pass left to the HNF: their number,
    # their rows x columns, the CPU seconds of the HNF next to those of
    # bareiss_rank on the same rows, whose rank it must match, and the HNF
    # row operations.  A row operation is one call of the add closure of
    # _hnf_rows (A[i] += f * A[d]), counted by a profile hook on its code
    # object, so the library runs unpatched; the counted run is a second,
    # untimed one.
    import contextlib
    import io
    import json
    import sys
    import time
    import types

    from test_cli_corpus import corpus_argvs

    from latlab import cli, tables

    if sys.argv[1:] != ["--work"]:
        sys.exit("usage: test_intlinalg.py --work")

    hnf_add = next(code for code in intlinalg._hnf_rows.__code__.co_consts
                   if isinstance(code, types.CodeType) and code.co_name == "add")

    def hnf_row_ops(fn, *args):
        """The calls of _hnf_rows's add while fn(*args) runs."""
        ops = 0

        def hook(frame, event, arg):
            nonlocal ops
            if event == "call" and frame.f_code is hnf_add:
                ops += 1

        sys.setprofile(hook)
        try:
            fn(*args)
        finally:
            sys.setprofile(None)
        return ops

    def eliminator_work(rows, cap):
        read = updates = 0

        def counted():
            nonlocal read
            for row in rows:
                read += 1
                yield row

        def counting_reduce(row, pivots, reduce=intlinalg._reduce):
            # _reduce applies every entry of each pivot row that it reads; a
            # row it leaves nonzero becomes the pivot row of its lowest
            # column, and the clearing step applies that row's other entries
            # to each stored pivot row holding the column
            nonlocal updates
            recording = RecordingPivots(pivots)
            v = reduce(row, recording)
            updates += sum(len(pivots[c]) for c in recording.read)
            if v:
                updates += (len(v) - 1) * sum(min(v) in prow for prow in pivots.values())
            return v

        with mock.patch.object(intlinalg, "_reduce", counting_reduce):
            pivots = len(intlinalg._pivot_columns_mod_p(counted(), cap))
        return {"pivots": pivots, "rows_read": read, "rows_zero": read - pivots,
                "updates": updates}

    for spec in SYM2_RANKS:
        d, vecs = _shortest_vectors(spec)
        cap = comb(d + 1, 2)
        full = dense_sym_power_rows(vecs, 2)
        start = time.process_time()
        certified = perfection.sym_square_rank(vecs, d)
        mid = time.process_time()
        dense_result = dense_rank_mod_p(full, cap)
        end = time.process_time()
        ambient = sym_power_rows(vecs, 2)
        assert_stops_with_the_dense_loop(ambient, cap, dense_result)
        span, coords = intlinalg.span_coordinates(vecs, d)
        projected = sym_power_rows(coords, 2)
        print(json.dumps({
            "spec": spec, "mp": len(vecs), "cap": cap, "certified_rank": certified,
            "cpu_s": round(mid - start, 3),
            "span_pass": eliminator_work(sym_power_rows(vecs[::-1], 1), d),
            "sym2": {"cols": len(set().union(*projected)),
                     **eliminator_work(projected, comb(span + 1, 2))},
            "sym2_ambient": {"cols": len(set().union(*ambient)), **eliminator_work(ambient, cap)},
            "dense": {"rank": dense_result[0], "rows_consumed": dense_result[1],
                      "cpu_s": round(end - mid, 3)},
        }), flush=True)

    class Counted(list):
        """A projection vector that counts the terms: krylov_min_poly reads u
        once per term."""
        reads = 0

        def __iter__(self):
            self.reads += 1
            return super().__iter__()

    def krylov_work(rows, b=None, u=None, krylov_min_poly=intlinalg.krylov_min_poly):
        if b is None:
            rng = random.Random(0)  # the draws of krylov_min_poly's defaults
            b = [rng.randrange(_P) for _ in rows]
            u = [rng.randrange(_P) for _ in rows]
        u = Counted(u)
        g = krylov_min_poly(rows, b, u)
        terms.append(u.reads)
        return g

    def roots_work(coeffs, bound, known, distinct_roots=perfection._distinct_roots):
        found = distinct_roots(coeffs, bound, known)
        stripped.append(found)
        return found

    def spectrum_work(graph, spectrum=perfection.MinVectorGraph.spectrum):
        terms.clear()
        stripped.clear()
        start = time.process_time()
        result = spectrum(graph)
        cpu = time.process_time() - start
        spectra.append({
            "argv": " ".join(argv), "n": graph.order,
            "gershgorin": max((sum(map(abs, row)) for row in graph.adjacency), default=0),
            "krylov_terms": list(terms), "restarts": len(terms) - 1,
            "roots": sorted(set().union(*(r for r in stripped if r)), reverse=True),
            "product_ran": any(r is not None for r in stripped),
            "integral": result is not None,
            "spectrum_cpu_s": round(cpu, 4),
        })
        return result

    def cpu_timed(name, fn):
        def call(*args, **kwargs):
            start = time.process_time()
            result = fn(*args, **kwargs)
            stage_cpu[name] = round(time.process_time() - start, 4)
            return result
        return call

    terms, stripped, seen = [], [], set()
    for argv in [*corpus_argvs(), ["graph", "LA:Z/16"]]:
        if argv[0] == "--format":
            argv = argv[4:]  # the README entries repeat per format and --jobs
        if argv[0] != "graph" or tuple(argv) in seen:
            continue
        seen.add(tuple(argv))
        spectra, stage_cpu = [], {}
        graph_class = perfection.MinVectorGraph
        with (mock.patch.object(intlinalg, "krylov_min_poly", krylov_work),
              mock.patch.object(perfection, "_distinct_roots", roots_work),
              mock.patch.object(graph_class, "spectrum", spectrum_work),
              mock.patch.object(perfection, "minvec_graph",
                                cpu_timed("minvec_graph_cpu_s", perfection.minvec_graph)),
              mock.patch.object(graph_class, "degrees",
                                cpu_timed("degrees_cpu_s", graph_class.degrees)),
              mock.patch.object(graph_class, "srg_parameters",
                                cpu_timed("srg_parameters_cpu_s", graph_class.srg_parameters)),
              contextlib.redirect_stdout(io.StringIO()),
              contextlib.redirect_stderr(io.StringIO())):
            cli.main(argv)
        for record in spectra:
            print(json.dumps(record | stage_cpu), flush=True)

    def cpu(fn, *args):
        times = []
        for _ in range(3):
            start = time.process_time()
            fn(*args)
            times.append(time.process_time() - start)
        return round(min(times), 4)

    for spec in ("Ld:60", "LA:Z/128", "T:7"):
        cs = families.make(families.parse_family(spec))
        n = cs.ambient_dim
        basis = kernel_basis(n, cs.rows)
        if basis != dense_kernel_basis(n, cs.rows):
            sys.exit(f"{spec}: kernel_basis differs from the dense reference")
        print(json.dumps({
            "spec": spec, "n": n, "d": len(basis), "k": n - len(basis),
            "basis_nonzeros": sum(map(bool, sum(basis, []))),
            "kernel_cpu_s": cpu(kernel_basis, n, cs.rows),
            "kernel_ref_cpu_s": cpu(dense_kernel_basis, n, cs.rows),
            "det_cpu_s": cpu(echelon_gram_det, basis),
            "det_ref_cpu_s": cpu(gram_det_by_bareiss, basis),
            "hnf_row_ops": hnf_row_ops(kernel_basis, n, cs.rows),
        }), flush=True)

    fallbacks = {"span": [], "sym2": []}
    hnf_cpu, hnf_ops = [], []

    def timed_hnf(rows, hnf_rows=intlinalg._hnf_rows):
        rows = list(rows)  # _basis_columns passes an iterator, read twice here
        start = time.process_time()
        H = hnf_rows(rows)
        hnf_cpu.append(time.process_time() - start)
        hnf_ops.append(hnf_row_ops(hnf_rows, rows))
        return H

    def watched(kind, fn, flattening):
        def call(items, cap):
            hnf_cpu.clear()
            hnf_ops.clear()
            result = fn(items, cap)
            if hnf_cpu:
                fallbacks[kind].append((dense(flattening(items)), hnf_cpu[0], hnf_ops[0], result))
            return result
        return call

    with (mock.patch.object(intlinalg, "_hnf_rows", timed_hnf),
          mock.patch.object(intlinalg, "span_coordinates",
                            watched("span", intlinalg.span_coordinates,
                                    lambda vecs: sym_power_rows(vecs, 1))),
          mock.patch.object(intlinalg, "certified_rank",
                            watched("sym2", intlinalg.certified_rank, lambda rows: rows))):
        start = time.process_time()
        for table_id in tables.TABLE_IDS:
            tables.run_table(table_id, jobs=1)
        tables_cpu = time.process_time() - start
    print(json.dumps({"tables": len(tables.TABLE_IDS), "jobs": 1,
                      "cpu_s": round(tables_cpu, 3)}), flush=True)
    for kind, found in fallbacks.items():
        shapes, ref_cpu = {}, 0.0
        for M, _, _, result in found:
            shape = (len(M), len(M[0]) if M else 0)
            shapes[shape] = shapes.get(shape, 0) + 1
            start = time.process_time()
            ref = bareiss_rank(M)
            ref_cpu += time.process_time() - start
            if (result[0] if kind == "span" else result) != ref:
                sys.exit(f"{kind} fallback on {shape} rows x columns differs from bareiss_rank")
        print(json.dumps({
            "fallbacks": kind, "count": len(found),
            "rows_x_cols": {f"{r}x{c}": n for (r, c), n in sorted(shapes.items())},
            "hnf_cpu_s": round(sum(cpu for _, cpu, _, _ in found), 4),
            "hnf_row_ops": sum(ops for _, _, ops, _ in found),
            "bareiss_rank_cpu_s": round(ref_cpu, 4),
        }), flush=True)
