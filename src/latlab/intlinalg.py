"""Exact integer linear algebra.

Matrices are plain lists of rows of Python ints, so every entry is an
arbitrary-precision integer and nothing here ever touches floating point.
The rows of a Hermite normal form or of a rank certificate are sparse,
{column: value} dicts.  The module provides the primitives the rest of the
package is built on:

* ``hnf`` - row-style Hermite normal form (canonical bases, row-span tests)
  over sparse rows, finding the rows that hold each column by a scan,
* ``kernel_basis`` - integer kernels of mixed equality / congruence systems,
* ``rank`` - exact ranks, the number of nonzero HNF rows; the package takes
  its ranks from ``certified_rank``, and only tests and the tracer call it,
* ``bareiss_det`` - determinants by fraction-free Bareiss elimination,
* ``echelon_gram_det`` / ``gram_det`` - Gram determinants det(B B^t) from
  the pivot block of an echelon basis by sparse back-substitution, which
  leaves one k x k Bareiss determinant for its k non-pivot columns,
* ``certified_rank`` - exact ranks of sparse rows under a known cap, from
  one sparse elimination modulo a prime that keeps its pivot rows in
  reduced row-echelon form (1 in their own column, 0 in every other pivot
  column: nothing chains, so a row is reduced in one pass by the pivots in
  its support, with one mod per touched column), certified when it finds
  cap pivots or when its pivot rows, lifted to Q by rational
  reconstruction, give every row exactly, else by the HNF; a degree-k
  flattening of vectors spanning s dimensions has the cap comb(s + k - 1, k),
* ``span_coordinates`` - the dimension s of the span of vectors, each
  scanned once into its nonzero (coordinate, value) cells, and those cells
  projected onto the s pivot columns of that elimination, renumbered
  0..s-1; the projection is injective on the span, so their degree-k
  flattenings use at most comb(s + k - 1, k) columns, the cap itself,
* ``sym_power_rows`` - sparse symmetric-power flattenings of vectors given
  by their cells,
* ``lll`` - all-integer LLL reduction with its integral Gram-Schmidt data,
* ``krylov_min_poly`` - minimal polynomials modulo the 61-bit prime of the
  rank certificate of Krylov sequences u A^k b, A given by its sparse rows,
  by sparse products and Berlekamp-Massey; each divides the characteristic
  polynomial mod p, and ``MinVectorGraph.spectrum`` proves its integer roots,
* ``char_poly`` - characteristic polynomials modulo the same prime, by
  Hessenberg reduction; nothing in the package calls it any more, but the
  tests check ``krylov_min_poly`` against it and the benchmark's tracer
  wraps it.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from itertools import compress, tee
from math import isqrt, lcm, prod
from operator import itemgetter, mul

Matrix = list[list[int]]


def mat_mul(A, B) -> Matrix:
    cols = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in A]


def gram_matrix(B) -> Matrix:
    """Matrix of pairwise scalar products of the rows of B.

    HNF kernel bases are mostly zeros, so the products are summed column by
    column, over the pairs of rows with an entry in that column.
    """
    holders: dict[int, list[tuple[int, int]]] = {}
    for i, u in enumerate(B):
        for c, a in enumerate(u):
            if a:
                holders.setdefault(c, []).append((i, a))
    G = [[0] * len(B) for _ in B]
    for column in holders.values():
        for i, a in column:
            Gi = G[i]
            for j, b in column:
                Gi[j] += a * b
    return G


def _hnf_rows(rows) -> list[dict[int, int]]:
    """Nonzero rows, in order, of the row-style Hermite normal form of the
    sparse {column: value} rows, which it copies without their zeros.

    Column by column, over the columns the rows use (their combinations use
    no others), the entries of the rows at or below the pivot position are
    brought down to one by Euclid's algorithm (Cohen, A Course in
    Computational Algebraic Number Theory, Section 2.4): each row is reduced,
    by floor division, by the nearest earlier row whose entry is least in
    absolute value (the first of those reduces the rows before it), until a
    single row holds the column.  It becomes the pivot row, its pivot is
    made positive and the entries above it are reduced into [0, pivot).
    Rows are only ever reduced by rows with the least entry, never scaled by
    a Bezout coefficient, which keeps them near the size of the result; and
    equal entries, the common case in kernels, cancel along a chain of
    neighbouring rows, so the rows stay sparse.  The rows holding a column
    are found by a scan of the rows for it: keeping an index from each
    column to its rows up to date cost more than the scans it saved.
    """
    A = [{c: x for c, x in row.items() if x} for row in rows]

    def add(i: int, f: int, src: dict[int, int]) -> None:
        """A[i] += f * src in place, for f != 0."""
        row = A[i]
        for j, x in src.items():
            if y := row.get(j, 0) + f * x:
                row[j] = y
            else:
                del row[j]

    r = 0
    for c in sorted({c for row in A for c in row}):
        if r == len(A):
            break
        below = [i for i in range(r, len(A)) if c in A[i]]
        while len(below) > 1:
            least = min(abs(A[i][c]) for i in below)
            mins = [i for i in below if abs(A[i][c]) == least]
            # last row first, so that every divisor is still unreduced
            for i in reversed(below):
                if (d := mins[max(bisect_left(mins, i) - 1, 0)]) != i:
                    add(i, -(A[i][c] // A[d][c]), A[d])
            below = [i for i in below if c in A[i]]
        if not below:
            continue
        if (piv := below[0]) != r:
            A[r], A[piv] = A[piv], A[r]
        Ar = A[r]
        if Ar[c] < 0:
            Ar = A[r] = {j: -x for j, x in Ar.items()}
        p = Ar[c]
        for i in range(r):
            if c in A[i] and (q := A[i][c] // p):
                add(i, -q, Ar)
        r += 1
    return A[:r]


def hnf(M) -> Matrix:
    """Row-style Hermite normal form of M.

    The result has the same shape as M: nonzero rows first with strictly
    increasing pivot columns, positive pivots, entries above each pivot
    reduced into [0, pivot), and zero rows at the bottom.  The integer row
    span is preserved.
    """
    ncols = len(M[0]) if M else 0
    H = _hnf_rows([dict(enumerate(row)) for row in M])
    H += [{}] * (len(M) - len(H))
    return [[row.get(j, 0) for j in range(ncols)] for row in H]


def kernel_basis(n: int, rows) -> Matrix:
    """Canonical (HNF) basis of {v in Z^n : <w_i, v> = 0 mod m_i for all i}.

    The rows are pairs (w_i, m_i) of a length-n weight vector and a modulus
    m_i >= 0, where 0 means equality over the integers.  Congruence rows get
    an auxiliary integer unknown t_i each, turning the system into the
    integer kernel of A = [W | -diag(m)] in the unknowns (v, t).  Reducing
    [A^t | I] to HNF leaves that kernel, already in HNF, in the right block
    of the rows whose left block vanishes.  Each t_i = <w_i, v> / m_i is
    fixed by v, so no nonzero kernel vector has v = 0: every kernel row
    pivots in a v column, and cut to those columns the rows are the HNF
    basis of the lattice.  The rows of [A^t | I] are sparse {column: value}
    rows (_hnf_rows), as the weight rows of the families are mostly zeros.
    """
    r = len(rows)
    mods = [(i, m) for i, (_, m) in enumerate(rows) if m > 0]
    # row j of A^t is column j of A: the weights of v_j, then one -m_i per t_i,
    # followed by the unit entry of the identity block
    aug = [{i: x for i, (w, _) in enumerate(rows) if (x := w[j])} for j in range(n)]
    aug += [{i: -m} for i, m in mods]
    for j, row in enumerate(aug):
        row[r + j] = 1
    basis = []
    for row in _hnf_rows(aug):
        if min(row) < r:
            continue
        v = [0] * n
        for j, x in row.items():
            if j < r + n:
                v[j - r] = x
        if not any(v):
            raise RuntimeError("kernel row vanishes on the lattice coordinates")
        basis.append(v)
    return basis


def rank(M) -> int:
    """Exact rank over the rationals: the number of nonzero rows of its HNF."""
    return len(_hnf_rows([dict(enumerate(row)) for row in M]))


def bareiss_det(M) -> int:
    """Exact determinant of a square integer matrix by fraction-free Bareiss
    elimination (Bareiss 1968), whose divisions are exact by Sylvester's
    identity: the last pivot, times the sign of the row swaps."""
    n = len(M)
    if any(len(row) != n for row in M):
        raise ValueError("determinant needs a square matrix")
    A = [list(row) for row in M]
    sign = prev = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if A[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            A[c], A[piv] = A[piv], A[c]
            sign = -sign
        Ac = A[c]
        p = Ac[c]
        for i in range(c + 1, n):
            q = A[i][c]
            A[i] = [(p * a - q * b) // prev for a, b in zip(A[i], Ac)]
        prev = p
    return sign * prev


# the Mersenne prime 2**61 - 1, proved prime by the Lucas-Lehmer test in the
# tests; the modulus of the rank certificate, char_poly and krylov_min_poly
_CERT_PRIME = (1 << 61) - 1


def _reduce(row, pivots: dict[int, dict[int, int]]) -> dict[int, int]:
    """A sparse row modulo _CERT_PRIME, reduced in one pass by its pivots.

    pivots maps each pivot column to the rest of its pivot row, which has a 1
    in that column and a 0 in every other pivot column (reduced row-echelon
    form), so nothing chains: an entry x in a pivot column adds -x times
    that pivot row, which writes no pivot column, unless x vanishes mod the
    prime or the row is empty; the other entries are summed as they are,
    and one mod per touched column, at the end, drops the zeros.
    """
    p = _CERT_PRIME
    acc: dict[int, int] = {}
    for c, x in row.items():
        if c not in pivots:
            acc[c] = acc.get(c, 0) + x
        elif x % p and (prow := pivots[c]):
            for j, y in prow.items():
                acc[j] = acc.get(j, 0) - x * y
    return {c: y for c, x in acc.items() if (y := x % p)}


def _pivot_columns_mod_p(rows, cap: int) -> dict[int, dict[int, int]]:
    """Pivot rows, by pivot column in creation order and without their 1
    there, of a reduced row-echelon elimination of sparse {column: value}
    rows modulo _CERT_PRIME; it stops once cap pivots are found.  Their
    number is the rank modulo the prime, which never exceeds the rank over Q.

    Each incoming row is reduced in one pass (_reduce).  A row left nonzero
    takes its lowest column as pivot, scaled to 1 there, and that column is
    cleared from the earlier pivot rows holding it, which an index from each
    non-pivot column to the pivots whose rows may hold it finds.
    """
    p = _CERT_PRIME
    pivots: dict[int, dict[int, int]] = {}
    holders: dict[int, set[int]] = {}
    for row in rows:
        v = _reduce(row, pivots)
        if not v:
            continue
        col = min(v)
        inv = pow(v.pop(col), -1, p)
        prow = {j: x * inv % p for j, x in v.items()}
        cleared = holders.pop(col, set())
        for q in cleared:
            qrow = pivots[q]
            if f := qrow.pop(col, 0):
                for j, x in prow.items():
                    if y := (qrow.get(j, 0) - f * x) % p:
                        qrow[j] = y
                    else:
                        del qrow[j]
        cleared.add(col)
        for j in prow:
            holders.setdefault(j, set()).update(cleared)
        pivots[col] = prow
        if len(pivots) == cap:
            break
    return pivots


def _spans_rows(pivots: dict[int, dict[int, int]], rows) -> bool:
    """Whether every sparse row R is sum_c R[c] P_c, P_c the pivot row of c
    (_pivot_columns_mod_p, 1 at c) with each entry x lifted to n/d by
    rational reconstruction (von zur Gathen and Gerhard, Modern Computer
    Algebra, 5.10): n is the first remainder within isqrt((p - 1) / 2) of
    the extended Euclidean algorithm on (p, x) and d, with n = d x mod p,
    its cofactor, and a cofactor beyond that bound gives False.  The pivot
    columns agree by construction; the others are compared in integers,
    every P_c scaled by the lcm L of the denominators."""
    p = _CERT_PRIME
    bound = isqrt((p - 1) // 2)
    lifted = {}
    for c, prow in pivots.items():
        lifted[c] = fracs = []
        for j, x in prow.items():
            r0, r1, t0, t1 = p, x, 0, 1
            while r1 > bound:
                q = r0 // r1
                r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
            if abs(t1) > bound:
                return False
            fracs.append((j, r1 if t1 > 0 else -r1, abs(t1)))
    L = lcm(*(d for fracs in lifted.values() for _, _, d in fracs))
    scaled = {c: [(j, n * (L // d)) for j, n, d in fracs] for c, fracs in lifted.items()}
    for row in rows:
        acc = {c: L * x for c, x in row.items() if c not in scaled}
        for c, x in row.items():
            for j, y in scaled.get(c, ()):
                acc[j] = acc.get(j, 0) - x * y
        if any(acc.values()):
            return False
    return True


def _basis_columns(rows, cap: int) -> list[int]:
    """Pivot columns of a basis of the row space over Q of sparse
    {column: value} rows, any iterable of them, whose rank is at most cap;
    their number is the rank.

    The rows that made the r pivots of one reduced row-echelon elimination
    modulo a fixed 61-bit prime (_pivot_columns_mod_p) are independent
    modulo it, so over Q: the rank is at least r, and r = cap certifies it.
    Below the cap the pass has read every row, and if its pivot rows, lifted
    to Q, give each row R as sum_c R[c] P_c (_spans_rows), the rank is at
    most r, so r.  A basis of the row space (the rows that made the pivots
    at the cap, span{P_c} below it) cut to the pivot columns is then
    invertible over Q, so the cut is injective.  Where a
    lift or the check fails, as where the rank mod p is below the rank over
    Q, the leading columns of the nonzero HNF rows (_hnf_rows) are
    returned: those rows are triangular with a nonzero diagonal there.
    """
    rows, checked, kept = tee(rows, 3)
    pivots = _pivot_columns_mod_p(rows, cap)
    if len(pivots) == cap or _spans_rows(pivots, checked):
        return list(pivots)
    return [min(row) for row in _hnf_rows(kept)]


def certified_rank(rows, cap: int) -> int:
    """Exact rank over Q of sparse {column: value} rows known to have rank
    at most cap: the rank modulo the prime, certified at the cap or by the
    lifted pivot rows, else the HNF's (_basis_columns)."""
    return len(_basis_columns(rows, cap))


def span_coordinates(vectors, cap: int) -> tuple[int, list]:
    """(s, cells): the dimension s of the linear span of a sequence of
    vectors, known to be at most cap, and each vector's nonzero
    (coordinate, value) cells restricted to the s pivot columns of a basis
    of that span (_basis_columns: the modular pass's, certified at the cap
    or by its lifted pivot rows, else the HNF's), renumbered 0..s-1 in
    increasing column order; no vectors give (0, []).  Restriction to those
    columns is injective on the span, and an injective linear map changes
    no symmetric-power rank; the degree-k flattenings of the restricted
    cells (sym_power_rows(cells, k, s)) use at most comb(s + k - 1, k)
    columns, the cap itself.  Each vector is scanned once, into its cells.
    """
    positions = range(max(map(len, vectors), default=0))
    cells = [list(zip(compress(positions, v), filter(None, v))) for v in vectors]
    # shortest-vector lists are sorted with the first nonzero entry positive,
    # so the vectors that use coordinate 0 come last: read last-first, the
    # pass meets every coordinate early and reaches the cap in fewer rows.
    # The rows are the degree-1 flattenings, built only as the pass reads them
    cols = sorted(_basis_columns(map(dict, reversed(cells)), cap))
    renumber = dict(zip(cols, range(len(cols))))
    # the columns below the first non-pivot one keep their numbers, so the
    # cells that stay below it (most of them: that column is mostly one of
    # the last) are kept as they are
    low = next((j for j, c in enumerate(cols) if c != j), len(cols))
    return len(cols), [c if not c or c[-1][0] < low
                       else [(renumber[i], x) for i, x in c if i in renumber] for c in cells]


def sym_power_rows(cells, k: int, n: int) -> list[dict[int, int]]:
    """Sparse degree-k symmetric-power flattenings of vectors of length n,
    each given by its nonzero (coordinate, value) cells in increasing
    coordinate order.

    The row of a vector v maps each degree-k monomial that is nonzero at v
    to its value there.  The monomial x_(i1) ... x_(ik) with i1 <= ... <= ik
    is column i1 n^(k-1) + ... + ik, its indices read as base-n digits; any
    injective labelling gives the same rank.  For k = 1 the row is the
    support itself.  The heads of degree k - 2 are expanded first, each with
    the cells from its last index on, and the last two degrees run as a
    double loop over those cells.
    """
    rows = []
    for support in cells:
        if k == 1:
            rows.append(dict(support))
            continue
        # (the cells from the head's last index on, its column, its value)
        heads = [(support, 0, 1)]
        for _ in range(k - 2):
            heads = [(rest[b:], col * n + i, value * x) for rest, col, value in heads
                     for b, (i, x) in enumerate(rest)]
        row = {}
        for rest, col, value in heads:
            while rest:
                i, x = rest[0]
                base, y = (col * n + i) * n, value * x
                for j, z in rest:
                    row[base + j] = y * z
                rest = rest[1:]
        rows.append(row)
    return rows


def _exact_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError(f"{a} / {b} is not exact")
    return q


def lll(B) -> tuple[Matrix, list[int], Matrix]:
    """All-integer LLL reduction with delta = 3/4 (Lenstra, Lenstra and
    Lovasz 1982), in the form of Cohen, A Course in Computational Algebraic
    Number Theory, Alg. 2.6.7.

    Returns (b, d, lam): rows b spanning the same lattice as the linearly
    independent rows of B, with their integral Gram-Schmidt data.  d[i] is
    the Gram determinant of b[:i] (d[0] = 1), so b*_k, the part of b[k]
    orthogonal to b[:k], has squared norm d[k+1] / d[k]; and for j < k,
    lam[k][j] = d[j+1] mu_kj, where mu_kj = <b[k], b*_j> / |b*_j|^2.  These
    are integers, kept up to date by exact divisions (Sylvester's identity),
    and each of those divisions is checked.  On return b is size-reduced,
    2 |lam[k][j]| <= d[j+1], and satisfies the Lovasz condition
    4 d[k+1] d[k-1] >= 3 d[k]^2 - 4 lam[k][k-1]^2.
    """
    n = len(B)
    b = [list(row) for row in B]
    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]

    def reduce(k: int, l: int) -> None:
        if 2 * abs(lam[k][l]) <= d[l + 1]:
            return
        q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
        b[k] = [p - q * s for p, s in zip(b[k], b[l])]
        lam[k][l] -= q * d[l + 1]
        for i in range(l):
            lam[k][i] -= q * lam[l][i]

    def swap(k: int) -> None:
        b[k], b[k - 1] = b[k - 1], b[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        m = lam[k][k - 1]
        dk = _exact_div(d[k - 1] * d[k + 1] + m * m, d[k])
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = _exact_div(d[k + 1] * lam[i][k - 1] - m * t, d[k])
            lam[i][k - 1] = _exact_div(dk * t + m * lam[i][k], d[k + 1])
        d[k] = dk

    k, kmax = 0, -1
    while k < n:
        if k > kmax:
            kmax = k
            for j in range(k + 1):
                u = sum(p * s for p, s in zip(b[k], b[j]))
                for i in range(j):
                    u = _exact_div(d[i + 1] * u - lam[k][i] * lam[j][i], d[i])
                if j < k:
                    lam[k][j] = u
                elif u > 0:
                    d[k + 1] = u
                else:
                    raise ValueError("LLL needs linearly independent rows")
        if not k:
            k = 1
            continue
        reduce(k, k - 1)
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] ** 2 - 4 * lam[k][k - 1] ** 2:
            swap(k)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                reduce(k, l)
            k += 1
    return b, d, lam


def echelon_gram_det(B) -> int:
    """det(B B^t) for nonzero rows B in echelon form (strictly increasing
    leading columns), such as an HNF basis.

    The d leading columns of B form an upper triangular T with D = det T,
    the product of its diagonal, and the k other columns form R.  Then
    B B^t = T T^t + R R^t = T (I_d + X X^t) T^t with X = T^-1 R, and
    det(I_d + X X^t) = det(I_k + X^t X) (Sylvester), so with the integral
    Z = D X = adj(T) R,
        det(B B^t) = D^(2 - 2k) det(D^2 I_k + Z^t Z).
    Each column z of Z solves T z = D r by sparse back-substitution, whose
    divisions by the pivots are exact as adj(T) is integral; so is the last
    division, by D^(2k - 2).  All of them are checked.  The k x k
    determinant is bareiss_det's.
    """
    rows = [{j: x for j, x in enumerate(u) if x} for u in B]
    if not all(rows):
        raise ValueError("echelon rows must be nonzero")
    leads = [min(row) for row in rows]
    if any(a >= b for a, b in zip(leads, leads[1:])):
        raise ValueError("rows are not in echelon form")
    D = prod(row[c] for row, c in zip(rows, leads))
    index = {c: i for i, c in enumerate(leads)}
    # per row: its pivot, and its entries right of the pivot in pivot columns
    upper = [(row[c], [(index[j], x) for j, x in row.items() if j in index and j != c])
             for row, c in zip(rows, leads)]
    Z = []
    for c in range(len(B[0]) if B else 0):
        if c in index:
            continue
        z = [0] * len(rows)
        for i in range(len(rows) - 1, -1, -1):
            pivot, rest = upper[i]
            z[i] = _exact_div(D * rows[i].get(c, 0) - sum(x * z[t] for t, x in rest), pivot)
        Z.append(z)
    k = len(Z)
    M = [[sum(map(mul, y, z)) + (D * D if i == j else 0) for j, z in enumerate(Z)]
         for i, y in enumerate(Z)]
    return _exact_div(bareiss_det(M) * D * D, D ** (2 * k))


def gram_det(B) -> int:
    """det(B B^t) for a matrix with linearly independent rows.

    Its nonzero HNF rows H span the same lattice, so B = U H for a
    unimodular U and det(B B^t) = det(H H^t) (echelon_gram_det); fewer
    nonzero rows than B has means the rows are dependent.
    """
    H = [row for row in hnf(B) if any(row)]
    if len(H) < len(B):
        raise ValueError("singular Gram")
    return echelon_gram_det(H)


def char_poly(M) -> list[int]:
    """Residues modulo _CERT_PRIME of the coefficients of det(t*I - M),
    highest degree first (monic).

    Hessenberg method (Cohen, A Course in Computational Algebraic Number
    Theory, Alg. 2.2.9).  M is brought to upper Hessenberg form H by
    similarity transforms over GF(p) (row j+1 is the pivot row for column j;
    eliminating row k below it subtracts u times row j+1 and adds u times
    column k to column j+1).  The leading principal minors
    P_m = det(t*I - H[:m, :m]) then satisfy, with indices from 1 and an
    empty product equal to 1,
        P_m = t P_(m-1) - sum_(i<=m) h[i][m] h[i+1][i] ... h[m][m-1] P_(i-1).
    Reduction and recurrence use only field operations, valid over every
    field, so each result is the true residue of its coefficient: no prime
    is unlucky.
    """
    n = len(M)
    for row in M:
        if len(row) != n:
            raise ValueError("characteristic polynomial needs a square matrix")
    p = _CERT_PRIME
    H = [[x % p for x in row] for row in M]
    for j in range(n - 2):
        piv = next((i for i in range(j + 1, n) if H[i][j]), None)
        if piv is None:
            continue
        if piv != j + 1:
            H[j + 1], H[piv] = H[piv], H[j + 1]
            for row in H:
                row[j + 1], row[piv] = row[piv], row[j + 1]
        inv = pow(H[j + 1][j], -1, p)
        us = [H[k][j] * inv % p for k in range(j + 2, n)]
        tail = H[j + 1][j:]
        for k, u in zip(range(j + 2, n), us):
            if u:
                H[k][j:] = [(a - u * b) % p for a, b in zip(H[k][j:], tail)]
        for row in H:
            row[j + 1] = (row[j + 1] + sum(map(mul, us, row[j + 2:]))) % p
    polys = [[1]]
    for m in range(n):
        acc = [0] + polys[m]
        scale = 1
        for i in range(m, -1, -1):
            f = H[i][m] * scale % p
            if f:
                q = polys[i]
                acc[:len(q)] = [a - f * c for a, c in zip(acc, q)]
            scale = scale * H[i][i - 1] % p if i else 0
            if not scale:
                break
        polys.append([c % p for c in acc])
    return polys[-1][::-1]


def krylov_min_poly(rows, b=None, u=None) -> list[int]:
    """Residues mod _CERT_PRIME of the coefficients, highest degree first, of
    the monic minimal polynomial g of s_k = u A^k b, A the n x n matrix of the
    n sparse {column: value} rows; a column not in range(n) raises ValueError.

    This is Wiedemann's method (Wiedemann 1986): the s_k come from sparse
    products of A with the Krylov vectors A^k b, where row i of a product
    is the sum of the terms A[i][j] v[j] that one precomputed
    operator.itemgetter per row gathers from v and its multiples by the
    other values of A.  Berlekamp-Massey (Massey 1969) takes in
    one term at a time and keeps g, the shortest recurrence of the terms so
    far, of degree L.  b and u default to vectors drawn from a fixed
    pseudo-random generator, never the all-ones vector that is an
    eigenvector of every regular graph.

    The minimal polynomial of the whole sequence has degree at most n, so
    after 2n terms g is that polynomial, which divides the minimal
    polynomial of b under A mod p, and with it det(t*I - A) mod p.  The
    sequence stops earlier only when g(A) b = 0, checked from the stored
    Krylov vectors after a term that g predicted.  Then the minimal
    polynomial of b divides g, and as it generates the terms so far its
    degree is at least L: it is g.  So is the polynomial of the 2n terms,
    which divides it and generates the same terms.
    """
    n = len(rows)
    if any(not 0 <= j < n for row in rows for j in row):
        raise ValueError("a column lies outside the n x n matrix")
    p = _CERT_PRIME
    rng = random.Random(0)
    if b is None:
        b = [rng.randrange(p) for _ in range(n)]
    if u is None:
        u = [rng.randrange(p) for _ in range(n)]
    # getters[i] gathers row i's terms from the Krylov vector, its multiples
    # by the values of A other than 0 and 1, and a 0 read twice, so that a
    # row with fewer than two terms still gives a tuple
    scales = sorted({x for row in rows for x in row.values()} - {0, 1})
    offset = {1: 0} | {a: n * t for t, a in enumerate(scales, 1)}
    zero = n * len(offset)
    getters = [itemgetter(*[offset[x] + j for j, x in row.items() if x], zero, zero)
               for row in rows]
    vec = [x % p for x in b]
    krylov, seq = [], []
    # Berlekamp-Massey: C(x) is the connection polynomial, lowest degree first,
    # of length L + 1, and B the one before the last change of L, whose
    # discrepancy was last, shift terms ago
    C, B, L, last, shift = [1], [1], 0, 1, 1
    checked = False
    for k in range(2 * n):
        if k:
            terms = vec + [a * x for a in scales for x in vec]
            terms.append(0)
            vec = [sum(get(terms)) % p for get in getters]
        if k <= n:  # g(A) b needs A^k b for k <= L <= n only
            krylov.append(vec)
        seq.append(sum(map(mul, u, vec)) % p)
        d = sum(map(mul, C, reversed(seq[k - L:]))) % p
        if not d:
            shift += 1
            if not checked:
                checked = True
                if not any(sum(map(mul, C, col)) % p for col in zip(*krylov[L::-1])):
                    break
            continue
        f = d * pow(last, -1, p) % p
        new = C + [0] * (shift + len(B) - len(C))
        for i, x in enumerate(B, shift):
            new[i] = (new[i] - f * x) % p
        if 2 * L <= k:
            L, B, last, shift = k + 1 - L, C, d, 1
        else:
            shift += 1
        C = new + [0] * (L + 1 - len(new))
        checked = False
    return C


def format_matrix(M) -> str:
    nrows = len(M)
    ncols = len(M[0]) if nrows else 0
    out = [f"{nrows} {ncols}"]
    out.extend(" ".join(str(x) for x in row) for row in M)
    return "\n".join(out) + "\n"
