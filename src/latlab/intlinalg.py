"""Exact integer linear algebra on dense matrices.

Matrices are plain lists of rows of Python ints, so every entry is an
arbitrary-precision integer and nothing here ever touches floating point.
The module provides the primitives the rest of the package is built on:

* ``hnf`` - row-style Hermite normal form (canonical bases, row-span tests),
* ``kernel_basis`` - integer kernels of mixed equality / congruence systems,
* ``rank`` / ``bareiss_det`` / ``gram_det`` - fraction-free Bareiss elimination,
* ``certified_rank`` - ranks certified by one elimination modulo a prime,
* ``sym_power_rows`` - symmetric-power flattenings of vectors,
* ``char_poly`` - Faddeev-LeVerrier characteristic polynomials.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import prod

Matrix = list[list[int]]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A, B) -> Matrix:
    cols = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in A]


def gram_matrix(B) -> Matrix:
    """Matrix of pairwise scalar products of the rows of B."""
    return [[sum(a * b for a, b in zip(u, v)) for v in B] for u in B]


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def hnf(M) -> Matrix:
    """Row-style Hermite normal form of M.

    The result has the same shape as M: nonzero rows first with strictly
    increasing pivot columns, positive pivots, entries above each pivot
    reduced into [0, pivot), and zero rows at the bottom.  The integer row
    span is preserved.
    """
    A = [list(row) for row in M]
    nrows = len(A)
    ncols = len(A[0]) if nrows else 0
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if A[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            A[r], A[piv] = A[piv], A[r]
        for i in range(r + 1, nrows):
            if not A[i][c]:
                continue
            a, b = A[r][c], A[i][c]
            g, x, y = xgcd(a, b)
            u, v = a // g, b // g
            Ar, Ai = A[r], A[i]
            A[r] = [x * p + y * q for p, q in zip(Ar, Ai)]
            A[i] = [u * q - v * p for p, q in zip(Ar, Ai)]
        if A[r][c] < 0:
            A[r] = [-x for x in A[r]]
        for i in range(r):
            q = A[i][c] // A[r][c]
            if q:
                A[i] = [p - q * s for p, s in zip(A[i], A[r])]
        r += 1
    return A


def nonzero_rows(M) -> Matrix:
    return [list(row) for row in M if any(row)]


def integer_kernel(A) -> Matrix:
    """HNF basis (as rows) of {x in Z^c : A x = 0} for an r x c matrix A."""
    nrows = len(A)
    ncols = len(A[0]) if nrows else 0
    # Row-reduce [A^t | I]; rows whose left block vanishes record kernel
    # combinations in the right block, already in HNF.
    aug = [[A[i][j] for i in range(nrows)] + [1 if t == j else 0 for t in range(ncols)]
           for j in range(ncols)]
    H = hnf(aug)
    return [row[nrows:] for row in H if not any(row[:nrows])]


def kernel_basis(n: int, rows) -> Matrix:
    """Canonical (HNF) basis of {v in Z^n : <w_i, v> = 0 mod m_i for all i}.

    The rows are pairs (w_i, m_i) of a length-n weight vector and a modulus
    m_i >= 0, where 0 means equality over the integers.  Congruence rows get
    an auxiliary integer unknown each, so a single integer-kernel
    computation covers both exact and modular constraints.
    """
    mod_slots = [i for i, (_, m) in enumerate(rows) if m > 0]
    slot_of = {i: s for s, i in enumerate(mod_slots)}
    s = len(mod_slots)
    A = []
    for i, (weights, modulus) in enumerate(rows):
        aux = [0] * s
        if modulus > 0:
            aux[slot_of[i]] = -modulus
        A.append(list(weights) + aux)
    if not A:
        return identity(n)
    full = integer_kernel(A)
    projected = [row[:n] for row in full]
    basis = nonzero_rows(hnf(projected))
    if len(basis) != len(projected):
        raise RuntimeError("kernel projection lost rank")
    return basis


def _bareiss(M) -> tuple[int, int, int]:
    """Fraction-free Bareiss elimination (Bareiss 1968) on a copy of M.

    Returns (rank, swap_sign, last_pivot): the rank over the rationals, the
    sign of the row swaps made, and the last pivot.  Every division is exact
    by Sylvester's identity.  For a nonsingular square matrix the last pivot
    is swap_sign * det.
    """
    A = [list(row) for row in M]
    nrows = len(A)
    ncols = len(A[0]) if nrows else 0
    r = 0
    sign = 1
    prev = 1
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if A[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            A[r], A[piv] = A[piv], A[r]
            sign = -sign
        Ar = A[r]
        p = Ar[c]
        for i in range(r + 1, nrows):
            Ai = A[i]
            q = Ai[c]
            A[i] = [(p * a - q * b) // prev for a, b in zip(Ai, Ar)]
        prev = p
        r += 1
    return r, sign, prev


def rank(M) -> int:
    """Exact rank over the rationals by fraction-free Bareiss elimination."""
    return _bareiss(M)[0]


def bareiss_det(M) -> int:
    """Exact determinant of a square integer matrix."""
    n = len(M)
    for row in M:
        if len(row) != n:
            raise ValueError("determinant needs a square matrix")
    r, sign, last = _bareiss(M)
    return sign * last if r == n else 0


_CERT_PRIME = (1 << 61) - 1


def _rank_mod_p(rows, cap: int) -> int:
    """Rank of the rows mod _CERT_PRIME (a lower bound for the rank over Q),
    stopping early once cap is reached."""
    p = _CERT_PRIME
    pivots: list[tuple[int, list[int]]] = []
    r = 0
    for row in rows:
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
        r += 1
        if r == cap:
            break
    return r


def certified_rank(rows, cap: int) -> int:
    """Exact rank over Q of rows known to have rank <= cap.

    The rank modulo a prime never exceeds the rank over Q, which never
    exceeds the cap, so a single elimination modulo a fixed 61-bit prime
    certifies the rank whenever the modular rank reaches the cap.  Otherwise
    fraction-free Bareiss elimination settles the value.  The result is
    exact either way; the modular pass only short-circuits the common
    full-rank case.
    """
    if not rows:
        return 0
    if _rank_mod_p(rows, cap) == cap:
        return cap
    return rank(rows)


def sym_power_rows(vectors, k: int) -> Matrix:
    """Degree-k symmetric-power flattenings: the row of a vector v lists
    every degree-k monomial evaluated at v, in the order of
    combinations_with_replacement over the coordinates (for k = 2, the upper
    triangle of v v^t row by row)."""
    return [list(map(prod, combinations_with_replacement(v, k))) for v in vectors]


def gram_det(B) -> int:
    """det(B B^t) for a matrix with linearly independent rows."""
    d = bareiss_det(gram_matrix(B))
    if d <= 0:
        raise ValueError("singular Gram")
    return d


def char_poly(M) -> list[int]:
    """Coefficients of det(t*I - M), highest degree first (monic).

    Computed by the Faddeev-LeVerrier recurrence; every division is exact,
    so the whole computation stays in the integers.
    """
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


def format_matrix(M) -> str:
    nrows = len(M)
    ncols = len(M[0]) if nrows else 0
    out = [f"{nrows} {ncols}"]
    out.extend(" ".join(str(x) for x in row) for row in M)
    return "\n".join(out) + "\n"
