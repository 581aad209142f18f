"""Reference implementations that the tests compare the package against.

They are the plain loops that the package's faster code replaced, kept as
they were; the package itself does not need them.
"""

from itertools import combinations, product
from math import comb

from latlab import intlinalg
from latlab.lattice import MinimalVectorSet, sign_canonical, square_patterns
from latlab.perfection import HyperplaneSplit, MinVectorGraph, minvec_graph, sym_square_rank


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def xgcd(a, b):
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


def dense_hnf(M):
    """Row-style Hermite normal form of M by the dense loop over full rows:
    per column, the first row with an entry at or below the pivot position
    is swapped up and combined by xgcd with every later row holding the
    column, the pivot is made positive, and the rows above are reduced."""
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


def dense_kernel_basis(n, rows):
    """HNF basis of the integer kernel of (weights, modulus) rows: the
    dense HNF of [A^t | I] for A = [W | -diag(m)], cut to the v block of
    the rows whose A^t block vanishes."""
    r = len(rows)
    mods = [(i, m) for i, (_, m) in enumerate(rows) if m > 0]
    at = [[w[j] for w, _ in rows] for j in range(n)]
    at += [[-m if s == i else 0 for s in range(r)] for i, m in mods]
    aug = [row + unit for row, unit in zip(at, identity(len(at)))]
    return [row[r:r + n] for row in dense_hnf(aug) if not any(row[:r])]


def bareiss_rank(M):
    """Exact rank over the rationals by fraction-free Bareiss elimination
    (Bareiss 1968) on a copy of M; every division is exact by Sylvester's
    identity."""
    A = [list(row) for row in M]
    nrows = len(A)
    ncols = len(A[0]) if nrows else 0
    r = 0
    prev = 1
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if A[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            A[r], A[piv] = A[piv], A[r]
        Ar = A[r]
        p = Ar[c]
        for i in range(r + 1, nrows):
            Ai = A[i]
            q = Ai[c]
            A[i] = [(p * a - q * b) // prev for a, b in zip(Ai, Ar)]
        prev = p
        r += 1
    return r


def subtract_mod_p(v, f, row):
    """v -= f * row modulo intlinalg._CERT_PRIME, in place, dropping the
    entries that vanish."""
    p = intlinalg._CERT_PRIME
    for j, x in row.items():
        if y := (v.get(j, 0) - f * x) % p:
            v[j] = y
        else:
            del v[j]


def reduce_sequentially(row, pivots):
    """A sparse row modulo intlinalg._CERT_PRIME, reduced in two steps: its
    entries are taken mod the prime, then each pivot row of a pivot column
    in its support is subtracted in turn, with a mod per entry (pivots maps
    a pivot column to the rest of its pivot row, as in the package)."""
    v = {c: y for c, x in row.items() if (y := x % intlinalg._CERT_PRIME)}
    for col in [c for c in v if c in pivots]:
        subtract_mod_p(v, v.pop(col), pivots[col])
    return v


def pivot_columns_mod_p_sequential(rows, cap):
    """intlinalg._pivot_columns_mod_p as it was before each row was reduced
    in one pass: the sequential reference eliminator.  Rows are reduced by
    reduce_sequentially, and a new pivot column is cleared from the earlier
    pivot rows holding it by subtract_mod_p, through the same index."""
    p = intlinalg._CERT_PRIME
    pivots = {}
    holders = {}
    for row in rows:
        v = reduce_sequentially(row, pivots)
        if not v:
            continue
        col = min(v)
        inv = pow(v.pop(col), -1, p)
        prow = {j: x * inv % p for j, x in v.items()}
        cleared = holders.pop(col, set())
        for q in cleared:
            if f := pivots[q].pop(col, 0):
                subtract_mod_p(pivots[q], f, prow)
        cleared.add(col)
        for j in prow:
            holders.setdefault(j, set()).update(cleared)
        pivots[col] = prow
        if len(pivots) == cap:
            break
    return list(pivots)


def gram_det_by_bareiss(B):
    """det(B B^t) by Bareiss elimination of the dense Gram matrix."""
    return intlinalg.bareiss_det(intlinalg.gram_matrix(B))


def split_coefficients(field, subset):
    """Coefficients of the product of (x - s) over the subset, constant term
    first, by one field multiplication per factor and coefficient."""
    poly = [field.one]
    for x in subset:
        nxt = [field.neg(field.mul(x, poly[0]))]
        for i in range(1, len(poly)):
            nxt.append(field.add(poly[i - 1], field.neg(field.mul(x, poly[i]))))
        nxt.append(poly[-1])
        poly = nxt
    return poly


def histogram_by_subsets(field, k):
    """Bucket counts N(a_1..a_k) of split polynomials by mid coefficients.

    For every (a_1,...,a_k) in F_q^k the value is the number of constants a_0
    such that x^(k+1) + a_k x^k + ... + a_1 x + a_0 has k+1 distinct roots.
    Each (k+1)-subset of F_q lands in exactly one bucket, so the counts are
    gathered by a single sweep over all subsets.
    """
    if k >= field.p:
        raise ValueError("power sums degenerate")
    elems = field.elements()
    hist = {key: 0 for key in product(elems, repeat=k)}
    for subset in combinations(elems, k + 1):
        hist[tuple(split_coefficients(field, subset)[1:k + 1])] += 1
    if sum(hist.values()) != comb(field.order, k + 1):
        raise RuntimeError("histogram lost subsets")
    return hist


def support_sign_reference(lat, m):
    """Vectors of squared norm m by a full support/sign walk.

    Square patterns of m, then supports in increasing coordinate order, then
    signs (the first support coordinate forced positive).  Equality rows
    prune partial assignments through interval bounds on what the unplaced
    values can still contribute; congruence rows are checked once a support
    is complete.
    """
    if m < 1:
        raise ValueError("norm must be positive")
    cs = lat.constraints
    n = cs.ambient_dim
    zrows = [w for w, mod in cs.rows if mod == 0]
    modrows = [(w, mod) for w, mod in cs.rows if mod > 0]
    sufmax = []
    for w in zrows:
        sm = [0] * (n + 1)
        for j in range(n - 1, -1, -1):
            sm[j] = max(sm[j + 1], abs(w[j]))
        sufmax.append(sm)
    nz = len(zrows)
    found = []

    for pattern in square_patterns(m):
        if len(pattern) > n:
            continue
        vals = sorted(set(pattern), reverse=True)
        remaining = {v: pattern.count(v) for v in vals}
        picks = []
        zsums = [0] * nz

        def place(lo, need, remsum):
            if not need:
                if any(zsums):
                    return
                for w, mod in modrows:
                    if sum(w[i] * x for i, x in picks) % mod:
                        return
                vec = [0] * n
                for i, x in picks:
                    vec[i] = x
                found.append(tuple(vec))
                return
            for idx in range(lo, n - need + 1):
                for v in vals:
                    if not remaining[v]:
                        continue
                    remaining[v] -= 1
                    rs = remsum - v
                    for sval in (v,) if not picks else (v, -v):
                        feasible = True
                        for t in range(nz):
                            zsums[t] += zrows[t][idx] * sval
                        for t in range(nz):
                            bound = rs * sufmax[t][idx + 1]
                            if abs(zsums[t]) > bound:
                                feasible = False
                                break
                        if feasible:
                            picks.append((idx, sval))
                            place(idx + 1, need - 1, rs)
                            picks.pop()
                        for t in range(nz):
                            zsums[t] -= zrows[t][idx] * sval
                    remaining[v] += 1

        place(0, len(pattern), sum(pattern))
    found.sort()
    return MinimalVectorSet(m, tuple(found))


def neighbor_counts_reference(targets, vectors):
    """For each target v, the number of vectors w with <v, w> = +-2, by
    scanning every vector that shares a support coordinate with v."""
    sparse = [{j: x for j, x in enumerate(w) if x} for w in vectors]
    by_coord = {}
    for idx, wmap in enumerate(sparse):
        for j in wmap:
            by_coord.setdefault(j, []).append(idx)
    counts = []
    for v in targets:
        vmap = {j: x for j, x in enumerate(v) if x}
        candidates = set()
        for j in vmap:
            candidates.update(by_coord.get(j, ()))
        count = 0
        for idx in candidates:
            s = sum(vmap.get(j, 0) * x for j, x in sparse[idx].items())
            if s == 2 or s == -2:
                count += 1
        counts.append(count)
    return counts


def srg_by_matrix_identity(adjacency):
    """(v, k, lambda, mu) when the graph is strongly regular, else None.

    Verified through the exact matrix identity
    A^2 = k I + lambda A + mu (J - I - A).
    """
    n = len(adjacency)
    degs = [sum(row) for row in adjacency]
    if n == 0 or len(set(degs)) != 1:
        return None
    k = degs[0]
    A = [list(row) for row in adjacency]
    A2 = intlinalg.mat_mul(A, A)
    lam: int | None = None
    mu: int | None = None
    for i in range(n):
        if A2[i][i] != k:
            return None
        for j in range(n):
            if i == j:
                continue
            common = A2[i][j]
            if A[i][j]:
                if lam is None:
                    lam = common
                elif lam != common:
                    return None
            else:
                if mu is None:
                    mu = common
                elif mu != common:
                    return None
    if lam is None or mu is None:
        return None
    return (n, k, lam, mu)


def minvec_graph_nested_loop(mvs, product_value, base_vector=None):
    """minvec_graph by the nested loop of generator-expression inner
    products over zip, which truncates a base vector of the wrong length."""
    if base_vector is None:
        verts = [tuple(v) for v in mvs.vectors]
    else:
        w = tuple(base_vector)
        wc = sign_canonical(w)
        verts = []
        for v in mvs.vectors:
            if v == wc:
                continue
            s = sum(a * b for a, b in zip(w, v))
            if s > 0:
                verts.append(v)
            elif s < 0:
                verts.append(tuple(-x for x in v))
    n = len(verts)
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        vi = verts[i]
        for j in range(i + 1, n):
            s = sum(a * b for a, b in zip(vi, verts[j]))
            if s == product_value:
                adj[i][j] = adj[j][i] = 1
    return MinVectorGraph(tuple(verts), tuple(tuple(r) for r in adj))


def distinct_roots_full_scan(coeffs, bound, known, p):
    """The integers in [-bound, bound] outside known that are roots of coeffs
    (highest degree first) modulo p, in decreasing order, each divided out
    once, when they split coeffs, else None: every candidate is tried."""
    roots = []
    for cand in range(bound, -bound - 1, -1):
        if cand in known or len(coeffs) == 1:
            continue
        out = [coeffs[0]]
        for c in coeffs[1:]:
            out.append((c + cand * out[-1]) % p)
        if not out[-1]:
            coeffs = out[:-1]
            roots.append(cand)
    return roots if len(coeffs) == 1 else None


def hyperplane_split_check_by_dense_ranks(vectors, w):
    """perfection.hyperplane_split_check as it was before its ranks came from
    one span pass: the dense HNF rank of the vectors and of the complement,
    and sym_square_rank, with its own span pass, of the section and of the
    whole set.  Its products zip v with w, so a normal of the wrong length
    is cut, not refused."""
    if not any(w):
        raise ValueError("hyperplane normal must be nonzero")
    vecs = [tuple(v) for v in vectors]
    d = intlinalg.rank([list(v) for v in vecs])
    section, complement = [], []
    for v in vecs:
        (section if sum(a * b for a, b in zip(v, w)) == 0 else complement).append(v)
    section_perfect = bool(section) and sym_square_rank(section) == comb(d, 2)
    complement_spans = bool(complement) and intlinalg.rank([list(v) for v in complement]) == d
    result = HyperplaneSplit(section_perfect, complement_spans)
    if result.hypotheses_hold and sym_square_rank(vecs) != comb(d + 1, 2):
        raise RuntimeError("split criterion violated")
    return result


def orthogonality_degrees(mvs):
    """Distinct counts of pairs orthogonal to each pair of shortest vectors."""
    return set(minvec_graph(mvs, 0).degrees())


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
        Mk = intlinalg.mat_mul(M, Mk)
    return coeffs


def spectrum_by_exact_roots(adjacency):
    """Eigenvalue multiplicities of a symmetric integer matrix, or None
    unless all eigenvalues are integral: the integer roots inside the
    Gershgorin bound, each divided out of the exact characteristic
    polynomial as often as it divides it."""
    coeffs = faddeev_leverrier([list(row) for row in adjacency])
    bound = max((sum(abs(x) for x in row) for row in adjacency), default=0)
    roots = {}
    for cand in range(bound, -bound - 1, -1):
        while len(coeffs) > 1:
            out = [coeffs[0]]
            for c in coeffs[1:]:
                out.append(c + cand * out[-1])
            if out[-1]:
                break
            coeffs = out[:-1]
            roots[cand] = roots.get(cand, 0) + 1
    return roots if len(coeffs) == 1 else None


def sequence_min_poly(seq, p):
    """Minimal polynomial modulo the prime p, monic and highest degree first,
    of the terms seq: the monic g of least degree L with
    sum_i g[i] seq[k + L - i] = 0 mod p for every k + L < len(seq).  For
    L = 0, 1, ... the recurrence is a linear system in g[1:], solved by
    Gaussian elimination mod p; the first consistent one gives g, at the
    latest L = len(seq), which has no equation.  On 2L or more terms that g
    is unique (Massey 1969)."""
    for L in range(len(seq) + 1):
        rows = [[seq[k + L - i] % p for i in range(1, L + 1)] + [-seq[k + L] % p]
                for k in range(len(seq) - L)]
        rank = 0
        for c in range(L):
            piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
            if piv is None:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            inv = pow(rows[rank][c], -1, p)
            rows[rank] = [x * inv % p for x in rows[rank]]
            for i, row in enumerate(rows):
                if i != rank and row[c]:
                    f = row[c]
                    rows[i] = [(x - f * y) % p for x, y in zip(row, rows[rank])]
            rank += 1
        if any(row[-1] for row in rows[rank:]):
            continue
        g = [0] * L
        for row in rows[:rank]:
            g[next(c for c in range(L) if row[c])] = row[-1]
        return [1] + g


def decimal_json(obj):
    """The JSON form of obj by a full copy: every int that is not a bool,
    dict keys included, becomes its decimal string, and every tuple or list
    (any other iterable that is not a dict) a list.  The CLI's output was
    json.dumps(decimal_json(obj), indent=2)."""
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, dict):
        return {decimal_json(k): decimal_json(v) for k, v in obj.items()}
    return [decimal_json(x) for x in obj]
