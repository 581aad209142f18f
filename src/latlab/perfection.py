"""Perfection analysis through exact symmetric-tensor ranks.

A set of vectors is perfect when its squared flattenings v_i v_j span the
whole space of symmetric matrices on the span of the set.  This module
computes that rank exactly, derives perfection defaults, k-th power rank
series, the hyperplane-splitting sufficient condition, perfection threshold
scans over excluded indices, neighbor-count statistics of shortest vectors,
and scalar-product graphs (degree profiles, strongly regular parameters,
certified exact spectra).  Every rank comes from ``intlinalg``.  A spectrum
is read off the minimal polynomial mod p of one Krylov sequence
(``intlinalg.krylov_min_poly``), which an integral spectrum makes squarefree
with integer roots, and it is proved by the exact product of A - lambda I
over those roots (``MinVectorGraph.spectrum``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, prod

from . import families, intlinalg, lattice
from .errors import SpecError
from .families import FamilySpec
from .lattice import Lattice, MinimalVectorSet, sign_canonical


def _sym_power_rank(vecs, k: int, span: int) -> int:
    """Rank of the degree-k symmetric-power flattenings of vectors whose
    linear span has dimension span, which caps it at comb(span + k - 1, k)."""
    return intlinalg.certified_rank(intlinalg.sym_power_rows(vecs, k), comb(span + k - 1, k))


def sym_square_rank(vectors, dim: int | None = None) -> int:
    """Rank of the span of the symmetric squares v v^t of the given vectors.

    Rows are the sparse upper-triangle flattenings with raw products
    v_i v_j; the rank over Q does not depend on that choice of weighting.
    The dimension s of the span of the vectors is found under the cap
    dim, a bound that a caller who knows one passes, such as the rank of a
    lattice containing the vectors; it defaults to the length of the
    vectors.  The symmetric squares are taken on s coordinates on which the
    span projects injectively (intlinalg.span_coordinates), so on at most
    comb(s + 1, 2) columns, and their rank is intlinalg.certified_rank's
    under the cap comb(s + 1, 2).
    """
    vecs = list(vectors)
    if not vecs:
        raise ValueError("need at least one vector")
    span, coords = intlinalg.span_coordinates(vecs, len(vecs[0]) if dim is None else dim)
    return _sym_power_rank(coords, 2, span)


@dataclass(frozen=True)
class PerfectionReport:
    d: int
    det: int
    min_norm: int
    mp: int
    sym_rank: int
    pd: int

    def to_json(self, family: str | None = None) -> dict:
        out: dict = {}
        if family is not None:
            out["family"] = family
        out.update({
            "d": str(self.d),
            "det": str(self.det),
            "min": str(self.min_norm),
            "mp": str(self.mp),
            "sym_rank": str(self.sym_rank),
            "pd": str(self.pd),
        })
        return out


def perfection_report(lat: Lattice, min_cap: int = 12) -> PerfectionReport:
    norm, mvs = lattice.minimum(lat, min_cap)
    d = lat.rank
    rank = sym_square_rank(mvs.vectors, d)
    return PerfectionReport(
        d=d,
        det=lat.det,
        min_norm=norm,
        mp=mvs.count,
        sym_rank=rank,
        pd=comb(d + 1, 2) - rank,
    )


@dataclass(frozen=True)
class AlphaSeries:
    """Ranks of the k-fold symmetric power flattenings, alpha_0 = 1 first."""

    dims: tuple[int, ...]
    stabilized: bool


def _distinct_line_count(vectors) -> int:
    lines = set()
    for v in vectors:
        g = 0
        for x in v:
            g = gcd(g, x)
        if g:
            lines.add(sign_canonical(tuple(x // g for x in v)))
    return len(lines)


# the most columns a symmetric-power flattening in alpha_series may have
_ALPHA_BUDGET = 200_000


def alpha_series(vectors, kmax: int) -> AlphaSeries:
    """Dimension sequence of the spans of k-fold symmetric powers, k <= kmax.

    The k-th row of the flattening matrix evaluates every degree-k monomial
    at a vector, so the computed rank is the dimension of degree-k forms
    restricted to the point set; the vectors are first cut to coordinates
    of their span (intlinalg.span_coordinates), which changes no rank.  The
    series is flagged stabilized when the last value reaches the number of
    distinct lines through the vectors, after which it stays constant
    forever.
    """
    vecs = [tuple(v) for v in vectors]
    if not vecs or kmax < 1:
        raise ValueError("need vectors and kmax >= 1")
    dims = [1]
    span, coords = intlinalg.span_coordinates(vecs, len(vecs[0]))
    for k in range(1, kmax + 1):
        if comb(len(coords[0]) + k - 1, k) > _ALPHA_BUDGET:
            raise ValueError("symmetric power budget exceeded")
        dims.append(_sym_power_rank(coords, k, span))
    return AlphaSeries(tuple(dims), stabilized=dims[-1] == _distinct_line_count(vecs))


@dataclass(frozen=True)
class HyperplaneSplit:
    section_perfect: bool
    complement_spans: bool

    @property
    def hypotheses_hold(self) -> bool:
        return self.section_perfect and self.complement_spans


def hyperplane_split_check(vectors, w) -> HyperplaneSplit:
    """Sufficient condition for perfection via a hyperplane section.

    Checks that (a) the vectors inside the hyperplane orthogonal to w form a
    perfect set there, and (b) the vectors outside it span the whole space.
    When both hold the full set is perfect; that conclusion is re-verified by
    a direct rank computation before returning.
    """
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


@dataclass(frozen=True)
class ScanResult:
    excl: tuple[int, ...]
    d_max: int
    bound: int
    perfect_ds: tuple[int, ...]
    failures: tuple[int, ...]
    D: int | None

    @property
    def certified(self) -> bool:
        return self.D is not None


def _map(fn, items, jobs: int) -> list:
    """[fn(item) for item in items], shared by the calling process and the
    min(jobs, len(items)) - 1 children it forks; a POSIX fork is needed.

    Every process, the caller included, claims the next item index from one
    counter passed between them through a pipe, so a slow item holds up no
    fixed share of the others.  A child pickles its outcomes back through
    its own pipe and leaves through os._exit; the results come back in item
    order whatever jobs is.  An exception stops the hand-out, and the lowest
    failing item's is re-raised, as a serial run would raise it; a child
    that dies makes the call raise RuntimeError and the others are killed.
    Every child is reaped before the call returns or raises.
    """
    n = len(items)
    if min(jobs, n) <= 1:
        return [fn(item) for item in items]
    import os
    import pickle
    import signal

    counter_r, counter_w = os.pipe()
    os.write(counter_w, bytes(8))

    def claim(stop: bool = False) -> int:
        # reading the counter takes it: no other process claims until it is
        # written back
        i = int.from_bytes(os.read(counter_r, 8), "little")
        os.write(counter_w, (n if stop else min(i + 1, n)).to_bytes(8, "little"))
        return i

    def share() -> dict:
        # item index -> (True, result) or (False, the exception it raised)
        done = {}
        while (i := claim()) < n:
            try:
                done[i] = True, fn(items[i])
            except Exception as exc:
                done[i] = False, exc
                claim(stop=True)
                break
        return done

    children = {}  # pid -> the read end of the child's pipe, as a file
    try:
        for _ in range(min(jobs, n) - 1):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    with open(w, "wb") as out:
                        out.write(pickle.dumps(share()))
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(w)
            children[pid] = open(r, "rb")
        outcomes = share()
        for pid in list(children):
            data = children[pid].read()
            status = os.waitpid(pid, 0)[1]
            children.pop(pid).close()
            if status:
                raise RuntimeError("a forked worker exited with status "
                                   f"{os.waitstatus_to_exitcode(status)}")
            outcomes.update(pickle.loads(data))
    finally:
        for pid, fh in children.items():  # left only after a failure
            fh.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        os.close(counter_r)
        os.close(counter_w)
    results = []
    # every item below the lowest failing one was claimed before it and ran
    for i in range(n):
        ok, value = outcomes[i]
        if not ok:
            raise value
        results.append(value)
    return results


def _scan_entry(args) -> bool:
    excl, d = args
    lat = families.build_family(FamilySpec("Ld", d=d, excl=excl))
    # no Ld lattice has vectors of norm 1-3: the all-ones row makes an odd
    # norm impossible, and e_i - e_j would need two equal window coefficients
    mvs = lattice.vectors_of_norm(lat, 4)
    return bool(mvs.vectors) and sym_square_rank(mvs.vectors, d) == comb(d + 1, 2)


def scan_D(excl, d_max: int | None = None, jobs: int = 1) -> ScanResult:
    """Scan which dimensions give a perfect minimum-4 lattice for one
    exclusion list, and locate the successor of the last failure.

    The scan is finite: beyond max(7, 2(k+1)^3 - 1) the tail is all-perfect,
    so a d_max above that bound is refused (SpecError) before any work, and
    at the bound, the default, the returned D is exact.  Below the bound the
    scan reports the observed failures with D unresolved.  The
    per-dimension reports are independent; they run on this process and at
    most jobs - 1 forked children (_map), and the result does not depend on
    jobs.
    """
    excl = tuple(excl)
    k = len(excl)
    bound = max(7, 2 * (k + 1) ** 3 - 1)
    if d_max is None:
        d_max = bound
    if d_max > bound:
        raise SpecError(f"d_max {d_max} is above the certified tail bound {bound}, "
                        "beyond which every dimension is perfect")
    dims = range(1, d_max + 1)
    outcomes = _map(_scan_entry, [(excl, d) for d in dims], jobs)
    perfect, failures = [], []
    for d, ok in zip(dims, outcomes):
        (perfect if ok else failures).append(d)
    D = None
    if d_max == bound:
        if any(d >= bound for d in failures):
            raise RuntimeError("failure beyond the certified tail")
        D = (max(failures) + 1) if failures else 1
    return ScanResult(excl, d_max, bound, tuple(perfect), tuple(failures), D)


def pattern_decompose(v) -> tuple[int, int, int]:
    """Write a sign-canonical norm-4 vector as e_i - e_(i+a) - e_(i+a+b) + e_(i+2a+b).

    Returns (i, alpha, beta) with 1-based i.  Raises when the vector is not
    of that shape.
    """
    v = sign_canonical(v)
    support = [(j, x) for j, x in enumerate(v) if x]
    if len(support) != 4 or [x for _, x in support] != [1, -1, -1, 1]:
        raise ValueError("not in pattern form")
    p1, p2, p3, p4 = (j for j, _ in support)
    alpha = p2 - p1
    beta = p3 - p2
    if p4 - p3 != alpha or alpha < 1 or beta < 1:
        raise ValueError("not in pattern form")
    return p1 + 1, alpha, beta


@dataclass(frozen=True)
class NeighborStats:
    count: int
    gamma: Fraction
    delta: Fraction
    main_term: Fraction

    @property
    def deviation(self) -> Fraction:
        return abs(self.count - self.main_term)


def _neighbor_term(v, d: int, count: int) -> NeighborStats:
    """NeighborStats of a shortest vector v, with `count` neighbors, of a
    rank-d L-family lattice."""
    i, alpha, beta = pattern_decompose(v)
    gamma = Fraction(2 * (i + alpha) + beta, 2 * (d + 1))
    delta = Fraction(2 * alpha + beta, d + 1)
    return NeighborStats(count, gamma, delta, 2 * d * (min(gamma, 1 - gamma) + 2 - delta))


def _unit_support(v) -> list[tuple[int, int]]:
    """The (coordinate, entry) pairs of a vector with four +-1 entries."""
    support = [(j, x) for j, x in enumerate(v) if x]
    if len(support) != 4 or any(x not in (1, -1) for _, x in support):
        raise ValueError("neighbor counts need vectors with four +-1 entries")
    return support


def _neighbor_counts(targets, vectors) -> list[int]:
    """For each target v, the number of vectors w with <v, w> = +-2.

    Every vector has four +-1 entries, so <v, w> = +-2 holds exactly when v
    and w share two coordinates i, j with w_i w_j = v_i v_j, or share all
    four with a 3-to-1 split of the products v_k w_k (three shared
    coordinates give an odd sum).  Counting the vectors under the key
    (i, j, w_i w_j) of each of their six support pairs, and summing over
    the six pairs of v, settles every w sharing at most two coordinates.  A
    w sharing three or four is found through its support triples; its pair
    credit is taken off and its true product tested instead.
    """
    supports = [_unit_support(w) for w in vectors]
    pairs: dict[tuple[int, int, int], int] = {}
    triples: dict[tuple[int, ...], list[int]] = {}
    for idx, support in enumerate(supports):
        for (i, a), (j, b) in combinations(support, 2):
            pairs[i, j, a * b] = pairs.get((i, j, a * b), 0) + 1
        for triple in combinations([j for j, _ in support], 3):
            triples.setdefault(triple, []).append(idx)
    counts = []
    for v in targets:
        support = _unit_support(v)
        vmap = dict(support)
        count = sum(pairs.get((i, j, a * b), 0) for (i, a), (j, b) in combinations(support, 2))
        close = set()
        for triple in combinations(vmap, 3):
            close.update(triples.get(triple, ()))
        for idx in close:
            products = [vmap[j] * x for j, x in supports[idx] if j in vmap]
            count -= sum(p == q for p, q in combinations(products, 2))
            count += abs(sum(products)) == 2
        counts.append(count)
    return counts


def neighbor_stats(lat: Lattice, v) -> NeighborStats:
    """Exact neighbor count of a shortest vector against the formula term.

    Neighbors are shortest vectors w with <v, w> = 2; each +- pair holds at
    most one.  gamma and delta are the normalized center and diameter of the
    pattern decomposition of v, and the main term is 2d(min(gamma, 1-gamma)
    + 2 - delta).
    """
    vecs = lattice.vectors_of_norm(lat, 4).vectors
    return _neighbor_term(v, lat.rank, _neighbor_counts([v], vecs)[0])


def neighbor_survey(lat: Lattice) -> list[NeighborStats]:
    """Neighbor statistics for every shortest vector of an L-family lattice."""
    mvs = lattice.vectors_of_norm(lat, 4)
    counts = _neighbor_counts(mvs.vectors, mvs.vectors)
    return [_neighbor_term(v, lat.rank, count) for v, count in zip(mvs.vectors, counts)]


@dataclass(frozen=True)
class MinVectorGraph:
    """Graph on pair representatives keyed by a scalar-product predicate."""

    vertices: tuple[tuple[int, ...], ...]
    adjacency: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.vertices)

    def degrees(self) -> list[int]:
        return [sum(row) for row in self.adjacency]

    def srg_parameters(self) -> tuple[int, int, int, int] | None:
        """(v, k, lambda, mu) when the graph is strongly regular, else None.

        The graph is strongly regular when every vertex has the same degree
        k, every two adjacent vertices have the same number lambda of common
        neighbors, and every two non-adjacent vertices the same number mu.
        The common neighbors of i and j are the intersection of their
        neighbor sets.
        """
        nbrs = [{j for j, a in enumerate(row) if a} for row in self.adjacency]
        lam: set[int] = set()
        mu: set[int] = set()
        for i, j in combinations(range(self.order), 2):
            (lam if j in nbrs[i] else mu).add(len(nbrs[i] & nbrs[j]))
        degrees = set(map(len, nbrs))
        if len(degrees) == len(lam) == len(mu) == 1:
            return (self.order, degrees.pop(), lam.pop(), mu.pop())
        return None

    def spectrum(self) -> dict[int, int] | None:
        """Eigenvalue multiplicities, or None unless all eigenvalues are integral.

        Every eigenvalue of the adjacency matrix A lies in [-D, D], D the
        Gershgorin bound (the largest absolute row sum), and the prime
        p = intlinalg._CERT_PRIME exceeds 2D, so these integers are distinct
        mod p.  A is symmetric, so diagonalisable, and its spectrum is
        integral exactly when its minimal polynomial over Q is the product of
        t - lambda over distinct integers lambda in [-D, D]; that product then
        vanishes at A over Z, so the minimal polynomial mod p divides it and
        is squarefree with roots among those lambda.

        The minimal polynomial g of one Krylov sequence mod p divides it too
        (intlinalg.krylov_min_poly).  Its integer roots in [-D, D] are
        stripped, each at most once; a factor left over, which a repeated
        root leaves as well, means None.  Then the exact product of A -
        lambda I over the roots found is checked: zero proves that they are
        all the eigenvalues.  A nonzero product P kills the eigenvectors of
        the roots found, so a restart from a nonzero row of P, divided by its
        content and projected on one coordinate nonzero mod p, gives a
        sequence whose g is nonzero and, on an integral spectrum, has only
        new roots: each round adds a root or proves None.

        The multiplicities come from the traces of the partial products
        P_k of A - lambda_i I over the first k roots found: tr P_k sums
        m_lambda_j prod_(i<k) (lambda_j - lambda_i) over j >= k, a triangular
        system whose first row, tr P_0 = n, makes them sum to n.
        """
        A = self.adjacency
        n = self.order
        p = intlinalg._CERT_PRIME
        bound = max((sum(map(abs, row)) for row in A), default=0)
        if 2 * bound >= p:
            raise ArithmeticError("the Gershgorin bound needs a larger prime")
        roots: list[int] = []
        start = unit = None
        while True:
            found = _distinct_roots(intlinalg.krylov_min_poly(A, start, unit), bound, roots)
            if found is None:
                return None
            roots += found
            # each row of a partial product is one integer, its entries digits
            # in base 2**b; for K factors they are at most max(1, (2D)^K) <
            # 2**(b - 1) in absolute value, so a row is zero exactly when its
            # integer is, and every entry can be read back
            b = len(roots) * (2 * bound).bit_length() + 2
            terms = [[(j, a) for j, a in enumerate(row) if a] for row in A]
            P = [1 << (b * i) for i in range(n)]
            traces = []
            for lam in roots:
                traces.append(sum(_digit(Pi, i, b) for i, Pi in enumerate(P)))
                P = [sum(a * P[j] for j, a in term) - lam * Pi for term, Pi in zip(terms, P)]
            row = next((Pi for Pi in P if Pi), None)
            if row is None:
                break
            start = [_digit(row, j, b) for j in range(n)]
            content = gcd(*start)
            start = [x // content for x in start]
            unit = [0] * n
            unit[next(j for j, x in enumerate(start) if x % p)] = 1
        spectrum: dict[int, int] = {}
        for k in range(len(roots) - 1, -1, -1):
            lam, below = roots[k], roots[:k]
            rest = traces[k] - sum(m * prod(mu - x for x in below) for mu, m in spectrum.items())
            m, r = divmod(rest, prod(lam - x for x in below))
            if r or m <= 0:
                raise ArithmeticError("the traces give no positive integral multiplicities")
            spectrum[lam] = m
        return dict(sorted(spectrum.items(), reverse=True))


def _distinct_roots(coeffs, bound: int, known) -> list[int] | None:
    """The integers in [-bound, bound] outside known that are roots of coeffs
    (highest degree first) modulo intlinalg._CERT_PRIME, in decreasing order,
    when coeffs is the product of t - root over them, else None."""
    roots = []
    for cand in range(bound, -bound - 1, -1):
        if len(coeffs) == 1:
            break
        if cand not in known:
            quotient, remainder = _divide_linear(coeffs, cand)
            if not remainder:
                coeffs = quotient
                roots.append(cand)
    return roots if len(coeffs) == 1 else None


def _digit(x: int, i: int, b: int) -> int:
    """Entry i of a row packed as the integer x, the sum of its entries
    times 2**(b i), when every entry is less than 2**(b - 1) in absolute
    value: rounding x / 2**(b i) to the nearest integer drops the entries
    before it, and the entries after it are multiples of 2**b."""
    if i:
        x = ((x >> (b * i - 1)) + 1) >> 1
    half = 1 << (b - 1)
    return ((x + half) & ((half << 1) - 1)) - half


def _divide_linear(coeffs, root: int) -> tuple[list[int], int]:
    """(quotient, remainder) of coeffs, highest degree first, divided by
    t - root modulo intlinalg._CERT_PRIME; the remainder is the value at root."""
    p = intlinalg._CERT_PRIME
    out = [coeffs[0]]
    for c in coeffs[1:]:
        out.append((c + root * out[-1]) % p)
    return out[:-1], out[-1]


def minvec_graph(mvs: MinimalVectorSet, product_value: int,
                 base_vector=None) -> MinVectorGraph:
    """Graph on pair representatives with edges where <v_i, v_j> matches.

    With a base vector w, the vertex set drops +-w itself, representatives
    are re-signed so that <w, v_i> > 0, and pairs orthogonal to w are left
    out (none occur in the intended equiangular construction).
    """
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


def parity_check_LF2k(k: int) -> bool:
    """Whether all scalar products between shortest vectors of the lattice
    over the group F_2^k are even."""
    if k < 2:
        raise ValueError("needs k >= 2")
    group_spec = "+".join(["Z/2"] * k)
    lat = families.build_family(f"LA:{group_spec}")
    mvs = lattice.vectors_of_norm(lat, 4)
    vecs = mvs.vectors
    for i, v in enumerate(vecs):
        for w in vecs[i:]:
            if sum(a * b for a, b in zip(v, w)) % 2:
                return False
    return True
