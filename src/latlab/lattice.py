"""Lattices cut out of Z^n by equality and congruence constraints.

A lattice is built from a ConstraintSystem (weight rows with a modulus, 0
meaning equality over Z) and carries a canonical HNF basis, its Gram matrix
and its determinant.  Vectors of a prescribed squared norm are enumerated two
independent ways:

* ``vectors_of_norm`` walks supports and signs in the ambient space over
  the remaining norm, pruning with interval bounds on the equality rows, and
  finds the last t coordinates by one lookup in a table keyed by what they
  add to every row sum, so congruence rows prune there as well.  The width
  t is 1 at norm 2, where the pair tables would be built for one lookup at
  key 0, else 2, or 3 where the walk level that the triple tables save
  costs more than the tables (``_lookup_width``, from n and the norm
  alone).  One join builds every table, from the single placements of
  width 1 up, and the vectors of support 1 to t are read at the root from
  the tables at key 0;
* ``enumerate_by_basis_oracle`` runs a Fincke-Pohst search over the
  coordinates of an LLL-reduced basis (intlinalg.lll, all-integer), in
  integers throughout.  With the basis's integral Gram-Schmidt data d_i and
  lam_ji, coordinate x_i adds (d_i x_i + S_i)^2 / (d_i d_(i-1)) to the
  squared norm, where S_i = sum_(j>i) lam_ji x_j.  Scaling every norm by
  L = lcm(d_i d_(i-1)) makes each weight w_i = L / (d_i d_(i-1)) an integer,
  so the x_i within the remaining budget R are the one interval
  |d_i x_i + S_i| <= isqrt(R // w_i).  It reaches each +- pair once, with
  the highest nonzero coefficient positive (while all coefficients above
  level i are zero, S_i = 0 and x_i >= 0), and carries the partial ambient
  vector and the lower levels' S_k down the levels: a nonzero x_i costs one
  n-term and one i-term update, a zero one nothing.  The reduced basis is
  internal: the vectors come out in ambient coordinates, sign-canonical,
  and ``Lattice.basis`` stays the canonical HNF basis.

The two must agree norm by norm; the test suite leans on that equivalence.
``vectors_of_norm`` first checks m against the lattice's norm
N = gcd(G_ii, 2 G_ij) (``Lattice.norm_ideal``): with x = sum c_i b_i,
|x|^2 = sum c_i^2 G_ii + 2 sum_(i<j) c_i c_j G_ij is a multiple of N, so a
norm that N does not divide has no vectors and is answered without a walk.
The oracle has no such check and searches every norm, so there the two
compare a search with a proof.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from math import comb, gcd, isqrt, lcm

from . import intlinalg
from .errors import ConstructionError


@dataclass(frozen=True)
class ConstraintSystem:
    """Ambient coordinate labels plus (weights, modulus) rows."""

    labels: tuple[str, ...]
    rows: tuple[tuple[tuple[int, ...], int], ...]

    def __post_init__(self):
        for weights, modulus in self.rows:
            if len(weights) != len(self.labels):
                raise ValueError("weight vector length does not match label count")
            if modulus < 0:
                raise ValueError("modulus must be nonnegative")

    @property
    def ambient_dim(self) -> int:
        return len(self.labels)

    def satisfied_by(self, v) -> bool:
        if len(v) != self.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        for weights, modulus in self.rows:
            s = sum(w * x for w, x in zip(weights, v))
            if (s % modulus) if modulus else s:
                return False
        return True


@dataclass(frozen=True)
class Lattice:
    constraints: ConstraintSystem
    basis: tuple[tuple[int, ...], ...]
    gram: tuple[tuple[int, ...], ...]
    det: int

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def ambient_dim(self) -> int:
        return self.constraints.ambient_dim

    @cached_property
    def norm_ideal(self) -> int:
        """N = gcd of the Gram matrix's diagonal and of twice its entries,
        the norm of the lattice (Conway & Sloane, SPLAG, ch. 2): the positive
        generator of the ideal of Z that its norms generate.  For
        x = sum c_i b_i, |x|^2 = sum c_i^2 G_ii + 2 sum_(i<j) c_i c_j G_ij
        is a multiple of N, and the norms of b_i and b_i + b_j give G_ii and
        G_ii + G_jj + 2 G_ij back."""
        G = self.gram
        return gcd(*(row[i] for i, row in enumerate(G)), *(2 * g for row in G for g in row))


def build(cs: ConstraintSystem) -> Lattice:
    """Construct the lattice of all integer vectors satisfying cs.

    The basis is the HNF kernel basis (intlinalg.kernel_basis).  The Gram
    matrix is kept for printing; the determinant comes from the basis's
    pivot block (intlinalg.echelon_gram_det), a k x k determinant for the
    k = n - d columns of Z^n that hold no pivot of the rank-d basis.
    """
    basis = intlinalg.kernel_basis(cs.ambient_dim, cs.rows)
    if not basis:
        raise ConstructionError("trivial lattice")
    gram = intlinalg.gram_matrix(basis)
    det = intlinalg.echelon_gram_det(basis)
    if det <= 0:
        raise ArithmeticError("Gram determinant of a basis must be positive")
    return Lattice(
        constraints=cs,
        basis=tuple(tuple(row) for row in basis),
        gram=tuple(tuple(row) for row in gram),
        det=det,
    )


def contains(lat: Lattice, v) -> bool:
    """Membership test straight off the constraint rows."""
    return lat.constraints.satisfied_by(v)


def sign_canonical(v) -> tuple[int, ...]:
    """Flip the sign so the first nonzero coordinate is positive."""
    for x in v:
        if x:
            return tuple(v) if x > 0 else tuple(-y for y in v)
    return tuple(v)


@dataclass(frozen=True)
class MinimalVectorSet:
    """All vectors of one squared norm, one representative per +- pair,
    sign-canonical and sorted lexicographically."""

    norm: int
    vectors: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return len(self.vectors)


def square_patterns(m: int, cap: int | None = None) -> list[tuple[int, ...]]:
    """Multisets of positive integers, largest first, with squares summing to m."""
    if m == 0:
        return [()]
    top = isqrt(m)
    if cap is not None:
        top = min(top, cap)
    out = []
    for v in range(top, 0, -1):
        for rest in square_patterns(m - v * v, v):
            out.append((v,) + rest)
    return out


def _lookup_width(n: int, m: int) -> int:
    """How many last coordinates vectors_of_norm finds by one lookup: 1 at
    norm 2, else 3 where the walk level that the triple tables save costs
    more than the tables, else 2.

    At norm 2 width 2 reads its one pair table, of 2 n(n - 1) entries, at
    key 0 only, while width 1 places each coordinate and looks the other up
    among the 2n single placements: n nodes and no pair table (the empty
    norm-2 probe of lattice.minimum takes about 0.3 against 7.7 ms on
    Ld:60 and 0.6 against 31 ms on LA:Z/128).  At norm 3 the pair tables of
    norms 1-2 are small and width 2 stays faster (T:5, 3.7 against 5.1 ms
    with width 1).  Above that the walk of width t is taken at its deepest
    level, m - t values +-1: C(n, m - t) 2^(m - t) nodes.  The triple
    tables for the remaining norms up to m hold C(n, 3) entries per signed
    triple of nonzero values with squares summing to at most m, and an
    entry costs about three nodes.  The rule sees neither the rows nor how
    much they prune.
    """
    if m < 3:
        return 1 if m == 2 else 2
    pair_walk = comb(n, m - 2) << (m - 2)
    triple_walk = comb(n, m - 3) << (m - 3)
    if triple_walk >= pair_walk:
        return 2
    s = isqrt(m)
    triples = 8 * sum(isqrt(m - a * a - b * b) for a in range(1, s + 1)
                      for b in range(1, s + 1) if a * a + b * b < m)
    return 3 if triple_walk + 3 * comb(n, 3) * triples < pair_walk else 2


def vectors_of_norm(lat: Lattice, m: int) -> MinimalVectorSet:
    """Complete sign-canonical set of lattice vectors of squared norm m.

    One walk places support coordinates in increasing order, each with a
    nonzero value out of the remaining norm budget r, the first one
    positive.  As |x| <= x^2, the unplaced values add at most r times the
    largest later weight to an equality row's sum, which prunes the walk.
    After each placement one lookup finds the last t coordinates, with t = 1
    at norm 2, else 2 or 3, for the whole call (_lookup_width): holding
    their values they add the key (the weighted sum per equality row, that
    sum mod q per congruence row of modulus q) to the running row sums, so
    they must have the key (-sums, -sums mod q).  The table from that key to
    the (coordinate, value) cells of t nonzero values with squares summing
    to r, ordered by their lowest coordinate, is built the first time the
    walk needs r and lives for this call.  One join builds them all: the
    table of width t and norm r joins each coordinate k and value z with the
    entries above k of the table of width t - 1 and norm r - z^2, from the
    tables of width 1 of the single placements +-sqrt(r), keyed by column
    times value.  The walk skips the lookup where the table is empty, and a
    placement that can neither look up nor place again.  A vector with
    support s > t is found only at the placement of its (s - t)-th
    coordinate, so exactly once; supports 1 to t are found at the root, by
    lookup at key 0 in the tables of norm m, each with its lowest coordinate
    positive.

    Every norm of the lattice is a multiple of its norm ideal's generator N
    (Lattice.norm_ideal: each term of sum c_i^2 G_ii + 2 sum_(i<j) c_i c_j G_ij
    is), so a norm m with N not dividing m has no vectors, and the walk is
    not run.
    """
    if m < 1:
        raise ValueError("norm must be positive")
    if m % lat.norm_ideal:
        return MinimalVectorSet(m, ())
    cs = lat.constraints
    n = cs.ambient_dim
    width = _lookup_width(n, m)
    # equality rows first: only they have interval bounds
    rows = sorted(cs.rows, key=lambda row: row[1] > 0)
    mods = [mod for _, mod in rows]
    nz = mods.count(0)
    cols = [[w[idx] for w, _ in rows] for idx in range(n)]
    sufmax = []
    for w, _ in rows[:nz]:
        sm = [0] * (n + 1)
        for j in range(n - 1, -1, -1):
            sm[j] = max(sm[j + 1], abs(w[j]))
        sufmax.append(sm)
    # (width, r) -> key -> the hits' (coordinate, value) cells, in order of
    # their lowest coordinate
    tables: dict[tuple[int, int], dict[tuple[int, ...], list[tuple]]] = {}

    def table(t: int, r: int) -> dict:
        tab = tables.get((t, r))
        if tab is None:
            tab = tables[t, r] = {}
            if t == 1:
                a = isqrt(r)
                values = (a, -a) if a * a == r else ()
                for k, col in enumerate(cols):
                    for z in values:
                        key = tuple([u * z % mod if mod else u * z for u, mod in zip(col, mods)])
                        tab.setdefault(key, []).append(((k, z),))
            else:
                # the nonempty tables of width t - 1, keys by falling top coordinate
                # so that those with hits above k come first; appends run in increasing k
                joins = [(a, sorted(sub.items(), key=lambda kv: -kv[1][-1][0][0]))
                         for a in range(1, isqrt(r - t + 1) + 1)
                         if (sub := table(t - 1, r - a * a))]
                for k, col in enumerate(cols):
                    for a, keyed in joins:
                        heads = [(((k, z),), [u * z for u in col]) for z in (a, -a)]
                        for key, hits in keyed:
                            if hits[-1][0][0] <= k:
                                break
                            if hits[0][0][0] <= k:
                                hits = hits[bisect_left(hits, ((k + 1,),)):]
                            for head, zcol in heads:
                                key_t = tuple([(u + v) % mod if mod else u + v
                                               for u, v, mod in zip(zcol, key, mods)])
                                into = tab.setdefault(key_t, [])
                                if len(hits) == 1:  # one hit, as most keys hold, needs no list
                                    into.append(head + hits[0])
                                else:
                                    into.extend([head + cells for cells in hits])
        return tab

    found: list[tuple[int, ...]] = []
    picks: list[tuple[int, int]] = []
    sums = [0] * len(rows)

    def place(lo: int, r: int) -> None:
        # place the next support coordinate idx >= lo, look up the last
        # `width` coordinates above it, and descend while r leaves room
        steps = [(a, r - a * a, table(width, r - a * a)) for a in range(1, isqrt(r - width) + 1)]
        for idx in range(lo, n - width):
            col = cols[idx]
            deeper = idx + 1 < n - width
            first = ((idx + 1,),)  # sorts just before the cells from coordinate idx + 1 on
            for a, rs, tab in steps:
                descend = deeper and rs > width
                if not (tab or descend):
                    continue
                for x in (a, -a) if picks else (a,):
                    for t, c in enumerate(col):
                        sums[t] += c * x
                    for t in range(nz):
                        if abs(sums[t]) > rs * sufmax[t][idx + 1]:
                            break
                    else:
                        picks.append((idx, x))
                        if tab:
                            hits = tab.get(tuple([(-v) % mod if mod else -v
                                                  for v, mod in zip(sums, mods)]))
                            if hits:
                                for cells in hits[bisect_left(hits, first):]:
                                    vec = [0] * n
                                    for k, z in picks:
                                        vec[k] = z
                                    for k, z in cells:
                                        vec[k] = z
                                    found.append(tuple(vec))
                        if descend:
                            place(idx + 1, rs)
                        picks.pop()
                    for t, c in enumerate(col):
                        sums[t] -= c * x

    zero = tuple(sums)
    for t in range(1, width + 1):
        for cells in table(t, m).get(zero, ()):
            if cells[0][1] > 0:
                vec = [0] * n
                for k, z in cells:
                    vec[k] = z
                found.append(tuple(vec))
    if m > width:
        place(0, m)
    # place and table call themselves, so each closure holds its own function:
    # drop those names, so that what the walk built is freed on return and
    # not left to the cyclic collector
    del place, table
    found.sort()
    return MinimalVectorSet(m, tuple(found))


def minimum(lat: Lattice, search_cap: int = 12) -> tuple[int, MinimalVectorSet]:
    """The smallest norm <= search_cap with nonzero vectors, and its vectors;
    ConstructionError when every norm up to the cap is empty."""
    if search_cap < 1:
        raise ValueError("search cap must be positive")
    for m in range(1, search_cap + 1):
        mvs = vectors_of_norm(lat, m)
        if mvs.vectors:
            return m, mvs
    raise ConstructionError(f"minimum exceeds cap {search_cap}")


def has_m_lattice_sidon_property(cs: ConstraintSystem, m: int) -> bool:
    """True when every nonzero lattice vector has squared norm >= 2(m+1)."""
    lat = build(cs)
    return not any(vectors_of_norm(lat, n).vectors for n in range(1, 2 * m + 2))


def enumerate_by_basis_oracle(lat: Lattice, bound: int) -> dict[int, MinimalVectorSet]:
    """Fincke-Pohst enumeration of all norms <= bound, in ambient coordinates.

    Searches an LLL-reduced basis using its integral Gram-Schmidt data
    (intlinalg.lll), in integers throughout, so the search bounds are sharp
    and nothing is lost to rounding.  Each +- pair is reached once, with its
    highest nonzero coefficient positive: while every coefficient above
    level i is zero the centre is 0 and level i walks only x_i >= 0.  Each
    level hands down the ambient vector and the centres S_k of the lower
    levels over the coefficients placed so far, updated only by a nonzero
    x_i, so a leaf costs one n-term update in place of up to d of them.
    Independent of vectors_of_norm by construction.
    """
    if bound < 1:
        raise ValueError("norm bound must be positive")
    d = lat.rank
    # lll raises unless the Gram matrix of the basis is positive definite
    basis, dets, lam = intlinalg.lll(lat.basis)
    # level i contributes (dets[i+1] x_i + S_i)^2 / (dets[i+1] dets[i]) with
    # S_i = sum_{j>i} lam[j][i] x_j; scaled by L, its weight is the integer w[i]
    scale = lcm(*(dets[i] * dets[i + 1] for i in range(d)))
    w = [scale // (dets[i] * dets[i + 1]) for i in range(d)]
    budget = bound * scale
    lows = [lam[i][:i] for i in range(d)]

    buckets: dict[int, list[tuple[int, ...]]] = {m: [] for m in range(1, bound + 1)}

    def descend(i: int, used: int, part: list[int], cent: list[int], placed: bool) -> None:
        # part = sum_{j>i} x_j basis[j] and cent[k] = S_k over those x_j, for
        # k <= i; placed says whether any of those x_j is nonzero
        S = cent[i]
        di = dets[i + 1]
        row, low = basis[i], lows[i]
        # w[i] t^2 <= budget - used for the integer t = di x_i + S
        r = isqrt((budget - used) // w[i])
        for xi in range(-((r + S) // di) if placed else 0, (r - S) // di + 1):
            t = di * xi + S
            used_i = used + w[i] * t * t
            amb = [a + xi * b for a, b in zip(part, row)] if xi else part
            if i:
                descend(i - 1, used_i, amb,
                        [c + xi * l for c, l in zip(cent, low)] if xi else cent, placed or xi != 0)
            elif placed or xi:
                norm, rest = divmod(used_i, scale)
                if rest or not 1 <= norm <= bound:
                    raise ArithmeticError(
                        f"oracle reached norm {used_i}/{scale} outside 1..{bound}")
                buckets[norm].append(sign_canonical(amb))

    descend(d - 1, 0, [0] * lat.ambient_dim, [0] * d, False)
    return {m: MinimalVectorSet(m, tuple(sorted(vs))) for m, vs in buckets.items()}
