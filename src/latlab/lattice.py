"""Lattices cut out of Z^n by equality and congruence constraints.

A lattice is built from a ConstraintSystem (weight rows with a modulus, 0
meaning equality over Z) and carries a canonical HNF basis, its Gram matrix
and its determinant.  Vectors of a prescribed squared norm are enumerated two
independent ways:

* ``vectors_of_norm`` walks square patterns of the target norm over supports
  and signs in the ambient space, pruning with interval bounds on the
  equality rows and filtering congruence rows on completed supports;
* ``enumerate_by_basis_oracle`` runs a Fincke-Pohst search over basis
  coordinates with an exact rational Cholesky decomposition.  Each
  coordinate x_i adds q_ii (x_i + U)^2 to the partial norm, a convex function
  of x_i, so the values within budget form an interval around the integer
  nearest -U: the search walks up from that integer and then down from the
  one below it, each walk stopping at the first value over budget.  No
  square root is taken.

The two must agree norm by norm; the test suite leans on that equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import isqrt

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


def build(cs: ConstraintSystem) -> Lattice:
    """Construct the lattice of all integer vectors satisfying cs."""
    basis = intlinalg.kernel_basis(cs.ambient_dim, cs.rows)
    if not basis:
        raise ConstructionError("trivial lattice")
    gram = intlinalg.gram_matrix(basis)
    det = intlinalg.bareiss_det(gram)
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


def vectors_of_norm(lat: Lattice, m: int) -> MinimalVectorSet:
    """Complete sign-canonical set of lattice vectors of squared norm m.

    Enumerates square patterns of m, then supports in increasing coordinate
    order, then signs (the first support coordinate is forced positive).
    Equality rows prune partial assignments through interval bounds on what
    the unplaced values can still contribute; congruence rows are checked
    once a support is complete.
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
    found: list[tuple[int, ...]] = []

    for pattern in square_patterns(m):
        if len(pattern) > n:
            continue
        vals = sorted(set(pattern), reverse=True)
        remaining = {v: pattern.count(v) for v in vals}
        picks: list[tuple[int, int]] = []
        zsums = [0] * nz

        def place(lo: int, need: int, remsum: int) -> None:
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


def minimum(lat: Lattice, search_cap: int = 12) -> tuple[int, MinimalVectorSet] | None:
    """Smallest norm <= search_cap with nonzero vectors, or None beyond the cap."""
    if search_cap < 1:
        raise ValueError("search cap must be positive")
    for m in range(1, search_cap + 1):
        mvs = vectors_of_norm(lat, m)
        if mvs.vectors:
            return m, mvs
    return None


def has_m_lattice_sidon_property(cs: ConstraintSystem, m: int) -> bool:
    """True when every nonzero lattice vector has squared norm >= 2(m+1)."""
    return minimum(build(cs), 2 * (m + 1) - 1) is None


def enumerate_by_basis_oracle(lat: Lattice, bound: int) -> dict[int, MinimalVectorSet]:
    """Fincke-Pohst enumeration of all norms <= bound, in ambient coordinates.

    Uses an exact rational Cholesky-type decomposition of the Gram matrix, so
    the search bounds are sharp and nothing is lost to rounding.  Independent
    of vectors_of_norm by construction.
    """
    d = lat.rank
    G = lat.gram
    q = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        s = Fraction(G[i][i]) - sum(q[k][k] * q[k][i] ** 2 for k in range(i))
        if s <= 0:
            raise ArithmeticError("Gram matrix must be positive definite")
        q[i][i] = s
        for j in range(i + 1, d):
            t = Fraction(G[i][j]) - sum(q[k][k] * q[k][i] * q[k][j] for k in range(i))
            q[i][j] = t / s

    buckets: dict[int, set[tuple[int, ...]]] = {m: set() for m in range(1, bound + 1)}
    x = [0] * d
    budget = Fraction(bound)

    def descend(i: int, used: Fraction) -> None:
        U = sum((q[i][j] * x[j] for j in range(i + 1, d)), Fraction(0))
        un, ud = U.numerator, U.denominator
        # (x_i + U)^2 <= R tested in integers; the x_i passing it form an
        # interval around floor(1/2 - U), the integer nearest -U
        R = (budget - used) / q[i][i]
        lhs, rhs = R.denominator, R.numerator * ud * ud
        start = (ud - 2 * un) // (2 * ud)
        for walk in (count(start), count(start - 1, -1)):
            for xi in walk:
                if lhs * (ud * xi + un) ** 2 > rhs:
                    break
                x[i] = xi
                used_i = used + q[i][i] * (xi + U) ** 2
                if i:
                    descend(i - 1, used_i)
                elif any(x):
                    norm = int(used_i)
                    if used_i != norm or not 1 <= norm <= bound:
                        raise ArithmeticError(f"oracle reached norm {used_i} outside 1..{bound}")
                    amb = [0] * lat.ambient_dim
                    for c, row in zip(x, lat.basis):
                        if c:
                            for t, b in enumerate(row):
                                amb[t] += c * b
                    buckets[norm].add(sign_canonical(amb))
        x[i] = 0

    descend(d - 1, Fraction(0))
    return {m: MinimalVectorSet(m, tuple(sorted(vs))) for m, vs in buckets.items()}
