"""Finite abelian groups as products of cyclic factors.

Groups are immutable values holding their cyclic factor orders; elements are
plain int tuples reduced componentwise.  Iteration order is lexicographic on
the component tuples, which fixes the coordinate indexing of every lattice
that is built over a group.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import product

from .errors import SpecError


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorisation [(p, e), ...] with p increasing; [] when n < 2.

    Trial division, which is ample for the desk-scale orders used here.
    """
    factors = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors.append((p, e))
        p += 1
    if n > 1:
        factors.append((n, 1))
    return factors


@dataclass(frozen=True)
class FinAbelianGroup:
    """Direct sum of cyclic groups Z/m_1 + ... + Z/m_r (each m_i >= 2)."""

    factors: tuple[int, ...]

    def __post_init__(self):
        if any(m < 2 for m in self.factors):
            raise ValueError("cyclic factor orders must be at least 2")

    @property
    def order(self) -> int:
        n = 1
        for m in self.factors:
            n *= m
        return n

    @property
    def rank(self) -> int:
        return len(self.factors)

    @property
    def zero(self) -> tuple[int, ...]:
        return (0,) * len(self.factors)

    def elements(self):
        """All elements in lexicographic order on component tuples."""
        return product(*(range(m) for m in self.factors))

    def element(self, comps) -> tuple[int, ...]:
        comps = tuple(comps)
        if len(comps) != len(self.factors):
            raise ValueError("component count does not match group rank")
        return tuple(c % m for c, m in zip(comps, self.factors))

    def add(self, a, b) -> tuple[int, ...]:
        return tuple((x + y) % m for x, y, m in zip(a, b, self.factors))

    def neg(self, a) -> tuple[int, ...]:
        return tuple((-x) % m for x, m in zip(a, self.factors))

    def label(self, a) -> str:
        """Short printable name of an element, e.g. '5' or '012'."""
        if len(self.factors) == 1:
            return str(a[0])
        if all(m <= 10 for m in self.factors):
            return "".join(str(c) for c in a)
        return ",".join(str(c) for c in a)

    def parse_element(self, text: str) -> tuple[int, ...]:
        """Inverse of label(), used by the CLI spec grammar."""
        text = text.strip()
        r = len(self.factors)
        if r == 1:
            if not re.fullmatch(r"-?\d+", text):
                raise SpecError(f"bad element label {text!r}")
            return self.element((int(text),))
        if "," in text:
            parts = text.split(",")
        elif all(m <= 10 for m in self.factors) and re.fullmatch(r"\d+", text) and len(text) == r:
            parts = list(text)
        else:
            raise SpecError(f"bad element label {text!r} for group {self}")
        if len(parts) != r:
            raise SpecError(f"element label {text!r} has wrong component count")
        return self.element(int(p) for p in parts)

    def __str__(self) -> str:
        return "+".join(f"Z/{m}" for m in self.factors)


def parse_group(text: str) -> FinAbelianGroup:
    """Parse group spec strings like "Z/9", "Z/3+Z/3" or "F2^3"."""
    factors: list[int] = []
    for part in text.strip().split("+"):
        part = part.strip()
        m = re.fullmatch(r"Z/(\d+)", part)
        if m:
            order = int(m.group(1))
            if order < 2:
                raise SpecError(f"cyclic factor {part!r} must have order >= 2")
            factors.append(order)
            continue
        m = re.fullmatch(r"F(\d+)\^(\d+)", part)
        if m:
            p, k = int(m.group(1)), int(m.group(2))
            if factorize(p) != [(p, 1)]:
                raise SpecError(f"{part!r}: {p} is not prime")
            if k < 1:
                raise SpecError(f"{part!r}: exponent must be positive")
            factors.extend([p] * k)
            continue
        raise SpecError(f"cannot parse group component {part!r}")
    return FinAbelianGroup(tuple(factors))


def abelian_groups_of_order(n: int) -> list[FinAbelianGroup]:
    """One representative per isomorphism class of abelian groups of order n."""
    if n < 2:
        return []

    def partitions(k: int, cap: int) -> list[tuple[int, ...]]:
        if k == 0:
            return [()]
        out = []
        for first in range(min(k, cap), 0, -1):
            for rest in partitions(k - first, first):
                out.append((first,) + rest)
        return out

    groups = [()]
    for p, e in factorize(n):
        groups = [g + tuple(p**a for a in part)
                  for g in groups for part in partitions(e, e)]
    return [FinAbelianGroup(tuple(sorted(g))) for g in sorted(groups)]


def two_torsion_rank(group: FinAbelianGroup) -> int:
    """Largest c such that the group contains a subgroup isomorphic to F_2^c."""
    return sum(1 for m in group.factors if m % 2 == 0)


def mod_negation_reps(group: FinAbelianGroup) -> list[tuple[int, ...]]:
    """One representative per orbit {a, -a}, lexicographically smallest first.

    The identity comes first and the representative of each orbit is the
    lexicographically smaller of a and -a, so for Z/2m the output is exactly
    0, 1, ..., m.
    """
    return [a for a in group.elements() if a <= group.neg(a)]


def is_sidon(subset, group: FinAbelianGroup) -> bool:
    """Whether pair sums over the subset determine the pair as a multiset.

    Pairs with repetition count: x + x colliding with y + z for {y,z} != {x,x}
    already violates the condition.
    """
    elems = [tuple(a) for a in subset]
    if len(set(elems)) != len(elems):
        raise ValueError("subset elements must be distinct")
    seen: dict[tuple[int, ...], tuple] = {}
    for i, x in enumerate(elems):
        for y in elems[i:]:
            s = group.add(x, y)
            key = (min(x, y), max(x, y))
            if seen.setdefault(s, key) != key:
                return False
    return True
