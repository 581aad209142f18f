"""Finite field arithmetic for the distinct-root counting machinery.

Fields GF(p^e) are represented by a prime, a degree and a monic irreducible
modulus polynomial; elements are little-endian coefficient tuples over F_p.
The families need GF(q) only up to isomorphism, so the package names a field
by its order alone (field_for_order, which takes the modulus from
DEFAULT_MODULI); a FiniteField built directly may carry any other modulus.
Only desk-scale prime powers are needed, so irreducibility is verified by
brute-force trial division at construction time.  FiniteField is the one
home of the arithmetic: distinct_root_histogram tabulates it once on the
element numbers and walks the subsets of the field through those tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import comb

from .errors import SpecError
from .groups import factorize

Element = tuple[int, ...]

# Monic irreducible moduli (little-endian, constant term first) for the
# prime powers the package ships with.
DEFAULT_MODULI: dict[int, tuple[int, ...]] = {
    4: (1, 1, 1),        # x^2 + x + 1 over F_2
    8: (1, 1, 0, 1),     # x^3 + x + 1 over F_2
    9: (1, 0, 1),        # x^2 + 1 over F_3
    16: (1, 1, 0, 0, 1),  # x^4 + x + 1 over F_2
    25: (2, 1, 1),       # x^2 + x + 2 over F_5
    27: (1, 2, 0, 1),    # x^3 + 2x + 1 over F_3
    49: (3, 1, 1),       # x^2 + x + 3 over F_7
}


def _poly_trim(c: list[int]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_mod(num: list[int], den: tuple[int, ...], p: int) -> tuple[int, ...]:
    num = [x % p for x in num]
    dd = len(den) - 1
    inv_lead = pow(den[-1], -1, p)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            f = (c * inv_lead) % p
            for j, m in enumerate(den):
                num[i - dd + j] = (num[i - dd + j] - f * m) % p
    return _poly_trim(num[:dd] if dd else [])


def _is_irreducible(modulus: tuple[int, ...], p: int) -> bool:
    e = len(modulus) - 1
    for deg in range(1, e // 2 + 1):
        for tail in product(range(p), repeat=deg):
            div = tuple(tail) + (1,)
            if not _poly_mod(list(modulus), div, p):
                return False
    return True


@dataclass(frozen=True)
class FiniteField:
    """GF(p^e) with a fixed monic irreducible modulus (ignored when e = 1)."""

    p: int
    e: int
    modulus: tuple[int, ...]

    def __post_init__(self):
        if factorize(self.p) != [(self.p, 1)]:
            raise SpecError(f"{self.p} is not prime")
        if self.e < 1:
            raise SpecError("field degree must be positive")
        if len(self.modulus) != self.e + 1 or self.modulus[-1] % self.p != 1:
            raise SpecError("modulus must be monic of degree e")
        if not _is_irreducible(tuple(c % self.p for c in self.modulus), self.p):
            raise SpecError("modulus polynomial is reducible")

    @property
    def order(self) -> int:
        return self.p**self.e

    @property
    def zero(self) -> Element:
        return (0,) * self.e

    @property
    def one(self) -> Element:
        return (1,) + (0,) * (self.e - 1)

    def elements(self) -> list[Element]:
        """All q elements, ordered by their integer encoding sum c_i p^i."""
        out = []
        for idx in range(self.order):
            n, digits = idx, []
            for _ in range(self.e):
                n, r = divmod(n, self.p)
                digits.append(r)
            out.append(tuple(digits))
        return out

    def label(self, a: Element) -> str:
        return str(sum(c * self.p**i for i, c in enumerate(a)))

    def add(self, a: Element, b: Element) -> Element:
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a: Element) -> Element:
        return tuple((-x) % self.p for x in a)

    def mul(self, a: Element, b: Element) -> Element:
        conv = [0] * (2 * self.e - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    conv[i + j] += x * y
        red = list(_poly_mod(conv, self.modulus, self.p))
        return tuple(red) + (0,) * (self.e - len(red))

    def pow(self, a: Element, n: int) -> Element:
        acc = self.one
        base = a
        while n:
            if n & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            n >>= 1
        return acc

    def inv(self, a: Element) -> Element:
        if a == self.zero:
            raise ZeroDivisionError("inverse of zero field element")
        return self.pow(a, self.order - 2)


def field_for_order(q: int) -> FiniteField:
    """The field of order q, with its modulus from DEFAULT_MODULI when q is
    not prime."""
    factors = factorize(q)
    if len(factors) != 1:
        raise SpecError(f"{q} is not a prime power")
    p, e = factors[0]
    if e == 1:
        return FiniteField(p, 1, (0, 1))
    if q not in DEFAULT_MODULI:
        raise SpecError(f"no built-in modulus for GF({q})")
    return FiniteField(p, e, DEFAULT_MODULI[q])


def distinct_root_histogram(field: FiniteField, k: int) -> dict[tuple[Element, ...], int]:
    """Bucket counts N(a_1..a_k) of split polynomials by mid coefficients.

    For every (a_1,...,a_k) in F_q^k the value is the number of constants a_0
    such that x^(k+1) + a_k x^k + ... + a_1 x + a_0 has k+1 distinct roots.
    Each (k+1)-subset S of F_q lands in exactly one bucket, that of the
    product of (x - s) over S.  Elements are numbered by their position in
    elements(), and the field's -(x c) and a + b are tabulated once on those
    numbers.  The subsets are walked depth-first in increasing order, so each
    node extends the product of its parent by one factor, and a leaf adds one
    to a flat count indexed by the mixed-radix code of (a_1, ..., a_k), a_1
    the most significant digit: the order of product(elements(), repeat=k).
    """
    if k >= field.p:
        raise ValueError("power sums degenerate")
    elems = field.elements()
    q = len(elems)
    index = {x: i for i, x in enumerate(elems)}
    neg_mul = [[index[field.neg(field.mul(x, c))] for c in elems] for x in elems]
    plus = [[index[field.add(a, b)] for b in elems] for a in elems]
    one = index[field.one]
    counts = [0] * q**k

    def walk(poly: list[int], start: int, left: int) -> None:
        # poly: coefficients of the product so far, constant term first;
        # left: factors still to choose after the one chosen here.  The last
        # factor builds no list: only its a_1..a_k are needed, for the code.
        if not left:
            pairs = list(zip(poly, poly[1:]))
            for x in range(start, q):
                nm = neg_mul[x]
                code = 0
                for lo, hi in pairs:
                    code = code * q + plus[lo][nm[hi]]
                counts[code] += 1
            return
        for x in range(start, q - left):
            nm = neg_mul[x]
            child = [nm[poly[0]]]
            child += [plus[lo][nm[hi]] for lo, hi in zip(poly, poly[1:])]
            child.append(one)
            walk(child, x + 1, left - 1)

    walk([one], 0, k)
    if sum(counts) != comb(q, k + 1):
        raise RuntimeError("histogram lost subsets")
    return dict(zip(product(elems, repeat=k), counts))
