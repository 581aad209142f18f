"""Constructors for every lattice family plus their closed-form invariants.

Each family is named by a FamilySpec (tag plus parameters, with a compact
string grammar for the CLI).  ``make`` turns a spec into the constraint
system cutting the lattice out of Z^n, from one of three shapes: a
simplex-type kernel over a coefficient window with excluded indices (Ld, Od,
Md; each window is one entry of ``_WINDOWS``), a group-algebra kernel over a
finite abelian group (LA, LAsub, Mneg, T, Sidon) or a power-sum kernel over a
finite field (Craig, SidonInv).  ``det_formula`` and
``minpair_formula`` give the closed-form determinant and shortest-vector
pair count where one exists, so formulas and explicit enumeration can be
cross-verified.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from . import lattice
from .errors import ConstructionError, SpecError
from .fields import FiniteField, field_for_order
from .groups import (FinAbelianGroup, factorize, is_sidon, mod_negation_reps, parse_group,
                     two_torsion_rank)
from .intlinalg import _exact_div
from .lattice import ConstraintSystem, Lattice

# each family tag and the most ':' separated parts its spec takes
_MAX_PARTS = {"Ld": 3, "Od": 3, "Md": 3, "LA": 2, "LAsub": 3, "Mneg": 2, "T": 2,
              "Craig": 2, "Sidon": 3, "SidonInv": 2}
TAGS = tuple(_MAX_PARTS)

# each window family's (extra, start, step): its coefficients are the
# smallest d + extra members of start, start + step, ... that are not excluded
_WINDOWS = {"Ld": (2, 1, 1), "Od": (1, 1, 2), "Md": (1, 0, 1)}


@dataclass(frozen=True)
class FamilySpec:
    tag: str
    d: int | None = None
    excl: tuple[int, ...] = ()
    group: FinAbelianGroup | None = None
    drop: tuple[int, ...] | None = None
    c: int | None = None
    q: int | None = None
    k: int | None = None
    subset: tuple[tuple[int, ...], ...] | None = None

    def params_json(self) -> dict:
        """The populated parameters, group elements as their labels."""
        out: dict = {"tag": self.tag}
        if self.d is not None:
            out["d"] = self.d
        if self.excl:
            out["excl"] = self.excl
        if self.group is not None:
            out["group"] = str(self.group)
        if self.drop is not None:
            out["drop"] = self.group.label(self.drop)
        if self.c is not None:
            out["c"] = self.c
        if self.q is not None:
            out["q"] = self.q
        if self.k is not None:
            out["k"] = self.k
        if self.subset is not None:
            out["set"] = [self.group.label(a) for a in self.subset]
        return out

    def __str__(self) -> str:
        if self.tag in _WINDOWS:
            s = f"{self.tag}:{self.d}"
            if self.excl:
                s += ":excl=" + ",".join(str(a) for a in self.excl)
            return s
        if self.tag in ("LA", "Mneg"):
            return f"{self.tag}:{self.group}"
        if self.tag == "LAsub":
            return f"LAsub:{self.group}:drop={self.group.label(self.drop)}"
        if self.tag == "T":
            return f"T:{self.c}"
        if self.tag == "Craig":
            return f"Craig:q={self.q},k={self.k}"
        if self.tag == "Sidon":
            labels = ",".join(self.group.label(a) for a in self.subset)
            return f"Sidon:{self.group}:set={labels}"
        if self.tag == "SidonInv":
            return f"SidonInv:q={self.q}"
        raise SpecError(f"unknown family tag {self.tag!r}")


def parse_ints(text: str, what: str) -> tuple[int, ...]:
    """Parse a comma separated list of integers; `what` names it in the error."""
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise SpecError(f"bad {what} {text!r}") from exc


def parse_excl(tag: str, text: str) -> tuple[int, ...]:
    """Parse a comma separated exclusion list for an Ld, Od or Md family."""
    excl = parse_ints(text, "exclusion list")
    if any(b <= a for a, b in zip(excl, excl[1:])):
        raise SpecError("exclusions must be strictly increasing")
    _check_excl(tag, excl)
    return excl


def _check_excl(tag: str, excl) -> None:
    """Every exclusion must be a member of the window's progression."""
    _, start, step = _WINDOWS[tag]
    if any(a < start or (a - start) % step for a in excl):
        raise SpecError(f"{tag} exclusions must be among {start}, {start + step}, "
                        f"{start + 2 * step}, ...")


def _excl_window_check(spec: FamilySpec) -> None:
    """Reject exclusions that fall outside the coefficient window.

    An exclusion beyond the window leaves the constraint system identical to
    the plain family, which a spec given explicitly on the command line is
    taken to be a mistake.  Programmatic sweeps construct FamilySpec values
    directly and may use ineffective exclusions freely.
    """
    extra, start, step = _WINDOWS[spec.tag]
    # the last of the first d + extra + k - 1 members of the progression
    hi = start + (spec.d + extra + len(spec.excl) - 2) * step
    for a in spec.excl:
        if not start <= a <= hi:
            raise SpecError(f"exclusion {a} out of index range [{start}, {hi}]")


def parse_family(text: str, strict: bool = True) -> FamilySpec:
    """Parse the spec grammar, e.g. "Ld:8:excl=2,10" or "Craig:q=11,k=2".

    With strict=True (the CLI default) exclusion lists must fall inside the
    family's coefficient window.
    """
    parts = [p.strip() for p in text.strip().split(":")]
    tag = parts[0]
    if tag not in TAGS:
        raise SpecError(f"unknown family tag {tag!r}")
    if len(parts) > _MAX_PARTS[tag]:
        raise SpecError("too many ':' separated parts")
    try:
        if tag in _WINDOWS:
            if len(parts) < 2:
                raise SpecError(f"{tag} needs a dimension")
            d = int(parts[1])
            if d < 1:
                raise SpecError("dimension must be positive")
            excl: tuple[int, ...] = ()
            if len(parts) == 3:
                if not parts[2].startswith("excl="):
                    raise SpecError(f"unexpected argument {parts[2]!r}")
                excl = parse_excl(tag, parts[2][5:])
            spec = FamilySpec(tag, d=d, excl=excl)
            if strict:
                _excl_window_check(spec)
            return spec
        if tag in ("LA", "Mneg"):
            return FamilySpec(tag, group=parse_group(parts[1]))
        if tag == "LAsub":
            if len(parts) < 3 or not parts[2].startswith("drop="):
                raise SpecError("LAsub needs GROUP:drop=ELEMENT")
            group = parse_group(parts[1])
            return FamilySpec(tag, group=group, drop=group.parse_element(parts[2][5:]))
        if tag == "T":
            c = int(parts[1])
            if c < 1:
                raise SpecError("T needs c >= 1")
            return FamilySpec(tag, c=c)
        if tag in ("Craig", "SidonInv"):
            keys = ("q", "k") if tag == "Craig" else ("q",)
            kv = {}
            for item in parts[1].split(","):
                key, _, val = item.partition("=")
                key, value = key.strip(), int(val)
                if key not in keys:
                    raise SpecError(f"unknown {tag} key {key!r}")
                if key in kv:
                    raise SpecError(f"repeated {tag} key {key!r}")
                kv[key] = value
            q = kv.get("q")
            if q is None or q < 2:
                raise SpecError(f"{tag} needs q=<prime power>")
            if tag == "SidonInv":
                return FamilySpec(tag, q=q)
            k = kv.get("k")
            if k is None or k < 1:
                raise SpecError("Craig needs k>=1")
            return FamilySpec(tag, q=q, k=k)
        # Sidon:GROUP:set=a,b,c
        if len(parts) < 3 or not parts[2].startswith("set="):
            raise SpecError("Sidon needs GROUP:set=ELEMENTS")
        group = parse_group(parts[1])
        subset = _parse_element_list(group, parts[2][4:])
        if len(set(subset)) != len(subset):
            raise SpecError("Sidon set elements must be distinct")
        return FamilySpec(tag, group=group, subset=subset)
    except SpecError:
        raise
    except (ValueError, IndexError) as exc:
        raise SpecError(f"cannot parse family spec {text!r}: {exc}") from exc


def _parse_element_list(group: FinAbelianGroup, text: str) -> tuple[tuple[int, ...], ...]:
    """Comma separated element labels; for groups whose labels themselves
    contain commas, consecutive tokens are grouped componentwise."""
    toks = [t.strip() for t in text.split(",")]
    try:
        return tuple(group.parse_element(t) for t in toks)
    except SpecError:
        r = group.rank
        if r > 1 and len(toks) % r == 0:
            return tuple(
                group.element(int(x) for x in toks[i:i + r])
                for i in range(0, len(toks), r)
            )
        raise


def _window(excluded, count: int, start: int, step: int = 1) -> list[int]:
    """Smallest `count` members of start, start+step, ... avoiding exclusions."""
    out = []
    skip = set(excluded)
    x = start
    while len(out) < count:
        if x not in skip:
            out.append(x)
        x += step
    return out


def _group_rows(group: FinAbelianGroup, coords) -> list[tuple[tuple[int, ...], int]]:
    """Congruence rows expressing 'sum of v_a * a vanishes in the group'."""
    return [
        (tuple(a[j] for a in coords), m)
        for j, m in enumerate(group.factors)
    ]


def make(spec: FamilySpec) -> ConstraintSystem:
    """Constraint system of the named family: a window, group or field kernel."""
    tag = spec.tag
    if tag in _WINDOWS:
        _check_excl(tag, spec.excl)
        extra, start, step = _WINDOWS[tag]
        coeffs = tuple(_window(spec.excl, spec.d + extra, start, step))
        ones = (1,) * len(coeffs)
        rows = {"Ld": ((ones, 0), (coeffs, 0)), "Od": ((coeffs, 0),),
                "Md": ((coeffs, 0), (ones, 2))}[tag]
        return ConstraintSystem(tuple(map(str, coeffs)), rows)
    if tag in ("LA", "LAsub", "Mneg", "T", "Sidon"):
        group = FinAbelianGroup((2,) * spec.c) if tag == "T" else spec.group
        if tag == "Mneg":
            coords = mod_negation_reps(group)
        elif tag == "Sidon":
            coords = sorted(spec.subset)
            if not is_sidon(coords, group):
                raise ConstructionError("subset is not a Sidon set")
        else:
            # LA drops nothing (spec.drop is None), T the zero of F2^c
            drop = group.zero if tag == "T" else spec.drop
            coords = [a for a in group.elements() if a != drop]
        head = [] if tag == "T" else [((1,) * len(coords), 2 if tag == "Mneg" else 0)]
        rows = head + _group_rows(group, coords)
        return ConstraintSystem(tuple(group.label(a) for a in coords), tuple(rows))
    if tag == "Craig":
        field = _craig_field(spec.q, spec.k)
        elems = field.elements()
        value_lists = [[field.pow(x, i) for x in elems] for i in range(1, spec.k + 1)]
    elif tag == "SidonInv":
        field = field_for_order(spec.q)
        if field.p == 2:
            raise ConstructionError("inverse-pair construction needs odd characteristic")
        elems = [x for x in field.elements() if x != field.zero]
        value_lists = [elems, [field.inv(x) for x in elems]]
    else:
        raise SpecError(f"unknown family tag {tag!r}")
    rows = [((1,) * len(elems), 0)] + [
        (tuple(x[t] for x in values), field.p) for values in value_lists for t in range(field.e)
    ]
    return ConstraintSystem(tuple(field.label(x) for x in elems), tuple(rows))


def build_family(spec: FamilySpec | str) -> Lattice:
    if isinstance(spec, str):
        spec = parse_family(spec, strict=False)
    return lattice.build(make(spec))


def det_formula(spec: FamilySpec) -> int:
    """Closed-form determinant, for the families that have one."""
    tag, d = spec.tag, spec.d
    if tag == "Ld" and not spec.excl:
        return _exact_div((d + 1) * (d + 2) ** 2 * (d + 3), 12)
    if tag == "Od" and not spec.excl:
        return _exact_div((d + 1) * (2 * d + 1) * (2 * d + 3), 3)
    if tag == "Md" and not spec.excl:
        return _exact_div(2 * d * (d + 1) * (2 * d + 1), 3)
    if tag == "LA":
        return spec.group.order ** 3
    if tag == "Mneg":
        return 4 * spec.group.order ** 2
    if tag == "T":
        return 4 ** spec.c
    if tag == "Craig":
        return spec.q ** (2 * spec.k + 1)
    raise SpecError("no closed form")


def _choose2(x: Fraction) -> Fraction:
    # binomial coefficient extended polynomially: x(x-1)/2
    return x * (x - 1) / 2


def formula_norm(spec: FamilySpec) -> int:
    """The squared norm whose vector count the family's formula predicts."""
    if spec.tag == "T":
        return 3
    if spec.tag == "Craig":
        return 2 * (spec.k + 1)
    return 4


def minpair_formula(spec: FamilySpec) -> int:
    """Closed-form number of +- pairs of shortest vectors."""
    tag, d = spec.tag, spec.d
    if tag == "Ld" and not spec.excl:
        if d % 2 == 0:
            return _exact_div(d * (d + 2) * (2 * d - 1), 24)
        return _exact_div((d - 1) * (d + 1) * (2 * d + 3), 24)
    if tag == "Od" and not spec.excl:
        c = {0: 0, 1: 4, 2: 2}[d % 3]
        return _exact_div(2 * d**3 - 3 * d**2 - 3 * d + c, 18)
    if tag == "Md" and not spec.excl:
        c = (36, 41, 28, 45, 32, 37)[d % 6]
        return _exact_div(4 * d**3 - 3 * d**2 - 6 * d + c, 36)
    if tag == "LA":
        a = Fraction(spec.group.order)
        t = Fraction(2 ** two_torsion_rank(spec.group))
        value = a * (1 - 1 / t) * _choose2(a / 2) + (a / t) * _choose2((a - t) / 2)
        return _exact_div(value.numerator, value.denominator)
    if tag == "LAsub":
        # one removed element; all such removals give isomorphic lattices
        a = Fraction(spec.group.order)
        t = Fraction(2 ** two_torsion_rank(spec.group))
        value = (
            a * (1 - 1 / t) * _choose2(a / 2 - 1)
            + ((a - t) / t) * _choose2((a - t) / 2 - 1)
            + _choose2((a - t) / 2)
        )
        return _exact_div(value.numerator, value.denominator)
    if tag == "T":
        n = 2 ** spec.c - 1
        return _exact_div(4 * (n * (n - 1) // 2), 3)
    raise SpecError("no closed form")


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive n."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("Jacobi symbol needs odd positive n")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _craig_field(q: int, k: int) -> FiniteField:
    """The field of a power-sum kernel of order k, which must lie below its
    characteristic."""
    field = field_for_order(q)
    if k >= field.p:
        raise ConstructionError("k must be smaller than the field characteristic")
    return field


def craig_pair_count(q: int, k: int) -> int:
    """Pairs of norm-2(k+1) vectors, summed from the distinct-root histogram."""
    from .fields import distinct_root_histogram

    hist = distinct_root_histogram(_craig_field(q, k), k)
    return sum(n * (n - 1) // 2 for n in hist.values())


def craig_count_closed(q: int, k: int) -> int:
    """The closed-form shortest-vector pair count, for k = 2 and k = 3."""
    if k == 2:
        return craig_count_k2_closed(q)
    if k == 3:
        return craig_count_k3_closed(q)
    raise SpecError("no closed form for this k")


def craig_count_k2_closed(q: int) -> int:
    """Closed form for the k = 2 shortest-vector pair count."""
    if len(factorize(q)) != 1:
        raise SpecError("outside theorem")
    if q % 6 == 1:
        return _exact_div(q * (q - 1) * (q * q - 10 * q + 33), 72)
    if q % 6 == 5:
        return _exact_div(q * (q - 1) * (q - 5) ** 2, 72)
    raise SpecError("outside theorem")


def craig_count_k3_closed(q: int) -> int:
    """Closed form for the k = 3 shortest-vector pair count (prime q > 5)."""
    if factorize(q) != [(q, 1)] or q <= 5:
        raise SpecError("outside theorem")
    j1 = jacobi(-1, q)
    j3 = jacobi(-3, q)
    if jacobi(-2, q) == -1:
        delta = 0
    else:
        for m in range(1, isqrt(q) + 1):
            r, rem = divmod(q - m * m, 2)
            n = isqrt(r)
            if rem == 0 and n * n == r:
                break
        else:
            raise ArithmeticError("q = m^2 + 2n^2 must be solvable when (-2|q) = 1")
        delta = 24 * (m * m - 2 * n * n) + 192 + 72 * j1
    c = 483 + 36 * j1 + 64 * j3 + delta
    return _exact_div(q * (q - 1) * (q**3 - 21 * q * q + 171 * q - c), 1152)


@dataclass(frozen=True)
class FormulaReport:
    family: str
    quantity: str
    formula_value: int
    enumerated_value: int

    @property
    def agree(self) -> bool:
        return self.formula_value == self.enumerated_value


def verify_formula(spec: FamilySpec) -> FormulaReport:
    """Closed-form shortest-vector pair count versus explicit enumeration."""
    norm = formula_norm(spec)
    if spec.tag == "Craig":
        expected = craig_pair_count(spec.q, spec.k)
    else:
        expected = minpair_formula(spec)
    lat = build_family(spec)
    mvs = lattice.vectors_of_norm(lat, norm)
    return FormulaReport(
        family=str(spec),
        quantity=f"norm-{norm} pairs",
        formula_value=expected,
        enumerated_value=mvs.count,
    )
