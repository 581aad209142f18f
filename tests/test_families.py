import pytest

from latlab import lattice, perfection
from latlab.errors import ConstructionError, SpecError
from latlab.families import (
    FamilySpec,
    build_family,
    craig_count_closed,
    craig_count_k2_closed,
    craig_count_k3_closed,
    craig_pair_count,
    det_formula,
    jacobi,
    make,
    minpair_formula,
    parse_family,
    verify_formula,
)


def test_parse_family_grammar():
    assert str(parse_family("Ld:7")) == "Ld:7"
    assert parse_family("Ld:8:excl=2,10").excl == (2, 10)
    assert parse_family("Od:9:excl=11").excl == (11,)
    assert parse_family("LA:Z/3+Z/3").group.factors == (3, 3)
    assert parse_family("LAsub:Z/9:drop=0").drop == (0,)
    assert parse_family("Mneg:Z/16").group.factors == (16,)
    assert parse_family("T:3").c == 3
    spec = parse_family("Craig:q=11,k=2")
    assert (spec.q, spec.k) == (11, 2)
    assert parse_family("SidonInv:q=11").q == 11
    assert parse_family("Sidon:Z/7:set=0,1,3").subset == ((0,), (1,), (3,))


def test_parse_family_errors():
    for bad in ("Xx:7", "Ld", "Ld:0", "Ld:8:excl=5,3", "Od:9:excl=2",
                "Md:9:excl=-1", "Craig:q=11", "Craig:q=11,k=0", "T:0",
                "LAsub:Z/9", "Sidon:Z/7"):
        with pytest.raises(SpecError):
            parse_family(bad)


def test_make_applies_exclusion_rules():
    # specs built directly skip the parser but not the sign and parity rules
    for tag, excl in (("Od", (2,)), ("Od", (-1,)), ("Md", (-1,)), ("Ld", (0,))):
        with pytest.raises(SpecError):
            make(FamilySpec(tag, d=8, excl=excl))


def test_exclusion_window_validation():
    with pytest.raises(SpecError, match="out of index range"):
        parse_family("Ld:7:excl=99")
    with pytest.raises(SpecError):
        parse_family("Od:8:excl=19")  # window tops out at 2(d+k)-1 = 17
    with pytest.raises(SpecError):
        parse_family("Md:8:excl=9")
    # non-strict parsing admits ineffective exclusions (used by sweeps)
    assert parse_family("Ld:7:excl=99", strict=False).excl == (99,)


def test_make_constraint_rows():
    cs = make(parse_family("Ld:7"))
    assert cs.ambient_dim == 9
    assert cs.rows == (((1,) * 9, 0), (tuple(range(1, 10)), 0))
    cs = make(parse_family("Md:7"))
    assert cs.rows == ((tuple(range(8)), 0), ((1,) * 8, 2))
    cs = make(parse_family("Craig:q=7,k=2"))
    assert cs.ambient_dim == 7
    assert cs.rows[0] == ((1,) * 7, 0)
    assert cs.rows[1] == (tuple(range(7)), 7)
    assert cs.rows[2] == (tuple(x * x % 7 for x in range(7)), 7)


def test_make_excluded_windows():
    cs = make(parse_family("Ld:7:excl=4"))
    assert cs.labels == ("1", "2", "3", "5", "6", "7", "8", "9", "10")
    cs = make(parse_family("Od:8:excl=5"))
    assert cs.rows[0][0] == (1, 3, 7, 9, 11, 13, 15, 17, 19)
    cs = make(parse_family("Md:8:excl=0"))
    assert cs.rows[0][0] == (1, 2, 3, 4, 5, 6, 7, 8, 9)


def test_make_craig_prime_power():
    cs = make(parse_family("Craig:q=4,k=1"))
    assert cs.ambient_dim == 4
    # one sum row plus e = 2 component rows mod 2
    assert len(cs.rows) == 3
    assert all(mod == 2 for _, mod in cs.rows[1:])


def test_make_craig_rejects_large_k():
    with pytest.raises(ConstructionError):
        make(parse_family("Craig:q=4,k=2"))
    with pytest.raises(ConstructionError):
        make(parse_family("Craig:q=9,k=3"))


def test_det_formula_values():
    assert det_formula(parse_family("Ld:7")) == 540
    assert det_formula(parse_family("Od:8")) == 969
    assert det_formula(parse_family("Mneg:F2^3")) == 256
    assert det_formula(parse_family("LA:Z/7")) == 343
    assert det_formula(parse_family("T:3")) == 64
    assert det_formula(parse_family("Craig:q=7,k=2")) == 16807
    with pytest.raises(ValueError, match="no closed form"):
        det_formula(parse_family("Ld:8:excl=2"))
    with pytest.raises(ValueError, match="no closed form"):
        det_formula(parse_family("SidonInv:q=11"))


def test_minpair_formula_values():
    assert minpair_formula(parse_family("Ld:6")) == 22
    assert minpair_formula(parse_family("Ld:7")) == 34
    assert minpair_formula(parse_family("Md:7")) == 34
    assert minpair_formula(parse_family("Od:7")) == 29
    assert minpair_formula(parse_family("LA:Z/9")) == 54
    assert minpair_formula(parse_family("LA:Z/8")) == 36
    assert minpair_formula(parse_family("LA:Z/4+Z/2")) == 38
    assert minpair_formula(parse_family("LA:F2^3")) == 42
    assert minpair_formula(parse_family("LAsub:Z/9:drop=0")) == 30
    assert minpair_formula(parse_family("LAsub:F2^3:drop=000")) == 21
    assert minpair_formula(parse_family("T:3")) == 28
    assert minpair_formula(parse_family("T:4")) == 140
    with pytest.raises(ValueError, match="no closed form"):
        minpair_formula(parse_family("Mneg:Z/16"))


def test_jacobi_symbol():
    assert jacobi(-1, 11) == -1
    assert jacobi(-1, 13) == 1
    assert jacobi(-2, 11) == 1
    assert jacobi(-2, 7) == -1
    assert jacobi(-3, 7) == 1
    assert jacobi(0, 9) == 0
    # multiplicativity sweep against Euler's criterion on primes
    for p in (7, 11, 13, 17, 19, 23):
        for a in range(1, p):
            assert jacobi(a, p) == (1 if pow(a, (p - 1) // 2, p) == 1 else -1)
    with pytest.raises(ValueError, match="odd positive n"):
        jacobi(1, 4)


def test_craig_closed_forms():
    assert craig_count_k2_closed(7) == 7
    assert craig_count_k2_closed(11) == 55
    assert craig_count_k2_closed(13) == 156
    assert craig_count_k2_closed(25) == 25 * 24 * (625 - 250 + 33) // 72
    for bad in (6, 9, 12):
        with pytest.raises(ValueError, match="outside theorem"):
            craig_count_k2_closed(bad)
    assert craig_count_k3_closed(7) == 0
    assert craig_count_k3_closed(11) == 0
    assert craig_count_k3_closed(13) == 39
    for bad in (5, 9, 25):
        with pytest.raises(ValueError, match="outside theorem"):
            craig_count_k3_closed(bad)


def test_craig_pair_count_matches_closed_forms_small():
    for q in (7, 11, 13):
        assert craig_pair_count(q, 2) == craig_count_k2_closed(q)
    assert craig_pair_count(7, 3) == craig_count_k3_closed(7)
    assert craig_pair_count(11, 3) == craig_count_k3_closed(11)


def test_craig_count_closed_dispatches_on_k():
    assert craig_count_closed(13, 2) == craig_count_k2_closed(13) == 156
    assert craig_count_closed(13, 3) == craig_count_k3_closed(13) == 39
    for k in (1, 4):
        with pytest.raises(SpecError, match="no closed form"):
            craig_count_closed(13, k)


def test_craig_convexity_lower_bound():
    # value >= q^k * C(C(q, k+1)/q^k, 2) with the polynomial binomial
    from fractions import Fraction
    from math import comb

    for q, k in ((7, 2), (11, 2), (9, 2), (8, 1)):
        mean = Fraction(comb(q, k + 1), q**k)
        bound = q**k * mean * (mean - 1) / 2
        assert craig_pair_count(q, k) >= bound


def test_verify_formula_reports():
    rep = verify_formula(parse_family("Ld:10"))
    assert rep.agree and rep.formula_value == rep.enumerated_value
    rep = verify_formula(parse_family("T:4"))
    assert rep.agree and rep.formula_value == 140
    rep = verify_formula(parse_family("LA:Z/4+Z/2"))
    assert rep.agree and rep.formula_value == 38
    rep = verify_formula(parse_family("LAsub:Z/9:drop=0"))
    assert rep.agree and rep.formula_value == 30
    rep = verify_formula(parse_family("Craig:q=11,k=2"))
    assert rep.agree and rep.formula_value == 55


def test_reversal_isomorphy_invariants():
    # reflecting the coefficient window maps exclusion a to d+k+3-a, so the
    # two lattices must agree in det, pair count and perfection default
    # (k = 1 specializes to the d+4-i pairing used for the tables)
    cases = [(8, (2,)), (8, (3,)), (10, (4,)), (9, (2, 5)), (12, (3, 7)),
             (7, (2,)), (7, (3,))]
    for d, excl in cases:
        k = len(excl)
        mirrored = tuple(sorted(d + k + 3 - a for a in excl))
        r1 = perfection.perfection_report(build_family(FamilySpec("Ld", d=d, excl=excl)))
        r2 = perfection.perfection_report(build_family(FamilySpec("Ld", d=d, excl=mirrored)))
        assert (r1.det, r1.mp, r1.pd) == (r2.det, r2.mp, r2.pd), (d, excl)


def test_ld_excl_one_is_plain_ld():
    base = build_family("Ld:7")
    shifted = build_family(FamilySpec("Ld", d=7, excl=(1,)))
    assert base.det == shifted.det
    assert lattice.vectors_of_norm(base, 4).count == lattice.vectors_of_norm(shifted, 4).count


def test_family_spec_roundtrip():
    for text in ("Ld:7", "Ld:8:excl=2,10", "Od:9:excl=11", "Md:9:excl=1",
                 "LA:Z/3+Z/3", "LAsub:Z/9:drop=0", "Mneg:Z/16", "T:3",
                 "Craig:q=11,k=2", "SidonInv:q=11"):
        assert str(parse_family(text)) == text


def test_unknown_tag_is_refused_by_str_as_by_make():
    spec = FamilySpec("Zz", d=3)
    with pytest.raises(SpecError, match="unknown family tag 'Zz'"):
        make(spec)
    with pytest.raises(SpecError, match="unknown family tag 'Zz'"):
        str(spec)


# (coefficient count - d, start, step) of each window, stated here
# independently of the constructor
_WINDOWS = {"Ld": (2, 1, 1), "Od": (1, 1, 2), "Md": (1, 0, 1)}


def _window_cases(pairs: bool):
    for tag, (extra, start, step) in _WINDOWS.items():
        for d in range(1, (8 if pairs else 12) + 1):
            # the first d + extra + 4 members of the progression: the
            # window, its one or two slots for exclusions, and two beyond
            prog = [start + i * step for i in range(d + extra + 4)]
            if pairs:
                yield from ((tag, d, (a, b)) for i, a in enumerate(prog) for b in prog[i + 1:])
            else:
                yield from ((tag, d, (a,)) for a in prog)


@pytest.mark.parametrize("pairs", (False, True), ids=("single", "pairs"))
def test_strict_parse_accepts_exactly_the_effective_exclusions(pairs):
    # an exclusion is effective when dropping it from the spec changes the
    # constraint system; strict parsing must accept a spec exactly when all
    # of its exclusions are
    mismatches = []
    for tag, d, excl in _window_cases(pairs):
        cs = make(FamilySpec(tag, d=d, excl=excl))
        effective = all(
            make(FamilySpec(tag, d=d, excl=tuple(b for b in excl if b != a))) != cs
            for a in excl
        )
        text = f"{tag}:{d}:excl=" + ",".join(map(str, excl))
        try:
            parse_family(text)
            accepted = True
        except SpecError as exc:
            assert "out of index range" in str(exc)
            accepted = False
        if accepted != effective:
            mismatches.append(text)
    assert not mismatches
