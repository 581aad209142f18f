import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latlab.errors import SpecError
from latlab.groups import (
    FinAbelianGroup,
    abelian_groups_of_order,
    factorize,
    is_sidon,
    mod_negation_reps,
    parse_group,
    two_torsion_rank,
)

small_group = st.lists(st.integers(2, 6), min_size=1, max_size=3).map(
    lambda fs: FinAbelianGroup(tuple(fs))
)


def test_parse_group_forms():
    assert parse_group("Z/9").factors == (9,)
    assert parse_group("Z/3+Z/3").factors == (3, 3)
    assert parse_group("F2^3").factors == (2, 2, 2)
    assert parse_group("Z/2+Z/8").factors == (2, 8)
    with pytest.raises(SpecError):
        parse_group("Z/1")
    with pytest.raises(SpecError):
        parse_group("F4^2")
    with pytest.raises(SpecError, match="exponent must be positive"):
        parse_group("F2^0")
    with pytest.raises(ValueError, match="at least 2"):
        FinAbelianGroup((1,))


def test_factorize():
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert factorize(97) == [(97, 1)]
    assert factorize(1) == factorize(0) == []
    for n in range(1, 300):
        prod = 1
        for p, e in factorize(n):
            assert factorize(p) == [(p, 1)] and e >= 1
            prod *= p**e
        assert prod == n


def test_two_torsion_rank_examples():
    assert two_torsion_rank(parse_group("Z/9")) == 0
    assert two_torsion_rank(parse_group("Z/8")) == 1
    assert two_torsion_rank(parse_group("F2^3")) == 3


@settings(max_examples=50, deadline=None)
@given(small_group, small_group)
def test_two_torsion_rank_additive(A, B):
    AB = FinAbelianGroup(A.factors + B.factors)
    assert two_torsion_rank(AB) == two_torsion_rank(A) + two_torsion_rank(B)


def test_mod_negation_reps_examples():
    assert mod_negation_reps(parse_group("Z/5")) == [(0,), (1,), (2,)]
    assert mod_negation_reps(parse_group("Z/16")) == [(i,) for i in range(9)]
    assert len(mod_negation_reps(parse_group("F2^3"))) == 8


@settings(max_examples=50, deadline=None)
@given(small_group)
def test_mod_negation_reps_cover_and_count(A):
    reps = mod_negation_reps(A)
    selfinv = sum(1 for a in A.elements() if A.add(a, a) == A.zero)
    assert len(reps) == (A.order + selfinv) // 2
    covered = set(reps) | {A.neg(r) for r in reps}
    assert covered == set(A.elements())
    assert reps[0] == A.zero


@settings(max_examples=25, deadline=None)
@given(small_group)
def test_group_axioms_exhaustive(A):
    if A.order > 16:
        return
    elems = list(A.elements())
    for a in elems:
        assert A.add(a, A.zero) == a
        assert A.add(a, A.neg(a)) == A.zero
        for b in elems:
            assert A.add(a, b) == A.add(b, a)
    for a in elems[:4]:
        for b in elems[:4]:
            for c in elems[:4]:
                assert A.add(A.add(a, b), c) == A.add(a, A.add(b, c))


def _sidon_brute_force(subset, group):
    # independent oracle: raw loop over all quadruples
    for x1 in subset:
        for y1 in subset:
            for x2 in subset:
                for y2 in subset:
                    if group.add(x1, y1) == group.add(x2, y2):
                        if sorted((x1, y1)) != sorted((x2, y2)):
                            return False
    return True


def test_is_sidon_examples():
    z7 = parse_group("Z/7")
    s = [(0,), (1,), (3,)]
    assert is_sidon(s, z7) is True
    assert _sidon_brute_force(s, z7) is True
    bad = [(0,), (1,), (2,)]  # 0 + 2 = 1 + 1
    assert is_sidon(bad, z7) is False
    assert _sidon_brute_force(bad, z7) is False
    with pytest.raises(ValueError, match="distinct"):
        is_sidon([(0,), (1,), (0,)], z7)


def test_is_sidon_inverse_pairs_fails_moment_curve_holds():
    # the inverse-pair set contains antipodal pairs s_x + s_(-x) = 0, so it
    # is not a Sidon set; the moment curve x -> (x, x^2) is one
    g = parse_group("Z/11+Z/11")
    inverse_set = [(x, pow(x, -1, 11)) for x in range(1, 11)]
    assert is_sidon(inverse_set, g) is False
    assert _sidon_brute_force(inverse_set, g) is False
    assert g.add(inverse_set[0], inverse_set[9]) == g.zero
    moment = [(x, x * x % 11) for x in range(11)]
    assert is_sidon(moment, g) is True


@settings(max_examples=40, deadline=None)
@given(small_group, st.data())
def test_is_sidon_matches_brute_force(A, data):
    elems = list(A.elements())
    size = data.draw(st.integers(1, min(4, len(elems))))
    subset = data.draw(st.permutations(elems).map(lambda p: list(p[:size])))
    assert is_sidon(subset, A) == _sidon_brute_force(subset, A)


def test_abelian_groups_of_order():
    assert [g.factors for g in abelian_groups_of_order(8)] == [(2, 2, 2), (2, 4), (8,)]
    assert len(abelian_groups_of_order(16)) == 5
    assert len(abelian_groups_of_order(12)) == 2
    assert abelian_groups_of_order(1) == []
    for n in range(2, 17):
        for g in abelian_groups_of_order(n):
            assert g.order == n


def test_element_labels_roundtrip():
    g = parse_group("F2^3")
    assert g.label((1, 0, 1)) == "101"
    assert g.parse_element("101") == (1, 0, 1)
    z = parse_group("Z/9")
    assert z.parse_element("7") == (7,)
    big = FinAbelianGroup((12, 5))
    assert big.parse_element(big.label((11, 3))) == (11, 3)
    with pytest.raises(ValueError, match="component count"):
        big.element((1, 2, 3))
    # the label's own check, a SpecError, before element's ValueError
    with pytest.raises(SpecError, match="wrong component count"):
        parse_group("Z/11+Z/11").parse_element("1,2,3")
