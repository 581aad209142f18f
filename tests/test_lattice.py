import json
import pickle
import random
from fractions import Fraction
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from references import identity, support_sign_reference
from test_acceptance import ORACLE_BOUND, ORACLE_SPECS

from latlab import cli, families, intlinalg, lattice
from latlab.errors import ConstructionError
from latlab.lattice import (
    ConstraintSystem,
    Lattice,
    MinimalVectorSet,
    build,
    contains,
    enumerate_by_basis_oracle,
    has_m_lattice_sidon_property,
    minimum,
    sign_canonical,
    square_patterns,
    vectors_of_norm,
)


def _cs(n, rows, labels=None):
    return ConstraintSystem(tuple(labels or (str(i) for i in range(n))), tuple(rows))


def test_build_examples():
    lat = families.build_family("Ld:7")
    assert (lat.rank, lat.det) == (7, 540)
    lat = families.build_family("LA:Z/7")
    assert (lat.rank, lat.det) == (6, 343)
    lat = families.build_family("T:3")
    assert (lat.rank, lat.det) == (7, 64)


def test_build_trivial_lattice():
    with pytest.raises(ConstructionError, match="trivial lattice"):
        build(_cs(1, [((1,), 0)]))


def test_square_patterns():
    assert square_patterns(4) == [(2,), (1, 1, 1, 1)]
    assert square_patterns(3) == [(1, 1, 1)]
    assert square_patterns(8) == [(2, 2), (2, 1, 1, 1, 1), (1,) * 8]


def test_vectors_of_norm_counts():
    assert vectors_of_norm(families.build_family("Ld:6"), 4).count == 22
    assert vectors_of_norm(families.build_family("Ld:7"), 2).count == 0
    assert vectors_of_norm(families.build_family("Od:7"), 4).count == 29


def test_vectors_are_canonical_sorted_and_satisfy():
    lat = families.build_family("Ld:6")
    mvs = vectors_of_norm(lat, 4)
    assert list(mvs.vectors) == sorted(set(mvs.vectors))
    for v in mvs.vectors:
        assert v == sign_canonical(v)
        assert sum(x * x for x in v) == 4
        assert contains(lat, v)
        assert tuple(-x for x in v) not in mvs.vectors


def test_minimum_examples():
    found = minimum(families.build_family("Ld:8"))
    assert found[0] == 4 and found[1].count == 50
    found = minimum(families.build_family("Craig:q=7,k=2"))
    assert found[0] == 6 and found[1].count == 7


def test_minimum_exceeds_cap():
    lat = families.build_family("Craig:q=7,k=2")
    with pytest.raises(ConstructionError, match="minimum exceeds cap 5"):
        minimum(lat, 5)


def test_input_checks():
    with pytest.raises(ValueError, match="length does not match"):
        _cs(2, [((1, 1, 1), 0)])
    with pytest.raises(ValueError, match="nonnegative"):
        _cs(2, [((1, 1), -3)])
    lat = families.build_family("Ld:7")
    with pytest.raises(ValueError, match="norm must be positive"):
        vectors_of_norm(lat, 0)
    with pytest.raises(ValueError, match="search cap must be positive"):
        minimum(lat, 0)
    assert sign_canonical((0, 0)) == (0, 0)


def test_contains_examples():
    lat = families.build_family("Ld:7")
    assert contains(lat, (1, -1, 0, 0, 0, -1, 1, 0, 0))
    assert not contains(lat, (1, 0, 0, 0, 0, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        contains(lat, (1, 0))
    md = families.build_family("Md:7")
    assert contains(md, (2, 0, 0, 0, 0, 0, 0, 0))


def test_det_invariant_under_unimodular_change():
    lat = families.build_family("LA:Z/8")
    rng = random.Random(3)
    B = [list(r) for r in lat.basis]
    for _ in range(4):
        U = identity(len(B))
        for _ in range(20):
            i, j = rng.randrange(len(B)), rng.randrange(len(B))
            if i != j:
                c = rng.choice([-1, 1, 2])
                for t in range(len(B)):
                    U[i][t] += c * U[j][t]
        assert intlinalg.gram_det(intlinalg.mat_mul(U, B)) == lat.det


def fraction_cholesky_oracle(lat, bound):
    """Reference Fincke-Pohst search over the HNF basis, with an exact
    rational Cholesky decomposition of the Gram matrix and no reduction.
    Coordinate x_i adds q_ii (x_i + U)^2 to the partial norm, so the values
    within budget form an interval around the integer nearest -U, walked up
    from it and then down from the one below it."""
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

    buckets = {m: set() for m in range(1, bound + 1)}
    x = [0] * d
    budget = Fraction(bound)

    def descend(i, used):
        U = sum((q[i][j] * x[j] for j in range(i + 1, d)), Fraction(0))
        un, ud = U.numerator, U.denominator
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
                        for t, b in enumerate(row):
                            amb[t] += c * b
                    buckets[norm].add(sign_canonical(amb))
        x[i] = 0

    descend(d - 1, Fraction(0))
    return {m: MinimalVectorSet(m, tuple(sorted(vs))) for m, vs in buckets.items()}


def test_oracle_matches_the_fraction_cholesky_reference():
    checked = 0
    for spec in ORACLE_SPECS:
        lat = families.build_family(families.parse_family(spec, strict=False))
        if lat.rank <= 10:
            assert enumerate_by_basis_oracle(lat, 8) == fraction_cholesky_oracle(lat, 8), spec
            checked += 1
    assert checked == 13


def test_oracle_rejects_a_bound_below_one():
    lat = families.build_family("Ld:6")
    for bound in (0, -3):
        with pytest.raises(ValueError, match="norm bound must be positive"):
            enumerate_by_basis_oracle(lat, bound)


def test_oracle_rejects_a_dependent_basis():
    cs = _cs(2, [])
    lat = Lattice(cs, basis=((1, 1), (2, 2)), gram=((2, 4), (4, 8)), det=0)
    with pytest.raises(ValueError, match="linearly independent"):
        enumerate_by_basis_oracle(lat, 4)


def test_oracle_checks_each_norm_it_reaches(monkeypatch):
    # Gram-Schmidt data that no longer match the basis give scaled norms
    # that are not multiples of L, and the leaf check must refuse them
    real_lll = intlinalg.lll

    def skewed_lll(B):
        b, d, lam = real_lll(B)
        lam[1][0] += 1
        return b, d, lam

    monkeypatch.setattr(intlinalg, "lll", skewed_lll)
    with pytest.raises(ArithmeticError, match="oracle reached norm"):
        enumerate_by_basis_oracle(families.build_family("Ld:6"), 4)


def test_oracle_2z_squared():
    lat = build(_cs(2, [((1, 0), 2), ((0, 1), 2)]))
    sets = enumerate_by_basis_oracle(lat, 4)
    assert sets[4].vectors == ((0, 2), (2, 0))
    assert all(sets[m].count == 0 for m in (1, 2, 3))


def test_oracle_matches_direct_enumeration():
    for spec in ("Ld:6", "LA:Z/8", "Md:7", "T:3", "Craig:q=5,k=2"):
        lat = families.build_family(spec)
        oracle = enumerate_by_basis_oracle(lat, 6)
        for m in range(1, 7):
            assert oracle[m] == vectors_of_norm(lat, m), (spec, m)


def test_oracle_la_z8_36_pairs():
    lat = families.build_family("LA:Z/8")
    assert enumerate_by_basis_oracle(lat, 4)[4].count == 36


# the specs of the perfbench oracle workload, searched there to norm 8
ORACLE_WORKLOAD_SPECS = (
    "LA:Z/13", "Od:9:excl=3", "Mneg:Z/16", "Ld:8:excl=2,6", "Mneg:F2^3",
    "SidonInv:q=11", "Craig:q=11,k=3", "T:3", "LA:Z/4+Z/2",
    "LAsub:Z/9:drop=0", "Craig:q=9,k=2", "Craig:q=7,k=2", "Sidon:Z/7:set=0,1,3",
)


def test_oracle_reaches_each_sign_pair_once():
    # the search walks one sign of each +- pair, its highest nonzero
    # coefficient positive, so no vector may repeat; sign_canonical must still
    # flip the ambient vector, which for the LLL top vector of Ld:6 is negative
    line = build(_cs(2, [((1, 1), 0)]))
    sets = enumerate_by_basis_oracle(line, 8)
    assert {m: s.vectors for m, s in sets.items() if s.count} == {2: ((1, -1),), 8: ((2, -2),)}
    ld6 = families.build_family("Ld:6")
    assert intlinalg.lll(ld6.basis)[0][-1][0] < 0
    lats = [line, ld6] + [families.build_family(families.parse_family(spec, strict=False))
                          for spec in ORACLE_WORKLOAD_SPECS]
    for lat in lats:
        for m, mvs in enumerate_by_basis_oracle(lat, 8).items():
            assert len(set(mvs.vectors)) == mvs.count, (lat.constraints.labels, m)
            assert mvs == vectors_of_norm(lat, m), (lat.constraints.labels, m)


def test_even_families_have_even_norms():
    # vectors_of_norm answers these norms from the norm ideal alone; the
    # reference walk has no such guard and must find nothing there either
    for spec in ("Ld:8", "Od:8", "Md:8", "LA:Z/8", "Mneg:Z/12", "Craig:q=7,k=2"):
        lat = families.build_family(spec)
        assert lat.norm_ideal % 2 == 0, spec
        for m in (1, 3, 5, 7):
            assert vectors_of_norm(lat, m).count == 0, (spec, m)
            assert support_sign_reference(lat, m).count == 0, (spec, m)


def test_norm_ideal_examples():
    # T:3 is odd; Mneg:F2^3 lies in 2Z^8; the least norm 14 of the Sidon
    # lattice (rank 2) generates its ideal
    for spec, N in (("T:3", 1), ("Ld:8", 2), ("Mneg:F2^3", 4), ("Sidon:Z/7:set=0,1,3", 14)):
        assert families.build_family(families.parse_family(spec, strict=False)).norm_ideal == N
    # the plane 3x + 3y + z = 0 has the HNF basis (1, 0, -3), (0, 1, -3) of
    # norm 10, but b_1 - b_2 = (1, -1, 0) has norm 2: N needs the 2 G_12
    plane = build(_cs(3, [((3, 3, 1), 0)]))
    assert plane.gram == ((10, 9), (9, 10)) and plane.norm_ideal == 2
    assert vectors_of_norm(plane, 2).vectors == ((1, -1, 0),)


def test_norm_ideal_is_kept_outside_equality_hashing_and_pickling():
    # computed on first read and kept in the instance dict: a lattice that
    # has read it still equals, hashes and pickles like one that has not
    lat, fresh = families.build_family("Ld:8"), families.build_family("Ld:8")
    assert "norm_ideal" not in vars(lat)
    assert lat.norm_ideal == 2 and vars(lat)["norm_ideal"] == 2
    assert lat == fresh and hash(lat) == hash(fresh)
    back = pickle.loads(pickle.dumps(lat))
    assert back == fresh and hash(back) == hash(fresh) and back.norm_ideal == 2


def test_the_walk_runs_at_odd_norms_of_an_odd_lattice():
    lat = families.build_family("T:3")
    assert lat.norm_ideal == 1
    for m, count in ((3, 28), (7, 288)):
        mvs = vectors_of_norm(lat, m)
        assert mvs.count == count
        assert mvs == support_sign_reference(lat, m)


def test_sidon_property_ops():
    cs = families.make(families.parse_family("Sidon:Z/7:set=0,1,3"))
    assert has_m_lattice_sidon_property(cs, 2) is True
    ld = families.make(families.parse_family("Ld:7"))
    assert has_m_lattice_sidon_property(ld, 2) is False
    craig = families.make(families.parse_family("Craig:q=7,k=2"))
    assert has_m_lattice_sidon_property(craig, 2) is True


def test_sidon_set_lattice_matches_enumeration_to_norm_5():
    cs = families.make(families.parse_family("Sidon:Z/7:set=0,1,3"))
    lat = build(cs)
    for m in range(1, 6):
        assert vectors_of_norm(lat, m).count == 0


def test_inverse_pair_lattice_minimum_is_four():
    # antipodal index pairs x, -x give e_x + e_(-x) - e_y - e_(-y); the
    # minimum is 4 for every odd q >= 5, with C((q-1)/2, 2) pairs
    lat = families.build_family("SidonInv:q=11")
    assert lat.rank == 9
    found = minimum(lat)
    assert found[0] == 4 and found[1].count == 10
    assert (0, 0, 1, -1, 0, 0, -1, 1, 0, 0) in found[1].vectors


def test_inverse_pair_lattice_matches_explicit_constraints():
    # same lattice as hand-written rows over the subset {(x, 1/x)} of (Z/11)^2
    inv = families.build_family("SidonInv:q=11")
    subset = [(x, pow(x, -1, 11)) for x in range(1, 11)]
    rows = [((1,) * 10, 0),
            (tuple(s[0] for s in subset), 11),
            (tuple(s[1] for s in subset), 11)]
    lat = build(_cs(10, rows))
    assert lat.basis == inv.basis and lat.det == inv.det
    # and the explicit Sidon tag rejects the set, since it is not Sidon
    spec = families.parse_family(
        "Sidon:Z/11+Z/11:set=" + ",".join(f"{x},{pow(x, -1, 11)}" for x in range(1, 11))
    )
    with pytest.raises(ConstructionError, match="not a Sidon set"):
        families.make(spec)


def test_enumeration_matches_box_oracle_on_random_systems():
    # independent completeness oracle: scan the full coordinate box that can
    # hold any vector of norm <= 8 and filter by the constraint rows
    from itertools import product

    from latlab.errors import ConstructionError

    rng = random.Random(2024)
    checked = 0
    while checked < 12:
        n = rng.randrange(2, 5)
        rows = []
        for _ in range(rng.randrange(1, 3)):
            weights = tuple(rng.randrange(-4, 5) for _ in range(n))
            if not any(weights):
                continue
            rows.append((weights, rng.choice((0, 0, 2, 3, 5))))
        if not rows:
            continue
        try:
            lat = build(_cs(n, rows))
        except ConstructionError:
            continue
        checked += 1
        expected = {m: set() for m in range(1, 9)}
        for v in product(range(-2, 3), repeat=n):
            norm = sum(x * x for x in v)
            if 1 <= norm <= 8 and lat.constraints.satisfied_by(v):
                expected[norm].add(sign_canonical(v))
        for m in range(1, 9):
            got = set(vectors_of_norm(lat, m).vectors)
            assert got == expected[m], (rows, m)
        oracle = enumerate_by_basis_oracle(lat, 8)
        for m in range(1, 9):
            assert set(oracle[m].vectors) == expected[m], (rows, m)


def test_lattice_json_uses_decimal_strings(capsys):
    assert cli.main(["build", "Ld:7"]) == 0
    js = json.loads(capsys.readouterr().out)
    assert js["det"] == "540" and js["rank"] == "7"
    assert all(isinstance(x, str) for row in js["basis"] for x in row)
    assert cli.main(["minvec", "Ld:7", "--norm", "4"]) == 0
    mj = json.loads(capsys.readouterr().out)
    assert mj["count"] == "34" and mj["norm"] == "4"


@st.composite
def constraint_systems(draw):
    n = draw(st.integers(1, 10))
    rows = draw(st.lists(
        st.tuples(st.tuples(*[st.integers(-3, 3)] * n), st.integers(0, 12)),
        min_size=1, max_size=3))
    return _cs(n, rows)


def _rational_det(M):
    """Determinant by Gaussian elimination over the rationals."""
    A = [[Fraction(x) for x in row] for row in M]
    n, det = len(A), Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if A[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            A[c], A[piv] = A[piv], A[c]
            det = -det
        det *= A[c][c]
        for i in range(c + 1, n):
            f = A[i][c] / A[c][c]
            A[i] = [a - f * b for a, b in zip(A[i], A[c])]
    return det


@settings(max_examples=200, deadline=None)
@given(constraint_systems())
def test_random_systems_enumeration_matches_the_oracle(cs):
    try:
        lat = build(cs)
    except ConstructionError:
        # only equality rows of full rank leave nothing: any modulus m > 0
        # keeps m times the kernel of the equality rows
        assert intlinalg.rank([w for w, m in cs.rows if m == 0]) == cs.ambient_dim
        return
    assert all(cs.satisfied_by(row) for row in lat.basis)
    assert lat.det == _rational_det(intlinalg.gram_matrix(lat.basis))
    oracle = enumerate_by_basis_oracle(lat, 6)
    for m in range(1, 7):
        mvs = vectors_of_norm(lat, m)
        assert oracle[m] == mvs, m
        assert all(contains(lat, v) for v in mvs.vectors)


@st.composite
def mixed_systems(draw):
    """At least one equality row and one congruence row, in any order."""
    n = draw(st.integers(1, 7))
    weights = st.tuples(*[st.integers(-4, 4)] * n)
    equalities = draw(st.lists(weights, min_size=1, max_size=2))
    congruences = draw(st.lists(st.tuples(weights, st.integers(2, 13)), min_size=1, max_size=3))
    return _cs(n, draw(st.permutations([(w, 0) for w in equalities] + congruences)))


def _assert_three_way_agreement(lat, norms):
    """The walk's vectors of each norm, checked against the reference walk
    and the oracle."""
    oracle = enumerate_by_basis_oracle(lat, max(norms))
    found = {}
    for m in norms:
        mvs = found[m] = vectors_of_norm(lat, m)
        assert mvs == support_sign_reference(lat, m), m
        assert mvs == oracle[m], m
    return found


@settings(max_examples=150, deadline=None)
@given(mixed_systems())
def test_enumeration_matches_the_reference_walk_and_the_oracle_on_mixed_rows(cs):
    try:
        lat = build(cs)
    except ConstructionError:
        return
    _assert_three_way_agreement(lat, range(1, 9))


@st.composite
def even_systems(draw):
    """(cs, step): a constraint_systems or mixed_systems draw plus the
    congruence row (1, ..., 1) mod 2, so every norm is even (step 2), or
    plus a row mod 2 on every coordinate, so the lattice lies in 2Z^n and
    every norm is a multiple of 4 (step 4)."""
    cs = draw(st.one_of(constraint_systems(), mixed_systems()))
    n = cs.ambient_dim
    if draw(st.booleans()):
        return _cs(n, cs.rows + (((1,) * n, 2),)), 2
    return _cs(n, cs.rows + tuple((tuple(int(k == i) for k in range(n)), 2) for i in range(n))), 4


@settings(max_examples=100, deadline=None)
@given(even_systems())
def test_random_even_lattices_match_the_oracle_and_skip_only_empty_norms(system):
    # the norms off the ideal are settled without a walk, so the reference
    # walk checks them
    cs, step = system
    try:
        lat = build(cs)
    except ConstructionError:
        return
    N = lat.norm_ideal
    assert N % step == 0
    oracle = enumerate_by_basis_oracle(lat, 8)
    for m in range(1, 9):
        mvs = vectors_of_norm(lat, m)
        assert mvs == oracle[m], m
        if m % N:
            assert not mvs.vectors and support_sign_reference(lat, m) == mvs, m


def _zeroed(n, free, weights, modulus):
    """Z^free inside Z^n: equality rows hold coordinates free..n-1 at zero,
    and one congruence row weights the free ones."""
    rows = [(tuple(int(k == i) for k in range(n)), 0) for i in range(free, n)]
    rows.append((tuple(weights) + (0,) * (n - len(weights)), modulus))
    return build(_cs(n, rows))


def test_enumeration_edge_cases():
    # supports of one and two coordinates at the root, where only the lowest
    # support coordinate is forced positive; no rows at all; norms that need
    # more coordinates than the ambient dimension has; systems of congruence
    # rows alone; and at norms 9-13, the value 3 alone at the root, the
    # unequal pair 1 + 9 at the root and deeper, and 4 + 9 at the root
    z1, z2 = build(_cs(1, [])), build(_cs(2, []))
    assert vectors_of_norm(z1, 1).vectors == ((1,),)
    assert vectors_of_norm(z1, 4).vectors == ((2,),)
    assert vectors_of_norm(z1, 2).vectors == ()
    assert vectors_of_norm(z2, 2).vectors == ((1, -1), (1, 1))
    assert vectors_of_norm(z2, 5).vectors == ((1, -2), (1, 2), (2, -1), (2, 1))
    assert vectors_of_norm(z2, 3).vectors == ()
    cases = [
        (z1, range(1, 14)),
        (z2, range(1, 14)),
        (build(_cs(3, [])), range(1, 14)),
        (build(_cs(2, [((1, 1), 0)])), range(1, 14)),
        (build(_cs(2, [((1, 2), 5)])), range(1, 14)),
        (build(_cs(3, [((1, 2, 3), 4), ((1, 1, 1), 2)])), range(1, 14)),
        (families.build_family("Mneg:Z/16"), range(1, 9)),
        # one equality row, and the congruence row modulo 32 does the pruning
        (families.build_family("LA:Z/32"), (4,)),
    ]
    for lat, norms in cases:
        _assert_three_way_agreement(lat, norms)
    # at n <= 2 (z1, z2 and the two one-row systems) norm 3 looks up three
    # coordinates and has no placement to make; n = 3 keeps pairs throughout
    assert all(lattice._lookup_width(n, 3) == 3 for n in (1, 2))
    assert all(lattice._lookup_width(3, m) == 2 for m in range(1, 40))
    # Z^6 and Z^4 held inside Z^13 and Z^14 by equality rows, under one
    # congruence row, look up three coordinates at norms 7-11: (2, 1, 1) at
    # remaining norm 6 below a placed +-1 at norm 7, and at the root (2, 2, 1)
    # at norm 9, (3, 1, 1) at norm 11 and the pair (3, 1) at norm 10, each
    # with only its lowest coordinate forced positive
    z6, z4 = _zeroed(13, 6, range(1, 7), 7), _zeroed(14, 4, range(1, 5), 5)
    found = {}
    for lat, norms in ((z6, (7, 9, 10)), (z4, (11,))):
        assert all(lattice._lookup_width(lat.ambient_dim, m) == 3 for m in norms)
        found.update({(lat.ambient_dim, m): mvs
                      for m, mvs in _assert_three_way_agreement(lat, norms).items()})
    for key, pattern in (((13, 7), [1, 1, 1, 2]), ((13, 9), [1, 2, 2]), ((13, 10), [1, 3]),
                         ((14, 11), [1, 1, 3])):
        hits = [v for v in found[key].vectors if sorted(abs(x) for x in v if x) == pattern]
        assert any(x < 0 for v in hits for x in v), key


def test_the_lookup_width_takes_triples_only_where_they_pay():
    # the rule sees n and m only; these calls take each path
    for spec, m, width in (("LA:Z/13", 8, 3), ("Ld:12", 10, 3), ("Ld:15", 8, 3), ("Od:16", 8, 3),
                           ("LA:Z/13", 6, 2), ("Craig:q=11,k=3", 8, 2), ("Ld:40", 4, 2),
                           ("LA:Z/32", 4, 2), ("T:5", 4, 2), ("Ld:30", 4, 2)):
        n = families.build_family(spec).ambient_dim
        assert lattice._lookup_width(n, m) == width, (spec, m)
    # norms up to 5 keep pairs from n = 3 on
    assert all(lattice._lookup_width(n, m) == 2 for n in range(3, 300) for m in range(1, 6))


@st.composite
def wide_systems(draw):
    """n = 12 or 13, where the walk looks up three coordinates at norms 7-9:
    two equality rows of nonzero weights, and one or two congruence rows
    modulo a prime with weights nonzero modulo it, so the lattice stays
    small enough to enumerate."""
    n = draw(st.integers(12, 13))
    nonzero = st.integers(1, 3).flatmap(lambda a: st.sampled_from((a, -a)))
    rows = [(draw(st.tuples(*[nonzero] * n)), 0) for _ in range(2)]
    for _ in range(draw(st.integers(1, 2))):
        q = draw(st.sampled_from((7, 11, 13)))
        rows.append((draw(st.tuples(*[st.integers(1, q - 1)] * n)), q))
    return _cs(n, rows)


@settings(max_examples=6, deadline=None)
@given(wide_systems())
def test_enumeration_matches_the_oracle_where_the_walk_looks_up_triples(cs):
    # the reference walk costs the most, so it checks the lowest such norm
    lat = build(cs)
    norms = [m for m in (7, 8, 9) if lattice._lookup_width(cs.ambient_dim, m) == 3]
    assert norms
    oracle = enumerate_by_basis_oracle(lat, max(norms))
    for m in norms:
        assert vectors_of_norm(lat, m) == oracle[m], m
    assert oracle[norms[0]] == support_sign_reference(lat, norms[0])


@st.composite
def congruence_systems(draw):
    """n = 12 or 13 with two or three congruence rows modulo primes 5-13,
    weights nonzero modulo them, and no equality row: nothing prunes the
    walk, and with at most 13^3 keys many pairs share one."""
    n = draw(st.integers(12, 13))
    rows = []
    for _ in range(draw(st.integers(2, 3))):
        q = draw(st.sampled_from((5, 7, 11, 13)))
        rows.append((draw(st.tuples(*[st.integers(1, q - 1)] * n)), q))
    return _cs(n, rows)


@settings(max_examples=5, deadline=None)
@given(congruence_systems())
def test_congruence_rows_alone_match_the_oracle_where_the_walk_looks_up_triples(cs):
    lat = build(cs)
    norms = [m for m in range(1, 11) if lattice._lookup_width(cs.ambient_dim, m) == 3]
    assert norms
    oracle = enumerate_by_basis_oracle(lat, max(norms))
    for m in norms:
        assert vectors_of_norm(lat, m) == oracle[m], m


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_enumeration_matches_the_reference_walk_on_the_oracle_specs(spec):
    # the criterion-8 specs, to norm 10 at rank <= 9 and to norm 8 above;
    # criterion 8 compares the oracle to norm 10 on all of them.  At the
    # norms off the norm ideal vectors_of_norm runs no walk, so there the
    # reference walk must find nothing; above norm 8 it checks them up to
    # rank 12 (norm 9 costs it 2-9 s a spec at rank 13-16, left to
    # criterion 8's oracle)
    lat = families.build_family(families.parse_family(spec, strict=False))
    top = 10 if lat.rank <= 9 else 8
    for m in range(1, top + 1):
        assert vectors_of_norm(lat, m) == support_sign_reference(lat, m), m
    if lat.rank <= 12:
        for m in range(top + 1, ORACLE_BOUND + 1):
            if m % lat.norm_ideal:
                assert support_sign_reference(lat, m).count == 0, m


if __name__ == "__main__":
    # PYTHONPATH=src python3 tests/test_lattice.py --work prints, for the
    # perfbench analyze specs at norms 1-4, the perfbench oracle workload
    # specs at norms 1-8 and the criterion-8 specs at norms 1-10, each spec's
    # norm ideal N and, per norm, whether N settles it (N does not divide
    # it: no walk, no table), the vectors that vectors_of_norm finds, the
    # width of its lookup, per table width the tables it builds and their
    # entries, and its walk nodes; then, for the perfbench oracle workload
    # specs at bound 8 and the criterion-8 specs at bound 10, the vectors
    # that enumerate_by_basis_oracle finds, its nodes and its leaves.  A walk node
    # is one call of the function named place nested in lattice.py (a node
    # that places a further coordinate; each placement's lookup is made in
    # its parent's call), a table one value returned by the nested function
    # named table, an oracle node one call of descend and an oracle leaf one
    # call of sign_canonical (once per vector reached), all counted here by a
    # profile hook, so the counts need no hook inside the package
    import sys

    if sys.argv[1:] != ["--work"]:
        sys.exit("usage: test_lattice.py --work")

    def counted(call, *names):
        calls = dict.fromkeys(names, 0)
        tables = {}  # (width, remaining norm) -> entries

        def count_calls(frame, event, arg):
            code = frame.f_code
            if code.co_filename != lattice.__file__:
                return
            if event == "call" and code.co_name in calls:
                calls[code.co_name] += 1
            elif event == "return" and code.co_name == "table":
                tables[frame.f_locals["t"], frame.f_locals["r"]] = sum(map(len, arg.values()))

        sys.setprofile(count_calls)
        try:
            result = call()
        finally:
            sys.setprofile(None)
        return result, calls, tables

    def add_by_width(into, by_width):
        for t, counts in by_width.items():
            into_t = into.setdefault(t, {"tables": 0, "entries": 0})
            for key in counts:
                into_t[key] += counts[key]

    def walk_work(lat, m):
        mvs, calls, tables = counted(lambda: vectors_of_norm(lat, m), "place")
        settled = m % lat.norm_ideal != 0
        by_width = {}
        for (t, _), entries in sorted(tables.items()):
            add_by_width(by_width, {t: {"tables": 1, "entries": entries}})
        return {"settled_by_norm_ideal": settled, "found": mvs.count,
                "width": None if settled else lattice._lookup_width(lat.ambient_dim, m),
                "by_width": by_width, "nodes": calls["place"]}

    def oracle_work(lat, bound):
        sets, calls, _ = counted(lambda: enumerate_by_basis_oracle(lat, bound),
                                 "descend", "sign_canonical")
        return {"bound": bound, "found": sum(mvs.count for mvs in sets.values()),
                "nodes": calls["descend"], "leaves": calls["sign_canonical"]}

    def lat_of(spec):
        return families.build_family(families.parse_family(spec, strict=False))

    analyze_specs = ("Ld:26", "LA:Z/24", "Od:20", "Md:20", "Mneg:Z/30", "T:4",
                     "Craig:q=13,k=2", "Ld:6", "LA:Z/4+Z/2")
    for corpus, specs, norms in (("analyze", analyze_specs, range(1, 5)),
                                 ("oracle workload", ORACLE_WORKLOAD_SPECS, range(1, 9)),
                                 ("criterion 8", ORACLE_SPECS, range(1, ORACLE_BOUND + 1))):
        total = {"settled_by_norm_ideal": 0, "found": 0, "nodes": 0}
        by_width = {}
        for spec in specs:
            lat = lat_of(spec)
            work = {m: walk_work(lat, m) for m in norms}
            for w in work.values():
                for key in total:
                    total[key] += w[key]
                add_by_width(by_width, w["by_width"])
            print(json.dumps({"corpus": corpus, "spec": spec, "norm_ideal": lat.norm_ideal,
                              "norms": work}), flush=True)
        total["by_width"] = dict(sorted(by_width.items()))
        print(json.dumps({"corpus": corpus, "total": total}), flush=True)
    for corpus, specs, bound in (("oracle workload", ORACLE_WORKLOAD_SPECS, 8),
                                 ("criterion 8 oracle", ORACLE_SPECS, ORACLE_BOUND)):
        total = {"found": 0, "nodes": 0, "leaves": 0}
        for spec in specs:
            lat = lat_of(spec)
            work = oracle_work(lat, bound)
            for key in total:
                total[key] += work[key]
            print(json.dumps({"corpus": corpus, "spec": spec, "oracle": work}), flush=True)
        print(json.dumps({"corpus": corpus, "total": total}), flush=True)
