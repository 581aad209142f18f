"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  All comparisons are exact; the only measured tolerance
is the frozen neighbor-count deviation constant.
"""

import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb

from references import orthogonality_degrees

from latlab import families, groups, lattice, perfection, tables
from latlab.families import FamilySpec, parse_family


@contextmanager
def criterion(number: int, title: str):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} [FAIL] {title} ({time.time() - start:.1f}s)")
        raise
    print(f"ACCEPTANCE {number} [PASS] {title} ({time.time() - start:.1f}s)")


def _craig_qk(q_max: int, k_max: int = 3):
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
        if q > q_max:
            continue
        p = min(f for f in range(2, q + 1) if q % f == 0)
        for k in range(1, min(k_max, p - 1) + 1):
            yield q, k


def test_criterion_1_determinant_formulas():
    with criterion(1, "determinant formulas match built determinants"):
        for d in range(3, 31):
            for tag in ("Ld", "Od", "Md"):
                spec = FamilySpec(tag, d=d)
                assert families.build_family(spec).det == families.det_formula(spec), (tag, d)
        for order in range(2, 17):
            for group in groups.abelian_groups_of_order(order):
                spec = FamilySpec("LA", group=group)
                assert families.build_family(spec).det == order**3, str(group)
        for n in range(2, 25):
            spec = parse_family(f"Mneg:Z/{n}")
            assert families.build_family(spec).det == 4 * n * n, n
        spec = parse_family("Mneg:F2^3")
        assert families.build_family(spec).det == 256
        for c in range(1, 5):
            spec = parse_family(f"T:{c}")
            assert families.build_family(spec).det == 4**c, c
        for q, k in _craig_qk(13):
            spec = FamilySpec("Craig", q=q, k=k)
            assert families.build_family(spec).det == q ** (2 * k + 1), (q, k)


def test_criterion_2_counting_formulas_vs_enumeration():
    with criterion(2, "pair-count formulas match enumeration"):
        for d in range(4, 25):
            for tag in ("Ld", "Od", "Md"):
                spec = FamilySpec(tag, d=d)
                lat = families.build_family(spec)
                assert lattice.vectors_of_norm(lat, 4).count == \
                    families.minpair_formula(spec), (tag, d)
        for order in range(2, 17):
            for group in groups.abelian_groups_of_order(order):
                spec = FamilySpec("LA", group=group)
                lat = families.build_family(spec)
                assert lattice.vectors_of_norm(lat, 4).count == \
                    families.minpair_formula(spec), ("LA", str(group))
                sub = FamilySpec("LAsub", group=group, drop=group.zero)
                expected = families.minpair_formula(sub)
                if order == 2:
                    # dropping the identity leaves a rank-0 system
                    assert expected == 0
                    continue
                lat = families.build_family(sub)
                assert lattice.vectors_of_norm(lat, 4).count == expected, \
                    ("LAsub", str(group))
        for c in range(1, 5):
            spec = parse_family(f"T:{c}")
            lat = families.build_family(spec)
            assert lattice.vectors_of_norm(lat, 3).count == \
                families.minpair_formula(spec), c


def test_criterion_3_reference_tables():
    with criterion(3, "reference tables reproduce exactly"):
        bad = []
        for table_id in tables.TABLE_IDS:
            report = tables.run_table(table_id)
            if not report.ok:
                bad.append((table_id, report.diffs))
        # The O9 table is expected to flag its one discrepant cell (stored
        # value 59 is refuted by three independent computations giving 57);
        # the criterion as stated still requires every table to be exact.
        assert not bad, bad


def test_criterion_4_perfection_statements():
    with criterion(4, "perfection defaults at desk scale"):
        expected_zero = []
        expected_zero += [FamilySpec("Ld", d=d) for d in range(7, 21)]
        expected_zero += [FamilySpec("Od", d=d) for d in range(8, 17)]
        expected_zero += [FamilySpec("Md", d=d) for d in range(8, 17)]
        for order in range(9, 17):
            expected_zero += [FamilySpec("LA", group=g)
                              for g in groups.abelian_groups_of_order(order)]
        expected_zero += [parse_family(f"Mneg:Z/{n}") for n in range(15, 23)]
        expected_zero += [parse_family("T:3"), parse_family("T:4")]
        for spec in expected_zero:
            rep = perfection.perfection_report(families.build_family(spec))
            assert rep.pd == 0, str(spec)
        for spec_text, pd in (("Ld:6", 1), ("Od:7", 1), ("Md:7", 1), ("LA:Z/4+Z/2", 2)):
            rep = perfection.perfection_report(families.build_family(spec_text))
            assert rep.pd == pd, spec_text


def test_criterion_5_gram_goldens():
    with criterion(5, "published bases reproduce their Gram matrices"):
        import test_gram_golden as gg

        gg.test_reference_bases_reproduce_reduced_gram_matrices()
        gg.test_e7_basis_reproduces_doubled_gram()
        gg.test_reference_bases_generate_their_lattices()
        gg.test_e7_vectors_generate_even_sublattice_on_nonzero_coords()


def test_criterion_6_craig_counts_and_minimum_bound():
    with criterion(6, "power-sum kernel counts and minimum bounds"):
        for q in (7, 11, 13, 17, 19, 23):
            assert families.craig_pair_count(q, 2) == \
                families.craig_count_k2_closed(q), q
            assert families.craig_pair_count(q, 3) == \
                families.craig_count_k3_closed(q), q
        for q, k in _craig_qk(11):
            spec = FamilySpec("Craig", q=q, k=k)
            lat = families.build_family(spec)
            assert lattice.vectors_of_norm(lat, 2 * (k + 1)).count == \
                families.craig_pair_count(q, k), (q, k)
        for q, k in _craig_qk(13):
            lat = families.build_family(FamilySpec("Craig", q=q, k=k))
            for m in range(1, 2 * k + 2):
                assert lattice.vectors_of_norm(lat, m).count == 0, (q, k, m)


def test_criterion_7_graph_invariants():
    with criterion(7, "graph invariants: equiangular system and profiles"):
        lat = families.build_family("T:3")
        mvs = lattice.vectors_of_norm(lat, 3)
        graph = perfection.minvec_graph(mvs, -1, base_vector=(1, 1, 1, 0, 0, 0, 0))
        assert graph.srg_parameters() == (27, 10, 1, 5)
        assert graph.spectrum() == {10: 1, 1: 20, -5: 6}
        m9 = lattice.vectors_of_norm(families.build_family("LA:Z/9"), 4)
        m33 = lattice.vectors_of_norm(families.build_family("LA:Z/3+Z/3"), 4)
        d9 = orthogonality_degrees(m9)
        d33 = orthogonality_degrees(m33)
        # degree 15 occurs only for the cyclic group; the elementary group
        # is uniformly 9, so the profiles separate the two lattices
        assert 15 in d9 and d33 == {9} and d9 != d33


ORACLE_SPECS = (
    "Ld:12", "Ld:13", "Ld:8:excl=2,6", "Od:12", "Od:14", "Od:9:excl=3", "Md:12",
    "Md:9:excl=1", "LA:Z/13", "LA:Z/4+Z/2", "LAsub:Z/9:drop=0", "Mneg:Z/16",
    "Mneg:F2^3", "T:3", "Craig:q=7,k=2", "Craig:q=9,k=2", "Craig:q=11,k=3",
    "SidonInv:q=11", "Sidon:Z/7:set=0,1,3", "Ld:15", "Od:16",
)

MEASURED_NEIGHBOR_DEVIATION = Fraction(898, 41)


# the norm to which criterion 8 compares the oracle with enumeration
ORACLE_BOUND = 10


def test_criterion_8_property_suites():
    with criterion(8, "oracle equivalence, neighbor bounds, split soundness, power series"):
        for spec_text in ORACLE_SPECS:
            spec = parse_family(spec_text, strict=False)
            lat = families.build_family(spec)
            assert lat.rank <= 16, spec_text
            oracle = lattice.enumerate_by_basis_oracle(lat, ORACLE_BOUND)
            for m in range(1, ORACLE_BOUND + 1):
                assert oracle[m] == lattice.vectors_of_norm(lat, m), (spec_text, m)
                # vectors_of_norm settles a norm off the norm ideal from the
                # Gram matrix, so there the search checks the proof
                assert not (m % lat.norm_ideal and oracle[m].vectors), (spec_text, m)

        for d in (20, 30, 40):
            lat = families.build_family(FamilySpec("Ld", d=d))
            stats = perfection.neighbor_survey(lat)
            assert len(stats) == families.minpair_formula(FamilySpec("Ld", d=d))
            for s in stats:
                assert s.deviation <= MEASURED_NEIGHBOR_DEVIATION, (d, s)
                assert 3 * d - 2 <= s.main_term <= 5 * d + 2, (d, s)

        for d in range(8, 15):
            vecs = lattice.vectors_of_norm(families.build_family(FamilySpec("Ld", d=d)), 4)
            res = perfection.hyperplane_split_check(vecs.vectors, (1,) + (0,) * (d + 1))
            assert res.hypotheses_hold, ("Ld", d)
            vecs = lattice.vectors_of_norm(families.build_family(FamilySpec("Od", d=d)), 4)
            res = perfection.hyperplane_split_check(vecs.vectors, (1,) * (d + 1))
            assert res.hypotheses_hold, ("Od", d)

        for a in range(1, 7):
            series = perfection.alpha_series([(1, t) for t in range(a)], kmax=7)
            assert series.dims == tuple(min(k + 1, a) for k in range(8))
        lat7 = families.build_family("Ld:7")
        series = perfection.alpha_series(
            lattice.vectors_of_norm(lat7, 4).vectors, kmax=2)
        assert series.dims[2] == comb(8, 2)
        assert all(x <= y for x, y in zip(series.dims, series.dims[1:]))
