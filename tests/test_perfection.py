import os
import time
from fractions import Fraction
from itertools import combinations, compress
from math import comb, isqrt
from operator import mul
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from references import (
    bareiss_rank,
    distinct_roots_full_scan,
    hyperplane_split_check_by_dense_ranks,
    minvec_graph_nested_loop,
    neighbor_counts_reference,
    orthogonality_degrees,
    spectrum_by_exact_roots,
    srg_by_matrix_identity,
    sym_power_rows_from_dense,
)

from latlab import families, intlinalg, lattice, perfection, tables
from latlab.errors import ConstructionError, SpecError
from latlab.families import parse_family
from latlab.lattice import MinimalVectorSet, sign_canonical
from latlab.perfection import (
    _neighbor_counts,
    _unit_support,
    alpha_series,
    hyperplane_split_check,
    minvec_graph,
    neighbor_stats,
    neighbor_survey,
    parity_check_LF2k,
    pattern_decompose,
    perfection_report,
    scan_D,
    sym_square_rank,
)

# measured over every shortest vector of the dimension 20/30/40 lattices;
# the observed maximum is (22d+18)/(d+1), attained at d = 40
MEASURED_NEIGHBOR_DEVIATION = Fraction(898, 41)


def test_sym_square_rank_trivial():
    assert sym_square_rank([(1, 0), (0, 1), (1, 1)]) == 3
    assert sym_square_rank([(1, 0), (0, 1)]) == 2
    with pytest.raises(ValueError, match="at least one vector"):
        sym_square_rank([])


def test_sym_square_rank_L6_L7():
    lat6 = families.build_family("Ld:6")
    assert sym_square_rank(lattice.vectors_of_norm(lat6, 4).vectors) == 20
    lat7 = families.build_family("Ld:7")
    assert sym_square_rank(lattice.vectors_of_norm(lat7, 4).vectors) == 28 == comb(8, 2)


def test_certified_rank_matches_bareiss():
    # the modular certificate must agree with plain fraction-free elimination,
    # with the span capped by the vector length and by the lattice rank
    for spec in ("Ld:6", "Ld:7", "Od:7", "LA:Z/8", "Md:7"):
        lat = families.build_family(spec)
        vecs = lattice.vectors_of_norm(lat, 4).vectors
        rows = sym_power_rows_from_dense(vecs, 2)
        cols = sorted(set().union(*rows))
        expected = bareiss_rank([[row.get(c, 0) for c in cols] for row in rows])
        assert sym_square_rank(vecs) == sym_square_rank(vecs, lat.rank) == expected, spec


# the lattices of the benchmark's analyze workload, copied here
ANALYZE_SPECS = (
    "Ld:26", "LA:Z/24", "Od:20", "Md:20", "Mneg:Z/30", "T:4",
    "Craig:q=13,k=2", "Ld:6", "LA:Z/4+Z/2",
)
IMPERFECT_ANALYZE_SPECS = ("Ld:6", "LA:Z/4+Z/2")


def test_perfect_report_needs_no_fallback(monkeypatch):
    # a perfect lattice reaches both caps mod p, the span's and the square's
    def no_fallback(rows):
        raise AssertionError("HNF fallback on a perfect lattice")

    lat = families.build_family("Ld:7")
    with monkeypatch.context() as m:
        m.setattr(intlinalg, "_hnf_rows", no_fallback)
        rep = perfection_report(lat)
    assert (rep.sym_rank, rep.pd) == (28, 0)

    # the rank path on the analyze corpus: the span pass (span_coordinates),
    # then the Sym2 pass (certified_rank), each followed by the HNF only
    # where the modular pass falls short of its cap and its lifted pivot
    # rows do not give every row.  Each perfect lattice certifies both at
    # the cap; the two imperfect ones reach the span's cap, and their Sym2
    # pass, short of its cap, is settled by the lifted pivot rows
    path = []

    def traced(name, f):
        def wrapper(*args):
            path.append(name)
            return f(*args)
        return wrapper

    for name in ("span_coordinates", "certified_rank", "_hnf_rows"):
        monkeypatch.setattr(intlinalg, name, traced(name, getattr(intlinalg, name)))
    for spec in ANALYZE_SPECS:
        lat = families.build_family(spec)
        path.clear()
        rep = perfection_report(lat)
        assert (rep.pd == 0) == (spec not in IMPERFECT_ANALYZE_SPECS), spec
        assert path == ["span_coordinates", "certified_rank"], spec


def test_reports_need_no_hnf_rank():
    # every rank of the analyze corpus, of the two large deficient analyses
    # of the CLI corpus and of every row of the exclusion tables is settled
    # from the modular pass, at the cap or by the lifted pivot rows.  The
    # lattices are built first, as kernel_basis runs the HNF
    specs = {spec: 0 for spec in ANALYZE_SPECS} | {"Ld:6": 1, "LA:Z/4+Z/2": 2}
    specs |= {"Md:20:excl=0,1,2,3,4": 4, "Md:30:excl=0,1,2,3,4,5,6": 2}
    for tag, d, golden in tables._EXCLUSION_TABLES.values():
        specs |= {str(families.FamilySpec(tag, d=d, excl=excl)): pd for excl, _, pd, _ in golden}
    lattices = [families.build_family(spec) for spec in specs]
    with mock.patch.object(intlinalg, "_hnf_rows", wraps=intlinalg._hnf_rows) as fallback:
        pds = [perfection_report(lat).pd for lat in lattices]
    assert fallback.call_count == 0
    assert dict(zip(specs, pds)) == specs


def test_perfection_report_table_rows():
    rep = perfection_report(families.build_family("Ld:8:excl=2"))
    assert (rep.det, rep.pd, rep.mp) == (924, 0, 46)
    rep = perfection_report(families.build_family("Od:8:excl=5"))
    assert (rep.det, rep.pd, rep.mp) == (1305, 1, 37)
    assert rep.det == 3**2 * 5 * 29
    rep = perfection_report(families.build_family("Md:8:excl=4"))
    assert (rep.det, rep.pd, rep.mp) == (1076, 3, 44)
    assert rep.det == 2**2 * 269


def test_perfection_report_cap_error():
    from latlab.errors import ConstructionError

    lat = families.build_family("Craig:q=7,k=2")
    with pytest.raises(ConstructionError, match="exceeds cap"):
        perfection_report(lat, min_cap=4)


def test_auxiliary_group_lattices_are_perfect():
    for group in ("Z/5+Z/5", "Z/3+Z/3", "Z/6+Z/2", "Z/6+Z/3", "Z/2+Z/8", "F2^3"):
        rep = perfection_report(families.build_family(f"LA:{group}"))
        assert rep.pd == 0, group


def test_alpha_series_dim2_line_law():
    # a distinct lines in the plane: alpha_k = min(k+1, a)
    for a in range(1, 7):
        vecs = [(1, t) for t in range(a)]
        series = alpha_series(vecs, kmax=7)
        assert series.dims == tuple(min(k + 1, a) for k in range(8))
        assert series.stabilized


def test_alpha_series_single_vector():
    series = alpha_series([(2, 1, 3)], kmax=4)
    assert series.dims == (1, 1, 1, 1, 1)
    assert series.stabilized


def test_alpha_series_monotone_and_L7():
    lat = families.build_family("Ld:7")
    vecs = lattice.vectors_of_norm(lat, 4).vectors
    series = alpha_series(vecs, kmax=2)
    assert series.dims[1] == 7
    assert series.dims[2] == 28 == sym_square_rank(vecs)
    assert all(a <= b for a, b in zip(series.dims, series.dims[1:]))


def test_alpha_series_budget():
    # the guard counts the columns of the flattening on the span's
    # coordinates: one for a single line, comb(29 + k, k) for 30 unit
    # vectors, which passes 200,000 at k = 5
    assert alpha_series([(1,) * 30], kmax=12).dims == (1,) * 13
    units = [tuple(int(i == j) for j in range(30)) for i in range(30)]
    with pytest.raises(ValueError, match="budget"):
        alpha_series(units, kmax=5)


def test_alpha_series_needs_vectors_and_a_positive_kmax():
    for vecs, kmax in (([], 2), ([(1, 0)], 0)):
        with pytest.raises(ValueError, match="kmax >= 1"):
            alpha_series(vecs, kmax)


def test_hyperplane_split_checks():
    lat8 = families.build_family("Ld:8")
    vecs8 = lattice.vectors_of_norm(lat8, 4).vectors
    w = (1,) + (0,) * 9
    res = hyperplane_split_check(vecs8, w)
    assert res.hypotheses_hold

    lat9 = families.build_family("Od:9")
    vecs9 = lattice.vectors_of_norm(lat9, 4).vectors
    res = hyperplane_split_check(vecs9, (1,) * 10)
    assert res.hypotheses_hold

    lat6 = families.build_family("Ld:6")
    vecs6 = lattice.vectors_of_norm(lat6, 4).vectors
    res = hyperplane_split_check(vecs6, (1,) + (0,) * 7)
    assert not res.hypotheses_hold


def test_hyperplane_split_soundness_sweep():
    # whenever the hypotheses hold the full report must show pd = 0
    for d in (8, 9, 10):
        lat = families.build_family(f"Ld:{d}")
        vecs = lattice.vectors_of_norm(lat, 4).vectors
        res = hyperplane_split_check(vecs, (1,) + (0,) * (d + 1))
        if res.hypotheses_hold:
            assert perfection_report(lat).pd == 0


def _outcome(fn, *args):
    """fn(*args), or the type and message of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


@st.composite
def split_inputs(draw):
    """Up to 10 vectors of one length n <= 5 with entries -2..2, and a
    normal w of that length with entries -2..2.  Half the sets are drawn
    from a hyperplane of Z^n, so they do not span it; the normal may be
    zero, and a third of the time every vector is made orthogonal to it."""
    n = draw(st.integers(1, 5))
    vector = st.tuples(*[st.integers(-2, 2)] * n)
    w = draw(vector)
    vecs = draw(st.lists(vector, max_size=10))
    if draw(st.booleans()):
        vecs = [v[:-1] + (0,) for v in vecs]
    if any(w) and draw(st.integers(0, 2)) == 0:
        # the products w_j e_i - w_i e_j and the drawn vectors orthogonal to w
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        vecs = [v for v in vecs if not sum(map(mul, v, w))]
        for i, j in draw(st.lists(st.sampled_from(pairs), max_size=4)) if pairs else ():
            vecs.append(tuple(w[j] if k == i else -w[i] if k == j else 0 for k in range(n)))
    return vecs, w


@settings(max_examples=300, deadline=None)
@given(split_inputs())
@example(([], (1, 0)))  # no vectors
@example(([(1, 1, 0), (2, 2, 0), (1, -1, 0)], (0, 0, 1)))  # orthogonal, not spanning
@example(([(1, 0), (0, 1), (1, 1)], (1, -1)))  # perfect in the plane
@example(([(0, 0), (1, 0)], (0, 1)))  # the zero vector in the section
@example(([(1, 0)], (0, 0)))  # a zero normal
def test_hyperplane_split_matches_the_dense_ranks(case):
    vecs, w = case
    assert (_outcome(hyperplane_split_check, vecs, w)
            == _outcome(hyperplane_split_check_by_dense_ranks, vecs, w))


def test_hyperplane_split_matches_the_dense_ranks_on_the_acceptance_sweep():
    for tag in ("Ld", "Od"):
        for d in range(8, 13):
            vecs = lattice.vectors_of_norm(families.build_family(f"{tag}:{d}"), 4).vectors
            n = len(vecs[0])
            for w in ((1,) + (0,) * (n - 1), (1,) * n):
                assert (hyperplane_split_check(vecs, w)
                        == hyperplane_split_check_by_dense_ranks(vecs, w)), (tag, d, w)


def test_hyperplane_split_and_alpha_series_run_one_span_pass(monkeypatch):
    # every rank on the span pass's coordinates: one span_coordinates call,
    # no dense rank, and alpha_1 read off the span pass, so the Sym^k ranks
    # are certified_rank's for k = 2..kmax only
    span = mock.Mock(wraps=intlinalg.span_coordinates)
    ranks = mock.Mock(wraps=intlinalg.certified_rank)
    monkeypatch.setattr(intlinalg, "span_coordinates", span)
    monkeypatch.setattr(intlinalg, "certified_rank", ranks)
    monkeypatch.setattr(intlinalg, "rank", mock.Mock(side_effect=AssertionError("dense rank")))
    vecs = lattice.vectors_of_norm(families.build_family("Ld:8"), 4).vectors
    assert hyperplane_split_check(vecs, (1,) + (0,) * 9).hypotheses_hold
    assert span.call_count == 1
    # the section's Sym2 rank, the complement's span and the whole Sym2 rank
    assert [call.args[1] for call in ranks.call_args_list] == [comb(8, 2), 8, comb(9, 2)]
    span.reset_mock()
    ranks.reset_mock()
    assert alpha_series(vecs, kmax=3).dims[:3] == (1, 8, 36)
    assert span.call_count == 1
    assert [call.args[1] for call in ranks.call_args_list] == [comb(9, 2), comb(10, 3)]


def test_hyperplane_split_refuses_a_normal_of_the_wrong_length_or_zero():
    # the 34 norm-4 vectors of Ld:7 have 9 coordinates
    vecs = lattice.vectors_of_norm(families.build_family("Ld:7"), 4).vectors
    for w in ((1,), (1,) * 8, (1,) * 10):
        with pytest.raises(ValueError, match="length"):
            hyperplane_split_check(vecs, w)
    with pytest.raises(ValueError, match="nonzero"):
        hyperplane_split_check(vecs, (0,) * 9)


def test_scan_D_base_and_a4():
    # with no exclusions the tail bound is 7; criterion 4 covers Ld:7..20
    res = scan_D(())
    assert res.D == 7
    assert all(d >= 7 for d in res.perfect_ds)
    assert set(res.failures) == {1, 2, 3, 4, 5, 6}
    res = scan_D((4,), 15)
    assert res.D == 7
    res = scan_D((6,), 15)
    assert res.D == 9


def test_scan_D_unresolved_below_bound():
    res = scan_D((2,), 10)
    assert res.D is None and not res.certified


def test_scan_D_refuses_a_dmax_above_the_tail_bound(monkeypatch):
    # the bound is max(7, 2(k+1)^3 - 1); nothing may run past it
    def no_work(*args, **kwargs):
        raise AssertionError("scan started work")

    monkeypatch.setattr(perfection, "_map", no_work)
    for excl, d_max, bound in (((), 8, 7), ((6,), 16, 15), ((2, 10), 54, 53),
                               ((), 10**4, 7)):
        with pytest.raises(SpecError, match=f"above the certified tail bound {bound}"):
            scan_D(excl, d_max)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _log_run(log, x):
    # one O_APPEND write per item, so the lines of all processes interleave
    # whole
    fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
    os.write(fd, b"%d\n" % x)
    os.close(fd)


def test_map_returns_results_in_item_order():
    # the earlier the item, the longer it takes, so later items finish first
    def slow_first(x):
        time.sleep(0.03 * (6 - x))
        return x * x

    assert perfection._map(slow_first, list(range(6)), 3) == [x * x for x in range(6)]
    _no_child_left()


def test_map_reraises_a_task_exception_in_the_caller(tmp_path):
    caller = os.getpid()

    def refused_in_a_child(x):
        if os.getpid() == caller:
            time.sleep(0.1)  # leaves items for the children to claim
            return x
        raise ConstructionError(f"item {x} refused")

    with pytest.raises(ConstructionError, match=r"^item \d refused$"):
        perfection._map(refused_in_a_child, list(range(6)), 3)
    _no_child_left()

    # every item refuses: the first item's exception wins, as in a serial
    # run, and a refusal stops the hand-out, so no process runs a second item
    log = tmp_path / "runs"

    def refused(x):
        _log_run(log, x)
        raise SpecError(f"item {x} refused")

    for jobs in (1, 2, 3):
        log.write_bytes(b"")
        with pytest.raises(SpecError, match="^item 0 refused$"):
            perfection._map(refused, list(range(6)), jobs)
        assert len(log.read_bytes().split()) <= jobs
        _no_child_left()


def test_map_raises_when_a_child_dies():
    caller = os.getpid()

    def dies_in_a_child(x):
        if os.getpid() != caller:
            os._exit(1)
        time.sleep(0.1)  # leaves items for the children to claim
        return x

    for jobs in (2, 3):
        with pytest.raises(RuntimeError, match="exited with status 1"):
            perfection._map(dies_in_a_child, list(range(6)), jobs)
        _no_child_left()


def test_map_runs_each_item_once_on_more_processes_than_cores(tmp_path):
    # every process appends the items it runs to one log, so an item the
    # shared counter handed out twice, or never, shows there
    log = tmp_path / "runs"

    def logged(x):
        _log_run(log, x)
        return -x

    assert perfection._map(logged, list(range(300)), 6) == [-x for x in range(300)]
    assert sorted(map(int, log.read_text().split())) == list(range(300))
    _no_child_left()


@pytest.mark.parametrize("jobs", [1, 2, 3, 10**21])
def test_map_runs_on_the_caller_and_at_most_jobs_minus_one_children(jobs):
    caller = os.getpid()

    def pid(x):
        if os.getpid() != caller:
            time.sleep(0.2)  # so the caller surely claims an item too
        return os.getpid()

    pids = set(perfection._map(pid, list(range(5)), jobs))
    assert caller in pids and len(pids - {caller}) <= min(jobs, 5) - 1
    assert perfection._map(pid, [0], jobs) == [caller]
    _no_child_left()


def test_scanned_Ld_lattices_have_no_vectors_below_norm_4():
    # the scan asks for norm 4 directly; every lattice of the D-scan-k1
    # table (d up to the tail bound 15) must start there
    for a1, _ in tables._D_SCAN_K1:
        for d in range(1, 16):
            lat = families.build_family(families.FamilySpec("Ld", d=d, excl=(a1,)))
            assert not any(lattice.vectors_of_norm(lat, m).vectors for m in (1, 2, 3)), (a1, d)


def test_pattern_decompose():
    assert pattern_decompose((1, -1, -1, 1, 0)) == (1, 1, 1)
    assert pattern_decompose((0, -1, 1, 0, 1, -1)) == (2, 1, 2)  # sign-normalized
    with pytest.raises(ValueError, match="pattern"):
        pattern_decompose((1, -1, 1, -1))
    with pytest.raises(ValueError, match="pattern"):
        pattern_decompose((1, 1, -1, -1))
    # the signs fit, the spacing does not: the last gap 2 differs from alpha 1
    with pytest.raises(ValueError, match="pattern"):
        pattern_decompose((1, -1, -1, 0, 1))


def test_all_L_d_norm4_vectors_are_pattern_shaped():
    for d in (6, 9, 12):
        lat = families.build_family(f"Ld:{d}")
        for v in lattice.vectors_of_norm(lat, 4).vectors:
            i, alpha, beta = pattern_decompose(v)
            assert 1 <= i <= d - 1 and i + 2 * alpha + beta <= d + 2


def unit_counts(targets, vectors):
    """_neighbor_counts on the cells of dense targets and vectors."""
    return _neighbor_counts(list(map(_unit_support, targets)), list(map(_unit_support, vectors)))


def test_neighbor_counts_match_the_scanning_loop_on_Ld():
    # the loop costs about 2 ms a target at d = 40, so large d take a spread
    # of about 200 targets against every shortest vector
    for d in (*range(4, 13), 16, 20, 24, 28, 32, 36, 40):
        vecs = lattice.vectors_of_norm(families.build_family(f"Ld:{d}"), 4).vectors
        targets = vecs[::max(1, len(vecs) // 200)]
        assert unit_counts(targets, vecs) == neighbor_counts_reference(targets, vecs), d


@st.composite
def unit_support_sets(draw):
    """Vectors with four +-1 entries over a few coordinates, so that they
    share two, three and four coordinates often, duplicates allowed."""
    n = draw(st.integers(4, 7))
    vector = st.tuples(
        st.lists(st.integers(0, n - 1), min_size=4, max_size=4, unique=True),
        st.lists(st.sampled_from((1, -1)), min_size=4, max_size=4))

    def dense(support_signs):
        v = [0] * n
        for j, x in zip(*support_signs):
            v[j] = x
        return tuple(v)

    vectors = draw(st.lists(vector.map(dense), max_size=40))
    targets = draw(st.lists(vector.map(dense), min_size=1, max_size=8))
    return targets, vectors


@settings(max_examples=150, deadline=None)
@given(unit_support_sets())
def test_neighbor_counts_match_the_scanning_loop_on_sign_patterns(case):
    targets, vectors = case
    assert unit_counts(targets, vectors) == neighbor_counts_reference(targets, vectors)
    assert unit_counts(targets, targets) == neighbor_counts_reference(targets, targets)


def test_neighbor_counts_refuse_other_shapes():
    good = (1, -1, -1, 1, 0)
    for bad in ((2, 0, 0, 0, 0), (1, 1, 1, 0, 0), (1, 1, 1, 1, 1), (1, -1, 2, 1, 0),
                (0, 0, 0, 0, 0)):
        with pytest.raises(ValueError, match="four \\+-1 entries"):
            unit_counts([good], [good, bad])
        with pytest.raises(ValueError, match="four \\+-1 entries"):
            unit_counts([bad], [good])
    # the public routes scan every shortest vector: Z^5 has (2, 0, 0, 0, 0)
    z5 = lattice.build(lattice.ConstraintSystem(tuple("abcde"), ()))
    for call in (lambda: neighbor_survey(z5), lambda: neighbor_stats(z5, good)):
        with pytest.raises(ValueError, match="four \\+-1 entries"):
            call()


def test_neighbor_stats_refuse_a_vector_outside_the_shortest_vectors():
    # on Ld:7, whose 34 norm-4 vectors have 9 coordinates: a vector of the
    # wrong length, a lattice vector of norm 6 and a norm-4 vector outside
    # the lattice
    lat = families.build_family("Ld:7")
    outside = (1, 1, 1, 1, 0, 0, 0, 0, 0)
    assert not lattice.contains(lat, outside)
    norm6 = (0, 0, 0, 0, 0, 0, 1, -2, 1)
    assert lattice.contains(lat, norm6)
    for v in ((1, -1, -1, 1), norm6, outside):
        with pytest.raises(ValueError, match="shortest vector of the lattice"):
            neighbor_stats(lat, v)
    # a shortest vector is accepted with either sign
    v = lattice.vectors_of_norm(lat, 4).vectors[0]
    assert neighbor_stats(lat, v) == neighbor_stats(lat, tuple(-x for x in v))


def test_neighbor_stats_single_vector_d30():
    lat = families.build_family("Ld:30")
    v = (1, -1, -1, 1) + (0,) * 28
    stats = neighbor_stats(lat, v)
    assert stats.gamma == Fraction(5, 62)
    assert stats.delta == Fraction(3, 31)
    assert stats.deviation <= MEASURED_NEIGHBOR_DEVIATION
    assert stats.delta <= 2 * min(stats.gamma, 1 - stats.gamma) + Fraction(2, 31)


def test_neighbor_survey_d20():
    lat = families.build_family("Ld:20")
    stats = neighbor_survey(lat)
    assert len(stats) == families.minpair_formula(parse_family("Ld:20"))
    # delta <= 2 min(gamma, 1-gamma) holds with slack 2/(d+1), attained by
    # vectors touching the right edge of the coefficient window
    slack = Fraction(2, 21)
    for s in stats:
        assert s.delta <= 2 * min(s.gamma, 1 - s.gamma) + slack
        assert s.deviation <= MEASURED_NEIGHBOR_DEVIATION
        assert 3 * 20 - 2 <= s.main_term <= 5 * 20 + 2
    assert max(s.delta - 2 * min(s.gamma, 1 - s.gamma) for s in stats) == slack
    # the survey agrees with the per-vector routine on a sample
    mvs = lattice.vectors_of_norm(lat, 4)
    sample = mvs.vectors[:: max(1, len(mvs.vectors) // 7)]
    by_vec = {tuple(v): neighbor_stats(lat, v) for v in sample}
    for v, expected in by_vec.items():
        got = next(s for s in stats if (s.gamma, s.delta) == (expected.gamma, expected.delta)
                   and s.count == expected.count)
        assert got is not None


def _graph(edges, n):
    adj = [[0] * n for _ in range(n)]
    for i, j in edges:
        adj[i][j] = adj[j][i] = 1
    return perfection.MinVectorGraph(tuple((i,) for i in range(n)),
                                     tuple(tuple(row) for row in adj))


def test_srg_parameters_refuse_regular_graphs_that_are_not_strongly_regular():
    # the triangular prism is 3-regular, but a triangle edge has one common
    # neighbor and a rung none
    prism = _graph([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)], 6)
    assert prism.degrees() == [3] * 6
    assert prism.srg_parameters() is None
    # K4 has no non-adjacent pair, so mu is undefined
    k4 = _graph([(i, j) for i in range(4) for j in range(i + 1, 4)], 4)
    assert k4.srg_parameters() is None


def _circulant(n, jumps):
    return _graph({(i, (i + d) % n) for i in range(n) for d in jumps if d % n}, n)


def _edge_subset(n, bits):
    return _graph(compress(combinations(range(n), 2), bits), n)


# circulant graphs, regular by construction, and random edge sets
srg_graphs = st.integers(0, 14).flatmap(lambda n: st.one_of(
    st.builds(_circulant, st.just(n), st.sets(st.integers(1, max(1, n // 2)))),
    st.builds(_edge_subset, st.just(n),
              st.lists(st.booleans(), min_size=comb(n, 2), max_size=comb(n, 2))),
))


@settings(max_examples=150, deadline=None)
@given(srg_graphs)
@example(_circulant(13, (1, 3, 4)))  # Paley(13) = SRG(13, 6, 2, 3)
@example(_circulant(5, (1,)))  # the 5-cycle = SRG(5, 2, 0, 1)
@example(_graph([(0, 1), (2, 3), (4, 5)], 6))  # 3 K2, mu = 0
@example(_graph([], 4))  # no adjacent pair, so lambda is undefined
def test_srg_parameters_match_the_matrix_identity(graph):
    assert graph.srg_parameters() == srg_by_matrix_identity(graph.adjacency)


def _matrix_graph(adjacency):
    return perfection.MinVectorGraph(tuple((i,) for i in range(len(adjacency))),
                                     tuple(map(tuple, adjacency)))


def _symmetric(n, bits):
    """The symmetric 0/1 matrix with its upper triangle, diagonal included,
    read row by row from bits."""
    A = [[0] * n for _ in range(n)]
    cells = ((i, j) for i in range(n) for j in range(i, n))
    for (i, j), bit in zip(cells, bits):
        A[i][j] = A[j][i] = int(bit)
    return _matrix_graph(A)


def _complete_bipartite(a, b):
    return _graph([(i, a + j) for i in range(a) for j in range(b)], a + b)


def _hypercube(d):
    return _graph([(v, v ^ (1 << i)) for v in range(1 << d) for i in range(d)], 1 << d)


def _disjoint_union(g, h):
    n, m = g.order, h.order
    return _matrix_graph([list(row) + [0] * m for row in g.adjacency]
                         + [[0] * n + list(row) for row in h.adjacency])


_PETERSEN = _graph([(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
                   + [(5 + i, 5 + (i + 2) % 5) for i in range(5)], 10)

# graphs whose spectra are integral: complete graphs, K_(a,b) with ab a
# square (eigenvalues +-sqrt(ab) and 0), hypercubes, the Petersen graph, the
# empty graphs, and disjoint unions of two of these
_integral_graph = st.one_of(
    st.builds(_circulant, st.integers(1, 8), st.just(range(1, 8))),
    st.sampled_from([(a, b) for a in range(1, 7) for b in range(a, 10)
                     if isqrt(a * b) ** 2 == a * b]).map(lambda ab: _complete_bipartite(*ab)),
    st.builds(_hypercube, st.integers(0, 4)),
    st.just(_PETERSEN),
    st.builds(_graph, st.just([]), st.integers(0, 6)),
)
integral_graphs = st.one_of(_integral_graph,
                            st.builds(_disjoint_union, _integral_graph, _integral_graph))

symmetric_matrices = st.integers(0, 12).flatmap(lambda n: st.builds(
    _symmetric, st.just(n), st.lists(st.booleans(), min_size=comb(n + 1, 2),
                                     max_size=comb(n + 1, 2))))


@settings(max_examples=150, deadline=None)
@given(symmetric_matrices)
@example(_circulant(5, (1,)))  # the 5-cycle: eigenvalues 2 and (-1 +- sqrt 5)/2
@example(_PETERSEN)
def test_spectrum_matches_the_exact_roots(graph):
    assert graph.spectrum() == spectrum_by_exact_roots(graph.adjacency)


@settings(max_examples=60, deadline=None)
@given(integral_graphs)
def test_integral_spectra_match_the_exact_roots(graph):
    spectrum = graph.spectrum()
    assert spectrum is not None
    assert spectrum == spectrum_by_exact_roots(graph.adjacency)


def _from_all_ones(starts):
    """krylov_min_poly started from the all-ones vector, an eigenvector of
    every regular graph, in place of its default start; it records each
    start it is given."""
    krylov_min_poly = intlinalg.krylov_min_poly

    def call(rows, b=None, u=None):
        starts.append(b)
        return krylov_min_poly(rows, [1] * len(rows) if b is None else b, u)

    return call


def test_spectrum_is_certified_where_the_polynomial_splits_mod_p():
    # mod 5 the 5-cycle's characteristic polynomial t^5 - 5t^3 + 5t - 2 is
    # t^5 + 3 = (t - 2)^5, yet its eigenvalues 2 and (-1 +- sqrt 5)/2 are not
    # all integers.  The minimal polynomial of the default start repeats the
    # root 2; from the all-ones start, an eigenvector for 2, the exact
    # product A - 2I does not vanish, and the restart from it finds 2 again
    c5 = _circulant(5, (1,))
    starts = []
    with mock.patch.object(intlinalg, "_CERT_PRIME", 5):
        assert intlinalg.char_poly(c5.adjacency) == [1, 0, 0, 0, 0, 3]
        assert c5.spectrum() is None
        with mock.patch.object(intlinalg, "krylov_min_poly", _from_all_ones(starts)):
            assert c5.spectrum() is None
    assert len(starts) == 2
    # K4's (t - 3)(t + 1)^3 splits mod 11 into the same roots, and
    # (A - 3I)(A + I) = 0
    k4 = _circulant(4, (1, 2))
    with mock.patch.object(intlinalg, "_CERT_PRIME", 11):
        assert k4.spectrum() == {3: 1, -1: 3}


def _gershgorin(graph):
    return max((sum(map(abs, row)) for row in graph.adjacency), default=0)


@settings(max_examples=150, deadline=None)
@given(symmetric_matrices, st.sampled_from([5, 7, 11, 13]))
@example(_circulant(5, (1,)), 5)
@example(_PETERSEN, 7)
def test_spectrum_matches_the_exact_roots_under_small_primes(graph, p):
    # a prime just above 2D: the roots of g mod p may be eigenvalues mod p
    # only, and the start vector may miss eigenvalues, so the exact product
    # and the restarts decide
    assume(2 * _gershgorin(graph) < p)
    with mock.patch.object(intlinalg, "_CERT_PRIME", p):
        assert graph.spectrum() == spectrum_by_exact_roots(graph.adjacency)


def test_spectrum_needs_a_prime_above_twice_the_gershgorin_bound():
    k4 = _circulant(4, (1, 2))
    with mock.patch.object(intlinalg, "_CERT_PRIME", 5), pytest.raises(ArithmeticError):
        k4.spectrum()


def test_spectrum_raises_on_a_multiplicity_that_is_not_positive():
    # every root of a true g is an eigenvalue; a g with the extra root 0
    # still makes the product over its roots vanish at K4, and the traces
    # then give 0 its multiplicity 0
    k4 = _circulant(4, (1, 2))
    wrong = [c % intlinalg._CERT_PRIME for c in (1, -2, -3, 0)]  # (t - 3)(t + 1) t
    with (mock.patch.object(intlinalg, "krylov_min_poly", lambda rows, b=None, u=None: wrong),
          pytest.raises(ArithmeticError)):
        k4.spectrum()


@pytest.mark.parametrize("graph", [
    _PETERSEN, _hypercube(3), _complete_bipartite(3, 3), _disjoint_union(_PETERSEN, _PETERSEN),
], ids=["Petersen", "Q3", "K33", "Petersen+Petersen"])
def test_spectrum_restarts_from_the_exact_product(graph):
    # started from the all-ones vector, the sequence finds the degree k alone;
    # the product A - kI does not vanish, and the restarts from its rows find
    # the other eigenvalues
    starts = []
    with mock.patch.object(intlinalg, "krylov_min_poly", _from_all_ones(starts)):
        assert graph.spectrum() == spectrum_by_exact_roots(graph.adjacency)
    assert starts[0] is None and len(starts) > 1


def test_schlafli_graph():
    lat = families.build_family("T:3")
    mvs = lattice.vectors_of_norm(lat, 3)
    assert mvs.count == 28
    graph = minvec_graph(mvs, -1, base_vector=(1, 1, 1, 0, 0, 0, 0))
    assert graph.order == 27
    assert graph.srg_parameters() == (27, 10, 1, 5)
    assert graph.spectrum() == {10: 1, 1: 20, -5: 6}
    # char poly equals the expanded product (t-10)(t-1)^20(t+5)^6
    expected = [1]
    for root, mult in ((10, 1), (1, 20), (-5, 6)):
        for _ in range(mult):
            expected = [a - root * b for a, b in
                        zip(expected + [0], [0] + expected)]
    p = intlinalg._CERT_PRIME
    assert intlinalg.char_poly(graph.adjacency) == [c % p for c in expected]


def test_minvec_graph_refuses_a_base_vector_of_the_wrong_length_or_zero():
    # the 28 norm-3 vectors of T:3 have 7 coordinates
    mvs = lattice.vectors_of_norm(families.build_family("T:3"), 3)
    for base in ((1, 1, 1), (1, 1, 1, 0, 0, 0, 0, 0)):
        with pytest.raises(ValueError, match="length"):
            minvec_graph(mvs, -1, base_vector=base)
    with pytest.raises(ValueError, match="nonzero"):
        minvec_graph(mvs, -1, base_vector=(0,) * 7)
    with pytest.raises(ValueError, match="nonzero"):
        minvec_graph(MinimalVectorSet(3, ()), -1, base_vector=())


def _int_rows(adjacency):
    return [sum(1 << j for j, a in enumerate(row) if a) for row in adjacency]


@st.composite
def graph_inputs(draw):
    """Sign-canonical sets of small integer vectors, a product value in
    -2..2 and, half the time, a base vector w; the set may then hold +-w
    and a vector orthogonal to w."""
    d = draw(st.integers(1, 5))
    vector = st.tuples(*[st.integers(-2, 2)] * d)
    vectors = draw(st.lists(vector, max_size=12))
    base = None
    if draw(st.booleans()):
        base = draw(vector.filter(any))
        if draw(st.booleans()):
            vectors.append(base)
        if draw(st.booleans()):
            vectors.append((base[1], -base[0]) + (0,) * (d - 2) if d > 1 else (0,))
    mvs = MinimalVectorSet(0, tuple(sorted({sign_canonical(v) for v in vectors if any(v)})))
    return mvs, draw(st.integers(-2, 2)), base


_NORM_2 = MinimalVectorSet(2, ((0, 1, 1), (1, -1, 0), (1, 0, 1), (1, 1, 0)))


@settings(max_examples=200, deadline=None)
@given(graph_inputs())
@example((_NORM_2, 0, None))
@example((_NORM_2, 2, None))  # no pair has product 2, every vector with itself
@example((_NORM_2, 1, (-1, 1, 0)))  # -w in the set, (1, 1, 0) orthogonal to w
def test_minvec_graph_matches_the_nested_loop(args):
    mvs, product_value, base = args
    graph = minvec_graph(mvs, product_value, base_vector=base)
    reference = minvec_graph_nested_loop(mvs, product_value, base_vector=base)
    assert graph.vertices == reference.vertices
    assert graph.adjacency == reference.adjacency
    assert graph.rows == _int_rows(reference.adjacency)
    assert graph.degrees() == [sum(row) for row in reference.adjacency]


def _monic_with_roots(roots, tail, p):
    """The product of t - r over roots and the monic tail, mod p."""
    coeffs = [1, *tail]
    for r in roots:
        coeffs = [(a - r * b) % p for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


@st.composite
def root_problems(draw):
    """A prime, a bound, known roots and a monic polynomial mod the prime:
    a product of linear factors t - r for r in [-bound, bound], some
    repeated, times a random monic tail, which is often degree 0."""
    p = draw(st.sampled_from([intlinalg._CERT_PRIME, 5, 7, 11, 13]))
    bound = draw(st.integers(0, 6))
    candidates = st.integers(-bound, bound)
    known = draw(st.sets(candidates))
    roots = draw(st.lists(candidates, max_size=8))
    tail = draw(st.one_of(st.just([]), st.lists(st.integers(0, p - 1), max_size=4)))
    return p, _monic_with_roots(roots, tail, p), bound, known


@settings(max_examples=300, deadline=None)
@given(root_problems())
@example((intlinalg._CERT_PRIME, _monic_with_roots([0, 1, -1, 2], [], intlinalg._CERT_PRIME),
          1, set()))  # degree 4 above the 3 candidates from the start
@example((intlinalg._CERT_PRIME, _monic_with_roots([3, 0, -3], [], intlinalg._CERT_PRIME),
          3, set()))  # splits, the last root -bound
@example((7, _monic_with_roots([2, -2], [], 7), 2, {1}))  # splits, the last root -bound
@example((intlinalg._CERT_PRIME, [1], 4, {0}))  # the constant polynomial
@example((13, [1], 0, set()))
def test_distinct_roots_stop_early_with_the_full_scan_answer(problem):
    p, coeffs, bound, known = problem
    divisions = []
    divide_linear = perfection._divide_linear

    def recorded(coeffs, root):
        divisions.append((len(coeffs) - 1, root))
        return divide_linear(coeffs, root)

    with (mock.patch.object(intlinalg, "_CERT_PRIME", p),
          mock.patch.object(perfection, "_divide_linear", recorded)):
        found = perfection._distinct_roots(coeffs, bound, known)
    assert found == distinct_roots_full_scan(coeffs, bound, known, p)
    # a candidate is tried only while the candidates left, itself down to
    # -bound, are at least the degree still unsplit
    for degree, cand in divisions:
        assert 1 <= degree <= cand + bound + 1
    if len(coeffs) - 1 > 2 * bound + 1:
        assert divisions == []


def test_orthogonality_profiles_distinguish_order9_groups():
    # degree 15 occurs for the cyclic group (27 of 54 pairs) and never for
    # the elementary group, whose profile is uniformly 9
    lat9 = families.build_family("LA:Z/9")
    m9 = lattice.vectors_of_norm(lat9, 4)
    lat33 = families.build_family("LA:Z/3+Z/3")
    m33 = lattice.vectors_of_norm(lat33, 4)
    assert orthogonality_degrees(m9) == {9, 15}
    assert orthogonality_degrees(m33) == {9}
    graph = minvec_graph(m9, 0)
    degs = graph.degrees()
    assert sorted(degs).count(15) == 27 and sorted(degs).count(9) == 27
    # the cyclic profile graph has irrational eigenvalues
    assert graph.spectrum() is None


def test_parity_check():
    assert parity_check_LF2k(2) is True
    assert parity_check_LF2k(3) is True
    assert parity_check_LF2k(4) is False
    with pytest.raises(ValueError, match="k >= 2"):
        parity_check_LF2k(1)


def test_perfection_json_shape():
    rep = perfection_report(families.build_family("LA:Z/7"))
    js = rep.to_json(family="LA:Z/7")
    assert js["d"] == "6" and js["mp"] == "21" and js["pd"] == "0"
