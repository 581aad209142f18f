from itertools import product
from math import comb

import pytest
from references import histogram_by_subsets, split_coefficients

from latlab.errors import SpecError
from latlab.fields import (
    DEFAULT_MODULI,
    FiniteField,
    distinct_root_histogram,
    field_for_order,
)

# every field the package builds: the primes up to 31 and the orders with a
# built-in modulus, each with every k below its characteristic (k = 0
# included) whose histogram the subset sweep takes in a second or less: at
# most 20,000 subsets and at most 200,000 buckets
_HISTOGRAM_CASES = [
    (q, k)
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, *sorted(DEFAULT_MODULI))
    for k in range(field_for_order(q).p)
    if comb(q, k + 1) <= 20_000 and q**k <= 200_000
]


def test_field_for_order():
    f = field_for_order(7)
    assert (f.p, f.e) == (7, 1)
    f = field_for_order(25)
    assert (f.p, f.e, f.modulus) == (5, 2, (2, 1, 1))
    for q in (0, 1, 6):
        with pytest.raises(SpecError, match="not a prime power"):
            field_for_order(q)
    with pytest.raises(SpecError, match="no built-in modulus for GF\\(32\\)"):
        field_for_order(32)


def test_reducible_modulus_is_refused():
    with pytest.raises(SpecError, match="reducible"):
        FiniteField(3, 2, (1, 2, 1))  # x^2 + 2x + 1 = (x + 1)^2


def test_builtin_moduli_are_irreducible():
    for q in DEFAULT_MODULI:
        f = field_for_order(q)
        assert f.order == q
        assert len(f.elements()) == q


@pytest.mark.parametrize("q", [4, 8, 9, 25])
def test_field_axioms_exhaustive(q):
    f = field_for_order(q)
    elems = f.elements()
    one, zero = f.one, f.zero
    for a in elems:
        assert f.mul(a, one) == a
        assert f.add(a, f.neg(a)) == zero
        if a != zero:
            assert f.mul(a, f.inv(a)) == one
    for a, b, c in product(elems, repeat=3):
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    for a, b in product(elems, repeat=2):
        assert f.mul(a, b) == f.mul(b, a)


def test_field_pow_matches_repeated_mul():
    f = field_for_order(9)
    for a in f.elements():
        acc = f.one
        for n in range(5):
            assert f.pow(a, n) == acc
            acc = f.mul(acc, a)


def test_histogram_totals():
    # each subset of size k+1 lands in exactly one bucket
    for q, k in [(5, 1), (7, 1), (7, 2), (9, 2), (11, 2), (8, 1), (13, 3)]:
        f = field_for_order(q)
        hist = distinct_root_histogram(f, k)
        assert len(hist) == q**k
        assert sum(hist.values()) == comb(q, k + 1)


def test_histogram_q5_k1_total_ten():
    hist = distinct_root_histogram(field_for_order(5), 1)
    assert sum(hist.values()) == 10


def test_histogram_q7_k2_pair_sum():
    hist = distinct_root_histogram(field_for_order(7), 2)
    assert sum(n * (n - 1) // 2 for n in hist.values()) == 7


def test_histogram_rejects_degenerate_power_sums():
    with pytest.raises(ValueError, match="power sums degenerate"):
        distinct_root_histogram(field_for_order(9), 3)  # k = p = 3


def test_histogram_buckets_match_direct_root_count():
    # cross-check one bucket against a direct scan over constants a_0
    f = field_for_order(7)
    k = 2
    hist = distinct_root_histogram(f, k)
    a1, a2 = (3,), (5,)
    direct = 0
    for a0 in f.elements():
        roots = 0
        for x in f.elements():
            # x^3 + a2 x^2 + a1 x + a0
            val = f.add(f.add(f.pow(x, 3), f.mul(a2, f.pow(x, 2))),
                        f.add(f.mul(a1, x), a0))
            if val == f.zero:
                roots += 1
        if roots == k + 1:
            direct += 1
    assert hist[(a1, a2)] == direct


@pytest.mark.parametrize("q, k", _HISTOGRAM_CASES)
def test_histogram_matches_the_subset_sweep(q, k):
    # same buckets, same counts, same key order
    f = field_for_order(q)
    assert list(distinct_root_histogram(f, k).items()) == list(histogram_by_subsets(f, k).items())


def test_histogram_independent_of_partitioning():
    # bucketing subsets in chunks and merging must equal the single sweep
    from itertools import combinations

    f = field_for_order(7)
    k = 2
    whole = distinct_root_histogram(f, k)
    elems = f.elements()
    merged = {key: 0 for key in whole}
    subsets = list(combinations(elems, k + 1))
    for chunk_start in range(0, len(subsets), 9):
        for subset in subsets[chunk_start:chunk_start + 9]:
            merged[tuple(split_coefficients(f, subset)[1:k + 1])] += 1
    assert merged == whole


def test_modulus_validation():
    with pytest.raises(SpecError):
        FiniteField(4, 1, (0, 1))  # 4 not prime
    with pytest.raises(SpecError):
        FiniteField(2, 2, (0, 0, 1))  # x^2 reducible
    with pytest.raises(SpecError, match="degree must be positive"):
        FiniteField(2, 0, (1,))
    # 2x^2 + 1 = 2(x - 1)(x + 1) is reducible too, but is refused as not monic
    with pytest.raises(SpecError, match="monic"):
        FiniteField(3, 2, (1, 0, 2))
    with pytest.raises(ZeroDivisionError):
        field_for_order(9).inv((0, 0))


if __name__ == "__main__":
    # PYTHONPATH=src python3 tests/test_fields.py --work prints, for each
    # (q, k) of the tables craig-k2 and craig-k3 (craig-k3's q = 23 is also
    # the craig --q 23 --k 3 --method histogram item of the cli-batch
    # benchmark), the bucket count q^k, the number of subsets bucketed (the
    # sum of the histogram, which must be C(q, k + 1)) and the best CPU
    # seconds of distinct_root_histogram over three calls
    import json
    import sys
    import time

    from latlab import tables

    if sys.argv[1:] != ["--work"]:
        sys.exit("usage: test_fields.py --work")
    for table_id in ("craig-k2", "craig-k3"):
        k, golden = tables._CRAIG_TABLES[table_id]
        for q, _ in golden:
            field = field_for_order(q)
            cpu = []
            for _ in range(3):
                start = time.process_time()
                hist = distinct_root_histogram(field, k)
                cpu.append(time.process_time() - start)
            subsets = sum(hist.values())
            assert subsets == comb(q, k + 1)
            print(json.dumps({"table": table_id, "q": q, "k": k, "buckets": q**k,
                              "subsets": subsets, "cpu_s": round(min(cpu), 4)}))
