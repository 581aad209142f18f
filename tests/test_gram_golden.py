"""Reference bases against their published reduced Gram matrices.

Each case pins a transcribed basis, checks its Gram matrix (sometimes twice
a reference matrix), membership of every row in the constructed lattice,
and that the rows really are a basis (equal HNF span).
"""

from latlab import families, lattice
from latlab.intlinalg import gram_matrix, hnf
from latlab.lattice import ConstraintSystem, build

L7_BASIS = (
    (1, -1, 0, 0, 0, -1, 1, 0, 0),
    (0, 0, 0, 1, -1, -1, 1, 0, 0),
    (1, 0, -1, 0, -1, 0, 1, 0, 0),
    (0, 1, -1, 0, 0, -1, 1, 0, 0),
    (0, -1, 1, 0, 0, 0, 1, -1, 0),
    (1, -1, -1, 1, 0, 0, 0, 0, 0),
    (1, -1, 0, 0, 0, 0, 0, -1, 1),
)
P7_7 = (
    (4, 2, 2, 1, 2, 2, 2),
    (2, 4, 2, 2, 1, 1, 0),
    (2, 2, 4, 2, 0, 2, 1),
    (1, 2, 2, 4, -1, 0, -1),
    (2, 1, 0, -1, 4, 0, 2),
    (2, 1, 2, 0, 0, 4, 2),
    (2, 0, 1, -1, 2, 2, 4),
)

L7_4_BASIS = (
    (0, 1, -1, 0, 0, 0, 0, -1, 1),
    (0, 0, -1, 1, 0, 1, 0, -1, 0),
    (0, 0, 0, 1, -1, 0, 0, -1, 1),
    (0, 0, 0, 0, 0, 1, -1, -1, 1),
    (1, -1, 0, 0, -1, 1, 0, 0, 0),
    (1, 0, -1, 0, 0, 0, -1, 0, 1),
    (1, -1, 0, 0, 0, 0, 0, -1, 1),
)
P7_31 = (
    (4, 2, 2, 2, -1, 2, 1),
    (2, 4, 2, 2, 1, 1, 1),
    (2, 2, 4, 2, 1, 1, 2),
    (2, 2, 2, 4, 1, 2, 2),
    (-1, 1, 1, 1, 4, 1, 2),
    (2, 1, 1, 2, 1, 4, 2),
    (1, 1, 2, 2, 2, 2, 4),
)

LZ7_BASIS = (
    (0, 1, -1, 0, 0, -1, 1),
    (0, 1, 0, -1, -1, 0, 1),
    (1, 1, 0, -1, 0, -1, 0),
    (0, 1, -1, 0, -1, 1, 0),
    (0, 1, -1, -1, 1, 0, 0),
    (1, 0, -1, 0, -1, 0, 1),
)
P6_5 = (
    (4, 2, 2, 1, 2, 2),
    (2, 4, 2, 2, 1, 2),
    (2, 2, 4, 0, 2, 1),
    (1, 2, 0, 4, 1, 2),
    (2, 1, 2, 1, 4, 0),
    (2, 2, 1, 2, 0, 4),
)

LZ8_BASIS = (
    (0, 0, 1, -1, 0, -1, 1, 0),
    (0, -1, 1, 0, 0, 0, 1, -1),
    (1, 0, 1, -1, 0, 0, 0, -1),
    (0, -1, 1, 0, 1, -1, 0, 0),
    (0, 0, -1, -1, 0, 0, 1, 1),
    (-1, 0, 0, 1, 1, 0, 0, -1),
    (1, 1, 0, 0, -1, -1, 0, 0),
)
P7_5 = (
    (4, 2, 2, 2, 1, -1, 1),
    (2, 4, 2, 2, -1, 1, -1),
    (2, 2, 4, 1, -1, -1, 1),
    (2, 2, 1, 4, -1, 1, -1),
    (1, -1, -1, -1, 4, -2, 0),
    (-1, 1, -1, 1, -2, 4, -2),
    (1, -1, 1, -1, 0, -2, 4),
)

LF23_BASIS = (
    (0, 0, 1, -1, 1, -1, 0, 0),
    (-1, 1, 0, 0, 1, -1, 0, 0),
    (0, 1, 1, 0, 0, -1, -1, 0),
    (0, 0, 1, -1, 0, 0, -1, 1),
    (-1, 0, 1, 0, 1, 0, -1, 0),
    (0, 1, 0, -1, 1, 0, -1, 0),
    (0, 0, 0, 0, 1, -1, -1, 1),
)
P7_4 = (
    (2, 1, 1, 1, 1, 1, 1),
    (1, 2, 1, 0, 1, 1, 1),
    (1, 1, 2, 1, 1, 1, 1),
    (1, 0, 1, 2, 1, 1, 1),
    (1, 1, 1, 1, 2, 1, 1),
    (1, 1, 1, 1, 1, 2, 1),
    (1, 1, 1, 1, 1, 1, 2),
)

A6_BASIS = (
    (0, 0, 0, 1, 1, -1, -1),
    (0, 1, 1, 0, 0, -1, -1),
    (-1, 0, 1, 1, 0, -1, 0),
    (-1, 1, 0, 0, 1, -1, 0),
    (-1, 1, 0, 1, 0, 0, -1),
    (-1, 0, 1, 0, 1, 0, -1),
)
P6_7 = tuple(tuple(2 if i == j else 1 for j in range(6)) for i in range(6))

LZ9_DROP0_BASIS = (
    (1, 0, 1, 0, -1, 0, 0, -1),
    (0, -1, 1, 1, -1, 0, 0, 0),
    (0, -1, 1, 0, 0, 0, 1, -1),
    (1, 0, 0, 1, 0, -1, 0, -1),
    (1, -1, 0, 0, 0, -1, 1, 0),
    (0, 1, 1, 0, 0, -1, 0, -1),
    (0, 0, 0, 1, -1, -1, 1, 0),
)
P7_28 = (
    (4, 2, 2, 2, 1, 2, 1),
    (2, 4, 2, 1, 1, 0, 2),
    (2, 2, 4, 1, 2, 1, 1),
    (2, 1, 1, 4, 2, 2, 2),
    (1, 1, 2, 2, 4, 0, 2),
    (2, 0, 1, 2, 0, 4, 1),
    (1, 2, 1, 2, 2, 1, 4),
)

LZ33_DROP0_BASIS = (
    (1, -1, 1, 0, -1, 0, 0, 0),
    (1, 0, 1, 0, 0, -1, -1, 0),
    (0, 0, 1, -1, 0, 0, -1, 1),
    (1, 0, 0, -1, -1, 0, 0, 1),
    (1, -1, 0, 0, 0, 0, -1, 1),
    (0, 0, 1, 0, -1, -1, 0, 1),
    (0, 0, 0, -1, 1, -1, 0, 1),
)
P7_27 = (
    (4, 2, 1, 2, 2, 2, -1),
    (2, 4, 2, 1, 2, 2, 1),
    (1, 2, 4, 2, 2, 2, 2),
    (2, 1, 2, 4, 2, 2, 1),
    (2, 2, 2, 2, 4, 1, 1),
    (2, 2, 2, 2, 1, 4, 1),
    (-1, 1, 2, 1, 1, 1, 4),
)

E7_BASIS = (
    (0, 0, 0, 1, 1, 1, -1),
    (0, 0, 0, 2, 0, 0, 0),
    (1, 0, 1, 1, 0, 1, 0),
    (0, 0, 0, 1, 1, -1, -1),
    (0, 0, 0, 1, 1, 1, 1),
    (0, 1, 1, 1, 1, 0, 0),
    (0, -1, 1, 1, 1, 0, 0),
)
P7_1 = (
    (2, 1, 1, 1, 1, 1, 1),
    (1, 2, 1, 1, 1, 1, 1),
    (1, 1, 2, 0, 1, 1, 1),
    (1, 1, 0, 2, 0, 1, 1),
    (1, 1, 1, 0, 2, 1, 1),
    (1, 1, 1, 1, 1, 2, 1),
    (1, 1, 1, 1, 1, 1, 2),
)

E8_BASIS = (
    (2, 0, 0, 0, 0, 0, 0, 0),
    (-1, -1, -1, -1, 0, 0, 0, 0),
    (0, 2, 0, 0, 0, 0, 0, 0),
    (0, -1, 1, 0, -1, 0, 0, -1),
    (0, 0, 0, 0, 1, -1, 1, 1),
    (0, 0, 0, 0, 0, 2, 0, 0),
    (0, 0, 0, 0, -1, -1, -1, 1),
    (0, 0, -1, 1, 0, 0, -1, -1),
)
E8_DYNKIN = (
    (2, -1, 0, 0, 0, 0, 0, 0),
    (-1, 2, -1, 0, 0, 0, 0, 0),
    (0, -1, 2, -1, 0, 0, 0, 0),
    (0, 0, -1, 2, -1, 0, 0, 0),
    (0, 0, 0, -1, 2, -1, 0, -1),
    (0, 0, 0, 0, -1, 2, -1, 0),
    (0, 0, 0, 0, 0, -1, 2, 0),
    (0, 0, 0, 0, -1, 0, 0, 2),
)

T3_BASIS = (
    (0, 0, 1, 0, 1, -1, 0),
    (0, 1, 0, 0, 1, 0, -1),
    (1, 0, 0, 0, 0, -1, 1),
    (1, 0, 0, -1, 1, 0, 0),
    (0, 0, 1, -1, 0, 0, 1),
    (0, 0, 1, 1, 0, 0, -1),
    (-1, 0, 0, 1, 1, 0, 0),
)
P7_2 = (
    (3, 1, 1, 1, 1, 1, 1),
    (1, 3, -1, 1, -1, 1, 1),
    (1, -1, 3, 1, 1, -1, -1),
    (1, 1, 1, 3, 1, -1, -1),
    (1, -1, 1, 1, 3, -1, -1),
    (1, 1, -1, -1, -1, 3, 1),
    (1, 1, -1, -1, -1, 1, 3),
)


def _scaled(M, factor):
    return tuple(tuple(factor * x for x in row) for row in M)


def _as_tuple(M):
    return tuple(tuple(row) for row in M)


def nonzero_rows(M):
    return [list(row) for row in M if any(row)]


def _even_sublattice_cs(coords_group, drop_zero: bool) -> ConstraintSystem:
    from latlab.groups import parse_group

    group = parse_group(coords_group)
    coords = [a for a in group.elements() if not (drop_zero and a == group.zero)]
    rows = [((1,) * len(coords), 2)]
    rows += [(tuple(a[j] for a in coords), m) for j, m in enumerate(group.factors)]
    return ConstraintSystem(tuple(group.label(a) for a in coords), tuple(rows))


CASES = [
    (L7_BASIS, P7_7, 1, "Ld:7"),
    (L7_4_BASIS, P7_31, 1, "Ld:7:excl=4"),
    (LZ7_BASIS, P6_5, 1, "LA:Z/7"),
    (LZ8_BASIS, P7_5, 1, "LA:Z/8"),
    (LF23_BASIS, P7_4, 2, "LA:F2^3"),
    (A6_BASIS, P6_7, 2, "LAsub:F2^3:drop=000"),
    (LZ9_DROP0_BASIS, P7_28, 1, "LAsub:Z/9:drop=0"),
    (LZ33_DROP0_BASIS, P7_27, 1, "LAsub:Z/3+Z/3:drop=00"),
    (E8_BASIS, E8_DYNKIN, 2, "Mneg:F2^3"),
    (T3_BASIS, P7_2, 1, "T:3"),
]


def test_reference_bases_reproduce_reduced_gram_matrices():
    for basis, expected, factor, spec in CASES:
        assert _as_tuple(gram_matrix(basis)) == _scaled(expected, factor), spec


def test_e7_basis_reproduces_doubled_gram():
    assert _as_tuple(gram_matrix(E7_BASIS)) == _scaled(P7_1, 2)


def test_reference_bases_generate_their_lattices():
    for basis, _expected, _factor, spec in CASES:
        lat = families.build_family(spec)
        for row in basis:
            assert lattice.contains(lat, row), spec
        assert _as_tuple(nonzero_rows(hnf([list(r) for r in basis]))) == lat.basis, spec


def test_e7_vectors_generate_even_sublattice_on_nonzero_coords():
    cs = _even_sublattice_cs("F2^3", drop_zero=True)
    lat = build(cs)
    assert lat.det == 256
    for row in E7_BASIS:
        assert lattice.contains(lat, row)
    assert _as_tuple(nonzero_rows(hnf([list(r) for r in E7_BASIS]))) == lat.basis


def test_restricted_kernel_generated_by_short_supported_vectors():
    # the vectors of norm <= 4 supported away from the dropped element must
    # span the whole restricted kernel for the studied cases
    for spec in ("LAsub:Z/9:drop=0", "LAsub:Z/3+Z/3:drop=00", "LAsub:F2^3:drop=000"):
        lat = families.build_family(spec)
        vecs = [list(v) for m in (2, 3, 4)
                for v in lattice.vectors_of_norm(lat, m).vectors]
        assert _as_tuple(nonzero_rows(hnf(vecs))) == lat.basis, spec
