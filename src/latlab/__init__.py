"""latlab: exact-arithmetic construction and analysis of integral lattices.

The package builds sublattices of Z^n defined by equality and congruence
constraint rows, enumerates their short vectors with two independent
algorithms, evaluates closed-form determinant and pair-count formulas for
the shipped lattice families, and measures perfection through exact
symmetric-tensor ranks.  Everything runs on arbitrary-precision integers
and exact rationals; no floating point is involved anywhere.
"""

from .errors import ConstructionError, SpecError
from .families import (
    FamilySpec,
    FormulaReport,
    build_family,
    craig_count_closed,
    craig_count_k2_closed,
    craig_count_k3_closed,
    craig_pair_count,
    det_formula,
    make,
    minpair_formula,
    parse_family,
    verify_formula,
)
from .fields import FiniteField, distinct_root_histogram, field_for_order
from .groups import (
    FinAbelianGroup,
    abelian_groups_of_order,
    is_sidon,
    mod_negation_reps,
    parse_group,
    two_torsion_rank,
)
from .lattice import (
    ConstraintSystem,
    Lattice,
    MinimalVectorSet,
    build,
    contains,
    enumerate_by_basis_oracle,
    has_m_lattice_sidon_property,
    minimum,
    vectors_of_norm,
)
from .perfection import (
    AlphaSeries,
    MinVectorGraph,
    NeighborStats,
    PerfectionReport,
    alpha_series,
    hyperplane_split_check,
    minvec_graph,
    neighbor_stats,
    neighbor_survey,
    parity_check_LF2k,
    perfection_report,
    scan_D,
    sym_square_rank,
)

__version__ = "0.1.0"
