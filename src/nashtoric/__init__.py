"""Exact-integer Nash blowups and normalized Nash blowups of affine toric
varieties, with a persistent digraph explorer."""

__version__ = "0.1.0"

from .errors import (
    BasisCapExceeded,
    InputError,
    NashToricError,
    NotFullRankError,
    NotPointedError,
    SearchCapExceeded,
    StoreError,
)
from .linalg import (
    IntMatrix,
    determinant,
    format_matrix,
    hermite_normal_form,
    is_basis_modulo,
    lattice_index,
    make_primitive,
    parse_matrix,
    smith_normal_form,
)
from .cones import Cone, dual_description
from .semigroups import (
    AffineSemigroup,
    full_rank_normalize,
    hilbert_basis,
    is_saturated,
    minimal_generators,
    semigroup_member,
)
from .canonical import CanonicalKey, are_equivalent, canonical_cone, canonical_semigroup
from .blowup import (
    Fan,
    nash_children,
    nash_subdivision,
    normalized_nash_children,
    reeves_cone,
)
from .digraph import (
    BudgetExhausted,
    Complete,
    DigraphStore,
    expand,
    export_dot,
    find_cycles,
    resolution_subgraph,
)
from .analysis import AnalysisReport, analyze
from .sampling import SampleSummary, sample_random

__all__ = [
    "AffineSemigroup",
    "AnalysisReport",
    "BasisCapExceeded",
    "BudgetExhausted",
    "CanonicalKey",
    "Complete",
    "Cone",
    "DigraphStore",
    "Fan",
    "InputError",
    "IntMatrix",
    "NashToricError",
    "NotFullRankError",
    "NotPointedError",
    "SampleSummary",
    "SearchCapExceeded",
    "StoreError",
    "analyze",
    "are_equivalent",
    "canonical_cone",
    "canonical_semigroup",
    "determinant",
    "dual_description",
    "expand",
    "export_dot",
    "find_cycles",
    "format_matrix",
    "full_rank_normalize",
    "hermite_normal_form",
    "hilbert_basis",
    "is_basis_modulo",
    "is_saturated",
    "lattice_index",
    "make_primitive",
    "minimal_generators",
    "nash_children",
    "nash_subdivision",
    "normalized_nash_children",
    "parse_matrix",
    "reeves_cone",
    "resolution_subgraph",
    "sample_random",
    "semigroup_member",
    "smith_normal_form",
]
