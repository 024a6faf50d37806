"""Exact invariants of k-cut complexes, specialized to squared paths.

The k-cut complex of a graph on 1..n has one facet per disconnected
k-subset, namely its complement.  For squared paths every classical
invariant collapses to a closed form; this package computes those forms
exactly and cross-checks them against brute-force enumeration and a
finite-field homology oracle at small scale.
"""

from .complements import (
    BadProfile,
    connectivity_test,
    is_bad,
    q_profile_bruteforce,
    q_profile_closed,
    z_count,
)
from .complexes import (
    FVector,
    NonfaceLayers,
    disconnected_k_sets,
    f_vector_bruteforce,
    face_enumerator_closed,
    faces_by_dimension,
    is_face,
    layered_beta,
    nonface_layers,
    reduced_euler,
)
from .formulas import (
    BettiTable,
    RecurrenceCheck,
    RecurrenceEntry,
    beta_closed,
    beta_k4,
    beta_k5,
    diagonal_genfun,
    diagonal_poly,
    h_polynomial,
    hilbert_series,
    leading_coefficient,
    sharp_difference,
    verify_recurrence,
)
from .graphs import (
    FULL_SCAN_LIMIT,
    CapacityError,
    Graph,
    canonical_vertex_set,
    complete_graph,
    gap_connected,
    is_connected_induced,
    is_squared_path,
    parse_graph,
    squared_path,
)
from .homology import (
    FIELD_SAMPLING_NOTE,
    HOMOLOGY_LIMIT,
    BoundaryMatrix,
    ConcentrationReport,
    betti_numbers,
    build_chain_complex,
    composition_vanishes,
    is_prime,
    rank_mod_p,
    require_prime,
    verify_concentration,
)
from .polynomials import Polynomial, RationalGenFun, backward_difference, binom

__version__ = "0.1.0"

__all__ = [
    "BadProfile",
    "BettiTable",
    "BoundaryMatrix",
    "CapacityError",
    "ConcentrationReport",
    "FIELD_SAMPLING_NOTE",
    "FULL_SCAN_LIMIT",
    "FVector",
    "Graph",
    "HOMOLOGY_LIMIT",
    "NonfaceLayers",
    "Polynomial",
    "RationalGenFun",
    "RecurrenceCheck",
    "RecurrenceEntry",
    "backward_difference",
    "beta_closed",
    "beta_k4",
    "beta_k5",
    "betti_numbers",
    "binom",
    "build_chain_complex",
    "canonical_vertex_set",
    "complete_graph",
    "composition_vanishes",
    "connectivity_test",
    "diagonal_genfun",
    "diagonal_poly",
    "disconnected_k_sets",
    "f_vector_bruteforce",
    "face_enumerator_closed",
    "faces_by_dimension",
    "gap_connected",
    "h_polynomial",
    "hilbert_series",
    "is_bad",
    "is_connected_induced",
    "is_face",
    "is_prime",
    "is_squared_path",
    "layered_beta",
    "leading_coefficient",
    "nonface_layers",
    "parse_graph",
    "q_profile_bruteforce",
    "q_profile_closed",
    "rank_mod_p",
    "reduced_euler",
    "require_prime",
    "sharp_difference",
    "squared_path",
    "verify_concentration",
    "verify_recurrence",
    "z_count",
]
