"""Exact dissociation numbers, bounds and certificates for Kneser graphs."""

from .bounds import (
    BoundEntry,
    BoundReport,
    alpha_dominance_threshold,
    alpha_equality_lower,
    alpha_kneser,
    binom,
    combined_upper,
    edge_local_upper,
    edge_nonneighbor_closed_form,
    edge_nonneighbor_count,
    katona_upper_large_r,
    katona_upper_small_r,
    known_exact,
    nonindependent_upper,
    report,
    subgraph_lower,
)
from .certificates import Certificate, certificate_from_json
from .certify import (
    CyclicArrangement,
    MatchingResult,
    all_arrangements,
    check_max_degree,
    check_p3_cover,
    double_count_identity,
    find_x_matching,
    max_substrings,
    odd_expansion_check,
    odd_expansion_violator,
    odd_hall_matching,
    odd_neighborhood,
    substrings_in_arrangement,
)
from .errors import CapacityError, DomainError, SearchFailure
from .graphs import (
    GenericGraph,
    bits,
    graph_from_edges,
    induced_subgraph,
    mask_of,
    read_dimacs,
    write_dimacs,
)
from .kneser import (
    KneserGraph,
    KSubset,
    build_kneser,
    edge_nonneighbors,
    enumerate_k_subsets,
    kneser_from_json,
    kneser_to_json,
)
from .solver import (
    SearchBudget,
    SolveResult,
    brute_force,
    heuristic_lower,
    psi3,
    solve,
    solve_kneser,
)

__version__ = "0.1.0"
