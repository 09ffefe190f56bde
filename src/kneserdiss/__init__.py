"""Exact dissociation numbers, bounds and certificates for Kneser graphs.

``import kneserdiss`` loads none of the submodules.  Each public name, and
each submodule name (``kneserdiss.solver``, ``kneserdiss.bounds``, ...),
loads its submodule the first time it is read (PEP 562), so a caller pays
only for the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "bounds": (
        "BoundEntry",
        "BoundReport",
        "alpha_dominance_threshold",
        "alpha_equality_lower",
        "alpha_kneser",
        "binom",
        "combined_upper",
        "edge_local_upper",
        "edge_nonneighbor_closed_form",
        "edge_nonneighbor_count",
        "katona_upper_large_r",
        "katona_upper_small_r",
        "known_exact",
        "nonindependent_upper",
        "report",
        "subgraph_lower",
    ),
    "certificates": ("Certificate", "certificate_from_json"),
    "certify": (
        "CyclicArrangement",
        "MatchingResult",
        "all_arrangements",
        "check_max_degree",
        "check_p3_cover",
        "double_count_identity",
        "find_x_matching",
        "max_substrings",
        "odd_expansion_check",
        "odd_expansion_violator",
        "odd_hall_matching",
        "odd_neighborhood",
        "substrings_in_arrangement",
    ),
    "errors": ("CapacityError", "DomainError", "SearchFailure"),
    "graphs": (
        "GenericGraph",
        "bits",
        "graph_from_edges",
        "induced_subgraph",
        "read_dimacs",
        "write_dimacs",
    ),
    "kneser": (
        "KneserGraph",
        "KSubset",
        "build_kneser",
        "edge_nonneighbors",
        "enumerate_k_subsets",
        "kneser_from_json",
        "kneser_to_json",
    ),
    "solver": (
        "SearchBudget",
        "SolveResult",
        "brute_force",
        "heuristic_lower",
        "psi3",
        "solve",
        "solve_kneser",
    ),
}
_SUBMODULES = (*_EXPORTS, "cli")
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)


def __getattr__(name: str):
    if name in _OWNER:
        value = globals()[name] = getattr(import_module(f"{__name__}.{_OWNER[name]}"), name)
        return value
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")  # which binds it here too
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
