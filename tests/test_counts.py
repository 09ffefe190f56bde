"""Every public count argument refuses a float, a bool and a string.

K(n, k) and the windows of an arrangement of {1..n} exist only for
integers, so each count, index and element goes through
``errors.require_int`` and raises DomainError.  The odd-graph checks take
the graph itself, not k; test_certify covers their refusal of anything
that is not an odd graph.  Unchecked, a float or a
string raises TypeError inside the arithmetic, and a bool, which Python
counts as an int, gives a wrong answer with no error at all.
"""

import pytest

import kneserdiss as kd
from kneserdiss import DomainError

PETERSEN = kd.build_kneser(5, 2)
RING = kd.CyclicArrangement((1, 2, 3, 4))
KN = (9, 3)  # a valid (n, k) for every bound
ALL = (float, bool, str)
# True is 1, out of range for k >= 2 and for n >= 2k; test_bounds and
# test_kneser cover those ranges
NO_BOOL = (float, str)
ANY_K = (NO_BOOL, ALL)  # (n, k) with k >= 1
K2 = (NO_BOOL, NO_BOOL)  # (n, k) with k >= 2

# (name, function, valid arguments, kinds to try at each argument)
COUNTS = [
    ("binom", kd.binom, (5, 2), (ALL, ALL)),
    ("alpha_kneser", kd.alpha_kneser, KN, ANY_K),
    ("subgraph_lower", kd.subgraph_lower, KN, ANY_K),
    ("edge_nonneighbor_count", kd.edge_nonneighbor_count, KN, K2),
    ("edge_nonneighbor_closed_form", kd.edge_nonneighbor_closed_form, KN, K2),
    ("nonindependent_upper", kd.nonindependent_upper, KN, K2),
    ("combined_upper", kd.combined_upper, KN, K2),
    ("edge_local_upper", kd.edge_local_upper, KN, K2),
    ("katona_upper_large_r", kd.katona_upper_large_r, KN, K2),
    ("katona_upper_small_r", kd.katona_upper_small_r, (9, 4), K2),
    ("known_exact", kd.known_exact, KN, K2),
    ("report", kd.report, KN, K2),
    ("alpha_dominance_threshold", kd.alpha_dominance_threshold, (3,), (NO_BOOL,)),
    ("alpha_equality_lower", kd.alpha_equality_lower, (3,), (NO_BOOL,)),
    ("enumerate_k_subsets", kd.enumerate_k_subsets, (5, 2), ANY_K),
    ("build_kneser", kd.build_kneser, (5, 2), ANY_K),
    ("solve_kneser", kd.solve_kneser, (5, 2), ANY_K),
    # a vertex is named by its elements, each of them a count
    ("vertex_index", lambda e: PETERSEN.vertex_index((1, e)), (2,), (ALL,)),
    ("graph_from_edges", lambda order: kd.graph_from_edges(order, []), (3,), (ALL,)),
    # a vertex set is an int bitset, the cover of check_p3_cover among them
    ("p3_cover_bitset", lambda s: kd.check_p3_cover(PETERSEN, s), (1,), (ALL,)),
    ("brute_force", lambda d: kd.brute_force(PETERSEN, d), (1,), (ALL,)),
    ("window_masks", RING.window_masks, (2,), (ALL,)),
    ("all_arrangements", lambda n: list(kd.all_arrangements(n)), (4,), (ALL,)),
    ("max_substrings", lambda n, k: kd.max_substrings(n, k, []), (4, 1), (ALL, ALL)),
    ("double_count_identity", lambda n, k: kd.double_count_identity(n, k, []), (5, 1),
     (ALL, ALL)),
    ("substrings_in_arrangement", lambda k: kd.substrings_in_arrangement(RING, [], k), (2,),
     (ALL,)),
    # the odd-graph checks take the graph; the bitset L of center vertices
    # is their one count
    ("odd_neighborhood", lambda s: kd.odd_neighborhood(PETERSEN, s), (1 << 3,), (ALL,)),
    ("odd_expansion_check", lambda s: kd.odd_expansion_check(PETERSEN, s), (1 << 3,), (ALL,)),
    ("odd_hall_matching", lambda s: kd.odd_hall_matching(PETERSEN, s), (1 << 3,), (ALL,)),
    ("CyclicArrangement", lambda e: kd.CyclicArrangement((1, 2, e)), (3,), (ALL,)),
]


def _with(fn, args, pos, kind):
    bad = list(args)
    bad[pos] = kind(args[pos])
    return lambda: fn(*bad)


CASES = [
    pytest.param(_with(fn, args, pos, kind), id=f"{name}-{pos}-{kind.__name__}")
    for name, fn, args, kinds_at in COUNTS
    for pos, kinds in enumerate(kinds_at)
    for kind in kinds
] + [
    # more calls that gave a wrong answer with no error
    pytest.param(lambda: kd.alpha_equality_lower(2.5), id="alpha_equality_lower(2.5)"),
    pytest.param(lambda: kd.subgraph_lower(6, True), id="subgraph_lower(6,True)"),
    pytest.param(lambda: kd.binom(True, 1), id="binom(True,1)"),
    pytest.param(lambda: kd.build_kneser(3, True), id="build_kneser(3,True)"),
    pytest.param(lambda: kd.double_count_identity(5.0, 2, [(1, 2)]),
                 id="double_count_identity(5.0,2)"),
]


@pytest.mark.parametrize("call", CASES)
def test_count_arguments_refuse_non_integers(call):
    with pytest.raises(DomainError):
        call()


def test_out_of_range_message_names_a_huge_int_by_its_bits():
    # 10**5000 has more digits than the interpreter writes as a string, so
    # the message names its bit length instead
    with pytest.raises(DomainError, match=r"n -<16610-bit int> out of range \[0, inf\]"):
        kd.binom(-10**5000, 1)
    with pytest.raises(DomainError, match=r"k -1 out of range \[0, <16610-bit int>\]"):
        kd.enumerate_k_subsets(10**5000, -1)
    for fn in (kd.build_kneser, kd.alpha_kneser):
        with pytest.raises(DomainError, match=r"got n=<16610-bit int> k=<16610-bit int>"):
            fn(10**5000, 10**5000)
