from fractions import Fraction
from functools import partial
from math import floor

import pytest

from kneserdiss import (
    CapacityError,
    DomainError,
    alpha_dominance_threshold,
    alpha_equality_lower,
    alpha_kneser,
    binom,
    brute_force,
    build_kneser,
    combined_upper,
    edge_local_upper,
    edge_nonneighbor_closed_form,
    edge_nonneighbor_count,
    edge_nonneighbors,
    induced_subgraph,
    katona_upper_large_r,
    katona_upper_small_r,
    known_exact,
    nonindependent_upper,
    report,
    solve,
    subgraph_lower,
)
from kneserdiss.bounds import (
    EDGE_LOCAL_MAX_K,
    SRC_CLOSURE,
    SRC_ODD,
    SRC_PAIRS,
    SRC_TRIPLES,
    BoundEntry,
)
from kneserdiss.solver import _degd_expand
from support import expand_children, pascal_binom, small_kneser_parameters


def test_binom_against_pascal_oracle():
    for n in range(0, 21):
        for k in range(0, n + 3):
            assert binom(n, k) == pascal_binom(n, k)
    assert binom(20, 10) == pascal_binom(20, 10) == 184756


def test_binom_conventions():
    assert binom(6, 3) == 20
    assert binom(1, 2) == 0
    with pytest.raises(DomainError):
        binom(-1, 2)
    with pytest.raises(DomainError):
        binom(3, -1)


def test_alpha_values():
    assert alpha_kneser(5, 2) == 4
    assert alpha_kneser(8, 3) == 21
    assert alpha_kneser(6, 3) == pascal_binom(5, 2) == 10
    with pytest.raises(DomainError):
        alpha_kneser(3, 2)


def test_subgraph_lower():
    assert subgraph_lower(5, 2) == 6
    assert subgraph_lower(7, 3) == 20
    # dominated case: the independence bound must win in the report
    assert subgraph_lower(100, 2) == 6
    assert alpha_kneser(100, 2) == 99
    assert report(100, 2).best_lower == 99


def test_edge_nonneighbor_small_values():
    assert edge_nonneighbor_count(5, 2) == 4
    assert edge_nonneighbor_count(6, 3) == 18
    assert edge_nonneighbor_count(8, 3) == 36


def test_edge_nonneighbor_sum_equals_closed_form():
    # the bounds use the closed form; the composition sum is the reference
    for k in range(2, 11):
        for n in range(2 * k, 2 * k + 13):
            count = edge_nonneighbor_count(n, k)
            assert count == edge_nonneighbor_closed_form(n, k), (n, k)
            case_split = {b.name: b.value for b in report(n, k).upper_bounds}["case_split"]
            assert case_split == max(alpha_kneser(n, k), 2 + count), (n, k)


def test_edge_nonneighbor_matches_graph_count():
    for n, k in [(4, 2), (5, 2), (7, 2), (6, 3), (8, 3), (9, 4)]:
        g = build_kneser(n, k)
        x = tuple(range(1, k + 1))
        y = tuple(range(k + 1, 2 * k + 1))
        assert edge_nonneighbors(g, x, y).bit_count() == edge_nonneighbor_count(n, k)


def test_nonindependent_upper():
    for n in range(5, 13):
        assert nonindependent_upper(n, 2) == 6
    assert nonindependent_upper(8, 3) == 38
    assert nonindependent_upper(17, 3) == 119
    assert alpha_kneser(17, 3) == 120


def test_combined_upper():
    assert combined_upper(9, 2) == 8
    assert combined_upper(5, 2) == 6
    assert combined_upper(9, 3) == 47


def test_dominance_thresholds():
    assert alpha_dominance_threshold(2) == 7
    assert alpha_dominance_threshold(3) == 17


def test_dominance_threshold_k4_cross_check():
    t = alpha_dominance_threshold(4)

    def alpha_oracle(n):
        return pascal_binom(n - 1, 3)

    def edge_case_oracle(n):
        return 2 + pascal_binom(n, 4) - 2 * pascal_binom(n - 4, 4) + pascal_binom(n - 8, 4)

    assert alpha_oracle(t) >= edge_case_oracle(t)
    assert alpha_oracle(t - 1) < edge_case_oracle(t - 1)


def test_report_states_the_sandwich():
    # alpha <= diss <= 2 alpha, as report's first lower and upper entries
    for n, k in ((4, 2), (5, 2), (8, 3), (13, 5)):
        rep = report(n, k)
        alpha = pascal_binom(n - 1, k - 1)
        assert rep.lower_bounds[0] == BoundEntry("independence_number", alpha)
        assert rep.upper_bounds[0] == BoundEntry("twice_independence", 2 * alpha)


def test_dominance_thresholds_k2_to_k10():
    # the test's own scan, over Pascal rows truncated to the columns it reads
    # and checked against pascal_binom where the rows end
    rows = [[1] + [0] * 10]
    while len(rows) <= 826:
        prev = rows[-1]
        rows.append([1] + [prev[j] + prev[j - 1] for j in range(1, 11)])
    assert rows[826][10] == pascal_binom(826, 10)

    def first_dominant(k):
        for n in range(2 * k, len(rows)):
            alpha = rows[n - 1][k - 1]
            edge_case = 2 + rows[n][k] - 2 * rows[n - k][k] + rows[n - 2 * k][k]
            if alpha >= edge_case:
                return n
        raise AssertionError(f"no threshold for k={k} below {len(rows)}")

    expected = [7, 17, 43, 88, 160, 263, 405, 590, 826]
    assert [first_dominant(k) for k in range(2, 11)] == expected
    assert [alpha_dominance_threshold(k) for k in range(2, 11)] == expected


def test_dominance_threshold_k30():
    assert alpha_dominance_threshold(30) == 25_278


def test_katona_large_r():
    assert katona_upper_large_r(9, 3) == Fraction(112, 3)  # exact, not floored
    assert floor(katona_upper_large_r(7, 2)) == 9
    assert floor(katona_upper_large_r(8, 3)) == 28
    assert floor(katona_upper_large_r(5, 2)) == 6
    assert katona_upper_large_r(7, 3) is None  # needs n > 3k-2


def test_katona_large_r_dominates_exact_k2():
    for n in range(5, 41):
        assert floor(katona_upper_large_r(n, 2)) >= max(n - 1, 6)


def test_katona_small_r():
    assert floor(katona_upper_small_r(7, 3)) == 30
    assert floor(katona_upper_small_r(10, 4)) == 142
    assert katona_upper_small_r(9, 3) is None  # r=3 > k-2


def test_katona_bounds_match_integer_recomputation():
    # same values out of plain big-integer arithmetic, no Fraction involved
    for k in range(2, 7):
        for n in range(2 * k, 2 * k + 15):
            if n > 3 * k - 2:
                direct = ((k + 1) * pascal_binom(n - 1, k - 1)) // k
                assert floor(katona_upper_large_r(n, k)) == direct
            r = n - 2 * k
            if 1 <= r <= k - 2:
                num = 2 * (r * k + 2 * r + k + 1) * pascal_binom(n - 1, k - 1)
                assert floor(katona_upper_small_r(n, k)) == num // (k * (2 * r + 1))
            # report floors each applicable bound and keeps it as raw
            entries = {b.name: b for b in report(n, k).upper_bounds}
            for name, bound in (("katona_large_r", katona_upper_large_r),
                                ("katona_small_r", katona_upper_small_r)):
                frac = bound(n, k)
                if frac is None:
                    assert name not in entries, (n, k, name)
                else:
                    assert (entries[name].value, entries[name].raw) == (floor(frac), frac)


def test_alpha_equality_lower():
    assert alpha_equality_lower(3) == 8
    assert alpha_equality_lower(2) == 6
    assert alpha_equality_lower(10) == 22


def test_known_exact_rules():
    assert known_exact(12, 2) == (11, SRC_PAIRS)
    assert known_exact(9, 3) == (28, SRC_TRIPLES)
    assert known_exact(9, 4) == (70, SRC_ODD)
    assert known_exact(8, 4) == (70, "perfect_matching_graph")
    assert known_exact(12, 5) is None
    # the edge-local bound closes what the case split leaves open
    assert known_exact(20, 4) == (969, SRC_CLOSURE)
    for n in range(4, 31):
        value, _ = known_exact(n, 2)
        assert value == max(n - 1, 6)


def test_report_7_3():
    rep = report(7, 3)
    assert rep.best_lower == 20
    assert rep.best_upper == 20
    assert rep.known_exact == (20, SRC_ODD)
    assert rep.best_lower <= rep.known_exact[0] <= rep.best_upper


def test_report_8_3():
    rep = report(8, 3)
    assert rep.known_exact == (21, SRC_TRIPLES)
    assert rep.best_lower <= 21 <= rep.best_upper


def test_report_6_2():
    rep = report(6, 2)
    assert rep.known_exact == (6, SRC_PAIRS)
    assert rep.best_lower >= 6  # the matching-subgraph bound reaches it
    names = {b.name: b.value for b in rep.lower_bounds}
    assert names["matching_subgraph"] == 6


def test_report_soundness_where_exact_known():
    instances = [(n, 2) for n in range(4, 31)] + [
        (6, 3), (7, 3), (8, 3), (9, 3), (12, 3), (8, 4), (9, 4),
    ]
    for n, k in instances:
        rep = report(n, k)
        exact = rep.known_exact
        assert exact is not None
        for entry in rep.lower_bounds:
            assert entry.value <= exact[0]
        for entry in rep.upper_bounds:
            assert exact[0] <= entry.value
        assert rep.best_lower <= rep.best_upper
        assert rep.alpha == alpha_kneser(n, k)


def test_report_json_shape():
    doc = report(9, 3).as_dict()
    assert set(doc) == {"n", "k", "alpha", "lower", "upper", "exact", "interval"}
    assert doc["exact"] == {"value": 28, "source": SRC_TRIPLES}
    assert doc["interval"] == [28, 29]
    assert all(set(e) >= {"name", "value"} for e in doc["lower"] + doc["upper"])
    assert report(12, 5).as_dict()["exact"] is None


def test_closure_source_exists():
    # bound closure names exactly the closed intervals that no theorem
    # settles first, and every one of them closes at alpha
    closures = 0
    for k in range(2, 13):
        for n in list(range(2 * k, 6 * k + 30)) + [3 * k * k, 4 * k ** 3]:
            r = report(n, k)
            theorem = k == 2 or (k == 3 and n >= 8) or n in (2 * k, 2 * k + 1)
            by_closure = r.known_exact is not None and r.known_exact[1] == SRC_CLOSURE
            assert by_closure == (r.best_lower == r.best_upper and not theorem), (n, k)
            if by_closure:
                assert r.known_exact[0] == r.best_lower == alpha_kneser(n, k), (n, k)
                closures += 1
    assert closures


def _edge_local_from_graph(n, k):
    """max(alpha, 2 + t) with t read off the built common non-neighbourhood."""
    g = build_kneser(n, k)
    x, y = tuple(range(1, k + 1)), tuple(range(k + 1, 2 * k + 1))
    m = induced_subgraph(g, edge_nonneighbors(g, x, y))
    degrees = [row.bit_count() for row in m.adj]
    slack, t = sum(degrees), 0
    for weight in sorted(2 * deg - 1 for deg in degrees):
        if weight > slack:
            break
        slack -= weight
        t += 1
    # the same t is where the solver's degree-counting bound prunes M's root
    root, expand = (m.full_mask, 0), partial(_degd_expand, m.adj, 1)
    assert expand_children(expand, root, t - 1) != []
    assert expand_children(expand, root, t) == []
    return max(alpha_kneser(n, k), 2 + t)


def test_edge_local_matches_built_graph():
    for k in range(3, 6):
        for n in range(2 * k, 14):
            assert edge_local_upper(n, k) == _edge_local_from_graph(n, k), (n, k)


def test_edge_local_settles_odd_graphs():
    # diss(K(2k+1, k)) = C(2k, k), and the matching subgraph attains it
    for k in range(3, 31):
        assert edge_local_upper(2 * k + 1, k) == binom(2 * k, k) == subgraph_lower(2 * k + 1, k)
        rep = report(2 * k + 1, k)
        assert rep.best_lower == rep.best_upper == binom(2 * k, k), k


def test_edge_local_sound_and_sharper_than_case_split():
    for n, k in small_kneser_parameters(20):
        if k < 2:
            continue
        assert brute_force(build_kneser(n, k), 1) <= edge_local_upper(n, k), (n, k)
    for n, k in ((7, 3), (8, 3), (9, 3)):
        assert solve(build_kneser(n, k), 1).best_size <= edge_local_upper(n, k), (n, k)
    for k in range(2, 11):
        for n in range(2 * k, 2 * k + 13):
            rep = report(n, k)
            uppers = {b.name: b.value for b in rep.upper_bounds}
            assert uppers["edge_local"] <= uppers["case_split"], (n, k)
            assert rep.best_lower <= rep.best_upper, (n, k)
    assert report(10, 4).as_dict()["interval"] == [84, 102]


def test_closed_intervals_have_exact_values():
    for k in range(3, 8):
        for n in range(2 * k, 12 * k):
            rep = report(n, k)
            if rep.best_lower == rep.best_upper:
                assert rep.known_exact is not None, (n, k)
                assert rep.known_exact[0] == rep.best_lower, (n, k)


def test_report_size_cap():
    # bound values must print: C(n, k) < 2**min(n, k * bits(n)) is checked
    # against MAX_VALUE_BITS before any binomial
    rep = report(6000, 2000)
    assert len(str(rep.alpha)) == 1657
    assert rep.best_lower <= rep.best_upper
    for n, k in ((10**2200, 3), (10**30, 10**29), (14_001, 7000)):
        for fn in (report, alpha_kneser, subgraph_lower, edge_nonneighbor_count,
                   edge_nonneighbor_closed_form, combined_upper, known_exact):
            with pytest.raises(CapacityError):
                fn(n, k)
    assert report(14_000, 7000).n == 14_000
    # the edge-local bound has its own k cap; past it report leaves it out
    k = EDGE_LOCAL_MAX_K
    assert "edge_local" in {b.name for b in report(4 * k, k).upper_bounds}
    assert "edge_local" not in {b.name for b in report(4 * k + 4, k + 1).upper_bounds}
    with pytest.raises(CapacityError):
        edge_local_upper(4 * k + 4, k + 1)


@pytest.mark.parametrize("call", [
    lambda: alpha_dominance_threshold(1),
    lambda: alpha_equality_lower(1),
])
def test_k_below_two_rejected(call):
    with pytest.raises(DomainError):
        call()
