import dataclasses
import inspect
import random
import sys
from itertools import combinations, permutations

import pytest

from kneserdiss import (
    CapacityError,
    CyclicArrangement,
    DomainError,
    GenericGraph,
    KSubset,
    all_arrangements,
    build_kneser,
    check_max_degree,
    check_p3_cover,
    double_count_identity,
    find_x_matching,
    graph_from_edges,
    max_substrings,
    odd_expansion_check,
    odd_expansion_violator,
    odd_hall_matching,
    odd_neighborhood,
    solve,
    substrings_in_arrangement,
)
import kneserdiss.certify as certify_module
from kneserdiss.graphs import bits
from support import random_graph

PROP_SET = [(1, 2), (3, 4), (1, 3), (1, 4), (2, 3), (2, 4)]


def mask(indices):
    """The bitset of the vertex indices listed."""
    return sum(1 << i for i in indices)


def petersen_with_prop_mask():
    g = build_kneser(5, 2)
    mask = 0
    for member in PROP_SET:
        mask |= 1 << g.vertex_index(member)
    return g, mask


def test_check_max_degree_prop_set():
    g, mask = petersen_with_prop_mask()
    assert check_max_degree(g, mask, 1)
    assert not check_max_degree(g, mask, 0)
    # the set induces exactly the three edges of a perfect matching on [4]
    induced = sum(
        (g.adj[v] & mask).bit_count() for v in bits(mask)
    )
    assert induced // 2 == 3


def test_check_max_degree_trivia():
    g = build_kneser(5, 2)
    assert check_max_degree(g, 0, 0)
    h = build_kneser(6, 3)
    assert not check_max_degree(h, h.full_mask, 0)
    assert check_max_degree(h, h.full_mask, 1)


def test_check_p3_cover_basics():
    g, mask = petersen_with_prop_mask()
    assert check_p3_cover(g, g.full_mask & ~mask)
    assert check_p3_cover(g, g.full_mask)
    path3 = graph_from_edges(3, [(0, 1), (1, 2)])
    assert not check_p3_cover(path3, 0)


def test_p3_cover_agrees_with_max_degree_dual():
    rng = random.Random(5)
    for _ in range(40):
        g = random_graph(rng.randint(1, 12), rng.choice([0.2, 0.5, 0.8]), rng)
        cover = rng.getrandbits(g.order) & g.full_mask
        assert check_p3_cover(g, cover) == check_max_degree(
            g, g.full_mask & ~cover, 1
        )


def test_matching_trivial():
    res = find_x_matching(["a"], ["b"], [("a", "b")])
    assert res.saturated and res.matching == (("a", "b"),)


def test_matching_pigeonhole_violator():
    res = find_x_matching(["a", "b"], ["c"], [("a", "c"), ("b", "c")])
    assert not res.saturated
    assert res.violator == {"a", "b"}


def test_matching_rejects_repeated_x_vertices():
    # a repeated x once came back matched twice, or broke the violator
    for xs in (["a", "a"], ["a", "a", "a"]):
        with pytest.raises(DomainError):
            find_x_matching(xs, ["b", "c"], [("a", "b"), ("a", "c")])


def test_matching_long_augmenting_paths():
    # x_i sees y_{i-1} then y_i, and x_0 sees only y_0.  x_1..x_{n-1} take
    # their first choice; x_0, last, then needs a path through all of them
    n = 5_000
    xs = [f"x{i}" for i in range(1, n)] + ["x0"]
    ys = [f"y{j}" for j in range(n)]
    edges = [("x0", "y0")]
    for i in range(1, n):
        edges += [(f"x{i}", f"y{i - 1}"), (f"x{i}", f"y{i}")]
    limit = sys.getrecursionlimit()
    res = find_x_matching(xs, ys, edges)
    assert sys.getrecursionlimit() == limit
    assert res.saturated
    pairs = dict(res.matching)
    assert set(pairs) == set(xs) and len(set(pairs.values())) == n
    assert all(pairs[f"x{i}"] == f"y{i}" for i in range(n))


def test_matching_random_instances_verified():
    rng = random.Random(17)
    for _ in range(60):
        nx, ny = rng.randint(1, 8), rng.randint(1, 8)
        xs = [f"x{i}" for i in range(nx)]
        ys = [f"y{j}" for j in range(ny)]
        edges = [
            (x, y) for x in xs for y in ys if rng.random() < 0.35
        ]
        nbr = {x: {y for a, y in edges if a == x} for x in xs}
        res = find_x_matching(xs, ys, edges)
        if res.saturated:
            pairs = dict(res.matching)
            assert set(pairs) == set(xs)
            assert len(set(pairs.values())) == nx  # vertex-disjoint
            assert all(y in nbr[x] for x, y in pairs.items())
        else:
            w = res.violator
            neigh = set().union(*(nbr[x] for x in w))
            assert len(neigh) < len(w)


def test_odd_expansion_single_vertex():
    g = build_kneser(5, 2)
    for v in bits(g.center_mask(5)):
        assert odd_expansion_check(g, 1 << v)


def test_odd_expansion_full_centers():
    for k in (2, 3):
        g = build_kneser(2 * k + 1, k)
        assert odd_expansion_check(g, g.center_mask(2 * k + 1))
        # every center vertex has exactly k+1 neighbors below
        bottom = g.full_mask & ~g.center_mask(2 * k + 1)
        for v in bits(g.center_mask(2 * k + 1)):
            assert (g.adj[v] & bottom).bit_count() == k + 1


def test_odd_expansion_exhaustive_o2():
    g = build_kneser(5, 2)
    center = list(bits(g.center_mask(5)))
    for size in range(1, len(center) + 1):
        for sub in combinations(center, size):
            assert odd_expansion_check(g, mask(sub))


def expansion_fails(g, sub):
    lmask, nbhd = odd_neighborhood(g, mask(sub))
    return g.k * nbhd.bit_count() < (g.k + 1) * lmask.bit_count()


def without_edges(g, edges):
    adj = list(g.adj)
    for u, v in edges:
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
    return dataclasses.replace(g, adj=tuple(adj))


def test_odd_expansion_violator_agrees_with_every_l():
    g = build_kneser(5, 2)
    center = list(bits(g.center_mask(5)))
    below = g.full_mask & ~g.center_mask(5)
    every_l = [sub for size in range(1, len(center) + 1)
               for sub in combinations(center, size)]
    # O_2 as built, less any one edge between center and below, and less
    # every edge of one vertex below: the violator exists iff some L fails
    one_edge = [without_edges(g, [(v, u)])
                for v in center for u in bits(g.adj[v] & below)]
    one_vertex = [without_edges(g, [(v, u) for v in bits(g.adj[u] & ~below)])
                  for u in bits(below)]
    for h in [g] + one_edge + one_vertex:
        violator = odd_expansion_violator(h)
        failing = [sub for sub in every_l if expansion_fails(h, sub)]
        assert (violator is None) == (not failing)
        if violator is not None:
            assert expansion_fails(h, violator) and violator <= set(center)
    # one lost edge never breaks expansion, as the edge count shows; a
    # vertex below cut from the center always does
    assert len(one_edge) == 12 and len(one_vertex) == 6
    assert all(odd_expansion_violator(h) is None for h in one_edge)
    assert all(odd_expansion_violator(h) is not None for h in one_vertex)
    assert odd_expansion_violator(g) is None
    # O_3 holds by one matching; test_criterion_10_odd_graph_expansion
    # checks its 2^15 - 1 sets L one at a time
    assert odd_expansion_violator(build_kneser(7, 3)) is None


def test_odd_expansion_violator_on_a_corrupted_o3():
    g = build_kneser(7, 3)
    center = g.center_mask(7)
    below = g.full_mask & ~center
    u = next(bits(below))
    h = without_edges(g, [(v, u) for v in bits(g.adj[u] & center)])
    violator = odd_expansion_violator(h)
    assert violator and isinstance(violator, frozenset)
    assert expansion_fails(h, violator) and not expansion_fails(g, violator)
    # a single lost edge leaves the odd graph expanding
    v = next(bits(center))
    assert odd_expansion_violator(without_edges(g, [(v, next(bits(g.adj[v] & below)))])) is None


def test_odd_expansion_violator_holds_up_to_k5(monkeypatch):
    # the paper's expansion at k = 4 and 5, each from one Hall matching on
    # copies: 5 X-copies of each of C(8,3) = 56 and 6 of each of C(10,4) = 210
    calls = []
    real = certify_module.find_x_matching

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(certify_module, "find_x_matching", counted)
    for k in (4, 5):
        assert odd_expansion_violator(build_kneser(2 * k + 1, k)) is None
    assert len(calls) == 2


class NoRows:
    """Adjacency rows of the given length that must never be read."""

    def __init__(self, order):
        self.order = order

    def __len__(self):
        return self.order

    def __getitem__(self, v):
        raise AssertionError("a row was read")

    def __iter__(self):
        raise AssertionError("the rows were walked")


def test_odd_expansion_violator_refuses_k7_before_reading_rows():
    # K(15,7) has 8 * C(14,6) = 24,024 X-copies, past X_SIDE_CAP
    g = build_kneser(15, 7)
    h = dataclasses.replace(g, adj=NoRows(g.order))
    with pytest.raises(CapacityError, match="10000"):
        odd_expansion_violator(h)


def failing_l_exists(h):
    """Reference: does any of the 2^c - 1 nonempty L in the center fail?"""
    k = h.k
    center = h.center_mask(2 * k + 1)
    below = h.full_mask & ~center
    unions, sizes = [0], [0]  # N(L) n D and |L| of every subset L
    for v in bits(center):
        unions += [u | h.adj[v] & below for u in unions]
        sizes += [z + 1 for z in sizes]
    return any(k * u.bit_count() < (k + 1) * z for u, z in zip(unions[1:], sizes[1:]))


def test_odd_expansion_violator_matches_every_l_on_random_deletions():
    rng = random.Random(28)
    verdicts = []
    for k, graphs in ((2, 240), (3, 120)):
        g = build_kneser(2 * k + 1, k)
        center = g.center_mask(2 * k + 1)
        below = g.full_mask & ~center
        cross = [(v, u) for v in bits(center) for u in bits(g.adj[v] & below)]
        for _ in range(graphs):
            p = rng.uniform(0.0, 0.4)
            h = without_edges(g, [e for e in cross if rng.random() < p])
            violator = odd_expansion_violator(h)
            assert (violator is not None) == failing_l_exists(h)
            if violator is not None:
                assert violator and violator <= set(bits(center))
                assert expansion_fails(h, violator)
            verdicts.append(violator is None)
    # both verdicts are drawn often
    assert len(verdicts) == 360 and 100 <= verdicts.count(False) <= 260


ODD_GRAPH_CALLS = {
    "odd_neighborhood": lambda g: odd_neighborhood(g, 1),
    "odd_expansion_check": lambda g: odd_expansion_check(g, 1),
    "odd_hall_matching": lambda g: odd_hall_matching(g, 1),
    "odd_expansion_violator": odd_expansion_violator,
}


@pytest.mark.parametrize("name", ODD_GRAPH_CALLS)
def test_odd_graph_functions_take_the_graph_alone(name):
    # the graph is the one required first argument; there is no k to agree with it
    fn = getattr(certify_module, name)
    assert next(iter(inspect.signature(fn).parameters)) == "g"
    assert "k" not in inspect.signature(fn).parameters
    petersen = build_kneser(5, 2)
    not_odd = [
        GenericGraph(order=petersen.order, adj=petersen.adj),  # its rows, not its type
        build_kneser(6, 2),
        build_kneser(3, 1),
        None,
        2,
    ]
    for g in not_odd:
        with pytest.raises(DomainError, match="odd graph"):
            ODD_GRAPH_CALLS[name](g)


def test_odd_neighborhood_is_the_union_of_rows_below():
    # N(L) n D: the union of L's rows, less the center of 2k+1
    for k in (2, 3):
        g = build_kneser(2 * k + 1, k)
        center = list(bits(g.center_mask(2 * k + 1)))
        bottom = g.full_mask & ~g.center_mask(2 * k + 1)
        for sub in (center[:1], center[:3], center[1::2], center):
            nbrs = 0
            for v in sub:
                nbrs |= g.adj[v]
            lmask, nbhd = odd_neighborhood(g, mask(sub))
            assert lmask == mask(sub) and nbhd == nbrs & bottom, (k, sub)


def test_odd_expansion_contract_errors():
    g = build_kneser(5, 2)
    outside = next(iter(bits(g.full_mask & ~g.center_mask(5))))
    for check in (odd_expansion_check, odd_hall_matching, odd_neighborhood):
        with pytest.raises(DomainError, match="inside the center"):
            check(g, 1 << outside)
        with pytest.raises(DomainError, match="nonempty"):
            check(g, 0)


def test_odd_neighborhood_rejects_bools():
    # True is no name for the set {0}, nor False for the empty set
    g = build_kneser(5, 2)
    for flag in (True, False):
        with pytest.raises(DomainError, match="bool"):
            odd_neighborhood(g, flag)


def test_odd_hall_matching_saturates_o2():
    # every L in the center of 5 is matched along edges into the vertices
    # avoiding 5, one partner each
    g = build_kneser(5, 2)
    center = list(bits(g.center_mask(5)))
    for size in range(1, len(center) + 1):
        for sub in combinations(center, size):
            res = odd_hall_matching(g, mask(sub))
            assert res.saturated
            assert sorted(x for x, _ in res.matching) == sorted(sub)
            ys = [y for _, y in res.matching]
            assert len(set(ys)) == len(ys)
            for x, y in res.matching:
                assert g.has_edge(x, y) and not g.center_mask(5) >> y & 1


def test_arrangement_normalization():
    c = CyclicArrangement(order=(1, 2, 5, 3, 4))
    assert c.order == (1, 2, 5, 3, 4)
    # a list order is held as a tuple, so the frozen object hashes
    listed = CyclicArrangement(order=[1, 2, 5, 3, 4])
    assert listed.order == c.order and hash(listed) == hash(c)
    # an order that is not a sequence at all is a domain error too
    for order in ((2, 1, 3), (3, 4, 1, 2, 5), (1, 2, 2), (1, 2, 4), 5, None, 1.5):
        with pytest.raises(DomainError):
            CyclicArrangement(order=order)
    assert len(list(all_arrangements(5))) == 24
    with pytest.raises(CapacityError):
        list(all_arrangements(10))


def test_arrangement_rejects_the_empty_order():
    # the empty order once raised IndexError from its first element
    with pytest.raises(DomainError):
        CyclicArrangement(order=())


def test_window_masks_roll_like_the_definition():
    for n in range(1, 7):
        full = (1 << n) - 1
        for c in all_arrangements(n):
            doubled = c.order + c.order
            for k in range(1, n + 1):
                direct = [mask(e - 1 for e in doubled[s:s + k]) for s in range(n)]
                assert c.window_masks(k) == direct, (c.order, k)
            assert c.window_masks(n) == [full] * n


def test_window_tally_counts_every_window():
    for n in range(1, 7):
        arrangements = len(list(all_arrangements(n)))
        for k in range(1, n + 1):
            tally = certify_module._window_tally(n, k)
            assert sum(tally.values()) == n * arrangements
            with pytest.raises(TypeError):
                tally[0] = 1
        # at k = n each of the n windows is the full set
        assert dict(certify_module._window_tally(n, n)) == {(1 << n) - 1: n * arrangements}


def test_substring_counting():
    c = CyclicArrangement(order=(1, 2, 3, 4, 5))
    assert substrings_in_arrangement(c, [(1, 2), (3, 4)], 2) == 2
    c2 = CyclicArrangement(order=(1, 3, 2, 4, 5))
    assert substrings_in_arrangement(c2, [(1, 2)], 2) == 0


@pytest.mark.parametrize("n,k", [(5, 2), (6, 2), (6, 3)])
def test_full_family_has_one_substring_per_window(n, k):
    family = list(combinations(range(1, n + 1), k))
    for c in list(all_arrangements(n))[:10]:
        assert substrings_in_arrangement(c, family, k) == n


def test_max_substrings_values():
    top, witness = max_substrings(5, 2, PROP_SET)
    assert top == 3
    assert substrings_in_arrangement(witness, PROP_SET, 2) == 3
    family = list(combinations(range(1, 5), 2))
    assert max_substrings(4, 2, family)[0] == 4
    with pytest.raises(CapacityError):
        max_substrings(10, 2, [(1, 2)])


def test_max_substrings_of_solved_dissociation_sets():
    for n in (5, 6, 7):
        g = build_kneser(n, 2)
        res = solve(g, 1)
        assert res.optimal
        family = g.vertex_set_elements(res.witness)
        assert max_substrings(n, 2, family)[0] <= 3


def test_double_count_single_pair_matches_hand_count():
    # independent count of arrangements of [5] where {1,2} is consecutive
    total = 0
    for rest in permutations((2, 3, 4, 5)):
        order = (1,) + rest
        for s in range(5):
            if {order[s], order[(s + 1) % 5]} == {1, 2}:
                total += 1
    assert total == 12  # = 2! * 3!
    assert double_count_identity(5, 2, [(1, 2)])


def test_double_count_random_families():
    rng = random.Random(23)
    for _ in range(12):
        n = rng.choice((5, 6))
        k = rng.choice((2, 3))
        pool = list(combinations(range(1, n + 1), k))
        family = rng.sample(pool, rng.randint(0, min(6, len(pool))))
        assert double_count_identity(n, k, family)


def test_double_count_empty_family():
    assert double_count_identity(6, 2, [])


def test_family_validation():
    ring = CyclicArrangement(order=(1, 2, 3, 4))
    with pytest.raises(DomainError):
        substrings_in_arrangement(ring, [(1, 2, 3)], 2)
    # each element is checked like every other integer argument: 1.5 and
    # 0 are no elements, and (1, 1, 3) is no 2-set although its bits would
    # make one; a member is its elements, so True, a number or a KSubset
    # is no member
    for member, message in [((1.5, 2), "element 1.5 is not an int"),
                            ((0, 2), r"element 0 out of range \[1, 4\]"),
                            (True, "family member True is not a set of elements"),
                            (2.5, "family member 2.5 is not a set of elements"),
                            ((1, 1, 3), "names element 1 twice"),
                            (-1, "family member -1 is not a set of elements"),
                            (0b1100, "family member 12 is not a set of elements"),
                            (KSubset(0b1001, 4), r"family member \{1,4\} is not a set")]:
        with pytest.raises(DomainError, match=message):
            substrings_in_arrangement(ring, [member], 2)
    assert substrings_in_arrangement(ring, [(2, 1), [3, 4], range(1, 5, 3)], 2) == 3


@pytest.mark.parametrize("call, error", [
    (lambda: check_max_degree(build_kneser(5, 2), 1 << 10, 1), DomainError),
    (lambda: check_p3_cover(build_kneser(5, 2), 1 << 10), DomainError),
    (lambda: certify_module.MatchingResult(), DomainError),
    (lambda: certify_module.MatchingResult(matching=(), violator=frozenset()), DomainError),
    (lambda: find_x_matching(range(certify_module.X_SIDE_CAP + 1), [], []), CapacityError),
    (lambda: find_x_matching([1], [2], [(1, 3)]), DomainError),
    (lambda: find_x_matching([1], [2], [(3, 2)]), DomainError),
    (lambda: odd_neighborhood(build_kneser(3, 1), 1), DomainError),
    (lambda: CyclicArrangement((1, 2, 3)).window_masks(0), DomainError),
    (lambda: CyclicArrangement((1, 2, 3)).window_masks(4), DomainError),
    (lambda: list(all_arrangements(0)), DomainError),
    (lambda: check_max_degree(build_kneser(5, 2), True, 0), DomainError),
    (lambda: check_p3_cover(build_kneser(5, 2), False), DomainError),
])
def test_input_checks_raise(call, error):
    with pytest.raises(error):
        call()
