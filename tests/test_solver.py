import dataclasses
import operator
import os
import random
import subprocess
import sys
from functools import partial, reduce
from itertools import combinations, islice

import pytest

import kneserdiss.kneser as kneser_module
import kneserdiss.solver as solver_module
from kneserdiss import (
    CapacityError,
    Certificate,
    DomainError,
    GenericGraph,
    SearchBudget,
    brute_force,
    build_kneser,
    check_max_degree,
    edge_nonneighbors,
    graph_from_edges,
    heuristic_lower,
    induced_subgraph,
    psi3,
    solve,
    solve_kneser,
)
from kneserdiss.graphs import bits
from kneserdiss.kneser import certificate_mask
from support import expand_children, pascal_binom, random_graph, small_kneser_parameters


def test_solve_petersen_dissociation():
    g = build_kneser(5, 2)
    res = solve(g, 1)
    assert res.best_size == 6 and res.optimal
    assert res.witness.bit_count() == 6
    assert check_max_degree(g, res.witness, 1)


def test_solve_petersen_independence():
    res = solve(build_kneser(5, 2), 0)
    assert res.best_size == 4 and res.optimal


def test_solve_perfect_matching_graph_takes_everything():
    g = build_kneser(6, 3)
    res = solve(g, 1)
    assert res.best_size == 20
    assert res.witness == g.full_mask


def test_solve_odd_graph_k3():
    assert solve(build_kneser(7, 3), 1).best_size == 20


def test_solve_8_3():
    res = solve_kneser(8, 3)
    assert res.best_size == 21 and res.optimal


def test_solve_kneser_small_cases():
    assert solve_kneser(9, 2, 1).best_size == 8
    assert solve_kneser(7, 2, 1).best_size == 6
    assert solve_kneser(6, 2, 1).best_size == 6


def test_brute_force_values():
    assert brute_force(build_kneser(5, 2), 1) == 6
    assert brute_force(build_kneser(4, 2), 1) == 6
    path3 = graph_from_edges(3, [(0, 1), (1, 2)])
    assert brute_force(path3, 1) == 2
    assert brute_force(path3, 0) == 2
    assert brute_force(path3, 2) == 3


def test_brute_force_cap():
    cap = solver_module.BRUTE_FORCE_CAP
    with pytest.raises(CapacityError, match=f"capped at {cap} vertices"):
        brute_force(random_graph(cap + 1, 0.5, random.Random(1)), 1)
    assert brute_force(random_graph(cap, 0.5, random.Random(1)), 1) > 0


def test_oracle_equivalence_on_small_kneser_graphs():
    # solve_kneser starts with an edge chosen at d >= 1, solve from the root
    for n, k in small_kneser_parameters(20):
        g = build_kneser(n, k)
        for d in (0, 1, 2, 3, 4):
            exact = brute_force(g, d)
            assert solve(g, d).best_size == exact, (n, k, d)
            assert solve_kneser(n, k, d).best_size == exact, (n, k, d)


def test_oracle_equivalence_on_random_graphs_quick():
    rng = random.Random(42)
    for i in range(30):
        order = rng.randint(4, 14)
        p = (0.2, 0.5, 0.8)[i % 3]
        g = random_graph(order, p, rng)
        for d in (0, 1, 2, 3, 4):
            res = solve(g, d)
            assert res.best_size == brute_force(g, d), (i, order, p, d)
            assert check_max_degree(g, res.witness, d)
            assert res.witness.bit_count() == res.best_size


def test_monotonicity_in_d_and_sandwich():
    rng = random.Random(9)
    graphs = [build_kneser(5, 2), build_kneser(6, 2)] + [
        random_graph(12, p, rng) for p in (0.2, 0.5, 0.8)
    ]
    for g in graphs:
        sizes = [solve(g, d).best_size for d in (0, 1, 2)]
        assert sizes[0] <= sizes[1] <= sizes[2] <= g.order
        assert sizes[0] <= sizes[1] <= 2 * sizes[0]


def test_deletion_monotonicity():
    rng = random.Random(11)
    g = build_kneser(6, 2)
    whole = solve(g, 1).best_size
    for _ in range(5):
        s = rng.getrandbits(g.order) & g.full_mask
        sub = induced_subgraph(g, s)
        assert solve(sub, 1).best_size <= whole


def test_budget_exhaustion_returns_incumbent():
    g = build_kneser(8, 3)
    res = solve(g, 1, SearchBudget(max_nodes=50))
    assert not res.optimal
    assert res.best_size >= 1
    assert check_max_degree(g, res.witness, 1)
    cover, optimal = psi3(g, SearchBudget(max_nodes=50))
    assert not optimal
    # the search builds nothing above the seed, so the seed itself comes
    # back; the budget holds exactly on either side of a sync point
    seed = best_known_mask(build_kneser(10, 4))
    for max_nodes in (500, 2047, 2048, 2049, 4096):
        res = solve_kneser(10, 4, 1, SearchBudget(max_nodes=max_nodes))
        assert not res.optimal and res.nodes_explored == max_nodes + 1
        assert res.witness == seed and res.best_size == seed.bit_count() == 84


def test_budget_holds_exactly_on_the_general_d_engine():
    # the general-d engine counts nodes through the same loop: a budget on
    # either side of a deadline check stops plain solve (10,571 nodes to
    # finish) and solve_kneser's orbit roots one node past it
    g, h = build_kneser(9, 2), build_kneser(9, 3)
    for max_nodes in (2047, 2048, 2049, 4096):
        budget = SearchBudget(max_nodes=max_nodes)
        for graph, res in ((g, solve(g, 3, budget)), (h, solve_kneser(9, 3, 3, budget))):
            assert not res.optimal and res.nodes_explored == max_nodes + 1, max_nodes
            assert check_max_degree(graph, res.witness, 3)


def test_budget_rejects_limits_that_cannot_run():
    cap = solver_module.MAX_THREADS
    for kwargs in ({"max_nodes": 0}, {"max_nodes": -5}, {"max_time": 0},
                   {"max_time": -1.0}, {"max_time": float("nan")},
                   {"thread_count": 0}, {"thread_count": cap + 1},
                   {"thread_count": 100_000}):
        with pytest.raises(DomainError):
            SearchBudget(**kwargs)
    assert SearchBudget(max_nodes=1, max_time=0.5).max_nodes == 1
    assert SearchBudget(thread_count=cap).thread_count == cap >= 4


@pytest.mark.parametrize("call", [
    lambda g: solve(g, 1.5),
    lambda g: solve(g, True),
    lambda g: solve_kneser(5, 2, 1.5),
    lambda g: solve_kneser(5, 2, True),
    lambda g: psi3(g, SearchBudget(max_nodes=2.5)),
    lambda g: brute_force(g, 1.5),
    lambda g: brute_force(g, -1),
    lambda g: check_max_degree(g, 0, 1.5),
    lambda g: SearchBudget(max_nodes=True),
    lambda g: SearchBudget(max_nodes=2.5),
    lambda g: SearchBudget(max_nodes="10"),
    lambda g: SearchBudget(max_time=True),
    lambda g: SearchBudget(max_time="5"),
    lambda g: SearchBudget(thread_count=True),
    lambda g: SearchBudget(thread_count=1.5),
])
def test_non_integer_counts_rejected_before_any_build(monkeypatch, call):
    # a count that is a float, a bool or a string never reaches a search,
    # and solve_kneser refuses it before building the graph
    g = build_kneser(5, 2)

    def no_build(n, k):
        raise AssertionError("built a graph for a bad d")

    monkeypatch.setattr(kneser_module, "build_kneser", no_build)
    with pytest.raises(DomainError):
        call(g)


def test_budget_accepts_integer_counts_and_whole_seconds():
    budget = SearchBudget(max_nodes=10, max_time=5, thread_count=2)
    assert (budget.max_nodes, budget.max_time, budget.thread_count) == (10, 5, 2)
    assert solve(build_kneser(7, 3), 1, SearchBudget(max_nodes=1)).nodes_explored == 2


def test_time_budget_exhaustion():
    # K(9,4) is far out of reach; the deadline must cut the search short
    g = build_kneser(9, 4)
    res = solve(g, 1, SearchBudget(max_time=0.3))
    assert not res.optimal
    assert check_max_degree(g, res.witness, 1)


def test_single_thread_determinism():
    for (n, k), d in (((7, 3), 1), ((8, 2), 2)):
        a = solve(build_kneser(n, k), d)
        b = solve(build_kneser(n, k), d)
        assert (a.best_size, a.witness, a.nodes_explored) == (
            b.best_size, b.witness, b.nodes_explored
        ), (n, k, d)


def test_thread_count_changes_nothing():
    # every search runs in one process, so thread_count selects nothing:
    # size, witness and node count repeat for any value
    rng = random.Random(3)
    for d, kneser in ((1, ((7, 3), (8, 3))), (2, ((7, 2), (8, 2)))):
        instances = [build_kneser(n, k) for n, k in kneser] + [
            random_graph(16, 0.4, rng) for _ in range(2)
        ]
        for g in instances:
            runs = set()
            for tc in (1, 2, 4):
                res = solve(g, d, SearchBudget(thread_count=tc))
                assert res.optimal and res.best_size == res.witness.bit_count()
                assert check_max_degree(g, res.witness, d)
                runs.add((res.best_size, res.witness, res.nodes_explored))
            assert len(runs) == 1, (d, g.order)
    for n, k, d in ((8, 3, 1), (7, 3, 2)):
        runs = {(r.best_size, r.witness, r.nodes_explored)
                for r in (solve_kneser(n, k, d, SearchBudget(thread_count=tc)) for tc in (1, 2, 4))}
        assert len(runs) == 1, (n, k, d)


def best_known_mask(g):
    """The best known construction built from its elements: the k-sets
    holding 1, or all of [2k] choose k, whichever is larger (the first on a
    tie)."""
    n, k = g.n, g.k
    center = [(1,) + rest for rest in combinations(range(2, n + 1), k - 1)]
    block = list(combinations(range(1, 2 * k + 1), k))
    members = center if len(center) >= len(block) else block
    return certificate_mask(g, Certificate(d=1, members=tuple(members), n=n, k=k))


def test_heuristic_lower():
    sizes = {(5, 2): 6, (9, 3): 28, (7, 3): 20, (8, 3): 21}
    for (n, k), size in sizes.items():
        seed = heuristic_lower(build_kneser(n, k))
        assert seed.bit_count() == size, (n, k)
        assert check_max_degree(build_kneser(n, k), seed, 1), (n, k)


def test_heuristic_mask_is_heuristic_lower():
    # heuristic_lower reads the seed off the centers; both branches of the
    # rule (a center, or [2k] choose k) must give the set built from elements
    for k in range(2, 6):
        for n in range(2 * k, 2 * k + 6):
            g = build_kneser(n, k)
            assert heuristic_lower(g) == best_known_mask(g), (n, k)


# (size, optimal, nodes, witness, bound_source), one worker.  The sizes and
# witnesses were recorded from the solve_kneser whose vertex lookup went
# through a dict over all vertices; the d=2 rows' nodes and the budgeted
# K(9,4) witness from the general-d engine that branches on the most
# constrained vertex.  The d >= 3 rows are searches where free vertices
# below d are dropped next to two fronts or more
VERTEX_FREE_CASES = {
    (7, 3, 0): (15, True, 0, 0x7FFF, "independence_number"),
    (7, 3, 1): (20, True, 0, 0x965B96EF, "edge_local"),
    (7, 3, 2): (22, True, 277, 0x182F9BE7F, None),
    (7, 3, 3): (28, True, 858, 0x6FBBBBFBD, None),
    (8, 2, 4): (11, True, 1218, 0x1E0BF, None),
    (9, 2, 5): (13, True, 9284, 0xF817F, None),
    (9, 4, 0): (56, True, 0, 0xFFFFFFFFFFFFFF, "independence_number"),
    (9, 4, 1): (70, True, 0, 0x2258965B8965B96EF12CB72DDE5BBDF, "edge_local"),
    (9, 4, 2): (57, False, 2001, 0x61087EF6601F99607303F37C0207873, None),
    (10, 4, 0): (84, True, 0, (1 << 84) - 1, "independence_number"),
    (10, 4, 1): (84, False, 2001, (1 << 84) - 1, None),
    (10, 4, 2): (84, False, 2001, (1 << 84) - 1, None),
}


def test_solve_kneser_matches_recorded_cases():
    for (n, k, d), expect in VERTEX_FREE_CASES.items():
        # the open cases run out of a 2,000-node budget
        budget = None if expect[1] else SearchBudget(max_nodes=2000)
        res = solve_kneser(n, k, d, budget)
        got = (res.best_size, res.optimal, res.nodes_explored, res.witness, res.bound_source)
        assert got == expect, (n, k, d)


def test_witness_certificate_round_trip():
    g = build_kneser(5, 2)
    res = solve(g, 1)
    cert = Certificate(d=1, members=g.vertex_set_elements(res.witness), n=5, k=2)
    assert len(cert) == 6
    assert certificate_mask(g, cert) == res.witness
    # integer members are 1-based vertex indices, as on generic graphs
    indexed = Certificate(d=1, members=tuple(v + 1 for v in bits(res.witness)))
    assert certificate_mask(g, indexed) == res.witness
    with pytest.raises(DomainError):
        certificate_mask(g, Certificate(d=1, members=(g.order + 1,)))
    with pytest.raises(DomainError):
        certificate_mask(build_kneser(6, 2), cert)


def test_psi3_duality():
    g = build_kneser(5, 2)
    assert psi3(g) == (4, True)
    assert psi3(build_kneser(4, 2)) == (0, True)
    g = build_kneser(8, 3)
    assert psi3(g) == (56 - 21, True)


def test_solve_empty_and_singleton():
    assert solve(GenericGraph(order=0, adj=()), 1).best_size == 0
    assert solve(GenericGraph(order=1, adj=(0,)), 0).best_size == 1


MALFORMED_ROWS = {
    "asymmetric": (3, (0b110, 0, 0)),
    "reflexive": (2, (0b01, 0)),
    "bit past order": (2, (0b110, 0b001)),
}


@pytest.mark.parametrize("shape", MALFORMED_ROWS)
def test_malformed_rows_raise_domain_error(shape):
    order, adj = MALFORMED_ROWS[shape]
    g = GenericGraph(order=order, adj=adj)
    calls = [partial(solve, g, 0), partial(solve, g, 1), partial(psi3, g),
             partial(brute_force, g, 0), partial(brute_force, g, 1)]
    for call in calls:
        with pytest.raises(DomainError):
            call()


def test_only_plain_graphs_walk_their_rows(monkeypatch):
    walked = []
    monkeypatch.setattr(solver_module, "require_simple", walked.append)
    k52 = build_kneser(5, 2)
    plain = GenericGraph(order=k52.order, adj=k52.adj)
    assert solve(k52, 1).best_size == brute_force(k52, 1) == 6
    assert walked == []
    assert solve(plain, 1).best_size == brute_force(plain, 1) == 6
    assert walked == [plain, plain]


def test_kneser_wrapper_other_degrees():
    # d=0 gives the independence number, d>=2 sits between diss and |V|
    assert solve_kneser(5, 2, 0).best_size == 4
    assert solve_kneser(6, 2, 0).best_size == 5
    r2 = solve_kneser(5, 2, 2)
    assert r2.optimal
    assert r2.best_size == brute_force(build_kneser(5, 2), 2)
    # at d=0 the Erdos-Ko-Rado bound closes the search before it starts
    for n, k in ((9, 3), (10, 4)):
        r0 = solve_kneser(n, k, 0)
        assert r0.best_size == pascal_binom(n - 1, k - 1)
        assert r0.optimal and r0.nodes_explored == 0
        assert r0.bound_source == "independence_number"


def test_negative_d_rejected_before_any_build(monkeypatch):
    g = build_kneser(5, 2)

    def no_build(n, k):
        raise AssertionError("built a graph for a negative d")

    monkeypatch.setattr(kneser_module, "build_kneser", no_build)
    with pytest.raises(DomainError):
        solve_kneser(5, 2, -1)
    with pytest.raises(DomainError):
        solve(g, -1)


def test_bound_pinned_seed_is_checked(monkeypatch):
    # K(5,2) at d=1: the seed meets the bound interval, so no search runs
    assert solve_kneser(5, 2).nodes_explored == 0
    # the first six pairs give {1,5} two disjoint partners, {2,3} and {2,4}
    bad = Certificate(d=1, members=tuple(islice(combinations(range(1, 6), 2), 6)), n=5, k=2)
    monkeypatch.setattr(solver_module, "heuristic_lower", lambda g: certificate_mask(g, bad))
    with pytest.raises(AssertionError, match="invalid witness"):
        solve_kneser(5, 2)


def edge_types(g):
    """Each vertex's unordered pair {|v & x|, |v & y|}, by set intersection."""
    x, y = set(range(1, g.k + 1)), set(range(g.k + 1, 2 * g.k + 1))
    return [tuple(sorted((len(x & set(v.elements)), len(y & set(v.elements)))))
            for v in g.vertices]


def engine_view(state):
    """A state's search slots: the d=1 engine's edge count and counters are
    left out."""
    return state if len(state) == 2 else state[:3] + state[-1:]


def scripted_include(expand, state, v):
    """The d=1 engine's include child of ``state`` on free vertex v, which
    needs a free neighbour: counters with one layer, holding v alone, make
    v the branch vertex, and an edge count of 0 keeps the edge-cover bound
    above the incumbent.  Only the child's search slots are meaningful."""
    scripted = state[:3] + (state[0], 0, (1 << v,)) + state[6:]
    return expand_children(expand, scripted, -1)[0]


def test_edge_start_is_the_engine_path(monkeypatch):
    # at every d >= 1 the first root is the include child the engine takes
    # first from the edge start, where it gets by including x and then y;
    # each root includes the engine's branch vertex once the orbits of the
    # earlier roots' vertices are out of the free set
    recorded = {}
    real_solve = solver_module._solve

    def recording(g, d, budget, seed_witness, roots=None, *rest):
        recorded[d] = roots
        return real_solve(g, d, budget, seed_witness, roots, *rest)

    monkeypatch.setattr(solver_module, "_solve", recording)
    for n, k in ((5, 2), (7, 2), (7, 3), (8, 3), (9, 4)):
        for d in (1, 2, 3):
            solve_kneser(n, k, d, SearchBudget(max_nodes=1))
        g = build_kneser(n, k)
        y = g.vertex_index(range(k + 1, 2 * k + 1))
        edge = 1 | 1 << y
        build, expand = solver_module._engine(g.adj, 1)
        path = scripted_include(expand, scripted_include(expand, build(g.full_mask, 0), 0), y)
        free = edge_nonneighbors(g, range(1, k + 1), range(k + 1, 2 * k + 1))
        assert engine_view(path) == (free, 0, 0, edge), (n, k)
        types = edge_types(g)
        for d in (1, 2, 3):
            # the include rule leaves M at d=1 and V - {x, y} above
            include = partial(solver_module._degd_include, g.adj, d)
            left = include(*include(g.full_mask, 0, 0), y)
            assert left == (free if d == 1 else g.full_mask & ~edge, edge), (n, k, d)
            build, expand = solver_module._engine(g.adj, d)
            children = partial(expand_children, expand)
            start = build(*left)
            if d == 1:
                assert start[4] == free_edges(g.adj, free)
                assert_counts_on(g.adj, free, start[3], start[5])
            else:
                assert_free_vertices_can_join(g.adj, d, start)
            roots = recorded[d](build, expand, -1)
            assert engine_view(roots[0]) == engine_view(children(start, -1)[0]), (n, k, d)
            state, branched = start, set()
            for r in roots[:-1]:
                if d == 1:
                    v, _ = full_scan_branch_vertex(g.adj, state[0])
                else:
                    v = most_constrained_vertex(g.adj, *state)
                assert r[-1] == edge | 1 << v, (n, k, d)
                assert engine_view(r) == engine_view(children(state, -1)[0]), (n, k, d)
                assert types[v] not in branched, (n, k, d)
                branched.add(types[v])
                out = sum(1 << u for u in bits(state[0]) if types[u] == types[v])
                state = (state[0] & ~out,) + state[1:]
            # the last root is the state where the engine's endgame applies
            assert engine_view(roots[-1]) == engine_view(state), (n, k, d)
            assert children(state, -1) is None, (n, k, d)
            for incumbent in range(g.order + 1):
                pruned = recorded[d](build, expand, incumbent)
                if d == 1:
                    # an incumbent cuts the list short, never reorders it
                    assert pruned == roots[:len(pruned)], (n, k, d, incumbent)
                else:
                    # the incumbent also decides which vertices leave before
                    # the branch vertex is picked
                    assert_roots_follow_engine(children, start, types, incumbent, pruned)


def assert_roots_follow_engine(children, start, types, incumbent, roots):
    # each root is the engine's first child, under the incumbent, of the
    # state left once the earlier roots' orbits are out; the list stops
    # where the engine prunes, or with the endgame state
    state, branched = start, set()
    for i, r in enumerate(roots):
        kids = children(state, incumbent)
        if kids is None:
            assert i == len(roots) - 1 and r == state, incumbent
            return
        assert kids and r == kids[0], incumbent
        v = (r[-1] ^ state[-1]).bit_length() - 1
        assert types[v] not in branched, incumbent
        branched.add(types[v])
        out = sum(1 << u for u in bits(state[0]) if types[u] == types[v])
        state = (state[0] & ~out,) + state[1:]
    assert children(state, incumbent) == [], incumbent


def full_scan_branch_vertex(adj, free):
    """The d=1 branch rule read off every free vertex: maximum free-degree,
    lowest index on ties; (-1, -1) when nothing is free."""
    if not free:
        return -1, -1
    v = max(bits(free), key=lambda u: ((adj[u] & free).bit_count(), -u))
    return v, (adj[v] & free).bit_count()


def most_constrained_vertex(adj, free, chosen):
    """The general-d branch rule read off every free vertex: most chosen
    neighbours, then most free neighbours, then the lowest index."""
    return max(bits(free), key=lambda u: ((adj[u] & chosen).bit_count(),
                                          (adj[u] & free).bit_count(), -u))


def assert_counts_on(adj, free, counted, layers):
    # the bit-sliced counters give each free vertex its degree into counted
    for v in bits(free):
        count = sum(1 << i for i, layer in enumerate(layers) if layer >> v & 1)
        assert count == (adj[v] & counted).bit_count(), v


def free_edges(adj, free):
    # the edges inside free, recounted from the rows
    return sum((adj[v] & free).bit_count() for v in bits(free)) // 2


def cover_bound_prunes(adj, state, incumbent):
    """Whether the d=1 edge-cover bound, from popcounts on the rows, prunes
    a node: with f free vertices, E = sum over free v of |adj[v] & free|
    and maximum free-degree D >= 2, a completion adds at most
    f + floor((f - E) / (2D - 1)) of them."""
    free, chosen = state[0], state[-1]
    degrees = [(adj[v] & free).bit_count() for v in bits(free)]
    dmax, f = max(degrees, default=0), len(degrees)
    return dmax >= 2 and chosen.bit_count() + f + (f - sum(degrees)) // (2 * dmax - 1) <= incumbent


def star(leaves):
    return graph_from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def clique(order):
    return graph_from_edges(order, list(combinations(range(order), 2)))


def check_each_expand(monkeypatch, check):
    """Make every engine the solver builds call check(adj, state, incumbent,
    children) on each node it expands, with the node's children in the
    list shape of ``expand_children``."""
    real_engine = solver_module._engine

    def engine(adj, d):
        start, expand = real_engine(adj, d)

        def checked(state, incumbent, push):
            check(adj, state, incumbent, expand_children(expand, state, incumbent))
            return expand(state, incumbent, push)

        return start, checked

    monkeypatch.setattr(solver_module, "_engine", engine)


def test_free_degree_counters_are_exact(monkeypatch):
    # at every node the d=1 engine expands, the counters and the edge count
    # it is handed count each free vertex's degree into the counted set and
    # the edges inside it; past the counting bound both children get them
    # caught up, as the popcounts on the node's free set, the edge-cover
    # bound read from them prunes exactly where the one recounted from the
    # rows does, and the branch vertex, the one the include child adds, is
    # the full scan's; at the endgame no free vertex has a free neighbour
    calls, cover_prunes = [], [0]

    def check(adj, state, incumbent, kids):
        free, unsat, seen, counted, edges, layers, chosen = state
        cap = max(a.bit_count() for a in adj).bit_length()
        assert free & ~counted == 0
        assert len(layers) <= cap
        assert edges == free_edges(adj, counted)
        assert_counts_on(adj, free, counted, layers)
        sc, u = (seen & free).bit_count(), unsat.bit_count()
        if chosen.bit_count() + free.bit_count() - sc + min(u, sc) <= incumbent:
            assert kids == []
            return  # pruned before the catch-up
        expect, degree = full_scan_branch_vertex(adj, free)
        if kids is None:
            assert degree <= 0
            return
        assert (kids == []) == cover_bound_prunes(adj, state, incumbent)
        if not kids:
            cover_prunes[0] += 1
        else:
            assert degree > 0 and kids[0][6] ^ chosen == 1 << expect
            for child in kids:
                assert child[3] == free and len(child[5]) <= cap
                assert child[4] == free_edges(adj, free)
                assert_counts_on(adj, free, free, child[5])
        gone = (counted & ~free).bit_count()
        calls.append("most left" if gone > free.bit_count() else "some left" if gone else "none")

    check_each_expand(monkeypatch, check)
    # the star's root needs 9 layers for the centre's 300 leaves; the
    # cliques' maximum degrees are 2^L - 1 and 2^L, and at 2^L the first
    # catch-up borrows through every layer; the edgeless graph and a single
    # vertex have no layer at all
    assert len(solver_module._engine(star(300).adj, 1)[0](star(300).full_mask, 0)[5]) == 9
    small = [star(300), clique(8), clique(9), clique(16), clique(17),
             graph_from_edges(5, []), graph_from_edges(1, [])]
    for g in small:
        # every node, none pruned
        start, expand = solver_module._engine(g.adj, 1)
        stack = [start(g.full_mask, 0)]
        while stack:
            expand(stack.pop(), -1, stack.append)
    ways = set(calls)
    rng = random.Random(23)
    graphs = [build_kneser(7, 3)] + [
        random_graph(rng.randint(12, 32), (0.1, 0.2, 0.3, 0.5)[i % 4], rng) for i in range(12)
    ]
    for g in graphs:
        calls.clear()
        res = solve(g, 1)
        assert res.optimal and len(calls) > 0, g.order
        ways.update(calls)
    # catch-ups ran, and stayed exact, both where more vertices left than
    # remain and where fewer did; the edge-cover bound pruned
    assert {"most left", "some left"} <= ways
    assert cover_prunes[0] > 0
    # solve_kneser's orbit roots start from counters on the edge start
    for n, k in ((8, 3), (9, 3), (10, 4)):
        calls.clear()
        solve_kneser(n, k, 1, SearchBudget(max_nodes=3000))
        assert calls, (n, k)


def test_edge_start_counts_free_degrees_once_on_m(monkeypatch):
    # a d=1 solve_kneser search counts free-degrees in full once, on
    # the edge start's free set M, and never on the whole vertex set
    real = solver_module._free_degree_layers
    counted = []

    def recording(adj, free):
        counted.append(free)
        return real(adj, free)

    monkeypatch.setattr(solver_module, "_free_degree_layers", recording)
    for n, k in ((8, 3), (9, 3), (10, 4), (12, 5)):
        counted.clear()
        res = solve_kneser(n, k, 1, SearchBudget(max_nodes=50))
        assert res.nodes_explored > 0, (n, k)
        g = build_kneser(n, k)
        m = edge_nonneighbors(g, range(1, k + 1), range(k + 1, 2 * k + 1))
        assert counted == [m], (n, k)


def test_orbit_roots_subtract_each_orbit_once(monkeypatch):
    # while the orbit roots are built, the vertices whose rows the counters
    # subtract (counted & ~free) at each node past the bound are new: no
    # orbit twice
    gone = []

    def check(adj, state, incumbent, kids):
        if kids != []:
            gone.append(state[3] & ~state[0])

    check_each_expand(monkeypatch, check)
    for n, k in ((8, 3), (9, 3), (10, 4), (12, 5)):
        g = build_kneser(n, k)
        start, expand = solver_module._engine(g.adj, 1)
        for incumbent in (-1, 10, 20):
            gone.clear()
            roots = solver_module._edge_orbit_roots(g, 1, start, expand, incumbent)
            assert len(gone) >= min(len(roots), 3), (n, k, incumbent)
            seen = 0
            for out in gone:
                assert out & seen == 0, (n, k, incumbent)
                seen |= out


def test_d1_states_keep_one_unsaturated_chosen_neighbour(monkeypatch):
    # every free vertex of every d=1 state has at most one chosen
    # neighbour, that neighbour is unsaturated, and seen & free is exactly
    # the free vertices with one
    states = [0]

    def check(adj, state, incumbent, kids):
        free, unsat, seen, _, _, _, chosen = state
        touched = 0
        for u in bits(free):
            c = adj[u] & chosen
            assert c.bit_count() <= 1 and c & ~unsat == 0, u
            if c:
                touched |= 1 << u
        assert seen & free == touched
        states[0] += 1

    check_each_expand(monkeypatch, check)
    rng = random.Random(5)
    for i in range(8):
        g = random_graph(rng.randint(10, 24), (0.15, 0.3)[i % 2], rng)
        assert solve(g, 1).optimal
    solve(build_kneser(7, 3), 1)
    for n, k in ((8, 3), (10, 4)):
        solve_kneser(n, k, 1, SearchBudget(max_nodes=2000))
    assert states[0] > 5_000


# plain solve at d=1, one worker: (size, nodes, witness).  Sizes and
# witnesses were recorded before the branch scan stopped at the cap; node
# counts since the edge-cover bound
D1_TRAVERSALS = {
    "K(7,3)": (20, 2159, 0x965B96EF),
    "K(8,3)": (21, 28145, 0x1FFFFF),
    "K(9,3)": (28, 33411, 0xFFFFFFF),
    "G(40,0.2) seed 13": (16, 6325, 0x7086C215C6),
    "G(60,0.1) seed 2": (30, 119511, 0x871260B3C9D39AF),
}

# solve_kneser at d=1, one worker: (size, nodes, witness, optimal).  Sizes,
# witnesses and flags were recorded before the branch vertex came from
# bit-sliced counters; node counts since the edge-cover bound
D1_KNESER_TRAVERSALS = {
    (8, 3, None): (21, 89, 0x1FFFFF, True),
    (9, 3, None): (28, 17, 0xFFFFFFF, True),
    (10, 4, 20_000): (84, 20_001, 0xFFFFFFFFFFFFFFFFFFFFF, False),
}


def test_d1_traversals_match_recorded():
    graphs = {
        "K(7,3)": build_kneser(7, 3),
        "K(8,3)": build_kneser(8, 3),
        "K(9,3)": build_kneser(9, 3),
        "G(40,0.2) seed 13": random_graph(40, 0.2, random.Random(13)),
        "G(60,0.1) seed 2": random_graph(60, 0.1, random.Random(2)),
    }
    for name, expect in D1_TRAVERSALS.items():
        res = solve(graphs[name], 1)
        assert res.optimal
        assert (res.best_size, res.nodes_explored, res.witness) == expect, name
    for (n, k, max_nodes), expect in D1_KNESER_TRAVERSALS.items():
        res = solve_kneser(n, k, 1, SearchBudget(max_nodes=max_nodes))
        assert (res.best_size, res.nodes_explored, res.witness, res.optimal) == expect, (n, k)


def test_cli_import_loads_no_multiprocessing():
    # every search runs in one process, whatever thread_count says
    src = os.path.dirname(os.path.dirname(solver_module.__file__))
    code = (
        "import sys, kneserdiss.cli; kneserdiss.solve(kneserdiss.build_kneser(7, 3), 1); "
        "kneserdiss.solve(kneserdiss.build_kneser(7, 3), 1, kneserdiss.SearchBudget(thread_count=2)); "
        "assert 'multiprocessing' not in sys.modules, 'multiprocessing imported'"
    )
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_edge_orbit_masks_are_orbits():
    # the bit-sliced layers count x's and y's elements in each vertex; the
    # orbit masks partition the start's free set and each is closed under
    # the transpositions inside x, y and the rest and under the x <-> y swap
    for n, k in ((7, 3), (9, 4), (12, 5), (5, 1)):
        g = build_kneser(n, k)
        xs, ys = solver_module._edge_type_layers(g)
        x, y = set(range(1, k + 1)), set(range(k + 1, 2 * k + 1))
        for a in range(k + 1):
            assert xs[a] == sum(1 << i for i, v in enumerate(g.vertices)
                                if len(x & set(v.elements)) == a), (n, k, a)
            assert ys[a] == sum(1 << i for i, v in enumerate(g.vertices)
                                if len(y & set(v.elements)) == a), (n, k, a)
        yi = g.vertex_index(sorted(y))
        orbit_masks = [xs[a] & ys[b] | xs[b] & ys[a]
                       for a in range(k + 1) for b in range(a, k + 1 - a)]
        starts = (g.full_mask & ~(1 | 1 << yi), edge_nonneighbors(g, x, y))
        for free in (g.full_mask,) + starts:
            parts = [m & free for m in orbit_masks]
            assert sum(p.bit_count() for p in parts) == free.bit_count(), (n, k)
            assert reduce(operator.or_, parts) == free, (n, k)
        orbit_of = {v: idx for idx, m in enumerate(orbit_masks) for v in bits(m)}
        rest = range(2 * k + 1, n + 1)
        swaps = [(i, j) for part in (sorted(x), sorted(y), rest)
                 for i, j in combinations(part, 2)]
        perms = [{i: j, j: i} for i, j in swaps]
        perms.append({i: i + k for i in x} | {i + k: i for i in x})
        for perm in perms:
            for v, elements in enumerate(g.vertex_set_elements(g.full_mask)):
                image = g.vertex_index(sorted(perm.get(e, e) for e in elements))
                assert orbit_of[image] == orbit_of[v], (n, k, perm, elements)


def test_start_states_wait_for_a_search(monkeypatch):
    # when the seed already meets the bound interval no start state, no
    # include step towards the edge start and no orbit mask is built
    def refuse(*args):
        raise AssertionError("built a start state for a search that never ran")

    for name in ("_engine", "_degd_include", "_edge_type_layers"):
        monkeypatch.setattr(solver_module, name, refuse)
    for n, k in ((9, 2), (7, 3), (9, 4)):
        res = solve_kneser(n, k, 1)
        assert res.optimal and res.nodes_explored == 0, (n, k)
        assert res.bound_source is not None


def test_edge_orbit_roots_need_no_vertex_table(monkeypatch):
    # the branch vertices' types come from the bit-sliced layers, so a
    # graph with an empty vertex table searches the same tree
    cases = ((8, 3, 1), (7, 3, 2), (9, 4, 1))

    def run():
        return [solve_kneser(n, k, d, SearchBudget(max_nodes=500)) for n, k, d in cases]

    want = run()
    real = kneser_module.build_kneser
    monkeypatch.setattr(kneser_module, "build_kneser",
                        lambda n, k: dataclasses.replace(real(n, k), vertices=()))
    for case, a, b in zip(cases, want, run()):
        assert (b.best_size, b.nodes_explored, b.witness, b.optimal) == (
            a.best_size, a.nodes_explored, a.witness, a.optimal), case


# plain solve at d = 2, 3, one worker: the optimum, recorded from the
# search that starts at the root with a greedy seed
PLAIN_DD_SIZES = {
    (7, 2, 2): 7, (7, 2, 3): 10,
    (8, 2, 2): 7, (8, 2, 3): 10,
    (9, 2, 2): 8, (9, 2, 3): 10,
    (10, 2, 2): 9, (10, 2, 3): 10,
    (7, 3, 2): 22, (7, 3, 3): 28,
    (8, 3, 2): 22,
}


def test_edge_start_matches_plain_solve():
    # plain solve searches from the root with a greedy seed: an independent
    # check on the edge start and on the alpha-sized seed it relies on.  Its
    # values are pinned (D1_TRAVERSALS at d=1); one small instance is solved
    # live, so the pinned values keep meaning plain solve's
    for d in (2, 3):
        assert solve(build_kneser(8, 2), d).best_size == PLAIN_DD_SIZES[8, 2, d]
    for n, k in ((7, 3), (8, 3), (9, 3)):
        g = build_kneser(n, k)
        exact = D1_TRAVERSALS[f"K({n},{k})"][0]
        res = solve_kneser(n, k, 1)
        assert res.optimal and res.best_size == exact, (n, k)
        assert check_max_degree(g, res.witness, 1)
    for (n, k, d), exact in PLAIN_DD_SIZES.items():
        g = build_kneser(n, k)
        res = solve_kneser(n, k, d)
        assert res.optimal and res.best_size == exact, (n, k, d)
        assert check_max_degree(g, res.witness, d)
    for n in (2, 3, 5):
        res = solve_kneser(n, 1, 1)
        assert res.optimal and res.best_size == 2 == brute_force(build_kneser(n, 1), 1)
        for d in (2, 3):
            res = solve_kneser(n, 1, d)
            assert res.optimal and res.best_size == brute_force(build_kneser(n, 1), d), (n, d)
    # the edge-local bound closes the odd graphs with no search
    for n, k in ((7, 3), (9, 4)):
        res = solve_kneser(n, k, 1)
        assert res.optimal and res.best_size == pascal_binom(2 * k, k)
        assert res.nodes_explored == 0 and res.bound_source == "edge_local"


def test_general_d_seed_rule(monkeypatch):
    # at d >= the degree the greedy seed is the whole graph, which beats the
    # center and prunes the edge start, so no root is searched
    for n, k, d in ((6, 3, 2), (5, 2, 3), (7, 3, 4)):
        res = solve_kneser(n, k, d)
        assert res.witness == build_kneser(n, k).full_mask, (n, k, d)
        assert res.optimal and res.nodes_explored == 0, (n, k, d)
    res = solve_kneser(7, 3, 2)
    assert res.best_size == 22 and res.optimal and res.nodes_explored == 277
    # on K(9,2) at d=2 no set holding the edge has more than 7 vertices, so
    # the answer alpha = 8 must come from the seed: the center keeps it
    # there when the greedy set falls short
    monkeypatch.setattr(solver_module, "_greedy_seed", lambda adj, d: 0)
    res = solve_kneser(9, 2, 2)
    assert res.optimal and res.witness == build_kneser(9, 2).center_mask(1)


def assert_free_vertices_can_join(adj, d, state):
    # each free vertex has at most d chosen neighbours and none of those
    # already has d
    free, chosen = state
    assert free & chosen == 0
    for v in bits(free):
        nb = adj[v] & chosen
        assert nb.bit_count() <= d, d
        assert all((adj[u] & chosen).bit_count() < d for u in bits(nb))


def test_general_d_free_vertices_can_always_join():
    # the include step needs no feasibility check: the invariant holds on
    # every node of an unpruned search
    rng = random.Random(17)
    graphs = [build_kneser(5, 2), build_kneser(6, 2)] + [
        random_graph(rng.randint(3, 10), (0.2, 0.5, 0.8)[i % 3], rng) for i in range(30)
    ]
    for g in graphs:
        adj = g.adj
        for d in (0, 2, 3):
            for state, kids in unpruned_states(adj, d):
                assert_free_vertices_can_join(adj, d, state)
                if kids is None:
                    # the endgame's witness is the chosen set, a whole completion
                    witness = solver_module._degd_expand(adj, d, state, -1, [].append)
                    assert witness == state[1] and check_max_degree(g, witness, d)


# plain solve at d = 2, 3 and, where free vertices below d are dropped
# next to two fronts or more, 5; one worker: (size, nodes, witness),
# recorded from the general-d engine that drops the free vertices whose
# include child cannot beat the incumbent, bounds with the weights of the
# vertices left and branches on the most constrained of them
DD_TRAVERSALS = {
    ("K(7,2)", 2): (7, 577, 0x184F),
    ("K(7,2)", 3): (10, 455, 0x99CF),
    ("K(7,2)", 5): (12, 1877, 0x53B8F),
    ("K(8,2)", 2): (7, 1955, 0x7F),
    ("K(8,2)", 3): (10, 2475, 0x4638F),
    ("K(9,2)", 2): (8, 3255, 0xFF),
    ("K(9,2)", 3): (10, 10571, 0x21870F),
    ("G(30,0.3) seed 5", 2): (14, 1883, 0xA2FC2D4),
    ("G(30,0.3) seed 5", 3): (16, 6149, 0x12B96AF1),
}


def test_dd_traversals_match_recorded():
    graphs = {f"K({n},2)": build_kneser(n, 2) for n in (7, 8, 9)}
    graphs["G(30,0.3) seed 5"] = random_graph(30, 0.3, random.Random(5))
    for (name, d), expect in DD_TRAVERSALS.items():
        res = solve(graphs[name], d)
        assert res.optimal
        assert (res.best_size, res.nodes_explored, res.witness) == expect, (name, d)


def largest_completion(adj, d, state):
    """The largest completion of a general-d state, by trying every subset
    of its free vertices: its size, or -1 when no completion exists."""
    free, chosen = state
    best, sub = -1, free
    while True:
        s = chosen | sub
        if s.bit_count() > best and all((adj[v] & s).bit_count() <= d for v in bits(s)):
            best = s.bit_count()
        if not sub:
            return best
        sub = (sub - 1) & free


def old_bound(adj, d, state):
    """The general-d bound with the weights 2r - d that preceded
    max(r, 2r - d): |chosen| plus the most free vertices whose smallest
    weights fit in the slack."""
    free, chosen = state
    live = free | chosen
    r = {u: (adj[u] & live).bit_count() for u in bits(live)}
    slack = sum(r[u] for u in bits(free)) + sum(d - r[u] for u in bits(chosen))
    t = 0
    for w in sorted(2 * r[u] - d for u in bits(free)):
        if w > slack:
            break
        slack -= w
        t += 1
    return chosen.bit_count() + t


def degd_children(adj, d, state, incumbent):
    """The general-d engine's children of a state, in the list shape of
    ``expand_children``."""
    return expand_children(partial(solver_module._degd_expand, adj, d), state, incumbent)


def unpruned_states(adj, d):
    """Every state of the general-d engine's search that prunes nothing,
    with its children (None at the endgame).  It runs the general-d engine
    at every d, d=1 included, where solve takes the d=1 engine."""
    stack = [((1 << len(adj)) - 1, 0)]
    while stack:
        state = stack.pop()
        kids = degd_children(adj, d, state, -1)
        yield state, kids
        stack.extend(kids or ())


def test_general_d_bound_is_sound_and_branches_most_constrained():
    # the bound never prunes a node below the size of its largest
    # completion, and each node branches on the most constrained vertex
    rng = random.Random(29)
    graphs = [build_kneser(5, 2), build_kneser(6, 2)] + [
        random_graph(rng.randint(6, 12), (0.2, 0.4, 0.6, 0.8)[i % 4], rng) for i in range(12)
    ]
    for g in graphs:
        adj = g.adj
        for d in (0, 1, 2, 3):
            for state, kids in unpruned_states(adj, d):
                best = largest_completion(adj, d, state)
                assert best >= state[1].bit_count(), (g.order, d)
                assert degd_children(adj, d, state, best - 1) != [], (g.order, d)
                if kids is not None:
                    v = most_constrained_vertex(adj, *state)
                    assert kids[0][1] == state[1] | 1 << v, (g.order, d)


def test_general_d_bound_is_never_weaker():
    # both bounds prune every incumbent from their value up, so the new one
    # is never weaker iff it prunes at the old one's value; somewhere it
    # prunes one below
    rng = random.Random(31)
    graphs = [build_kneser(6, 2)] + [
        random_graph(rng.randint(10, 13), (0.2, 0.4, 0.6)[i % 3], rng) for i in range(9)
    ]
    tighter = 0
    for g in graphs:
        adj = g.adj
        for d in (0, 1, 2, 3):
            for state, _ in unpruned_states(adj, d):
                bound = old_bound(adj, d, state)
                assert degd_children(adj, d, state, bound) == [], (g.order, d)
                tighter += degd_children(adj, d, state, bound - 1) == []
    assert tighter > 0


def dropped_vertices(state, kids):
    """The free vertices a general-d node left out of both children: every
    free vertex is in the exclude child's free set or is its branch vertex,
    unless it was dropped."""
    branch = kids[0][1] ^ state[1]
    return state[0] & ~(kids[1][0] | branch)


def test_general_d_drops_only_vertices_that_cannot_beat_the_incumbent():
    # under a range of incumbents, every free vertex a node drops before it
    # branches has an include child that keeps fewer than need - 1 free
    # vertices, so no completion holding it beats the incumbent; a node
    # that prunes has no completion that does
    rng = random.Random(37)
    graphs = [build_kneser(5, 2), build_kneser(6, 2)] + [
        random_graph(rng.randint(6, 12), (0.2, 0.4, 0.6, 0.8)[i % 4], rng) for i in range(12)
    ]
    drops = set()
    for g in graphs:
        adj = g.adj
        for d in (0, 2, 3, 4):
            for state, _ in unpruned_states(adj, d):
                free, chosen = state
                best = largest_completion(adj, d, state)
                for incumbent in range(chosen.bit_count(), best + 2):
                    kids = degd_children(adj, d, state, incumbent)
                    if kids is None:
                        continue
                    if kids == []:
                        assert best <= incumbent, (g.order, d)
                        continue
                    need = incumbent - chosen.bit_count() + 1
                    for u in bits(dropped_vertices(state, kids)):
                        child = solver_module._degd_include(adj, d, free, chosen, u)
                        assert child[0].bit_count() < need - 1, (g.order, d, incumbent)
                        assert largest_completion(adj, d, child) <= incumbent, (g.order, d)
                        drops.add(d)
    assert drops == {0, 2, 3, 4}


def rule_drops(adj, d, state, room):
    """The free vertices the per-vertex drop rule of the solver's module
    docstring removes, read off each vertex: u goes when {u}, plus its free
    neighbours if it has d chosen neighbours, plus the free neighbours of
    each front next to it (a chosen vertex with d - 1 chosen neighbours),
    holds more than room vertices."""
    free, chosen = state
    out = 0
    for u in bits(free):
        gone = 1 << u
        if (adj[u] & chosen).bit_count() == d:
            gone |= adj[u] & free
        for s in bits(adj[u] & chosen):
            if (adj[s] & chosen).bit_count() == d - 1:
                gone |= adj[s] & free
        if gone.bit_count() > room:
            out |= 1 << u
    return out


def test_general_d_drops_exactly_the_per_vertex_rule():
    # under every incumbent from |chosen| to |chosen| + |free|, a node that
    # branches drops exactly the free vertices of the per-vertex rule, read
    # here off each vertex's chosen neighbours alone.  A front with more
    # than room free neighbours condemns them all and leaves fewer than
    # need, so such a node prunes
    rng = random.Random(43)
    graphs = [build_kneser(5, 2), build_kneser(6, 2)] + [
        random_graph(rng.randint(6, 12), (0.2, 0.4, 0.6, 0.8)[i % 4], rng) for i in range(12)
    ]
    seen = set()
    for g in graphs:
        adj = g.adj
        for d in (0, 2, 3, 4, 5):
            for state, _ in unpruned_states(adj, d):
                free, chosen = state
                fronts = [s for s in bits(chosen) if (adj[s] & chosen).bit_count() == d - 1]
                for incumbent in range(chosen.bit_count(), chosen.bit_count() + free.bit_count() + 1):
                    kids = degd_children(adj, d, state, incumbent)
                    room = free.bit_count() - (incumbent - chosen.bit_count())
                    if any((adj[s] & free).bit_count() > room for s in fronts):
                        assert kids == [], (g.order, d, incumbent)
                    if not kids:
                        continue
                    dropped = rule_drops(adj, d, state, room)
                    assert dropped_vertices(state, kids) == dropped, (g.order, d, incumbent)
                    for u in bits(dropped):
                        # below d chosen neighbours only two fronts or more
                        # drop u, since a single front prunes the node
                        if (adj[u] & chosen).bit_count() < d:
                            seen.add((d, "below d next to fronts"))
                        elif (adj[u] & free).bit_count() >= room:
                            seen.add((d, "saturated"))
                        else:
                            seen.add((d, "saturated next to fronts"))
    # every kind of drop occurs; at d >= 4 no vertex of these graphs with d
    # chosen neighbours has room free ones
    assert {(d, "saturated") for d in (0, 2, 3)} <= seen
    assert {(d, "saturated next to fronts") for d in (2, 3, 4, 5)} <= seen
    assert {(d, "below d next to fronts") for d in (3, 4, 5)} <= seen


def test_d1_matches_brute_force_on_random_graphs():
    # plain solve at d=1, with both of its bounds, against the oracle, which
    # shares no bound with it
    rng = random.Random(30)
    for i in range(240):
        g = random_graph(rng.randint(8, 20), (0.15, 0.3, 0.5, 0.7)[i % 4], rng)
        res = solve(g, 1)
        assert res.optimal and res.best_size == brute_force(g, 1), (i, g.order)
        assert check_max_degree(g, res.witness, 1)


def test_general_d_matches_brute_force_on_random_graphs():
    rng = random.Random(41)
    for i in range(200):
        g = random_graph(rng.randint(5, 16), (0.2, 0.35, 0.5, 0.65, 0.8)[i % 5], rng)
        for d in (0, 2, 3):
            res = solve(g, d)
            assert res.optimal and res.best_size == brute_force(g, d), (i, g.order, d)
            assert check_max_degree(g, res.witness, d)
