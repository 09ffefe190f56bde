import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
from itertools import combinations

import pytest

import kneserdiss
import kneserdiss.graphs as graphs_module
import kneserdiss.kneser as kneser_module
from kneserdiss import (
    CapacityError,
    DomainError,
    GenericGraph,
    KSubset,
    build_kneser,
    check_max_degree,
    edge_nonneighbors,
    enumerate_k_subsets,
    graph_from_edges,
    induced_subgraph,
    kneser_from_json,
    kneser_to_json,
    odd_neighborhood,
    read_dimacs,
    write_dimacs,
)
from kneserdiss.graphs import bits
from support import pascal_binom, set_based_kneser


def elements(subsets):
    return [s.elements for s in subsets]


def test_enumerate_4_2_full_listing():
    got = elements(enumerate_k_subsets(4, 2))
    assert got == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


def test_enumerate_empty_subset():
    got = enumerate_k_subsets(5, 0)
    assert len(got) == 1 and got[0].mask == 0


def test_enumerate_count_matches_pascal_oracle():
    assert len(enumerate_k_subsets(10, 5)) == pascal_binom(10, 5) == 252


def test_enumerate_order_and_endpoints():
    subs = enumerate_k_subsets(7, 3)
    elems = elements(subs)
    assert elems == sorted(elems)
    assert len(set(elems)) == len(elems)
    assert elems[0] == (1, 2, 3) and elems[-1] == (5, 6, 7)
    assert all(len(s) == 3 for s in subs)


def test_enumerate_capacity_errors(monkeypatch):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumerated subsets past the adjacency cap")

    with pytest.raises(CapacityError):
        enumerate_k_subsets(65, 2)
    with pytest.raises(DomainError):
        enumerate_k_subsets(3, 5)
    # C(24,6) = 134,596 subsets are more vertices than the adjacency rows of
    # one graph may hold, and are refused before any is listed
    monkeypatch.setattr(kneser_module, "combinations", no_enumeration)
    for n, k in ((24, 6), (40, 20)):
        with pytest.raises(CapacityError, match="adjacency"):
            enumerate_k_subsets(n, k)


def test_enumerate_byte_cap_boundary(monkeypatch):
    # C(4,2) = 6 vertices take 6 * 1 bytes of adjacency rows
    monkeypatch.setattr(graphs_module, "MAX_ADJACENCY_BYTES", 5)
    with pytest.raises(CapacityError, match="adjacency"):
        enumerate_k_subsets(4, 2)
    monkeypatch.setattr(graphs_module, "MAX_ADJACENCY_BYTES", 6)
    assert len(enumerate_k_subsets(4, 2)) == 6


def test_adjacency_byte_cap_before_enumeration(monkeypatch):
    # K(22,6), the largest graph the acceptance tests build, fits the cap
    order = pascal_binom(22, 6)
    assert order * ((order + 7) // 8) <= graphs_module.MAX_ADJACENCY_BYTES

    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumerated vertices past the adjacency cap")

    monkeypatch.setattr(kneser_module, "enumerate_k_subsets", no_enumeration)
    monkeypatch.setattr(kneser_module, "combinations", no_enumeration)
    # K(30,6) has 593,775 vertices and ~44 GB of rows
    for n, k in ((30, 6), (40, 20)):
        with pytest.raises(CapacityError, match="adjacency"):
            build_kneser(n, k)


def test_build_byte_cap_boundary_before_enumeration(monkeypatch):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumerated vertices past the adjacency cap")

    # K(10,4) has 210 vertices, so 210 * 27 bytes of rows; the build lists
    # its vertices through combinations
    with monkeypatch.context() as patch:
        patch.setattr(kneser_module, "combinations", no_enumeration)
        patch.setattr(graphs_module, "MAX_ADJACENCY_BYTES", 210 * 27 - 1)
        with pytest.raises(CapacityError, match="5670 bytes"):
            build_kneser(10, 4)
    monkeypatch.setattr(graphs_module, "MAX_ADJACENCY_BYTES", 210 * 27)
    assert build_kneser(10, 4).order == 210


@pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 11) for k in range(1, n // 2 + 1)])
def test_centers_match_set_oracle(n, k):
    # the oracle's star of element e is every k-set holding e; k = 1 gives
    # rows with an empty prefix, n = 2k the smallest case for each k
    g = build_kneser(n, k)
    verts, _ = set_based_kneser(n, k)
    assert len(g.centers) == n
    for e in range(1, n + 1):
        star = {i for i, v in enumerate(verts) if e in v}
        assert set(bits(g.centers[e - 1])) == star, (n, k, e)


@pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 10) for k in range(1, n // 2 + 1)])
def test_vertex_index_finds_every_vertex(n, k):
    g = build_kneser(n, k)
    for i, v in enumerate(g.vertices):
        els = v.elements
        for given in (els, list(els), els[::-1], i):
            assert g.vertex_index(given) == i, (n, k, given)


def test_removed_vertex_forms_raise_domain_error():
    # a vertex is an index or its elements; a KSubset, and a vertex set
    # that is a bool, negative or past the graph, names nothing
    g = build_kneser(5, 2)
    with pytest.raises(DomainError, match="not an int"):
        g.vertex_index(KSubset(0b11, 5))
    for bad in (-1, 1 << g.order, True):
        with pytest.raises(DomainError):
            g.vertex_set_elements(bad)


def test_vertex_set_elements_unranks_without_the_vertex_table():
    # the elements come from the indices, not from g.vertices
    for n, k in ((5, 2), (8, 3), (9, 4)):
        g = build_kneser(n, k)
        bare = dataclasses.replace(g, vertices=())
        assert bare.vertex_set_elements(g.full_mask) == tuple(v.elements for v in g.vertices)
        assert bare.vertex_set_elements([0, g.order - 1]) == (g.vertices[0].elements,
                                                              g.vertices[-1].elements)
        assert bare.vertex_set_elements(0) == ()


def test_bits_refuses_a_negative_mask():
    # -1 & 1 is 1 and -1 ^ 1 is -2, so the lowest-bit loop never ended;
    # next() fails at once instead of hanging if it comes back
    for mask in (-1, -2, -(1 << 70)):
        with pytest.raises(DomainError, match="negative"):
            next(bits(mask))


def test_vertex_index_rejects_non_vertices():
    g = build_kneser(5, 2)
    for bad in ([1, 1], [1], [1, 2, 3], [], [0, 1], [1, 6], [-1, 2]):
        with pytest.raises(DomainError):
            g.vertex_index(bad)
    # three entries but two elements, the set of a vertex
    with pytest.raises(DomainError, match=r"\{1,1,2\} is not a vertex of K\(5,2\)"):
        g.vertex_index((1, 1, 2))
    for bad in (-1, 10):
        with pytest.raises(DomainError, match="out of range"):
            g.vertex_index(bad)
    # a KSubset of a larger ground set names no vertex of K(5,2)
    with pytest.raises(DomainError):
        g.vertex_index(build_kneser(6, 2).vertices[-1])
    # bool is an int subclass, but True is no name for vertex 1
    for flag in (True, False):
        with pytest.raises(DomainError, match="bool"):
            g.vertex_index(flag)
    # nor is True element 1 inside a vertex, and 2.0 is no element at all
    for bad in ((True, 2), (2, True), (2.0, 3), (1, "2")):
        with pytest.raises(DomainError, match="not an int"):
            g.vertex_index(bad)
    for bad in (True, False, 2.0, "2", None):
        with pytest.raises(DomainError, match="not an int"):
            g.center_mask(bad)
    with pytest.raises(DomainError, match="not an int"):
        odd_neighborhood(g, [(True, 5)])


def build_digest(g):
    """SHA-256 over the rows, centers and vertex masks at fixed widths."""
    width = (g.order + 7) // 8
    h = hashlib.sha256()
    for row in g.adj:
        h.update(row.to_bytes(width, "little"))
    for c in g.centers:
        h.update(c.to_bytes(width, "little"))
    for v in g.vertices:
        h.update(v.mask.to_bytes(8, "little"))
    return h.hexdigest()


# recorded from the build that set one center bit per (vertex, element) and
# ORed a vertex's k centers into its row, K(20,6) from the one that filled
# the centers bytewise; the build must reproduce them
BUILD_DIGESTS = {
    (5, 2): "96573e3daf569ac15aa4e1eef85f965ffc8c4e358dd814712ac7449dcba9d286",
    (12, 5): "c79d9877d3575fddbdfa11c5b2765e6dad1397e3727dd547ddf19d9d65a8ab3c",
    (17, 6): "8677ca3f632c57f3410c2e50adde39804ddbe25e07b3bc88161080d32fc27a67",
    (20, 6): "7328430f3b8177d6bde0f90f21d4c529d465adc4ac01a0bc97f206a7ee618711",
}


@pytest.mark.parametrize("n,k", sorted(BUILD_DIGESTS))
def test_build_matches_recorded_digests(n, k):
    assert build_digest(build_kneser(n, k)) == BUILD_DIGESTS[(n, k)]


@pytest.mark.parametrize("n,k", [(64, 1), (64, 2)] + [(2 * k, k) for k in range(1, 8)])
def test_build_at_the_edges_matches_set_oracle(n, k):
    # the widest ground set, k = 1 with its empty prefix, and n = 2k, where
    # the lexicographic blocks are smallest.  K(2k,k) is a perfect matching,
    # each vertex's one neighbour the complement of its set; elsewhere each
    # row is checked by the vertices it misses, those meeting the vertex
    g = build_kneser(n, k)
    verts = [frozenset(c) for c in combinations(range(1, n + 1), k)]
    assert [frozenset(v.elements) for v in g.vertices] == verts
    for e in range(1, n + 1):
        assert set(bits(g.centers[e - 1])) == {i for i, v in enumerate(verts) if e in v}
    if n == 2 * k:
        index = {v: i for i, v in enumerate(verts)}
        ground = frozenset(range(1, n + 1))
        assert list(g.adj) == [1 << index[ground - v] for v in verts]
    else:
        meets = [[j for j, w in enumerate(verts) if not v.isdisjoint(w)] for v in verts]
        assert [list(bits(g.full_mask ^ row)) for row in g.adj] == meets


@pytest.mark.parametrize("n,k", [(5, 0), (5, 2), (10, 5), (64, 1), (64, 2)])
def test_enumerated_members_are_checked_ksubsets(n, k):
    # enumerate_k_subsets skips KSubset's check; each member must still be
    # what the checked constructor makes
    for v in enumerate_k_subsets(n, k):
        checked = KSubset(v.mask, n)
        assert type(v) is KSubset and (v.mask, v.ground_n) == (checked.mask, n)
        assert v == checked and hash(v) == hash(checked) and repr(v) == repr(checked)
    with pytest.raises(dataclasses.FrozenInstanceError):
        v.mask = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        v.ground_n = 3


def test_build_petersen():
    g = build_kneser(5, 2)
    assert g.order == 10
    assert g.edge_count() == 15
    assert all(g.degree(v) == 3 for v in range(10))


def test_build_4_2_is_perfect_matching():
    g = build_kneser(4, 2)
    assert g.order == 6
    assert sorted(g.edges()) == [(0, 5), (1, 4), (2, 3)]


def test_build_7_3_regularity():
    g = build_kneser(7, 3)
    assert g.order == 35
    assert all(g.degree(v) == pascal_binom(4, 3) for v in range(35))


def test_build_domain_error():
    with pytest.raises(DomainError):
        build_kneser(3, 2)
    with pytest.raises(DomainError):
        build_kneser(5, 0)


def test_graph_invariants_all_pairs_at_scale():
    # symmetry, irreflexivity, regularity and the disjointness law across
    # every vertex pair of an 8568-vertex instance, vectorized
    import numpy as np

    g = build_kneser(18, 5)
    nbytes = (g.order + 7) // 8
    packed = np.frombuffer(
        b"".join(row.to_bytes(nbytes, "little") for row in g.adj), dtype=np.uint8
    ).reshape(g.order, nbytes)
    mat = np.unpackbits(packed, axis=1, bitorder="little")[:, : g.order]
    assert (mat == mat.T).all()
    assert not mat.diagonal().any()
    assert (mat.sum(axis=1) == pascal_binom(13, 5)).all()
    masks = np.array([v.mask for v in g.vertices], dtype=np.uint64)
    for start in range(0, g.order, 1024):
        chunk = masks[start : start + 1024]
        # nonzero masks never self-pair, so no diagonal fixup is needed
        disjoint = (chunk[:, None] & masks[None, :]) == 0
        assert (disjoint == mat[start : start + 1024].astype(bool)).all()


@pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (6, 2), (7, 3), (8, 3), (9, 4)])
def test_graph_invariants_against_set_oracle(n, k):
    g = build_kneser(n, k)
    assert g.order == pascal_binom(n, k)
    deg = pascal_binom(n - k, k)
    verts, oracle_adj = set_based_kneser(n, k)
    for v in range(g.order):
        assert g.degree(v) == deg
        assert not g.adj[v] >> v & 1  # irreflexive
        assert sorted(bits(g.adj[v])) == oracle_adj[v]
    for u in range(g.order):
        for v in range(g.order):
            assert (g.adj[u] >> v & 1) == (g.adj[v] >> u & 1)


def test_center_petersen():
    g = build_kneser(5, 2)
    members = g.vertex_set_elements(g.center_mask(1))
    assert members == ((1, 2), (1, 3), (1, 4), (1, 5))


def test_center_8_3_size_matches_oracle():
    g = build_kneser(8, 3)
    assert len(g.vertex_set_elements(g.center_mask(7))) == pascal_binom(7, 2) == 21


def test_center_is_independent():
    for n, k in [(4, 2), (5, 2), (7, 3)]:
        g = build_kneser(n, k)
        for i in (1, n):
            mask = g.center_mask(i)
            assert check_max_degree(g, mask, 0)
    g = build_kneser(4, 2)
    assert g.vertex_set_elements(g.center_mask(3)) == ((1, 3), (2, 3), (3, 4))


def test_center_domain_error():
    g = build_kneser(5, 2)
    with pytest.raises(DomainError):
        g.center_mask(0)
    with pytest.raises(DomainError):
        g.center_mask(6)


def test_edge_nonneighbors_petersen():
    g = build_kneser(5, 2)
    u = edge_nonneighbors(g, (1, 2), (3, 4))
    got = set(g.vertex_set_elements(u))
    assert got == {(1, 3), (1, 4), (2, 3), (2, 4)}


def test_edge_nonneighbors_8_3_against_enumeration():
    g = build_kneser(8, 3)
    u = edge_nonneighbors(g, (1, 2, 3), (4, 5, 6))
    x, y = {1, 2, 3}, {4, 5, 6}
    expect = [
        v.elements
        for v in g.vertices
        if set(v.elements) & x and set(v.elements) & y
        and set(v.elements) not in (x, y)
    ]
    assert sorted(g.vertex_set_elements(u)) == sorted(expect)
    assert u.bit_count() == 36


def test_edge_nonneighbors_4_2():
    g = build_kneser(4, 2)
    u = edge_nonneighbors(g, (1, 2), (3, 4))
    assert set(g.vertex_set_elements(u)) == {(1, 3), (1, 4), (2, 3), (2, 4)}


def test_edge_nonneighbors_requires_adjacency():
    g = build_kneser(5, 2)
    with pytest.raises(DomainError):
        edge_nonneighbors(g, (1, 2), (2, 3))


def test_edge_nonneighbors_size_is_edge_invariant():
    rng = random.Random(7)
    for n, k in [(5, 2), (8, 3), (9, 4)]:
        g = build_kneser(n, k)
        edges = list(g.edges())
        sizes = {
            edge_nonneighbors(g, u, v).bit_count()
            for u, v in rng.sample(edges, min(20, len(edges)))
        }
        assert len(sizes) == 1


def test_induced_subgraph_kneser_restriction():
    g = build_kneser(7, 3)
    keep = 0
    for i, v in enumerate(g.vertices):
        if 7 not in v.elements:
            keep |= 1 << i
    h = induced_subgraph(g, keep)
    # the restriction is a copy of K(6,3): a perfect matching on 20 vertices
    assert h.order == 20
    assert all(h.degree(v) == 1 for v in range(h.order))


def test_full_mask_is_computed_once():
    g = build_kneser(7, 3)
    generic = graph_from_edges(4, [(0, 1), (2, 3)])
    for h in (g, generic, dataclasses.replace(g), dataclasses.replace(generic)):
        assert h.full_mask == (1 << h.order) - 1
        assert h.full_mask is h.full_mask
    # a copy sets its own mask, not its source's
    assert dataclasses.replace(generic, order=2, adj=(2, 1)).full_mask == 3


def test_induced_subgraph_trivial_cases():
    g = build_kneser(5, 2)
    assert induced_subgraph(g, 0).order == 0
    h = induced_subgraph(g, g.center_mask(2))
    assert h.order == 4 and h.edge_count() == 0


def test_dimacs_round_trip():
    g = build_kneser(5, 2)
    text = write_dimacs(g)
    assert text.splitlines()[0] == "p edge 10 15"
    h = read_dimacs(text)
    assert h.order == g.order and h.adj == g.adj


def test_dimacs_rejects_garbage():
    with pytest.raises(DomainError):
        read_dimacs("p edge 2 1\nq 1 2\n")
    with pytest.raises(DomainError):
        read_dimacs("e 1 2\n")
    with pytest.raises(DomainError):
        read_dimacs("p edge 2 5\ne 1 2\n")


def test_dimacs_adjacency_byte_cap(monkeypatch):
    class Allocated(Exception):
        pass

    def no_allocation(order, edges):
        raise Allocated(order)

    # V * ceil(V/8) bytes are checked at the header, before any row exists:
    # 2,000,000 vertices would need 500 GB of rows
    monkeypatch.setattr(graphs_module, "graph_from_edges", no_allocation)
    edges = "".join(f"e {i} 2000000\n" for i in range(1, 201))
    with pytest.raises(CapacityError, match="adjacency"):
        read_dimacs("p edge 2000000 200\n" + edges)


def test_dimacs_vertex_cap(monkeypatch):
    class Allocated(Exception):
        pass

    def no_allocation(order, edges):
        raise Allocated(order)

    # a vertex count alone, with no edges, is refused at the header when
    # its rows would pass the adjacency cap; 131,072 vertices take exactly the cap
    monkeypatch.setattr(graphs_module, "graph_from_edges", no_allocation)
    for order in (10**9, 131073):
        with pytest.raises(CapacityError, match="adjacency"):
            read_dimacs(f"p edge {order} 0\n")
    with pytest.raises(Allocated):
        read_dimacs("p edge 131072 0\n")


def reference_bits(mask):
    """The lowest-bit loop over the whole mask, one set bit per step."""
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


def test_bits_matches_the_lowest_bit_loop():
    rng = random.Random(24)
    masks = [0, 1, 1 << 63, 1 << 64, (1 << 64) + 1, (1 << 128) - 1, (1 << 64) - 1, 1 << 127]
    for width in (65, 200, 1000, 40_000):
        masks.append(rng.getrandbits(width) | 1 << (width - 1))
        # sparse: whole zero words between the set bits
        masks.append(sum(1 << i for i in rng.sample(range(width), max(1, width // 97))))
    masks.append(sum(1 << i for i in range(0, 40_000, 64)))  # bit 0 of every word
    masks.append(sum(1 << i for i in range(63, 40_000, 64)))  # bit 63 of every word
    for mask in masks:
        assert list(bits(mask)) == list(reference_bits(mask)), mask.bit_length()


# SHA-256 over write_dimacs (and kneser_to_json) of every K(n, k) with
# 2 <= n <= 12, k = 1 .. n // 2 in turn, recorded before bits walked words
# and before the JSON vertices came from combinations
IO_DIGESTS = {
    "dimacs": "fbf22bb2b2aae70595878032197308b3b3c983ab37d027ac657c91c1ba5fee74",
    "json": "c981aaaa22ce6c3a7fa46ccf71b05ef7cfd2b819e94f9b9c4b5fb1bdeec9ea1e",
}


def test_graph_text_is_byte_identical():
    dimacs, graph_json = hashlib.sha256(), hashlib.sha256()
    for n in range(2, 13):
        for k in range(1, n // 2 + 1):
            g = build_kneser(n, k)
            text = write_dimacs(g)
            # the edge listing the bit walk replaced, row by row
            edges = [f"e {u + 1} {v + 1}" for u in range(g.order)
                     for v in reference_bits(g.adj[u]) if v > u]
            assert text == "\n".join([f"p edge {g.order} {len(edges)}", *edges]) + "\n"
            dimacs.update(text.encode())
            graph_json.update(kneser_to_json(g).encode())
    assert dimacs.hexdigest() == IO_DIGESTS["dimacs"]
    assert graph_json.hexdigest() == IO_DIGESTS["json"]


# (file, message): one fault, then two faults, where the first one found
# is reported; every file is read whole before graph_from_edges runs
DIMACS_FAULTS = [
    ("", "missing problem line"),
    ("c only a comment\n", "missing problem line"),
    ("e 1 2\n", "line 1: edge before problem line"),
    ("p edge 2 1\nq 1 2\n", "line 2: unknown record 'q'"),
    ("p edge 2\n", "line 1: bad problem line 'p edge 2'"),
    ("p col 2 1\n", "line 1: bad problem line 'p col 2 1'"),
    ("  p edge x 1  \n", "line 1: 'x' is not an integer"),
    ("p edge 2 y\n", "line 1: 'y' is not an integer"),
    ("p edge 2 1\ne 1\n", "line 2: bad edge line 'e 1'"),
    ("p edge 2 1\n  e 1 2 3  \n", "line 2: bad edge line 'e 1 2 3'"),
    ("p edge 2 1\ne a 2\n", "line 2: 'a' is not an integer"),
    ("p edge 2 1\ne 1 b\n", "line 2: 'b' is not an integer"),
    ("p edge 2 1\ne 1 3\n", "line 2: vertex out of range"),
    ("p edge 2 1\ne 0 1\n", "line 2: vertex out of range"),
    ("p edge 2 1\ne 1 1\n", "loop at vertex 0"),
    ("p edge 2 5\ne 1 2\n", "header declares 5 edges, file defines 1"),
    ("p edge 3 2\ne 1 2\ne 2 1\n", "header declares 2 edges, file defines 1"),
    ("p edge -1 0\n", "order -1 out of range [0, inf]"),
    ("p edge 2 1\n\tcx\ne 1 2\nx 9\n", "line 4: unknown record 'x'"),
    ("p edge 2 1\ne a b\n", "line 2: 'a' is not an integer"),
    ("p edge 2 1\ne 1 x y\n", "line 2: bad edge line 'e 1 x y'"),
    ("p edge 2 1\ne 3 x\n", "line 2: 'x' is not an integer"),
    ("e 1\np edge 2 1\n", "line 1: edge before problem line"),
    ("p edge 2 1\ne 1 2 3\nq\n", "line 2: bad edge line 'e 1 2 3'"),
    ("p edge 2 1\ne 1 1\ne 1 x\n", "line 3: 'x' is not an integer"),
    ("p edge 2 9\ne 1 1\n", "loop at vertex 0"),
    ("p edge 2 1\ne 1 2\ne 1 5\np edge 2\n", "line 3: vertex out of range"),
    ("p edge 3 1\ne 1 2\np edge 1 0\n", "edge (0,1) out of range for order 1"),
]


@pytest.mark.parametrize("text, message", DIMACS_FAULTS)
def test_dimacs_fault_messages(text, message):
    with pytest.raises(DomainError) as err:
        read_dimacs(text)
    assert str(err.value) == message


@pytest.mark.parametrize("text", [
    "p edge 3 1\ne 1 2\n",
    "c x\ncomment\n\n  \np edge 3 1\n\t e  1   2 \n",
    "p edge 3 1\r\ne 1 2\r\n",
    "p\u00a0edge 3 1\ne 1\u20032\n",  # Unicode spaces split tokens
    "p edge 3 1\x0be 1 2",  # a vertical tab ends a line
    "p edge 3 1\ne \u0661 \u0662\n",  # int() reads Arabic-Indic digits
    "p edge 9 0\np edge 3 1\ne 2 1\n",  # the last problem line holds
])
def test_dimacs_accepted_forms(text):
    g = read_dimacs(text)
    assert g.order == 3 and g.adj == (0b010, 0b001, 0)


def test_json_round_trip():
    g = build_kneser(6, 2)
    h = kneser_from_json(kneser_to_json(g))
    assert (h.n, h.k) == (6, 2) and h.adj == g.adj


def test_json_rejects_noncanonical_vertices(monkeypatch):
    g = build_kneser(4, 2)
    doc = json.loads(kneser_to_json(g))
    doc["vertices"][0], doc["vertices"][1] = doc["vertices"][1], doc["vertices"][0]
    shuffled = json.loads(kneser_to_json(build_kneser(8, 3)))
    random.Random(5).shuffle(shuffled["vertices"])

    def no_build(*args, **kwargs):
        raise AssertionError("a rejected file must not be built")

    # the vertex list is checked before any adjacency is built
    monkeypatch.setattr(kneser_module, "build_kneser", no_build)
    for bad in (doc, shuffled):
        with pytest.raises(DomainError):
            kneser_from_json(json.dumps(bad))
    with pytest.raises(DomainError):
        kneser_from_json("{not json")


def test_json_reads_n_and_k_strictly():
    petersen = [list(c) for c in combinations(range(1, 6), 2)]
    for n, k in ((5.0, 2), (5.7, 2), ("5", 2), (5, True), (None, 2)):
        doc = {"n": n, "k": k, "vertices": petersen}
        with pytest.raises(DomainError):
            kneser_from_json(json.dumps(doc))
    for text in ('{"n": Infinity, "k": 2, "vertices": []}', "[" * 100_000,
                 '{"n": %s, "k": 2, "vertices": []}' % ("9" * 5000)):
        with pytest.raises(DomainError):
            kneser_from_json(text)
    with pytest.raises(CapacityError):
        kneser_from_json('{"n": 65, "k": 2, "vertices": []}')


def test_json_reads_vertex_elements_strictly():
    # true equals 1, and 1.0 and 2.0 equal 1 and 2, so only their types tell
    # them from the canonical elements
    petersen = json.dumps([list(c) for c in combinations(range(1, 6), 2)])
    for old, new in (("[1, 2]", "[true, 2]"), ("[1, 5]", "[true, 5]"), ("[1, 2]", "[1.0, 2]"),
                     ("[2, 4]", "[2.0, 4]"), ("[4, 5]", "[4, 5e0]")):
        text = '{"n": 5, "k": 2, "vertices": %s}' % petersen.replace(old, new)
        with pytest.raises(DomainError):
            kneser_from_json(text)
    assert kneser_from_json('{"n": 5, "k": 2, "vertices": %s}' % petersen).order == 10


def test_build_needs_no_numpy():
    src = os.path.dirname(os.path.dirname(kneserdiss.__file__))
    code = (
        "import sys, kneserdiss; kneserdiss.build_kneser(20, 6); "
        "assert 'numpy' not in sys.modules"
    )
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


@pytest.mark.parametrize("call", [
    lambda: graph_from_edges(3, [(1, 1)]),
    lambda: graph_from_edges(3, [(0, 3)]),
    lambda: graph_from_edges(3, [(-1, 0)]),
    lambda: induced_subgraph(graph_from_edges(3, [(0, 1)]), 1 << 3),
    lambda: graph_from_edges(2.5, []),
    lambda: graph_from_edges(True, []),
    lambda: induced_subgraph(graph_from_edges(3, [(0, 1)]), True),
])
def test_graph_input_checks(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("edge, message", [
    ((0, True), r"edge \(0, True\) names a vertex that is not an int"),
    ((0, 1.5), r"edge \(0, 1.5\) names a vertex that is not an int"),
    ((0, "1"), r"edge \(0, '1'\) names a vertex that is not an int"),
    ((0, 1, 2), r"edge \(0, 1, 2\) is not a pair of vertices"),
    (5, "edge 5 is not a pair of vertices"),
])
def test_graph_from_edges_names_a_bad_edge(edge, message):
    # True once made the edge 0-1; the others raised TypeError or ValueError
    with pytest.raises(DomainError, match=message):
        graph_from_edges(3, [(1, 2), edge])


@pytest.mark.parametrize("call, expect", [
    (lambda: kneser_module.KSubset(0, kneser_module.MAX_GROUND_SET + 1), CapacityError),
    (lambda: kneser_module.KSubset(1 << 5, 5), DomainError),
    (lambda: kneser_module.KSubset(-1, 5), DomainError),
    # a bool, a float or a string is no mask or ground set size
    (lambda: kneser_module.KSubset(True, 5), DomainError),
    (lambda: kneser_module.KSubset(1, 2.5), DomainError),
    (lambda: kneser_module.KSubset(1.0, 5), DomainError),
    (lambda: kneser_module.KSubset("a", 5), DomainError),
    (lambda: kneser_module.KSubset(1, True), DomainError),
    (lambda: repr(kneser_module.KSubset(0b1011, 5)), "{1,2,4}"),
    (lambda: repr(kneser_module.KSubset(0, 5)), "{}"),
])
def test_ksubset_caps_and_repr(call, expect):
    if isinstance(expect, str):
        assert call() == expect
    else:
        with pytest.raises(expect):
            call()


def test_graph_repr_leaves_out_rows():
    # rows once went into repr in decimal: 45.9 MB for K(17,6), and a
    # ValueError past 4,300 digits
    order = 20_000
    wide = GenericGraph(order=order, adj=(1 << order - 1,) + (0,) * (order - 2) + (1,))
    assert repr(wide) == "GenericGraph(order=20000)"
    assert len(repr(build_kneser(13, 5))) < 100
