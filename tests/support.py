"""Independent oracles shared by the test modules.

These deliberately avoid the package's own arithmetic and graph paths:
binomials come from a Pascal triangle, adjacency from set disjointness on
element tuples, and counts from direct enumeration.
"""

import random
from itertools import combinations

from kneserdiss.graphs import GenericGraph


def pascal_binom(n: int, k: int) -> int:
    """C(n, k) from an explicitly built Pascal triangle."""
    if k < 0 or k > n:
        return 0
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k]


def set_based_kneser(n: int, k: int):
    """Vertex element-sets and adjacency via frozenset disjointness."""
    verts = [frozenset(c) for c in combinations(range(1, n + 1), k)]
    adj = [
        [j for j, w in enumerate(verts) if j != i and verts[i].isdisjoint(w)]
        for i, v in enumerate(verts)
    ]
    return verts, adj


def random_graph(order: int, p: float, rng: random.Random) -> GenericGraph:
    adj = [0] * order
    for u in range(order):
        for v in range(u + 1, order):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return GenericGraph(order=order, adj=tuple(adj))


def small_kneser_parameters(max_vertices: int):
    """All (n, k) with n >= 2k >= 2 and C(n,k) <= max_vertices."""
    out = []
    for k in range(1, 8):
        n = 2 * k
        while pascal_binom(n, k) <= max_vertices:
            out.append((n, k))
            n += 1
    return out


def expand_children(expand, state, incumbent):
    """A node function's children in the old list shape: [] when the bound
    prunes, None at the endgame, [include, exclude] otherwise.  The node
    function pushes the exclude child first, so the list is its pushes
    reversed."""
    pushed = []
    witness = expand(state, incumbent, pushed.append)
    if witness is not None:
        assert pushed == [], "an endgame pushed children"
        return None
    assert len(pushed) in (0, 2), pushed
    return pushed[::-1]
