"""Reference computations the benchmark checks the package against.

Nothing here imports kneserdiss.  Binomials come from a Pascal triangle,
vertices are element tuples from ``itertools.combinations`` in
lexicographic order (the order the package documents for its vertex
indices), adjacency is set disjointness, and exact values come from a
branch and bound of this module's own with a counting bound that holds in
any regular graph.
"""

from __future__ import annotations

from itertools import combinations


def pascal(n: int, k: int) -> int:
    """C(n, k) read off an explicitly built Pascal triangle."""
    if k < 0 or n < 0 or k > n:
        return 0
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k]


def subsets(n: int, k: int) -> list[tuple[int, ...]]:
    """The k-subsets of {1..n} in lexicographic order of their elements."""
    return list(combinations(range(1, n + 1), k))


def disjoint(a, b) -> bool:
    return not set(a) & set(b)


def kneser_adjacency(n: int, k: int) -> list[int]:
    """Adjacency bitsets of K(n,k) built from set disjointness of tuples."""
    verts = [frozenset(v) for v in subsets(n, k)]
    rows = []
    for a in verts:
        row = 0
        for j, b in enumerate(verts):
            if a.isdisjoint(b):
                row |= 1 << j
        rows.append(row)
    return rows


def bit_indices(mask: int) -> list[int]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def max_induced_degree(members) -> int:
    """Largest number of disjoint partners any member has inside the family."""
    sets = [frozenset(m) for m in members]
    best = 0
    for a in sets:
        deg = sum(1 for b in sets if b is not a and a.isdisjoint(b))
        best = max(best, deg)
    return best


def kneser_degree(n: int, k: int) -> int:
    return pascal(n - k, k)


def edge_count(n: int, k: int) -> int:
    return pascal(n, k) * pascal(n - k, k) // 2


def ekr(n: int, k: int) -> int:
    """Erdos-Ko-Rado: the independence number of K(n,k) for n >= 2k."""
    return pascal(n - 1, k - 1)


def edge_nonneighbor_size(n: int, k: int) -> int:
    """Vertices meeting both ends of an edge xy: inclusion-exclusion."""
    return pascal(n, k) - 2 * pascal(n - k, k) + pascal(n - 2 * k, k)


def diss_theorem(n: int, k: int) -> int | None:
    """diss(K(n,k)) where a theorem of the paper fixes it, else None."""
    if k == 2:
        return max(n - 1, 6)
    if k == 3 and n >= 8:
        return pascal(n - 1, 2)
    if n == 2 * k + 1:
        return pascal(2 * k, k)
    return None


def regular_bound(order: int, delta: int, d: int) -> int:
    """|S| <= |V| delta / (2 delta - d) for max degree d inside S.

    Every vertex of S sends at least delta - d edges out of S, and every
    vertex outside takes at most delta of them.
    """
    if 2 * delta <= d or d >= delta:
        return order
    return order * delta // (2 * delta - d)


def max_bounded_degree_set(adj: list[int], d: int, fix_first: bool = False):
    """Exact largest vertex set inducing max degree <= d in a regular graph.

    Branches on the lowest undecided vertex.  A node is cut by the counting
    bound of ``regular_bound`` applied to what is already decided: each
    excluded vertex absorbs at most its number of neighbours that are not
    excluded.  ``fix_first`` puts vertex 0 in the set, which is sound for
    vertex-transitive graphs.  Returns (size, witness mask, nodes).
    """
    order = len(adj)
    delta = adj[0].bit_count() if order else 0
    full = (1 << order) - 1
    denom = 2 * delta - d
    best = [0, 0]
    nodes = 0

    def bound(chosen, free, size):
        f = free.bit_count()
        if denom <= 0 or d >= delta:
            return size + f
        alive = chosen | free
        absorbed = sum((adj[u] & alive).bit_count() for u in bit_indices(full & ~alive))
        extra = (absorbed + delta * f - size * (delta - d)) // denom
        return size + max(0, min(f, extra))

    def rec(chosen, free, deg, size):
        nonlocal nodes
        nodes += 1
        if bound(chosen, free, size) <= best[0]:
            return
        if not free:
            best[0], best[1] = size, chosen
            return
        low = free & -free
        v = low.bit_length() - 1
        rest = free ^ low
        nbrs = adj[v] & chosen
        if nbrs.bit_count() <= d:
            ndeg = dict(deg)
            ndeg[v] = nbrs.bit_count()
            for u in bit_indices(nbrs):
                ndeg[u] += 1
            nchosen = chosen | low
            nfree = rest
            for u, du in ndeg.items():
                if du >= d:
                    nfree &= ~adj[u]
            for u in bit_indices(nfree):
                if (adj[u] & nchosen).bit_count() > d:
                    nfree &= ~(1 << u)
            rec(nchosen, nfree, ndeg, size + 1)
        rec(chosen, rest, deg, size)

    if order == 0:
        return 0, 0, 0
    if fix_first:
        free = full & ~1
        if d == 0:
            free &= ~adj[0]
        rec(1, free, {0: 0}, 1)
    else:
        rec(0, full, {}, 0)
    return best[0], best[1], nodes
