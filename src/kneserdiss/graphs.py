"""Simple graphs as immutable per-vertex adjacency bitsets.

A graph on ``order`` vertices stores, for each vertex ``v``, an integer
``adj[v]`` whose bit ``u`` is set iff ``u`` and ``v`` are adjacent.  Vertex
sets throughout the package are plain integers used as bitmasks over the
vertex indices ``0 .. order-1``.

Whole-graph passes cost per item, not per item times graph size:
``bits`` walks a set of s vertices of a V-vertex graph in O(V/64 + s)
word steps, ``read_dimacs`` splits each line once, and ``write_dimacs``
lists the edges through ``bits``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from .errors import CapacityError, DomainError, require_int

# adjacency rows take V * ceil(V/8) bytes; K(22,6) needs about 0.7 GB
MAX_ADJACENCY_BYTES = 2 << 30


def require_adjacency_fits(order: int, name: str) -> None:
    """Refuse a graph whose adjacency rows would pass MAX_ADJACENCY_BYTES.

    Called before any row is built, by every graph source alike.
    """
    need = order * ((order + 7) // 8)
    if need > MAX_ADJACENCY_BYTES:
        raise CapacityError(
            f"{name} needs {need} bytes of adjacency rows, "
            f"over the {MAX_ADJACENCY_BYTES}-byte cap"
        )


def bits(mask: int):
    """Yield the set bit positions of ``mask`` in increasing order.

    Each step of the lowest-bit loop (``mask & -mask``, ``mask ^= lsb``)
    touches the whole mask, so on a mask wider than one 64-bit word the
    loop runs inside each word: the mask is cut into words in one pass,
    and walking s set bits of a V-bit mask costs O(V/64 + s) word steps,
    not O(s * V/30) digit steps.  A mask below 2**64 runs the loop as is,
    and a negative mask, which names no set, raises DomainError.
    """
    if mask > 0xFFFF_FFFF_FFFF_FFFF:
        nwords = (mask.bit_length() + 63) >> 6
        off = -1
        for word in struct.unpack(f"<{nwords}Q", mask.to_bytes(nwords << 3, "little")):
            while word:
                lsb = word & -word
                yield lsb.bit_length() + off
                word ^= lsb
            off += 64
        return
    if mask < 0:  # -1 & 1 is 1 and -1 ^ 1 is -2: the loop below never ends
        raise DomainError(f"vertex set {mask} is negative")
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


def mask_of(indices) -> int:
    m = 0
    for i in indices:
        require_int("vertex index", i, 0)
        m |= 1 << i
    return m


@dataclass(frozen=True)
class GenericGraph:
    """Arbitrary simple graph; adjacency is symmetric and irreflexive."""

    order: int
    # left out of repr: a large graph's rows run to megabytes of digits
    adj: tuple[int, ...] = field(repr=False)
    # every vertex as a bitset, set once by __post_init__
    full_mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.adj) != self.order:
            raise DomainError("adjacency length does not match order")
        object.__setattr__(self, "full_mask", (1 << self.order) - 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self):
        """Yield edges (u, v) with u < v."""
        for u in range(self.order):
            for v in bits(self.adj[u] >> (u + 1)):
                yield u, u + 1 + v


def require_simple(g: GenericGraph) -> None:
    """Raise DomainError unless g's rows are symmetric, irreflexive and hold
    no bit at or above ``order``: the graph the class docstring promises.

    One O(V + E) walk; ``__post_init__`` leaves it out, so a graph built
    row by row, as the readers and build_kneser do, pays nothing for it.
    """
    adj = g.adj
    for u, row in enumerate(adj):
        # a negative row shifts to -1, so it fails here too
        if type(row) is not int or row >> g.order or row >> u & 1:
            raise DomainError(f"row {u} is not a set of other vertices of the graph")
        for v in bits(row):
            if not adj[v] >> u & 1:
                raise DomainError(f"edge ({u},{v}) is missing from row {v}")


def vertex_mask(g: GenericGraph, s) -> int:
    """Bitset of the vertex set s of g, given as a bitset or as indices."""
    mask = mask_of(s) if hasattr(s, "__iter__") else s
    require_int("vertex set", mask, 0)  # True is no name for the set {0}
    if mask >> g.order:
        raise DomainError("vertex set is not a subset of the graph")
    return mask


def graph_from_edges(order: int, edges) -> GenericGraph:
    require_int("order", order, 0)
    adj = [0] * order
    for edge in edges:
        try:
            u, v = edge
        except (TypeError, ValueError):
            raise DomainError(f"edge {edge!r} is not a pair of vertices") from None
        if type(u) is not int or type(v) is not int:  # True is no vertex 1
            raise DomainError(f"edge {edge!r} names a vertex that is not an int")
        if u == v:
            raise DomainError(f"loop at vertex {u}")
        if not (0 <= u < order and 0 <= v < order):
            raise DomainError(f"edge ({u},{v}) out of range for order {order}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return GenericGraph(order=order, adj=tuple(adj))


def induced_subgraph(g: GenericGraph, s: int) -> GenericGraph:
    """Subgraph induced by the vertex bitset ``s``; vertex i is the i-th
    lowest vertex of ``s``."""
    s = vertex_mask(g, s)
    keep = list(bits(s))
    pos = {v: i for i, v in enumerate(keep)}
    adj = []
    for v in keep:
        row = 0
        for u in bits(g.adj[v] & s):
            row |= 1 << pos[u]
        adj.append(row)
    return GenericGraph(order=len(keep), adj=tuple(adj))


def write_dimacs(g: GenericGraph) -> str:
    """DIMACS edge format, 1-based vertex indices."""
    lines = [f"p edge {g.order} {g.edge_count()}"]
    for u, v in g.edges():
        lines.append(f"e {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


def _dimacs_int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise DomainError(f"line {lineno}: {token!r} is not an integer") from None


def read_dimacs(text: str) -> GenericGraph:
    """Parse DIMACS edge format; each line is split once, and a fault is
    reported with its 1-based line number."""
    order = None
    declared_edges = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tok = raw.split()
        if not tok:
            continue
        head = tok[0]
        if head == "e":
            if order is None:
                raise DomainError(f"line {lineno}: edge before problem line")
            if len(tok) != 3:
                raise DomainError(f"line {lineno}: bad edge line {raw.strip()!r}")
            try:
                u, v = int(tok[1]), int(tok[2])
            except ValueError:  # _dimacs_int names the first bad token
                u, v = _dimacs_int(tok[1], lineno), _dimacs_int(tok[2], lineno)
            if not (1 <= u <= order and 1 <= v <= order):
                raise DomainError(f"line {lineno}: vertex out of range")
            edges.append((u - 1, v - 1))
        elif head[0] == "c":
            continue
        elif head == "p":
            if len(tok) != 4 or tok[1] != "edge":
                raise DomainError(f"line {lineno}: bad problem line {raw.strip()!r}")
            order = _dimacs_int(tok[2], lineno)
            declared_edges = _dimacs_int(tok[3], lineno)
            # checked before graph_from_edges allocates a row per vertex
            require_adjacency_fits(order, f"line {lineno}: a graph on {order} vertices")
        else:
            raise DomainError(f"line {lineno}: unknown record {head!r}")
    if order is None:
        raise DomainError("missing problem line")
    g = graph_from_edges(order, edges)
    if declared_edges is not None and g.edge_count() != declared_edges:
        raise DomainError(
            f"header declares {declared_edges} edges, file defines {g.edge_count()}"
        )
    return g
