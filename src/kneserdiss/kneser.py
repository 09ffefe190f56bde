"""Kneser graphs with a bit-exact vertex encoding.

Vertices of K(n, k) are the k-element subsets of {1, ..., n}, encoded as
n-bit masks with bit i-1 set iff element i is in the subset, and ordered
lexicographically by sorted element list.  Two vertices are adjacent iff
their masks are disjoint.  The ground set is capped at n <= 64 so a
subset always fits a machine word.

Graphs are built from the n centers: C_e is the bitset of vertices that
contain element e, and the row of vertex v is every vertex outside the
union of C_e over e in v.  The centers come whole from the lexicographic
block structure, the subsets that hold the first element and then those
that do not: O(n^2 k) shifts and ORs of whole centers, none per vertex.
A row is one AND of its (k-1)-prefix's free set, formed once per prefix,
with the complement of its last element's center.  A vertex is found
from its k elements the same way: the intersection of their k centers
holds that vertex and no other.  ``certificate_mask`` is the one place
that turns a certificate into a vertex bitset, and ``_lex_elements`` the
one that turns vertex indices back into elements, so no other module
reads the vertex table ``KneserGraph.vertices``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations
from math import comb

from .certificates import Certificate, _load_json
from .errors import CapacityError, DomainError, _require_kneser, require_int
from .graphs import GenericGraph, bits, require_adjacency_fits, vertex_mask

MAX_GROUND_SET = 64


@dataclass(frozen=True, slots=True)
class KSubset:
    """A k-subset of {1, ..., ground_n} stored as a bit mask."""

    mask: int
    ground_n: int

    def __post_init__(self):
        require_int("ground set", self.ground_n, 0)
        if self.ground_n > MAX_GROUND_SET:
            raise CapacityError(f"ground set {self.ground_n} exceeds {MAX_GROUND_SET}")
        require_int("mask", self.mask, 0, (1 << self.ground_n) - 1)

    @property
    def elements(self) -> tuple[int, ...]:
        return tuple(b + 1 for b in bits(self.mask))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __repr__(self) -> str:
        return "{" + ",".join(map(str, self.elements)) + "}"


def enumerate_k_subsets(n: int, k: int) -> list[KSubset]:
    """All k-subsets of [n] in lexicographic order of their element lists."""
    require_int("n", n, 0)
    require_int("k", k, 0, n)
    if n > MAX_GROUND_SET:
        raise CapacityError(f"ground set {n} exceeds the {MAX_GROUND_SET}-bit encoding")
    # no more vertices than a graph's adjacency rows could hold
    count = comb(n, k)
    require_adjacency_fits(count, f"a graph on C({n},{k}) = {count} vertices")
    # each mask is k distinct bits below n <= 64, so the members skip the
    # check that KSubset(...) runs on every object: their slots are set
    # directly, past the frozen dataclass's __setattr__
    new = object.__new__
    set_mask, set_ground = KSubset.mask.__set__, KSubset.ground_n.__set__
    members = []
    for c in combinations([1 << e for e in range(n)], k):
        v = new(KSubset)
        set_mask(v, sum(c))
        set_ground(v, n)
        members.append(v)
    return members


@dataclass(frozen=True)
class KneserGraph(GenericGraph):
    """K(n, k): k-subsets of [n], adjacent iff disjoint.  Immutable."""

    n: int = 0
    k: int = 0
    vertices: tuple[KSubset, ...] = field(default=(), repr=False)
    # centers[e-1]: bitset of the vertices that contain element e
    centers: tuple[int, ...] = field(default=(), compare=False, repr=False)

    def vertex_index(self, vertex) -> int:
        """Index of the vertex whose elements ``vertex`` lists, in any order.

        The vertices holding every element are the intersection of their
        centers, which for k distinct elements is exactly the vertex.
        """
        if not hasattr(vertex, "__iter__"):
            raise DomainError(f"a vertex is named by its elements, got {type(vertex).__name__}")
        elements = tuple(vertex)
        common = -1  # every bit set: every vertex, without a V-bit allocation
        for e in elements:
            require_int("element", e, 1, self.n)
            common &= self.centers[e - 1]
        if len(elements) != self.k or common.bit_count() != 1:
            shown = "{" + ",".join(map(str, elements)) + "}"
            raise DomainError(f"{shown} is not a vertex of K({self.n},{self.k})")
        return common.bit_length() - 1

    def center_mask(self, i: int) -> int:
        """Bitset of all vertices whose subset contains element i."""
        require_int("element", i, 1, self.n)
        return self.centers[i - 1]

    def vertex_set_elements(self, s) -> tuple[tuple[int, ...], ...]:
        """Element tuples of the vertex bitset ``s``, in vertex order."""
        return tuple(_lex_elements(self.n, self.k, vertex_mask(self, s)))


def _lex_elements(n: int, k: int, ranks: int):
    """Yield the element tuples of the k-subsets of [n] whose lexicographic
    ranks, the vertex order of K(n, k), are the set bits of ``ranks``."""
    for r in bits(ranks):
        elements, x = [], 1
        for rest in range(k - 1, -1, -1):
            # the comb(n - x, rest) subsets that take x next all rank before
            # those that skip it
            while r >= (ahead := comb(n - x, rest)):
                r -= ahead
                x += 1
            elements.append(x)
            x += 1
        yield tuple(elements)


def _check_parameters(n: int, k: int) -> None:
    _require_kneser(n, k)
    if n > MAX_GROUND_SET:
        raise CapacityError(f"ground set {n} exceeds the {MAX_GROUND_SET}-bit encoding")


def _centers(n: int, k: int) -> list[int]:
    """The n centers of K(n, k), from the lexicographic block structure.

    The j-subsets of {0..m-1} in lexicographic order are the C(m-1, j-1)
    subsets that hold 0, then the j-subsets of {1..m-1}.  So center 0 is
    that first block, and center i >= 1 is center i-1 of the (j-1)-subsets
    of m-1 elements, next to center i-1 of the j-subsets of m-1 elements
    shifted past the first block.  ``cen[j][i]`` is center i of the
    j-subsets of the current m elements, and 0 past the m-th element or
    where there are no j-subsets, as for j = 0 at every m.
    """
    cen = [[0] * n for _ in range(k + 1)]
    for m in range(1, n + 1):
        # descending j and i, so cen[j - 1] and cen[j][i - 1] still hold
        # m - 1; cen(n, k) needs only j >= k - (n - m)
        for j in range(min(m, k), max(1, k - n + m) - 1, -1):
            first = comb(m - 1, j - 1)
            row, shorter = cen[j], cen[j - 1]
            for i in range(m - 1, 0, -1):
                row[i] = shorter[i - 1] | row[i - 1] << first
            row[0] = (1 << first) - 1
    return cen[k]


def _append_rows(adj: list[int], miss: list[int], free: int, start: int, left: int) -> None:
    """Append, in vertex order, the rows of the vertices that add ``left``
    elements from ``start`` on to a prefix whose free set, the vertices
    that miss every prefix element, is ``free``.

    A vertex lies in its own centers, so its row never holds it.
    """
    if left == 1:
        adj.extend([free & last for last in miss[start:]])
        return
    for e in range(start, len(miss) - left + 1):
        _append_rows(adj, miss, free & miss[e], e + 1, left - 1)


def build_kneser(n: int, k: int) -> KneserGraph:
    """Construct K(n, k).

    Requires n >= 2k >= 2 and adjacency rows within
    graphs.MAX_ADJACENCY_BYTES, which is checked before anything is built.
    The centers come from ``_centers``.  The row of a vertex is the AND of
    miss[e] = full ^ C_e over its elements.  The rows go in vertex order:
    a depth-first walk over the (k-1)-prefixes ANDs one miss onto the free
    set of the prefix one shorter, and each row is its prefix's free set
    AND its last element's miss.
    """
    _check_parameters(n, k)
    require_adjacency_fits(comb(n, k), f"K({n},{k})")
    verts = enumerate_k_subsets(n, k)
    order = len(verts)
    centers = _centers(n, k)
    full = (1 << order) - 1
    miss = [full ^ c for c in centers]
    adj: list[int] = []
    _append_rows(adj, miss, full, 0, k)
    return KneserGraph(
        order=order, adj=tuple(adj), n=n, k=k, vertices=tuple(verts),
        centers=tuple(centers),
    )


def edge_nonneighbors(g: KneserGraph, x, y) -> int:
    """Vertices outside N[x] u N[y] for adjacent x, y (element lists), as a bitset.

    Every returned vertex meets both x and y, so together with {x, y} these
    are the only vertices a dissociation set containing the edge xy may use.
    """
    xi, yi = g.vertex_index(x), g.vertex_index(y)
    if not g.has_edge(xi, yi):
        raise DomainError("x and y must be adjacent (disjoint subsets)")
    closed = g.adj[xi] | g.adj[yi] | (1 << xi) | (1 << yi)
    return g.full_mask & ~closed


def certificate_mask(g: GenericGraph, cert: Certificate) -> int:
    """Vertex bitset of a certificate's members on g.

    Members are element tuples on a Kneser graph, whose n and k the
    certificate must match when it names them, or 1-based vertex indices
    on any graph.  On any other graph a certificate that names both n and
    k must name a valid K(n, k) with g's order.  A vertex named twice is an
    error, so the set's size is the certificate's length.
    """
    n, k = cert.n, cert.k
    if isinstance(g, KneserGraph):
        if not (n in (None, g.n) and k in (None, g.k)):
            raise DomainError(f"certificate names n={n} k={k}, graph is K({g.n},{g.k})")
    elif n is not None and k is not None:
        _require_kneser(n, k)  # before the binomial, which may be huge
        if comb(n, k) != g.order:
            raise DomainError(f"certificate names K({n},{k}), graph has {g.order} vertices")
    mask = 0
    for member in cert.members:
        if isinstance(member, tuple):
            if not isinstance(g, KneserGraph):
                raise DomainError("element-list certificate needs a Kneser graph")
            bit = 1 << g.vertex_index(member)
        else:
            require_int("vertex index", member, 1, g.order)
            bit = 1 << (member - 1)
        if mask & bit:
            raise DomainError(f"certificate names vertex {member} twice")
        mask |= bit
    return mask


def kneser_to_json(g: KneserGraph) -> str:
    """JSON of K(n, k); the vertices are listed by ``combinations``, the
    lexicographic order that ``enumerate_k_subsets`` defines, with no bit
    walk per vertex."""
    return json.dumps(
        {"n": g.n, "k": g.k, "vertices": list(combinations(range(1, g.n + 1), g.k))}
    )


def _reject_float(text: str):
    raise DomainError(f"non-integer number {text}")


def kneser_from_json(text: str) -> KneserGraph:
    # 1.0 would equal element 1 in the comparison below, so no float loads
    doc = _load_json(text, "graph", _reject_float)
    try:
        n, k = doc["n"], doc["k"]
        listed = [tuple(v) for v in doc["vertices"]]
    except (KeyError, TypeError) as exc:
        raise DomainError(f"malformed graph JSON: {exc}") from exc
    _check_parameters(n, k)
    # compared before building, so a wrong list never costs an adjacency build
    if len(listed) != comb(n, k) or any(
        v != c for v, c in zip(listed, combinations(range(1, n + 1), k))
    ):
        raise DomainError("vertex list does not match canonical enumeration")
    # true equals 1 and false no element; 1 is the first element of the
    # first comb(n - 1, k - 1) vertices and of no other
    if any(type(v[0]) is bool for v in listed[:comb(n - 1, k - 1)]):
        raise DomainError("vertex elements must be integers, got true")
    return build_kneser(n, k)
