"""Certificate checks and structural verifications.

Covers the degree-bound check behind every solver witness, its dual
(3-path vertex covers), Hall matchings with explicit violators, the
neighborhood expansion property of odd graphs (every set L at once, by one
Hall matching on copies), and exhaustive counting of
k-sets appearing as cyclic substrings of arrangements of [n].
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import permutations
from math import factorial
from types import MappingProxyType

from .errors import CapacityError, DomainError, require_int
from .graphs import GenericGraph, bits, mask_of, vertex_mask
from .kneser import KneserGraph

ARRANGEMENT_CAP = 9  # (n-1)! arrangements are enumerated exhaustively


def check_max_degree(g: GenericGraph, s, d: int) -> bool:
    """True iff every vertex of s has at most d neighbors inside s."""
    require_int("d", d, 0)
    mask = vertex_mask(g, s)
    for v in bits(mask):
        if (g.adj[v] & mask).bit_count() > d:
            return False
    return True


def check_p3_cover(g: GenericGraph, cover) -> bool:
    """True iff removing ``cover`` leaves no path on 3 vertices.

    Checked directly from the definition (no vertex of the remainder keeps
    two neighbors), independently of check_max_degree.
    """
    rest = g.full_mask & ~vertex_mask(g, cover)
    for v in bits(rest):
        if (g.adj[v] & rest).bit_count() >= 2:
            return False
    return True


@dataclass(frozen=True)
class MatchingResult:
    """Either a matching saturating X, or a Hall violator W with |N(W)| < |W|."""

    matching: tuple | None = None
    violator: frozenset | None = None

    def __post_init__(self):
        if (self.matching is None) == (self.violator is None):
            raise DomainError("exactly one of matching/violator must be set")

    @property
    def saturated(self) -> bool:
        return self.matching is not None


X_SIDE_CAP = 10_000


def find_x_matching(x_side, y_side, edges) -> MatchingResult:
    """Augmenting-path matching saturating X, or an explicit Hall violator.

    The X vertices must be distinct.  The first x0 with no augmenting path
    gives the violator: x0 and the partners of the y's its search saw.
    """
    xs = list(x_side)
    if len(xs) > X_SIDE_CAP:
        raise CapacityError(f"matching capped at |X| <= {X_SIDE_CAP}")
    ys = set(y_side)
    nbr: dict = {x: [] for x in xs}
    if len(nbr) < len(xs):
        raise DomainError("X vertices must be distinct")
    for x, y in edges:
        if x not in nbr or y not in ys:
            raise DomainError(f"edge ({x!r},{y!r}) off the bipartition")
        if y not in nbr[x]:
            nbr[x].append(y)

    match_y: dict = {}  # y -> x

    def try_augment(x0, seen_y) -> bool:
        # depth-first search for an augmenting path from x0 on an explicit
        # stack: paths can be as long as X is, far past the recursion limit
        stack = [(x0, iter(nbr[x0]))]
        path = []  # path[i]: the y that stack[i]'s x tries
        while stack:
            for y in stack[-1][1]:
                if y not in seen_y:
                    break
            else:
                stack.pop()
                if path:
                    path.pop()
                continue
            seen_y.add(y)
            path.append(y)
            if y not in match_y:
                # flip the path: every x on the stack takes the y it tried
                for (x, _), py in zip(stack, path):
                    match_y[py] = x
                return True
            partner = match_y[y]
            stack.append((partner, iter(nbr[partner])))
        return False

    for x0 in xs:
        seen_y: set = set()
        if not try_augment(x0, seen_y):
            # a failed search tried every neighbour of each x it reached, so
            # those x's have only the matched y's it saw as neighbours, one
            # fewer than the x's
            w = {x0} | {match_y[y] for y in seen_y}
            if len(set().union(*(nbr[x] for x in w))) >= len(w):
                raise AssertionError("matching bookkeeping broken: violator is not one")
            return MatchingResult(violator=frozenset(w))
    match_x = {x: y for y, x in match_y.items()}
    return MatchingResult(matching=tuple((x, match_x[x]) for x in xs))


def _odd_graph(g) -> int:
    """k of the odd graph g = K(2k+1, k), k >= 2; anything else is refused."""
    if isinstance(g, KneserGraph) and g.k >= 2 and g.n == 2 * g.k + 1:
        return g.k
    shown = f"K({g.n},{g.k})" if isinstance(g, KneserGraph) else f"a {type(g).__name__}"
    raise DomainError(f"need an odd graph K(2k+1, k) with k >= 2, got {shown}")


def odd_neighborhood(g: KneserGraph, subset) -> tuple[int, int]:
    """L and N(L) n D in the odd graph g = K(2k+1, k), as bitsets.

    L must be a nonempty subset of the center of element 2k+1; D is the set
    of vertices avoiding 2k+1 (they induce a perfect matching).
    """
    k = _odd_graph(g)
    center = g.center_mask(2 * k + 1)
    lmask = mask_of(g.vertex_index(item) for item in subset)
    if lmask == 0:
        raise DomainError("L must be nonempty")
    if lmask & ~center:
        raise DomainError("L must lie inside the center of element 2k+1")

    nbhd = 0
    for v in bits(lmask):
        nbhd |= g.adj[v]
    return lmask, nbhd & ~center


def odd_expansion_check(g: KneserGraph, subset) -> bool:
    """Exact test of k*|N(L) n D| >= (k+1)*|L| in the odd graph g = K(2k+1, k)."""
    lmask, nbhd = odd_neighborhood(g, subset)
    return g.k * nbhd.bit_count() >= (g.k + 1) * lmask.bit_count()


def odd_expansion_violator(g: KneserGraph) -> frozenset | None:
    """A nonempty L in the center of 2k+1 with k*|N(L) n D| < (k+1)*|L|, or None.

    Every L of the odd graph g = K(2k+1, k) is checked at once by Hall's
    theorem on copies: each center vertex becomes k+1 X-copies and each
    vertex of D becomes k Y-copies, joined where their originals are.  The
    copies of L see exactly k*|N(L) n D| Y-copies, so the X-copies are
    saturated iff no L fails.  Copies of one vertex share their neighbours,
    so the originals of a Hall violator are an L that fails.  The one size
    limit is find_x_matching's X_SIDE_CAP on the (k+1)*C(2k, k-1) X-copies:
    k <= 6, and K(13,6) takes seconds.
    """
    k = _odd_graph(g)
    center = g.center_mask(2 * k + 1)
    below = g.full_mask & ~center
    # copy i of vertex v is v*(k+1) + i on the X side and v*k + i on the Y side
    xs = [v * (k + 1) + i for v in bits(center) for i in range(k + 1)]
    ys = [u * k + j for u in bits(below) for j in range(k)]
    # a generator: the cap refuses a large center before any row is read
    edges = ((x, u * k + j)
             for x in xs for u in bits(g.adj[x // (k + 1)] & below) for j in range(k))
    result = find_x_matching(xs, ys, edges)
    return None if result.saturated else frozenset(x // (k + 1) for x in result.violator)


def odd_hall_matching(g: KneserGraph, subset) -> MatchingResult:
    """Matching of L into D along the edges of the odd graph g, or a Hall violator.

    This is the bipartite graph behind diss(K(2k+1, k)) = C(2k, k), with L
    and D as in odd_expansion_check; vertices are graph indices.
    """
    lmask, nbhd = odd_neighborhood(g, subset)
    edges = [(u, v) for u in bits(lmask) for v in bits(g.adj[u] & nbhd)]
    return find_x_matching(bits(lmask), bits(nbhd), edges)


@dataclass(frozen=True)
class CyclicArrangement:
    """A cyclic order of [n], normalized so element 1 sits at position 0."""

    order: tuple[int, ...]

    def __post_init__(self):
        # a list would leave the frozen object unhashable
        try:
            order = tuple(self.order)
        except TypeError:
            raise DomainError(f"order must be a sequence of elements, got {self.order!r}") from None
        object.__setattr__(self, "order", order)
        n = len(self.order)
        for e in self.order:
            require_int("element", e, 1, n)
        if not n or len(set(self.order)) != n:
            raise DomainError("order must be a permutation of [n], n >= 1")
        if self.order[0] != 1:
            raise DomainError("normalized arrangements start with element 1")

    def window_masks(self, k: int) -> list[int]:
        """Element masks of the n cyclic windows of length k."""
        require_int("window length", k, 1, len(self.order))
        # roll the first window on: add the element entering, drop the one leaving
        bit = [1 << (e - 1) for e in self.order]
        window = sum(bit[:k])
        masks = [window]
        for leave, enter in zip(bit[:-1], (bit + bit)[k:]):
            window += enter - leave
            masks.append(window)
        return masks


def all_arrangements(n: int):
    """Yield all (n-1)! normalized cyclic arrangements of [n]."""
    require_int("n", n, 1)
    if n > ARRANGEMENT_CAP:
        raise CapacityError(f"arrangement enumeration capped at n <= {ARRANGEMENT_CAP}")
    for rest in permutations(range(2, n + 1)):
        yield CyclicArrangement(order=(1,) + rest)


def _family_masks(family, n: int, k: int) -> frozenset:
    # before _window_tally's cache, where 5.0 would hash as 5
    require_int("n", n, 1)
    require_int("k", k, 1, n)
    masks = set()
    for member in family:
        if not hasattr(member, "__iter__"):
            raise DomainError(f"family member {member!r} is not a set of elements")
        mask = 0
        for e in member:
            require_int("element", e, 1, n)
            if mask >> (e - 1) & 1:
                raise DomainError(f"family member {member!r} names element {e} twice")
            mask |= 1 << (e - 1)
        if mask.bit_count() != k:
            raise DomainError(f"family member {member!r} is not a k-subset of [n]")
        masks.add(mask)
    return frozenset(masks)


def _window_count(c: CyclicArrangement, masks: frozenset, k: int) -> int:
    return sum(1 for w in c.window_masks(k) if w in masks)


def substrings_in_arrangement(c: CyclicArrangement, family, k: int) -> int:
    """How many family members occupy k cyclically consecutive positions of c."""
    return _window_count(c, _family_masks(family, len(c.order), k), k)


def max_substrings(n: int, k: int, family) -> tuple[int, CyclicArrangement]:
    """Maximum substring count over all (n-1)! arrangements, with a witness."""
    masks = _family_masks(family, n, k)
    best = -1
    witness = None
    for c in all_arrangements(n):
        count = _window_count(c, masks, k)
        if count > best:
            best, witness = count, c
    return best, witness


def double_count_identity(n: int, k: int, family) -> bool:
    """Each k-set is a substring of exactly k!(n-k)! arrangements.

    Summing substring counts over all (n-1)! arrangements must therefore
    give |family| * k! * (n-k)!.  This is an exact combinatorial identity;
    returning False would indicate an implementation bug.
    """
    masks = _family_masks(family, n, k)
    tally = _window_tally(n, k)
    total = sum(tally.get(m, 0) for m in masks)
    return total == len(masks) * factorial(k) * factorial(n - k)


@cache
def _window_tally(n: int, k: int) -> MappingProxyType:
    """How many windows over all arrangements of [n] hold each k-set mask."""
    tally = Counter()
    for c in all_arrangements(n):
        tally.update(c.window_masks(k))
    return MappingProxyType(dict(tally))
