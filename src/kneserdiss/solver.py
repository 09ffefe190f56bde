"""Exact maximum bounded-degree induced subgraphs by branch and bound.

``solve(g, d)`` finds a largest vertex set whose induced subgraph has
maximum degree at most d (d=0: independent set, d=1: dissociation set).
A search state is a tuple of vertex bitsets; every size and degree is a
popcount.  Both engines keep every undecided (free) vertex able to join:
it has at most d chosen neighbours and none of them already has d.  The
d=1 engine's state is (free, unsat, seen, counted, edges, layers,
chosen), where ``unsat`` holds the chosen vertices without a chosen
neighbour and ``seen`` covers the free vertices next to one, so each free
vertex has at most one chosen neighbour.  Its counting bound and exact
endgame closure both fall out of that.  ``edges`` is the number of edges
inside ``counted``, a superset of free, and ``layers`` are bit-sliced
counters: bit i of a vertex's degree into ``counted`` is that vertex's bit
in layer i.  A node the counting bound does not prune brings both up to
date with its free set, subtracting the rows of the vertices that left,
and then narrows free from the top layer down to the vertices of maximum
free-degree D; the branch vertex is the lowest of them.  With f = |free|
and E = 2 * edges, a second bound, by edge cover, holds when D >= 2: a
completion takes s free vertices, which induce at most s/2 edges; every
other free-free edge has an end among the f - s free vertices left out,
and each of them ends at most D edges, so E/2 <= s/2 + D(f - s), that is
s <= f + floor((f - E) / (2D - 1)).  The node is pruned when |chosen|
plus that is at most the incumbent.  The general-d engine's state is
(free, chosen).

An engine is a state builder and one node function,
``expand(state, incumbent, push)``.  The search is one depth-first loop
over one stack: it pops a state and expands it.  ``expand`` pushes the
exclude child and then the include child, so the include child is popped
first; it pushes nothing when the bound prunes, and it returns the
endgame's witness, an exact optimum of the node, when no branch is left.

The general-d engine branches on the most constrained free vertex, fail
first: the most chosen neighbours, then the most free neighbours, then
the lowest index.  At d=0 no free vertex has a chosen neighbour, so the
rule is the most free neighbours there.  It bounds each node by degree
counting inside R = free | chosen.  With r(v) = |N(v) & R|, every
feasible completion S, chosen <= S <= R, satisfies
sum over S of max(r(s), 2r(s) - d) <= 2e(R): each s in S has at most d
neighbours in S, so e(S, R - S) >= sum over S of max(r(s) - d, 0); and
every edge from S to R - S is counted in sum over R - S of r(w), which
is 2e(R) - sum over S of r(s).  The weight is never below 2r - d, and
above it only where r < d.  The node's bound is |chosen| + t, where t is
the largest number of free vertices whose smallest weights, added to the
chosen vertices' weights, stay within 2e(R).  No regularity is assumed,
so the bound holds on any graph.

Before it branches, a general-d node drops every free vertex whose
include child cannot beat the incumbent: one-step look-ahead, the
failed-literal probing of SAT solvers.  A better completion adds at least
need = incumbent - |chosen| + 1 free vertices, so an include child must
keep need - 1, and may remove at most room = |free| - need + 1 free
vertices, its own included.  Including u removes u; N(u) & free when u
already has d chosen neighbours, since u saturates; and N(s) & free for
every front s next to u, a chosen vertex with d - 1 chosen neighbours,
which u saturates too.  When those removals exceed room, no completion
holding u beats the incumbent, and u leaves free without a branch.  All
such vertices leave at once: a completion that beats the incumbent holds
none of them, so it is a completion of the node without them.  A node
finds its fronts once, as one bitset.  A vertex with fewer than d chosen
neighbours touches at most d - 1 fronts, so fronts are tested in groups:
a group condemns the free vertices next to all of its fronts when the
fronts' free neighbourhoods together hold more than room vertices.  A
group of one that passes condemns more than room vertices and leaves
fewer than need, so the node is pruned.  The test only gets easier to
pass as the group grows, so no group that passes is extended.  A vertex
with d chosen neighbours is tested alone, with its own free neighbours
and those of the fronts next to it.  At d=0 there are no fronts, and the
rule is the maximum independent set rule: u leaves once
|N(u) & free| >= room.  It is the same kind of reduction as those of Xiao
and Kou for maximum dissociation sets (Theor. Comput. Sci. 2017).  The
bound keeps the node's R, so every feasible completion still satisfies
its inequality, but it adds up only the weights of the vertices left,
since a completion that beats the incumbent holds no dropped vertex; a
node left with fewer than need free vertices is pruned.

``solve`` and ``solve_kneser`` share one search path, one depth-first
search in one process, which may start from a list of given states
instead of the root.  ``solve_kneser`` adds what is only sound for
Kneser graphs.  At every d >= 1 the search starts with the edge
x = {1,...,k}, y = {k+1,...,2k} chosen.  The incumbent is seeded with a
set of at least alpha vertices, so it is as large as any independent
set; every better set holds an edge, and since K(n, k) is
edge-transitive some optimum holds xy.  So diss_d = max(alpha, the
largest set holding xy).  The start's free set is what the include rule
leaves after including x and then y.  At d=1 that is M, the common
non-neighbours of x and y, so diss = max(alpha, 2 + diss(K[M])); the seed
is the best known construction, and no search runs once it meets the
bound report's upper end.  At d >= 2 no vertex leaves: x and y have one
chosen neighbour each, fewer than d, and every other vertex at most two,
so the free set is V - {x, y}; the seed is the larger of a center (alpha
vertices, Erdos-Ko-Rado) and the greedy set.  At d=0 the center meets the
Erdos-Ko-Rado bound, so no search runs.

The edge's stabilizer (the permutations of {1..n} that fix x, y and the
rest setwise, or swap x and y) maps the start to itself, and the orbit of
a free vertex u is every free vertex with u's pair {|u & x|, |u & y|}.
Root i includes the engine's branch vertex v_i once the orbits O_1..O_{i-1}
of v_1..v_{i-1} are out of the free set; the last root is the endgame
state left after them.  A set S holding xy that meets O_i first maps,
under a permutation taking a vertex of S & O_i to v_i, onto an equally
large set under root i: the permutation fixes xy and every orbit.  At
d >= 2 root i is built from the state left after the drops, which holds
every completion that beats the incumbent.  The roots are built only when
a search runs.  The state left after root i keeps the counters of its
exclude child, caught up on the free set before O_i left, so the d=1
counters subtract each orbit's rows once.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial

from . import bounds, kneser
from .certify import check_max_degree
from .errors import CapacityError, DomainError, require_int
from .graphs import GenericGraph, bits, require_simple
from .kneser import KneserGraph

BRUTE_FORCE_CAP = 26
MAX_THREADS = 64  # the largest thread_count a budget accepts
_DEADLINE_INTERVAL = 2048  # nodes between deadline checks


@dataclass(frozen=True)
class SearchBudget:
    """Limits on one search.  ``thread_count`` selects nothing: every search
    runs in one process.  It is kept, with its range check, for callers
    that still pass it."""

    max_nodes: int | None = None
    max_time: float | None = None  # seconds
    thread_count: int = 1

    def __post_init__(self):
        require_int("thread_count", self.thread_count, 1, MAX_THREADS)
        if self.max_nodes is not None:
            require_int("max_nodes", self.max_nodes, 1)
        t = self.max_time
        if t is not None and (isinstance(t, bool) or not isinstance(t, (int, float))
                              or not t > 0):  # NaN too
            raise DomainError(f"max_time must be a positive number of seconds, got {t!r}")


UNLIMITED = SearchBudget()


@dataclass(frozen=True)
class SolveResult:
    best_size: int
    witness: int  # vertex bitset
    optimal: bool
    nodes_explored: int
    wall_time: float
    bound_source: str | None = None

    def to_json_dict(self, g: KneserGraph | None = None) -> dict:
        if g is not None:
            witness = [list(e) for e in g.vertex_set_elements(self.witness)]
        else:
            witness = [v + 1 for v in bits(self.witness)]
        return {
            "size": self.best_size,
            "witness": witness,
            "optimal": self.optimal,
            "nodes": self.nodes_explored,
            "millis": int(self.wall_time * 1000),
        }


# ---------------------------------------------------------------------------
# d = 1 engine (free, unsat, seen, counted, edges, layers, chosen)
# ---------------------------------------------------------------------------


def _free_degree_layers(adj, free):
    """(edges, layers): the number of edges inside free, and the bit-sliced
    free-degrees: bit i of free vertex v's free-degree is bit v of layer i,
    with as many layers as the largest free-degree needs."""
    by_degree = {}
    m = free
    while m:
        lsb = m & -m
        d = (adj[lsb.bit_length() - 1] & free).bit_count()
        by_degree[d] = by_degree.get(d, 0) | lsb
        m ^= lsb
    layers = [0] * max(by_degree, default=0).bit_length()
    for d, vs in by_degree.items():
        for i in range(d.bit_length()):
            if d >> i & 1:
                layers[i] |= vs
    return sum(d * vs.bit_count() for d, vs in by_degree.items()) >> 1, tuple(layers)


def _deg1_engine(adj):
    """(start, expand) of the d=1 engine; ``_engine`` says what they do."""

    def start(free, chosen):
        return (free, 0, 0, free) + _free_degree_layers(adj, free) + (chosen,)

    def expand(state, incumbent, push):
        free, unsat, seen, counted, edges, layers, chosen = state
        # undecided vertices off ``seen`` may all join; those on it, at most
        # one per unsaturated vertex
        f = free.bit_count()
        c = chosen.bit_count()
        sc = (seen & free).bit_count()
        u = unsat.bit_count()
        if c + f - sc + (u if u < sc else sc) <= incumbent:
            return None
        # past the bound the counters catch up on free, subtracting the row
        # of every vertex that left and its edges to the counted vertices
        # still there; the children inherit them, counted on this node's
        # free set.  A catch-up copies the layers, so children may share them
        gone = counted & ~free
        if gone:
            layers = list(layers)
            while gone:
                lsb = gone & -gone
                gone ^= lsb
                counted ^= lsb
                row = adj[lsb.bit_length() - 1]
                edges -= (row & counted).bit_count()
                # one borrow chain takes 1 off each free neighbour; rows
                # ANDed with free never borrow at a vertex outside it
                b = row & free
                i = 0
                while b:
                    layers[i] ^= b
                    b &= layers[i]  # borrow where the bit was clear
                    i += 1
        # narrowing free from the top layer down leaves the vertices of
        # maximum free-degree; the branch vertex is the lowest of them
        top = free
        for t in reversed(layers):
            t &= top
            if t:
                top = t
        v = (top & -top).bit_length() - 1
        if v < 0 or not (a := adj[v]) & free:
            # no undecided-undecided edges left: the closure is exact, with
            # one partner per unsaturated vertex, the lowest
            wit = chosen | (free & ~seen)
            m = unsat
            while m:
                lsb = m & -m
                m ^= lsb
                su = adj[lsb.bit_length() - 1] & seen & free
                wit |= su & -su
            return wit
        # the edge-cover bound (module docstring); v's free-degree is the
        # maximum, and below 2 the bound is at least f
        dm = 2 * (a & free).bit_count() - 1
        if dm > 1 and c + f + (f - 2 * edges) // dm <= incumbent:
            return None
        vbit = 1 << v
        push((free & ~vbit, unsat, seen, free, edges, layers, chosen))
        ku = a & unsat
        if ku == 0:
            # v starts a new unsaturated inclusion; undecided neighbours that
            # already touch an unsaturated vertex would reach two and go out
            nfree = free & ~vbit & ~(a & free & seen)
            push((nfree, unsat | vbit, seen | (a & nfree), free, edges, layers, chosen | vbit))
        else:
            # v pairs up with its unsaturated neighbour, the only chosen one
            # a free vertex can have; both saturate
            nfree = free & ~vbit & ~a & ~adj[ku.bit_length() - 1]
            push((nfree, unsat & ~ku, seen & nfree, free, edges, layers, chosen | vbit))
        return None

    return start, expand


# ---------------------------------------------------------------------------
# general-d engine (free, chosen)
# ---------------------------------------------------------------------------


def _degd_expand(adj, d, state, incumbent, push):
    """The general-d node function (``_engine``): nothing pushed when the
    degree-counting bound prunes or the drops leave fewer than need free
    vertices, and the chosen set returned once nothing is undecided.

    One pass over R = free | chosen collects what the bound in the module
    docstring needs: the weights max(r, 2r - d) of the free vertices left,
    and the slack 2e(R) minus the chosen vertices' weights, which is the
    sum of r over the free vertices plus d - r for each chosen vertex with
    r > d.  The weights hold because each s of a completion S has at least
    max(r(s) - d, 0) neighbours in R - S, and those edges are counted in
    the sum of r over R - S, 2e(R) minus the sum of r over S.

    The same pass drops the free vertices whose include child cannot beat
    the incumbent (module docstring).  The chosen vertices' walk collects
    the fronts as one bitset and prunes the node at a front with more than
    room free neighbours; groups of 2..d-1 fronts are tested next, by one
    search from the empty group; the walk over the free vertices left
    tests each vertex with d chosen neighbours against its free neighbours
    and those of the fronts next to it, and the dropped vertices add only
    their r to the slack.  The branch vertex is the most constrained vertex
    left: the most chosen neighbours c = r - du, then the most free
    neighbours du, then the lowest index.  Both children are built from the
    vertices left.
    """
    free, chosen = state
    need = incumbent - chosen.bit_count() + 1  # free vertices a better completion must add
    size = free.bit_count()
    if size < need:
        return None
    if not free:
        return chosen
    # an include child that removes more than room free vertices, its own
    # included, keeps fewer than need - 1
    room = size - need + 1
    live = free | chosen
    slack = 0
    front = d - 1  # chosen neighbours of a front
    fronts = 0  # bitset of the fronts
    grouped = d >= 3  # else no free vertex with room to join touches two fronts
    front_free = []  # free neighbours of each front, for the group test
    one = two = 0  # free vertices next to at least one, two fronts
    # at d=0 no chosen vertex has a neighbour in R
    m = chosen if d else 0
    while m:
        lsb = m & -m
        m ^= lsb
        a = adj[lsb.bit_length() - 1]
        r = (a & live).bit_count()
        if r > d:
            slack += d - r
        if (a & chosen).bit_count() == front:
            # a front with more than room free neighbours condemns them
            # all, which leaves fewer than need
            if r - front > room:
                return None
            fronts |= lsb
            if grouped:
                fs = a & free
                front_free.append(fs)
                two |= one & fs
                one |= fs
    left = free  # the free vertices not dropped
    # a group condemns only vertices next to two of its fronts or more
    if two:
        left = _wider_groups(front_free, d - 1, room, left, 0, left, 0)
        # vertices dropped so far count in 2e(R) and nowhere else
        m = free & ~left
        while m:
            lsb = m & -m
            m ^= lsb
            slack += (adj[lsb.bit_length() - 1] & live).bit_count()
    weights = []  # of the vertices left
    v, best_c, best_d = -1, -1, -1
    m = left
    while m:
        lsb = m & -m
        u = lsb.bit_length() - 1
        m ^= lsb
        a = adj[u]
        r = (a & live).bit_count()
        slack += r
        du = (a & free).bit_count()
        c = r - du
        # no free vertex has more than d chosen neighbours, so every one
        # with d gets past the first test
        if c >= best_c:
            if c == d:
                # including u saturates u and every front next to it
                if du >= room:
                    left ^= lsb
                    continue
                nb = a & fronts
                if nb:
                    gone = a & free
                    while nb:
                        low = nb & -nb
                        nb ^= low
                        gone |= adj[low.bit_length() - 1] & free
                    if gone.bit_count() > room:
                        left ^= lsb
                        continue
            if c > best_c or du > best_d:
                best_c, best_d, v = c, du, u
        weights.append(2 * r - d if r > d else r)
    # a better completion takes need of the vertices left, and weights are
    # nonnegative, so it needs the need smallest weights to fit in the slack
    if len(weights) < need:
        return None
    if need > 0:
        weights.sort()
        if sum(weights[:need]) > slack:
            return None
    push((left & ~(1 << v), chosen))
    push(_degd_include(adj, d, left, chosen, v))
    return None


def _wider_groups(front_free, more, room, left, start, common, union):
    """``left`` less every free vertex next to all fronts of a group whose
    free neighbourhoods together hold more than room vertices.

    The group so far has ``common`` next to all of its fronts and ``union``
    next to any; it grows by up to ``more`` fronts of ``front_free`` from
    ``start`` on.  From the empty group (``common`` = ``left``, ``union`` =
    0) every group of up to ``more`` fronts is tested.  The test only gets
    easier to pass as a group grows, so a group that passes is not
    extended, and only groups with a common neighbour in ``left`` are.
    """
    for j in range(start, len(front_free)):
        both = common & front_free[j] & left
        if both:
            wider = union | front_free[j]
            if wider.bit_count() > room:
                left &= ~both
            elif more > 1:
                left = _wider_groups(front_free, more - 1, room, left, j + 1, both, wider)
    return left


def _degd_include(adj, d, free, chosen, v):
    """The state with free vertex v chosen.

    Every free vertex can join, v included; including v keeps that true
    once free vertices that would break a degree go out.
    """
    vbit = 1 << v
    nchosen = chosen | vbit
    nfree = free & ~vbit
    a = adj[v]
    m = a & nfree
    while m:
        lsb = m & -m
        m ^= lsb
        if (adj[lsb.bit_length() - 1] & nchosen).bit_count() > d:
            nfree &= ~lsb
    # saturated chosen vertices forbid their whole undecided neighbourhood
    m = (a & chosen) | vbit
    while m:
        lsb = m & -m
        m ^= lsb
        b = adj[lsb.bit_length() - 1]
        if (b & nchosen).bit_count() == d:
            nfree &= ~b
    return nfree, nchosen


# ---------------------------------------------------------------------------
# search driver, shared by both engines
# ---------------------------------------------------------------------------


def _engine(adj, d):
    """(start, expand) for d, the one place that picks an engine.

    ``start(free, chosen)`` builds the state with ``free`` undecided and
    ``chosen`` in, where every free vertex can join and, at d=1, every
    chosen vertex has a chosen neighbour; no other code builds a state
    anew.  ``expand(state, incumbent, push)`` is the node function.  It
    pushes nothing when the node's bound is at most ``incumbent``, and
    returns the witness of the endgame's exact optimum when the endgame
    applies.  Otherwise it passes the exclude child and then the include
    child to ``push``, so on a stack the include child comes off first.
    It returns None whenever it returns no witness.
    """
    if d == 1:
        return _deg1_engine(adj)
    return (lambda free, chosen: (free, chosen)), partial(_degd_expand, adj, d)


def _run_search(expand, roots, witness, max_nodes, deadline):
    """Depth-first search from ``roots``, the first on top; (witness, nodes, completed).

    ``witness`` is the seed: its size primes pruning, and it comes back
    unless the search builds a larger set, so the result is always a real
    set.  The incumbent and the limits, numbers that are math.inf when
    unset, carry across roots.  Only the limits stop a search early: a
    bound that closes the instance does so before the search, in _solve.
    """
    incumbent = witness.bit_count()
    nodes = 0
    # one test per node: past ``limit`` the budget is spent or a deadline
    # check is due
    limit = min(_DEADLINE_INTERVAL - 1, max_nodes)
    stack = roots[::-1]
    push, pop = stack.append, stack.pop
    while stack:
        nodes += 1
        if nodes > limit:
            if nodes > max_nodes or time.monotonic() > deadline:
                return witness, nodes, False
            limit = min(nodes + _DEADLINE_INTERVAL - 1, max_nodes)
        wit = expand(pop(), incumbent, push)
        if wit is not None and wit.bit_count() > incumbent:
            incumbent = wit.bit_count()
            witness = wit
    return witness, nodes, True


def _solve(g, d, budget, seed_witness, roots=None, stop_at=math.inf, bound_source=None):
    """The one search path behind solve and solve_kneser, in one process.

    ``seed_witness`` None takes the greedy set.  The seed primes pruning and
    is the answer unless the search builds a larger set.  Unset limits
    become math.inf, and the one search counts every node, so a node budget
    holds exactly.  ``roots`` None searches from the root ``start`` builds
    with every vertex undecided; otherwise ``roots(start, expand, seed
    size)`` gives the states to search from.  A seed that reaches
    ``stop_at`` is optimal by the bound: no engine is built, no search runs
    and ``roots`` is not called.  Otherwise the search runs to the end or
    the budget, and a witness that reaches ``stop_at`` is optimal by the
    bound even when the budget cut the search.
    """
    require_int("d", d, 0)
    budget = budget or UNLIMITED
    adj = g.adj
    if seed_witness is None:
        seed_witness = _greedy_seed(adj, d)
    started = time.monotonic()
    max_nodes = math.inf if budget.max_nodes is None else budget.max_nodes
    deadline = started + (math.inf if budget.max_time is None else budget.max_time)

    witness, nodes, completed = seed_witness, 0, True
    seed_size = seed_witness.bit_count()
    if seed_size < stop_at:
        start, expand = _engine(adj, d)
        starts = [start(g.full_mask, 0)] if roots is None else roots(start, expand, seed_size)
        witness, nodes, completed = _run_search(expand, starts, seed_witness, max_nodes, deadline)

    best = witness.bit_count()
    optimal, source = completed, None
    if best >= stop_at:
        optimal, source = True, bound_source
    result = SolveResult(best, witness, optimal, nodes,
                         time.monotonic() - started, source)
    if not check_max_degree(g, witness, d):
        raise AssertionError("solver produced an invalid witness")
    return result


def _greedy_seed(adj, d):
    """Deterministic greedy degree-bounded set: a valid starting incumbent.

    v joins when it has at most d chosen neighbours and none of them has d.
    """
    chosen = 0
    for v, a in enumerate(adj):
        nb = a & chosen
        if nb.bit_count() <= d and all((adj[u] & chosen).bit_count() < d for u in bits(nb)):
            chosen |= 1 << v
    return chosen


def _require_simple(g: GenericGraph) -> None:
    # build_kneser makes a KneserGraph's rows from its centers: no walk
    if not isinstance(g, KneserGraph):
        require_simple(g)


def solve(g: GenericGraph, d: int, budget: SearchBudget | None = None) -> SolveResult:
    """Largest vertex set of g inducing maximum degree <= d, exactly.

    Rows that are not a simple graph's raise DomainError first.
    """
    _require_simple(g)
    return _solve(g, d, budget, None)


def heuristic_lower(g: KneserGraph) -> int:
    """Best known dissociation set of g as a vertex bitset: the center of
    element 1, or all of [2k] choose k, whichever is larger (the center on
    a tie).

    The second induces a perfect matching; for k=2 it equals the optimal
    6-vertex set on the smallest instances.  Both are read off the centers.
    """
    n, k = g.n, g.k
    if math.comb(n - 1, k - 1) >= math.comb(2 * k, k):
        return g.center_mask(1)
    outside = 0  # vertices with an element past 2k
    for c in g.centers[2 * k:]:
        outside |= c
    return g.full_mask & ~outside


def solve_kneser(
    n: int, k: int, d: int = 1, budget: SearchBudget | None = None
) -> SolveResult:
    """solve() on K(n, k) with the symmetry and bound tricks that are sound here.

    At every d >= 1 the search starts with the edge {1..k}, {k+1..2k}
    chosen and branches on orbits of its stabilizer, from a seed as large
    as any independent set (the module docstring says why that is sound).
    The d=1 seed is the best known construction, and no search runs once
    it meets the bound interval's upper end.  The d >= 2 seed is the larger
    of a center and the greedy set.  For d=0 the center meets the
    Erdos-Ko-Rado bound, so no search runs.
    """
    require_int("d", d, 0)  # before the build, which may be large
    # read from kneser at each call, so a later patch of kneser.build_kneser
    # (a tracer's wrapper, say) applies here, and so does its undo
    g = kneser.build_kneser(n, k)
    if d == 0:
        # Erdos-Ko-Rado: a center is a maximum independent set
        return _solve(g, d, budget, g.center_mask(1), None,
                      bounds.alpha_kneser(n, k), "independence_number")
    # None takes the greedy seed: on K(n, 1) at d=1, a complete graph, it is
    # an edge, 2 > alpha
    seed_witness, stop_at, bound_source = None, math.inf, None
    if d == 1 and k >= 2:
        rep = bounds.report(n, k)
        stop_at = rep.best_upper
        bound_source = next(
            b.name for b in rep.upper_bounds if b.value == rep.best_upper
        )
        seed_witness = heuristic_lower(g)
    elif d >= 2:
        # the seed needs alpha vertices, which a center has whatever the
        # vertex order; at d >= the degree the greedy set is the whole
        # graph.  On a tie the center wins
        seed_witness = max(g.center_mask(1), _greedy_seed(g.adj, d), key=int.bit_count)
    return _solve(g, d, budget, seed_witness, partial(_edge_orbit_roots, g, d),
                  stop_at, bound_source)


def _edge_type_layers(g: KneserGraph) -> list[list[int]]:
    """[xs, ys], bit-sliced counts over the centers: xs[a] holds the vertices
    with exactly a elements in x = {1..k}, ys[b] those with b in y."""
    k = g.k
    out = []
    for centers in (g.centers[:k], g.centers[k:2 * k]):
        layers = [g.full_mask] + [0] * k
        for c in centers:
            for a in range(k, 0, -1):
                layers[a] = layers[a] & ~c | layers[a - 1] & c
            layers[0] &= ~c
        out.append(layers)
    return out


def _edge_orbit_roots(g: KneserGraph, d: int, start, expand, incumbent: int) -> list[tuple]:
    """solve_kneser's roots at d >= 1 (the module docstring says why).

    Each root is the engine's include child of the state left so far, and
    then its branch vertex's orbit leaves the free set.  The state left goes
    on from the exclude child's other entries: the same chosen set, and at
    d=1 counters caught up on the current free set, so each orbit's rows
    are subtracted once.  The endgame state is the last root, unless the
    bound prunes against ``incumbent`` first.
    """
    k, adj = g.k, g.adj
    x, y = g.vertex_index(range(1, k + 1)), g.vertex_index(range(k + 1, 2 * k + 1))
    # the free set the include rule leaves after x and then y (module docstring)
    state = start(*_degd_include(adj, d, *_degd_include(adj, d, g.full_mask, 0, x), y))
    xs, ys = _edge_type_layers(g)
    low = (1 << k) - 1
    roots = []
    while True:
        kids = []  # the exclude child, then the include child
        if expand(state, incumbent, kids.append) is not None:
            roots.append(state)  # the endgame
        if not kids:
            return roots
        exclude, include = kids
        roots.append(include)
        # the chosen set is the last entry of either engine's state
        v = (include[-1] ^ state[-1]).bit_length() - 1
        m = g.vertices[v].mask
        a, b = (m & low).bit_count(), (m >> k & low).bit_count()
        state = (state[0] & ~(xs[a] & ys[b] | xs[b] & ys[a]),) + exclude[1:]


def brute_force(g: GenericGraph, d: int) -> int:
    """Oracle: exhaustive enumeration with early degree-violation pruning.

    A branch is cut only when taking every undecided vertex could not beat
    the best set found, so the oracle shares no bound with the engines.
    Rows that are not a simple graph's raise DomainError first.
    """
    _require_simple(g)
    if g.order > BRUTE_FORCE_CAP:
        raise CapacityError(f"brute force capped at {BRUTE_FORCE_CAP} vertices")
    require_int("d", d, 0)
    adj = g.adj
    order = g.order
    best = 0
    degs = [0] * order

    def rec(i: int, chosen: int, size: int):
        nonlocal best
        if size + order - i <= best:
            return
        if i == order:
            best = size
            return
        # include i when neither i nor any chosen vertex would exceed d
        nb = adj[i] & chosen
        feasible = nb.bit_count() <= d
        if feasible:
            for u in bits(nb):
                if degs[u] + 1 > d:
                    feasible = False
                    break
        if feasible:
            for u in bits(nb):
                degs[u] += 1
            degs[i] = nb.bit_count()
            rec(i + 1, chosen | (1 << i), size + 1)
            for u in bits(nb):
                degs[u] -= 1
            degs[i] = 0
        rec(i + 1, chosen, size)

    rec(0, 0, 0)
    return best


def psi3(g: GenericGraph, budget: SearchBudget | None = None) -> tuple[int, bool]:
    """3-path vertex cover number as |V| - diss, with an optimality flag."""
    r = solve(g, 1, budget)
    return g.order - r.best_size, r.optimal
