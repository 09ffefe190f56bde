"""Closed-form bounds and known exact values for the dissociation number of K(n, k).

Everything here is exact integer or rational arithmetic.  Each bound comes
from one of three places: the independence number C(n-1, k-1) of the Kneser
graph, counting arguments around a saturated edge of a dissociation set, or
cyclic-arrangement (Katona-style) double counting.  A BoundReport collects
every bound applicable to a given (n, k) together with the best-known
interval and, where a theorem settles it, the exact value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, floor

from .errors import MAX_VALUE_BITS, CapacityError, SearchFailure, _require_kneser, require_int

# edge_local_upper takes O(k^2) binomials; at k = 30 and the largest n
# MAX_VALUE_BITS admits it takes about 0.1 s, so report skips it past this k
EDGE_LOCAL_MAX_K = 30


def binom(n: int, k: int) -> int:
    """Exact C(n, k); zero when k > n.  Python ints never wrap silently.

    Unlike graph construction, bound arithmetic has no 64-element encoding
    limit; reports stay meaningful for ground sets too big to build.
    Code in this module calls math.comb, whose arguments it has checked.
    """
    require_int("n", n, 0)
    require_int("k", k, 0)
    return comb(n, k)


def alpha_kneser(n: int, k: int) -> int:
    """Independence number of K(n, k): every center has this size."""
    _require_kneser(n, k)
    return comb(n - 1, k - 1)


def subgraph_lower(n: int, k: int) -> int:
    """C(2k, k): the k-subsets of [2k] induce a perfect matching in K(n, k)."""
    _require_kneser(n, k)
    return comb(2 * k, k)


def edge_nonneighbor_count(n: int, k: int) -> int:
    """Number of vertices meeting both endpoints of an edge of K(n, k).

    Counted by composition: a vertex outside N[x] u N[y] takes i elements
    from outside x u y, j >= 1 from x and the remaining k-i-j >= 1 from y.
    It takes O(k^2) binomials, so the bounds use the closed form below and
    this sum stays as the reference the tests hold it to.
    """
    _require_kneser(n, k, min_k=2)
    total = 0
    for i in range(0, k - 1):
        outer = comb(n - 2 * k, i)
        if outer == 0:
            continue
        inner = sum(comb(k, j) * comb(k, k - j - i) for j in range(1, k - i))
        total += outer * inner
    return total


def edge_nonneighbor_closed_form(n: int, k: int) -> int:
    """Same count via inclusion-exclusion on the two closed neighborhoods."""
    _require_kneser(n, k, min_k=2)
    return _closed_form(n, k)


def _closed_form(n: int, k: int) -> int:
    return comb(n, k) - 2 * comb(n - k, k) + comb(n - 2 * k, k)


def nonindependent_upper(n: int, k: int) -> int:
    """Upper bound on any dissociation set that contains an edge.

    Such a set lies inside the edge itself plus the vertices meeting both
    endpoints, hence has at most 2 + edge_nonneighbor_closed_form(n, k)
    vertices.
    """
    return 2 + edge_nonneighbor_closed_form(n, k)


def combined_upper(n: int, k: int) -> int:
    """Sound upper bound for diss(K(n,k)) from the independent-or-not split."""
    return max(alpha_kneser(n, k), nonindependent_upper(n, k))


def edge_local_upper(n: int, k: int) -> int:
    """The case split with degree counting in place of |M|: max(alpha, 2 + t).

    A dissociation set that is not independent holds an edge, by
    edge-transitivity x = {1..k}, y = {k+1..2k}, plus a dissociation set S
    of M, the vertices meeting both.  Degree counting inside M (the
    solver's general-d bound at d = 1, taken at M's root) gives
    sum over S of (2 deg_M(s) - 1) <= 2e(M), so |S| is at most t, the most
    vertices of M whose smallest weights 2 deg_M - 1 fit within 2e(M).

    M is counted by type (a, b, c) = (|v & x|, |v & y|, |v & rest|) with
    a, b >= 1: C(k,a) C(k,b) C(n-2k,c) vertices, each adjacent to the
    k-subsets of its n-k outside elements that meet both x - v and y - v,
    which inclusion-exclusion counts.  Swapping x and y maps type (a, b, c)
    to (b, a, c), so the two are counted together.  No graph is built, but
    the types number O(k^2), so k is capped at EDGE_LOCAL_MAX_K.
    """
    _require_kneser(n, k, min_k=2)
    if k > EDGE_LOCAL_MAX_K:
        raise CapacityError(f"edge-local bound needs k <= {EDGE_LOCAL_MAX_K}, got k={k}")
    r = n - 2 * k
    whole = comb(n - k, k)
    types = []  # (M-degree, vertex count); every argument below is >= 0
    for a in range(1, k):
        for b in range(a, k - a + 1):
            c = k - a - b
            if c <= r:
                # C(r + a, k) subsets of v's outside miss x - v, C(r - c, k) miss both
                deg = whole - comb(r + a, k) - comb(r + b, k) + comb(r - c, k)
                size = comb(k, a) * comb(k, b) * comb(r, c)
                types.append((deg, size if a == b else 2 * size))
    slack = sum(deg * size for deg, size in types)  # 2e(M)
    t = 0
    # smallest weights first.  Every weight is positive: a vertex of M misses
    # an element of x and one of y, and a k-subset of its n - k outside
    # elements holding both is a neighbour in M
    for deg, size in sorted(types):
        weight = 2 * deg - 1
        take = min(size, slack // weight)
        t += take
        slack -= take * weight
        if take < size:  # no later, heavier type fits either
            break
    return max(alpha_kneser(n, k), 2 + t)


def alpha_dominance_threshold(k: int) -> int:
    """Smallest n with alpha >= nonindependent_upper, by ascending scan.

    From this point on a maximum dissociation set must be independent.  The
    scan also verifies the inequality stays true over the whole scanned
    range instead of assuming monotonicity.

    The edge case C(n,k) - 2C(n-k,k) + C(n-2k,k) is a second difference of
    step k, near k^2 * k(k-1)/n^2 * C(n,k), and alpha = k/n * C(n,k), so
    the threshold lies near k^2 (k-1) (826 at k = 10, 25,278 at k = 30).
    The scan runs to 2k^3, twice that, and refuses a k whose largest
    binomial there passes MAX_VALUE_BITS.
    """
    require_int("k", k, 2)
    cap = 2 * k**3
    _require_kneser(cap, k, min_k=2)
    first = None
    for n in range(2 * k, cap + 1):
        holds = comb(n - 1, k - 1) >= 2 + _closed_form(n, k)
        if first is None and holds:
            first = n
        elif first is not None and not holds:
            raise SearchFailure(
                f"alpha dominance not monotone: holds at {first}, fails at {n}"
            )
    if first is None:
        raise SearchFailure(f"no dominance threshold for k={k} up to n={cap}")
    return first


def katona_upper_large_r(n: int, k: int) -> Fraction | None:
    """Cyclic-window bound for n > 3k-2: (k+1)/k * C(n-1,k-1), exactly.

    Applicable when any two disjoint k-windows leave >= k-1 positions over;
    None otherwise.  The report floors it.
    """
    _require_kneser(n, k, min_k=2)
    if n <= 3 * k - 2:
        return None
    return Fraction(k + 1, k) * comb(n - 1, k - 1)


def katona_upper_small_r(n: int, k: int) -> Fraction | None:
    """Cyclic-window bound for 1 <= r = n-2k <= k-2, exactly; None otherwise.

    The double-point frequency enters as k/(2r+1) without rounding up; the
    report floors this (slightly weaker) displayed form.
    """
    _require_kneser(n, k, min_k=2)
    r = n - 2 * k
    if not 1 <= r <= k - 2:
        return None
    return Fraction(2 * (r * k + 2 * r + k + 1), k * (2 * r + 1)) * comb(n - 1, k - 1)


def alpha_equality_lower(k: int) -> int:
    """No n below 2k+2 can have diss = alpha: C(2k,k) > C(n-1,k-1) there."""
    require_int("k", k, 2)
    return 2 * k + 2


# sources for known exact values; names describe the closing argument
SRC_PAIRS = "pairs_closed_form"            # k=2: max(n-1, 6)
SRC_TRIPLES = "triples_equal_independence"  # k=3, n>=8: alpha
SRC_MATCHING = "perfect_matching_graph"     # n=2k: whole vertex set
SRC_ODD = "odd_graph"                       # n=2k+1: C(2k,k)
SRC_CLOSURE = "bound_closure"               # best lower meets best upper


def known_exact(n: int, k: int) -> tuple[int, str] | None:
    """Exact diss(K(n,k)) where a theorem or bound closure settles it."""
    return report(n, k).known_exact


@dataclass(frozen=True)
class BoundEntry:
    name: str
    value: int
    raw: Fraction | None = None

    def as_dict(self) -> dict:
        d = {"name": self.name, "value": self.value}
        if self.raw is not None:
            d["raw"] = str(self.raw)
        return d


@dataclass(frozen=True)
class BoundReport:
    n: int
    k: int
    alpha: int
    lower_bounds: tuple[BoundEntry, ...]
    upper_bounds: tuple[BoundEntry, ...]
    known_exact: tuple[int, str] | None
    best_lower: int
    best_upper: int

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "alpha": self.alpha,
            "lower": [b.as_dict() for b in self.lower_bounds],
            "upper": [b.as_dict() for b in self.upper_bounds],
            "exact": (
                {"value": self.known_exact[0], "source": self.known_exact[1]}
                if self.known_exact
                else None
            ),
            "interval": [self.best_lower, self.best_upper],
        }


def report(n: int, k: int) -> BoundReport:
    """All applicable bounds for (n, k) plus the best-known interval."""
    _require_kneser(n, k, min_k=2)
    alpha = alpha_kneser(n, k)
    lower = [
        BoundEntry("independence_number", alpha),
        BoundEntry("matching_subgraph", subgraph_lower(n, k)),
    ]
    upper = [
        BoundEntry("twice_independence", 2 * alpha),
        BoundEntry("case_split", combined_upper(n, k)),
    ]
    for name, bound in (("katona_large_r", katona_upper_large_r),
                        ("katona_small_r", katona_upper_small_r)):
        frac = bound(n, k)
        if frac is not None:
            upper.append(BoundEntry(name, floor(frac), frac))
    if k <= EDGE_LOCAL_MAX_K:
        # last, so that an older bound it ties stays the one named
        upper.append(BoundEntry("edge_local", edge_local_upper(n, k)))

    # the interval is formed from the bound lists alone; known_exact rides
    # alongside so that solver pruning never quotes the value it must prove
    best_lower = max(b.value for b in lower)
    best_upper = min(b.value for b in upper)
    if best_lower > best_upper:
        raise AssertionError(f"inconsistent bounds for ({n},{k})")
    if k == 2:
        exact = max(n - 1, 6), SRC_PAIRS
    elif k == 3 and n >= 8:
        exact = comb(n - 1, 2), SRC_TRIPLES
    elif n == 2 * k:
        exact = comb(2 * k, k), SRC_MATCHING
    elif n == 2 * k + 1:
        exact = comb(2 * k, k), SRC_ODD
    elif best_lower == best_upper:
        exact = best_lower, SRC_CLOSURE
    else:
        exact = None

    return BoundReport(
        n=n,
        k=k,
        alpha=alpha,
        lower_bounds=tuple(lower),
        upper_bounds=tuple(upper),
        known_exact=exact,
        best_lower=best_lower,
        best_upper=best_upper,
    )
