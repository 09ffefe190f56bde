"""Workload ``search``: exact solves through the library.

The search does almost all the work here and graph building very little,
so changes to the engines, the bounds they prune with and the worker pool
show here and nowhere else.  The instances are fixed, so node counts with
one worker repeat exactly; the seed only orders the operations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import oracle
from runner import Op

BUDGET = 20_000  # nodes for each open search

# (n, k) solved at d=1 through both solve and solve_kneser
D1_GRAPHS = ((5, 2), (6, 2), (7, 2), (8, 2), (9, 2), (7, 3), (8, 3), (9, 3))
# general-d engine through solve on graphs of at most 21 vertices
SMALL_DD = tuple((n, 2, d) for n in (5, 6, 7) for d in (0, 2, 3))
# general-d engine through both solve and solve_kneser
DD_BOTH = tuple((n, 2, d) for n in (8, 9) for d in (2, 3))
# general-d engine through solve_kneser only
DD_KNESER = ((7, 3, 2), (9, 3, 0), (10, 4, 0))
OPEN = ((9, 4), (10, 4))
PARALLEL = (8, 3)  # solved with 2 workers; also solved with 1 in D1_GRAPHS

REDUCED = dict(
    d1=((5, 2), (6, 2), (7, 2), (7, 3)),
    small_dd=((5, 2, 0), (6, 2, 2), (7, 2, 3)),
    dd_both=((8, 2, 2),),
    dd_kneser=((9, 3, 0),),
    open=((9, 4),),
    parallel=(7, 3),
    budget=500,
)

# own exact search is run on every graph of at most this many vertices,
# and on the general-d instances where it takes well under a second
EXHAUSTIVE_ORDER = 21
EXACT_EXTRA = {(7, 3, 2), (8, 2, 2), (8, 2, 3), (9, 2, 2), (9, 2, 3)}

PARTS = ("d1_solve_s", "dd_solve_s", "open_search_s", "parallel_solve_s")


@dataclass(frozen=True)
class Case:
    api: str  # solve / kneser / pool
    n: int
    k: int
    d: int
    budget: int | None = None

    @property
    def label(self) -> str:
        tail = "-budget" if self.budget is not None else ""
        return f"{self.api}-K{self.n}-{self.k}-d{self.d}{tail}"


def cases(reduced: bool = False) -> list[tuple[Case, str]]:
    sets = REDUCED if reduced else dict(
        d1=D1_GRAPHS, small_dd=SMALL_DD, dd_both=DD_BOTH, dd_kneser=DD_KNESER,
        open=OPEN, parallel=PARALLEL, budget=BUDGET)
    out = []
    for n, k in sets["d1"]:
        out += [(Case("solve", n, k, 1), "d1_solve_s"), (Case("kneser", n, k, 1), "d1_solve_s")]
    out += [(Case("solve", n, k, d), "dd_solve_s") for n, k, d in sets["small_dd"]]
    for n, k, d in sets["dd_both"]:
        out += [(Case("solve", n, k, d), "dd_solve_s"), (Case("kneser", n, k, d), "dd_solve_s")]
    out += [(Case("kneser", n, k, d), "dd_solve_s") for n, k, d in sets["dd_kneser"]]
    out += [(Case("kneser", n, k, 1, sets["budget"]), "open_search_s") for n, k in sets["open"]]
    out.append((Case("pool", *sets["parallel"], 1), "parallel_solve_s"))
    return out


def node_metric_names() -> list[str]:
    """Per-instance node counts reported by the traced run (1 worker)."""
    return [f"solver.nodes.{c.label}" for c, _ in cases() if c.api != "pool"]


class Search:
    kernel = "interpreter"  # hostspeed.py
    aggregate = {part: sum for part in PARTS}

    def __init__(self, kd, seed: int, workdir: str, reduced: bool = False):
        self.kd = kd
        chosen = cases(reduced)
        random.Random(seed).shuffle(chosen)
        self.cases = chosen
        self.graphs = {(c.n, c.k): kd.build_kneser(c.n, c.k)
                       for c, _ in chosen if c.api != "kneser"}
        self.refs = None

    # -- references, computed once per run and never timed ---------------

    def references(self):
        refs = {}
        for c, _ in self.cases:
            key = (c.n, c.k, c.d)
            if key in refs:
                continue
            verts = oracle.subsets(c.n, c.k)
            order, delta = len(verts), oracle.kneser_degree(c.n, c.k)
            exact = None
            if c.budget is None and (order <= EXHAUSTIVE_ORDER or key in EXACT_EXTRA):
                adj = oracle.kneser_adjacency(c.n, c.k)
                exact = oracle.max_bounded_degree_set(adj, c.d, fix_first=order > EXHAUSTIVE_ORDER)[0]
            elif c.d == 1:
                exact = oracle.diss_theorem(c.n, c.k)
            elif c.d == 0:
                exact = oracle.ekr(c.n, c.k)
            refs[key] = dict(verts=verts, exact=exact,
                             upper=oracle.regular_bound(order, delta, c.d),
                             lower=oracle.ekr(c.n, c.k))
        self.refs = refs
        return refs

    # -- operations -------------------------------------------------------

    def ops(self) -> list[Op]:
        if self.refs is None:
            self.references()
        return [Op(c.label, part, self._runner(c), self._checker(c), keep=_summary)
                for c, part in self.cases]

    def _runner(self, c: Case):
        kd = self.kd
        if c.api == "kneser":
            budget = kd.SearchBudget(max_nodes=c.budget) if c.budget else None
            return lambda: kd.solve_kneser(c.n, c.k, c.d, budget)
        g = self.graphs[(c.n, c.k)]
        budget = kd.SearchBudget(thread_count=2) if c.api == "pool" else None
        return lambda: kd.solve(g, c.d, budget)

    def _checker(self, c: Case):
        ref = self.refs[(c.n, c.k, c.d)]

        def check(res) -> list[str]:
            return check_result(c, res, ref)

        return check

    # -- checks across the operations of one pass -------------------------

    def pass_checks(self, result, first) -> list[str]:
        return pass_checks(result, first)

    def layer_figures(self, result) -> dict:
        ops = result.by_label()
        out = {f"solver.nodes.{r.label}": r.value["nodes"]
               for r in result.ops if r.value is not None and not r.label.startswith("pool-")}
        pool = next((r for r in result.ops if r.label.startswith("pool-")), None)
        if pool is not None:
            serial = ops.get(pool.label.replace("pool-", "solve-", 1))
            if serial is not None:
                out["solver.pool_overhead_s"] = pool.seconds - serial.seconds
        return out


def _summary(res):
    return {"size": res.best_size, "nodes": res.nodes_explored, "optimal": res.optimal}


def check_result(c: Case, res, ref) -> list[str]:
    """Problems with one solve, judged only by the benchmark's own arithmetic."""
    problems = []
    verts = ref["verts"]
    if res.witness >> len(verts):
        return [f"witness has bits beyond the {len(verts)} vertices"]
    members = [verts[i] for i in oracle.bit_indices(res.witness)]
    if len(members) != res.best_size:
        problems.append(f"size {res.best_size} but the witness has {len(members)} vertices")
    degree = oracle.max_induced_degree(members)
    if degree > c.d:
        problems.append(f"witness induces degree {degree} > {c.d}")
    if res.best_size > ref["upper"]:
        problems.append(f"size {res.best_size} above the regular-graph bound {ref['upper']}")
    if res.best_size < ref["lower"] and c.d >= 1:
        problems.append(f"size {res.best_size} below the independence number {ref['lower']}")
    if c.budget is None:
        if not res.optimal:
            problems.append("exact solve returned optimal=False")
        if ref["exact"] is not None and res.best_size != ref["exact"]:
            problems.append(f"size {res.best_size}, expected {ref['exact']}")
    else:
        if not res.optimal and res.nodes_explored > c.budget + 1:
            problems.append(f"{res.nodes_explored} nodes under a budget of {c.budget}")
        pinned = oracle.diss_theorem(c.n, c.k)
        if pinned is not None and res.best_size != pinned:
            problems.append(f"size {res.best_size}, the theorem value is {pinned}")
        if res.optimal and ref["exact"] is not None and res.best_size != ref["exact"]:
            problems.append(f"optimal size {res.best_size}, expected {ref['exact']}")
    return problems


def pass_checks(result, first=None) -> list[str]:
    """Monotonicity in d, solve against solve_kneser, repeatable node counts."""
    problems = []
    sizes = {}
    for r in result.ops:
        if r.value is None or r.label.endswith("-budget"):
            continue
        api, graph, d = r.label.split("-", 1)[0], *r.label.split("-", 1)[1].rsplit("-d", 1)
        sizes.setdefault(graph, {}).setdefault(int(d), {})[api] = r.value["size"]
    for graph, by_d in sizes.items():
        for d, by_api in by_d.items():
            if len(set(by_api.values())) > 1:
                problems.append(f"{graph} d={d}: the APIs disagree: {by_api}")
        ordered = [max(by_d[d].values()) for d in sorted(by_d)]
        if ordered != sorted(ordered):
            problems.append(f"{graph}: sizes not monotone in d: {dict(sorted(by_d.items()))}")
    if first is not None:
        before = {r.label: r.value["nodes"] for r in first.ops
                  if r.value is not None and not r.label.startswith("pool-")}
        for r in result.ops:
            if r.label in before and r.value is not None and r.value["nodes"] != before[r.label]:
                problems.append(f"{r.label}: {r.value['nodes']} nodes, {before[r.label]} in the first pass")
    return problems
