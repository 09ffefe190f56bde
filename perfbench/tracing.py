"""In-memory spans around the package's public functions.

``Tracer.instrument`` replaces a function in every kneserdiss module that
binds it, so callers inside the package see the wrapper too (``solver``
calls ``build_kneser`` and ``check_max_degree`` by their imported names).
Each call records a span: name, start, end, parent span and the benchmark
operation it ran under.  A span's self time is its duration minus the
durations of its direct children; calls on one thread nest, so children
never overlap.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute, span name); a dotted module path ending in a class
# name instruments a method.
TARGETS = (
    ("kneserdiss.kneser", "enumerate_k_subsets", "kneser.enumerate"),
    ("kneserdiss.kneser", "build_kneser", "kneser.build"),
    ("kneserdiss.kneser.KneserGraph", "center_mask", "kneser.center"),
    ("kneserdiss.kneser", "edge_nonneighbors", "kneser.center"),
    ("kneserdiss.kneser", "kneser_to_json", "kneser.json"),
    ("kneserdiss.kneser", "kneser_from_json", "kneser.json"),
    ("kneserdiss.bounds", "report", "bounds.report"),
    ("kneserdiss.solver", "heuristic_lower", "solver.seed"),
    ("kneserdiss.solver", "_greedy_seed", "solver.seed"),
    ("kneserdiss.solver", "solve", "solver.solve"),
    ("kneserdiss.solver", "solve_kneser", "solver.solve"),
    ("kneserdiss.certify", "check_max_degree", "certify.check"),
    ("kneserdiss.certify", "check_p3_cover", "certify.check"),
    ("kneserdiss.certify", "odd_expansion_check", "certify.oracle"),
    ("kneserdiss.certify", "find_x_matching", "certify.oracle"),
    ("kneserdiss.certify", "max_substrings", "certify.oracle"),
    ("kneserdiss.certify", "double_count_identity", "certify.oracle"),
    ("kneserdiss.graphs", "read_dimacs", "graphs.io"),
    ("kneserdiss.graphs", "write_dimacs", "graphs.io"),
    ("kneserdiss.certificates", "certificate_from_json", "certificates.parse"),
    ("kneserdiss.cli", "main", "cli.main"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "info")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.info = None

    def as_dict(self):
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op, "info": self.info}


def _solve_info(args, kwargs, result):
    budget = kwargs.get("budget")
    if budget is None:
        # solve(g, d, budget) / solve_kneser(n, k, d, budget)
        budget = next((a for a in args if hasattr(a, "thread_count")), None)
    workers = budget.thread_count if budget is not None else 1
    return {"nodes": result.nodes_explored, "workers": workers}


def _build_info(args, kwargs, result):
    return {"adjacency_bytes": sum(sys.getsizeof(row) for row in result.adj)}


INFO = {"solve": _solve_info, "solve_kneser": _solve_info, "build_kneser": _build_info}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, fn, name, info):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = Span(name, time.perf_counter(), stack[-1] if stack else -1, self.op)
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return traced

    def instrument(self, targets=TARGETS):
        """Wrap every target wherever a loaded kneserdiss module binds it."""
        modules = [m for key, m in sys.modules.items()
                   if key == "kneserdiss" or key.startswith("kneserdiss.")]
        for owner_path, attr, name in targets:
            owner = _resolve(owner_path)
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, INFO.get(attr))
            holders = [owner] if isinstance(owner, type) else [
                m for m in modules if getattr(m, attr, None) is original]
            for holder in holders:
                self._undo.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def restore(self):
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()

    def __enter__(self):
        self.instrument()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def self_times(self) -> list[float]:
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own


def _resolve(path: str):
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        mod = sys.modules.get(".".join(parts[:cut]))
        if mod is not None:
            obj = mod
            for attr in parts[cut:]:
                obj = getattr(obj, attr)
            return obj
    raise LookupError(f"{path} is not loaded")


# (metric, unit) derived from the spans of one traced pass
LAYER_METRICS = (
    ("kneser.enumerate_s", "s"),
    ("kneser.build_s", "s"),
    ("kneser.center_s", "s"),
    ("kneser.json_s", "s"),
    ("kneser.adjacency_bytes", "B"),
    ("bounds.report_s", "s"),
    ("bounds.report_calls", "count"),
    ("solver.seed_s", "s"),
    ("solver.search_s", "s"),
    ("solver.nodes", "count"),
    ("solver.nodes_per_s", "1/s"),
    ("solver.witness_check_s", "s"),
    ("solver.pool_nodes", "count"),
    ("certify.check_s", "s"),
    ("certify.oracle_s", "s"),
    ("certify.oracle_calls", "count"),
    ("graphs.io_s", "s"),
    ("certificates.parse_s", "s"),
    ("cli.main_s", "s"),
    ("trace.spans", "count"),
)

_SELF_TIME_OF = {
    "kneser.enumerate_s": "kneser.enumerate",
    "kneser.build_s": "kneser.build",
    "kneser.center_s": "kneser.center",
    "kneser.json_s": "kneser.json",
    "bounds.report_s": "bounds.report",
    "solver.seed_s": "solver.seed",
    "certify.oracle_s": "certify.oracle",
    "graphs.io_s": "graphs.io",
    "certificates.parse_s": "certificates.parse",
}


def layer_figures(tracer: Tracer) -> dict:
    """Per-layer figures of one traced pass: self times, calls, counters.

    A solve with one worker is search; its ``check_max_degree`` children
    are the witness check.  A solve with more workers counts as pool work.
    ``cli.main_s`` is the whole in-process ``main``, children included.
    """
    spans, own = tracer.spans, tracer.self_times()
    out = {name: 0 for name, _ in LAYER_METRICS}
    for i, s in enumerate(spans):
        for metric, span_name in _SELF_TIME_OF.items():
            if s.name == span_name:
                out[metric] += own[i]
        if s.name == "bounds.report":
            out["bounds.report_calls"] += 1
        elif s.name == "certify.oracle":
            out["certify.oracle_calls"] += 1
        elif s.name == "kneser.build":
            out["kneser.adjacency_bytes"] = max(out["kneser.adjacency_bytes"],
                                                s.info["adjacency_bytes"])
        elif s.name == "cli.main":
            out["cli.main_s"] += s.end - s.start
        elif s.name == "certify.check":
            under_solver = s.parent >= 0 and spans[s.parent].name == "solver.solve"
            out["solver.witness_check_s" if under_solver else "certify.check_s"] += own[i]
        elif s.name == "solver.solve" and s.info is not None:
            if s.info["workers"] == 1:
                out["solver.search_s"] += own[i]
                out["solver.nodes"] += s.info["nodes"]
            else:
                out["solver.pool_nodes"] += s.info["nodes"]
    if out["solver.search_s"] > 0:
        out["solver.nodes_per_s"] = out["solver.nodes"] / out["solver.search_s"]
    out["trace.spans"] = len(spans)
    return out
