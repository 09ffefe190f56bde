"""Workload ``graph-core``: build graphs, query and check them, no search.

Adjacency build, memory and certificate checking dominate here and the
search is absent, which makes this the mirror of ``search``.  The builds
fall on both sides of the package's switch from its Python loop to its
numpy path at 1,024 vertices.  The seed picks the vertex sets checked,
the sampled vertices and pairs, the edge whose non-neighbours are taken,
and the order of the bound-report sweep.
"""

from __future__ import annotations

import json
import random

import oracle
from runner import Op

BUILDS = ((12, 5), (13, 5), (17, 6), (20, 6))
DIMACS_ON = {(12, 5), (13, 5)}  # larger graphs have millions of edges
JSON_ON = {(12, 5), (13, 5), (17, 6)}
REPORT_SWEEP = tuple((n, k) for k in range(2, 7) for n in range(2 * k, 2 * k + 11))

REDUCED_BUILDS = ((9, 4), (13, 5))
REDUCED_SWEEP = ((4, 2), (9, 3), (13, 5))

SAMPLES = 48  # vertices and vertex pairs spot-checked per graph

PARTS = ("build_s", "certify_s", "io_s")


class GraphCore:
    kernel = "vector"  # hostspeed.py
    aggregate = {part: sum for part in PARTS}

    def __init__(self, kd, seed: int, workdir: str, reduced: bool = False):
        self.kd = kd
        rng = random.Random(seed)
        self.builds = REDUCED_BUILDS if reduced else BUILDS
        sweep = list(REDUCED_SWEEP if reduced else REPORT_SWEEP)
        rng.shuffle(sweep)
        self.sweep = sweep
        self.inputs = {nk: _make_inputs(*nk, rng) for nk in self.builds}
        self.state = {}

    def ops(self) -> list[Op]:
        ops = []
        for n, k in self.builds:
            ops += self._graph_ops(n, k, self.inputs[(n, k)])
        ops.append(Op("bounds-sweep", "certify_s", self._sweep, self._check_sweep))
        return ops

    def pass_checks(self, result, first) -> list[str]:
        return []

    def layer_figures(self, result) -> dict:
        return {}

    # -- one graph ----------------------------------------------------------

    def _graph_ops(self, n, k, inp):
        kd, st = self.kd, self.state
        tag = f"K{n}-{k}"

        def build():
            st.clear()  # drop the previous graph before the next is built
            st["g"] = kd.build_kneser(n, k)
            return st["g"]

        def centers():
            g = st["g"]
            return ([g.center_mask(e) for e in inp["elements"]],
                    kd.edge_nonneighbors(g, inp["x"], inp["y"]))

        def degree_checks():
            g = st["g"]
            return [kd.check_max_degree(g, s, d) for s, d in inp["degree_cases"]]

        def cover_checks():
            g = st["g"]
            return [kd.check_p3_cover(g, g.full_mask & ~s) for s in inp["cover_cases"]]

        ops = [
            Op(f"build-{tag}", "build_s", build, lambda g: check_graph(g, n, k, inp)),
            Op(f"centers-{tag}", "certify_s", centers, lambda out: check_centers(out, n, k, inp)),
            Op(f"check-degree-{tag}", "certify_s", degree_checks,
               lambda out: _expect(out, inp["degree_expected"], "check_max_degree")),
            Op(f"check-p3-{tag}", "certify_s", cover_checks,
               lambda out: _expect(out, inp["cover_expected"], "check_p3_cover")),
        ]
        if (n, k) in DIMACS_ON:
            def dimacs():
                g = st["g"]
                text = kd.write_dimacs(g)
                return text, kd.read_dimacs(text), g
            ops.append(Op(f"dimacs-{tag}", "io_s", dimacs, lambda out: check_dimacs(out, n, k)))
        if (n, k) in JSON_ON:
            def graph_json():
                g = st["g"]
                text = kd.kneser_to_json(g)
                return text, kd.kneser_from_json(text), g
            ops.append(Op(f"json-{tag}", "io_s", graph_json, lambda out: check_json(out, n, k)))

        def certificate_json():
            cert = kd.Certificate(d=0, members=inp["cert_members"], n=n, k=k)
            return kd.certificate_from_json(cert.to_json())
        ops.append(Op(f"cert-json-{tag}", "io_s", certificate_json,
                      lambda c: check_certificate(c, inp["cert_members"])))
        return ops

    # -- bound reports ------------------------------------------------------

    def _sweep(self):
        return [self.kd.report(n, k) for n, k in self.sweep]

    def _check_sweep(self, reports) -> list[str]:
        problems = []
        for (n, k), rep in zip(self.sweep, reports):
            alpha = oracle.ekr(n, k)
            exact = oracle.diss_theorem(n, k)
            if rep.alpha != alpha:
                problems.append(f"report({n},{k}).alpha = {rep.alpha}, EKR gives {alpha}")
            if not alpha <= rep.best_lower <= rep.best_upper <= 2 * alpha:
                problems.append(f"report({n},{k}) interval [{rep.best_lower},{rep.best_upper}] "
                                f"outside [{alpha},{2 * alpha}]")
            if exact is not None and not rep.best_lower <= exact <= rep.best_upper:
                problems.append(f"report({n},{k}) interval excludes the theorem value {exact}")
        return problems


def _make_inputs(n, k, rng):
    """Vertex sets and samples from the benchmark's own enumeration of K(n,k)."""
    verts = oracle.subsets(n, k)
    e = rng.randint(1, n)
    star = [i for i, v in enumerate(verts) if e in v]
    part = sorted(rng.sample(star, len(star) // 2))
    independent = sum(1 << i for i in part)  # all members share e
    # one vertex outside the star; its degree into the half-star is counted here
    members = [set(verts[i]) for i in part]
    outside = [i for i, v in enumerate(verts) if e not in v]
    w = rng.choice(outside)
    deg_w = sum(1 for m in members if m.isdisjoint(verts[w]))
    spoiled = independent | 1 << w
    x = tuple(sorted(rng.sample(range(1, n + 1), k)))
    y = tuple(sorted(rng.sample(sorted(set(range(1, n + 1)) - set(x)), k)))
    elements = sorted(rng.sample(range(1, n + 1), 2))
    return dict(
        samples=[(i, verts[i]) for i in rng.sample(range(len(verts)), SAMPLES)],
        pairs=[(i, j, oracle.disjoint(verts[i], verts[j]))
               for i, j in (rng.sample(range(len(verts)), 2) for _ in range(SAMPLES))],
        elements=elements,
        x=x, y=y,
        # (set, d): the independent half-star at d=0, and with one outside
        # vertex added, at d=0 (invalid when it has a neighbour), at
        # d = its degree (valid) and at one below (invalid)
        degree_cases=[(independent, 0), (spoiled, 0), (spoiled, deg_w), (spoiled, max(deg_w - 1, 0))],
        degree_expected=[True, deg_w == 0, True, deg_w <= max(deg_w - 1, 0)],
        # removing a cover leaves the given set, which must induce degree <= 1
        cover_cases=[independent, spoiled],
        cover_expected=[True, deg_w <= 1],
        cert_members=tuple(verts[i] for i in part[:64]),
    )


def _expect(got, expected, what) -> list[str]:
    return [f"{what} case {i}: got {g}, expected {e}"
            for i, (g, e) in enumerate(zip(got, expected)) if g != e]


def check_graph(g, n, k, inp) -> list[str]:
    problems = []
    if g.order != oracle.pascal(n, k):
        problems.append(f"order {g.order}, C({n},{k}) = {oracle.pascal(n, k)}")
        return problems
    deg = oracle.kneser_degree(n, k)
    for i, v in inp["samples"]:
        if g.vertices[i].elements != v:
            problems.append(f"vertex {i} is {g.vertices[i].elements}, lexicographic order gives {v}")
        if g.degree(i) != deg:
            problems.append(f"vertex {i} has degree {g.degree(i)}, C({n - k},{k}) = {deg}")
    for i, j, adjacent in inp["pairs"]:
        if g.has_edge(i, j) != adjacent:
            problems.append(f"edge ({i},{j}) is {g.has_edge(i, j)}, disjointness says {adjacent}")
    return problems


def check_centers(out, n, k, inp) -> list[str]:
    masks, nonnbrs = out
    problems = []
    star = oracle.pascal(n - 1, k - 1)
    for e, m in zip(inp["elements"], masks):
        if m.bit_count() != star:
            problems.append(f"center of {e} has {m.bit_count()} vertices, C({n - 1},{k - 1}) = {star}")
        for i, v in inp["samples"]:
            if bool(m >> i & 1) != (e in v):
                problems.append(f"center of {e} is wrong at vertex {i} = {v}")
    want = oracle.edge_nonneighbor_size(n, k)
    if nonnbrs.bit_count() != want:
        problems.append(f"edge non-neighbours: {nonnbrs.bit_count()}, inclusion-exclusion gives {want}")
    x, y = set(inp["x"]), set(inp["y"])
    for i, v in inp["samples"]:
        if bool(nonnbrs >> i & 1) != bool(x & set(v) and y & set(v)):
            problems.append(f"edge non-neighbours wrong at vertex {i} = {v}")
    return problems


def check_dimacs(out, n, k) -> list[str]:
    text, parsed, g = out
    problems = []
    header = text.split("\n", 1)[0].split()
    want = ["p", "edge", str(oracle.pascal(n, k)), str(oracle.edge_count(n, k))]
    if header != want:
        problems.append(f"DIMACS header {header}, expected {want}")
    verts = oracle.subsets(n, k)
    for line in text.splitlines()[1:200]:
        _, u, v = line.split()
        if not oracle.disjoint(verts[int(u) - 1], verts[int(v) - 1]):
            problems.append(f"DIMACS edge {u} {v} joins intersecting sets")
    if parsed.order != g.order or parsed.adj != g.adj:
        problems.append("read_dimacs(write_dimacs(g)) differs from g")
    return problems


def check_json(out, n, k) -> list[str]:
    text, parsed, g = out
    doc = json.loads(text)
    problems = []
    if (doc.get("n"), doc.get("k")) != (n, k):
        problems.append(f"graph JSON names K({doc.get('n')},{doc.get('k')})")
    if [tuple(v) for v in doc.get("vertices", [])] != oracle.subsets(n, k):
        problems.append("graph JSON vertex list is not the lexicographic k-subsets")
    if parsed.order != g.order or parsed.adj != g.adj:
        problems.append("kneser_from_json(kneser_to_json(g)) differs from g")
    return problems


def check_certificate(cert, members) -> list[str]:
    problems = []
    if cert.d != 0:
        problems.append(f"certificate d = {cert.d}, wrote 0")
    if tuple(cert.members) != tuple(members):
        problems.append("certificate members changed in a JSON round trip")
    return problems
