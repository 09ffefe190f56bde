"""Fast self-check: reduced workloads pass, and every correctness check fires.

    python3 perfbench/run.py --self-check      # or: python3 -m pytest perfbench

Each ``fires_*`` function feeds one family of checks a deliberately
corrupted output and returns the checks that stayed silent; an empty list
means every check caught its corruption.  ``reduced_*`` runs a workload on
its reduced instance set and returns the problems found.
"""

from __future__ import annotations

import dataclasses
import json
import random
import subprocess
import sys

import oracle
import runner
import wl_cli
import wl_graph_core
import wl_search


def _package():
    import run
    return run, run.load_package()


def _silent(label, problems) -> list[str]:
    return [] if problems else [f"{label}: no problem reported"]


# -- reduced workloads ------------------------------------------------------


def reduced_run(workload: str) -> list[str]:
    """Warm-up, untraced and traced pass of a reduced workload, all checked."""
    run, _ = _package()
    report = run.run(workload, seed=7, seconds=0, trace=True, reduced=True)
    problems = list(report["problems"])
    rounds = report["passes"] + 1  # the warm-up pass is checked too
    want = 2 * rounds if workload == "cli" else 0  # the two known verify faults
    if report["failed"] != want:
        problems.append(f"{workload}: {report['failed']} failed operations, expected {want}")
    names = {name for name, _ in run.per_layer_metrics()}
    if set(report["metrics"]) != names:
        problems.append(f"{workload}: traced metrics differ from the per-layer list")
    return problems


def benchmark_json_lists_metrics() -> list[str]:
    run, _ = _package()
    with open(f"{run.ROOT}/BENCHMARK.json") as fh:
        spec = json.load(fh)
    problems = []
    if [m["name"] for m in spec["end_to_end"]] != [name for name, _ in run.END_TO_END]:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if [(m["name"], m["unit"]) for m in spec["per_layer"]] != run.per_layer_metrics():
        problems.append("BENCHMARK.json per_layer differs from run.per_layer_metrics()")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    return problems


# -- the benchmark's own arithmetic -------------------------------------------


def oracle_agrees_with_enumeration() -> list[str]:
    """The own branch and bound against plain enumeration of every subset."""
    problems = []
    for n, k in ((5, 2), (6, 2)):
        adj = oracle.kneser_adjacency(n, k)
        order = len(adj)
        for d in range(4):
            best = 0
            for s in range(1 << order):
                if all((adj[v] & s).bit_count() <= d for v in oracle.bit_indices(s)):
                    best = max(best, s.bit_count())
            got = oracle.max_bounded_degree_set(adj, d)[0]
            if got != best:
                problems.append(f"K({n},{k}) d={d}: branch and bound {got}, enumeration {best}")
    meet_both = sum(1 for v in oracle.subsets(8, 3) if set(v) & {1, 2, 3} and set(v) & {4, 5, 6})
    if oracle.edge_nonneighbor_size(8, 3) != meet_both:
        problems.append("inclusion-exclusion disagrees with enumeration on K(8,3)")
    if any(oracle.pascal(m, j) != len(oracle.subsets(m, j)) for m in range(13) for j in range(m + 1)):
        problems.append("Pascal triangle disagrees with enumeration")
    return problems


# -- search ---------------------------------------------------------------------


def fires_search() -> list[str]:
    _, kd = _package()
    case = wl_search.Case("kneser", 7, 3, 1)
    verts = oracle.subsets(7, 3)
    ref = dict(verts=verts, exact=20, upper=oracle.regular_bound(35, 4, 1), lower=15)
    res = kd.solve_kneser(7, 3, 1)
    silent = [] if not wl_search.check_result(case, res, ref) else ["search: a correct result is flagged"]
    outside = next(i for i in range(35) if not res.witness >> i & 1)
    spoiled = dataclasses.replace(res, witness=res.witness | 1 << outside, best_size=res.best_size + 1)
    silent += _silent("corrupted witness", wl_search.check_result(case, spoiled, ref))
    silent += _silent("size not matching the witness",
                      wl_search.check_result(case, dataclasses.replace(res, best_size=19), ref))
    silent += _silent("optimal=False on an exact solve",
                      wl_search.check_result(case, dataclasses.replace(res, optimal=False), ref))
    silent += _silent("value off the reference",
                      wl_search.check_result(case, res, dict(ref, exact=21)))
    silent += _silent("value above the regular bound",
                      wl_search.check_result(case, res, dict(ref, upper=19, exact=None)))
    budget = wl_search.Case("kneser", 9, 4, 1, 500)
    small = kd.solve_kneser(9, 4, 1, kd.SearchBudget(max_nodes=500))
    ref94 = dict(verts=oracle.subsets(9, 4), exact=None, upper=126, lower=56)
    silent += _silent("budget overrun",
                      wl_search.check_result(budget, dataclasses.replace(small, nodes_explored=900), ref94))
    silent += _silent("K(9,4) away from 70",
                      wl_search.check_result(budget, dataclasses.replace(
                          small, best_size=69, witness=small.witness & (small.witness - 1)), ref94))

    def summary(label, size, nodes):
        return runner.OpResult(label, "d1_solve_s", 0.0, "ok", {"size": size, "nodes": nodes})

    base = runner.PassResult(0.0, [summary("solve-K7-3-d1", 20, 5), summary("kneser-K7-3-d1", 20, 3),
                                   summary("kneser-K7-3-d2", 22, 9)])
    silent += [] if not wl_search.pass_checks(base, base) else ["search: a clean pass is flagged"]
    disagree = runner.PassResult(0.0, [summary("solve-K7-3-d1", 20, 5), summary("kneser-K7-3-d1", 19, 3)])
    silent += _silent("solve against solve_kneser", wl_search.pass_checks(disagree))
    falling = runner.PassResult(0.0, [summary("kneser-K7-3-d1", 20, 3), summary("kneser-K7-3-d2", 18, 9)])
    silent += _silent("monotonicity in d", wl_search.pass_checks(falling))
    drift = runner.PassResult(0.0, [summary("solve-K7-3-d1", 20, 6), summary("kneser-K7-3-d1", 20, 3),
                                    summary("kneser-K7-3-d2", 22, 9)])
    silent += _silent("node count drift", wl_search.pass_checks(drift, base))
    return silent


# -- graph-core -------------------------------------------------------------------


def fires_graph_core() -> list[str]:
    _, kd = _package()
    n, k = 9, 4
    inp = wl_graph_core._make_inputs(n, k, random.Random(3))
    g = kd.build_kneser(n, k)
    silent = [] if not wl_graph_core.check_graph(g, n, k, inp) else ["graph-core: a correct graph is flagged"]
    rotated = dataclasses.replace(g, adj=g.adj[1:] + g.adj[:1])
    silent += _silent("adjacency spot check", wl_graph_core.check_graph(rotated, n, k, inp))
    silent += _silent("vertex count", wl_graph_core.check_graph(g, n + 1, k, inp))
    silent += _silent("vertex order", wl_graph_core.check_graph(
        dataclasses.replace(g, vertices=g.vertices[::-1]), n, k, inp))
    masks = [g.center_mask(e) for e in inp["elements"]]
    nonnbrs = kd.edge_nonneighbors(g, inp["x"], inp["y"])
    silent += _silent("center size", wl_graph_core.check_centers(([m >> 1 for m in masks], nonnbrs), n, k, inp))
    silent += _silent("edge non-neighbours", wl_graph_core.check_centers((masks, nonnbrs >> 1), n, k, inp))
    silent += _silent("check_max_degree verdict", wl_graph_core._expect([False], [True], "x"))
    text = kd.write_dimacs(g)
    silent += _silent("DIMACS round trip", wl_graph_core.check_dimacs((text, rotated, g), n, k))
    bad_header = text.replace(f"p edge {g.order}", f"p edge {g.order + 1}", 1)
    silent += _silent("DIMACS header", wl_graph_core.check_dimacs((bad_header, g, g), n, k))
    doc = json.loads(kd.kneser_to_json(g))
    doc["vertices"] = doc["vertices"][::-1]
    silent += _silent("graph JSON vertex order", wl_graph_core.check_json((json.dumps(doc), g, g), n, k))
    cert = kd.Certificate(d=1, members=inp["cert_members"][1:])
    silent += _silent("certificate round trip", wl_graph_core.check_certificate(cert, inp["cert_members"]))
    gc = wl_graph_core.GraphCore(kd, 1, "", reduced=True)
    reports = gc._sweep()
    silent += [] if not gc._check_sweep(reports) else ["graph-core: a correct sweep is flagged"]
    off = [dataclasses.replace(r, alpha=r.alpha + 1) for r in reports]
    silent += _silent("bound report alpha", gc._check_sweep(off))
    return silent


# -- cli ----------------------------------------------------------------------------


def _proc(code, stdout="", stderr=""):
    return subprocess.CompletedProcess([], code, stdout, stderr)


def fires_cli() -> list[str]:
    _, kd = _package()
    res = kd.solve_kneser(8, 3, 1)
    g = kd.build_kneser(8, 3)
    good = json.dumps(res.to_json_dict(g))
    silent = [] if not wl_cli.check_solve(_proc(0, good), 8) else ["cli: a correct solve is flagged"]
    doc = json.loads(good)
    doc["witness"][0] = doc["witness"][1]
    silent += _silent("corrupted solve witness", wl_cli.check_solve(_proc(0, json.dumps(doc)), 8))
    silent += _silent("solve exit code", wl_cli.check_solve(_proc(3, good), 8))
    rep = kd.report(9, 3).as_dict()
    silent += _silent("bound alpha", wl_cli.check_bound(_proc(0, json.dumps(dict(rep, alpha=27)))))
    lines = ["p edge 35 70"] + [f"e 1 {j}" for j in range(2, 72)]
    silent += _silent("gen edge list", wl_cli.check_gen_dimacs(_proc(0, "\n".join(lines))))
    silent += _silent("gen JSON", wl_cli.check_gen_json(_proc(0, json.dumps({"n": 6, "k": 2, "vertices": []}))))
    silent += _silent("verify verdict", wl_cli.check_verify(_proc(0, '{"valid": true}'), False))
    silent += _silent("verify exit code", wl_cli.check_verify(_proc(0, '{"valid": false}'), False))
    silent += _silent("input error exit code", wl_cli.check_input_error(_proc(1)))
    silent += _silent("traceback", wl_cli.check_input_error(_proc(2, "", "Traceback (most recent call last)")))
    rows = [{"label": f"diss K({n},2)", "method": "exact solve", "claimed": max(n - 1, 6),
             "computed": max(n - 1, 6), "status": "match"} for n in range(5, 13)]
    silent += [] if not wl_cli.check_reproduce(_proc(0, json.dumps(rows)), ["k2"]) else [
        "cli: correct reproduce rows are flagged"]
    wrong = [dict(rows[0], computed=5)] + rows[1:]
    silent += _silent("reproduce value", wl_cli.check_reproduce(_proc(0, json.dumps(wrong)), ["k2"]))
    skipped = [dict(rows[0], status="skipped-budget")] + rows[1:]
    silent += _silent("reproduce status", wl_cli.check_reproduce(_proc(0, json.dumps(skipped)), ["k2"]))
    silent += _silent("reproduce row count", wl_cli.check_reproduce(_proc(0, json.dumps(rows[1:])), ["k2"]))
    return silent


CHECKS = (
    oracle_agrees_with_enumeration,
    fires_search,
    fires_graph_core,
    fires_cli,
    benchmark_json_lists_metrics,
)


def main() -> int:
    failures = []
    for fn in CHECKS:
        got = fn()
        print(f"{fn.__name__:<36} {'ok' if not got else 'FAIL'}")
        failures += got
    for workload in ("search", "graph-core", "cli"):
        got = reduced_run(workload)
        print(f"reduced {workload:<28} {'ok' if not got else 'FAIL'}")
        failures += got
    for msg in failures:
        print(f"  {msg}", file=sys.stderr)
    return 1 if failures else 0

