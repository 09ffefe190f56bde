import dataclasses
import json
from itertools import combinations

import pytest

import kneserdiss.certify as certify_module
import kneserdiss.cli as cli_module
import kneserdiss.graphs as graphs_module
import kneserdiss.kneser as kneser_module
import kneserdiss.solver as solver_module
from kneserdiss import SolveResult, build_kneser, kneser_from_json
from kneserdiss.cli import main
from kneserdiss.graphs import bits

PROP_SET = [[1, 2], [3, 4], [1, 3], [1, 4], [2, 3], [2, 4]]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_dimacs_headers(capsys):
    code, out, _ = run(capsys, "gen", "5", "2", "--format", "dimacs")
    assert code == 0
    assert out.splitlines()[0] == "p edge 10 15"
    code, out, _ = run(capsys, "gen", "4", "2", "--format", "dimacs")
    assert out.splitlines()[0] == "p edge 6 3"


def test_gen_domain_error_exit_2(capsys):
    code, _, err = run(capsys, "gen", "3", "2")
    assert code == 2
    assert "n >= 2k" in err


def test_gen_json_round_trip(capsys):
    code, out, _ = run(capsys, "gen", "6", "2", "--format", "json")
    assert code == 0
    rebuilt = kneser_from_json(out)
    assert rebuilt.adj == build_kneser(6, 2).adj


def test_solve_petersen(capsys, monkeypatch):
    builds = []

    def counting(n, k):
        builds.append((n, k))
        return build_kneser(n, k)

    monkeypatch.setattr(kneser_module, "build_kneser", counting)
    monkeypatch.setattr(cli_module, "build_kneser", counting)
    code, out, _ = run(capsys, "solve", "5", "2")
    assert builds == [(5, 2)]
    assert code == 0
    doc = json.loads(out)
    assert doc["size"] == 6 and doc["optimal"] is True
    assert sorted(map(tuple, doc["witness"]))  # element lists present
    assert set(doc) == {"size", "witness", "optimal", "nodes", "millis"}


def test_solve_7_3(capsys):
    code, out, _ = run(capsys, "solve", "7", "3")
    assert code == 0
    assert json.loads(out)["size"] == 20


def test_solve_8_3_with_budget(capsys):
    code, out, _ = run(capsys, "solve", "8", "3", "--max-time", "600s")
    assert code == 0
    assert json.loads(out)["size"] == 21


def test_solve_budget_exhaustion_exit_3(capsys):
    code, out, _ = run(capsys, "solve", "8", "3", "--max-nodes", "10")
    assert code == 3
    assert json.loads(out)["optimal"] is False


def test_solve_rejects_budget_that_cannot_run(capsys):
    for flags in (("--max-nodes", "-5"), ("--max-nodes", "0"), ("--max-time", "0s")):
        code, out, err = run(capsys, "solve", "8", "3", *flags)
        assert code == 2, flags
        assert out == "" and "error:" in err
    # every search runs in one process, and the worker-count flag is gone:
    # argparse refuses it with a usage error
    with pytest.raises(SystemExit) as exc:
        main(["solve", "8", "3", "--threads", "2"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.startswith("usage:") and "unrecognized arguments: --threads 2" in captured.err


def test_solve_max_degree_flag(capsys):
    code, out, _ = run(capsys, "solve", "5", "2", "--max-degree", "0")
    assert code == 0
    assert json.loads(out)["size"] == 4


def test_bound_9_3(capsys):
    code, out, _ = run(capsys, "bound", "9", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["exact"]["value"] == 28


def test_bound_30_2(capsys):
    code, out, _ = run(capsys, "bound", "30", "2")
    assert json.loads(out)["exact"]["value"] == 29


def test_bound_12_5_no_exact(capsys):
    code, out, _ = run(capsys, "bound", "12", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["exact"] is None
    lo, hi = doc["interval"]
    assert lo <= hi


def test_bound_size_cap(capsys):
    code, out, err = run(capsys, "bound", "6000", "2000")
    assert code == 0 and err == ""
    assert json.loads(out)["interval"][0] > 10**1650
    for argv in (("1" + "0" * 2200, "3"), (str(10**30), str(10**29))):
        code, out, err = run(capsys, "bound", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_bound_output_is_stable(capsys):
    _, first, _ = run(capsys, "bound", "8", "3")
    _, second, _ = run(capsys, "bound", "8", "3")
    assert first == second


def test_solve_output_stable_modulo_timing(capsys):
    _, first, _ = run(capsys, "solve", "7", "3")
    _, second, _ = run(capsys, "solve", "7", "3")
    a, b = json.loads(first), json.loads(second)
    a.pop("millis"), b.pop("millis")
    assert a == b


def test_solve_witness_is_unranked_like_the_enumeration(capsys, monkeypatch):
    # the witness's vertices are unranked one by one; the JSON is byte for
    # byte what labelling them through the whole enumeration gives
    for n, k in ((4, 1), (6, 3), (9, 4), (11, 2)):
        everything = [v.elements for v in kneser_module.enumerate_k_subsets(n, k)]
        full = (1 << len(everything)) - 1
        assert list(kneser_module._lex_elements(n, k, full)) == everything
        assert list(kneser_module._lex_elements(n, k, 0)) == []
    real = solver_module.solve_kneser
    results = []

    def recording(*args):
        results.append(real(*args))
        return results[-1]

    monkeypatch.setattr(solver_module, "solve_kneser", recording)
    for argv in (("8", "3"), ("9", "4", "--max-nodes", "5"), ("16", "5", "--max-nodes", "1")):
        code, out, _ = run(capsys, "solve", *argv)
        res = results[-1]
        verts = kneser_module.enumerate_k_subsets(int(argv[0]), int(argv[1]))
        doc = res.to_json_dict()
        doc["witness"] = [list(verts[v].elements) for v in bits(res.witness)]
        assert out == json.dumps(doc) + "\n", argv
        assert code == (0 if res.optimal else 3), argv


@pytest.fixture
def petersen_files(tmp_path, capsys):
    graph = tmp_path / "petersen.dimacs"
    code, out, _ = run(capsys, "gen", "5", "2", "--format", "dimacs")
    graph.write_text(out)
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({"n": 5, "k": 2, "d": 1, "set": PROP_SET}))
    return graph, cert


def test_verify_valid_certificate(petersen_files, capsys, tmp_path):
    graph, cert = petersen_files
    # DIMACS graphs take 1-based index certificates
    g = build_kneser(5, 2)
    indices = [g.vertex_index(tuple(m)) + 1 for m in PROP_SET]
    icert = tmp_path / "icert.json"
    icert.write_text(json.dumps({"n": 5, "k": 2, "d": 1, "set": indices}))
    code, out, _ = run(capsys, "verify", str(graph), str(icert))
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_verify_kneser_json_graph(tmp_path, capsys):
    code, out, _ = run(capsys, "gen", "5", "2", "--format", "json")
    graph = tmp_path / "petersen.json"
    graph.write_text(out)
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({"n": 5, "k": 2, "d": 1, "set": PROP_SET}))
    code, out, _ = run(capsys, "verify", str(graph), str(cert))
    assert code == 0
    code, out, _ = run(capsys, "verify", str(graph), str(cert), "--max-degree", "0")
    assert code == 1
    assert json.loads(out)["valid"] is False
    # every member is a vertex of K(5,2) too, but the certificate names K(6,2)
    cert.write_text(json.dumps({"n": 6, "k": 2, "d": 1, "set": PROP_SET}))
    code, _, err = run(capsys, "verify", str(graph), str(cert))
    assert code == 2
    assert "K(5,2)" in err
    # {1,1,2} has three entries but two elements: no vertex of K(5,2)
    cert.write_text(json.dumps({"n": 5, "k": 2, "d": 1, "set": [[1, 1, 2], [3, 4]]}))
    code, out, err = run(capsys, "verify", str(graph), str(cert))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "{1,1,2}" in err and "Traceback" not in err


@pytest.mark.parametrize("n,k", [("7", 3), ("3", 2), ("1" + "0" * 4000, 2), ("1" + "0" * 5000, 2)],
                         ids=["K(7,3)", "n<2k", "n=10**4000", "n=10**5000"])
def test_verify_dimacs_certificate_naming_another_kneser_graph_exit_2(
        n, k, petersen_files, capsys, tmp_path):
    # a certificate that names n and k is checked against K(n, k) on a
    # DIMACS graph too: K(7,3) has 35 vertices, not Petersen's 10, and the
    # others name no Kneser graph whose order could be formed
    graph, _ = petersen_files
    cert = tmp_path / "other.json"
    cert.write_text('{"n": %s, "k": %d, "d": 0, "set": [1, 2]}' % (n, k))
    code, out, err = run(capsys, "verify", str(graph), str(cert))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("form", ["kneser", "dimacs"])
def test_verify_repeated_member_exit_2(form, tmp_path, capsys):
    # a vertex named twice would let a certificate claim more vertices than
    # its set holds
    code, out, _ = run(capsys, "gen", "5", "2", "--format", "json" if form == "kneser" else "dimacs")
    graph = tmp_path / "petersen"
    graph.write_text(out)
    members = [[1, 2], [1, 2], [2, 1]] if form == "kneser" else [1, 1, 1]
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({"n": 5, "k": 2, "d": 1, "set": members}))
    code, out, err = run(capsys, "verify", str(graph), str(cert))
    assert code == 2 and out == ""
    assert "twice" in err and "Traceback" not in err


def test_verify_malformed_json_exit_2(petersen_files, capsys, tmp_path):
    graph, _ = petersen_files
    bad = tmp_path / "bad.json"
    for text in (
        "{this is not json",
        '{"d": "x", "set": [1]}',
        '{"d": 1, "set": [true]}',
        '{"n": 5, "k": 2, "d": 1, "set": [[1, true]]}',
    ):
        bad.write_text(text)
        code, _, err = run(capsys, "verify", str(graph), str(bad))
        assert code == 2, text
        assert err
    # graph JSON: n, k and the vertex elements must be JSON integers, read
    # as strictly as a certificate's; each vertex list is canonical for the
    # value that true or a float equals
    cert = tmp_path / "one.json"
    cert.write_text('{"d": 1, "set": [1]}')
    petersen = json.dumps([list(c) for c in combinations(range(1, 6), 2)])
    singletons = json.dumps([[e] for e in range(1, 6)])
    for text in (
        '{"n": Infinity, "k": 2, "vertices": []}',
        '{"n": 5.7, "k": 2, "vertices": %s}' % petersen,
        '{"n": 5, "k": true, "vertices": %s}' % singletons,
        '{"n": 5, "k": 2, "vertices": %s}' % petersen.replace("[1,", "[true,"),
        '{"n": 5, "k": 2, "vertices": %s}' % petersen.replace("[1,", "[1.0,"),
    ):
        bad.write_text(text)
        code, _, err = run(capsys, "verify", str(bad), str(cert))
        assert code == 2, text
        assert "error:" in err


def test_verify_non_integer_dimacs_exit_2(petersen_files, capsys, tmp_path):
    _, cert = petersen_files
    graph = tmp_path / "bad.dimacs"
    for text, lineno in (("p edge 3 x\n", 1), ("p edge 3 1\ne 1 x\n", 2),
                         ("p edge 3 1\ne 1\n", 2)):
        graph.write_text(text)
        code, _, err = run(capsys, "verify", str(graph), str(cert))
        assert code == 2, text
        assert f"line {lineno}" in err and "Traceback" not in err


def test_verify_dimacs_past_vertex_cap_exit_2(petersen_files, capsys, tmp_path, monkeypatch):
    def no_allocation(order, edges):
        raise AssertionError(f"allocated {order} rows past the adjacency cap")

    # a header whose vertex count alone passes the adjacency cap
    _, cert = petersen_files
    graph = tmp_path / "big.dimacs"
    graph.write_text("p edge 131073 0\n")
    monkeypatch.setattr(graphs_module, "graph_from_edges", no_allocation)
    code, _, err = run(capsys, "verify", str(graph), str(cert))
    assert code == 2
    assert "adjacency" in err and "Traceback" not in err


def test_verify_dimacs_past_adjacency_cap_exit_2(petersen_files, capsys, tmp_path, monkeypatch):
    def no_allocation(order, edges):
        raise AssertionError(f"allocated {order} rows past the adjacency cap")

    _, cert = petersen_files
    graph = tmp_path / "wide.dimacs"
    graph.write_text("p edge 2000000 200\n" + "".join(f"e {i} 2000000\n" for i in range(1, 201)))
    monkeypatch.setattr(graphs_module, "graph_from_edges", no_allocation)
    code, _, err = run(capsys, "verify", str(graph), str(cert))
    assert code == 2
    assert "adjacency" in err and "Traceback" not in err


def test_verify_non_utf8_file_exit_2(petersen_files, capsys, tmp_path):
    graph, cert = petersen_files
    raw = tmp_path / "raw.bin"
    raw.write_bytes(b"\xff\xfe{")
    for argv in ((str(raw), str(cert)), (str(graph), str(raw))):
        code, _, err = run(capsys, "verify", *argv)
        assert code == 2, argv
        assert "UTF-8" in err


def test_gen_past_adjacency_cap_exit_2(capsys, monkeypatch):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumerated vertices past the adjacency cap")

    # the rows of K(30,6) would need about 44 GB
    monkeypatch.setattr(kneser_module, "enumerate_k_subsets", no_enumeration)
    code, out, err = run(capsys, "gen", "30", "6")
    assert code == 2 and out == ""
    assert "adjacency" in err


def test_verify_missing_file_exit_2(petersen_files, capsys):
    graph, _ = petersen_files
    code, _, _ = run(capsys, "verify", str(graph), "/nonexistent/cert.json")
    assert code == 2


def test_reproduce_k2_rows_only(capsys):
    code, out, _ = run(capsys, "reproduce", "--rows", "k2")
    assert code == 0
    assert out.count("match") >= 8
    assert "K(8,3)" not in out


def test_reproduce_unknown_group(capsys):
    # each unknown name is quoted, so an empty one still shows
    for rows, shown in (("nonsense", "'nonsense'"), (",k2", "''"), ("", "''"),
                        ("k2, nonsense ,", "'nonsense', ''")):
        code, _, err = run(capsys, "reproduce", "--rows", rows)
        assert code == 2, rows
        assert err.strip() == f"error: unknown row groups: {shown}", rows


def test_reproduce_json_output(capsys):
    code, out, _ = run(capsys, "reproduce", "--rows", "threshold,odd,k3", "--output", "json")
    assert code == 0
    rows = json.loads(out)
    assert all(r["status"] == "match" for r in rows)
    assert {r["claimed"] for r in rows if r["group"] == "threshold"} == {7, 17}
    # K(5,2) closes by the case split and K(7,3) by edge_local, with no search
    assert {r["label"]: r["method"] for r in rows if r["group"] != "threshold"} == {
        "diss O_2 = K(5,2)": "bound closure",
        "diss O_3 = K(7,3)": "bound closure",
        "diss K(8,3)": "exact solve",
        "center lower bound K(9,3)": "bound closure",
        "diss K(9,3)": "exact solve",
    }


def test_reproduce_full_default_budget(capsys):
    code, out, _ = run(capsys, "reproduce")
    assert code == 0
    assert "mismatch" not in out


def test_reproduce_detects_corrupted_solver(capsys, monkeypatch):
    real = solver_module.solve_kneser

    def corrupted(n, k, d=1, budget=None):
        res = real(n, k, d, budget)
        return SolveResult(
            best_size=res.best_size + 1,
            witness=res.witness,
            optimal=True,
            nodes_explored=res.nodes_explored,
            wall_time=res.wall_time,
        )

    monkeypatch.setattr(solver_module, "solve_kneser", corrupted)
    code, out, _ = run(capsys, "reproduce", "--rows", "odd")
    assert code == 1
    assert "mismatch" in out


def cut_below(g, how):
    """g with its odd-graph expansion broken: the center of 2k+1 either
    loses one vertex below from every row, or one center row keeps a single
    neighbour below.  (One lost edge alone breaks nothing: the edge count
    gives k*|N(L) n D| >= (k+1)*|L| - 1, equal only at L = {} or the center.)"""
    center = g.center_mask(g.n)
    below = g.full_mask & ~center
    adj = list(g.adj)
    if how == "vertex below":
        u = next(bits(below))
        for v in bits(center):
            adj[v] &= ~(1 << u)
        adj[u] &= ~center
    else:
        v = next(bits(center))
        for u in list(bits(adj[v] & below))[1:]:
            adj[v] &= ~(1 << u)
            adj[u] &= ~(1 << v)
    return dataclasses.replace(g, adj=tuple(adj))


@pytest.mark.parametrize("how", ["vertex below", "center row"])
def test_reproduce_detects_broken_expansion(capsys, monkeypatch, how):
    def corrupted(n, k):
        g = build_kneser(n, k)
        return cut_below(g, how) if (n, k) == (7, 3) else g

    monkeypatch.setattr(cli_module, "build_kneser", corrupted)
    code, out, _ = run(capsys, "reproduce", "--rows", "hall")
    assert code == 1
    assert [line.split()[-1] for line in out.splitlines()[:-1]] == [
        "match", "match", "mismatch", "match"]


def test_reproduce_detects_a_dropped_window(capsys, monkeypatch):
    real = certify_module.CyclicArrangement.window_masks
    monkeypatch.setattr(certify_module.CyclicArrangement, "window_masks",
                        lambda c, k: real(c, k)[1:])
    # the tally is cached per (n, k): build it again from the broken windows
    certify_module._window_tally.cache_clear()
    try:
        code, out, _ = run(capsys, "reproduce", "--rows", "doublecount")
    finally:
        certify_module._window_tally.cache_clear()
    assert code == 1
    assert "mismatch" in out



@pytest.mark.parametrize("text, seconds", [
    ("1h", 3600.0), ("5m", 300.0), ("600s", 600.0), (" 2.5 ", 2.5), ("1H", 3600.0),
])
def test_durations_parse_every_unit(text, seconds):
    assert cli_module._parse_duration(text) == seconds
