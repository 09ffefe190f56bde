"""Property-based fuzzing of every input boundary.

Parsers may only raise DomainError or CapacityError, and the CLI may only
exit with 0, 1, 2 or 3.  The examples are derandomized, so a run is
repeatable.  The adjacency cap is lowered for the whole module, every search
gets a node budget, and reproduce always names its rows.
"""

import contextlib
import io
import json
import os
import tempfile
from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import kneserdiss.graphs as graphs_module
from kneserdiss import (
    CapacityError,
    Certificate,
    DomainError,
    KneserGraph,
    build_kneser,
    enumerate_k_subsets,
    report,
)
from kneserdiss.certificates import certificate_from_json
from kneserdiss.cli import ALL_GROUPS, main
from kneserdiss.graphs import GenericGraph, read_dimacs, write_dimacs
from kneserdiss.kneser import kneser_from_json, kneser_to_json

VERTEX_CAP = 300


def fuzz(examples):
    return settings(max_examples=examples, derandomize=True, database=None,
                    deadline=None, suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(autouse=True, scope="module")
def low_adjacency_cap():
    # VERTEX_CAP * ceil(VERTEX_CAP / 8) bytes: graphs of at most 300 vertices
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs_module, "MAX_ADJACENCY_BYTES", VERTEX_CAP * ((VERTEX_CAP + 7) // 8))
        yield


# -- strategies --------------------------------------------------------------

BIG_INTS = st.sampled_from([2**31, 2**63, -2**63, 10**30])
INTS = st.integers(-3, 70) | BIG_INTS
SCALARS = (st.none() | st.booleans() | INTS | st.text(max_size=4)
           | st.floats(allow_nan=True, allow_infinity=True))
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=10,
)
# texts no generator above builds: deep nesting and integers past the digit limit
EDGE_TEXTS = st.sampled_from([
    "", "{", "[" * 5000, "9" * 5000, '{"set": [%s]}' % ("9" * 5000),
    '{"n": NaN, "k": 2, "vertices": []}', '{"n": Infinity, "k": 2, "vertices": []}',
])

TOKENS = st.integers(-3, 40).map(str) | st.sampled_from(
    ["x", "", "1.5", "1e3", "-0", "edge", "9" * 5000, str(10**9)])
DIMACS_LINES = (
    st.builds("p edge {} {}".format, TOKENS, TOKENS)
    | st.builds("e {} {}".format, TOKENS, TOKENS)
    | st.builds(" ".join, st.lists(st.sampled_from(["p", "e", "c", "q"]) | TOKENS, max_size=5))
    | st.text(max_size=12)
)
DIMACS_TEXTS = st.lists(DIMACS_LINES, max_size=8).map("\n".join)

CERT_DOCS = st.fixed_dictionaries({}, optional={
    "n": INTS | JSON_VALUES, "k": INTS | JSON_VALUES, "d": INTS | JSON_VALUES,
    "set": st.lists(INTS | st.lists(INTS, max_size=4) | JSON_VALUES, max_size=6),
})
CERT_TEXTS = CERT_DOCS.map(json.dumps) | JSON_VALUES.map(json.dumps) | EDGE_TEXTS | st.text(max_size=20)


@st.composite
def graph_json_texts(draw):
    n = draw(st.integers(-2, 12) | JSON_VALUES)
    k = draw(st.integers(-2, 6) | JSON_VALUES)
    small = all(type(x) is int for x in (n, k)) and 0 <= k <= n <= 12
    if small and draw(st.booleans()):
        vertices = [list(c) for c in combinations(range(1, n + 1), k)]
        if vertices and draw(st.booleans()):
            vertices[draw(st.integers(0, len(vertices) - 1))] = draw(JSON_VALUES)
    else:
        vertices = draw(st.lists(st.lists(INTS, max_size=4) | JSON_VALUES, max_size=5))
    doc = {"n": n, "k": k, "vertices": vertices}
    for key in draw(st.sets(st.sampled_from(sorted(doc)), max_size=1)):
        del doc[key]
    return json.dumps(doc)


GRAPH_JSON_TEXTS = graph_json_texts() | EDGE_TEXTS


# -- parsers -----------------------------------------------------------------


@fuzz(300)
@given(DIMACS_TEXTS)
def test_read_dimacs_raises_only_input_errors(text):
    try:
        g = read_dimacs(text)
    except (DomainError, CapacityError):
        return
    assert isinstance(g, GenericGraph) and 0 <= g.order <= VERTEX_CAP


@fuzz(300)
@given(CERT_TEXTS)
def test_certificate_from_json_raises_only_input_errors(text):
    try:
        cert = certificate_from_json(text)
    except (DomainError, CapacityError):
        return
    assert isinstance(cert, Certificate)
    ints = [cert.d] + [x for x in (cert.n, cert.k) if x is not None]
    for m in cert.members:
        ints += list(m) if isinstance(m, tuple) else [m]
    assert all(type(x) is int for x in ints)


@fuzz(300)
@given(GRAPH_JSON_TEXTS)
def test_kneser_from_json_raises_only_input_errors(text):
    try:
        g = kneser_from_json(text)
    except (DomainError, CapacityError):
        return
    doc = json.loads(text)
    assert isinstance(g, KneserGraph) and (g.n, g.k) == (doc["n"], doc["k"])


# -- count arguments ----------------------------------------------------------

# integers up to 12 keep every graph small; every other value is refused
COUNTS = (st.integers(-3, 12) | st.booleans() | st.floats(allow_nan=True, allow_infinity=True)
          | st.text(max_size=2) | st.none())


@fuzz(300)
@given(st.sampled_from([report, build_kneser, enumerate_k_subsets]), COUNTS, COUNTS)
def test_count_arguments_raise_only_input_errors(fn, n, k):
    try:
        fn(n, k)
    except (DomainError, CapacityError):
        return
    assert type(n) is int and type(k) is int, (fn, n, k)


# -- the command line ---------------------------------------------------------



def mostly_valid(valid, anything):
    """Half the draws from ``valid``, so the checks behind the parsers run too."""
    return (valid | anything).map(str)


N = mostly_valid(st.integers(4, 9), st.integers(-3, 70))
K = mostly_valid(st.integers(1, 3), st.integers(-3, 35))
MAX_NODES = st.sampled_from(["1", "30", "300", "300", "-5", "0"])
MAX_TIME = st.sampled_from(["0.5s", "1m", "10", "1e400", "0", "-1", "nan", "abc"])


@st.composite
def budget_flags(draw, nodes_required):
    flags = []
    if nodes_required or draw(st.booleans()):
        flags += ["--max-nodes", draw(MAX_NODES)]
    if draw(st.booleans()):
        flags += ["--max-time", draw(MAX_TIME)]
    return flags


GEN_ARGV = st.builds(lambda n, k, fmt: ["gen", n, k, "--format", fmt],
                    N, K, st.sampled_from(["dimacs", "json"]))
SOLVE_ARGV = st.builds(
    lambda n, k, d, flags: ["solve", n, k, "--max-degree", d, *flags],
    N, K, mostly_valid(st.integers(0, 3), st.integers(-2, 4)), budget_flags(nodes_required=True))
BOUND_ARGV = st.builds(lambda n, k: ["bound", n, k], N, K)
REPRODUCE_ARGV = st.builds(
    lambda rows, output, flags: ["reproduce", "--rows", ",".join(rows), "--output", output, *flags],
    st.lists(st.sampled_from(ALL_GROUPS + ("nonsense", "")), min_size=1, max_size=2),
    st.sampled_from(["table", "json"]), budget_flags(nodes_required=False))
JUNK_ARGV = st.lists(st.sampled_from(["gen", "solve", "bound", "verify", "reproduce", "-h", "--x"])
                     | st.text(max_size=6), max_size=4)
PETERSEN = build_kneser(5, 2)
PETERSEN_FILES = st.sampled_from([write_dimacs(PETERSEN), kneser_to_json(PETERSEN)])
PAIRS = [list(c) for c in combinations(range(1, 6), 2)]
# Petersen's vertex indices or pairs, some out of range, with or without n and k
PETERSEN_CERTS = st.builds(
    lambda d, members, named: json.dumps({"d": d, "set": members, **named}),
    st.integers(0, 2) | st.integers(-1, 3),
    st.lists(st.integers(1, 10), max_size=8) | st.lists(st.sampled_from(PAIRS), max_size=8)
    | st.lists(st.integers(0, 11) | st.lists(st.integers(0, 6), min_size=2, max_size=2), max_size=8),
    st.sampled_from([{}, {}, {"n": 5, "k": 2}, {"n": 6, "k": 2}]))
FILE_BYTES = (DIMACS_TEXTS | GRAPH_JSON_TEXTS | CERT_TEXTS).map(str.encode) | st.binary(max_size=12)


@st.composite
def file_bytes(draw, plausible):
    """Half the files from ``plausible``, the rest anything at all."""
    return draw(plausible.map(str.encode) if draw(st.booleans()) else FILE_BYTES)


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        return exc.code


@fuzz(150)
@given(GEN_ARGV | SOLVE_ARGV | BOUND_ARGV | REPRODUCE_ARGV | JUNK_ARGV)
def test_cli_exit_codes(argv):
    assert _exit_code(argv) in (0, 1, 2, 3), argv


# bound arithmetic needs no graph, so values run far past what solve can take;
# a few n have more than 2,000 digits
LARGE = st.integers(-3, 100) | st.integers(0, 10**40) | st.sampled_from(
    [10**2200, 3 * 10**2500 + 1, 2**7000, 14_000, 14_001])


@fuzz(200)
@given(LARGE, LARGE)
def test_cli_bound_large_values(n, k):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = _exit_code(["bound", str(n), str(k)])
    assert code in (0, 2), (n, k)
    if code == 0:
        assert json.loads(out.getvalue())["n"] == n and err.getvalue() == ""
    else:
        assert out.getvalue() == "" and err.getvalue().startswith("error: "), (n, k)
        assert err.getvalue().count("\n") == 1, (n, k)


@fuzz(150)
@given(file_bytes(PETERSEN_FILES), file_bytes(PETERSEN_CERTS),
       st.none() | st.integers(-2, 3))
def test_cli_verify_exit_codes(graph, cert, max_degree):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, data in (("graph", graph), ("cert", cert)):
            paths.append(os.path.join(tmp, name))
            with open(paths[-1], "wb") as fh:
                fh.write(data)
        argv = ["verify", *paths]
        if max_degree is not None:
            argv += ["--max-degree", str(max_degree)]
        assert _exit_code(argv) in (0, 1, 2, 3), (graph, cert, max_degree)
