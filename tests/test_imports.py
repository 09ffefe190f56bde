"""What ``import kneserdiss`` and each CLI command load, and the lazy
package API that keeps the rest unloaded.

A load check runs in a fresh interpreter: this one has every module
loaded already.  perfbench/tracing.py is read, never changed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kneserdiss

SRC = str(Path(kneserdiss.__file__).resolve().parent.parent)
TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# the package's public names when ``import kneserdiss`` loaded every submodule
PUBLIC = [
    "BoundEntry", "BoundReport", "alpha_dominance_threshold", "alpha_equality_lower",
    "alpha_kneser", "binom", "combined_upper", "edge_local_upper",
    "edge_nonneighbor_closed_form", "edge_nonneighbor_count", "katona_upper_large_r",
    "katona_upper_small_r", "known_exact", "nonindependent_upper", "report",
    "subgraph_lower", "Certificate", "certificate_from_json", "CyclicArrangement",
    "MatchingResult", "all_arrangements", "check_max_degree", "check_p3_cover",
    "double_count_identity", "find_x_matching", "max_substrings", "odd_expansion_check",
    "odd_expansion_violator", "odd_hall_matching", "odd_neighborhood",
    "substrings_in_arrangement", "CapacityError", "DomainError", "SearchFailure",
    "GenericGraph", "bits", "graph_from_edges", "induced_subgraph", "mask_of",
    "read_dimacs", "write_dimacs", "KneserGraph", "KSubset", "build_kneser",
    "edge_nonneighbors", "enumerate_k_subsets", "kneser_from_json", "kneser_to_json",
    "SearchBudget", "SolveResult", "brute_force", "heuristic_lower", "psi3", "solve",
    "solve_kneser",
]
SUBMODULES = ["bounds", "certificates", "certify", "cli", "errors", "graphs", "kneser", "solver"]


def fresh(code: str):
    """Run ``code`` in a new interpreter and return the JSON it prints last."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_submodule():
    new = fresh(
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import kneserdiss\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    assert "kneserdiss" in new
    assert not {m for m in new if m.startswith("kneserdiss.")}
    assert "fractions" not in new


VERIFY_FILES = {
    "dimacs": "p edge 3 2\ne 1 2\ne 2 3\n",
    "json": json.dumps({"n": 5, "k": 2, "vertices": [
        [a, b] for a in range(1, 6) for b in range(a + 1, 6)]}),
    "cert": json.dumps({"d": 1, "set": [1, 2]}),
    "kcert": json.dumps({"n": 5, "k": 2, "d": 1, "set": [[1, 2], [3, 4]]}),
}


@pytest.fixture
def verify_files(tmp_path):
    for name, text in VERIFY_FILES.items():
        (tmp_path / name).write_text(text)
    return {name: str(tmp_path / name) for name in VERIFY_FILES}


NOT_LOADED = {
    # argv, with the files of verify_files in braces: modules it must not load
    ("gen", "5", "2", "--format", "json"):
        {"kneserdiss.solver", "kneserdiss.bounds", "kneserdiss.certify", "fractions"},
    ("verify", "{dimacs}", "{cert}"): {"kneserdiss.solver", "kneserdiss.bounds", "fractions"},
    ("verify", "{json}", "{kcert}"): {"kneserdiss.solver", "kneserdiss.bounds", "fractions"},
    ("bound", "9", "3"): {"kneserdiss.solver", "kneserdiss.certify"},
}


@pytest.mark.parametrize("argv", list(NOT_LOADED), ids=" ".join)
def test_command_loads_only_what_it_uses(verify_files, argv):
    absent = NOT_LOADED[argv]
    argv = [arg.format(**verify_files) for arg in argv]
    code, new = fresh(
        "import contextlib, io, json, sys\n"
        "before = set(sys.modules)\n"
        "from kneserdiss import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        "print(json.dumps([code, sorted(set(sys.modules) - before)]))\n"
    )
    assert code == 0
    assert "kneserdiss.cli" in new
    assert not absent & set(new), sorted(absent & set(new))


def test_public_names_are_the_submodules_objects():
    assert kneserdiss.__all__ == PUBLIC
    for name in PUBLIC:
        value = getattr(kneserdiss, name)
        owner = sys.modules[value.__module__]
        assert owner.__name__.startswith("kneserdiss."), name
        assert getattr(owner, name) is value, name
    assert set(PUBLIC) | set(SUBMODULES) <= set(dir(kneserdiss))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from kneserdiss import *", namespace)
    assert {name: namespace.get(name) for name in PUBLIC} == {
        name: getattr(kneserdiss, name) for name in PUBLIC}


@pytest.mark.parametrize("name", ["no_such_name", "_greedy_seed", "fractions", "main"])
def test_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(kneserdiss, name)
    assert not hasattr(kneserdiss, name)


def test_submodule_names_resolve_before_any_import():
    names = fresh(
        "import json, sys, kneserdiss\n"
        f"names = {SUBMODULES!r}\n"
        "assert not any(f'kneserdiss.{n}' in sys.modules for n in names)\n"
        "mods = [getattr(kneserdiss, n) for n in names]\n"
        "assert all(m is sys.modules[f'kneserdiss.{n}'] for m, n in zip(mods, names))\n"
        "print(json.dumps([m.__name__ for m in mods]))\n"
    )
    assert names == [f"kneserdiss.{n}" for n in SUBMODULES]


TRACER_ROUND_TRIP = """
import contextlib, importlib.util, io, json, sys
import kneserdiss, kneserdiss.cli

spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)


def wrappers():
    # a wrapper is a function whose code is in tracing.py
    found = []
    for key, module in list(sys.modules.items()):
        if key.split(".")[0] != "kneserdiss":
            continue
        for attr, value in vars(module).items():
            members = [(attr, value)]
            if isinstance(value, type):
                members += [(f"{attr}.{a}", v) for a, v in vars(value).items()]
            for name, obj in members:
                code = getattr(obj, "__code__", None)
                if code is not None and code.co_filename == tracing.__file__:
                    found.append(f"{key}.{name}")
    return found


runs = []
for _ in range(2):
    tracer = tracing.Tracer()
    with tracer:
        with contextlib.redirect_stdout(io.StringIO()):
            kneserdiss.cli.main(["solve", "5", "2"])
        kneserdiss.solve_kneser(6, 2)
    spans = tracer.spans
    under = sorted(f"{spans[s.parent].name} > {s.name}" for s in spans
                   if s.name == "kneser.build" and s.parent >= 0)
    runs.append({"under": under, "left": wrappers()})
print(json.dumps(runs))
"""


def test_tracer_wrappers_are_undone_and_seen_again():
    # perfbench/run.py loads kneserdiss and kneserdiss.cli before it traces,
    # so the first instrument() is what loads solver, bounds and certify
    runs = fresh(f"TRACING = {str(TRACING)!r}\n" + TRACER_ROUND_TRIP)
    assert [run["left"] for run in runs] == [[], []]
    # the second tracer sees each build under the solve that made it
    assert runs[1]["under"] == ["solver.solve > kneser.build"] * 2
