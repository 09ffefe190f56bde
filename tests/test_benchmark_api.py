"""The package API that the benchmark in perfbench/ calls or traces.

perfbench/tracing.py wraps functions by name, and perfbench/selfcheck.py
builds budgets and reads results, so a name cut from the package would
break ``run.py --trace 1`` or the self-check before any benchmark ran.
perfbench/wl_cli.py counts the rows of each ``reproduce`` group.
These tests read perfbench/ and change nothing there.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

import kneserdiss.certify as certify_module
import kneserdiss.cli  # noqa: F401  (tracing targets kneserdiss.cli.main)
from kneserdiss import SearchBudget, build_kneser, solve_kneser

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tracing_targets():
    return _load("tracing").TARGETS


def _owner(path):
    # a dotted path may end in a class name, as "kneserdiss.kneser.KneserGraph"
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise LookupError(path)


def test_every_tracing_target_resolves():
    targets = _tracing_targets()
    assert targets
    for owner_path, attr, _span in targets:
        assert owner_path.startswith("kneserdiss"), owner_path
        assert callable(getattr(_owner(owner_path), attr)), (owner_path, attr)


def test_selfcheck_api():
    budget = SearchBudget(thread_count=2)
    assert budget.thread_count == 2
    g = build_kneser(5, 2)
    res = solve_kneser(5, 2)
    doc = res.to_json_dict(g)
    assert doc["size"] == 6 and len(doc["witness"]) == 6
    assert g.vertices[0].elements == (1, 2)


def test_d1_seed_goes_through_the_traced_name(monkeypatch):
    # perfbench/tracing.py wraps kneserdiss.solver.heuristic_lower as the
    # solver.seed span, so solve_kneser must seed d=1 through that name
    import kneserdiss.solver as solver_module

    calls = []
    real = solver_module.heuristic_lower

    def counted(g):
        calls.append((g.n, g.k))
        return real(g)

    monkeypatch.setattr(solver_module, "heuristic_lower", counted)
    assert solve_kneser(8, 3).best_size == 21
    assert calls == [(8, 3)]
    assert ("kneserdiss.solver", "heuristic_lower", "solver.seed") in _tracing_targets()


@pytest.mark.parametrize("group,name,calls", [
    ("doublecount", "double_count_identity", 50),
    ("katona", "max_substrings", 3),
    # two expansion checks, each one matching, and 2 x 200 sampled matchings
    ("hall", "find_x_matching", 402),
])
def test_reproduce_oracles_go_through_traced_names(monkeypatch, capsys, group, name, calls):
    # perfbench/tracing.py wraps these as certify.oracle spans, so the
    # reproduce rows must keep calling them by their module names
    seen = []
    real = getattr(certify_module, name)

    def counted(*args):
        seen.append(args[:2])
        return real(*args)

    monkeypatch.setattr(certify_module, name, counted)
    assert kneserdiss.cli.main(["reproduce", "--rows", group]) == 0
    capsys.readouterr()
    assert len(seen) == calls
    assert ("kneserdiss.certify", name, "certify.oracle") in _tracing_targets()


def test_reproduce_rows_match_the_cli_workload(monkeypatch, capsys):
    # perfbench/wl_cli.py expects REPRODUCE_GROUPS[g] rows from each group
    # g; a group that grows or shrinks would fail that workload's check
    # with "N rows, expected M" and no other sign
    monkeypatch.syspath_prepend(str(PERFBENCH))  # wl_cli imports its siblings
    groups = _load("wl_cli").REPRODUCE_GROUPS
    assert tuple(groups) == kneserdiss.cli.ALL_GROUPS
    for group, want in groups.items():
        assert kneserdiss.cli.main(["reproduce", "--rows", group, "--output", "json"]) == 0
        assert len(json.loads(capsys.readouterr().out)) == want, group
