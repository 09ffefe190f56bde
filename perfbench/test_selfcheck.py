"""The benchmark's self-check as tests: ``python3 -m pytest perfbench``."""

import pytest

import selfcheck


@pytest.mark.parametrize("check", selfcheck.CHECKS, ids=lambda fn: fn.__name__)
def test_check_fires(check):
    assert check() == []


@pytest.mark.parametrize("workload", ["search", "graph-core", "cli"])
def test_reduced_workload(workload):
    assert selfcheck.reduced_run(workload) == []
