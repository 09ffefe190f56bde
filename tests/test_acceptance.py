"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import random
import time
from contextlib import contextmanager
from itertools import combinations
from math import floor

from kneserdiss import (
    SearchBudget,
    alpha_dominance_threshold,
    alpha_kneser,
    brute_force,
    build_kneser,
    check_max_degree,
    check_p3_cover,
    combined_upper,
    double_count_identity,
    edge_nonneighbor_closed_form,
    edge_nonneighbor_count,
    edge_nonneighbors,
    find_x_matching,
    katona_upper_large_r,
    katona_upper_small_r,
    known_exact,
    max_substrings,
    odd_expansion_check,
    psi3,
    report,
    solve,
    solve_kneser,
)
from kneserdiss.graphs import bits
from support import pascal_binom, random_graph, small_kneser_parameters


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} ({label}): FAIL")
        raise
    print(f"criterion {num:2d} ({label}): PASS")


def test_criterion_1_pairs_closed_form():
    with criterion(1, "diss K(n,2) = max(n-1,6)"):
        for n in range(5, 10):
            start = time.monotonic()
            res = solve(build_kneser(n, 2), 1)
            elapsed = time.monotonic() - start
            assert res.optimal and res.best_size == max(n - 1, 6), n
            assert elapsed < 10.0, (n, elapsed)
        for n in range(10, 31):
            lo = alpha_kneser(n, 2)  # the center lower bound
            assert lo == combined_upper(n, 2) == max(n - 1, 6), n


def test_criterion_2_k83_exact_solve():
    with criterion(2, "diss K(8,3) = 21 by exact solve"):
        g = build_kneser(8, 3)
        assert g.order == 56 and all(g.degree(v) == 10 for v in range(56))
        start = time.monotonic()
        res = solve_kneser(8, 3, 1, SearchBudget(max_time=1800.0, thread_count=1))
        elapsed = time.monotonic() - start
        assert res.optimal and res.best_size == 21
        assert elapsed < 1800.0, elapsed
        assert check_max_degree(g, res.witness, 1)
        # target: under five minutes; thread_count selects nothing, since
        # every search runs in one process
        start = time.monotonic()
        res4 = solve_kneser(8, 3, 1, SearchBudget(max_time=300.0, thread_count=4))
        elapsed4 = time.monotonic() - start
        assert res4.optimal and res4.best_size == 21
        assert elapsed4 < 300.0, elapsed4


def test_criterion_3_k93_stretch():
    with criterion(3, "diss K(9,3) = 28 (stretch) and its lower bound"):
        assert alpha_kneser(9, 3) == 28  # mandatory center bound
        res = solve_kneser(9, 3, 1, SearchBudget(max_time=300.0))
        if res.optimal:
            assert res.best_size == 28
        else:
            print("criterion  3: stretch solve skipped-budget (allowed)")
            assert res.best_size >= 28  # the incumbent never loses the seed


def test_criterion_4_odd_graphs():
    with criterion(4, "diss O_2 = 6 and diss O_3 = 20 by exact solve"):
        for n, k, expect in ((5, 2, 6), (7, 3, 20)):
            start = time.monotonic()
            res = solve(build_kneser(n, k), 1)
            elapsed = time.monotonic() - start
            assert res.optimal and res.best_size == expect, (n, k)
            assert elapsed < 30.0, (n, k, elapsed)


def test_criterion_5_dominance_thresholds():
    with criterion(5, "alpha dominance thresholds 7 and 17"):
        assert alpha_dominance_threshold(2) == 7
        assert alpha_dominance_threshold(3) == 17


def test_criterion_6_counting_formula_identity():
    with criterion(6, "edge non-neighbor count: sum = closed form = brute force"):
        for k in range(2, 7):
            for n in range(2 * k, 2 * k + 13):
                total = edge_nonneighbor_count(n, k)
                assert total == edge_nonneighbor_closed_form(n, k), (n, k)
                if pascal_binom(n, k) <= 100_000:
                    g = build_kneser(n, k)
                    x = tuple(range(1, k + 1))
                    y = tuple(range(k + 1, 2 * k + 1))
                    assert edge_nonneighbors(g, x, y).bit_count() == total, (n, k)


def test_criterion_7_oracle_equivalence():
    with criterion(7, "solver equals brute force on every small instance"):
        start = time.monotonic()
        for n, k in small_kneser_parameters(20):
            g = build_kneser(n, k)
            for d in (0, 1, 2):
                assert solve(g, d).best_size == brute_force(g, d), (n, k, d)
        rng = random.Random(1729)
        probabilities = (0.2, 0.5, 0.8)
        for i in range(100):
            g = random_graph(rng.randint(2, 18), probabilities[i % 3], rng)
            for d in (0, 1, 2):
                assert solve(g, d).best_size == brute_force(g, d), (i, d)
        assert time.monotonic() - start < 300.0


def _exact_instances():
    out = [(n, 2, max(n - 1, 6)) for n in range(5, 31)]
    out += [(8, 3, 21), (9, 3, 28), (5, 2, 6), (7, 3, 20)]
    return out


def test_criterion_8_bound_soundness():
    with criterion(8, "every bound brackets every known exact value"):
        for n, k, exact in _exact_instances():
            rep = report(n, k)
            known = known_exact(n, k)
            assert known is not None and known[0] == exact, (n, k)
            for entry in rep.lower_bounds:
                assert entry.value <= exact, (n, k, entry)
            for entry in rep.upper_bounds:
                assert exact <= entry.value, (n, k, entry)
            # the cyclic-window bounds are present whenever applicable
            if n > 3 * k - 2:
                assert floor(katona_upper_large_r(n, k)) >= exact
                assert any(b.name == "katona_large_r" for b in rep.upper_bounds)
            if 1 <= n - 2 * k <= k - 2:
                assert floor(katona_upper_small_r(n, k)) >= exact
                assert any(b.name == "katona_small_r" for b in rep.upper_bounds)


def test_criterion_9_cyclic_substring_claim():
    with criterion(9, "max dissociation sets appear <= k+1 times as substrings"):
        start = time.monotonic()
        for n in (5, 6, 7):
            g = build_kneser(n, 2)
            res = solve(g, 1)
            assert res.optimal
            family = g.vertex_set_elements(res.witness)
            top, witness = max_substrings(n, 2, family)
            assert top <= 3, (n, top)
            assert witness is not None
        rng = random.Random(271828)
        cases = [(5, 2), (6, 2), (7, 2), (5, 3), (6, 3), (7, 3)]
        for i in range(50):
            n, k = cases[i % len(cases)]
            pool = list(combinations(range(1, n + 1), k))
            family = rng.sample(pool, rng.randint(1, min(8, len(pool))))
            assert double_count_identity(n, k, family), (n, k, family)
        assert time.monotonic() - start < 120.0


def test_criterion_10_odd_graph_expansion():
    with criterion(10, "odd-graph expansion and Hall matchings"):
        start = time.monotonic()
        for k in (2, 3):
            g = build_kneser(2 * k + 1, k)
            center = list(bits(g.center_mask(2 * k + 1)))
            checked = 0
            for size in range(1, len(center) + 1):
                for sub in combinations(center, size):
                    assert odd_expansion_check(g, sum(1 << v for v in sub)), (k, sub)
                    checked += 1
            assert checked == 2 ** len(center) - 1
            bottom = g.full_mask & ~g.center_mask(2 * k + 1)
            rng = random.Random(100 + k)
            for _ in range(200):
                sub = rng.sample(center, rng.randint(1, len(center)))
                nbrs = 0
                for v in sub:
                    nbrs |= g.adj[v]
                nbrs &= bottom
                edges = [(u, w) for u in sub for w in bits(g.adj[u] & nbrs)]
                res = find_x_matching(sub, list(bits(nbrs)), edges)
                assert res.saturated, (k, sub)
        assert time.monotonic() - start < 120.0


def test_criterion_11_duality():
    with criterion(11, "psi_3 + diss = |V| and cover/degree duality"):
        rng = random.Random(55)
        instances = [
            build_kneser(5, 2), build_kneser(4, 2), build_kneser(6, 2),
            build_kneser(6, 3), build_kneser(7, 3), build_kneser(8, 3),
        ] + [random_graph(14, p, rng) for p in (0.2, 0.5, 0.8)]
        for g in instances:
            res = solve(g, 1)
            assert res.optimal
            cover_size, optimal = psi3(g)
            assert optimal
            assert cover_size + res.best_size == g.order
            cover_mask = g.full_mask & ~res.witness
            assert check_p3_cover(g, cover_mask)
            assert check_p3_cover(g, cover_mask) == check_max_degree(
                g, res.witness, 1
            )
