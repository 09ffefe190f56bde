"""Exact dissociation numbers by branch and bound, with verified witnesses.

Solves the flagship instances: the Petersen graph, the k=2 family, both
small odd graphs, and the 56-vertex K(8,3).  Every witness is re-checked
by the independent certificate verifier before being reported.
"""

import time

from kneserdiss import (
    SearchBudget,
    build_kneser,
    check_max_degree,
    psi3,
    solve,
    solve_kneser,
)

print("=== the k=2 family: diss = max(n-1, 6) ===")
for n in range(5, 10):
    g = build_kneser(n, 2)
    res = solve(g, 1)
    assert check_max_degree(g, res.witness, 1)
    print(f"K({n},2): diss={res.best_size}  nodes={res.nodes_explored}")

print()
print("=== Petersen graph in detail ===")
g = build_kneser(5, 2)
res = solve(g, 1)
members = g.vertex_set_elements(res.witness)
print(f"diss(K(5,2)) = {res.best_size}, witness: {[set(m) for m in members]}")
cover, optimal = psi3(g)
print(f"3-path vertex cover number: {cover}  (diss + cover = {res.best_size + cover})")

print()
print("=== K(8,3): 56 vertices, 10-regular ===")
start = time.monotonic()
res = solve_kneser(8, 3, 1, SearchBudget(max_time=1800.0))
print(f"diss(K(8,3)) = {res.best_size}  optimal={res.optimal}  "
      f"nodes={res.nodes_explored}  {time.monotonic() - start:.2f}s")

print()
print("=== generalized degree bounds on the Petersen graph ===")
for d in (0, 1, 2, 3):
    res = solve(g, d)
    print(f"max |S| with induced degree <= {d}:  {res.best_size}")

print()
print("=== generalized degree bounds on K(7,3), searched from a fixed edge ===")
g = build_kneser(7, 3)
for d in (2, 3):
    start = time.monotonic()
    res = solve_kneser(7, 3, d)
    assert check_max_degree(g, res.witness, d)
    print(f"max |S| with induced degree <= {d}:  {res.best_size}  optimal={res.optimal}  "
          f"nodes={res.nodes_explored}  {time.monotonic() - start:.2f}s")
