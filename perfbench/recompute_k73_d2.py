"""Recompute diss_2(K(7,3)), the largest vertex set of K(7,3) inducing degree <= 2.

    python3 perfbench/recompute_k73_d2.py

No theorem in the paper fixes this value, so the benchmark's reference for
it (22) rests on this computation, which shares no code with kneserdiss:
the graph is built from set disjointness of 3-subsets of {1..7}, and the
search is the branch and bound in ``oracle.py``, which branches in vertex
order and cuts with the counting bound of a 4-regular graph.  The vertex
{1,2,3} is put in the set first; K(7,3) is vertex-transitive, so some
largest set contains it.  The script prints the value, a witness as
element tuples, the witness's induced degree counted again, and the
regular-graph bound 35*4/(8-2) = 23 that the search had to rule out.
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracle  # noqa: E402

N, K, D = 7, 3, 2


def main() -> int:
    verts = oracle.subsets(N, K)
    adj = oracle.kneser_adjacency(N, K)
    start = time.perf_counter()
    size, witness, nodes = oracle.max_bounded_degree_set(adj, D, fix_first=True)
    seconds = time.perf_counter() - start
    members = [verts[i] for i in oracle.bit_indices(witness)]
    degree = oracle.max_induced_degree(members)
    bound = oracle.regular_bound(len(verts), oracle.kneser_degree(N, K), D)
    print(f"diss_{D}(K({N},{K})) = {size}  ({nodes} nodes, {seconds:.2f} s)")
    print(f"regular-graph bound: {bound}")
    print(f"witness ({len(members)} vertices, induced degree {degree}):")
    print("  " + " ".join("".join(map(str, m)) for m in members))
    return 0 if len(members) == size and degree <= D else 1


if __name__ == "__main__":
    sys.exit(main())
