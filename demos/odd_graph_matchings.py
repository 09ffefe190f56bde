"""Neighborhood expansion and Hall matchings inside odd graphs.

In K(2k+1, k) the vertices avoiding element 2k+1 induce a perfect
matching, and every subset L of the center of 2k+1 expands into that part
by a factor (k+1)/k.  Hall's condition follows, so each L has a matching
into the bottom part; both facts are demonstrated exhaustively for O_2
and by sampling for O_3.
"""

import random
from itertools import combinations

from kneserdiss import (
    build_kneser,
    find_x_matching,
    odd_expansion_check,
    odd_hall_matching,
    odd_neighborhood,
)
from kneserdiss.graphs import bits

for k in (2, 3):
    n = 2 * k + 1
    g = build_kneser(n, k)
    center = list(bits(g.center_mask(n)))
    print(f"=== O_{k} = K({n},{k}): center has {len(center)} vertices ===")

    checked = 0
    worst = None
    for size in range(1, len(center) + 1):
        for sub in combinations(center, size):
            assert odd_expansion_check(g, sub)
            checked += 1
            ratio = odd_neighborhood(g, sub)[1].bit_count() / len(sub)
            if worst is None or ratio < worst[0]:
                worst = (ratio, size)
    print(f"expansion holds for all {checked} nonempty subsets; "
          f"tightest ratio {worst[0]:.3f} at |L|={worst[1]} "
          f"(theory floor {(k + 1) / k:.3f})")

    rng = random.Random(k)
    for _ in range(3):
        sub = rng.sample(center, rng.randint(2, len(center)))
        res = odd_hall_matching(g, sub)
        pairs = [(g.vertices[x].elements, g.vertices[y].elements)
                 for x, y in res.matching]
        print(f"|L|={len(sub)}: saturating matching, e.g. "
              f"{set(pairs[0][0])} -> {set(pairs[0][1])}")
    print()

print("=== Hall violators are explicit when saturation is impossible ===")
res = find_x_matching(["a", "b", "c"], ["y"], [("a", "y"), ("b", "y"), ("c", "y")])
print(f"three left vertices, one right: violator W = {sorted(res.violator)}")
