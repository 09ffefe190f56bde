"""Tour of the bound machinery for diss(K(n,k)).

Walks a grid of (n, k), prints every applicable bound, the best-known
interval, and the exact value whenever one of the closed-form results
settles the instance.  Everything here is exact integer arithmetic, so the
table is reproducible bit for bit.
"""

from kneserdiss import alpha_dominance_threshold, report


def show(n, k):
    rep = report(n, k)
    lo = ", ".join(f"{b.name}={b.value}" for b in rep.lower_bounds)
    up = ", ".join(f"{b.name}={b.value}" for b in rep.upper_bounds)
    exact = f"  exact={rep.known_exact[0]} ({rep.known_exact[1]})" if rep.known_exact else ""
    print(f"K({n:>2},{k})  interval=[{rep.best_lower}, {rep.best_upper}]{exact}")
    print(f"         lower: {lo}")
    print(f"         upper: {up}")


print("=== pairs (k=2): settled for every n ===")
for n in (5, 6, 7, 9, 12, 30):
    show(n, 2)

print()
print("=== triples (k=3): settled from n=8 on ===")
for n in (6, 7, 8, 9, 12, 17):
    show(n, 3)

print()
print("=== k=4 and k=5: intervals only, except the smallest cases ===")
for n, k in ((8, 4), (9, 4), (10, 4), (12, 4), (12, 5), (14, 5)):
    show(n, k)

print()
print("=== where independence starts dominating the edge-containing case ===")
for k in (2, 3, 4, 5, 6):
    print(f"k={k}: alpha dominance from n = {alpha_dominance_threshold(k)}")
