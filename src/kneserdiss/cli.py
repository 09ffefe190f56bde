"""Command-line front end: gen / solve / bound / verify / reproduce.

Exit codes: 0 success, 1 mismatch or invalid certificate, 2 input or
domain error, 3 budget-limited.

Each command imports the heavy modules it uses (``solver``, ``bounds``,
``certify``) when it runs, so ``gen`` and ``verify`` never compile the
search or the bound arithmetic.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from itertools import combinations

from .certificates import certificate_from_json
from .errors import CapacityError, DomainError, SearchFailure
from .graphs import bits, read_dimacs, write_dimacs
from .kneser import (
    _lex_elements, build_kneser, certificate_mask, kneser_from_json, kneser_to_json,
)


def _parse_duration(text: str) -> float:
    text = text.strip().lower()
    factor = 1.0
    if text.endswith("h"):
        factor, text = 3600.0, text[:-1]
    elif text.endswith("m"):
        factor, text = 60.0, text[:-1]
    elif text.endswith("s"):
        text = text[:-1]
    try:
        return float(text) * factor
    except ValueError:
        raise DomainError(f"bad duration {text!r}") from None


def _budget_from_args(args):
    from .solver import SearchBudget

    max_time = _parse_duration(args.max_time) if args.max_time else None
    return SearchBudget(max_nodes=args.max_nodes, max_time=max_time)


def _add_budget_flags(p):
    p.add_argument("--max-time", help="wall clock budget, e.g. 600s / 5m / 1h")
    p.add_argument("--max-nodes", type=int, default=None)


def cmd_gen(args) -> int:
    g = build_kneser(args.n, args.k)
    if args.format == "dimacs":
        sys.stdout.write(write_dimacs(g))
    else:
        sys.stdout.write(kneser_to_json(g) + "\n")
    return 0


def cmd_solve(args) -> int:
    from . import solver

    budget = _budget_from_args(args)
    result = solver.solve_kneser(args.n, args.k, args.max_degree, budget)
    doc = result.to_json_dict()
    doc["witness"] = list(_lex_elements(args.n, args.k, result.witness))
    print(json.dumps(doc))
    return 0 if result.optimal else 3


def cmd_bound(args) -> int:
    from . import bounds

    rep = bounds.report(args.n, args.k)
    print(json.dumps(rep.as_dict()))
    return 0


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path} is not UTF-8 text: {exc}") from None


def _load_graph(path: str):
    text = _read_text(path)
    if text.lstrip().startswith("{"):
        return kneser_from_json(text)
    return read_dimacs(text)


def cmd_verify(args) -> int:
    from . import certify

    g = _load_graph(args.graph)
    cert = certificate_from_json(_read_text(args.certificate))
    d = args.max_degree if args.max_degree is not None else cert.d
    mask = certificate_mask(g, cert)
    valid = certify.check_max_degree(g, mask, d)
    print(cert.to_json(valid=valid))
    return 0 if valid else 1


@dataclass
class ReproRow:
    label: str
    group: str
    claimed: object
    computed: object
    method: str
    status: str  # match / mismatch / skipped-budget
    mandatory: bool = True


def _row(label, group, claimed, computed, method, exhausted=False, mandatory=True):
    if exhausted:
        status = "skipped-budget"
    else:
        status = "match" if claimed == computed else "mismatch"
    return ReproRow(label, group, claimed, computed, method, status, mandatory)


def _solved_method(res):
    # with a bound source, optimality rests on a bound, not a finished search
    return "bound closure" if res.bound_source else "exact solve"


def _reproduce_rows(groups, budget, rng):
    from . import bounds, certify, solver

    rows = []

    if "k2" in groups:
        for n in range(5, 10):
            res = solver.solve(build_kneser(n, 2), 1, budget)
            rows.append(_row(f"diss K({n},2)", "k2", max(n - 1, 6),
                             res.best_size, _solved_method(res),
                             exhausted=not res.optimal))
        for n in range(10, 13):
            lo = bounds.alpha_kneser(n, 2)
            up = bounds.combined_upper(n, 2)
            computed = lo if lo == up else None
            rows.append(_row(f"diss K({n},2)", "k2", n - 1, computed,
                             "bound closure"))

    if "k3" in groups:
        res = solver.solve_kneser(8, 3, 1, budget)
        rows.append(_row("diss K(8,3)", "k3", 21, res.best_size,
                         _solved_method(res), exhausted=not res.optimal))
        rows.append(_row("center lower bound K(9,3)", "k3", 28,
                         bounds.alpha_kneser(9, 3), "bound closure"))
        res = solver.solve_kneser(9, 3, 1, budget)
        rows.append(_row("diss K(9,3)", "k3", 28, res.best_size,
                         _solved_method(res), exhausted=not res.optimal,
                         mandatory=False))

    if "odd" in groups:
        for k, expect in ((2, 6), (3, 20)):
            res = solver.solve_kneser(2 * k + 1, k, 1, budget)
            rows.append(_row(f"diss O_{k} = K({2 * k + 1},{k})", "odd", expect,
                             res.best_size, _solved_method(res),
                             exhausted=not res.optimal))

    if "threshold" in groups:
        for k, expect in ((2, 7), (3, 17)):
            rows.append(_row(f"alpha dominance threshold k={k}", "threshold",
                             expect, bounds.alpha_dominance_threshold(k),
                             "bound closure"))

    if "katona" in groups:
        for n in (5, 6, 7):
            g = build_kneser(n, 2)
            res = solver.solve(g, 1, budget)
            family = g.vertex_set_elements(res.witness)
            top, _ = certify.max_substrings(n, 2, family)
            rows.append(_row(f"cyclic substrings of max set K({n},2) <= 3",
                             "katona", True, top <= 3, "oracle",
                             exhausted=not res.optimal))

    if "hall" in groups:
        for k in (2, 3):
            g = build_kneser(2 * k + 1, k)
            center = list(bits(g.center_mask(2 * k + 1)))
            ok = certify.odd_expansion_violator(g) is None
            rows.append(_row(f"expansion holds for all L in O_{k}", "hall",
                             True, ok, "oracle"))

            # drawn up front, so all() stopping early skips no draw
            samples = [sum(1 << v for v in rng.sample(center, rng.randint(1, len(center))))
                       for _ in range(200)]
            saturated = all(certify.odd_hall_matching(g, sub).saturated
                            for sub in samples)
            rows.append(_row(f"matchings saturate 200 sampled L in O_{k}",
                             "hall", True, saturated, "oracle"))

    if "doublecount" in groups:
        cases = [(5, 2), (6, 2), (7, 2), (5, 3), (6, 3), (7, 3)]
        ok = True
        for i in range(50):
            n, k = cases[i % len(cases)]
            pool = list(combinations(range(1, n + 1), k))
            family = rng.sample(pool, rng.randint(1, min(8, len(pool))))
            ok = ok and certify.double_count_identity(n, k, family)
        rows.append(_row("substring double counting, 50 random families",
                         "doublecount", True, ok, "oracle"))

    return rows


ALL_GROUPS = ("k2", "k3", "odd", "threshold", "katona", "hall", "doublecount")


def cmd_reproduce(args) -> int:
    from random import Random

    budget = _budget_from_args(args)
    if args.rows is not None:
        groups = [g.strip() for g in args.rows.split(",")]
        unknown = [g for g in groups if g not in ALL_GROUPS]
        if unknown:
            raise DomainError(f"unknown row groups: {', '.join(map(repr, unknown))}")
    else:
        groups = list(ALL_GROUPS)
    rng = Random(args.seed)
    rows = _reproduce_rows(groups, budget, rng)

    if args.output == "json":
        print(json.dumps([row.__dict__ for row in rows]))
    else:
        width = max(len(r.label) for r in rows)
        for r in rows:
            print(f"{r.label:<{width}}  claimed={r.claimed!s:>5}  "
                  f"computed={r.computed!s:>5}  [{r.method}]  {r.status}")
        counts = {}
        for r in rows:
            counts[r.status] = counts.get(r.status, 0) + 1
        print("summary: " + ", ".join(f"{v} {k}" for k, v in sorted(counts.items())))

    if any(r.status == "mismatch" for r in rows):
        return 1
    if any(r.status == "skipped-budget" and r.mandatory for r in rows):
        return 3
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kneserdiss",
        description="Exact dissociation numbers, bounds and certificates "
                    "for Kneser graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a Kneser graph to stdout")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--format", choices=("dimacs", "json"), default="dimacs")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="exact bounded-degree maximum on K(n,k)")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--max-degree", type=int, default=1)
    _add_budget_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bound", help="bound report for diss(K(n,k))")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("verify", help="check a certificate against a graph")
    p.add_argument("graph", help="DIMACS or Kneser JSON file")
    p.add_argument("certificate", help="certificate JSON file")
    p.add_argument("--max-degree", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("reproduce", help="re-derive every supported exact value")
    p.add_argument("--rows", help="comma-separated groups: " + ",".join(ALL_GROUPS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", choices=("table", "json"), default="table")
    _add_budget_flags(p)
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, CapacityError, SearchFailure, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
