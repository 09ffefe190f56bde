"""Workload ``cli``: the command line run as a user runs it, one process per call.

Process start-up, import and the ``certify`` oracles behind ``reproduce``
dominate here, and the I/O layer reads the files that set-up wrote (where
``graph-core`` writes them).  The commands run as
``python3 -m kneserdiss.cli`` with ``src`` on PYTHONPATH, so nothing has
to be installed.  The seed picks the certificate sets and the seed passed
to ``reproduce``.

Two operations fail every time because of faults in ``verify``: a
certificate with ``"d": "x"`` ends in a ValueError traceback and exit 1,
and a DIMACS certificate listing ``true`` as a vertex passes as valid.
Both should exit 2 (input error); they are counted as failed, not wrong.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import statistics
import subprocess
import sys
import time

import oracle
from runner import Op

REPRODUCE_GROUPS = {"k2": 8, "k3": 3, "odd": 2, "threshold": 2, "katona": 3, "hall": 4,
                    "doublecount": 1}
REDUCED_GROUPS = ("k2", "threshold")
CALL_TIMEOUT = 120

FAULT_BAD_D = 'verify: a certificate with "d":"x" raises ValueError (traceback, exit 1), not exit 2'
FAULT_TRUE = "verify: a DIMACS certificate with set [true] is accepted as vertex 1, not rejected"


class Cli:
    kernel = "process"  # hostspeed.py
    aggregate = {"reproduce_s": sum, "cli_call_s": statistics.median}

    def __init__(self, kd, seed: int, workdir: str, reduced: bool = False):
        self.kd = kd
        self.root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        self.env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        self.seed = seed
        self.groups = REDUCED_GROUPS if reduced else tuple(REPRODUCE_GROUPS)
        self.files = write_inputs(workdir, random.Random(seed))
        self.commands = self._commands(reduced)
        self.main_seconds = {}

    def _commands(self, reduced):
        f = self.files
        repro = ["reproduce", "--output", "json", "--seed", str(self.seed)]
        if reduced:
            repro += ["--rows", ",".join(self.groups)]
        n = 7 if reduced else 8
        return [
            ("reproduce", "reproduce_s", repro, lambda p: check_reproduce(p, self.groups), None),
            ("solve", "cli_call_s", ["solve", str(n), "3"], lambda p: check_solve(p, n), None),
            ("bound", "cli_call_s", ["bound", "9", "3"], check_bound, None),
            ("gen-dimacs", "cli_call_s", ["gen", "7", "3"], check_gen_dimacs, None),
            ("gen-json", "cli_call_s", ["gen", "6", "2", "--format", "json"], check_gen_json, None),
            ("verify-valid", "cli_call_s", ["verify", f["dimacs"], f["valid"]],
             lambda p: check_verify(p, True), None),
            ("verify-invalid", "cli_call_s", ["verify", f["json"], f["invalid"]],
             lambda p: check_verify(p, False), None),
            ("verify-bad-d", "cli_call_s", ["verify", f["json"], f["bad_d"]],
             check_input_error, FAULT_BAD_D),
            ("verify-true", "cli_call_s", ["verify", f["dimacs"], f["true"]],
             check_input_error, FAULT_TRUE),
        ]

    def ops(self) -> list[Op]:
        return [Op(label, part, self._call(argv), check, known_fault=fault)
                for label, part, argv, check, fault in self.commands]

    def _call(self, argv):
        cmd = [sys.executable, "-m", "kneserdiss.cli", *argv]

        def call():
            return subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=CALL_TIMEOUT)
        return call

    def probe(self, tracer):
        """Run each command's ``main`` in this process, under the tracer."""
        main_seconds = {}
        for label, _, argv, _, _ in self.commands:
            tracer.op = label
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                try:
                    self.kd.cli.main(list(argv))
                except Exception:  # the bad-d fault escapes main; its time still counts
                    pass
            main_seconds[label] = time.perf_counter() - start
        tracer.op = None
        self.main_seconds = main_seconds

    def pass_checks(self, result, first) -> list[str]:
        return []

    def layer_figures(self, result) -> dict:
        gaps = [r.seconds - self.main_seconds[r.label] for r in result.ops
                if r.label in self.main_seconds]
        return {"cli.startup_s": statistics.median(gaps)} if gaps else {}


def check_reproduce(proc, groups) -> list[str]:
    problems = _exit(proc, 0)
    rows = json.loads(proc.stdout)
    want = sum(REPRODUCE_GROUPS[g] for g in groups)
    if len(rows) != want:
        problems.append(f"{len(rows)} rows, expected {want}")
    for row in rows:
        if row["status"] != "match":
            problems.append(f"row {row['label']!r}: {row['status']}")
        own = _own_row_value(row)
        if own is not None and row["computed"] != own:
            problems.append(f"row {row['label']!r} computed {row['computed']}, expected {own}")
    return problems


def _own_row_value(row):
    label = row["label"]
    m = re.fullmatch(r"diss K\((\d+),(\d+)\)", label)
    if m:
        return oracle.diss_theorem(int(m[1]), int(m[2]))
    m = re.match(r"diss O_(\d+)", label)
    if m:
        return oracle.pascal(2 * int(m[1]), int(m[1]))
    m = re.fullmatch(r"center lower bound K\((\d+),(\d+)\)", label)
    if m:
        return oracle.ekr(int(m[1]), int(m[2]))
    if row["method"] == "oracle":
        return True
    return None


def write_inputs(workdir: str, rng) -> dict:
    """Graph and certificate files for ``verify``, written without the package."""
    n, k = 7, 3
    verts = oracle.subsets(n, k)
    adj = oracle.kneser_adjacency(n, k)
    edges = [(i, j) for i in range(len(verts)) for j in oracle.bit_indices(adj[i]) if i < j]
    # all 3-subsets of a 6-subset A induce a perfect matching: a dissociation set
    outside = rng.randint(1, n)
    a = [e for e in range(1, n + 1) if e != outside]
    family = [v for v in verts if outside not in v]
    # a vertex using the outside element is disjoint from four members
    extra = tuple(sorted([outside, *rng.sample(a, 2)]))
    os.makedirs(workdir, exist_ok=True)
    docs = {
        "dimacs": f"p edge {len(verts)} {len(edges)}\n"
                  + "".join(f"e {i + 1} {j + 1}\n" for i, j in edges),
        "json": json.dumps({"n": n, "k": k, "vertices": [list(v) for v in verts]}),
        "valid": json.dumps({"d": 1, "set": [verts.index(v) + 1 for v in family]}),
        "invalid": json.dumps({"n": n, "k": k, "d": 1,
                               "set": [list(v) for v in family + [extra]]}),
        "bad_d": json.dumps({"n": n, "k": k, "d": "x", "set": [list(family[0])]}),
        "true": json.dumps({"d": 1, "set": [True]}),
    }
    names = {"dimacs": "k73.dimacs", "json": "k73.json", "valid": "valid.json",
             "invalid": "invalid.json", "bad_d": "bad-d.json", "true": "true.json"}
    paths = {}
    for key, text in docs.items():
        paths[key] = os.path.join(workdir, names[key])
        with open(paths[key], "w") as fh:
            fh.write(text)
    return paths


def _exit(proc, code) -> list[str]:
    if proc.returncode != code:
        last = proc.stderr.strip().splitlines()[-1:] or [""]
        return [f"exit {proc.returncode}, expected {code}: {last[0][:200]}"]
    return []


def check_solve(proc, n) -> list[str]:
    problems = _exit(proc, 0)
    out = json.loads(proc.stdout)
    witness = [tuple(v) for v in out["witness"]]
    want = oracle.diss_theorem(n, 3)
    if out["size"] != want or len(set(witness)) != want:
        problems.append(f"size {out['size']} with {len(set(witness))} distinct vertices, expected {want}")
    if any(len(set(v)) != 3 or not set(v) <= set(range(1, n + 1)) for v in witness):
        problems.append("witness holds a vertex that is not a 3-subset")
    if oracle.max_induced_degree(witness) > 1:
        problems.append("witness induces degree above 1")
    if out["optimal"] is not True:
        problems.append("solve reported optimal=false")
    return problems


def check_bound(proc) -> list[str]:
    problems = _exit(proc, 0)
    out = json.loads(proc.stdout)
    alpha, exact = oracle.ekr(9, 3), oracle.diss_theorem(9, 3)
    lo, hi = out["interval"]
    if out["alpha"] != alpha:
        problems.append(f"alpha {out['alpha']}, EKR gives {alpha}")
    if not alpha <= lo <= exact <= hi <= 2 * alpha:
        problems.append(f"interval [{lo},{hi}] does not hold {exact} inside [{alpha},{2 * alpha}]")
    if out.get("exact") and out["exact"]["value"] != exact:
        problems.append(f"exact value {out['exact']['value']}, theorem gives {exact}")
    return problems


def check_gen_dimacs(proc) -> list[str]:
    problems = _exit(proc, 0)
    lines = proc.stdout.split("\n")
    verts = oracle.subsets(7, 3)
    want = ["p", "edge", str(len(verts)), str(oracle.edge_count(7, 3))]
    if lines[0].split() != want:
        problems.append(f"header {lines[0]!r}")
    got = {tuple(sorted(int(t) for t in line.split()[1:])) for line in lines[1:] if line}
    own = {(i + 1, j + 1) for i in range(len(verts)) for j in range(i + 1, len(verts))
           if oracle.disjoint(verts[i], verts[j])}
    if got != own:
        problems.append("edge list differs from the disjoint pairs")
    return problems


def check_gen_json(proc) -> list[str]:
    problems = _exit(proc, 0)
    out = json.loads(proc.stdout)
    if (out["n"], out["k"]) != (6, 2) or [tuple(v) for v in out["vertices"]] != oracle.subsets(6, 2):
        problems.append("graph JSON is not K(6,2) in lexicographic order")
    return problems


def check_verify(proc, valid: bool) -> list[str]:
    problems = _exit(proc, 0 if valid else 1)
    out = json.loads(proc.stdout)
    if out.get("valid") is not valid:
        problems.append(f"reported valid={out.get('valid')}, expected {valid}")
    return problems


def check_input_error(proc) -> list[str]:
    problems = _exit(proc, 2)
    if "Traceback" in proc.stderr:
        problems.append("printed a traceback")
    return problems
