"""Operations, passes and the figures derived from them.

A workload is a fixed list of operations.  One pass runs every operation
once, in the same order, and checks each output; a run repeats whole
passes until its time is up, so every run attempts whole rounds of the
same operations and the share of failed operations never depends on the
run length or the seed.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Op:
    """One call into the program and the checks on what it returned.

    ``check`` returns a list of problems; an empty list means the output
    is correct.  ``keep`` picks what of the output later checks need; the
    output itself is dropped so that no pass holds on to large graphs.  ``known_fault`` names a fault of the program that makes
    this operation fail every time: its problems count as a failed
    operation rather than as a wrong result.
    """

    label: str
    part: str
    run: Callable[[], object]
    check: Callable[[object], list]
    known_fault: str | None = None
    keep: Callable[[object], object] | None = None


@dataclass
class OpResult:
    label: str
    part: str
    seconds: float
    status: str  # ok / failed / wrong
    value: object = None
    problems: list = field(default_factory=list)
    slowdown: float = 1.0  # the host's, around this operation (hostspeed.py)

    @property
    def scaled(self) -> float:
        """Seconds at the quiet host's speed."""
        return self.seconds / self.slowdown


@dataclass
class PassResult:
    seconds: float
    ops: list
    tracer: object = None

    def by_label(self) -> dict:
        return {r.label: r for r in self.ops}


def run_op(op: Op, tracer=None) -> OpResult:
    if tracer is not None:
        tracer.op = op.label
    start = time.perf_counter()
    try:
        value = op.run()
    except Exception as exc:  # any escape is an output to be judged
        value = exc
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.op = None
    if isinstance(value, Exception) and op.known_fault is None:
        problems = [f"raised {type(value).__name__}: {value}"]
    else:
        try:
            problems = list(op.check(value))
        except Exception as exc:
            problems = [f"output could not be checked: {type(exc).__name__}: {exc}"]
    if not problems:
        status = "ok"
    elif op.known_fault is not None:
        status = "failed"
    else:
        status = "wrong"
    kept = op.keep(value) if op.keep is not None and status == "ok" else None
    return OpResult(op.label, op.part, seconds, status, kept,
                    [f"{op.label}: {p}" for p in problems])


def run_pass(ops, tracer=None, slowdown=None) -> PassResult:
    """Every operation once; ``slowdown()`` runs before and after each.

    An operation's slowdown is the mean of the two around it.  The pass
    time is the sum of the operations' times, without the kernel runs.
    """
    results = []
    before = slowdown() if slowdown is not None else 1.0
    for op in ops:
        result = run_op(op, tracer)
        after = slowdown() if slowdown is not None else 1.0
        result.slowdown = (before + after) / 2
        before = after
        results.append(result)
    return PassResult(sum(r.seconds for r in results), results, tracer)


def run_passes(ops, seconds: float, traced_every_other: bool, make_tracer, probe=None,
               between=None, slowdown=None):
    """One warm-up pass, then whole timed passes for ``seconds``.

    The warm-up pass is checked like the others but left out of every
    timing, so lazy imports and first-call costs do not land on one pass.
    With ``traced_every_other`` the timed passes alternate untraced and
    traced, and at least one of each runs.  After a traced pass,
    ``probe(tracer)`` may run more traced work that the pass time leaves out.
    ``between()`` runs after every timed pass, outside the pass time.
    ``slowdown`` is handed to every timed pass.
    """
    warmup = run_pass(ops)
    passes = []
    start = time.perf_counter()
    while True:
        traced = traced_every_other and len(passes) % 2 == 1
        if traced:
            tracer = make_tracer()
            with tracer:
                result = run_pass(ops, tracer, slowdown)
                if probe is not None:
                    probe(tracer)
        else:
            result = run_pass(ops, slowdown=slowdown)
        passes.append(result)
        if between is not None:
            between()
        enough = time.perf_counter() - start >= seconds
        if enough and len(passes) >= 2:
            return warmup, passes


def op_scaled(passes) -> list[float]:
    """Each operation's median scaled time over the passes, in operation order.

    The scaled time takes out the host's swings (see ``hostspeed.py``);
    the median over passes takes out what is left of one operation's noise.
    """
    return [statistics.median(p.ops[i].scaled for p in passes)
            for i in range(len(passes[0].ops))]


def part_values(passes, aggregate: dict) -> dict:
    """Each part's figure from the scaled times of its operations.

    ``aggregate`` maps a part to how its operations combine: ``sum`` for a
    set of instances, ``statistics.median`` for the typical single call.
    """
    times = op_scaled(passes)
    parts = [r.part for r in passes[0].ops]
    return {part: combine([t for t, p in zip(times, parts) if p == part])
            for part, combine in aggregate.items()}


def end_to_end(passes, setup_seconds, peak_rss_mb) -> dict:
    """The figures a user of the workload sees, at the quiet host's speed.

    ``pass_s`` is one pass over every operation and ``op_geomean_ms`` the
    typical single operation, each operation weighed equally; both are
    built from the per-operation scaled times.
    """
    times = op_scaled(passes)
    return {
        "setup_s": setup_seconds,
        "peak_rss_mb": peak_rss_mb,
        "pass_s": sum(times),
        "op_geomean_ms": statistics.geometric_mean(max(t, 1e-9) for t in times) * 1000,
    }
