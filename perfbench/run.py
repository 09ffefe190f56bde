"""kneserdiss benchmark: one workload per run, every figure by name and unit.

    python3 perfbench/run.py --workload search --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check

Run from the root of a source checkout; the package is imported from
``src`` and nothing needs to be installed.  The run repeats whole passes
over the workload's operations for ``--seconds``, checks every output
against the benchmark's own computations (``oracle.py``), and prints a
report followed, as the last line, by one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end figures, with every time scaled to the quiet
host's speed by the workload's reference kernel (``hostspeed.py``); with ``--trace 1`` passes alternate
untraced and traced and the metrics are the per-layer figures, including
the tracing overhead.  Spans and the full report are written under
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import runner  # noqa: E402
import tracing  # noqa: E402
import wl_cli  # noqa: E402
import wl_graph_core  # noqa: E402
import wl_search  # noqa: E402

WORKLOADS = {
    "search": wl_search.Search,
    "graph-core": wl_graph_core.GraphCore,
    "cli": wl_cli.Cli,
}
# set-ups timed before the passes, after each timed pass, and at the end;
# spreading them over the run keeps one slow spell of the host from
# deciding the median
SETUP_SAMPLES = (3, 1, 2)
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("pass_s", "s"), ("op_geomean_ms", "ms"))


def per_layer_metrics() -> list[tuple[str, str]]:
    return [
        *tracing.LAYER_METRICS,
        ("solver.pool_overhead_s", "s"),
        ("cli.startup_s", "s"),
        ("trace.overhead_pct", "%"),
        *((name, "count") for name in wl_search.node_metric_names()),
    ]


class MissingPackage(Exception):
    pass


def load_package():
    """Import kneserdiss from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "kneserdiss", "__init__.py")):
        raise MissingPackage(f"no package source at {os.path.relpath(SRC)}/kneserdiss")
    sys.path.insert(0, SRC)
    import kneserdiss
    import kneserdiss.cli  # noqa: F401  (its main is a traced entry point)

    if not os.path.abspath(kneserdiss.__file__).startswith(SRC + os.sep):
        raise MissingPackage(f"kneserdiss imported from {kneserdiss.__file__}, not {SRC}")
    return kneserdiss


def setup_only(workload: str, seed: int) -> float:
    """Import plus input generation, timed in this (fresh) process."""
    start = time.perf_counter()
    kd = load_package()
    workdir = os.path.join(WORK_DIR, f"setup-{os.getpid()}")
    try:
        WORKLOADS[workload](kd, seed, workdir)
        return time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def setup_samples(workload: str, seed: int, count: int) -> list[float]:
    """Set-up times, each in a fresh interpreter, at the quiet host's speed.

    The workload's reference kernel runs in this process right before and
    right after each fresh interpreter, as it does around each operation.
    """
    kernel = WORKLOADS[workload].kernel
    samples = []
    for _ in range(count):
        before = hostspeed.slowdown(kernel)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        seconds = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
        samples.append(seconds / ((before + hostspeed.slowdown(kernel)) / 2))
    return samples


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def traced_figures(wl, passes) -> dict:
    traced = [p for p in passes if p.tracer is not None]
    plain = [p for p in passes if p.tracer is None]
    per_pass = []
    for p in traced:
        figures = tracing.layer_figures(p.tracer)
        figures.update(wl.layer_figures(p))
        per_pass.append(figures)
    out = {}
    for name, _ in per_layer_metrics():
        values = [f[name] for f in per_pass if name in f]
        out[name] = statistics.median(values) if values else 0
    untraced_s = sum(runner.op_scaled(plain))
    traced_s = sum(runner.op_scaled(traced))
    out["trace.overhead_pct"] = (traced_s / untraced_s - 1) * 100
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, reduced: bool = False) -> dict:
    kd = load_package()
    setups = setup_samples(workload, seed, SETUP_SAMPLES[0])
    workdir = os.path.join(WORK_DIR, f"{workload}-{os.getpid()}")
    try:
        wl = WORKLOADS[workload](kd, seed, workdir, reduced=reduced)
        ops = wl.ops()
        warmup, passes = runner.run_passes(
            ops, seconds, trace, tracing.Tracer, probe=getattr(wl, "probe", None),
            between=lambda: setups.extend(setup_samples(workload, seed, SETUP_SAMPLES[1])),
            slowdown=lambda: hostspeed.slowdown(wl.kernel))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups += setup_samples(workload, seed, SETUP_SAMPLES[2])

    results = [r for p in [warmup, *passes] for r in p.ops]
    traced = [p for p in passes if p.tracer is not None]
    plain = [p for p in passes if p.tracer is None]
    problems = [msg for r in results if r.status == "wrong" for msg in r.problems]
    for p in [warmup, *passes]:
        problems += wl.pass_checks(p, warmup)
    failures = sorted({msg for r in results if r.status == "failed" for msg in r.problems})

    parts = runner.part_values(plain, wl.aggregate)
    if trace:
        figures = traced_figures(wl, passes)
        units = dict(per_layer_metrics())
    else:
        figures = runner.end_to_end(plain, statistics.median(setups), peak_rss_mb())
        units = dict(END_TO_END)
    return {
        "workload": workload,
        "seed": seed,
        "passes": len(passes),
        "traced_passes": len(traced),
        "parts": parts,
        "pass_seconds": [p.seconds for p in passes],
        "op_seconds": {r.label: [p.ops[i].seconds for p in plain]
                       for i, r in enumerate(warmup.ops)},
        "op_slowdown": {r.label: [p.ops[i].slowdown for p in plain]
                        for i, r in enumerate(warmup.ops)},
        "setup_samples": setups,
        "problems": problems,
        "failures": failures,
        "correct": not problems,
        "attempted": len(results),
        "failed": sum(r.status != "ok" for r in results),
        "metrics": {name: {"value": figures[name], "unit": units[name]} for name in units},
        "spans": [s.as_dict() for s in traced[-1].tracer.spans] if traced else None,
    }


def write_outputs(report: dict, trace: bool) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{report['workload']}-seed{report['seed']}-trace{int(trace)}"
    spans = report.pop("spans")
    if spans is not None:
        with open(os.path.join(OUT_DIR, stem + "-spans.json"), "w") as fh:
            json.dump(spans, fh)
    with open(os.path.join(OUT_DIR, stem + ".json"), "w") as fh:
        json.dump(report, fh, indent=1)


def print_report(report: dict) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  timed passes {report['passes']}"
          f" ({report['traced_passes']} traced)  attempted {report['attempted']}"
          f"  failed {report['failed']}  correct {report['correct']}")
    print(f"  {'pass wall time, median':<28} {statistics.median(report['pass_seconds']):.6f} s"
          "  (unscaled; the figures below are at the quiet host's speed)")
    for name, value in report["parts"].items():
        print(f"  {name:<28} {value:.6f} s")
    for name, m in report["metrics"].items():
        print(f"  {name:<28} {m['value']:.6f} {m['unit']}")
    for msg in report["failures"]:
        print(f"  failed (known fault): {msg}")
    for msg in report["problems"][:20]:
        print(f"  WRONG: {msg}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload on a reduced instance set and "
                             "show that every correctness check fires")
    args = parser.parse_args(argv)
    try:
        if args.self_check:
            import selfcheck
            return selfcheck.main()
        if args.workload is None:
            parser.error("--workload is required")
        if args.setup_only:
            print(json.dumps({"setup_s": setup_only(args.workload, args.seed)}))
            return 0
        report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except MissingPackage as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    write_outputs(report, bool(args.trace))
    print_report(report)
    print(json.dumps({key: report[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
