"""Benchmark of the quditqkd workbench.

Usage, from the root of a source checkout:

    python3 qkdbench/run.py --workload keygen-bulk --seed 1 --seconds 20 --trace 0

Workloads: keygen-bulk and wire-direct (see workloads.py).
The package is imported from ./src of the checkout, never from an
installed copy.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  With --trace 0
the metrics are the end-to-end ones, measured without tracing.  With
--trace 1 the run makes two passes in fresh interpreters with the same
seed and op count, one plain and one traced, and reports the per-layer
metrics of the traced pass plus the tracing overhead on every
end-to-end metric.  Each run also writes a result file with the
machine, the method and the per-op detail to qkdbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("keygen-bulk", "wire-direct")
MIN_OPS = 3
CHILD_TIMEOUT_S = 80

METHOD = {
    "timer": "time.perf_counter around each public call of the package, from the benchmark's own files",
    "cycle": (
        "a run repeats whole cycles of one op, each probe once and one set-up sample while the "
        "next cycle still ends within --seconds; cycle_share is the median share of a cycle "
        "each part took"
    ),
    "setup_s": (
        "measured warm: median over the run of set-ups, the first in the benchmark process and "
        "one per cycle in a fresh interpreter, each timing import quditqkd, the field specs "
        "n=2..8, the workload's channel models and the fork of bob; earlier runs have filled "
        "the page cache"
    ),
    "peak_rss_mb": (
        "resource.getrusage(RUSAGE_SELF).ru_maxrss (KiB on Linux) after set-up and the first op "
        "in the benchmark process, and after the first session in the forked bob child, which "
        "reports its own; the larger, in MiB. The first op's input is the same in every run "
        "(its peak depends on the input by up to ~15%); later ops only add allocator "
        "fragmentation"
    ),
    "estimators": (
        "every metric but peak_rss_mb and ok_frac is the median of its per-op (or per-probe) "
        "samples, one per cycle; detail.samples holds them all, so their count is stated"
    ),
    "isolation": (
        "the page cache is not dropped, which needs privileges the benchmark does not assume; "
        "the netrun roles both run on the lowest CPU the process may use (sched_setaffinity on "
        "its own processes), everything else is not pinned; other tenants may share the cores, "
        "and on a shared 2-vCPU VM their load moved pure-Python probes by up to 1.5x for "
        "10-30 s at a time"
    ),
    "ok_frac": "1 - failed_frac: ops whose output checks all held, over ops attempted",
    "trace.overhead": "traced pass over plain pass with the same seed and op count; above 1 is worse",
}


def machine() -> dict:
    import numpy

    info = {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        info["cpu"] = models[0] if models else platform.processor()
        with open("/proc/meminfo", encoding="utf-8") as fh:
            info["mem_total"] = fh.readline().split(":", 1)[1].strip()
    except OSError:
        pass
    return info


def _child(args: list[str]) -> dict:
    """Run this script with ``args`` in a fresh interpreter; parse its last line."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve())] + args,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {args} failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_only(args) -> int:
    """One set-up in this fresh interpreter; print its seconds."""
    start = time.perf_counter()
    import workloads
    from stats import Recorder

    ctx = workloads.setup(args.workload, Recorder(), args.pass_ == "traced")
    seconds = time.perf_counter() - start
    ctx.bob.stop()
    print(json.dumps({"setup_s": seconds}))
    return 0


def _setup_sample(workload: str, tracing: bool) -> float:
    flag = ["--pass", "traced"] if tracing else []
    return _child(["--workload", workload, "--setup-only"] + flag)["setup_s"]


def run_pass(workload: str, seed: int, seconds: float, tracing: bool, ops: int | None) -> dict:
    """Set up, run the cycles of op, probes and set-up sample, and collect every number.

    Without ``ops`` it runs whole cycles while the next one, at the mean
    cycle time so far, still ends within ``seconds``, and at least
    MIN_OPS of them.
    """
    start = time.perf_counter()
    import workloads
    from stats import Recorder, median

    rec = Recorder()
    ctx = workloads.setup(workload, rec, tracing)
    setups = [time.perf_counter() - start]
    cycles = []
    try:
        workloads.prepare_references(ctx)
        wl = ctx.workload
        begin = time.perf_counter()
        first_rss_kb = None

        def more() -> bool:
            if ops is not None:
                return len(cycles) < ops
            if len(cycles) < MIN_OPS:
                return True
            elapsed = time.perf_counter() - begin
            return elapsed * (len(cycles) + 1) / len(cycles) <= seconds

        while more():
            done = len(cycles)
            parts = {}
            rec.begin("op")
            deferred = wl.op(ctx, workloads.derive_seed(
                seed if done else workloads.FIRST_OP_SEED, "op", done))
            parts["op"] = rec.end().seconds
            if first_rss_kb is None:
                first_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if deferred is not None:
                deferred()
            for name in wl.probes:
                rec.begin(f"probe:{name}")
                deferred = workloads.PROBES[name](ctx, workloads.derive_seed(seed, name, done))
                parts[name] = rec.end().seconds
                if deferred is not None:
                    deferred()
            setups.append(_setup_sample(workload, tracing))
            parts["setup"] = setups[-1]
            cycles.append(parts)
    finally:
        ctx.bob.stop()
    result = {
        "ops": len(cycles),
        "samples": workloads.samples(ctx, setups),
        "cycle_share": {
            part: median(c[part] / sum(c.values()) for c in cycles) for part in cycles[0]
        },
        "e2e": workloads.end_to_end(ctx, setups, first_rss_kb),
        "attempted": len(rec.ops),
        "failed": sum(not op.ok for op in rec.ops),
        "problems": [f"{op.kind}#{op.index}: {p}" for op in rec.ops for p in op.problems],
    }
    if tracing:
        result["per_layer"] = workloads.per_layer(ctx)
        result["uncovered_by_op"] = [rec.uncovered_share(op) for op in rec.ops if op.kind == "op"]
        result["top_self_s"] = _top_self_times(rec)
    return result


def _top_self_times(rec, count: int = 8) -> list:
    """Largest per-span self times: duration minus the spans nested inside it."""
    from stats import covered

    rows = []
    for c in rec.calls:
        inner = [(d.start, d.end) for d in rec.calls
                 if d is not c and c.start <= d.start and d.end <= c.end]
        rows.append((c.seconds - covered((c.start, c.end), inner), f"{c.layer}:{c.case}"))
    totals: dict[str, float] = {}
    for s, name in rows:
        totals[name] = totals.get(name, 0.0) + s
    return sorted(([name, s] for name, s in totals.items()), key=lambda r: -r[1])[:count]


def traced_run(args) -> dict:
    import workloads

    half = max(1, args.seconds // 2)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    plain = _child(common + ["--pass", "plain", "--seconds", str(half)])
    traced = _child(common + ["--pass", "traced", "--ops", str(plain["ops"])])
    metrics = dict(traced["per_layer"])
    # traced over plain, turned so that above 1 means tracing made it worse
    for name in workloads.OVERHEAD_METRICS:
        base, with_trace = plain["e2e"][name], traced["e2e"][name]
        lower = name in workloads.LOWER_IS_BETTER
        metrics[f"trace.overhead.{name}"] = with_trace / base if lower else base / with_trace
    return {
        "plain": plain,
        "traced": traced,
        "metrics": metrics,
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one pass in a fresh interpreter, printing its full result
    parser.add_argument("--pass", dest="pass_", choices=("plain", "traced"))
    parser.add_argument("--ops", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "quditqkd" / "__init__.py").is_file():
        print(f"error: no quditqkd sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    if args.setup_only:
        return setup_only(args)
    if args.pass_:
        result = run_pass(args.workload, args.seed, args.seconds, args.pass_ == "traced", args.ops)
        print(json.dumps(result))
        return 0

    if args.trace:
        result = traced_run(args)
        metrics = result["metrics"]
    else:
        result = run_pass(args.workload, args.seed, args.seconds, False, None)
        metrics = result["e2e"]
    import workloads

    units = workloads.PER_LAYER_UNITS if args.trace else workloads.END_TO_END_UNITS
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "method": METHOD,
        "result": line,
        "detail": result,
    }
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    problems = result.get("problems", []) + [
        p for key in ("plain", "traced") for p in result.get(key, {}).get("problems", [])
    ]
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"result file: {path.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
