"""Steadiness check: run the benchmark over several seeds and report spreads.

    python3 qkdbench/spread.py --workload wire-direct --seeds 1-10 --label a
    python3 qkdbench/spread.py --compare qkdbench/out/spread-a.json qkdbench/out/spread-b.json

For every end-to-end metric it prints the median over the runs and the
spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median,
against the metric's bound in BENCHMARK.json.  ``--compare`` checks that
the second set's medians are not worse than the first's by more than
the bound.  Summaries go to qkdbench/out/spread-<label>.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from stats import median, quartile_spread  # noqa: E402


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_set(workloads: list[str], seeds: list[int], seconds: int) -> dict:
    summary: dict = {}
    for workload in workloads:
        runs = []
        for seed in seeds:
            began = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            wall = time.perf_counter() - began
            if proc.returncode != 0:
                raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            line["wall_s"] = wall
            runs.append(line)
            print(f"{workload} seed {seed}: {wall:.1f} s, correct={line['correct']}", flush=True)
        summary[workload] = runs
    return summary


def report(summary: dict) -> bool:
    bounds = {m["name"]: m["bound"] for m in _spec()["end_to_end"]}
    steady = True
    for workload, runs in summary.items():
        print(f"\n{workload}: {len(runs)} runs, wall {max(r['wall_s'] for r in runs):.1f} s max")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            spread = quartile_spread(values) if len(values) > 1 else 0.0
            mark = "" if spread < bound / 3 else "  <-- above bound/3"
            steady &= spread <= bound
            print(f"  {name:24s} median {median(values):14.6g}  spread {spread:6.3f}"
                  f"  bound {bound:.2f}{mark}")
    return steady


def compare(first: dict, second: dict) -> bool:
    spec = _spec()["end_to_end"]
    ok = True
    for workload in first:
        for m in spec:
            a = median(r["metrics"][m["name"]]["value"] for r in first[workload])
            b = median(r["metrics"][m["name"]]["value"] for r in second[workload])
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            flag = "" if worse <= m["bound"] else "  <-- worse than bound"
            ok &= worse <= m["bound"]
            print(f"{workload:14s} {m['name']:24s} {a:14.6g} -> {b:14.6g}  worse by {worse:+.3f}{flag}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=_spec()["run_seconds"])
    parser.add_argument("--label", default="latest")
    parser.add_argument("--compare", nargs=2, metavar="SUMMARY")
    args = parser.parse_args()
    if args.compare:
        first, second = (json.loads(Path(p).read_text()) for p in args.compare)
        return 0 if compare(first, second) else 1
    workloads = args.workload or [w["name"] for w in _spec()["workloads"]]
    summary = run_set(workloads, _seeds(args.seeds), args.seconds)
    (HERE / "out").mkdir(exist_ok=True)
    path = HERE / "out" / f"spread-{args.label}.json"
    path.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"summary: {path.relative_to(ROOT)}")
    return 0 if report(summary) else 1


if __name__ == "__main__":
    sys.exit(main())
