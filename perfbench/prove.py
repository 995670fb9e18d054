"""Run the benchmark over several seeds and report how steady it is.

    python3 perfbench/prove.py --seeds 10                 # every workload
    python3 perfbench/prove.py --workloads infer-clips --seeds 5
    python3 perfbench/prove.py --seeds 3 --trace          # traced runs too

Runs ``run.py`` once per workload and seed, one after another, from the root
of the checkout. For every end-to-end metric it prints the median and the
spread, that is the distance between the first and third quartiles as a
share of the median, of the reference-adjusted and of the raw values beside
the metric's bound. With ``--trace`` it also makes traced runs and prints the
median of each per-layer metric and the tracing overhead: how much lower the
traced run's adjusted rate is than the untraced one's. All runs are written
to ``perfbench/results/prove.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{' '.join(cmd)}: checks failed:\n{proc.stderr}")
    return {"detail": json.loads(lines[-2])["detail"], "result": result}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    report = {}
    print("| workload | metric | median | adjusted spread | raw median | raw spread | bound |")
    print("|---|---|---|---|---|---|---|")
    for wl in args.workloads:
        runs = [run(wl, s, args.seconds, 0) for s in seeds]
        report[wl] = {"untraced": runs}
        for name, bound in bounds.items():
            adj = [r["result"]["metrics"][name]["value"] for r in runs]
            raw = ([r["detail"]["raw"][name] for r in runs]
                   if name in runs[0]["detail"]["raw"] else adj)
            print(f"| {wl} | {name} | {statistics.median(adj):.4g} | {spread(adj):.1%} "
                  f"| {statistics.median(raw):.4g} | {spread(raw):.1%} | {bound:.0%} |",
                  flush=True)
        if args.trace:
            traced = [run(wl, s, args.seconds, 1) for s in seeds]
            report[wl]["traced"] = traced
            untraced_rate = statistics.median(
                r["detail"]["adjusted"]["samples_per_s"] for r in runs)
            traced_rate = statistics.median(
                r["detail"]["adjusted"]["samples_per_s"] for r in traced)
            print(f"\n{wl}: tracing overhead {1 - traced_rate / untraced_rate:.1%} "
                  f"(adjusted samples/s {traced_rate:.4g} traced, {untraced_rate:.4g} untraced); "
                  f"from the coverage probe: {traced[0]['detail'].get('from_probe')}")
            for name, m in traced[0]["result"]["metrics"].items():
                vals = [r["result"]["metrics"][name]["value"] for r in traced]
                print(f"  {name}: {statistics.median(vals):.4g} {m['unit']}")
            print()
    out = BENCH_DIR / "results" / "prove.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
