"""Repeat the benchmark over seeds and report each metric's spread.

    python3 perfbench/record.py --seeds 1-10 [--workloads a,b] [--trace 0|1]
                                [--label NAME] [--out FILE]

Runs perfbench/run.py once per workload and seed, with the run length from
BENCHMARK.json, one run at a time. For every metric it prints the median
and the spread, (q3 - q1) / median over the seeds, next to a third of the
metric's bound. With --out it writes the runs as a trajectory point: the
machine fingerprint, and per workload and metric the values, median,
quartiles and spread.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default="")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    point = {"label": args.label, "run_seconds": bench["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            detail, result = json.loads(lines[-2]), json.loads(lines[-1])
            point["machine"] = detail["machine"]
            runs.append({"seed": seed, "result": result, "detail": detail["quartiles"]})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        names = list(runs[0]["result"]["metrics"])
        metrics = {
            name: spread([r["result"]["metrics"][name]["value"] for r in runs]) for name in names
        }
        point["workloads"][workload] = {
            "runs": [{"seed": r["seed"], "correct": r["result"]["correct"], "attempted": r["result"]["attempted"],
                      "failed": r["result"]["failed"], "quartiles": r["detail"]} for r in runs],
            "metrics": metrics,
        }
        for name, stats in metrics.items():
            bound = bounds.get(name)
            verdict = "" if bound is None else f"  bound/3 {bound / 3:.3f} {'ok' if stats['spread'] < bound / 3 else 'WIDE'}"
            print(f"  {name:42s} median {stats['median']:.6g}  spread {stats['spread']:.3f}{verdict}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(point, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
