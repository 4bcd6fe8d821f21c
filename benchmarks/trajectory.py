"""Run the benchmark over several seeds and report each metric's median and spread.

    python3 benchmarks/trajectory.py --seeds 10 [--first-seed 1] [--label NAME]

Runs benchmarks/run.py once per (workload, seed) for every workload of
BENCHMARK.json, one process at a time, for its run_seconds, then prints for every end-to-end
metric the median, the quartiles (statistics.quantiles, n=4) and their
distance as a share of the median, next to the metric's bound.  With
--label it also makes one traced run per workload and appends a point
(label, machine fingerprint, end-to-end quartiles, per-layer medians) to
benchmarks/BENCH_trajectory.json.  Run it from the repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import fingerprint  # this directory is sys.path[0]

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TRAJECTORY = BENCH_DIR / "BENCH_trajectory.json"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(done.stdout, file=sys.stderr)
    return result


def findings(workload: str, seeds: list[int]) -> dict:
    """Findings of the untraced runs, summed (maxima for max_*), from their run records."""
    out: dict[str, float] = {}
    for seed in seeds:
        record = json.loads((BENCH_DIR / "out" / f"{workload}-seed{seed}-trace0.json").read_text())
        for key, value in record["findings"].items():
            out[key] = max(out.get(key, 0), value) if key.startswith("max_") else out.get(key, 0) + value
    return out


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / median, "n": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--label", help="append a trajectory point under this label")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    point = {"label": args.label, "fingerprint": fingerprint(), "run_seconds": spec["run_seconds"],
             "seeds": list(range(args.first_seed, args.first_seed + args.seeds)), "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, seed, spec["run_seconds"], 0) for seed in point["seeds"]]
        entry = {"failed": sum(r["failed"] for r in runs), "attempted": sum(r["attempted"] for r in runs),
                 "findings": findings(workload, point["seeds"]), "end_to_end": {}}
        for name, bound in bounds.items():
            s = spread([r["metrics"][name]["value"] for r in runs])
            entry["end_to_end"][name] = s
            flag = "" if name == "setup_s" or s["iqr_share"] < bound / 3 else "  <-- spread above bound/3"
            print(f"{workload:<10} {name:<12} median {s['median']:.5g}  q1 {s['q1']:.5g}  q3 {s['q3']:.5g}  "
                  f"spread {s['iqr_share']:.4f}  bound {bound}{flag}", flush=True)
        print(f"{workload:<10} failed {entry['failed']} of {entry['attempted']} checked operations", flush=True)
        if args.label:
            traced = run_once(workload, point["seeds"][0], spec["run_seconds"], 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        point["workloads"][workload] = entry
    if args.label:
        history = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else {"points": []}
        history["points"].append(point)
        TRAJECTORY.write_text(json.dumps(history, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
