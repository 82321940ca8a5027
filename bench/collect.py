"""Run the benchmark over seeds 0-9 and record the baseline in bench/baseline.json.

    python3 bench/collect.py

For each workload and end-to-end metric it prints the median and the
interquartile range as a share of the median (quartiles as
`statistics.quantiles(values, n=4)` gives them), against a third of the
metric's bound in BENCHMARK.json.  One `--trace 1` run per workload, with
seed 0, gives the per-layer table.  Every command measures for BENCHMARK.json's
`run_seconds`.  Run it from the root of a checkout.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = list(range(10))
TRACED_SEED = 0
OUT = os.path.join("bench", "baseline.json")


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The JSON result line of one benchmark command and its environment record."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    record = os.path.join(".bench_work", "results", f"{workload}-seed{seed}-trace{trace}.json")
    with open(record) as fh:
        env = json.load(fh)["env"]
    return json.loads(proc.stdout.strip().splitlines()[-1]), env


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> int:
    with open("BENCHMARK.json") as fh:
        declared = json.load(fh)
    seconds = declared["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    summary = {"seconds": seconds, "seeds": SEEDS, "workloads": {}}
    for workload in workloads.WORKLOADS:
        runs = [bench(workload, seed, seconds, 0) for seed in SEEDS]
        results = [result for result, _ in runs]
        summary.setdefault("env", runs[0][1])
        entry = {"attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results), "end_to_end": {}}
        print(f"{workload}: {entry['failed']} of {entry['attempted']} runs failed")
        for name, bound in bounds.items():
            stats = summarize([r["metrics"][name]["value"] for r in results])
            stats["unit"] = results[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = stats
            verdict = "ok" if stats["spread"] < bound / 3 else "WIDE"
            print(f"  {name:12s} median {stats['median']:10.4f} {stats['unit']:3s} "
                  f"spread {stats['spread']:6.2%} (bound/3 {bound / 3:6.2%}) {verdict}")
        traced, _ = bench(workload, TRACED_SEED, seconds, 1)
        entry["per_layer"] = {"seed": TRACED_SEED, "failed": traced["failed"],
                              "metrics": traced["metrics"]}
        summary["workloads"][workload] = entry
        sys.stdout.flush()
    with open(OUT, "w") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
