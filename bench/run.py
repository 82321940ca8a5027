"""Benchmark of the becmetrology package: end-to-end and per-layer metrics.

Run from the root of a checkout (the package source must be in src/):

    python3 bench/run.py --workload condensate-sweep --seed 0 --seconds 40 --trace 0

Workloads are listed in workloads.py; `--seed` generates their inputs (seed 0
gives the reference inputs).  Every workload run is a fresh process
(worker.py); after one set-up-only process that warms the byte-code and page
caches, runs repeat until `--seconds` is spent, with at least three.

`--trace 0` reports the end-to-end metrics: medians over the runs of wall
time, set-up time, CPU time and peak resident memory.  `--trace 1` alternates
untraced and traced runs and reports the per-layer metrics of the traced runs
(medians), the tracing overhead (median over the pairs of traced minus
untraced wall time), and the `spins` allocation peak from a tracemalloc pass
of its own.

Every run's outputs go through the correctness checks in checks.py; a run
that fails one counts as failed.  The command prints the environment, each
check's verdict and every metric with its unit; its last line is the JSON
result.  The full record, with the seed, inputs and environment, is written
to .bench_work/results/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import checks
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORK_DIR = ".bench_work"
MIN_RUNS = 3
TIME_LIMIT_S = 170.0  # the whole command must end within 180 s

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def per_layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[-1]
    if suffix in ("calls", "steps", "trials", "failed"):
        return "count"
    return {"us_per_step": "us", "ns_per_point_step": "ns", "bytes": "bytes",
            "peak_alloc_mb": "MB"}.get(suffix, "s")


# --- environment record --------------------------------------------------------

def _proc_field(path: str, key: str) -> str | None:
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_commit(root: str) -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def host_env(root: str) -> dict:
    mem_kb = _proc_field("/proc/meminfo", "MemTotal")
    return {"python": platform.python_version(), "platform": platform.platform(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": _proc_field("/proc/cpuinfo", "model name"),
            "mem_total_mb": int(mem_kb.split()[0]) // 1024 if mem_kb else None,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "git_commit": _git_commit(root)}


# --- runs ----------------------------------------------------------------------

class Runner:
    """Spawns worker processes for one workload and keeps what each returned."""

    def __init__(self, root: str, workload: str, seed: int, inputs: dict, work: str):
        self.root, self.workload, self.seed, self.inputs = root, workload, seed, inputs
        self.work = work
        self.src = os.path.join(root, "src")
        self.started = time.monotonic()
        self.configs = []
        for command, text in inputs.get("commands", []):
            path = os.path.join(work, f"{command}.cfg")
            with open(path, "w") as fh:
                fh.write(text)
            self.configs.append([command, path])
        self.runs: list[dict] = []
        self.setup_samples: list[float] = []
        self.package_env: dict | None = None

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def spawn(self, mode: str) -> dict:
        index = len(self.runs)
        run_dir = os.path.join(self.work, f"{index:03d}-{mode}")
        out_dir = os.path.join(run_dir, "out")
        os.makedirs(out_dir)
        spec_path = os.path.join(run_dir, "spec.json")
        result_path = os.path.join(run_dir, "result.json")
        with open(spec_path, "w") as fh:
            json.dump({"mode": mode, "workload": self.workload, "inputs": self.inputs,
                       "configs": self.configs, "out_dir": out_dir, "src": self.src,
                       "run_id": f"{self.workload}/{self.seed}/{index}",
                       "result": result_path}, fh)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (self.src, env.get("PYTHONPATH")) if p)
        timeout = max(1.0, TIME_LIMIT_S - self.elapsed())
        with open(os.path.join(run_dir, "log.txt"), "w") as log:
            t_spawn = time.monotonic()
            try:
                status = subprocess.run([sys.executable, WORKER, spec_path, repr(t_spawn)],
                                        cwd=self.root, env=env, stdout=log,
                                        stderr=subprocess.STDOUT, timeout=timeout).returncode
            except subprocess.TimeoutExpired:
                status = "timeout"
        duration = time.monotonic() - t_spawn
        result = {"mode": mode}
        if os.path.exists(result_path):
            with open(result_path) as fh:
                result = json.load(fh)
        if status != 0 and "error" not in result:
            result["error"] = f"worker ended with status {status}"
        record = {"index": index, "mode": mode, "duration_s": duration, "result": result}
        if "setup_s" in result:
            self.setup_samples.append(result["setup_s"])
        if mode == "setup":
            self.package_env = self.package_env or result.get("env")
            if "error" in result:
                raise RuntimeError(f"set-up failed:\n{result['error']}")
        else:
            found = checks.run_checks(self.workload, out_dir, self.inputs, result)
            if mode == "trace" and "spans" in result:
                metrics = spans.layer_metrics(result["spans"])
                metrics["cli.import_s"] = result["import_s"]
                metrics["cli.config_s"] = result["config_s"]
                result["layer_metrics"] = metrics
                found.append(checks.trace_self_times(metrics))
            record["checks"] = [c._asdict() for c in found]
            record["failed"] = not found or not all(c.passed for c in found)
        self.runs.append(record)
        shutil.rmtree(out_dir)
        return record

    def workload_runs(self, mode: str) -> list[dict]:
        return [r for r in self.runs if r["mode"] == mode]

    def room_for(self, seconds: float, cost: float) -> bool:
        return self.elapsed() + cost <= seconds


def _median(values):
    return statistics.median(values) if values else math.nan


def measure_end_to_end(runner: Runner, seconds: float) -> dict:
    runner.spawn("setup")  # warm-up: byte-compiles the package and fills the page cache
    runner.setup_samples.clear()
    while True:
        runner.spawn("run")
        runs = runner.workload_runs("run")
        step = _median([r["duration_s"] for r in runs])
        if not runner.room_for(TIME_LIMIT_S, step):
            break
        if len(runs) >= MIN_RUNS and not runner.room_for(seconds, step):
            break
    done = [r["result"] for r in runner.workload_runs("run") if "wall_s" in r["result"]]
    metrics = {name: _median([r[name] for r in done]) for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    metrics["setup_s"] = _median(runner.setup_samples)
    return metrics


def measure_per_layer(runner: Runner, seconds: float) -> dict:
    runner.spawn("setup")
    limit = min(seconds, TIME_LIMIT_S)
    overheads = []
    while True:
        untraced = runner.spawn("run")["result"]
        traced = runner.spawn("trace")["result"]
        layered = traced.get("layer_metrics", {})
        if "wall_s" in untraced and "wall_s" in traced:
            overheads.append(traced["wall_s"] - untraced["wall_s"])
        pair = sum(_median([r["duration_s"] for r in runner.workload_runs(mode)])
                   for mode in ("run", "trace"))
        # leave room for the tracemalloc pass, which costs about one pair
        if not runner.room_for(limit, pair * (2 if layered.get("spins.calls") else 1)):
            break
    layered = [r["result"]["layer_metrics"] for r in runner.workload_runs("trace")
               if "layer_metrics" in r["result"]]
    if not layered:
        raise RuntimeError("no traced run completed")
    metrics = {name: _median([m[name] for m in layered]) for name in layered[0]}
    untraced = _median([r["result"]["wall_s"] for r in runner.workload_runs("run")
                        if "wall_s" in r["result"]])
    metrics["trace.untraced_wall_s"] = untraced
    # each traced run against the untraced run just before it, so host drift
    # between pairs does not enter
    metrics["trace_overhead_s"] = _median(overheads)
    metrics["spins.peak_alloc_mb"] = 0.0
    if metrics.get("spins.calls"):
        result = runner.spawn("alloc")["result"]
        metrics["spins.peak_alloc_mb"] = result.get("spins_peak_alloc_mb", math.nan)
    return metrics


def report(runner: Runner, metrics: dict, units: dict) -> tuple[int, int]:
    """Print the checks and metrics; return (attempted, failed)."""
    judged = [r for r in runner.runs if "checks" in r]
    verdicts: dict[str, list] = {}
    for run in judged:
        for check in run["checks"]:
            verdicts.setdefault(check["name"], []).append(check)
    for name, found in verdicts.items():
        passed = sum(c["passed"] for c in found)
        shown = next((c for c in found if not c["passed"]), found[-1])
        print(f"check {name}: {'PASS' if passed == len(found) else 'FAIL'} "
              f"{passed}/{len(found)} runs; {shown['detail']}")
    samples = {"setup_s": len(runner.setup_samples)}
    for name in sorted(metrics):
        count = samples.get(name, len(runner.workload_runs("trace" if name not in END_TO_END else "run")))
        print(f"metric {name} = {metrics[name]:.6g} {units[name]} (median of {count})")
    failed = sum(r["failed"] for r in judged)
    share = failed / max(1, len(judged))
    print(f"metric failed_frac = {share:.6g} 1 ({failed} of {len(judged)} runs failed)")
    return len(judged), failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "becmetrology", "__init__.py")):
        print("bench: src/becmetrology not found; run from the root of a checkout",
              file=sys.stderr)
        return 2
    try:
        inputs = workloads.generate(args.workload, args.seed)
    except ValueError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(root, WORK_DIR, tag)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    runner = Runner(root, args.workload, args.seed, inputs, work)
    env = host_env(root)
    print(f"bench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    try:
        if args.trace:
            metrics = measure_per_layer(runner, args.seconds)
            units = {name: per_layer_unit(name) for name in metrics}
        else:
            metrics = measure_end_to_end(runner, args.seconds)
            units = dict(END_TO_END)
    except RuntimeError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    env.update(runner.package_env or {})
    print("env " + json.dumps(env, sort_keys=True))
    print("inputs " + json.dumps({k: v for k, v in inputs.items() if k != "commands"}))
    attempted, failed = report(runner, metrics, units)
    if any(math.isnan(v) for v in metrics.values()):
        print("bench: no run completed, so some metrics are missing", file=sys.stderr)
        return 1
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "inputs": inputs, "env": env, "runs": runner.runs,
              "setup_samples": runner.setup_samples, "metrics": metrics, "units": units,
              "attempted": attempted, "failed": failed}
    results = os.path.join(root, WORK_DIR, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    shutil.rmtree(work)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
