"""One benchmark process: set up, run one workload once, write a JSON result.

    python3 bench/worker.py SPEC.json T_SPAWN

SPEC holds the mode, the workload, its generated inputs and the output
directory; T_SPAWN is the parent's monotonic clock just before the spawn, so
that `setup_s` starts with the fresh interpreter.  Modes:

- `setup`: import the package and resolve the configuration, then report the
  package and library versions; the workload does not run;
- `run`: the workload with tracing off (end-to-end metrics);
- `trace`: the workload with every layer function wrapped (per-layer spans);
- `alloc`: the workload with tracemalloc on around the `spins` calls.

The worker imports only the standard library before it starts the setup
clock, so `setup_s` is the package import plus the configuration.
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import time
import traceback


def _resolve(spec, cli, physconfig):
    """Read and resolve the configuration; return the workload as a callable."""
    inputs, out_dir = spec["inputs"], spec["out_dir"]
    if spec["workload"] != "gp-dynamics":
        runs = []
        for command, path in spec["configs"]:
            with open(path) as fh:
                cli.config_from_text(fh.read())
            runs.append([command, "--config", path, "--out", out_dir])
        return lambda: {"exit_codes": [cli.main(argv) for argv in runs]}
    species = physconfig.rb87()
    geoms = {d: physconfig.trap_from_lengths(d, 2.0, 1e-6, 100e-6, species.mass)
             for d in [1, *inputs["radial_dims"]]}
    return lambda: _gp_dynamics(inputs, species, geoms, out_dir)


def _gp_dynamics(inputs, species, geoms, out_dir):
    """Library-level script mirroring acceptance criteria 6 and 7 plus radial solves."""
    from becmetrology import gp, physconfig, scaling, thomas_fermi

    tol = inputs["tolerance"]
    states = []

    def solve(d, y, points):
        geom = geoms[d]
        crit = scaling.critical_numbers(geom, species.a11)
        n = 1.0 + y * (crit.n_lower - 1.0)
        grid = gp.default_grid(geom, species, n, points=points)
        res = gp.ground_state(geom, species, n, grid, tolerance=tol)
        eta_tf = thomas_fermi.tf_profile(geom, species, n, scaling.Regime.INTERMEDIATE).eta_N
        states.append({"dimension": d, "y": y, "n": n, "points": points,
                       "eta_n": res.eta_n, "eta_tf": eta_tf, "residual": res.residual,
                       "tolerance": tol, "steps": res.steps})
        return n, res

    n, ground = solve(1, inputs["y_1d"], inputs["points_1d"])
    sup = physconfig.Superposition.equal()
    budget = gp.loss_budget(species, geoms[1], n, sup)
    t_final = inputs["gamma_t"] / budget.gamma
    steps = int(math.ceil(t_final * ground.mu / physconfig.SI.hbar / 0.05))
    every = max(1, steps // 12)
    lossless = gp.evolve_two_mode(ground, sup, species, geoms[1], t_final, steps,
                                  loss=False, record_every=every)
    lossy = gp.evolve_two_mode(ground, sup, species, geoms[1], t_final, steps,
                               loss=True, record_every=every)
    decay = [[float(t), float(abs(a) / abs(b)), math.exp(-budget.gamma * t)]
             for t, a, b in zip(lossy.times[1:], lossy.overlap[1:], lossless.overlap[1:])]
    for d in inputs["radial_dims"]:
        solve(d, inputs["y_radial"], inputs["points_radial"])
    payload = {"ground_states": states, "loss_ratio": budget.ratio,
               "evolution_steps": steps, "decay": decay}
    with open(os.path.join(out_dir, "gp_dynamics.json"), "w") as fh:
        json.dump(payload, fh, indent=1)
    return {}


def _package_env(package):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"becmetrology": package.__version__,
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")}}


def run(spec: dict, t_spawn: float, result: dict) -> None:
    mode = spec["mode"]
    t0 = time.monotonic()
    import becmetrology
    from becmetrology import cli, counting, csvio, gp, physconfig, scaling, spins
    from becmetrology import thomas_fermi
    t1 = time.monotonic()
    src = os.path.realpath(spec["src"])
    if not os.path.realpath(becmetrology.__file__).startswith(src + os.sep):
        raise RuntimeError(f"imported becmetrology from {becmetrology.__file__}, not {src}")
    workload = _resolve(spec, cli, physconfig)
    t2 = time.monotonic()
    result.update(setup_s=t2 - t_spawn, import_s=t1 - t0, config_s=t2 - t1)
    if mode == "setup":
        result["env"] = _package_env(becmetrology)
        return
    modules = {"gp": gp, "spins": spins, "counting": counting, "thomas_fermi": thomas_fermi,
               "scaling": scaling, "csvio": csvio, "cli": cli}

    import spans  # the benchmark's own module, next to this file

    patches = spans.Patches()
    tracer = root = alloc = None
    if mode == "trace":
        tracer = spans.Tracer(run_id=spec["run_id"])
        for layer in spans.LAYERS:
            patches.wrap_module(modules[layer], layer, tracer.wrapper)
        patches.set(cli, "COMMANDS", {name: getattr(cli, fn.__name__)
                                      for name, fn in cli.COMMANDS.items()})
        root = tracer.open("workload", "workload")
    elif mode == "alloc":
        import tracemalloc

        alloc = spans.AllocPeak()
        patches.wrap_module(spins, "spins", alloc.wrapper)
        tracemalloc.start()
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    w0 = time.perf_counter()
    try:
        result.update(workload())
    finally:
        w1 = time.perf_counter()
        usage1 = resource.getrusage(resource.RUSAGE_SELF)
        if root is not None:
            tracer.close(root)
        patches.restore()
    result["wall_s"] = w1 - w0
    result["cpu_s"] = (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime)
    result["peak_rss_mb"] = usage1.ru_maxrss / 1024.0  # Linux reports kB
    if tracer is not None:
        result["spans"] = tracer.spans
    if alloc is not None:
        result["spins_peak_alloc_mb"] = alloc.peak_bytes / 2**20


def main(spec_path: str, t_spawn: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    result = {"mode": spec["mode"]}
    status = 0
    try:
        run(spec, float(t_spawn), result)
    except Exception:
        result["error"] = traceback.format_exc()
        status = 1
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
