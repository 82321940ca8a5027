"""Per-layer tracing from outside the package.

For the length of a traced run, each public function of a layer module is
swapped for a timing wrapper by replacing the module attribute.  A wrapper
records a span (name, layer, start, end, parent span, run id, counts read from
arguments and return values) in memory; the spans are written out when the
run ends and turned into per-layer metrics by `layer_metrics`.

Only calls that go through a module attribute are seen.  A name one module
imported from another (`gp` calling `tf_profile`) is bound at import time, so
its cost stays in the caller's self time.  Calls inside a module to its own
public functions do go through the attribute and nest as child spans.

The tracer keeps one stack of open spans, so it assumes the traced code runs
on one thread; the workloads run with threads = 1.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
import tracemalloc

# Layer modules of the package, by layer name.
LAYERS = ("gp", "spins", "counting", "thomas_fermi", "scaling", "csvio", "cli")

SPIN_PROTOCOLS = ("simulate_ramsey", "simulate_enhanced", "simulate_cat",
                  "simulate_quadratic", "product_nonlinear_protocol")
GP_FAILURES = ("ConvergenceError", "StepSizeError")

# Reported self times of every layer and of the workload script; they add up to
# the traced wall time when no span falls outside the layers above.
SELF_METRICS = ("gp.self_s", "spins.self_s", "counting.self_s", "thomas_fermi.s",
                "scaling.s", "csvio.s", "cli.self_s", "workload.self_s")


def _ground_state_counts(args, result):
    counts = {"dimension": args["geom"].d}
    if result is not None:
        counts.update(steps=result.steps, points=result.field.grid.points)
    return counts


def _bytes_written(args, result):
    return {"bytes": os.path.getsize(args["path"])} if os.path.exists(args["path"]) else {}


COUNTERS = {
    "gp.ground_state": _ground_state_counts,
    "gp.evolve_two_mode": lambda a, r: {"steps": a["steps"], "loss": bool(a["loss"])},
    "counting.simulate_counts": lambda a, r: {"trials": a["trials"]},
    "csvio.write_csv": _bytes_written,
    "csvio.write_json": _bytes_written,
    **{f"spins.{name}": (lambda a, r: {"n_atoms": a["n_atoms"]}) for name in SPIN_PROTOCOLS},
}


def public_functions(module):
    """(name, function) for each public function defined in module itself."""
    return [(name, obj) for name, obj in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == module.__name__]


class Patches:
    """Module-attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap_module(self, module, layer, make_wrapper):
        for name, fn in public_functions(module):
            self.set(module, name, make_wrapper(fn, f"{layer}.{name}", layer))

    def restore(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


class Tracer:
    """In-memory span recorder; spans are plain dicts so they serialize as JSON."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    def open(self, name: str, layer: str) -> dict:
        span = {"id": len(self.spans), "run": self.run_id,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "name": name, "layer": layer, "start": time.perf_counter(),
                "end": None, "counts": {}, "error": None}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: dict, error: str | None = None) -> None:
        span["end"] = time.perf_counter()
        span["error"] = error
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError("spans closed out of order; is the run multithreaded?")

    def wrapper(self, fn, name: str, layer: str):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            span = self.open(name, layer)
            result = error = None
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                self.close(span, error)
                if counter is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span["counts"] = counter(bound.arguments, result)
            return result

        return timed


class AllocPeak:
    """Largest tracemalloc peak over the outermost calls into the wrapped functions.

    Runs in a pass of its own: tracemalloc slows every allocation, so its
    numbers never share a run with span times.
    """

    def __init__(self):
        self.peak_bytes = 0
        self._depth = 0

    def wrapper(self, fn, name: str, layer: str):
        @functools.wraps(fn)
        def measured(*args, **kwargs):
            if self._depth == 0:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            self._depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1
                if self._depth == 0:
                    self.peak_bytes = max(self.peak_bytes,
                                          tracemalloc.get_traced_memory()[1] - base)

        return measured


# --- span arithmetic ---------------------------------------------------------

def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    result = {}
    for span in spans:
        intervals = sorted((max(c["start"], span["start"]), min(c["end"], span["end"]))
                           for c in children.get(span["id"], ()))
        covered, reach = 0.0, span["start"]
        for lo, hi in intervals:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span["id"]] = duration(span) - covered
    return result


def _rate(numerator: float, denominator: float, scale: float) -> float:
    return numerator / denominator * scale if denominator else 0.0


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced run; the root span is the workload."""
    selfs = self_times(spans)
    by_id = {s["id"]: s for s in spans}
    roots = [s for s in spans if s["parent"] is None]
    if len(roots) != 1:
        raise ValueError(f"expected one root span, found {len(roots)}")
    m: dict[str, float] = {}

    def named(name):
        return [s for s in spans if s["name"] == name]

    def layer(name):
        return [s for s in spans if s["layer"] == name]

    def outermost(group, layer_name):
        # spans of a layer not nested inside another span of the same layer
        return [s for s in group if s["parent"] is None
                or by_id[s["parent"]]["layer"] != layer_name]

    def total(group):
        return sum(duration(s) for s in group)

    def self_total(group):
        return sum(selfs[s["id"]] for s in group)

    ground = named("gp.ground_state")
    for label, group in (("gp.ground_state_1d", [s for s in ground if s["counts"]["dimension"] == 1]),
                         ("gp.ground_state_radial", [s for s in ground if s["counts"]["dimension"] > 1])):
        secs = total(group)
        steps = sum(s["counts"].get("steps", 0) for s in group)
        m[f"{label}.calls"] = len(group)
        m[f"{label}.s"] = secs
        m[f"{label}.steps"] = steps
        m[f"{label}.us_per_step"] = _rate(secs, steps, 1e6)
        if label == "gp.ground_state_1d":
            point_steps = sum(s["counts"].get("steps", 0) * s["counts"].get("points", 0)
                              for s in group)
            m[f"{label}.ns_per_point_step"] = _rate(secs, point_steps, 1e9)
    evolve = named("gp.evolve_two_mode")
    for label, loss in (("gp.evolve_two_mode", False), ("gp.evolve_two_mode_loss", True)):
        group = [s for s in evolve if s["counts"]["loss"] == loss]
        secs = total(group)
        steps = sum(s["counts"]["steps"] for s in group)
        m[f"{label}.calls"] = len(group)
        m[f"{label}.s"] = secs
        m[f"{label}.steps"] = steps
        m[f"{label}.us_per_step"] = _rate(secs, steps, 1e6)
    m["gp.failed"] = sum(1 for s in layer("gp") if s["error"] in GP_FAILURES)
    m["gp.self_s"] = self_total(layer("gp"))

    spins = layer("spins")
    for name in SPIN_PROTOCOLS:
        m[f"spins.{name}.s"] = total(named(f"spins.{name}"))
    m["spins.calls"] = len(spins)
    m["spins.self_s"] = self_total(spins)
    protocols = [s for s in outermost(spins, "spins")
                 if s["name"].split(".", 1)[1] in SPIN_PROTOCOLS]
    n_max = max((s["counts"].get("n_atoms", 0) for s in protocols), default=0)
    m["spins.s_at_nmax"] = total([s for s in protocols if s["counts"].get("n_atoms") == n_max])

    counts = named("counting.simulate_counts")
    secs = total(counts)
    trials = sum(s["counts"]["trials"] for s in counts)
    m["counting.simulate_counts.calls"] = len(counts)
    m["counting.simulate_counts.s"] = secs
    m["counting.simulate_counts.trials"] = trials
    m["counting.simulate_counts.s_per_1e5_trials"] = _rate(secs, trials, 1e5)
    m["counting.analytic.s"] = total(named("counting.posterior_n0")
                                     + named("counting.corrected_uncertainty"))
    m["counting.self_s"] = self_total(layer("counting"))

    for name in ("thomas_fermi", "scaling"):
        group = layer(name)
        m[f"{name}.calls"] = len(outermost(group, name))
        m[f"{name}.s"] = self_total(group)
    csv = layer("csvio")
    m["csvio.calls"] = len(outermost(csv, "csvio"))
    m["csvio.s"] = self_total(csv)
    m["csvio.bytes"] = sum(s["counts"].get("bytes", 0) for s in csv)

    m["cli.self_s"] = self_total(layer("cli"))
    m["workload.self_s"] = selfs[roots[0]["id"]]
    m["trace.wall_s"] = duration(roots[0])
    m["trace.self_sum_s"] = sum(m[name] for name in SELF_METRICS)
    return m
