"""Tests of the benchmark itself: span arithmetic, correctness checks, inputs.

    python3 -m pytest bench/tests -q

None of them runs the package.
"""

import json
import math
import os
import sys
import types

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def span(sid, parent, name, start, end, counts=None, error=None):
    layer = name.split(".", 1)[0]
    return {"id": sid, "run": "r", "parent": parent, "name": name, "layer": layer,
            "start": start, "end": end, "counts": counts or {}, "error": error}


# --- spans -------------------------------------------------------------------

def test_self_times_on_hand_built_tree():
    tree = [span(0, None, "workload", 0.0, 10.0),
            span(1, 0, "cli.main", 1.0, 9.0),
            span(2, 1, "gp.ground_state", 2.0, 5.0, {"dimension": 1}),
            span(3, 1, "csvio.write_csv", 6.0, 7.5),
            span(4, 3, "csvio.atomic_write_text", 6.5, 7.0)]
    selfs = spans.self_times(tree)
    assert selfs == pytest.approx({0: 2.0, 1: 3.5, 2: 3.0, 3: 1.0, 4: 0.5})
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    tree = [span(0, None, "workload", 0.0, 10.0),
            span(1, 0, "gp.a", 1.0, 4.0),
            span(2, 0, "gp.b", 3.0, 6.0),
            span(3, 0, "gp.c", 9.0, 12.0)]  # clipped to the parent's interval
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_layer_metrics_on_hand_built_tree():
    tree = [span(0, None, "workload", 0.0, 10.0),
            span(1, 0, "cli.main", 0.5, 9.5),
            span(2, 1, "gp.ground_state", 1.0, 3.0, {"dimension": 1, "steps": 1000, "points": 500}),
            span(3, 1, "gp.ground_state", 3.0, 4.0, {"dimension": 2, "steps": 500, "points": 512}),
            span(4, 1, "gp.evolve_two_mode", 4.0, 5.0, {"steps": 100, "loss": False}),
            span(5, 1, "gp.ground_state", 5.0, 5.5, {"dimension": 1}, error="ConvergenceError"),
            span(6, 1, "spins.product_nonlinear_protocol", 6.0, 7.0, {"n_atoms": 64}),
            span(7, 6, "spins.simulate_quadratic", 6.1, 6.9, {"n_atoms": 64}),
            span(8, 1, "spins.simulate_ramsey", 7.0, 7.2, {"n_atoms": 8}),
            span(9, 1, "csvio.write_csv", 8.0, 8.5, {"bytes": 120}),
            span(10, 9, "csvio.atomic_write_text", 8.1, 8.4)]
    m = spans.layer_metrics(tree)
    assert m["gp.ground_state_1d.calls"] == 2
    assert m["gp.ground_state_1d.s"] == pytest.approx(2.5)
    assert m["gp.ground_state_1d.us_per_step"] == pytest.approx(2.5e3)
    assert m["gp.ground_state_1d.ns_per_point_step"] == pytest.approx(2.5 / 5e5 * 1e9)
    assert m["gp.ground_state_radial.steps"] == 500
    assert m["gp.evolve_two_mode.us_per_step"] == pytest.approx(1e4)
    assert m["gp.evolve_two_mode_loss.calls"] == 0
    assert m["gp.failed"] == 1
    assert m["spins.s_at_nmax"] == pytest.approx(1.0)  # the nested call is not counted twice
    assert m["spins.simulate_quadratic.s"] == pytest.approx(0.8)
    assert m["csvio.calls"] == 1 and m["csvio.bytes"] == 120
    assert m["cli.self_s"] == pytest.approx(9.0 - 4.5 - 1.2 - 0.5)
    assert m["workload.self_s"] == pytest.approx(1.0)
    assert m["trace.self_sum_s"] == pytest.approx(m["trace.wall_s"]) == pytest.approx(10.0)
    assert checks.trace_self_times(m).passed


def test_self_sum_misses_a_span_outside_the_layers():
    tree = [span(0, None, "workload", 0.0, 10.0),
            span(1, 0, "cli.main", 0.5, 9.5),
            span(2, 1, "physconfig.rb87", 1.0, 3.0)]
    m = spans.layer_metrics(tree)
    assert m["trace.self_sum_s"] == pytest.approx(m["trace.wall_s"] - 2.0)
    assert not checks.trace_self_times(m).passed


def test_benchmark_json_lists_every_per_layer_metric():
    tree = [span(0, None, "workload", 0.0, 1.0)]
    emitted = set(spans.layer_metrics(tree))
    emitted |= {"cli.import_s", "cli.config_s", "trace.untraced_wall_s", "trace_overhead_s",
                "spins.peak_alloc_mb"}  # added by run.py from the worker and the other passes
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    assert declared == emitted


def test_tracer_wraps_module_attributes_and_restores_them():
    module = types.ModuleType("fake")
    exec("def outer(x):\n    return inner(x) + 1\n\n"
         "def inner(x):\n    return 2 * x\n\n"
         "def _private(x):\n    return x\n", module.__dict__)
    module.__dict__["__name__"] = "fake"
    for fn in (module.outer, module.inner, module._private):
        fn.__module__ = "fake"
    original = module.outer
    tracer = spans.Tracer("run-1")
    patches = spans.Patches()
    patches.wrap_module(module, "fake", tracer.wrapper)
    assert module.outer(3) == 7
    patches.restore()
    assert module.outer is original
    names = [(s["name"], s["parent"]) for s in tracer.spans]
    assert names == [("fake.outer", None), ("fake.inner", 0)]
    assert all(s["run"] == "run-1" and s["end"] >= s["start"] for s in tracer.spans)


# --- checks --------------------------------------------------------------------

def write_csv(path, fields, rows):
    with open(path, "w") as fh:
        fh.write("# provenance line\n" + ",".join(fields) + "\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def condensate_outputs(tmp_path, eta_scale=1.0):
    y = [100.0, 178.0, 316.0, 562.0, 1000.0]
    rows = []
    for i, yi in enumerate(y):
        eta_tf = yi ** (-1.0 / 3.0)
        slope = -0.334 if 0 < i < len(y) - 1 else math.nan
        rows.append((yi * 45.0, yi, eta_scale * 1.002 * eta_tf, eta_tf, 0.002, slope, 1.0, 5e-11))
    write_csv(tmp_path / "eta_sweep.csv",
              ("N", "n_over_nl", "eta_n", "eta_n_tf", "rel_err", "local_slope", "mu", "residual"), rows)
    overlap = []
    for k in range(5):
        t = 0.1 * k
        model = math.exp(-t * t)
        ov = 1.001 * model * complex(math.cos(-0.5 * t), math.sin(-0.5 * t))
        overlap.append((t, ov.real, ov.imag, abs(ov), model, -0.5 * t, 0.5, 0.5, 1.0, 1.0))
    write_csv(tmp_path / "overlap.csv",
              ("t", "overlap_re", "overlap_im", "overlap_abs", "model_abs", "model_phase",
               "p1", "p2", "norm1", "norm2"), overlap)
    return {"n_over_nl": y}


def spin_outputs(tmp_path, quadratic_scale=1.0):
    n_values = [8, 64, 512, 4096]
    rows = []
    for n in n_values:
        hl, qnl = 1.0 / n, 1.0 / math.sqrt(n)
        rows += [("ramsey", n, 1.0, 1.0, 1.0 / math.sqrt(n), hl, qnl, 0.5),
                 ("cat", n, 1.0, 1.0, 1.0 / n, hl, qnl, 0.5),
                 ("enhanced", n, 1.0, 1.0, n ** -1.5, hl, qnl, 0.5)]  # below HL by design
        tq, crb = 0.1 / n, 1.0 / (0.1 / n * n ** 1.5)
        rows.append(("quadratic", n, tq, 1.0, quadratic_scale * 1.1 * crb, crb, qnl, 0.9))
    write_csv(tmp_path / "bounds.csv",
              ("protocol", "N", "t", "gamma", "delta_gamma", "bound_HL", "bound_QNL", "purity"), rows)
    write_csv(tmp_path / "bounds_slopes.csv", ("protocol", "loglog_slope"),
              [("ramsey", -0.5), ("cat", -1.0), ("enhanced", -1.5), ("quadratic", -0.5)])
    write_csv(tmp_path / "counting.csv",
              ("sigma", "N", "gamma", "delta_gamma_analytic", "delta_gamma_mc", "mc_stderr"),
              [(0.0, 400, 1.57, 0.05, 0.0501, 0.0001), (20.0, 400, 1.57, 0.07, 0.0698, 0.0001)])
    return {"n_values": n_values}


def gp_outputs(tmp_path, eta_scale=1.0):
    states = [{"dimension": d, "eta_n": eta_scale * 0.98, "eta_tf": 1.0, "residual": 5e-11,
               "tolerance": 1e-10} for d in (1, 2, 3)]
    decay = [[t, 1.02 * math.exp(-0.1 * t), math.exp(-0.1 * t)] for t in (1.0, 2.0, 3.0)]
    with open(tmp_path / "gp_dynamics.json", "w") as fh:
        json.dump({"ground_states": states, "loss_ratio": 1.0 / 20.6, "decay": decay}, fh)
    return {"radial_dims": [2, 3]}


def failing(found):
    return {c.name for c in found if not c.passed}


@pytest.mark.parametrize("workload,make", [("condensate-sweep", condensate_outputs),
                                           ("spin-bounds-large-n", spin_outputs),
                                           ("gp-dynamics", gp_outputs)])
def test_checks_accept_good_outputs(tmp_path, workload, make):
    inputs = make(tmp_path)
    result = {} if workload == "gp-dynamics" else {"exit_codes": [0]}
    found = checks.run_checks(workload, tmp_path, inputs, result)
    assert found and not failing(found)


def test_checks_reject_eta_off_by_ten_percent(tmp_path):
    inputs = condensate_outputs(tmp_path, eta_scale=1.1)
    assert failing(checks.run_checks("condensate-sweep", tmp_path, inputs, {"exit_codes": [0]})) \
        == {"eta_sweep.eta_vs_tf"}
    inputs = gp_outputs(tmp_path, eta_scale=1.1)
    assert failing(checks.run_checks("gp-dynamics", tmp_path, inputs, {})) == {"gp.eta_vs_tf"}


def test_checks_reject_row_below_cramer_rao_bound(tmp_path):
    inputs = spin_outputs(tmp_path, quadratic_scale=0.5)
    found = checks.run_checks("spin-bounds-large-n", tmp_path, inputs, {"exit_codes": [0, 0]})
    assert failing(found) == {"bounds.cramer_rao"}


def test_checks_reject_nonzero_exit(tmp_path):
    inputs = spin_outputs(tmp_path)
    found = checks.run_checks("spin-bounds-large-n", tmp_path, inputs, {"exit_codes": [0, 3]})
    assert failing(found) == {"exit_code"}


def test_checks_reject_missing_outputs_and_worker_errors(tmp_path):
    assert failing(checks.run_checks("condensate-sweep", tmp_path, {"n_over_nl": [1.0]},
                                     {"exit_codes": [0]})) == {"outputs"}
    found = checks.run_checks("gp-dynamics", tmp_path, {}, {"error": "Traceback\nConvergenceError: x"})
    assert failing(found) == {"completed"}


# --- seeded inputs ---------------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)


def test_seed_zero_gives_reference_inputs():
    assert workloads.generate("condensate-sweep", 0)["n_over_nl"] == [100.0, 178.0, 316.0, 562.0, 1000.0]
    spin = workloads.generate("spin-bounds-large-n", 0)
    assert spin["n_values"] == [8 * 2**k for k in range(10)]
    assert spin["counting_seed"] == 20240901
    gp = workloads.generate("gp-dynamics", 0)
    assert (gp["y_1d"], gp["y_radial"]) == (1000.0, 316.0)


@pytest.mark.parametrize("seed", [1, 2, 3, 17, 123456])
def test_other_seeds_move_n_inside_the_checked_ranges(seed):
    jitter = workloads.JITTER
    sweep = workloads.generate("condensate-sweep", seed)["n_over_nl"]
    assert sweep != list(workloads.REFERENCE_N_OVER_NL)
    for y, ref in zip(sweep, workloads.REFERENCE_N_OVER_NL):
        assert abs(y / ref - 1.0) <= jitter
    assert sweep == sorted(sweep)
    spin = workloads.generate("spin-bounds-large-n", seed)
    n_values = spin["n_values"]
    assert n_values != list(workloads.SPIN_N_VALUES)
    assert n_values[0] == 8 and n_values[-1] == 4096
    assert all(a < b for a, b in zip(n_values, n_values[1:]))
    for n, ref in zip(n_values, workloads.SPIN_N_VALUES):
        assert abs(n / ref - 1.0) <= jitter + 0.5 / ref
    assert spin["counting_seed"] != workloads.COUNTING_SEED
    gp = workloads.generate("gp-dynamics", seed)
    assert (gp["y_1d"], gp["y_radial"]) != (1000.0, 316.0)
    assert abs(gp["y_1d"] / 1000.0 - 1.0) <= jitter and abs(gp["y_radial"] / 316.0 - 1.0) <= jitter
    assert f"trials = {workloads.COUNTING_TRIALS}" in spin["commands"][0][1]
