"""Correctness checks on a workload's outputs, at tolerances the test suite asserts.

Each check returns a `Check`; a failed check marks the run as failed but does
not stop it.  The checks read only the files the run wrote, so a doctored
output can be checked without running the package.
"""

from __future__ import annotations

import csv
import json
import math
import os
from typing import NamedTuple


class Check(NamedTuple):
    name: str
    passed: bool
    detail: str


def read_rows(path) -> list[dict]:
    """Rows of a CSV file whose provenance lines start with '#'."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _worst(values) -> float:
    return max(values, default=math.inf)


def exit_codes(codes) -> Check:
    return Check("exit_code", bool(codes) and all(c == 0 for c in codes),
                 f"exit codes {codes}")


def condensate(out_dir, inputs) -> list[Check]:
    rows = read_rows(os.path.join(out_dir, "eta_sweep.csv"))
    expected = len(inputs["n_over_nl"])
    # recomputed from the eta columns, so a doctored eta cannot hide behind rel_err
    rel = _worst(max(abs(float(r["eta_n"]) / float(r["eta_n_tf"]) - 1.0), abs(float(r["rel_err"])))
                 for r in rows)
    res = _worst(float(r["residual"]) for r in rows)
    slopes = [float(r["local_slope"]) for r in rows[1:-1]]
    slope_err = _worst(abs(s + 1.0 / 3.0) for s in slopes)
    checks = [
        Check("eta_sweep.rows", len(rows) == expected, f"{len(rows)} rows, expected {expected}"),
        Check("eta_sweep.eta_vs_tf", rel < 0.05, f"worst |eta_n/eta_n_tf - 1| {rel:.3%} (< 5%)"),
        Check("eta_sweep.residual", res < 1e-10, f"worst residual {res:.2e} (< 1e-10)"),
        Check("eta_sweep.local_slope", len(slopes) == expected - 2 and slope_err < 0.05,
              f"worst |slope + 1/3| {slope_err:.4f} (< 0.05)"),
    ]
    overlap = read_rows(os.path.join(out_dir, "overlap.csv"))
    moving = [r for r in overlap if float(r["t"]) > 0.0]
    mag = _worst(abs(float(r["overlap_abs"]) / float(r["model_abs"]) - 1.0) for r in moving)
    phase = _worst(abs(math.atan2(float(r["overlap_im"]), float(r["overlap_re"]))
                       / float(r["model_phase"]) - 1.0) for r in moving)
    norm = _worst(abs(float(r[key]) - 1.0) for r in overlap for key in ("norm1", "norm2"))
    checks += [
        Check("overlap.magnitude", mag < 0.02, f"worst magnitude error {mag:.3%} (< 2%)"),
        Check("overlap.phase", phase < 0.02, f"worst phase error {phase:.3%} (< 2%)"),
        Check("overlap.norms", norm <= 1e-6, f"worst |norm - 1| {norm:.2e} (<= 1e-6)"),
    ]
    return checks


def _bound(row) -> float:
    # `enhanced` sits below the HL column by design; its own bound is 1/(t N^2)
    if row["protocol"] == "enhanced":
        return 1.0 / (float(row["t"]) * float(row["N"]) ** 2)
    return float(row["bound_HL"])


def spin_bounds(out_dir, inputs) -> list[Check]:
    rows = read_rows(os.path.join(out_dir, "bounds.csv"))
    expected = 4 * len(inputs["n_values"])

    def exact(protocol, power):
        return _worst(abs(float(r["delta_gamma"]) * float(r["t"]) * float(r["N"]) ** power - 1.0)
                      for r in rows if r["protocol"] == protocol)

    ramsey, cat = exact("ramsey", 0.5), exact("cat", 1.0)
    below = [f"{r['protocol']} N={r['N']}" for r in rows
             if float(r["delta_gamma"]) < _bound(r) - 1e-9]
    slopes = {r["protocol"]: float(r["loglog_slope"])
              for r in read_rows(os.path.join(out_dir, "bounds_slopes.csv"))}
    slope_err = _worst(abs(slopes[p] - target) if p in slopes else math.inf
                       for p, target in (("ramsey", -0.5), ("cat", -1.0), ("enhanced", -1.5)))
    counts = read_rows(os.path.join(out_dir, "counting.csv"))
    z = _worst(abs(float(r["delta_gamma_mc"]) - float(r["delta_gamma_analytic"]))
               / float(r["mc_stderr"]) for r in counts)
    return [
        Check("bounds.rows", len(rows) == expected, f"{len(rows)} rows, expected {expected}"),
        Check("bounds.ramsey_exact", ramsey <= 1e-9, f"worst |dg t sqrt(N) - 1| {ramsey:.2e} (<= 1e-9)"),
        Check("bounds.cat_exact", cat <= 1e-9, f"worst |dg t N - 1| {cat:.2e} (<= 1e-9)"),
        Check("bounds.cramer_rao", not below,
              "every row at or above its bound" if not below else "below bound: " + ", ".join(below)),
        Check("bounds.slopes", slope_err <= 0.02, f"worst slope error {slope_err:.4f} (<= 0.02)"),
        Check("counting.mc_vs_analytic", bool(counts) and z < 3.0,
              f"worst |mc - analytic| = {z:.2f} stderr (< 3)"),
    ]


def gp_dynamics(out_dir, inputs) -> list[Check]:
    with open(os.path.join(out_dir, "gp_dynamics.json")) as fh:
        out = json.load(fh)
    states = out["ground_states"]
    expected = 1 + len(inputs["radial_dims"])
    unconverged = [s["dimension"] for s in states if not s["residual"] < s["tolerance"]]
    eta = _worst(abs(s["eta_n"] / s["eta_tf"] - 1.0) for s in states)
    decay = _worst(abs(ratio / expected_ratio - 1.0) for _, ratio, expected_ratio in out["decay"])
    loss = abs(out["loss_ratio"] * 19.0 - 1.0)
    return [
        Check("gp.states", len(states) == expected, f"{len(states)} ground states, expected {expected}"),
        Check("gp.residual", not unconverged,
              "every residual below its tolerance" if not unconverged
              else f"unconverged in d = {unconverged}"),
        Check("gp.eta_vs_tf", eta < 0.05, f"worst |eta/eta_TF - 1| {eta:.3%} (< 5%)"),
        Check("gp.loss_decay", decay < 0.10, f"worst |ratio/exp(-Gamma t) - 1| {decay:.3%} (< 10%)"),
        Check("gp.loss_ratio", loss < 0.20, f"|Gamma/Omega * 19 - 1| {loss:.3%} (< 20%)"),
    ]


def trace_self_times(metrics) -> Check:
    """The reported self times of a traced run add up to its wall time."""
    gap = abs(metrics["trace.self_sum_s"] - metrics["trace.wall_s"])
    return Check("trace.self_times", gap < 1e-6,
                 f"layer self times sum to the traced wall time within {gap:.1e} s")


OUTPUT_CHECKS = {"condensate-sweep": condensate, "spin-bounds-large-n": spin_bounds,
                 "gp-dynamics": gp_dynamics}


def run_checks(workload, out_dir, inputs, result) -> list[Check]:
    """Every check for one run; a missing or unreadable output fails its check."""
    if "error" in result:
        last = result["error"].strip().splitlines()[-1]
        return [Check("completed", False, f"worker raised: {last}")]
    checks = []
    if "exit_codes" in result:
        checks.append(exit_codes(result["exit_codes"]))
    try:
        checks += OUTPUT_CHECKS[workload](out_dir, inputs)
    except (OSError, KeyError, ValueError, ZeroDivisionError) as exc:
        checks.append(Check("outputs", False, f"cannot check outputs: {exc!r}"))
    return checks
