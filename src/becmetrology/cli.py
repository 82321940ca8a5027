"""Command-line front end: reproducible sweeps emitting plot-ready CSV files.

One subcommand per theme: `bounds` (spin-metrology sensitivities), `scaling`
(critical numbers and exponents), `condensate` (GP ground states, two-mode
overlap, loss budget), `counting` (detector-noise penalty).  Every output file
embeds the fully resolved configuration as comment lines, so a data file is
self-describing.  A command writes its files, and the `<command>_index.json`
that lists them, only after it has computed all of them, so a run that exits
2 or 3 writes nothing.

Exit codes: 0 success, 2 configuration error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from dataclasses import dataclass, field

from . import csvio, gp, scaling, thomas_fermi as tf
from .physconfig import (CM3, NM, SPECIES_PRESETS, UM, Species, Superposition,
                         TrapGeometry, atomic_mass, trap_from_lengths)


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Fully resolved run parameters (defaults <- file)."""

    species_preset: str = "rb87"
    species: Species = field(default_factory=SPECIES_PRESETS["rb87"])
    trap_d: int = 1
    trap_q: float = 2.0
    rho0: float = 1.0 * UM
    r0: float = 100.0 * UM
    grid_points: int = 512
    grid_extent_factor: float = 2.0
    n_values: list[int] = field(default_factory=lambda: [8 * 2**k for k in range(8)])
    n_over_nl: list[float] = field(default_factory=lambda: [100.0, 178.0, 316.0, 562.0, 1000.0])
    sigma_over_sqrtn: list[float] = field(default_factory=lambda: [0.0, 0.25, 0.5, 1.0, 2.0])
    q_values: list[float] = field(default_factory=lambda: [1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 10.0])
    gamma: float = 1.0
    t: float = 1.0
    c1: float = 1.0 / math.sqrt(2.0)
    c2: float = 1.0 / math.sqrt(2.0)
    counting_n: int = 400
    trials: int = 100_000
    seed: int = 20240901

    def trap(self) -> TrapGeometry:
        return trap_from_lengths(self.trap_d, self.trap_q, self.rho0, self.r0,
                                 self.species.mass)

    def superposition(self) -> Superposition:
        return Superposition(self.c1, self.c2)


# The configuration file format: (section, key, RunConfig attribute, SI value
# of one file unit), in file order.  The attribute's default is the key's
# default and fixes its type; `preset = inline` is never written, the
# SPECIES_KEYS are written in its place.
KEYS = (("species", "preset", "species_preset", 1.0),
        ("trap", "d", "trap_d", 1.0),
        ("trap", "q", "trap_q", 1.0),
        ("trap", "rho0_um", "rho0", UM),
        ("trap", "r0_um", "r0", UM),
        ("grid", "points", "grid_points", 1.0),
        ("grid", "extent_factor", "grid_extent_factor", 1.0),
        ("sweep", "n_values", "n_values", 1.0),
        ("sweep", "n_over_nl", "n_over_nl", 1.0),
        ("sweep", "sigma_over_sqrtn", "sigma_over_sqrtn", 1.0),
        ("sweep", "q_values", "q_values", 1.0),
        ("sweep", "counting_n", "counting_n", 1.0),
        ("sweep", "trials", "trials", 1.0),
        ("protocol", "gamma", "gamma", 1.0),
        ("protocol", "t", "t", 1.0),
        ("protocol", "c1", "c1", 1.0),
        ("protocol", "c2", "c2", 1.0),
        ("protocol", "seed", "seed", 1.0))
# Hardness keys: inf, spelled "inf" or "hard", is a hard wall there.
_HARDNESS_KEYS = ("q", "q_values")
# Inline [species] keys: (key, Species attribute, SI value of one file unit).
SPECIES_KEYS = (("mass_u", "mass", atomic_mass),
                ("a11_nm", "a11", NM),
                ("a22_nm", "a22", NM),
                ("a12_nm", "a12", NM),
                ("loss12_cm3_per_s", "gamma12_loss", CM3),
                ("loss22_cm3_per_s", "gamma22_loss", CM3))


def _format(value, unit: float) -> str:
    if isinstance(value, list):
        return " ".join(_format(v, unit) for v in value)
    return repr(value / unit) if isinstance(value, float) else str(value)


def _parse(text: str, like, unit: float):
    """Parse text as a value of the same type as like, in file units."""
    if isinstance(like, list):
        return [_parse(tok, like[0], unit) for tok in text.replace(",", " ").split()]
    if isinstance(like, float):
        return float(text) * unit
    return int(text) if isinstance(like, int) else text.lower()


def config_to_text(cfg: RunConfig) -> str:
    """Canonical key-value serialization; parsing it back reproduces cfg."""
    lines, section = [], None
    for sec, key, attr, unit in KEYS:
        if sec != section:
            lines += ["", f"[{sec}]"]
            section = sec
        if attr == "species_preset" and cfg.species_preset == "inline":
            lines += [f"{k} = {_format(getattr(cfg.species, a), u)}"
                      for k, a, u in SPECIES_KEYS]
        else:
            lines.append(f"{key} = {_format(getattr(cfg, attr), unit)}")
    return "\n".join(lines[1:]) + "\n"


def _finite(key: str, value):
    """Return value; a float in it that is nan or infinite is a configuration error,
    except inf for a hardness exponent, which is a hard wall."""
    hardness = key in _HARDNESS_KEYS
    for v in value if isinstance(value, list) else [value]:
        if isinstance(v, float) and not (math.isfinite(v) or (hardness and v == math.inf)):
            raise ConfigError(f"invalid configuration value: {key} must be finite")
    return value


def config_from_text(text: str) -> RunConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=(";",))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed configuration: {exc}") from exc
    known = {(sec, key) for sec, key, _, _ in KEYS}
    known |= {("species", key) for key, _, _ in SPECIES_KEYS}
    if cp.defaults():  # keys under [DEFAULT] would apply to every section
        raise ConfigError(f"unknown section [{cp.default_section}]")
    for sec in cp.sections():
        if sec not in {known_sec for known_sec, _ in known}:
            raise ConfigError(f"unknown section [{sec}]")
        for key in cp[sec]:
            if (sec, key) not in known:
                raise ConfigError(f"unknown key '{key}' in [{sec}]")
    cfg = RunConfig()
    try:
        for sec, key, attr, unit in KEYS:
            if cp.has_option(sec, key):
                value = cp[sec][key]
                if key in _HARDNESS_KEYS:
                    value = " ".join("inf" if tok.lower() == "hard" else tok
                                     for tok in value.replace(",", " ").split())
                setattr(cfg, attr, _finite(key, _parse(value, getattr(cfg, attr), unit)))
        inline = {attr: _finite(key, _parse(cp["species"][key], 0.0, unit))
                  for key, attr, unit in SPECIES_KEYS if cp.has_option("species", key)}
        if inline:
            if len(cp["species"]) > len(inline):  # a preset is given too
                raise ConfigError("[species] takes a preset or inline keys, not both")
            # Species fields without a default are not class attributes
            missing = [key for key, attr, _ in SPECIES_KEYS
                       if attr not in inline and not hasattr(Species, attr)]
            if missing:
                raise ConfigError(f"missing configuration key(s) {', '.join(missing)}")
            cfg.species_preset, cfg.species = "inline", Species(**inline)
        elif cfg.species_preset in SPECIES_PRESETS:
            cfg.species = SPECIES_PRESETS[cfg.species_preset]()
        else:
            raise ConfigError(f"unknown species preset '{cfg.species_preset}'")
        cfg.trap()
        cfg.superposition()
        if not (cfg.n_values and cfg.n_over_nl and cfg.sigma_over_sqrtn and cfg.q_values):
            raise ConfigError("sweep ranges must be nonempty")
        gp.Grid(1, cfg.grid_points, 1.0)  # the solver's point-count rule
        # the ranges the commands need, so that no run fails halfway
        for ok, rule in ((cfg.grid_extent_factor >= gp.MIN_EXTENT_FACTOR,
                          f"extent_factor must be positive and at least {gp.MIN_EXTENT_FACTOR}"),
                         (all(n >= 2 for n in cfg.n_values), "n_values must be at least 2"),
                         (len(set(cfg.n_values)) == len(cfg.n_values),
                          "n_values must be distinct"),
                         (all(y > 0 for y in cfg.n_over_nl), "n_over_nl must be positive"),
                         (len(set(cfg.n_over_nl)) == len(cfg.n_over_nl),
                          "n_over_nl values must be distinct"),
                         (all(q >= 1 for q in cfg.q_values), "q_values must be at least 1"),
                         (all(s >= 0 for s in cfg.sigma_over_sqrtn),
                          "sigma_over_sqrtn must be nonnegative"),
                         (cfg.counting_n >= 1 and cfg.trials >= 2,
                          "counting_n must be at least 1 and trials at least 2"),
                         (cfg.gamma > 0 and cfg.t > 0, "gamma and t must be positive"),
                         (cfg.t <= 0 or math.isfinite(_quarter_fringe_gamma(cfg.t)),
                          "t must be large enough that pi/(2t) is finite"),
                         # numpy's generators take no negative seed
                         (cfg.seed >= 0, "seed must be nonnegative")):
            if not ok:
                raise ConfigError(f"invalid configuration value: {rule}")
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"invalid configuration value: {exc}") from exc
    return cfg


# --- subcommands -----------------------------------------------------------
# Each command computes and returns ({file name: (columns, rows)}, index facts),
# the tables in write order; `main` writes them.

def cmd_bounds(cfg: RunConfig) -> tuple[dict, dict]:
    from . import spins  # only this command simulates spins

    qubit = spins.SpectrumBound(0.5, -0.5)
    pair = spins.SpectrumBound(0.5, -0.5, k_body=2)
    rows = []
    for n in cfg.n_values:
        linear = spins.cramer_rao(qubit, n, cfg.t)
        # quadratic protocol in its short-time window gamma*t*N <= 0.1
        tq = 0.1 / (cfg.gamma * n)
        for result, bound in ((spins.simulate_ramsey(n, cfg.gamma, cfg.t), linear),
                              (spins.simulate_cat(n, cfg.gamma, cfg.t), linear),
                              (spins.simulate_enhanced(n, cfg.gamma, cfg.t), linear),
                              (spins.simulate_quadratic(n, cfg.gamma, tq),
                               spins.cramer_rao(pair, n, tq))):
            rows.append((result.protocol, n, result.t, cfg.gamma, result.delta_gamma,
                         bound.crb, bound.product_state_reference, result.purity))
    # time trace of the quadratic protocol: sensitivity and entanglement witness
    n_trace = max(cfg.n_values)
    t_grid = [x * 2.0 / (cfg.gamma * n_trace) / 24 for x in range(1, 25)]
    trace = spins.product_nonlinear_protocol(n_trace, cfg.gamma, t_grid)
    slopes = []
    for name in ("ramsey", "cat", "enhanced", "quadratic"):
        pts = [(r[1], r[4] * r[2]) for r in rows if r[0] == name]  # (N, t*delta)
        slope = math.nan if len(pts) < 2 else \
            spins.fit_loglog_slope([p[0] for p in pts], [p[1] for p in pts])
        slopes.append((name, slope))
    return {"bounds.csv": (("protocol", "N", "t", "gamma", "delta_gamma",
                            "bound_HL", "bound_QNL", "purity"), rows),
            "quadratic_trace.csv": (("N", "t", "gamma", "delta_gamma", "purity"),
                                    [(r.n_atoms, r.t, r.gamma, r.delta_gamma, r.purity)
                                     for r in trace]),
            "bounds_slopes.csv": (("protocol", "loglog_slope"), slopes)}, {}


def cmd_scaling(cfg: RunConfig) -> tuple[dict, dict]:
    fig_rows = []
    for q in cfg.q_values:  # Fig. 1's table of intermediate-regime exponents
        xi = [scaling.scaling_exponent(d, q, scaling.Regime.INTERMEDIATE) for d in (1, 2, 3)]
        fig_rows.append((float(q), *map(float, xi), *map(str, xi)))
    crit_rows = []
    for d in (1, 2, 3):
        for q in dict.fromkeys((cfg.trap_q, math.inf)):  # a hard-wall trap_q once
            geom = trap_from_lengths(d, q, cfg.rho0, cfg.r0, cfg.species.mass)
            crit = scaling.critical_numbers(geom, cfg.species.a11)
            crit_rows.append((d, "inf" if math.isinf(q) else q, crit.n_lower,
                              "" if crit.n_upper is None else crit.n_upper))
    # closed-form inverse-volume estimate across all three regimes
    geom = cfg.trap()
    crit = scaling.critical_numbers(geom, cfg.species.a11)
    n_hi = 1e3 * (crit.n_upper if crit.n_upper is not None else 1e6 * crit.n_lower)
    n_grid = [math.exp(x) for x in
              _linspace(math.log(2.0), math.log(n_hi), 60)]
    eta_rows = [(n, scaling.eta_estimate(geom, cfg.species.a11, n),
                 scaling.classify_regime(geom, cfg.species.a11, n).value)
                for n in n_grid]
    return {"exponents.csv": (("q", "xi_1d", "xi_2d", "xi_3d",
                               "xi_1d_exact", "xi_2d_exact", "xi_3d_exact"), fig_rows),
            "critical_numbers.csv": (("d", "q", "n_lower", "n_upper"), crit_rows),
            "eta_estimate.csv": (("N", "eta_m3", "regime"), eta_rows)}, {}


def _linspace(a, b, count):
    step = (b - a) / (count - 1)
    return [a + i * step for i in range(count)]


def cmd_condensate(cfg: RunConfig) -> tuple[dict, dict]:
    if math.isinf(cfg.trap_q):
        raise ConfigError("the condensate solver needs a finite hardness "
                          "exponent; hard-wall traps are covered analytically "
                          "by the scaling command")
    if cfg.trap_d != 1:
        raise ConfigError("the condensate command runs the 1D longitudinal "
                          "two-mode protocol; set d = 1")
    geom = cfg.trap()
    species = cfg.species
    sup = cfg.superposition()
    crit = scaling.critical_numbers(geom, species.a11)
    n_list = [1.0 + y * (crit.n_lower - 1.0) for y in sorted(cfg.n_over_nl)]
    n_run = n_list[-1]
    # the index records each N's regime, and with it where the eta_n_tf
    # column lies outside the intermediate regime that it assumes
    regimes = [{"N": n, "regime": scaling.classify_regime(geom, species.a11, n).value}
               for n in n_list]
    # a superposition without signal fails here, before any ground state is solved
    try:
        phase = tf.phase_dynamics(geom, species, n_run, sup)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    etas_tf = [tf.tf_profile(geom, species, n).eta_N for n in n_list]

    grids = [gp.default_grid(geom, species, n, points=cfg.grid_points,
                             extent_factor=cfg.grid_extent_factor) for n in n_list]
    results = gp.ground_states(geom, species, n_list, grids)
    slopes = gp.local_log_slopes(n_list, [res.eta_n for res in results])
    eta_rows = [(n, (n - 1.0) / (crit.n_lower - 1.0), res.eta_n, eta_tf_val,
                 res.eta_n / eta_tf_val - 1.0, slope, res.mu, res.residual)
                for n, res, slope, eta_tf_val in zip(n_list, results, slopes, etas_tf)]

    # two-mode overlap against the Gaussian model at the largest swept N
    ground = results[-1]
    t_final = 0.5 / abs(phase.omega_N)
    record, steps, error = gp.evolve_two_mode_to_tolerance(ground, sup, species, geom, t_final)
    overlap_rows = []
    for t, ov, p1, p2, n1, n2 in zip(record.times, record.overlap, record.p1,
                                     record.p2, record.norm1, record.norm2):
        model = tf.overlap_gaussian(phase, t)
        overlap_rows.append((t, ov.real, ov.imag, abs(ov), abs(model),
                             -phase.omega_N * t, p1, p2, n1, n2))

    budget = gp.loss_budget(species, geom, n_run, sup)
    tables = {"eta_sweep.csv": (("N", "n_over_nl", "eta_n", "eta_n_tf", "rel_err",
                                 "local_slope", "mu", "residual"), eta_rows),
              "overlap.csv": (("t", "overlap_re", "overlap_im", "overlap_abs", "model_abs",
                               "model_phase", "p1", "p2", "norm1", "norm2"), overlap_rows),
              "loss_budget.csv": (("N", "gamma_loss", "omega_N", "ratio", "inverse_ratio"),
                                  [(n_run, budget.gamma, budget.omega_N, budget.ratio,
                                    1.0 / budget.ratio)])}
    return tables, {"regimes": regimes,
                    "two_mode": {"steps": steps, "points": record.points, "error": error,
                                 "tolerance": gp.TWO_MODE_TOLERANCE}}


def _quarter_fringe_gamma(t: float) -> float:
    """The coupling whose Ramsey signal sits at the quarter fringe, gamma t = pi/2,
    where its slope is maximal."""
    return 0.5 * math.pi / t


def cmd_counting(cfg: RunConfig) -> tuple[dict, dict]:
    from . import counting as cnt  # only this command counts atoms

    n = cfg.counting_n
    gamma = _quarter_fringe_gamma(cfg.t)
    noises = [cnt.CountingNoise(sigma=s * math.sqrt(n)) for s in cfg.sigma_over_sqrtn]
    results = cnt.simulate_counts(cfg.t, n, noises, gamma, cfg.trials, cfg.seed)
    rows = [(noise.sigma, n, gamma, cnt.corrected_uncertainty(cfg.t, n, noise, gamma),
             mc.delta_gamma, mc.stderr) for noise, mc in zip(noises, results)]
    return {"counting.csv": (("sigma", "N", "gamma", "delta_gamma_analytic",
                              "delta_gamma_mc", "mc_stderr"), rows)}, {}


COMMANDS = {"bounds": cmd_bounds, "scaling": cmd_scaling,
            "condensate": cmd_condensate, "counting": cmd_counting}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="becmetrology",
                                     description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", metavar="PATH", help="key-value configuration file")
    parser.add_argument("--out", metavar="DIR", default=".", help="output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = ""  # no file: every key takes its default
        if args.config:
            try:
                with open(args.config) as fh:
                    text = fh.read()
            except OSError as exc:
                raise ConfigError(f"cannot read configuration: {exc}") from exc
        cfg = config_from_text(text)
        out_dir = args.out
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory: {exc}") from exc
        if not os.access(out_dir, os.W_OK):
            raise ConfigError(f"output directory {out_dir} is not writable")
        tables, facts = COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except gp.ConvergenceError as exc:
        print(f"solver failed to converge: {exc}", file=sys.stderr)
        return 3
    except gp.StepSizeError as exc:
        print(f"two-mode evolution failed: {exc}", file=sys.stderr)
        return 3
    # every table is computed before the first file is written
    header = [f"becmetrology {args.command}", "resolved configuration:",
              *config_to_text(cfg).splitlines()]
    paths = [os.path.join(out_dir, name) for name in tables]
    for path, (columns, rows) in zip(paths, tables.values()):
        csvio.write_csv(path, columns, rows, header)
    csvio.write_json(os.path.join(out_dir, f"{args.command}_index.json"),
                     {"command": args.command, "seed": cfg.seed,
                      "outputs": list(tables), **facts})
    print(*paths, sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
