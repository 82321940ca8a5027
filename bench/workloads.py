"""Workload definitions and seeded input generation.

Every input the package receives is generated here from the workload seed:
the configuration files of the CLI workloads and the call arguments of the
library-level `gp-dynamics` script.  Seed 0 reproduces the reference inputs
exactly; any other seed jitters the swept atom numbers within a few percent
and draws a fresh counting Monte Carlo seed.  The jitter is kept small so
that every jittered input stays inside the ranges where the correctness
checks hold, and so that the work per run moves by well under the
benchmark's bounds.
"""

from __future__ import annotations

import random

# Why these three (the "why" lines of BENCHMARK.json say the same):
# - condensate-sweep: the time sink, five 1D imaginary-time ground states via
#   the CLI default config.  Batching across N, real FFTs, warm starts and
#   fewer steps show here; `spins` and `counting` never run.
# - spin-bounds-large-n: dense (N+1)^2 J_x eigenbases dominate time and
#   memory, the counting Monte Carlo takes the rest.  `gp` never runs.
# - gp-dynamics: paths the CLI reaches thinly or not at all, real-time
#   evolution with and without loss and the Crank-Nicolson radial solver.
#   One N per call, so batching across N cannot help.
WORKLOADS = ("condensate-sweep", "spin-bounds-large-n", "gp-dynamics")

REFERENCE_N_OVER_NL = (100.0, 178.0, 316.0, 562.0, 1000.0)
SPIN_N_VALUES = tuple(8 * 2**k for k in range(10))  # 8 ... 4096
COUNTING_TRIALS = 1_000_000
COUNTING_SEED = 20240901  # RunConfig's default seed
JITTER = 0.02  # largest relative change of a swept atom number


def _jitter(rng: random.Random, value: float) -> float:
    return round(value * (1.0 + rng.uniform(-JITTER, JITTER)), 3)


def _spin_n_values(rng: random.Random, seed: int) -> list[int]:
    # The end points stay put: N = 4096 sets the cost and the peak memory.
    if seed == 0:
        return list(SPIN_N_VALUES)
    inner = [int(round(n * (1.0 + rng.uniform(-JITTER, JITTER))))
             for n in SPIN_N_VALUES[1:-1]]
    return [SPIN_N_VALUES[0], *inner, SPIN_N_VALUES[-1]]


def generate(workload: str, seed: int) -> dict:
    """The inputs of one workload for one seed; the same seed gives the same inputs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if seed < 0:
        raise ValueError("the workload seed must be nonnegative")
    rng = random.Random(f"{workload}:{seed}")
    jitter = (lambda v: v) if seed == 0 else (lambda v: _jitter(rng, v))
    if workload == "condensate-sweep":
        y = [jitter(v) for v in REFERENCE_N_OVER_NL]
        config = "[sweep]\nn_over_nl = " + " ".join(repr(v) for v in y) + "\n"
        return {"commands": [["condensate", config]], "n_over_nl": y}
    if workload == "spin-bounds-large-n":
        n_values = _spin_n_values(rng, seed)
        mc_seed = COUNTING_SEED if seed == 0 else rng.randrange(1, 2**31)
        config = ("[sweep]\n"
                  "n_values = " + " ".join(str(n) for n in n_values) + "\n"
                  f"trials = {COUNTING_TRIALS}\n\n"
                  "[protocol]\n"
                  f"seed = {mc_seed}\n")
        return {"commands": [["bounds", config], ["counting", config]],
                "n_values": n_values, "counting_seed": mc_seed}
    return {"y_1d": jitter(1000.0), "points_1d": 1024, "gamma_t": 0.3,
            "y_radial": jitter(316.0), "points_radial": 512, "radial_dims": [2, 3],
            "tolerance": 1e-10}
