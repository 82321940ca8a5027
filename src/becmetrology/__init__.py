"""Quantum-limited metrology bounds and two-mode BEC condensate numerics.

The package has two halves that meet in the middle: exact collective-spin
simulation with the associated Cramer-Rao / quantum-noise-limit / Heisenberg
bounds (`spins`), and the condensate physics that realizes the amplified
coupling: critical-number scaling (`scaling`), closed-form Thomas-Fermi
analytics (`thomas_fermi`), grid-based Gross-Pitaevskii solves (`gp`), and the
atom-counting noise model (`counting`).  `physconfig` holds species and trap
records; `cli` exposes reproducible sweeps.

The names below are loaded on first use (PEP 562), so that importing the
package, or one of its modules, loads only what that use needs: a
`condensate` run never loads `spins` or numpy.random.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "physconfig": ("PhysicalConstants", "SI", "Species", "Superposition", "TrapGeometry",
                   "coupling_constant", "differential_coupling", "josephson_couplings",
                   "rb87", "trap_from_lengths", "typical_species", "typical_trap"),
    "scaling": ("CriticalNumbers", "Regime", "classify_regime", "critical_numbers",
                "eta_estimate", "fig1_table", "scaling_exponent"),
    "spins": ("DickeState", "SpectrumBound", "cat_state", "crb_linear", "crb_nonlinear",
              "evolve", "expectation", "prepare_product", "product_nonlinear_protocol",
              "simulate_cat", "simulate_enhanced", "simulate_quadratic", "simulate_ramsey",
              "single_qubit_purity"),
    "thomas_fermi": ("PhaseDynamics", "TFProfile", "j_integral", "overlap_gaussian",
                     "phase_dynamics", "tf_profile"),
    "gp": ("ConvergenceError", "EvolutionRecord", "Field", "Grid", "GroundStateResult",
           "StepSizeError", "evolve_two_mode", "evolve_two_mode_to_tolerance",
           "ground_state", "ground_states", "loss_budget"),
    "counting": ("CountingNoise", "MonteCarloResult", "corrected_uncertainty", "ramsey_mean",
                 "ramsey_slope", "ramsey_variance", "simulate_counts"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_SOURCE)


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:  # submodules fall through to the import system
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
