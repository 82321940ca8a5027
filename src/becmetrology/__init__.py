"""Quantum-limited metrology bounds and two-mode BEC condensate numerics.

The package has two halves that meet in the middle: exact collective-spin
simulation with the associated Cramer-Rao / quantum-noise-limit / Heisenberg
bounds (`spins`), and the condensate physics that realizes the amplified
coupling: critical-number scaling (`scaling`), closed-form Thomas-Fermi
analytics (`thomas_fermi`), grid-based Gross-Pitaevskii solves (`gp`), and the
atom-counting noise model (`counting`).  `physconfig` holds species and trap
records; `cli` exposes reproducible sweeps.
"""

from .physconfig import (PhysicalConstants, SI, Species, Superposition,
                         TrapGeometry, coupling_constant, differential_coupling,
                         josephson_couplings, rb87, trap_from_lengths,
                         typical_species, typical_trap)
from .scaling import (CriticalNumbers, Regime, classify_regime,
                      critical_numbers, eta_estimate, fig1_table,
                      scaling_exponent)
from .spins import (DickeState, SpectrumBound, cat_state,
                    crb_linear, crb_nonlinear, evolve, expectation,
                    prepare_product, product_nonlinear_protocol,
                    simulate_cat, simulate_enhanced, simulate_quadratic,
                    simulate_ramsey, single_qubit_purity)
from .thomas_fermi import (PhaseDynamics, TFProfile, i_integral, j_integral,
                           overlap_gaussian, phase_dynamics, tf_profile)
from .gp import (ConvergenceError, EvolutionRecord, Field, Grid,
                 GroundStateResult, StepSizeError, evolve_two_mode,
                 ground_state, loss_budget)
from .counting import (CountingNoise, MonteCarloResult, corrected_uncertainty,
                       ramsey_mean, ramsey_slope, ramsey_variance, simulate_counts)

__version__ = "0.1.0"
