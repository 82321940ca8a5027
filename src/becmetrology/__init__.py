"""Quantum-limited metrology bounds and two-mode BEC condensate numerics.

The package has two halves that meet in the middle: exact collective-spin
simulation with the associated Cramer-Rao / quantum-noise-limit / Heisenberg
bounds (`spins`), and the condensate physics that realizes the amplified
coupling: critical-number scaling (`scaling`), closed-form Thomas-Fermi
analytics (`thomas_fermi`), grid-based Gross-Pitaevskii solves (`gp`), and the
atom-counting noise model (`counting`).  `physconfig` holds species and trap
records; `cli` exposes reproducible sweeps, which `csvio` writes.
"""

__version__ = "0.1.0"
