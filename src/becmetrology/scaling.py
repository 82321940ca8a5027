"""Critical atom numbers, regime labels, inverse-volume scaling, and sensitivity exponents.

Closed-form order-of-magnitude relations for a condensate loosely trapped in d
longitudinal dimensions (power-law potential, hardness q) and tightly trapped
in D = 3 - d transverse dimensions.  All "-1" offsets in atom numbers are kept
exactly; the 1D lower critical number is as small as 2, so they matter.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

from .physconfig import TrapGeometry

UNIT_SPHERE_VOLUME = {1: 2.0, 2: math.pi, 3: 4.0 * math.pi / 3.0}


def unit_sphere_area(d: int) -> float:
    """Area S_{d-1} of the unit sphere bounding a d-ball (= d * V_d)."""
    return d * UNIT_SPHERE_VOLUME[d]


def beta_factor(d: int) -> float:
    """Geometric factor V_d / (2 (4 pi)^((d-1)/2)); 1, sqrt(pi)/4, 1/6 for d = 1, 2, 3."""
    return UNIT_SPHERE_VOLUME[d] / (2.0 * (4.0 * math.pi) ** ((d - 1) / 2.0))


@dataclass(frozen=True)
class CriticalNumbers:
    """Atom numbers at which mean-field repulsion starts to spread the cloud.

    n_lower marks the onset of longitudinal spreading, n_upper the onset of
    transverse spreading.  n_upper is None for d = 3 (no transverse dimensions).
    """

    n_lower: float
    n_upper: float | None


def critical_numbers(geom: TrapGeometry, a: float) -> CriticalNumbers:
    if a <= 0:
        raise ValueError("scattering length must be positive")
    d, q = geom.d, geom.q
    beta = beta_factor(d)
    n_lower = 1.0 + beta * (geom.r0 / a) * (geom.rho0 / geom.r0) ** geom.transverse_dimensions
    if d == 3:
        return CriticalNumbers(n_lower=n_lower, n_upper=None)
    upper_exponent = float(d) if geom.hard_wall else d * (q + 2.0) / q  # d(q+2)/q
    n_upper = 1.0 + beta * (geom.rho0 / a) * (geom.r0 / geom.rho0) ** upper_exponent
    return CriticalNumbers(n_lower=n_lower, n_upper=n_upper)


class Regime(enum.Enum):
    BARE = "bare"
    INTERMEDIATE = "intermediate"
    FULL_TF = "full_TF"


def classify_regime(geom: TrapGeometry, a: float, n_atoms: float) -> Regime:
    """Label the atom number: bare up to N_L, full TF above N_T, else intermediate."""
    crit = critical_numbers(geom, a)
    if n_atoms <= crit.n_lower:
        return Regime.BARE
    if crit.n_upper is None or n_atoms <= crit.n_upper:
        return Regime.INTERMEDIATE
    return Regime.FULL_TF


def eta_transverse(geom: TrapGeometry) -> float:
    """Inverse transverse area (4 pi)^(-D/2) rho0^(-D) of the tight Gaussian ground state."""
    D = geom.transverse_dimensions
    return (4.0 * math.pi) ** (-D / 2.0) * geom.rho0 ** (-D)


def eta_estimate(geom: TrapGeometry, a: float, n_atoms: float) -> float:
    """Inverse occupied volume eta_N ~ N^(xi - 3/2) (m^-3), with xi the
    scaling_exponent of N's classify_regime label: continuous at both critical numbers.

    The full-regime branch is a scaling law with an undetermined prefactor; it is
    anchored to match the intermediate branch at N_T, so the estimate never jumps.
    Exact prefactors live in the Thomas-Fermi module.
    """
    regime = classify_regime(geom, a, n_atoms)
    eta = eta_transverse(geom) / (UNIT_SPHERE_VOLUME[geom.d] * geom.r0**geom.d)
    if regime == Regime.BARE:
        return eta
    crit = critical_numbers(geom, a)

    def exponent(label):
        return float(Fraction(3, 2) - scaling_exponent(geom.d, geom.q, label))

    n_knee = n_atoms if regime == Regime.INTERMEDIATE else crit.n_upper
    eta *= ((n_knee - 1.0) / (crit.n_lower - 1.0)) ** -exponent(Regime.INTERMEDIATE)
    if regime == Regime.FULL_TF:
        eta *= ((n_atoms - 1.0) / (crit.n_upper - 1.0)) ** -exponent(Regime.FULL_TF)
    return eta


def scaling_exponent(d: int, q, regime: Regime) -> Fraction:
    """Sensitivity exponent xi in delta-gamma ~ 1/N^xi, as an exact rational.

    bare: 3/2.  intermediate: (d+3q)/(2(d+q)).  full: 3/2 - (3-d+2d/q)/(5-d+2d/q).
    Hard wall (q = inf): 3/2, 3/2, and 3/2 - (3-d)/(5-d) respectively.
    q must be >= 1 or inf.  The intermediate exponent, Fig. 1's table,
    increases with q and crosses 1 exactly at q = d.
    """
    if d not in (1, 2, 3):
        raise ValueError("d must be 1, 2, or 3")
    if not q >= 1:  # also rejects nan
        raise ValueError("hardness exponent q must be >= 1 (or inf)")
    if regime == Regime.BARE:
        return Fraction(3, 2)
    hard = math.isinf(q)
    qf = None if hard else Fraction(q).limit_denominator(10**6)
    if regime == Regime.INTERMEDIATE:
        return Fraction(3, 2) if hard else (d + 3 * qf) / (2 * (d + qf))
    if regime == Regime.FULL_TF:
        if d == 3:
            raise ValueError("no full TF regime for d = 3")
        two_d_over_q = Fraction(0) if hard else 2 * d / qf
        return Fraction(3, 2) - (3 - d + two_d_over_q) / (5 - d + two_d_over_q)
    raise ValueError(f"unknown regime {regime!r}")
