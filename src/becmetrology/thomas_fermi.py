"""Closed-form Thomas-Fermi analytics for the condensate in the intermediate regime.

All results derive from one family of dimensionless integrals

    J_l(d, q) = integral_0^1 du u^(d-1) (1 - u^q)^l,

evaluated over the parabolic-edge TF density of a cloud that has spread
longitudinally but keeps its Gaussian transverse ground state.  Normalization
fixes the cloud radius and chemical potential; the second moments give eta (the
inverse occupied volume), the relative-phase rate, and the phase-dispersion time.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .physconfig import (SI, Species, Superposition, TrapGeometry,
                         coupling_constant, differential_coupling)
from .scaling import (UNIT_SPHERE_VOLUME, Regime, classify_regime,
                      critical_numbers, eta_transverse)


def j_integral(l: float, d: int, q: float) -> float:
    """J_l(d,q) in its gamma-function (beta) form, valid for any real l > -1.

    Written with log-gammas so integer l needs no special casing; the hard-wall
    limit q -> inf is 1/d for every l.
    """
    if l <= -1:
        raise ValueError("the integral diverges for l <= -1")
    if d <= 0 or q <= 0:
        raise ValueError("d and q must be positive")
    if math.isinf(q):
        return 1.0 / d
    return math.exp(math.lgamma(l + 1.0) + math.lgamma(d / q)
                    - math.lgamma(d / q + l + 1.0)) / q


def _intermediate_pieces(geom: TrapGeometry, a: float, n_atoms: float):
    """(r_tilde, mu_L, X) for the intermediate-regime TF profile.

    X = mu_L / ((N-1) g eta_T) is the peak longitudinal density; it carries all
    the dimensions of the I_l family.
    """
    d, q = geom.d, geom.q
    crit = critical_numbers(geom, a)
    y = (n_atoms - 1.0) / (crit.n_lower - 1.0)
    g = coupling_constant(a, geom.mass)
    eta_t = eta_transverse(geom)
    if geom.hard_wall:
        r_tilde = geom.r0
        peak = 1.0 / (UNIT_SPHERE_VOLUME[d] * geom.r0**d)
        mu = (n_atoms - 1.0) * g * eta_t * peak
        return r_tilde, mu, peak
    r_tilde = geom.r0 * ((d + q) / q * y) ** (1.0 / (d + q))
    mu = 0.5 * geom.k * r_tilde**q
    peak = mu / ((n_atoms - 1.0) * g * eta_t)
    return r_tilde, mu, peak


def i_integral(l: float, n_atoms: float, geom: TrapGeometry, a: float) -> float:
    """Integral of the intermediate-regime TF density to the l-th power (m^(-d(l-1))).

    Normalization makes I_1 = 1 identically; I_2 is the longitudinal inverse
    volume eta_L.
    """
    if n_atoms <= 1:
        raise ValueError("need more than one atom for a mean-field profile")
    _, _, peak = _intermediate_pieces(geom, a, n_atoms)
    ratio = j_integral(l, geom.d, geom.q) / j_integral(1.0, geom.d, geom.q)
    return ratio * peak ** (l - 1.0)


@dataclass(frozen=True)
class TFProfile:
    """Intermediate-regime Thomas-Fermi description of the condensate.

    mu is the longitudinal chemical potential; the wave function factorizes, so
    eta_N = eta_L * eta_T.
    """

    mu: float
    r_tilde: float
    eta_L: float
    eta_T: float
    eta_N: float


def tf_profile(geom: TrapGeometry, species: Species, n_atoms: float,
               regime: Regime = Regime.INTERMEDIATE) -> TFProfile:
    """TF profile of the single-mode condensate (all atoms in state 1, a = a11).

    regime must be Regime.INTERMEDIATE.  An atom number that classifies as bare
    or full TF only warns, since the closed forms remain evaluable.
    """
    if n_atoms <= 1:
        raise ValueError("need more than one atom for a mean-field profile")
    if regime != Regime.INTERMEDIATE:
        raise ValueError("TF profiles exist for the intermediate regime only")
    a = species.a11
    actual = classify_regime(geom, a, n_atoms)
    if actual != regime:
        warnings.warn(f"atom number {n_atoms:g} classifies as {actual.value}, "
                      f"not the requested {regime.value}; TF validity is marginal",
                      stacklevel=2)
    r_tilde, mu, peak = _intermediate_pieces(geom, a, n_atoms)
    eta_l = (j_integral(2.0, geom.d, geom.q) / j_integral(1.0, geom.d, geom.q)) * peak
    eta_t = eta_transverse(geom)
    return TFProfile(mu=mu, r_tilde=r_tilde, eta_L=eta_l, eta_T=eta_t,
                     eta_N=eta_t * eta_l)


@dataclass(frozen=True)
class PhaseDynamics:
    """Integrated relative-phase rate and the phase-dispersion time.

    omega_N is the fringe angular frequency (N-1) eta_N Delta-g / hbar; tau_pd is
    when the position-dependent part of the phase has cost a factor e^(-1/2) of
    fringe visibility.
    """

    omega_N: float
    tau_pd: float
    delta_g: float


def phase_dynamics(geom: TrapGeometry, species: Species, n_atoms: float,
                   sup: Superposition) -> PhaseDynamics:
    profile = tf_profile(geom, species, n_atoms, Regime.INTERMEDIATE)
    delta_g = differential_coupling(species, sup)
    omega = (n_atoms - 1.0) * profile.eta_N * delta_g / SI.hbar
    if delta_g == 0.0:
        warnings.warn("the two modes have identical mean-field couplings; no "
                      "relative phase accumulates and tau_pd is undefined",
                      stacklevel=2)
        return PhaseDynamics(omega_N=0.0, tau_pd=math.nan, delta_g=0.0)
    a = species.a11
    i1 = i_integral(1.0, n_atoms, geom, a)
    i2 = i_integral(2.0, n_atoms, geom, a)
    i3 = i_integral(3.0, n_atoms, geom, a)
    spread = i3 - 2.0 * profile.eta_L * i2 + profile.eta_L**2 * i1
    if spread <= 0.0:
        tau = math.inf  # flat-topped density: no position-dependent phase
    else:
        tau = profile.eta_L / (abs(omega) * math.sqrt(spread))
    return PhaseDynamics(omega_N=omega, tau_pd=tau, delta_g=delta_g)


def overlap_gaussian(phase: PhaseDynamics, t: float) -> complex:
    """Second-order (Gaussian) model of the two-mode overlap at time t.

    exp(-i omega_N t) for the integrated phase, times a Gaussian visibility
    envelope exp(-t^2 / (2 tau_pd^2)); |overlap| = e^(-1/2) at t = tau_pd.
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    if phase.omega_N == 0.0:
        return 1.0 + 0.0j
    envelope = 1.0 if math.isinf(phase.tau_pd) else math.exp(-0.5 * (t / phase.tau_pd) ** 2)
    return complex(math.cos(phase.omega_N * t), -math.sin(phase.omega_N * t)) * envelope
