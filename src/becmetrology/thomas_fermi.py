"""Closed-form Thomas-Fermi analytics for the condensate in the intermediate regime.

The cloud has spread longitudinally but keeps its Gaussian transverse ground
state, and its longitudinal density has the parabolic-edge TF form.  Its
moments are the dimensionless integrals

    J_l(d, q) = integral_0^1 du u^(d-1) (1 - u^q)^l.

Normalization (J_1) fixes the cloud radius and chemical potential; J_2 gives
eta (the inverse occupied volume) and with it the relative-phase rate Omega_N.
The phase spread over the cloud leaves the invariant Omega_N tau_pd =
sqrt(2(d+3q)/d), so the phase-dispersion time tau_pd is closed form too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .physconfig import (SI, Species, Superposition, TrapGeometry, check_trap_mass,
                         coupling_constant, differential_coupling)
from .scaling import UNIT_SPHERE_VOLUME, Regime, critical_numbers, eta_transverse


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

    eta_L is J_2/J_1 times the peak density mu / geff, geff = (N-1) g eta_T;
    a hard wall holds the bare trap's flat density out to r0.  regime must be
    Regime.INTERMEDIATE.  The closed forms are evaluated at any N > 1; whether
    they hold there is scaling.classify_regime's label.  A trap built for
    another mass than the species' raises ValueError.
    """
    check_trap_mass(geom, species)
    if n_atoms <= 1:
        raise ValueError("need more than one atom for a mean-field profile")
    if regime != Regime.INTERMEDIATE:
        raise ValueError("TF profiles exist for the intermediate regime only")
    d, q = geom.d, geom.q
    eta_t = eta_transverse(geom)
    geff = (n_atoms - 1.0) * coupling_constant(species.a11, geom.mass) * eta_t
    if geom.hard_wall:
        r_tilde = geom.r0
        peak = 1.0 / (UNIT_SPHERE_VOLUME[d] * geom.r0**d)
        mu = geff * peak
    else:
        y = (n_atoms - 1.0) / (critical_numbers(geom, species.a11).n_lower - 1.0)
        r_tilde = geom.r0 * ((d + q) / q * y) ** (1.0 / (d + q))
        mu = 0.5 * geom.k * r_tilde**q
        peak = mu / geff
    eta_l = (j_integral(2.0, d, q) / j_integral(1.0, d, q)) * peak
    return TFProfile(mu=mu, r_tilde=r_tilde, eta_L=eta_l, eta_T=eta_t, eta_N=eta_t * eta_l)


@dataclass(frozen=True)
class PhaseDynamics:
    """Integrated relative-phase rate and the phase-dispersion time.

    omega_N is the fringe angular frequency (N-1) eta_N Delta-g / hbar, with
    eta_N that of the intermediate-regime TF profile; tau_pd is when the
    position-dependent part of the phase has cost a factor e^(-1/2) of fringe
    visibility.
    """

    omega_N: float
    tau_pd: float
    delta_g: float
    eta_N: float


def phase_dynamics(geom: TrapGeometry, species: Species, n_atoms: float,
                   sup: Superposition) -> PhaseDynamics:
    """Relative-phase rate and phase-dispersion time of the intermediate-regime cloud.

    tau_pd is the invariant Omega_N tau_pd = sqrt(2(d+3q)/d) over |Omega_N|, and
    infinite for a hard wall, whose flat density disperses no phase.  This is
    the one place that rejects a superposition without signal: a vanishing
    differential coupling raises ValueError.
    """
    delta_g = differential_coupling(species, sup)
    if delta_g == 0.0:
        raise ValueError("no relative-phase signal: the differential coupling "
                         "vanishes for this species and superposition")
    profile = tf_profile(geom, species, n_atoms, Regime.INTERMEDIATE)
    omega = (n_atoms - 1.0) * profile.eta_N * delta_g / SI.hbar
    d, q = geom.d, geom.q
    tau = math.inf if geom.hard_wall else math.sqrt(2.0 * (d + 3.0 * q) / d) / abs(omega)
    return PhaseDynamics(omega_N=omega, tau_pd=tau, delta_g=delta_g, eta_N=profile.eta_N)


def overlap_gaussian(phase: PhaseDynamics, t: float) -> complex:
    """Second-order (Gaussian) model of the two-mode overlap at time t.

    exp(-i omega_N t) for the integrated phase, times a Gaussian visibility
    envelope exp(-t^2 / (2 tau_pd^2)); |overlap| = e^(-1/2) at t = tau_pd.
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    envelope = math.exp(-0.5 * (t / phase.tau_pd) ** 2)  # 1 for an infinite tau_pd
    return complex(math.cos(phase.omega_N * t), -math.sin(phase.omega_N * t)) * envelope
