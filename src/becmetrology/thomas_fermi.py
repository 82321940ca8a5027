"""Closed-form Thomas-Fermi analytics for the trapped condensate.

All results derive from one family of dimensionless integrals

    J_l(d, q) = integral_0^1 du u^(d-1) (1 - u^q)^l,

evaluated over the parabolic-edge TF density.  Normalization fixes the cloud
radii and chemical potentials; the second moments give eta (the inverse
occupied volume), the relative-phase rate, and the phase-dispersion time.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .physconfig import (SI, Species, Superposition, TrapGeometry,
                         coupling_constant, differential_coupling)
from .scaling import (Regime, critical_numbers, eta_transverse,
                      unit_sphere_area, unit_sphere_volume)


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
        peak = 1.0 / (unit_sphere_volume(d) * geom.r0**d)
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


def _full_pieces(geom: TrapGeometry, a: float, n_atoms: float):
    """(rho_tilde, r_tilde, mu_N, Y) for the full-regime TF profile, Y = mu_N/((N-1)g)."""
    d, q, D = geom.d, geom.q, geom.transverse_dimensions
    if d == 3:
        raise ValueError("the full TF regime requires transverse dimensions (d < 3)")
    crit = critical_numbers(geom, a)
    y_t = (n_atoms - 1.0) / (crit.n_upper - 1.0)
    dq = 0.0 if geom.hard_wall else d / q
    expo = 5.0 - d + 2.0 * dq
    denom = d * j_integral(1.0 + dq, D, 2.0) * j_integral(1.0, d, q)
    prefactor = 4.0 * (4.0 * math.pi) ** (D / 2.0) * 2.0 ** (2.0 * dq) / unit_sphere_area(D)
    rho_tilde = geom.rho0 * (prefactor * y_t / denom) ** (1.0 / expo)
    mu = 0.5 * geom.mass * geom.omega_T**2 * rho_tilde**2
    g = coupling_constant(a, geom.mass)
    y_units = mu / ((n_atoms - 1.0) * g)
    if geom.hard_wall:
        r_tilde = geom.r0
    else:
        r_tilde = geom.r0 * ((geom.r0 / (2.0 * geom.rho0)) * (rho_tilde / geom.rho0)) ** (2.0 / q)
    return rho_tilde, r_tilde, mu, y_units


def k_integral(l: float, n_atoms: float, geom: TrapGeometry, a: float) -> float:
    """Integral of the full-regime TF density to the l-th power (m^(-3(l-1))).

    K_1 = 1 fixes the transverse radius; K_2 is the inverse occupied volume eta_N.
    """
    if n_atoms <= 1:
        raise ValueError("need more than one atom for a mean-field profile")
    d, q, D = geom.d, geom.q, geom.transverse_dimensions
    _, _, _, y_units = _full_pieces(geom, a, n_atoms)
    dq = 0.0 if geom.hard_wall else d / q
    ratio = (j_integral(l + dq, D, 2.0) * j_integral(l, d, q)) / \
            (j_integral(1.0 + dq, D, 2.0) * j_integral(1.0, d, q))
    return ratio * y_units ** (l - 1.0)


@dataclass(frozen=True)
class TFProfile:
    """Thomas-Fermi description of the condensate in one of the two TF regimes.

    mu is the longitudinal chemical potential in the intermediate regime and the
    full chemical potential in the full regime.  eta_L and eta_T only exist when
    the wave function factorizes (intermediate regime).
    """

    regime: Regime
    mu: float
    r_tilde: float
    rho_tilde: float | None
    eta_L: float | None
    eta_T: float | None
    eta_N: float


def tf_profile(geom: TrapGeometry, species: Species, n_atoms: float,
               regime: Regime | None = None) -> TFProfile:
    """TF profile of the single-mode condensate (all atoms in state 1, a = a11).

    If regime is given, it is honored but checked against the critical numbers;
    a mismatch only warns, since the closed forms remain evaluable.
    """
    if n_atoms <= 1:
        raise ValueError("need more than one atom for a mean-field profile")
    if regime == Regime.BARE:
        raise ValueError("TF profiles exist for the intermediate and full regimes only")
    a = species.a11
    crit = critical_numbers(geom, a)
    if n_atoms <= crit.n_lower:
        actual = Regime.BARE
    elif crit.n_upper is None or n_atoms <= crit.n_upper:
        actual = Regime.INTERMEDIATE
    else:
        actual = Regime.FULL_TF
    if regime is None:
        regime = Regime.INTERMEDIATE if actual == Regime.BARE else actual
    if actual != regime:
        warnings.warn(f"atom number {n_atoms:g} classifies as {actual.value}, "
                      f"not the requested {regime.value}; TF validity is marginal",
                      stacklevel=2)
    if regime == Regime.INTERMEDIATE:
        r_tilde, mu, peak = _intermediate_pieces(geom, a, n_atoms)
        j1 = j_integral(1.0, geom.d, geom.q)
        eta_l = (j_integral(2.0, geom.d, geom.q) / j1) * peak
        eta_t = eta_transverse(geom)
        return TFProfile(regime=Regime.INTERMEDIATE, mu=mu, r_tilde=r_tilde,
                         rho_tilde=None, eta_L=eta_l, eta_T=eta_t,
                         eta_N=eta_t * eta_l)
    rho_tilde, r_tilde, mu, _ = _full_pieces(geom, a, n_atoms)
    eta_n = k_integral(2.0, n_atoms, geom, a)
    return TFProfile(regime=Regime.FULL_TF, mu=mu, r_tilde=r_tilde,
                     rho_tilde=rho_tilde, eta_L=None, eta_T=None, eta_N=eta_n)


def omega_tau_product(d: int, q: float) -> float:
    """The invariant Omega_N * tau_pd = sqrt(2(d+3q)/d); depends on (d, q) only."""
    if math.isinf(q):
        return math.inf
    return math.sqrt(2.0 * (d + 3.0 * q) / d)


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


def fringe_probabilities(sup: Superposition, overlap: complex) -> tuple[float, float]:
    """Populations of the two modes after the closing half-rotation.

    p_{1,2} = (1 -/+ 2 c1 c2 Im(overlap))/2; they sum to one whenever the two
    spatial wave functions are unit-normalized.
    """
    if abs(overlap) > 1.0 + 1e-9:
        raise ValueError("overlap magnitude exceeds 1")
    fringe = 2.0 * sup.c1 * sup.c2 * overlap.imag
    return 0.5 * (1.0 - fringe), 0.5 * (1.0 + fringe)
