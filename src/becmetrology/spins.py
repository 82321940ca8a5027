"""Exact collective-spin simulation and quantum parameter-estimation bounds.

N symmetric qubits live in the (N+1)-dimensional ladder of collective J_z
eigenvalues m = -N/2 ... N/2, which makes exact simulation cheap out to very
large N.  Everything here works directly on that amplitude vector: state
preparation, diagonal evolutions, moments, the generator spread (a pure
state's quantum Fisher information is 4 <Delta^2 K>), and the Cramer-Rao bound
of a k-body coupling, whose k = 1 case is the Heisenberg limit.

The simulated protocols read out in the Heisenberg picture: a closing
rotation is folded into the measured observable (J_z after R_y(-pi/2) is
J_x before it), so every protocol costs O(N) time and memory and N = 10^6
runs in about a second.  Nothing here builds a dense basis.

Couplings are expressed as angular rates (the energy divided by hbar), so a
coupling gamma evolved for time t advances phases by gamma*t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .physconfig import Superposition

HamiltonianKind = Literal["linear_Jz", "quadratic_Jz2", "enhanced_NJz"]


@dataclass(frozen=True)
class DickeState:
    """Symmetric N-qubit state: complex amplitudes over m = -N/2 ... N/2."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.ndim != 1 or amp.size < 2:
            raise ValueError("need a 1-D vector of N+1 amplitudes for at least one atom")
        if not abs(np.vdot(amp, amp).real - 1.0) <= 1e-10:  # also rejects nan
            raise ValueError("state is not normalized")
        object.__setattr__(self, "amplitudes", amp)

    @property
    def n_atoms(self) -> int:
        return self.amplitudes.size - 1


@dataclass(frozen=True)
class SpectrumBound:
    """Eigenvalue extremes of the per-qubit coupling and the coupling order."""

    Lambda: float
    lam: float
    k_body: int = 1

    def __post_init__(self):
        if not -math.inf < self.lam <= self.Lambda < math.inf:  # also rejects nan
            raise ValueError("Lambda and lam must be finite, with Lambda >= lam")
        if not isinstance(self.k_body, (int, np.integer)) or self.k_body < 1:
            raise ValueError("k_body must be a positive integer")


def _ladder(n_atoms: int) -> np.ndarray:
    """The J_z eigenvalues m = -N/2 ... N/2, in ladder order."""
    return np.arange(n_atoms + 1) - n_atoms / 2.0


def generator_eigenvalues(kind: HamiltonianKind, n_atoms: int) -> np.ndarray:
    """Diagonal of the coupling h in the Dicke basis (units of the per-qubit scale)."""
    m = _ladder(n_atoms)
    if kind == "linear_Jz":
        return m
    if kind == "quadratic_Jz2":
        return m**2
    if kind == "enhanced_NJz":
        return n_atoms * m
    raise ValueError(f"unknown Hamiltonian kind {kind!r}")


def prepare_product(n_atoms: int, sup: Superposition) -> DickeState:
    """Product state (c1|0> + c2|1>)^N expanded over the collective ladder.

    Binomial amplitudes are assembled in log space so this stays finite for
    N far beyond the overflow point of the raw binomial coefficients.  Summing
    neighbour log-ratios outward from the binomial peak keeps the rounding
    small where the weight is (differenced gammaln values lose ~1e-9 at N = 10^6).
    """
    if n_atoms < 1:
        raise ValueError("need at least one atom")
    n_up = np.arange(n_atoms + 1)  # atoms in |0>, carrying c1
    with np.errstate(divide="ignore"):
        log_ratio = np.log(abs(sup.c1)) - np.log(abs(sup.c2))  # +-inf if one is 0
    steps = 0.5 * (np.log(n_atoms - n_up[:-1]) - np.log(n_up[1:])) + log_ratio
    peak = min(int((n_atoms + 1) * sup.c1**2), n_atoms)
    log_amp = np.zeros(n_atoms + 1)
    log_amp[peak + 1:] = np.cumsum(steps[peak:])
    log_amp[:peak] = -np.cumsum(steps[:peak][::-1])[::-1]
    amp = np.exp(log_amp)
    amp *= np.sign(sup.c1) ** n_up * np.sign(sup.c2) ** (n_atoms - n_up)
    amp = amp.astype(complex)
    amp /= np.linalg.norm(amp)
    return DickeState(amp)


def cat_state(n_atoms: int) -> DickeState:
    """Equal superposition of the two extremal ladder states (all-up + all-down)."""
    if n_atoms < 1:
        raise ValueError("need at least one atom")
    amp = np.zeros(n_atoms + 1, dtype=complex)
    amp[0] = amp[-1] = 1.0 / math.sqrt(2.0)
    return DickeState(amp)


def _raising_coefficients(n_atoms: int) -> np.ndarray:
    """<m+1|J_+|m> for m = -N/2 ... N/2 - 1: J_+ takes index i to i+1."""
    j, m = n_atoms / 2.0, _ladder(n_atoms)[:-1]
    return np.sqrt((j - m) * (j + m + 1.0))


def _apply_component(values: np.ndarray, component: str) -> np.ndarray:
    """J_x or J_y applied to an amplitude vector; J_z is the linear generator's diagonal."""
    if component not in ("x", "y"):
        raise ValueError(f"unknown spin component {component!r}")
    c = _raising_coefficients(values.size - 1)
    up, dn = np.zeros_like(values), np.zeros_like(values)  # J_+ psi, J_- psi
    up[1:] = c * values[:-1]
    dn[:-1] = c * values[1:]
    return 0.5 * (up + dn) if component == "x" else (up - dn) / 2.0j


def _moments(values: np.ndarray, applied: np.ndarray) -> tuple[float, float]:
    """Mean and two-pass variance ||(A - <A>) psi||^2 from psi and A psi."""
    mean = np.vdot(values, applied).real
    dev = applied - mean * values
    return mean, np.vdot(dev, dev).real


def evolve(state: DickeState, h: np.ndarray, gamma: float, t: float) -> DickeState:
    """Evolve under H = gamma*h for time t; h is the coupling's diagonal in the
    Dicke basis, as generator_eigenvalues gives it."""
    if not t >= 0:
        raise ValueError(f"time must be nonnegative, not {t}")
    if not (math.isfinite(gamma) and math.isfinite(t)):
        raise ValueError(f"gamma and t must be finite, not {gamma} and {t}")
    return DickeState(np.exp(-1j * gamma * t * h) * state.amplitudes)


def single_qubit_purity(state: DickeState) -> float:
    """Purity of the one-atom reduced state; 1 exactly iff the symmetric state is a product.

    The purity is (1 + |b|^2)/2 with the Bloch vector
    b = (2/N) (Re<J_+>, Im<J_+>, <J_z>), so one ladder product and one weighted
    sum of the populations give it.
    """
    n, psi = state.n_atoms, state.amplitudes
    j_plus = np.vdot(psi[1:], _raising_coefficients(n) * psi[:-1])
    j_z = np.dot(_ladder(n), np.abs(psi) ** 2)
    bloch = np.array([j_plus.real, j_plus.imag, j_z]) * (2.0 / n)
    return 0.5 * (1.0 + float(np.dot(bloch, bloch)))


# --- closed-form bounds ---------------------------------------------------

@dataclass(frozen=True)
class CramerRaoBound:
    crb: float
    product_state_reference: float
    norm: float


def cramer_rao(bound: SpectrumBound, n_atoms: int, t: float) -> CramerRaoBound:
    """Cramer-Rao bound 1/(t ||h||) for a k-body coupling (sum of per-qubit couplings)^k.

    The seminorm ||h|| of the generator is the spread of s^k over s in
    [N lam, N Lambda]; if the interval straddles zero and k is even the
    minimum is 0.  Also reports the product-state reference
    1/(t N^(k-1/2) (Lambda-lam)^k).  At k = 1 these are the Heisenberg limit
    1/(t N (Lambda-lam)) and the quantum noise limit 1/(t sqrt(N) (Lambda-lam)).
    """
    if t <= 0:
        raise ValueError("time must be positive")
    lo, hi = n_atoms * bound.lam, n_atoms * bound.Lambda
    candidates = [lo**bound.k_body, hi**bound.k_body]
    if lo < 0.0 < hi:
        candidates.append(0.0)
    norm = max(candidates) - min(candidates)
    if norm == 0.0:
        raise ValueError("degenerate spectrum: the generator is trivial and the "
                         "sensitivity is unbounded")
    width = bound.Lambda - bound.lam
    # t divides last: at a long t, t times the spread would overflow
    return CramerRaoBound(crb=1.0 / norm / t,
                          product_state_reference=1.0 / (n_atoms ** (bound.k_body - 0.5)
                                                         * width**bound.k_body) / t,
                          norm=norm)


# --- simulated protocols ---------------------------------------------------
#
# Each simulation propagates the state together with its exact derivative with
# respect to the coupling (the generators are diagonal, so the derivative is
# available in closed form).  A closing rotation is folded into the readout
# (Heisenberg picture); it would not change the one-atom purity either.

@dataclass(frozen=True)
class ProtocolResult:
    protocol: str
    n_atoms: int
    gamma: float
    t: float
    delta_gamma: float
    signal_mean: float
    signal_variance: float
    signal_slope: float
    purity: float
    generator_sd: float  # sqrt(<Delta^2 K>), K = t * h


def _simulate(protocol: str, state: DickeState, kind: HamiltonianKind, gamma: float,
              t: float, observable_apply) -> ProtocolResult:
    """Evolve a prepared state and read out observable_apply (psi -> A psi)."""
    h = generator_eigenvalues(kind, state.n_atoms)
    evolved = evolve(state, h, gamma, t)
    psi = evolved.amplitudes
    av = observable_apply(psi)
    mean, var = _moments(psi, av)
    # d psi/d gamma = -i t h psi: t multiplies last, so no t*h can overflow, and in
    # Python floats, so a subnormal rate makes delta_gamma inf without a warning
    rate = 2.0 * float(np.vdot(av, -1j * h * psi).real)
    slope = t * rate
    delta = math.sqrt(var) / abs(rate) / t if slope != 0.0 else math.inf
    weights = psi.real**2 + psi.imag**2  # h is diagonal: its spread is |psi|^2-weighted
    h_var = np.dot(weights, (h - np.dot(weights, h)) ** 2)
    return ProtocolResult(protocol=protocol, n_atoms=state.n_atoms, gamma=gamma, t=t,
                          delta_gamma=delta, signal_mean=mean, signal_variance=var,
                          signal_slope=slope, purity=single_qubit_purity(evolved),
                          generator_sd=t * math.sqrt(h_var))


def _extremal_coherence(values: np.ndarray) -> np.ndarray:
    """|J><-J| + |-J><J| applied to an amplitude vector."""
    out = np.zeros_like(values)
    out[0], out[-1] = values[-1], values[0]
    return out


def simulate_ramsey(n_atoms: int, gamma: float, t: float) -> ProtocolResult:
    """Full product-state interferometer: equal superposition, linear evolution,
    closing half-rotation, population-difference readout (J_x before R_y(-pi/2))."""
    return _simulate("ramsey", prepare_product(n_atoms, Superposition.equal()), "linear_Jz",
                     gamma, t, lambda v: _apply_component(v, "x"))


def simulate_cat(n_atoms: int, gamma: float, t: float) -> ProtocolResult:
    """Cat-state interferometer read out through the extremal-ladder coherence.

    The textbook readout kicks the phase onto one qubit, which has no symmetric
    representation; the collective observable |J><-J| + |-J><J| has identical
    statistics (signal cos(N phi), variance sin^2(N phi)).
    """
    return _simulate("cat", cat_state(n_atoms), "linear_Jz", gamma, t, _extremal_coherence)


def simulate_enhanced(n_atoms: int, gamma: float, t: float) -> ProtocolResult:
    """Product-state protocol driven by the N-amplified linear coupling."""
    return _simulate("enhanced", prepare_product(n_atoms, Superposition.equal()),
                     "enhanced_NJz", gamma, t, lambda v: _apply_component(v, "x"))


def simulate_quadratic(n_atoms: int, gamma: float, t: float) -> ProtocolResult:
    """Product-state protocol under the quadratic coupling with a J_y readout."""
    return product_nonlinear_protocol(n_atoms, gamma, (t,))[0]


def product_nonlinear_protocol(n_atoms: int, gamma: float,
                               t_grid: Sequence[float]) -> list[ProtocolResult]:
    """Sensitivity trace of the product-state quadratic protocol over a time grid.

    The short-time sensitivity approaches 2/(t sqrt(N) (N-1)), i.e.
    2/(t N^(3/2)) at large N; times where the signal slope vanishes are
    reported with infinite delta_gamma.  The product state is prepared once
    for the whole grid.
    """
    if n_atoms < 2:
        raise ValueError("a nonlinear protocol needs at least two atoms")
    state = prepare_product(n_atoms, Superposition.quadratic_optimal())
    return [_simulate("quadratic", state, "quadratic_Jz2", gamma, t,
                      lambda v: _apply_component(v, "y")) for t in t_grid]


def fit_loglog_slope(n_values: Sequence[float], delta_gammas: Sequence[float]) -> float:
    """Least-squares slope of log(delta_gamma) against log(N)."""
    x = np.log(np.asarray(n_values, dtype=float))
    y = np.log(np.asarray(delta_gammas, dtype=float))
    return float(np.polyfit(x, y, 1)[0])
