"""Brute-force 2^N product-basis simulator used as the test oracle (N <= 12),
plus the dense Dicke-basis references the library does not need.

Index convention: basis index b has bit j set when qubit j is in |1>; |0>
carries collective-spin projection +1/2, so m_total(b) = N/2 - popcount(b).
The Dicke amplitude with i atoms in |0> (m = i - N/2) collects the
C(N, i) bitstrings with popcount N - i.
"""

import math

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import binom


def popcounts(n_qubits: int) -> np.ndarray:
    idx = np.arange(2**n_qubits)
    bits = (idx[:, None] >> np.arange(n_qubits)[None, :]) & 1
    return bits.sum(axis=1)


def m_totals(n_qubits: int) -> np.ndarray:
    return n_qubits / 2.0 - popcounts(n_qubits)


def product_state(n_qubits: int, c1: complex, c2: complex) -> np.ndarray:
    pop = popcounts(n_qubits)
    return (c1 ** (n_qubits - pop)) * (c2**pop) + 0j


def dense_from_dicke(amplitudes: np.ndarray) -> np.ndarray:
    n = len(amplitudes) - 1
    pop = popcounts(n)
    i_dicke = n - pop
    weights = np.sqrt(binom(n, i_dicke))
    return amplitudes[i_dicke] / weights


def dicke_from_dense(state: np.ndarray) -> np.ndarray:
    n = int(round(np.log2(state.size)))
    pop = popcounts(n)
    amp = np.zeros(n + 1, dtype=complex)
    for i in range(n + 1):
        mask = pop == n - i
        amp[i] = state[mask].sum() / np.sqrt(binom(n, i))
    return amp


def apply_pauli(state: np.ndarray, qubit: int, which: str) -> np.ndarray:
    n = int(round(np.log2(state.size)))
    idx = np.arange(state.size)
    flipped = idx ^ (1 << qubit)
    bit = (idx >> qubit) & 1
    if which == "z":
        return np.where(bit == 0, state, -state)
    if which == "x":
        return state[flipped]
    if which == "y":
        # <1|sy|0> = i, <0|sy|1> = -i
        return np.where(bit == 1, 1j, -1j) * state[flipped]
    raise ValueError(which)


def apply_collective(state: np.ndarray, which: str) -> np.ndarray:
    n = int(round(np.log2(state.size)))
    out = np.zeros_like(state)
    for j in range(n):
        out += apply_pauli(state, j, which)
    return 0.5 * out


def collective_expectation(state: np.ndarray, which: str):
    av = apply_collective(state, which)
    mean = np.vdot(state, av).real
    var = np.vdot(av, av).real - mean**2
    return mean, var


def apply_single_qubit_gate(state: np.ndarray, qubit: int, u: np.ndarray) -> np.ndarray:
    n = int(round(np.log2(state.size)))
    # bit `qubit` has stride 2**qubit; axis order (high bits, this bit, low bits)
    view = state.reshape(2 ** (n - qubit - 1), 2, 2**qubit)
    return np.einsum("ab,ibj->iaj", u, view).reshape(state.size)


def rotation_gate(which: str, angle: float) -> np.ndarray:
    paulis = {"x": np.array([[0, 1], [1, 0]], dtype=complex),
              "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
              "z": np.array([[1, 0], [0, -1]], dtype=complex)}
    s = paulis[which]
    return np.cos(angle / 2.0) * np.eye(2) - 1j * np.sin(angle / 2.0) * s


def rotate(state: np.ndarray, which: str, angle: float) -> np.ndarray:
    n = int(round(np.log2(state.size)))
    u = rotation_gate(which, angle)
    out = state
    for j in range(n):
        out = apply_single_qubit_gate(out, j, u)
    return out


def evolve_diagonal(state: np.ndarray, kind: str, gamma: float, t: float) -> np.ndarray:
    n = int(round(np.log2(state.size)))
    m = m_totals(n)
    if kind == "linear_Jz":
        h = m
    elif kind == "quadratic_Jz2":
        h = m**2
    elif kind == "enhanced_NJz":
        h = n * m
    else:
        raise ValueError(kind)
    return np.exp(-1j * gamma * t * h) * state


def single_qubit_purity(state: np.ndarray) -> float:
    # qubit 0 has stride 1, so the (rest, 2) view holds its amplitudes per column
    view = state.reshape(-1, 2)
    rho = np.einsum("ia,ib->ab", view, view.conj())
    return float(np.trace(rho @ rho).real)


# --- dense Dicke-basis references (N + 1 amplitudes, any N) ----------------

def rotate_dicke(amplitudes: np.ndarray, axis: str, angle: float) -> np.ndarray:
    """exp(-i angle J_axis) on Dicke amplitudes (m = -N/2 ... N/2), Schroedinger
    picture, through a dense eigensystem of J_x: O(N^2) memory and time."""
    n = len(amplitudes) - 1
    m = np.arange(n + 1) - n / 2.0
    if axis == "z":
        return np.exp(-1j * angle * m) * amplitudes
    if axis not in ("x", "y"):
        raise ValueError(axis)
    # J_y = R J_x R^dagger with R the quarter turn about z
    quarter = np.exp(-1j * (math.pi / 2.0) * m) if axis == "y" else np.ones(n + 1)
    ladder = np.sqrt((n / 2.0 - m[:-1]) * (n / 2.0 + m[:-1] + 1.0))  # <m+1|J_+|m>
    w, v = eigh_tridiagonal(np.zeros(n + 1), 0.5 * ladder)
    return quarter * (v @ (np.exp(-1j * angle * w) * (v.T @ (np.conj(quarter) * amplitudes))))


def qfi_pure(amplitudes: np.ndarray, kind: str, t: float) -> float:
    """Quantum Fisher information 4 <Delta^2 K> of a pure Dicke state, K = t h."""
    n = len(amplitudes) - 1
    m = np.arange(n + 1) - n / 2.0
    h = {"linear_Jz": m, "quadratic_Jz2": m**2, "enhanced_NJz": n * m}[kind]
    p = np.abs(amplitudes) ** 2
    return 4.0 * t**2 * float(np.dot(p, (h - np.dot(p, h)) ** 2))


def classical_fisher(outcome_dist, gamma: float, step: float,
                     p_floor: float = 1e-12) -> tuple[float, float]:
    """Central-difference Fisher information of a gamma-dependent outcome
    distribution, and the probability mass below p_floor left out of the sum
    (the p -> 0 terms are ill-conditioned)."""
    p0, pp, pm = (np.asarray(outcome_dist(g), dtype=float)
                  for g in (gamma, gamma + step, gamma - step))
    dp = (pp - pm) / (2.0 * step)
    kept = p0 > p_floor
    return float(np.sum(dp[kept] ** 2 / p0[kept])), float(p0[~kept].sum())
