"""Atom-counting noise and the sensitivity it leaves.

The detector miscounts each level with independent Gaussian errors of standard
deviation sigma, so the normalized difference m = (N1 - N2)/2, which carries
the parameter signal, has its variance inflated by sigma^2/2.  The atom
number N0 is known.  corrected_uncertainty gives the sensitivity in closed
form; simulate_counts cross-checks it by Monte Carlo.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np
import numpy.random  # noqa: F401  (numpy loads it on first use, inside the Monte Carlo)


@dataclass(frozen=True)
class CountingNoise:
    """Per-level Gaussian counting error (standard deviation in counts)."""

    sigma: float

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")

    @property
    def difference_variance(self) -> float:
        return 0.5 * self.sigma**2


@dataclass(frozen=True)
class QuantumSignalModel:
    """Quantum moments of the difference signal as functions of (N0, gamma),
    for a scalar atom number N0.

    sample_fn(rng, n0, gamma, out) draws out.size exact ideal-measurement
    outcomes m' of n0 atoms from rng into the float array out, for Monte Carlo
    runs.
    """

    mean_fn: Callable[[int, float], float]
    var_fn: Callable[[int, float], float]
    derivative_fn: Callable[[int, float], float]
    sample_fn: Callable[[np.random.Generator, int, float, np.ndarray], None]


def ramsey_model(t: float) -> QuantumSignalModel:
    """Population-difference statistics of the product-state interferometer.

    m is binomial: mean (N0/2) cos(gamma t), variance (N0/4) sin^2(gamma t).
    Its sample_fn writes Binomial(N0, cos^2(gamma t/2)) - N0/2 into out.
    """
    if t <= 0:
        raise ValueError("time must be positive")

    def mean(n0, gamma):
        return 0.5 * n0 * math.cos(gamma * t)

    def var(n0, gamma):
        return 0.25 * n0 * math.sin(gamma * t) ** 2

    def deriv(n0, gamma):
        return -0.5 * n0 * t * math.sin(gamma * t)

    def sample(rng, n0, gamma, out):
        p_up = math.cos(gamma * t / 2.0) ** 2
        np.subtract(rng.binomial(n0, p_up, size=out.shape), 0.5 * n0, out=out)

    return QuantumSignalModel(mean_fn=mean, var_fn=var, derivative_fn=deriv,
                              sample_fn=sample)


def corrected_uncertainty(model: QuantumSignalModel, n_atoms: int,
                          noise: CountingNoise, gamma: float) -> float:
    """Parameter uncertainty delta-gamma of n_atoms atoms under counting noise.

    delta-gamma^2 = (sigma^2/2 + Var J_z) / |d<J_z>/dgamma|^2: the counting
    noise adds its difference variance to the quantum one.
    """
    variance = noise.difference_variance + model.var_fn(n_atoms, gamma)
    return math.sqrt(variance) / abs(_signal_slope(model, n_atoms, gamma))


def _signal_slope(model: QuantumSignalModel, n_atoms: int, gamma: float) -> float:
    """d<J_z>/dgamma at n_atoms; ValueError where it vanishes."""
    slope = model.derivative_fn(n_atoms, gamma)
    if slope == 0.0:
        raise ValueError("signal slope vanishes: sensitivity undefined at this gamma")
    return slope


_CHUNK = 20_000  # Monte Carlo trials per random stream


@dataclass(frozen=True)
class MonteCarloResult:
    delta_gamma: float
    stderr: float
    trials: int
    bias: float


def _available_cpus() -> int:
    """Number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _chunk_moments(model: QuantumSignalModel, n_atoms: int, noise: CountingNoise,
                   gamma: float, rng: np.random.Generator, err: np.ndarray,
                   z: np.ndarray) -> tuple[int, float, float]:
    """(count, mean, sum of squared deviations) of one chunk's errors gamma_est - gamma.

    err and z are the worker's float buffers, cut to the chunk size.  Only
    numpy and the model's callables run here, so it is safe on a worker thread.
    """
    model.sample_fn(rng, n_atoms, gamma, err)
    if noise.sigma > 0.0:
        rng.standard_normal(out=z)
        z *= math.sqrt(noise.difference_variance)
        err += z
    err -= model.mean_fn(n_atoms, gamma)
    err /= model.derivative_fn(n_atoms, gamma)
    mean = float(err.mean())
    err -= mean
    err *= err
    return err.size, mean, float(err.sum())


def simulate_counts(model: QuantumSignalModel, n_atoms: int, noise: CountingNoise,
                    gamma: float, trials: int, seed: int) -> MonteCarloResult:
    """Monte Carlo of the counting pipeline with a local signal-inversion estimator.

    Each trial draws an ideal difference m' of n_atoms atoms from the model's
    exact sampler and adds the difference's counting noise.  gamma is
    estimated by linearized inversion of the mean signal at n_atoms; the
    spread of the estimates is the empirical delta-gamma.  n_atoms is known,
    so the total count is not drawn.

    The trials run in chunks of 20 000, chunk i drawing from the i-th stream
    spawned by np.random.SeedSequence(seed).  The chunks run concurrently on as
    many threads as the process has CPUs (at most one per chunk), and their
    moments are combined in chunk order, so the result depends only on the
    arguments, never on the CPU count.  A vanishing signal slope raises
    ValueError before any draw, as in corrected_uncertainty.
    """
    if trials < 2:
        raise ValueError("need at least two trials to estimate a spread")
    _signal_slope(model, n_atoms, gamma)  # the estimator divides by it
    n_chunks = -(-trials // _CHUNK)
    streams = np.random.SeedSequence(seed).spawn(n_chunks)
    workers = min(n_chunks, _available_cpus())
    moments: list[tuple[int, float, float] | None] = [None] * n_chunks
    errors: list[BaseException] = []
    failed = threading.Event()

    def work(first: int) -> None:
        # chunks first, first + workers, ...; the buffers live as long as the worker
        try:
            buffers = np.empty((2, min(_CHUNK, trials)))
            for i in range(first, n_chunks, workers):
                if failed.is_set():
                    return
                size = min(_CHUNK, trials - i * _CHUNK)
                moments[i] = _chunk_moments(model, n_atoms, noise, gamma,
                                            np.random.default_rng(streams[i]),
                                            buffers[0, :size], buffers[1, :size])
        except BaseException as exc:  # re-raised on the calling thread below
            failed.set()
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(w,)) for w in range(1, workers)]
    for thread in threads:
        thread.start()
    work(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    # Chan, Golub & LeVeque's pairwise update of (count, mean, M2)
    count, bias, m2 = 0, 0.0, 0.0
    for n_b, mean_b, m2_b in moments:
        total = count + n_b
        delta = mean_b - bias
        bias += delta * n_b / total
        m2 += m2_b + delta * delta * count * n_b / total
        count = total
    delta_gamma = math.sqrt(m2 / (trials - 1))
    return MonteCarloResult(delta_gamma=delta_gamma,
                            stderr=delta_gamma / math.sqrt(2.0 * (trials - 1)),
                            trials=trials, bias=bias)
