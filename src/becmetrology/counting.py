"""Atom-counting noise: posterior number refinement and corrected sensitivity.

The detector miscounts each level with independent Gaussian errors of standard
deviation sigma, so the total count N and the normalized difference
m = (N1 - N2)/2 are independent Gaussian variables with variances 2 sigma^2
and sigma^2/2.  The total count refines the knowledge of how many atoms
participated; the difference carries the parameter signal, with its variance
inflated by sigma^2/2.  posterior_n0 and corrected_uncertainty give the
sensitivity in closed form for any prior over the atom number; simulate_counts
cross-checks it by Monte Carlo at a known atom number.
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
    def total_variance(self) -> float:
        return 2.0 * self.sigma**2

    @property
    def difference_variance(self) -> float:
        return 0.5 * self.sigma**2


@dataclass(frozen=True)
class NumberPrior:
    """Discrete distribution over the participating atom number."""

    support: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self):
        support = np.asarray(self.support, dtype=int)
        probs = np.asarray(self.probabilities, dtype=float)
        if support.shape != probs.shape or support.size == 0:
            raise ValueError("support and probabilities must be equal-length and nonempty")
        if np.any(probs < 0):
            raise ValueError("probabilities must be nonnegative")
        total = probs.sum()
        if not math.isfinite(total) or total <= 0:
            raise ValueError("probabilities must have positive mass")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probabilities", probs / total)

    @classmethod
    def flat(cls, n_center: int, fraction: float = 0.1) -> "NumberPrior":
        """Uniform prior over [N(1-fraction), N(1+fraction)]."""
        half = int(round(n_center * fraction))
        lo = max(1, n_center - half)
        support = np.arange(lo, n_center + half + 1)
        return cls(support, np.ones(support.size))

    @classmethod
    def point(cls, n: int) -> "NumberPrior":
        return cls(np.array([n]), np.array([1.0]))


def posterior_n0(prior: NumberPrior, measured_n: float,
                 noise: CountingNoise) -> NumberPrior:
    """Posterior over the participating number given the measured total count.

    The total-count likelihood is Gaussian with variance 2 sigma^2; sigma = 0
    collapses to a point mass at the measured value (which must be in the
    support).
    """
    if noise.sigma == 0.0:
        n = int(round(measured_n))
        if n not in prior.support:
            raise ValueError(f"measured count {n} lies outside the prior support")
        probs = (prior.support == n).astype(float) * prior.probabilities
        return NumberPrior(prior.support, probs)
    log_like = -((measured_n - prior.support) ** 2) / (2.0 * noise.total_variance)
    weights = prior.probabilities * np.exp(log_like - log_like.max())
    if weights.sum() == 0.0:
        raise ValueError("posterior support is empty after truncation")
    return NumberPrior(prior.support, weights)


@dataclass(frozen=True)
class QuantumSignalModel:
    """Quantum moments of the difference signal as functions of (N0, gamma).

    sample_fn(rng, n0, gamma, out) draws out.size exact ideal-measurement
    outcomes m' of n0 atoms from rng into the float array out, for Monte Carlo
    runs.
    """

    mean_fn: Callable[[np.ndarray, float], np.ndarray]
    var_fn: Callable[[np.ndarray, float], np.ndarray]
    derivative_fn: Callable[[np.ndarray, float], np.ndarray]
    sample_fn: Callable[[np.random.Generator, int, float, np.ndarray], None]


def ramsey_model(t: float) -> QuantumSignalModel:
    """Population-difference statistics of the product-state interferometer.

    m is binomial: mean (N0/2) cos(gamma t), variance (N0/4) sin^2(gamma t).
    Its sample_fn writes Binomial(N0, cos^2(gamma t/2)) - N0/2 into out.
    """
    if t <= 0:
        raise ValueError("time must be positive")

    def mean(n0, gamma):
        return 0.5 * np.asarray(n0, dtype=float) * math.cos(gamma * t)

    def var(n0, gamma):
        return 0.25 * np.asarray(n0, dtype=float) * math.sin(gamma * t) ** 2

    def deriv(n0, gamma):
        return -0.5 * np.asarray(n0, dtype=float) * t * math.sin(gamma * t)

    def sample(rng, n0, gamma, out):
        p_up = math.cos(gamma * t / 2.0) ** 2
        np.subtract(rng.binomial(n0, p_up, size=out.shape), 0.5 * n0, out=out)

    return QuantumSignalModel(mean_fn=mean, var_fn=var, derivative_fn=deriv,
                              sample_fn=sample)


def corrected_moments(model: QuantumSignalModel, posterior: NumberPrior,
                      noise: CountingNoise, gamma: float) -> tuple[float, float]:
    """Mean and variance of the measured difference m under counting noise.

    mean = sum_N0 <J_z> p(N0|N);
    var  = sigma^2/2 + sum_N0 (<J_z>^2 + Var J_z) p(N0|N) - mean^2.
    """
    n0 = posterior.support
    p = posterior.probabilities
    means = model.mean_fn(n0, gamma)
    variances = model.var_fn(n0, gamma)
    mean = float(np.dot(means, p))
    second = noise.difference_variance + float(np.dot(means**2 + variances, p))
    return mean, second - mean**2


def corrected_uncertainty(model: QuantumSignalModel, posterior: NumberPrior,
                          noise: CountingNoise, gamma: float) -> float:
    """Parameter uncertainty delta-gamma from the noise-corrected signal moments.

    delta-gamma^2 = (sigma^2/2 + Var J_z) / |d<J_z>/dgamma|^2, with the
    moments averaged over the posterior exactly.
    """
    _, mean_var = corrected_moments(model, posterior, noise, gamma)
    return math.sqrt(mean_var) / abs(_signal_slope(model, posterior, gamma))


def _signal_slope(model: QuantumSignalModel, prior: NumberPrior, gamma: float) -> float:
    """d<J_z>/dgamma averaged over prior; ValueError where it vanishes."""
    slope = float(np.dot(model.derivative_fn(prior.support, gamma), prior.probabilities))
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
    as under NumberPrior.point, whose posterior is that one number whatever
    the total count, so the total count is not drawn.

    The trials run in chunks of 20 000, chunk i drawing from the i-th stream
    spawned by np.random.SeedSequence(seed).  The chunks run concurrently on as
    many threads as the process has CPUs (at most one per chunk), and their
    moments are combined in chunk order, so the result depends only on the
    arguments, never on the CPU count.  A vanishing signal slope raises
    ValueError before any draw, as in corrected_uncertainty.
    """
    if trials < 2:
        raise ValueError("need at least two trials to estimate a spread")
    _signal_slope(model, NumberPrior.point(n_atoms), gamma)  # the estimator divides by it
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
