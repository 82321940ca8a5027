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

import numpy as np


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


def ramsey_mean(t: float, n0: int, gamma: float) -> float:
    """<J_z> of the product-state interferometer: (N0/2) cos(gamma t)."""
    return 0.5 * n0 * math.cos(gamma * t)


def ramsey_variance(t: float, n0: int, gamma: float) -> float:
    """Var J_z of the product-state interferometer: (N0/4) sin^2(gamma t)."""
    return 0.25 * n0 * math.sin(gamma * t) ** 2


def ramsey_slope(t: float, n0: int, gamma: float) -> float:
    """d<J_z>/dgamma of the product-state interferometer: -(N0 t/2) sin(gamma t)."""
    return -0.5 * n0 * t * math.sin(gamma * t)


def _ramsey_sample(rng: np.random.Generator, t: float, n0: int, gamma: float,
                   out: np.ndarray) -> None:
    """Write out.size exact ideal outcomes m' = Binomial(N0, cos^2(gamma t/2)) - N0/2
    of n0 atoms, drawn from rng, into the float array out."""
    p_up = math.cos(gamma * t / 2.0) ** 2
    np.subtract(rng.binomial(n0, p_up, size=out.shape), 0.5 * n0, out=out)


def corrected_uncertainty(t: float, n_atoms: int, noise: CountingNoise,
                          gamma: float) -> float:
    """Parameter uncertainty delta-gamma of n_atoms atoms under counting noise,
    after a Ramsey time t.

    delta-gamma^2 = (sigma^2/2 + Var J_z) / |d<J_z>/dgamma|^2: the counting
    noise adds its difference variance to the quantum one.
    """
    variance = noise.difference_variance + ramsey_variance(t, n_atoms, gamma)
    return math.sqrt(variance) / abs(_signal_slope(t, n_atoms, gamma))


def _signal_slope(t: float, n_atoms: int, gamma: float) -> float:
    """d<J_z>/dgamma at n_atoms; ValueError where it vanishes."""
    if t <= 0:
        raise ValueError("time must be positive")
    slope = ramsey_slope(t, n_atoms, gamma)
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


def _chunk_moments(t: float, n_atoms: int, gamma: float, mean: float, slope: float,
                   scales: list[float], rng: np.random.Generator,
                   buffers: np.ndarray) -> list[tuple[int, float, float]]:
    """(count, mean, sum of squared deviations) of one chunk's errors
    gamma_est - gamma, one triple per noise scale.

    buffers is the worker's (3, size) float array: m', z and scratch.  All
    noises share one draw of m' and, if any scale is positive, one of z; a
    noise of scale s has error (m' + s z - mean) / slope.  So the chunk
    centres m' and z once and sums their squares and product, and each noise
    takes its moments from those in O(1): mean (m'_bar + s z_bar - mean) /
    slope and M2 (S_mm + 2 s S_mz + s^2 S_zz) / slope^2.  When no scale is
    positive, z is not drawn and its mean and sums are taken as 0, so its
    buffer is never read.  For s = 0 the z terms are exact zeros.  The
    sums are ufunc reductions, not BLAS calls, and only numpy and underscore
    names run here, so it is safe on a worker thread.
    """
    m, z, scratch = buffers
    _ramsey_sample(rng, t, n_atoms, gamma, m)
    m_bar = float(m.mean())
    m -= m_bar
    s_mm = float(np.square(m, out=scratch).sum())
    z_bar = s_zz = s_mz = 0.0
    if any(scales):
        rng.standard_normal(out=z)
        z_bar = float(z.mean())
        z -= z_bar
        s_zz = float(np.square(z, out=scratch).sum())
        s_mz = float(np.multiply(m, z, out=scratch).sum())
    return [(m.size, (m_bar + scale * z_bar - mean) / slope,
             (s_mm + 2.0 * scale * s_mz + scale * scale * s_zz) / (slope * slope))
            for scale in scales]


def _combine(moments: list[tuple[int, float, float]]) -> MonteCarloResult:
    """One noise's result from its chunks' moments, in chunk order, by Chan,
    Golub & LeVeque's pairwise update of (count, mean, M2)."""
    count, bias, m2 = 0, 0.0, 0.0
    for n_b, mean_b, m2_b in moments:
        total = count + n_b
        delta = mean_b - bias
        bias += delta * n_b / total
        m2 += m2_b + delta * delta * count * n_b / total
        count = total
    delta_gamma = math.sqrt(m2 / (count - 1))
    return MonteCarloResult(delta_gamma=delta_gamma,
                            stderr=delta_gamma / math.sqrt(2.0 * (count - 1)),
                            trials=count, bias=bias)


def simulate_counts(t: float, n_atoms: int, noises: list[CountingNoise], gamma: float,
                    trials: int, seed: int) -> list[MonteCarloResult]:
    """Monte Carlo of the counting pipeline with a local signal-inversion
    estimator, one result per noise, in the order of noises.

    Each trial draws an ideal difference m' of n_atoms atoms after a Ramsey
    time t from the exact binomial sampler and adds each noise's counting
    noise to it.  gamma is estimated by linearized inversion of the mean
    signal at n_atoms; the spread of the estimates is the empirical
    delta-gamma.  n_atoms is known, so the total count is not drawn.

    Every noise uses the same draws (common random numbers): one m' per
    trial and, if any sigma > 0, one standard normal z, scaled by each
    noise's sqrt(sigma^2/2).  So the results are correlated, and each equals
    the one-noise call with the same seed, bit for bit.

    The trials run in chunks of 20 000, chunk i drawing from the i-th stream
    spawned by np.random.SeedSequence(seed).  The chunks run concurrently on as
    many threads as the process has CPUs (at most one per chunk), and their
    moments are combined in chunk order, so the results depend only on the
    arguments, never on the CPU count.  An empty noise list or a vanishing
    signal slope raises ValueError before any draw, as in
    corrected_uncertainty.

    numpy.random loads here, on the calling thread after the argument checks
    and before any worker starts, so that no command that skips the Monte
    Carlo pays for it.
    """
    if trials < 2:
        raise ValueError("need at least two trials to estimate a spread")
    if not noises:
        raise ValueError("need at least one counting noise")
    slope = _signal_slope(t, n_atoms, gamma)  # the estimator divides by it
    mean = ramsey_mean(t, n_atoms, gamma)
    scales = [math.sqrt(noise.difference_variance) for noise in noises]
    import numpy.random  # noqa: F401  (before any worker thread can touch np.random)
    n_chunks = -(-trials // _CHUNK)
    streams = np.random.SeedSequence(seed).spawn(n_chunks)
    workers = min(n_chunks, _available_cpus())
    moments: list[list[tuple[int, float, float]] | None] = [None] * n_chunks
    errors: list[BaseException] = []
    failed = threading.Event()

    def work(first: int) -> None:
        # chunks first, first + workers, ...; the buffers live as long as the worker
        try:
            buffers = np.empty((3, min(_CHUNK, trials)))
            for i in range(first, n_chunks, workers):
                if failed.is_set():
                    return
                size = min(_CHUNK, trials - i * _CHUNK)
                moments[i] = _chunk_moments(t, n_atoms, gamma, mean, slope, scales,
                                            np.random.default_rng(streams[i]),
                                            buffers[:, :size])
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
    return [_combine([chunk[k] for chunk in moments]) for k in range(len(noises))]
