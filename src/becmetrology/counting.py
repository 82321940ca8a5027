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


def _chunk_sums(n_atoms: int, p_up: float, draw_z: bool, rng: np.random.Generator,
                buffers: np.ndarray) -> tuple[int, float, float, float, float, float]:
    """(size, m'_bar, z_bar, S_mm, S_mz, S_zz) of one chunk, in counts.

    buffers is the worker's (3, size) float array: m', z and scratch.  The
    chunk draws size ideal outcomes m' = Binomial(n_atoms, p_up) - n_atoms/2
    from rng and, if draw_z, as many standard normals z; it centres each and
    sums their squares and product.  Without draw_z, z's mean and sums are 0
    and its buffer is never read.  The sums are ufunc reductions, not BLAS
    calls; the chunk knows no Ramsey model and calls only numpy, so it is
    safe on a worker thread.
    """
    m, z, scratch = buffers
    np.subtract(rng.binomial(n_atoms, p_up, size=m.shape), 0.5 * n_atoms, out=m)
    m_bar = float(m.mean())
    m -= m_bar
    s_mm = float(np.square(m, out=scratch).sum())
    z_bar = s_zz = s_mz = 0.0
    if draw_z:
        rng.standard_normal(out=z)
        z_bar = float(z.mean())
        z -= z_bar
        s_zz = float(np.square(z, out=scratch).sum())
        s_mz = float(np.multiply(m, z, out=scratch).sum())
    return m.size, m_bar, z_bar, s_mm, s_mz, s_zz


def _combine(moments: list[tuple[int, float, float]], mean: float,
             slope: float) -> MonteCarloResult:
    """One noise's result from its chunks' (count, mean, M2) of the noisy
    counts m' + s z, in chunk order, by Chan, Golub & LeVeque's pairwise
    update.  The update stays in counts; the signal's mean and slope enter
    only at the end, so the slope divides once."""
    count, mean_count, m2 = 0, 0.0, 0.0
    for n_b, mean_b, m2_b in moments:
        total = count + n_b
        delta = mean_b - mean_count
        mean_count += delta * n_b / total
        m2 += m2_b + delta * delta * count * n_b / total
        count = total
    delta_gamma = math.sqrt(m2 / (count - 1)) / abs(slope)
    return MonteCarloResult(delta_gamma=delta_gamma,
                            stderr=delta_gamma / math.sqrt(2.0 * (count - 1)),
                            trials=count, bias=(mean_count - mean) / slope)


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
    many threads as the process has CPUs (at most one per chunk).  A chunk
    knows only n_atoms and p_up = cos^2(gamma t/2) and returns its sums in
    counts.  The calling thread gives each noise of scale s its chunk moments
    of m' + s z, combines them in chunk order, and only then applies the
    Ramsey model: delta-gamma = sqrt(M2/(trials - 1)) / |slope| and bias =
    (mean - <J_z>) / slope, so the slope's square never forms.  The results
    depend only on the arguments, never on the CPU count.  An empty noise
    list or a vanishing signal slope raises ValueError before any draw, as
    in corrected_uncertainty.

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
    p_up = math.cos(gamma * t / 2.0) ** 2
    scales = [math.sqrt(noise.difference_variance) for noise in noises]
    draw_z = any(scales)
    import numpy.random  # noqa: F401  (before any worker thread can touch np.random)
    n_chunks = -(-trials // _CHUNK)
    streams = np.random.SeedSequence(seed).spawn(n_chunks)
    workers = min(n_chunks, _available_cpus())
    sums: list[tuple | None] = [None] * n_chunks
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
                sums[i] = _chunk_sums(n_atoms, p_up, draw_z,
                                      np.random.default_rng(streams[i]), buffers[:, :size])
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
    # for s = 0 the z terms are exact zeros, as when z is not drawn
    return [_combine([(size, m_bar + s * z_bar, s_mm + 2.0 * s * s_mz + s * s * s_zz)
                      for size, m_bar, z_bar, s_mm, s_mz, s_zz in sums], mean, slope)
            for s in scales]
