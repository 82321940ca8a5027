"""Atom-counting noise and the sensitivity it leaves.

The detector miscounts each level with independent Gaussian errors of standard
deviation sigma, so the normalized difference m = (N1 - N2)/2, which carries
the parameter signal, has its variance inflated by sigma^2/2.  The atom
number N0 is known.  corrected_uncertainty gives the sensitivity in closed
form; simulate_counts cross-checks it by a Monte Carlo that draws the
sufficient statistics of its trials, not the trials one by one.
"""

from __future__ import annotations

import math
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


# Outcomes farther than Hoeffding's radius sqrt(N0 ln(2/eps)/2) from N0 p_up
# carry less than this mass in all; the Monte Carlo never draws them.
_TAIL_MASS = 1e-20


@dataclass(frozen=True)
class MonteCarloResult:
    delta_gamma: float
    stderr: float
    trials: int
    bias: float


def _binomial_pmf(n_atoms: int, p_up: float) -> tuple[np.ndarray, np.ndarray]:
    """(k, pmf) of Binomial(n_atoms, p_up) over the outcomes k within
    Hoeffding's radius of n_atoms p_up, normalized over them: O(sqrt(N0))
    outcomes, not N0 + 1.

    The log-pmf is the cumulative sum of the neighbour log-ratios
    log((N0 - k)/(k + 1) p/(1 - p)), shifted by its maximum before it is
    exponentiated.  p_up of exactly 0 or 1, which cos^2(gamma t/2) rounds to
    at a tiny gamma t whose slope does not vanish, is a point mass.
    """
    if p_up in (0.0, 1.0):
        return np.array([round(n_atoms * p_up)]), np.ones(1)
    radius = math.sqrt(n_atoms * math.log(2.0 / _TAIL_MASS) / 2.0)
    k = np.arange(max(0, math.ceil(n_atoms * p_up - radius)),
                  min(n_atoms, math.floor(n_atoms * p_up + radius)) + 1)
    steps = np.log((n_atoms - k[:-1]) / (k[:-1] + 1.0)) + math.log(p_up / (1.0 - p_up))
    log_pmf = np.concatenate(([0.0], np.cumsum(steps)))
    pmf = np.exp(log_pmf - log_pmf.max())
    return k, pmf / pmf.sum()


def _results(m: np.ndarray, counts: np.ndarray, a: np.ndarray, chi2: float,
             scales: list[float], mean: float, slope: float) -> list[MonteCarloResult]:
    """One result per noise scale s from the trials' sufficient statistics.

    counts[k] trials drew the ideal outcome m[k], and a[k] is the sum of their
    standard normals z; chi2 is the sum of the z's squares about their
    outcome's mean, so sum z^2 = sum a^2/counts + chi2.  The moments of the
    noisy counts m' + s z stay in counts; the Ramsey model's mean and slope
    enter only at the end, so the slope divides once.  Without normals, a
    and chi2 are zeros and so is every z term.
    """
    trials = int(counts.sum())
    m_bar = float(np.dot(counts, m)) / trials
    dm = m - m_bar
    z_bar = float(a.sum()) / trials
    s_mm = float(np.dot(counts, dm * dm))
    s_mz = float(np.dot(dm, a))
    s_zz = float(np.dot(a, a / counts)) + chi2 - trials * z_bar * z_bar
    results = []
    for s in scales:
        delta_gamma = math.sqrt((s_mm + 2.0 * s * s_mz + s * s * s_zz) / (trials - 1)) \
            / abs(slope)
        results.append(MonteCarloResult(delta_gamma=delta_gamma,
                                        stderr=delta_gamma / math.sqrt(2.0 * (trials - 1)),
                                        trials=trials, bias=(m_bar + s * z_bar - mean) / slope))
    return results


def simulate_counts(t: float, n_atoms: int, noises: list[CountingNoise], gamma: float,
                    trials: int, seed: int) -> list[MonteCarloResult]:
    """Monte Carlo of the counting pipeline with a local signal-inversion
    estimator, one result per noise, in the order of noises.

    Each trial draws an ideal difference m' = k - n_atoms/2 of n_atoms atoms
    after a Ramsey time t, with k ~ Binomial(n_atoms, cos^2(gamma t/2)), and
    adds each noise's counting noise to it.  gamma is estimated by
    linearized inversion of the mean signal at n_atoms; the spread of the
    estimates is the empirical delta-gamma.  n_atoms is known, so the total
    count is not drawn.

    Every noise uses the same draws (common random numbers): one m' per
    trial and, if any sigma > 0, one standard normal z, scaled by each
    noise's sqrt(sigma^2/2).  So the results are correlated, and each equals
    the one-noise call with the same seed, bit for bit.

    The estimator reads only sufficient statistics, and those are drawn
    exactly, in distribution, from one np.random.default_rng(seed), in this
    order: the histogram of the trials' outcomes, one multinomial over the
    outcomes within Hoeffding's radius (the rest carry less than 1e-20 of the
    mass); then, if any sigma > 0, one standard normal per occupied outcome,
    scaled by the square root of its count, which is the sum of that
    outcome's z; then, unless every trial drew a distinct outcome, the
    chi-square of trials minus outcomes degrees of freedom that completes
    sum z^2.  The cost grows with sqrt(n_atoms), not with trials.  An empty
    noise list or a vanishing signal slope raises ValueError before any
    draw, as in corrected_uncertainty.

    numpy.random loads here, after the argument checks, so that no command
    that skips the Monte Carlo pays for it.
    """
    if trials < 2:
        raise ValueError("need at least two trials to estimate a spread")
    if not noises:
        raise ValueError("need at least one counting noise")
    slope = _signal_slope(t, n_atoms, gamma)  # the estimator divides by it
    mean = ramsey_mean(t, n_atoms, gamma)
    k, pmf = _binomial_pmf(n_atoms, math.cos(gamma * t / 2.0) ** 2)
    scales = [math.sqrt(noise.difference_variance) for noise in noises]
    import numpy.random  # noqa: F401
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(trials, pmf)
    occupied = counts > 0
    k, counts = k[occupied], counts[occupied].astype(float)
    a, chi2 = np.zeros(k.size), 0.0
    if any(scales):
        a = rng.standard_normal(k.size) * np.sqrt(counts)
        if trials > k.size:
            chi2 = float(rng.chisquare(trials - k.size))
    return _results(k - 0.5 * n_atoms, counts, a, chi2, scales, mean, slope)
