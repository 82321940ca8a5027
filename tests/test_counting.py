import inspect
import math
import threading

import numpy as np
import pytest

from becmetrology import counting as cnt


def test_noise_variances():
    noise = cnt.CountingNoise(3.0)
    assert noise.difference_variance == pytest.approx(4.5)
    with pytest.raises(ValueError):
        cnt.CountingNoise(-1.0)


def test_corrected_uncertainty_at_a_known_number():
    # off the quarter fringe the mean signal is not zero and enters nothing
    t = 1.0
    gamma = 1.1
    n = 500
    assert cnt.ramsey_mean(t, n, gamma) == pytest.approx(0.5 * n * math.cos(gamma), rel=1e-12)
    var_jz = 0.25 * n * math.sin(gamma) ** 2
    assert cnt.ramsey_variance(t, n, gamma) == pytest.approx(var_jz, rel=1e-12)
    slope = 0.5 * n * t * math.sin(gamma)
    assert cnt.ramsey_slope(t, n, gamma) == pytest.approx(-slope, rel=1e-12)
    noise = cnt.CountingNoise(4.0)
    assert cnt.corrected_uncertainty(t, n, noise, gamma) == pytest.approx(
        math.sqrt(noise.difference_variance + var_jz) / slope, rel=1e-12)
    assert cnt.corrected_uncertainty(t, n, cnt.CountingNoise(0.0), gamma) == \
        pytest.approx(math.sqrt(var_jz) / slope, rel=1e-12)


def test_corrected_uncertainty_reductions():
    t = 1.0
    n = 400
    gamma = math.pi / 2
    quiet = cnt.corrected_uncertainty(t, n, cnt.CountingNoise(0.0), gamma)
    assert quiet == pytest.approx(1.0 / (t * math.sqrt(n)), rel=1e-12)
    # sigma = sqrt(N) inflates the uncertainty by sqrt(3) at the quarter fringe
    noisy = cnt.corrected_uncertainty(t, n, cnt.CountingNoise(math.sqrt(n)), gamma)
    assert noisy / quiet == pytest.approx(math.sqrt(3.0), rel=1e-12)
    # sigma << sqrt(N) barely matters
    small = cnt.corrected_uncertainty(t, n, cnt.CountingNoise(0.1 * math.sqrt(n)), gamma)
    assert small / quiet < 1.01
    with pytest.raises(ValueError):
        cnt.corrected_uncertainty(t, n, cnt.CountingNoise(0.0), 0.0)


def test_corrected_uncertainty_monotone_and_scaling_law():
    t = 1.0
    gamma = math.pi / 2
    values = [cnt.corrected_uncertainty(t, 256, cnt.CountingNoise(s), gamma)
              for s in (0.0, 2.0, 8.0, 16.0, 64.0)]
    assert all(b > a for a, b in zip(values, values[1:]))
    # the penalty depends on sigma only through sigma^2 / Var(J_z)
    penalties = []
    for n in (100, 400, 2500):
        var_jz = 0.25 * n  # quarter-fringe variance
        sigma = math.sqrt(2.0 * var_jz)  # fixed sigma^2/VarJz = 2
        quiet = cnt.corrected_uncertainty(t, n, cnt.CountingNoise(0.0), gamma)
        noisy = cnt.corrected_uncertainty(t, n, cnt.CountingNoise(sigma), gamma)
        penalties.append(noisy / quiet)
    assert penalties[0] == pytest.approx(penalties[1], rel=1e-12)
    assert penalties[1] == pytest.approx(penalties[2], rel=1e-12)
    assert penalties[0] == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_monte_carlo_determinism():
    noise = cnt.CountingNoise(3.0)
    a = cnt.simulate_counts(1.0, 100, [noise], 1.0, trials=2000, seed=42)
    b = cnt.simulate_counts(1.0, 100, [noise], 1.0, trials=2000, seed=42)
    assert a == b
    c = cnt.simulate_counts(1.0, 100, [noise], 1.0, trials=2000, seed=43)
    assert c[0].delta_gamma != a[0].delta_gamma


def test_monte_carlo_matches_quantum_limit():
    [res] = cnt.simulate_counts(1.0, 100, [cnt.CountingNoise(0.0)], math.pi / 2,
                                trials=100_000, seed=7)
    assert res.delta_gamma == pytest.approx(0.1, rel=0.01)
    assert abs(res.bias) < 3 * res.delta_gamma / math.sqrt(res.trials)


@pytest.mark.parametrize("gamma", [math.pi / 2, 1.0])
def test_monte_carlo_matches_analytic_with_noise(gamma):
    t = 1.0
    n = 100
    noise = cnt.CountingNoise(0.5 * math.sqrt(n))
    analytic = cnt.corrected_uncertainty(t, n, noise, gamma)
    [mc] = cnt.simulate_counts(t, n, [noise], gamma, trials=100_000, seed=11)
    assert abs(mc.delta_gamma - analytic) < 3 * mc.stderr


# the one atom number the Monte Carlo tests run, a point mass over N0
KNOWN_N = {"point": 100}


@pytest.mark.parametrize("trials", [2, 3, 19_999, 20_001, 45_678])
@pytest.mark.parametrize("sigma", [0.0, 3.0])
@pytest.mark.parametrize("n_atoms", KNOWN_N.values(), ids=KNOWN_N.keys())
def test_monte_carlo_chunk_moments_match_one_array(n_atoms, sigma, trials):
    # per-trial outcomes m' and normals z, reduced to what simulate_counts
    # draws: the histogram, each outcome's sum of z and the chi-square rest of
    # sum z^2; the moments formed from these are those of the one array of
    # per-trial estimates
    t, gamma = 1.0, 1.2
    rng = np.random.default_rng(31)
    m = rng.binomial(n_atoms, math.cos(gamma * t / 2.0) ** 2, trials) - 0.5 * n_atoms
    z = rng.standard_normal(trials)
    values, index, counts = np.unique(m, return_inverse=True, return_counts=True)
    counts = counts.astype(float)
    a = np.bincount(index, weights=z)
    chi2 = float(np.dot(z, z) - np.dot(a, a / counts))
    mean, slope = cnt.ramsey_mean(t, n_atoms, gamma), cnt.ramsey_slope(t, n_atoms, gamma)
    scales = [math.sqrt(cnt.CountingNoise(s).difference_variance) for s in (sigma, 7.0)]
    results = cnt._results(values, counts, a, chi2, scales, mean, slope)
    assert len(results) == len(scales)
    for res, s in zip(results, scales):
        errors = (m + s * z - mean) / slope  # estimates minus gamma
        delta = float(np.std(errors, ddof=1))
        assert res.trials == trials
        assert res.delta_gamma == pytest.approx(delta, rel=1e-12, abs=0.0)
        assert res.stderr == pytest.approx(delta / math.sqrt(2.0 * (trials - 1)), rel=1e-12)
        assert res.bias == pytest.approx(float(np.mean(errors)), rel=1e-12, abs=0.0)
    if sigma == 0.0:  # without normals the z terms are exact zeros
        assert cnt._results(values, counts, np.zeros(values.size), 0.0, [0.0], mean,
                            slope) == results[:1]


@pytest.mark.parametrize("trials", [2, 3, 19_999, 20_001, 45_678])
def test_each_noise_of_a_shared_pass_is_its_one_noise_call(trials):
    noises = [cnt.CountingNoise(s) for s in (0.0, 3.0, 0.0, 7.0)]
    results = cnt.simulate_counts(1.0, 100, noises, 1.2, trials, seed=31)
    assert results == [cnt.simulate_counts(1.0, 100, [noise], 1.2, trials, seed=31)[0]
                       for noise in noises]
    assert results[0] == results[2]
    assert results[1] != results[3]


@pytest.mark.parametrize("n_atoms", [1, 20, 100, 400])
@pytest.mark.parametrize("p_up", [math.cos(math.pi / 4) ** 2, math.cos(0.6) ** 2, 1e-9])
def test_binomial_pmf_is_exact_within_hoeffding_radius(n_atoms, p_up):
    k, pmf = cnt._binomial_pmf(n_atoms, p_up)
    # exact: p_up = a/b, so pmf(j) = C(N, j) a^j (b - a)^(N - j) / b^N, and an
    # int / int division rounds correctly
    a, b = p_up.as_integer_ratio()
    numerators = [math.comb(n_atoms, j) * a**j * (b - a) ** (n_atoms - j)
                  for j in range(n_atoms + 1)]
    assert np.array_equal(k, np.arange(k[0], k[-1] + 1))
    # atol: values that are subnormal carry fewer digits
    np.testing.assert_allclose(pmf, [numerators[j] / b**n_atoms for j in k],
                               rtol=1e-12, atol=1e-300)
    assert (b**n_atoms - sum(numerators[j] for j in k)) / b**n_atoms < 1e-20


def test_binomial_pmf_support_grows_as_the_root_of_the_atom_number():
    n_atoms = 10**9
    k, pmf = cnt._binomial_pmf(n_atoms, 0.5)
    assert k.size <= 2 * math.sqrt(n_atoms * math.log(2e20) / 2) + 1 < 310_000
    assert k[0] <= n_atoms // 2 <= k[-1]
    assert pmf.sum() == pytest.approx(1.0, rel=1e-12)


def test_monte_carlo_is_calibrated_over_seeds():
    # (mc - analytic)/stderr is a standard score for sigma = 0 and sigma > 0
    n, t = 400, 1.0
    gamma = 0.5 * math.pi / t
    noises = [cnt.CountingNoise(s * math.sqrt(n)) for s in (0.0, 1.0)]
    analytic = [cnt.corrected_uncertainty(t, n, noise, gamma) for noise in noises]
    scores = np.array([[(mc.delta_gamma - a) / mc.stderr for mc, a in
                        zip(cnt.simulate_counts(t, n, noises, gamma, 100_000, seed), analytic)]
                       for seed in range(400)])
    assert (abs(scores.mean(axis=0)) < 0.2).all()
    assert ((0.85 < scores.std(axis=0, ddof=1)) & (scores.std(axis=0, ddof=1) < 1.15)).all()


_default_rng = np.random.default_rng


class _RecordingGenerator:
    """A numpy Generator that records the name and result of each draw it makes."""

    def __init__(self, seed, draws):
        self._rng, self._draws = _default_rng(seed), draws

    def __getattr__(self, name):
        def draw(*args, **kwargs):
            result = getattr(self._rng, name)(*args, **kwargs)
            self._draws.append((name, result))
            return result
        return draw


@pytest.mark.parametrize("n_atoms, sigmas, trials, expected", [
    (100, (0.0,), 45_678, ["multinomial"]),
    (100, (0.0, 3.0), 45_678, ["multinomial", "standard_normal", "chisquare"]),
    # two trials of 10^9 atoms draw distinct outcomes: trials == outcomes
    (10**9, (3.0,), 2, ["multinomial", "standard_normal"]),
], ids=["no-noise", "noise", "all-outcomes-distinct"])
def test_monte_carlo_draw_order(monkeypatch, n_atoms, sigmas, trials, expected):
    draws = []
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _RecordingGenerator(seed, draws))
    results = cnt.simulate_counts(1.0, n_atoms, [cnt.CountingNoise(s) for s in sigmas], 1.2,
                                  trials, seed=5)
    assert [name for name, _ in draws] == expected
    histogram = draws[0][1]
    assert histogram.sum() == trials
    if expected[-1] == "standard_normal":  # no chi-square part
        assert np.count_nonzero(histogram) == trials
    assert all(math.isfinite(mc.delta_gamma) and math.isfinite(mc.bias) for mc in results)


def test_monte_carlo_of_one_atom():
    # two outcomes, m' = -1/2 and 1/2
    noises = [cnt.CountingNoise(s) for s in (0.0, 1.0)]
    gamma = 0.5 * math.pi
    for noise, mc in zip(noises, cnt.simulate_counts(1.0, 1, noises, gamma, 100_000, seed=2)):
        assert abs(mc.delta_gamma - cnt.corrected_uncertainty(1.0, 1, noise, gamma)) \
            < 3 * mc.stderr


def test_monte_carlo_where_p_up_rounds_to_one():
    # cos^2(gamma t/2) is exactly 1.0 here, but the slope does not vanish:
    # every trial draws m' = N0/2, and only the counting noise spreads
    n, gamma = 400, 1e-9
    assert math.cos(gamma / 2.0) ** 2 == 1.0 and cnt.ramsey_slope(1.0, n, gamma) != 0.0
    noises = [cnt.CountingNoise(s) for s in (0.0, 5.0)]
    quiet, noisy = cnt.simulate_counts(1.0, n, noises, gamma, 45_678, seed=4)
    assert (quiet.delta_gamma, quiet.bias) == (0.0, 0.0)
    assert abs(noisy.delta_gamma - cnt.corrected_uncertainty(1.0, n, noises[1], gamma)) \
        < 3 * noisy.stderr


def test_monte_carlo_of_a_billion_atoms():
    n, gamma = 10**9, 0.5 * math.pi
    noises = [cnt.CountingNoise(s * math.sqrt(n)) for s in (0.0, 1.0)]
    for noise, mc in zip(noises, cnt.simulate_counts(1.0, n, noises, gamma, 10**6, seed=6)):
        assert abs(mc.delta_gamma - cnt.corrected_uncertainty(1.0, n, noise, gamma)) \
            < 3 * mc.stderr


def test_every_public_call_runs_on_the_calling_thread(monkeypatch):
    # a per-layer tracer swaps each public function for a wrapper by module
    # attribute and keeps one stack of open spans, so a public call made on a
    # worker thread would break it
    calls = []
    for name, fn in list(vars(cnt).items()):
        if not name.startswith("_") and inspect.isfunction(fn) and fn.__module__ == cnt.__name__:
            def recorded(*args, _fn=fn, _name=name, **kwargs):
                calls.append((_name, threading.current_thread()))
                return _fn(*args, **kwargs)
            monkeypatch.setattr(cnt, name, recorded)
    cnt.simulate_counts(1.0, 100, [cnt.CountingNoise(0.0), cnt.CountingNoise(3.0)], 1.0,
                        trials=4 * 20_000 + 5, seed=1)
    assert {"simulate_counts", "ramsey_mean", "ramsey_slope"} <= {name for name, _ in calls}
    assert {thread for _, thread in calls} == {threading.current_thread()}


def _no_draws(seed):
    raise AssertionError("drew trials")


@pytest.mark.parametrize("n_atoms", KNOWN_N.values(), ids=KNOWN_N.keys())
def test_monte_carlo_rejects_a_vanishing_signal_slope(monkeypatch, n_atoms):
    # at gamma = 0 the linearized inversion divides by a zero slope; the
    # error comes before any draw
    monkeypatch.setattr(np.random, "default_rng", _no_draws)
    with pytest.raises(ValueError, match="signal slope vanishes"):
        cnt.simulate_counts(1.0, n_atoms, [cnt.CountingNoise(1.0)], 0.0, trials=50_000,
                            seed=1)


def test_monte_carlo_rejects_an_empty_noise_list(monkeypatch):
    # no noise, no result to report: the error comes before any draw
    monkeypatch.setattr(np.random, "default_rng", _no_draws)
    with pytest.raises(ValueError, match="at least one counting noise"):
        cnt.simulate_counts(1.0, 100, [], 1.0, trials=50_000, seed=1)


# Exact reprs; any change to the draws, or to the arithmetic on them, moves
# these digits.  The rows share the default seed's draws, so each row is the
# one-noise Monte Carlo at that seed.  All five were re-recorded when the
# Monte Carlo came to draw its sufficient statistics (the outcome histogram,
# each outcome's normal sum and a chi-square) in place of per-trial draws;
# each row is within 1.6 mc_stderr of delta_gamma_analytic.
DEFAULT_COUNTING_MC = {  # sigma: (delta_gamma_mc, mc_stderr)
    "0.0": ("0.05017543066597361", "0.00011219623475202075"),
    "5.0": ("0.05307362556783159", "0.0001186768279676656"),
    "10.0": ("0.06115302012237947", "0.000136742993739731"),
    "20.0": ("0.08635041922748016", "0.00019308637271252767"),
    "40.0": ("0.1495779260834032", "0.0003344680830005243"),
}


def test_default_counting_monte_carlo_is_pinned(tmp_path):
    import csv

    from becmetrology import cli

    assert cli.main(["counting", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "counting.csv", newline="") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    assert {r["sigma"]: (r["delta_gamma_mc"], r["mc_stderr"]) for r in rows} \
        == DEFAULT_COUNTING_MC


def test_default_counting_analytic_is_the_closed_form(tmp_path):
    # at the quarter fringe Var J_z = N/4 and |d<J_z>/dgamma| = N t/2
    import csv

    from becmetrology import cli

    assert cli.main(["counting", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "counting.csv", newline="") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    t = cli.RunConfig().t
    assert len(rows) == len(cli.RunConfig().sigma_over_sqrtn)
    for r in rows:
        sigma, n = float(r["sigma"]), int(r["N"])
        assert r["delta_gamma_analytic"] == repr(math.sqrt(sigma**2 / 2 + n / 4) / (n * t / 2))


# At N = 400 the quarter-fringe slope N t/2 is 2e-298 and 2e302 at the ends;
# its square, which the moments were once divided by, underflows or overflows.
EXTREME_T = [1e-300, 1e-158, 1e152, 1e300]


@pytest.mark.parametrize("t", EXTREME_T)
def test_monte_carlo_stays_in_counts_at_extreme_times(t):
    n, gamma = 400, 0.5 * math.pi / t
    noises = [cnt.CountingNoise(s * math.sqrt(n)) for s in (0.0, 1.0)]
    results = cnt.simulate_counts(t, n, noises, gamma, trials=45_678, seed=9)
    for noise, mc in zip(noises, results):
        assert math.isfinite(mc.delta_gamma) and math.isfinite(mc.bias)
        assert abs(mc.delta_gamma - cnt.corrected_uncertainty(t, n, noise, gamma)) \
            < 3 * mc.stderr


@pytest.mark.parametrize("t", EXTREME_T)
def test_counting_command_runs_at_extreme_times(tmp_path, t):
    import csv

    from becmetrology import cli

    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"[protocol]\nt = {t!r}\n")
    assert cli.main(["counting", "--config", str(cfgfile), "--out", str(tmp_path)]) == 0
    with open(tmp_path / "counting.csv", newline="") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    assert len(rows) == len(cli.RunConfig().sigma_over_sqrtn)
    for r in rows:
        mc, analytic = float(r["delta_gamma_mc"]), float(r["delta_gamma_analytic"])
        assert math.isfinite(mc) and abs(mc - analytic) < 3 * float(r["mc_stderr"])


# A large N at the quarter fringe with noise, and a small N off it without.
# The ids name the binomial algorithm numpy used when each trial drew its own
# outcome (BTPE at N p = 200, inversion at N p = 13.6).  Both cases were
# re-recorded when the Monte Carlo came to draw its sufficient statistics.
@pytest.mark.parametrize("n, sigma, gamma, seed, delta_gamma, stderr, bias", [
    (400, 3.0, math.pi / 2, 17,
     0.05116915200161567, 0.0001692951184919997, 0.00010933377474916968),
    (20, 0.0, 1.2, 23,
     0.22391774826212926, 0.0007408405307029904, 0.001528585428676907),
], ids=["btpe", "inversion"])
def test_point_prior_monte_carlo_is_pinned(n, sigma, gamma, seed, delta_gamma, stderr, bias):
    res = cnt.simulate_counts(1.0, n, [cnt.CountingNoise(sigma)], gamma,
                              trials=45_678, seed=seed)
    assert res == [cnt.MonteCarloResult(delta_gamma=delta_gamma, stderr=stderr,
                                        trials=45_678, bias=bias)]
