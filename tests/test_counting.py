import inspect
import math
import sys
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


def _reference_monte_carlo(t, n_atoms, noises, gamma, trials, seed):
    """simulate_counts with every estimate kept: chunk i draws from the i-th
    spawned stream first the binomial outcomes, then, if any sigma > 0, one
    standard normal per trial, which every noise scales; each noise's
    concatenated estimates go through np.std.  One (delta_gamma, bias) per noise."""
    chunk = 20_000
    streams = np.random.SeedSequence(seed).spawn(-(-trials // chunk))
    mean, slope = cnt.ramsey_mean(t, n_atoms, gamma), cnt.ramsey_slope(t, n_atoms, gamma)
    estimates = [[] for _ in noises]
    for i, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        size = min(chunk, trials - i * chunk)
        m = rng.binomial(n_atoms, math.cos(gamma * t / 2.0) ** 2, size) - 0.5 * n_atoms
        if any(noise.sigma > 0.0 for noise in noises):
            z = rng.standard_normal(size)
        for kept, noise in zip(estimates, noises):
            noisy = m + z * math.sqrt(noise.difference_variance) if noise.sigma > 0.0 else m
            kept.append(gamma + (noisy - mean) / slope)
    references = []
    for kept in estimates:
        kept = np.concatenate(kept)
        assert kept.size == trials
        references.append((float(np.std(kept, ddof=1)), float(np.mean(kept) - gamma)))
    return references


# the one atom number the Monte Carlo tests run, a point mass over N0
KNOWN_N = {"point": 100}


@pytest.mark.parametrize("trials", [2, 3, 19_999, 20_001, 45_678])
@pytest.mark.parametrize("sigma", [0.0, 3.0])
@pytest.mark.parametrize("n_atoms", KNOWN_N.values(), ids=KNOWN_N.keys())
def test_monte_carlo_chunk_moments_match_one_array(n_atoms, sigma, trials):
    noises = [cnt.CountingNoise(sigma), cnt.CountingNoise(7.0)]
    gamma = 1.2
    results = cnt.simulate_counts(1.0, n_atoms, noises, gamma, trials=trials, seed=31)
    references = _reference_monte_carlo(1.0, n_atoms, noises, gamma, trials, seed=31)
    assert len(results) == len(noises)
    for res, (delta, bias) in zip(results, references):
        assert res.trials == trials
        assert res.delta_gamma == pytest.approx(delta, rel=1e-13, abs=0.0)
        assert res.stderr == pytest.approx(delta / math.sqrt(2.0 * (trials - 1)), rel=1e-13)
        # the reference loses the bias's low digits in gamma + error; the chunks do not
        assert abs(res.bias - bias) <= 1e-13 * gamma


@pytest.mark.parametrize("trials", [2, 3, 19_999, 20_001, 45_678])
def test_each_noise_of_a_shared_pass_is_its_one_noise_call(trials):
    noises = [cnt.CountingNoise(s) for s in (0.0, 3.0, 0.0, 7.0)]
    results = cnt.simulate_counts(1.0, 100, noises, 1.2, trials, seed=31)
    assert results == [cnt.simulate_counts(1.0, 100, [noise], 1.2, trials, seed=31)[0]
                       for noise in noises]
    assert results[0] == results[2]
    assert results[1] != results[3]


@pytest.mark.parametrize("sigma", [0.0, 3.0])
@pytest.mark.parametrize("n_atoms", KNOWN_N.values(), ids=KNOWN_N.keys())
def test_monte_carlo_is_independent_of_the_cpu_count(monkeypatch, n_atoms, sigma):
    noises = [cnt.CountingNoise(sigma), cnt.CountingNoise(7.0)]
    trials = 8 * 20_000 + 7  # nine chunks, the last one short
    results = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for cpus in (1, 2, 8):  # 8: more threads than CPUs on most hosts
            monkeypatch.setattr(cnt, "_available_cpus", lambda: cpus)
            results[cpus] = cnt.simulate_counts(1.0, n_atoms, noises, 1.0, trials, seed=5)
    finally:
        sys.setswitchinterval(interval)
    assert results[2] == results[1]
    assert results[8] == results[1]


def test_counting_csv_is_independent_of_the_cpu_count(monkeypatch, tmp_path):
    from becmetrology import cli

    outputs = []
    for cpus in (1, 2):
        monkeypatch.setattr(cnt, "_available_cpus", lambda: cpus)
        out = tmp_path / str(cpus)
        assert cli.main(["counting", "--out", str(out)]) == 0
        outputs.append((out / "counting.csv").read_bytes())
    assert outputs[0] == outputs[1]


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
    monkeypatch.setattr(cnt, "_available_cpus", lambda: 4)
    cnt.simulate_counts(1.0, 100, [cnt.CountingNoise(0.0), cnt.CountingNoise(3.0)], 1.0,
                        trials=4 * 20_000 + 5, seed=1)  # five chunks on four threads
    assert {"simulate_counts", "ramsey_mean", "ramsey_slope"} <= {name for name, _ in calls}
    assert {thread for _, thread in calls} == {threading.current_thread()}


# With two CPUs the calling thread runs the even chunks and a worker the odd ones.
@pytest.mark.parametrize("n_chunks", [3, 4], ids=["calling-thread", "worker-thread"])
def test_monte_carlo_error_in_a_chunk_propagates(monkeypatch, n_chunks):
    chunk_sums = cnt._chunk_sums

    def sums(n_atoms, p_up, draw_z, rng, buffers):
        if buffers.shape[1] < 20_000:  # the last chunk, the only short one
            raise RuntimeError("detector fault")
        return chunk_sums(n_atoms, p_up, draw_z, rng, buffers)

    monkeypatch.setattr(cnt, "_chunk_sums", sums)
    monkeypatch.setattr(cnt, "_available_cpus", lambda: 2)
    before = set(threading.enumerate())
    with pytest.raises(RuntimeError, match="detector fault"):
        cnt.simulate_counts(1.0, 100, [cnt.CountingNoise(0.0), cnt.CountingNoise(1.0)], 1.0,
                            trials=(n_chunks - 1) * 20_000 + 5, seed=1)
    assert set(threading.enumerate()) == before


def _no_draws(n_atoms, p_up, draw_z, rng, buffers):
    raise AssertionError("drew trials")


@pytest.mark.parametrize("n_atoms", KNOWN_N.values(), ids=KNOWN_N.keys())
def test_monte_carlo_rejects_a_vanishing_signal_slope(monkeypatch, n_atoms):
    # at gamma = 0 the linearized inversion divides by a zero slope; the
    # error comes before any draw, and before any worker thread starts
    monkeypatch.setattr(cnt, "_chunk_sums", _no_draws)
    monkeypatch.setattr(cnt, "_available_cpus", lambda: 2)
    before = set(threading.enumerate())
    with pytest.raises(ValueError, match="signal slope vanishes"):
        cnt.simulate_counts(1.0, n_atoms, [cnt.CountingNoise(1.0)], 0.0, trials=50_000,
                            seed=1)
    assert set(threading.enumerate()) == before


def test_monte_carlo_rejects_an_empty_noise_list(monkeypatch):
    # no noise, no result to report: the error comes before any draw or thread
    monkeypatch.setattr(cnt, "_chunk_sums", _no_draws)
    monkeypatch.setattr(cnt, "_available_cpus", lambda: 2)
    before = set(threading.enumerate())
    with pytest.raises(ValueError, match="at least one counting noise"):
        cnt.simulate_counts(1.0, 100, [], 1.0, trials=50_000, seed=1)
    assert set(threading.enumerate()) == before


# Exact reprs; any change to the draws, or to the arithmetic on them, moves
# these digits.  The "0.0" row was recorded before the sampler wrote into the
# chunk buffer.  The rows share the default seed's draws, so each sigma > 0 row
# is the one-noise Monte Carlo at that seed, recorded when the rows stopped
# taking a seed of their own.  The "20.0" row was re-recorded when the chunk
# moments came to be formed from sums over the centred draws (last digit of
# both values, each within 2.2e-16 of _reference_monte_carlo).  The "0.0" and
# "10.0" rows were re-recorded when the moments came to be combined in counts
# and divided by the slope once (one ulp in both values).
DEFAULT_COUNTING_MC = {  # sigma: (delta_gamma_mc, mc_stderr)
    "0.0": ("0.05015962190763303", "0.00011216088511698274"),
    "5.0": ("0.05318041674016482", "0.00011891562148237017"),
    "10.0": ("0.061393524826488945", "0.00013728078129597276"),
    "20.0": ("0.08681992027302013", "0.0001941362142150829"),
    "40.0": ("0.15040224473745661", "0.0003363113247623407"),
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


# N p = 200 draws by BTPE, N p = 13.6 by inversion; both chunks of 20 000 and a short one.
# The biases were re-recorded when the chunk moments came to be formed from
# sums over the centred draws; each moved by 2e-15 relative or less.  Both
# cases were re-recorded when the moments came to be combined in counts and
# divided by the slope once: each btpe value by one ulp, the inversion
# bias by 1.1e-14 relative.
@pytest.mark.parametrize("n, sigma, gamma, seed, delta_gamma, stderr, bias", [
    (400, 3.0, math.pi / 2, 17,
     0.05124182522563352, 0.00016953556066448108, -0.000501007356177875),
    (20, 0.0, 1.2, 23,
     0.22375479921304026, 0.0007403014074716184, -0.0018302972284559569),
], ids=["btpe", "inversion"])
def test_point_prior_monte_carlo_is_pinned(n, sigma, gamma, seed, delta_gamma, stderr, bias):
    res = cnt.simulate_counts(1.0, n, [cnt.CountingNoise(sigma)], gamma,
                              trials=45_678, seed=seed)
    assert res == [cnt.MonteCarloResult(delta_gamma=delta_gamma, stderr=stderr,
                                        trials=45_678, bias=bias)]


def test_zero_noise_chunk_moments_never_read_the_normal_row():
    # without draw_z, z is not drawn, so its row holds whatever the buffer
    # held: NaN here, which would poison a 0 * z term
    n_atoms, p_up, size = 100, math.cos(0.6) ** 2, 5_000
    buffers = np.full((3, size), np.nan)
    count, m_bar, z_bar, s_mm, s_mz, s_zz = cnt._chunk_sums(
        n_atoms, p_up, False, np.random.default_rng(3), buffers)
    m = (np.random.default_rng(3).binomial(n_atoms, p_up, size) - 0.5 * n_atoms).tolist()
    reference_mean = math.fsum(m) / size
    assert count == size
    assert (z_bar, s_mz, s_zz) == (0.0, 0.0, 0.0)
    assert np.isnan(buffers[1]).all()
    assert abs(m_bar - reference_mean) <= 1e-15 * n_atoms
    assert s_mm == pytest.approx(math.fsum((x - reference_mean) ** 2 for x in m),
                                 rel=1e-13, abs=0.0)
