"""Acceptance suite: one test per exit criterion, at the stated tolerances.

Each criterion reports a one-line verdict (echoed in the terminal summary).
Criterion 2's headline normalization is asserted as stated for every listed
atom number; the N = 10 and N = 100 cases are marked strict-xfail because the
exact short-time sensitivity of the quadratic product protocol is
2/(t sqrt(N) (N-1)), so delta*t*N^(3/2) = 2N/(N-1) > 2.02 there, and at N = 10
even the quantum Fisher information bound (2.163) forbids reaching 2.02.  The
equivalent finite-N law is asserted for all three atom numbers instead.
"""

import cmath
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

import dense_oracle as oracle
import tf_closed_forms as closed_forms
from becmetrology import counting as cnt
from becmetrology import gp
from becmetrology import physconfig as pc
from becmetrology import scaling as sc
from becmetrology import spins
from becmetrology import thomas_fermi as tf
from conftest import acceptance_report
from spin_moments import expectation

HBAR = pc.SI.hbar


@pytest.fixture(scope="module")
def rb_geom():
    rb = pc.rb87()
    return rb, pc.trap_from_lengths(1, 2, 1e-6, 100e-6, rb.mass)


@pytest.fixture(scope="module")
def rb_tf_ground(rb_geom):
    """y = 1000 Rb ground state shared by criteria 6 and 7."""
    rb, geom = rb_geom
    crit = sc.critical_numbers(geom, rb.a11)
    n = 1.0 + 1000.0 * (crit.n_lower - 1.0)
    grid = gp.default_grid(geom, rb, n, points=1024)
    return n, gp.ground_state(geom, rb, n, grid)


def test_acceptance_1_sensitivity_scalings():
    start = time.perf_counter()
    for n in (2, 10, 100, 1000):
        ramsey = spins.simulate_ramsey(n, 1.0, 1.0).delta_gamma
        assert abs(ramsey * math.sqrt(n) - 1.0) < 1e-9
        cat = spins.simulate_cat(n, 1.0, 1.0).delta_gamma
        assert abs(cat * n - 1.0) < 1e-9
    ns = [8 * 2**k for k in range(8)]
    slopes = {}
    for name, sim in (("ramsey", spins.simulate_ramsey),
                      ("cat", spins.simulate_cat),
                      ("enhanced", spins.simulate_enhanced)):
        slopes[name] = spins.fit_loglog_slope(
            ns, [sim(n, 1.0, 1.0).delta_gamma for n in ns])
    assert slopes["ramsey"] == pytest.approx(-0.5, abs=0.02)
    assert slopes["cat"] == pytest.approx(-1.0, abs=0.02)
    assert slopes["enhanced"] == pytest.approx(-1.5, abs=0.02)
    acceptance_report(
        f"ACCEPTANCE 1: PASS - Ramsey/cat exact to 1e-9; slopes "
        f"{slopes['ramsey']:+.3f}/{slopes['cat']:+.3f}/{slopes['enhanced']:+.3f} "
        f"({time.perf_counter() - start:.1f} s)")


_QFI_FLOOR_NOTE = ("exact law is delta*t*N^1.5 = 2N/(N-1); at N=10 the quantum "
                   "Fisher bound already forbids < 2.163 (decisions ledger)")


@pytest.mark.parametrize("n_atoms", [
    pytest.param(10, marks=pytest.mark.xfail(reason=_QFI_FLOOR_NOTE, strict=True)),
    pytest.param(100, marks=pytest.mark.xfail(reason=_QFI_FLOOR_NOTE, strict=True)),
    1000,
])
def test_acceptance_2_quadratic_headline(n_atoms):
    t = 0.1 / n_atoms  # short-time window: gamma t N = 0.1
    res = spins.simulate_quadratic(n_atoms, 1.0, t)
    value = res.delta_gamma * t * n_atoms**1.5
    ok = abs(value / 2.0 - 1.0) <= 0.01
    verdict = "PASS" if ok else "FAIL as stated (unattainable: QFI/(N-1) floor)"
    acceptance_report(f"ACCEPTANCE 2 (N={n_atoms}): {verdict} - "
                      f"delta*t*N^1.5 = {value:.4f} vs 2 within 1%")
    assert ok


def test_acceptance_2_finite_n_law_and_purity():
    start = time.perf_counter()
    for n in (10, 100, 1000):
        t = 0.1 / n
        res = spins.simulate_quadratic(n, 1.0, t)
        value = res.delta_gamma * t * math.sqrt(n) * (n - 1)
        assert abs(value / 2.0 - 1.0) <= 0.01
    # amplified linear coupling never entangles; quadratic coupling does
    for t in (0.01, 0.2, 1.0):
        assert spins.simulate_enhanced(200, 1.0, t).purity == pytest.approx(1.0, abs=1e-10)
    assert spins.simulate_quadratic(200, 1.0, 0.1 / 200).purity < 1.0
    sup = pc.Superposition.quadratic_optimal()
    for n in (6, 12):
        ours = spins.simulate_quadratic(n, 1.0, 0.08).purity
        dense = oracle.evolve_diagonal(oracle.product_state(n, sup.c1, sup.c2),
                                       "quadratic_Jz2", 1.0, 0.08)
        dense /= np.linalg.norm(dense)
        assert ours == pytest.approx(oracle.single_qubit_purity(dense), abs=1e-10)
    acceptance_report(
        "ACCEPTANCE 2 (finite-N law + purity): PASS - delta*t*sqrt(N)(N-1) -> 2 "
        f"within 1% for N in (10,100,1000); purity witnesses dense-verified "
        f"({time.perf_counter() - start:.1f} s)")


def test_acceptance_3_critical_numbers_and_exponents():
    start = time.perf_counter()
    a = 10e-9
    mass = pc.typical_species().mass
    geoms = {(d, q): pc.trap_from_lengths(d, q, 1e-6, 100e-6, mass)
             for d in (1, 2, 3) for q in (2.0, math.inf)}
    lower = {d: sc.critical_numbers(geoms[d, 2.0], a).n_lower for d in (1, 2, 3)}
    for d, target in ((1, 2.0), (2, 45.0), (3, 1700.0)):
        assert abs(lower[d] - target) / target < 0.12
    upper = {
        (1, 2.0): 1e6, (2, 2.0): 4e9,
        (1, math.inf): 1e4, (2, math.inf): 4e5,
    }
    for (d, q), target in upper.items():
        value = sc.critical_numbers(geoms[d, q], a).n_upper
        assert abs(value - target) / target < 0.12
    from fractions import Fraction
    inter = sc.Regime.INTERMEDIATE
    assert sc.scaling_exponent(1, 2, inter) == Fraction(7, 6)
    assert sc.scaling_exponent(2, 2, inter) == Fraction(1)
    assert sc.scaling_exponent(3, 2, inter) == Fraction(9, 10)
    assert sc.scaling_exponent(1, math.inf, inter) == Fraction(3, 2)
    acceptance_report(
        f"ACCEPTANCE 3: PASS - N_L {lower[1]:.3g}/{lower[2]:.3g}/{lower[3]:.4g}; "
        f"N_T within 12%; exponents 7/6, 1, 9/10, 3/2 exact "
        f"({time.perf_counter() - start:.1f} s)")


def test_acceptance_4_tf_integrals():
    start = time.perf_counter()
    for d in (1, 2, 3):
        for q in (1.0, 2.0, 4.0, 10.0):
            for l in (0.0, 0.5, 1.0, 2.0, 3.0):
                beta_form = tf.j_integral(l, d, q)
                quadrature, _ = quad(lambda u: u ** (d - 1) * (1 - u**q) ** l,
                                     0.0, 1.0, epsabs=1e-13, epsrel=1e-13)
                assert beta_form == pytest.approx(quadrature, rel=1e-10)
                if l == int(l):
                    assert closed_forms.j_integral_factorial(int(l), d, q) == \
                        pytest.approx(beta_form, rel=1e-12)
                if q == 2.0:
                    assert closed_forms.j_integral_q2(l, d) == pytest.approx(beta_form, rel=1e-12)
            # ratio identity J_{x+l}/J_x for the orders the closed forms rely on
            for x in (0.0, 1.0, d / q):
                for l in (1, 2):
                    expected = 1.0
                    for j in range(1, l + 1):
                        expected *= (x + j) / (d / q + x + j)
                    assert tf.j_integral(x + l, d, q) / tf.j_integral(x, d, q) == \
                        pytest.approx(expected, rel=1e-12)
    rb = pc.rb87()
    geom1 = pc.trap_from_lengths(1, 2, 1e-6, 100e-6, rb.mass)
    geom2 = pc.trap_from_lengths(2, 2, 1e-6, 100e-6, rb.mass)
    n_full = 1.0 + 50.0 * (sc.critical_numbers(geom1, rb.a11).n_upper - 1.0)
    assert closed_forms.k_integral(1.0, n_full, geom1, rb.a11) == 1.0
    n_full2 = 1.0 + 50.0 * (sc.critical_numbers(geom2, rb.a11).n_upper - 1.0)
    assert closed_forms.k_integral(1.0, n_full2, geom2, rb.a11) == 1.0
    acceptance_report(
        f"ACCEPTANCE 4: PASS - integral closed forms agree to 1e-12, quadrature "
        f"to 1e-10; normalizations exact ({time.perf_counter() - start:.1f} s)")


def test_acceptance_5_gp_vs_tf(rb_geom):
    start = time.perf_counter()
    rb, geom = rb_geom
    # noninteracting solver reproduces the Gaussian inverse length to 0.1%
    bare = gp.ground_state(geom, rb, 1.0)
    sigma = math.sqrt(HBAR / (2 * rb.mass * geom.omega_L))
    assert bare.eta_longitudinal == pytest.approx(1 / (2 * math.sqrt(math.pi) * sigma),
                                                  rel=1e-3)
    crit = sc.critical_numbers(geom, rb.a11)
    n_list = [1.0 + y * (crit.n_lower - 1.0) for y in (100.0, 316.0, 1000.0)]
    etas = [gp.ground_state(geom, rb, n, gp.default_grid(geom, rb, n, points=512)).eta_n
            for n in n_list]
    worst = 0.0
    for n, eta_n in zip(n_list, etas):
        eta_tf_val = tf.tf_profile(geom, rb, n, sc.Regime.INTERMEDIATE).eta_N
        worst = max(worst, abs(eta_n / eta_tf_val - 1.0))
    assert worst < 0.05
    slope = gp.local_log_slopes(n_list, etas)[1]
    assert slope == pytest.approx(-1.0 / 3.0, abs=0.05)
    acceptance_report(
        f"ACCEPTANCE 5: PASS - eta within {worst:.2%} of the TF closed form; "
        f"log-slope {slope:+.4f}; bare Gaussian to 0.1% "
        f"({time.perf_counter() - start:.1f} s)")


def test_acceptance_6_overlap_and_visibility(rb_geom, rb_tf_ground):
    start = time.perf_counter()
    rb, geom = rb_geom
    # Omega_N tau_pd from the implementation matches direct quadrature of the
    # TF density, and for d = 1, q = 10 it is sqrt(62)
    products = {}
    for d, q in ((1, 2.0), (1, 10.0), (2, 2.0)):
        s = sc.unit_sphere_area(d)
        norm_int, _ = quad(lambda u: u ** (d - 1) * (1 - u**q), 0, 1,
                           epsabs=1e-13, epsrel=1e-13)
        norm = s * norm_int
        eta_int, _ = quad(lambda u: u ** (d - 1) * (1 - u**q) ** 2, 0, 1,
                          epsabs=1e-13, epsrel=1e-13)
        eta_l = s * eta_int / norm**2
        m_int, _ = quad(lambda u: s * u ** (d - 1) * (1 - u**q) / norm
                        * ((1 - u**q) / norm - eta_l) ** 2, 0, 1,
                        epsabs=1e-13, epsrel=1e-13)
        from_quadrature = eta_l / math.sqrt(m_int)
        geom_dq = pc.trap_from_lengths(d, q, 1e-6, 100e-6, rb.mass)
        n_dq = 1.0 + 1000.0 * (sc.critical_numbers(geom_dq, rb.a11).n_lower - 1.0)
        phase_dq = tf.phase_dynamics(geom_dq, rb, n_dq, pc.Superposition.equal())
        products[d, q] = phase_dq.omega_N * phase_dq.tau_pd
        assert products[d, q] == pytest.approx(from_quadrature, abs=1e-6)
    assert products[1, 10.0] == pytest.approx(math.sqrt(62.0), rel=1e-12)

    # coupled-GP overlap against the Gaussian model out to Omega t = 0.5
    n, ground = rb_tf_ground
    sup = pc.Superposition.equal()
    phase = tf.phase_dynamics(geom, rb, n, sup)
    t_final = 0.5 / abs(phase.omega_N)
    steps = 430
    record = gp.evolve_two_mode(ground, sup, rb, geom, t_final, steps,
                                record_every=steps // 20)
    worst_mag = worst_phase = 0.0
    for t, ov in zip(record.times[1:], record.overlap[1:]):
        model = tf.overlap_gaussian(phase, t)
        worst_mag = max(worst_mag, abs(abs(ov) / abs(model) - 1.0))
        worst_phase = max(worst_phase,
                          abs(cmath.phase(ov) / (-phase.omega_N * t) - 1.0))
    assert worst_mag < 0.02
    assert worst_phase < 0.02
    acceptance_report(
        f"ACCEPTANCE 6: PASS - Omega*tau = sqrt(2(d+3q)/d) to 1e-6 "
        f"(sqrt(62) = {math.sqrt(62):.3f} at d=1,q=10); GP overlap vs Gaussian: "
        f"magnitude {worst_mag:.2%}, phase {worst_phase:.2%} "
        f"({time.perf_counter() - start:.1f} s)")


def test_acceptance_7_loss_budget(rb_geom, rb_tf_ground):
    start = time.perf_counter()
    rb, geom = rb_geom
    n, ground = rb_tf_ground
    sup = pc.Superposition.equal()
    budget = gp.loss_budget(rb, geom, n, sup)
    assert abs(budget.ratio - 1.0 / 19.0) / (1.0 / 19.0) < 0.20
    t_final = 0.3 / budget.gamma
    steps = 5312
    every = steps // 12
    lossless = gp.evolve_two_mode(ground, sup, rb, geom, t_final, steps,
                                  loss=False, record_every=every)
    lossy = gp.evolve_two_mode(ground, sup, rb, geom, t_final, steps,
                               loss=True, record_every=every)
    worst = 0.0
    for i in range(1, len(lossy.times)):
        ratio = abs(lossy.overlap[i]) / abs(lossless.overlap[i])
        expected = math.exp(-budget.gamma * lossy.times[i])
        worst = max(worst, abs(ratio / expected - 1.0))
    assert worst < 0.10
    acceptance_report(
        f"ACCEPTANCE 7: PASS - Gamma/Omega = 1/{1 / budget.ratio:.1f} "
        f"(within 20% of 1/19); e^-Gamma*t signal decay within {worst:.2%} "
        f"out to Gamma t = 0.3 ({time.perf_counter() - start:.1f} s)")


def test_acceptance_8_counting_noise():
    start = time.perf_counter()
    t = 1.0
    gamma = math.pi / 2
    n = 100
    quiet = cnt.corrected_uncertainty(t, n, cnt.CountingNoise(0.0), gamma)
    assert quiet == pytest.approx(1.0 / (t * math.sqrt(n)), rel=1e-12)
    # penalty law sqrt(1 + sigma^2/(2 Var J_z)) across a (sigma, N) grid
    for n_grid in (100, 400, 1600):
        base = cnt.corrected_uncertainty(t, n_grid, cnt.CountingNoise(0.0), gamma)
        var_jz = 0.25 * n_grid
        for s_frac in (0.25, 0.5, 1.0, 2.0):
            sigma = s_frac * math.sqrt(n_grid)
            noisy = cnt.corrected_uncertainty(t, n_grid, cnt.CountingNoise(sigma), gamma)
            assert noisy / base == pytest.approx(
                math.sqrt(1.0 + sigma**2 / (2.0 * var_jz)), rel=1e-12)
    # Monte Carlo agreement at 1e5 trials, with and without noise
    [mc0] = cnt.simulate_counts(t, n, [cnt.CountingNoise(0.0)], gamma,
                                trials=100_000, seed=2024)
    assert abs(mc0.delta_gamma - quiet) < 3 * mc0.stderr
    noise = cnt.CountingNoise(math.sqrt(n))
    analytic = cnt.corrected_uncertainty(t, n, noise, gamma)
    [mc1] = cnt.simulate_counts(t, n, [noise], gamma, trials=100_000, seed=2025)
    assert abs(mc1.delta_gamma - analytic) < 3 * mc1.stderr
    acceptance_report(
        f"ACCEPTANCE 8: PASS - sigma=0 reduction exact; MC within 3 SE "
        f"({mc1.delta_gamma:.4f} vs {analytic:.4f}); penalty law exact "
        f"({time.perf_counter() - start:.1f} s)")


def test_acceptance_9_cross_cutting():
    start = time.perf_counter()
    qubit = spins.SpectrumBound(0.5, -0.5)
    configs = []
    for n in (2, 10, 100):
        for gamma_t in (0.5, 1.1):
            configs.append((spins.simulate_ramsey(n, gamma_t, 1.0),
                            spins.cramer_rao(qubit, n, 1.0).crb))
            configs.append((spins.simulate_cat(n, gamma_t, 1.0),
                            spins.cramer_rao(qubit, n, 1.0).crb))
            configs.append((spins.simulate_enhanced(n, gamma_t, 1.0),
                            1.0 / (1.0 * n * n)))  # seminorm of the amplified coupling
    for n in (10, 100):
        for t in (0.05 / n, 0.1 / n, 2.0 / n):
            nl = spins.cramer_rao(spins.SpectrumBound(0.5, -0.5, k_body=2), n, t)
            configs.append((spins.simulate_quadratic(n, 1.0, t), nl.crb))
    for result, bound in configs:
        if math.isinf(result.delta_gamma):
            continue
        assert result.delta_gamma >= bound - 1e-9
        assert result.delta_gamma * result.generator_sd >= 0.5 - 1e-9

    # Dicke-basis operations against the dense product-basis oracle at N <= 12
    rng = np.random.default_rng(99)
    for n in (2, 5, 9, 12):
        amp = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        amp /= np.linalg.norm(amp)
        state = spins.DickeState(amp)
        dense = oracle.dense_from_dicke(amp)
        for comp in ("x", "y", "z"):
            ours = expectation(state, comp)
            theirs = oracle.collective_expectation(dense, comp)
            assert ours[0] == pytest.approx(theirs[0], abs=1e-10)
            assert ours[1] == pytest.approx(theirs[1], abs=1e-10)
        for axis in ("x", "y", "z"):
            angle = rng.uniform(-math.pi, math.pi)
            ours_amp = oracle.rotate_dicke(amp, axis, angle)
            theirs_amp = oracle.dicke_from_dense(oracle.rotate(dense, axis, angle))
            assert np.allclose(ours_amp, theirs_amp, atol=1e-10)
        for kind in ("linear_Jz", "quadratic_Jz2", "enhanced_NJz"):
            h = spins.generator_eigenvalues(kind, n)
            ours_amp = spins.evolve(state, h, 0.37, 1.0).amplitudes
            theirs_amp = oracle.dicke_from_dense(
                oracle.evolve_diagonal(dense, kind, 0.37, 1.0))
            assert np.allclose(ours_amp, theirs_amp, atol=1e-10)
        assert spins.single_qubit_purity(state) == \
            pytest.approx(oracle.single_qubit_purity(dense), abs=1e-10)
    acceptance_report(
        f"ACCEPTANCE 9: PASS - Cramer-Rao and Mandelstam-Tamm inequalities hold "
        f"on all simulated configurations; Dicke == dense oracle at N <= 12 to "
        f"1e-10 ({time.perf_counter() - start:.1f} s)")
