import cmath
import math
import warnings

import pytest
from scipy.integrate import quad

import tf_closed_forms as closed_forms
from becmetrology import gp
from becmetrology import physconfig as pc
from becmetrology import scaling as sc
from becmetrology import thomas_fermi as tf


def j_quadrature(l, d, q):
    val, _ = quad(lambda u: u ** (d - 1) * (1.0 - u**q) ** l, 0.0, 1.0,
                  epsabs=1e-13, epsrel=1e-13, limit=200)
    return val


def test_j_zero_order():
    for d in (1, 2, 3):
        for q in (1.0, 2.0, 7.0, math.inf):
            assert tf.j_integral(0.0, d, q) == pytest.approx(1.0 / d, rel=1e-14)


def test_j_examples():
    assert tf.j_integral(1.0, 1, 2.0) == pytest.approx(2.0 / 3.0, rel=1e-13)
    assert tf.j_integral(1.0, 1, 2.0) == pytest.approx(j_quadrature(1, 1, 2), rel=1e-10)
    assert tf.j_integral(2.0, 1, 2.0) == pytest.approx(8.0 / 15.0, rel=1e-13)
    assert closed_forms.j_integral_q2(2.0, 1) == pytest.approx(8.0 / 15.0, rel=1e-13)
    assert closed_forms.j_integral_factorial(2, 1, 2.0) == pytest.approx(8.0 / 15.0, rel=1e-13)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("q", [1.0, 2.0, 4.0, 10.0])
def test_j_forms_agree_and_match_quadrature(d, q):
    for l in (0.0, 0.5, 1.0, 2.0, 3.0):
        beta_form = tf.j_integral(l, d, q)
        assert beta_form == pytest.approx(j_quadrature(l, d, q), rel=1e-10)
        if l == int(l):
            assert closed_forms.j_integral_factorial(int(l), d, q) == \
                pytest.approx(beta_form, rel=1e-12)
        if q == 2.0:
            assert closed_forms.j_integral_q2(l, d) == pytest.approx(beta_form, rel=1e-12)


def test_j_ratio_recursion():
    # J_{x+l}/J_x = (x+1)...(x+l) / ((d/q+x+1)...(d/q+x+l))
    for d in (1, 2, 3):
        for q in (1.0, 2.0, 10.0):
            for x in (0.0, 1.0, d / q):
                for l in (1, 2):
                    num = 1.0
                    for j in range(1, l + 1):
                        num *= (x + j) / (d / q + x + j)
                    ratio = tf.j_integral(x + l, d, q) / tf.j_integral(x, d, q)
                    assert ratio == pytest.approx(num, rel=1e-12)


def test_j_domain_errors():
    with pytest.raises(ValueError):
        tf.j_integral(-1.0, 1, 2.0)
    with pytest.raises(ValueError):
        closed_forms.j_integral_factorial(-1, 1, 2.0)


@pytest.fixture(scope="module")
def geom_1d(rb87):
    return pc.trap_from_lengths(1, 2, 1e-6, 100e-6, rb87.mass)


def test_eta_l_closed_form(geom_1d, rb87):
    a = rb87.a11
    crit = sc.critical_numbers(geom_1d, a)
    n = 1.0 + 500.0 * (crit.n_lower - 1.0)
    d, q = 1, 2.0
    y = (n - 1.0) / (crit.n_lower - 1.0)
    eta_l_closed = (1.0 / (sc.UNIT_SPHERE_VOLUME[d] * geom_1d.r0**d)) \
        * (2 * q / (d + 2 * q)) * ((d + q) / q) ** (q / (d + q)) * y ** (-d / (d + q))
    assert tf.tf_profile(geom_1d, rb87, n).eta_L == pytest.approx(eta_l_closed, rel=1e-12)


def full_regime_quadrature(d, q):
    """eta_N * (N-1) g / mu_N for the full-regime TF cloud, by direct quadrature."""
    D = 3 - d

    def inner(rho, l):
        top = (1.0 - rho**2) ** (1.0 / q)
        val, _ = quad(lambda r: r ** (d - 1) * (1.0 - rho**2 - r**q) ** l, 0.0, top,
                      epsabs=1e-12, epsrel=1e-12)
        return val

    def shell(l):
        val, _ = quad(lambda rho: rho ** (D - 1) * inner(rho, l), 0.0, 1.0,
                      epsabs=1e-11, epsrel=1e-11)
        return val

    return shell(2) / shell(1)


@pytest.mark.parametrize("d,q", [(1, 2.0), (2, 2.0), (1, 10.0)])
def test_k_integrals(d, q, rb87):
    geom = pc.trap_from_lengths(d, q, 1e-6, 100e-6, rb87.mass)
    a = rb87.a11
    crit = sc.critical_numbers(geom, a)
    n = 1.0 + 100.0 * (crit.n_upper - 1.0)
    assert closed_forms.k_integral(1.0, n, geom, a) == 1.0
    # K_2 = eta_N: its ratio to mu_N/((N-1)g) must match 2D quadrature of the profile
    _, mu, _ = closed_forms.full_tf_pieces(geom, a, n)
    g = pc.coupling_constant(a, rb87.mass)
    ratio = closed_forms.k_integral(2.0, n, geom, a) * (n - 1.0) * g / mu
    assert ratio == pytest.approx(full_regime_quadrature(d, q), rel=1e-8)
    assert ratio == pytest.approx(2.0 / ((3 - d) / 2.0 + d / q + 2.0), rel=1e-12)


def test_k_scaling_exponent(rb87):
    geom = pc.trap_from_lengths(1, 2.0, 1e-6, 100e-6, rb87.mass)
    a = rb87.a11
    crit = sc.critical_numbers(geom, a)
    n1 = 1.0 + 100.0 * (crit.n_upper - 1.0)
    n2 = 1.0 + 200.0 * (crit.n_upper - 1.0)
    k1 = closed_forms.k_integral(2.0, n1, geom, a)
    k2 = closed_forms.k_integral(2.0, n2, geom, a)
    slope = math.log(k2 / k1) / math.log((n2 - 1.0) / (n1 - 1.0))
    expected = -(3 - 1 + 2 / 2.0) / (5 - 1 + 2 / 2.0)  # -(3-d+2d/q)/(5-d+2d/q)
    assert slope == pytest.approx(expected, abs=1e-12)
    # transverse radius grows as the 1/5 power for a 1D harmonic trap
    rho1, _, _ = closed_forms.full_tf_pieces(geom, a, n1)
    rho2, _, _ = closed_forms.full_tf_pieces(geom, a, n2)
    assert rho2 / rho1 == pytest.approx(2.0 ** (1.0 / 5.0), rel=1e-12)


def test_tf_profile_intermediate(geom_1d, rb87):
    a = rb87.a11
    crit = sc.critical_numbers(geom_1d, a)
    n = 1.0 + 1000.0 * (crit.n_lower - 1.0)
    profile = tf.tf_profile(geom_1d, rb87, n, sc.Regime.INTERMEDIATE)
    # TF radius exceeds the crude estimate r0 ((N-1)/(N_L-1))^(1/(d+q)) by ((d+q)/q)^(1/(d+q))
    crude = geom_1d.r0 * 1000.0 ** (1.0 / 3.0)
    assert profile.r_tilde / crude == pytest.approx((3.0 / 2.0) ** (1.0 / 3.0), rel=1e-12)
    # positivity radius matches mu: mu = k r~^q / 2
    assert profile.mu == pytest.approx(0.5 * geom_1d.k * profile.r_tilde**2, rel=1e-12)
    # eta_L relative to the bare value: (4/5)(3/2)^(2/3) * 1000^(-1/3)
    eta_bare = 1.0 / (2.0 * geom_1d.r0)
    expected = 0.8 * (1.5) ** (2.0 / 3.0) * 0.1
    assert profile.eta_L / eta_bare == pytest.approx(expected, rel=1e-12)
    assert profile.eta_N == pytest.approx(profile.eta_L * profile.eta_T, rel=1e-14)


def test_tf_profile_warns_out_of_regime(geom_1d, rb87):
    """Below N_L tf_profile evaluates its closed forms without a warning; it
    refuses only N <= 1 and a regime argument that is not intermediate."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tf.tf_profile(geom_1d, rb87, 1.5, sc.Regime.INTERMEDIATE)  # below N_L
    assert [str(w.message) for w in caught] == []
    with pytest.raises(ValueError):
        tf.tf_profile(geom_1d, rb87, 1.0)
    with pytest.raises(ValueError):
        tf.tf_profile(geom_1d, rb87, 1.5, sc.Regime.BARE)
    with pytest.raises(ValueError):
        tf.tf_profile(geom_1d, rb87, 1e9, sc.Regime.FULL_TF)


def test_tf_profile_warns_where_the_regime_is_not_intermediate(geom_1d, rb87):
    """The regime is scaling.classify_regime's label, recorded where it
    matters; the closed forms warn nowhere, on either side of N_L and N_T."""
    crit = sc.critical_numbers(geom_1d, rb87.a11)
    inter = sc.Regime.INTERMEDIATE
    sup = pc.Superposition.equal()
    for n, regime in ((crit.n_lower, sc.Regime.BARE),
                      (crit.n_lower * (1 + 1e-9), inter),
                      (crit.n_upper, inter),
                      (crit.n_upper * (1 + 1e-9), sc.Regime.FULL_TF)):
        assert sc.classify_regime(geom_1d, rb87.a11, n) == regime
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            tf.tf_profile(geom_1d, rb87, n)
            tf.phase_dynamics(geom_1d, rb87, n, sup)
            gp.loss_budget(rb87, geom_1d, n, sup)
        assert [str(w.message) for w in caught] == [], n


def omega_tau_quadrature(d, q):
    """eta_L / sqrt(integral q0 (q0 - eta_L)^2) on the scaled TF density."""
    s = sc.unit_sphere_area(d)
    norm = s * j_quadrature(1, d, q)
    # q0(u) = (1 - u^q)/norm on the unit ball
    eta_l = s * j_quadrature(2, d, q) / norm**2
    m_int, _ = quad(lambda u: s * u ** (d - 1) * (1 - u**q) / norm
                    * ((1 - u**q) / norm - eta_l) ** 2, 0, 1,
                    epsabs=1e-13, epsrel=1e-13)
    return eta_l / math.sqrt(m_int)


def omega_tau_product(rb87, d, q, y=1000.0):
    """Omega_N tau_pd from phase_dynamics at N - 1 = y (N_L - 1)."""
    geom = pc.trap_from_lengths(d, q, 1e-6, 100e-6, rb87.mass)
    n = 1.0 + y * (sc.critical_numbers(geom, rb87.a11).n_lower - 1.0)
    phase = tf.phase_dynamics(geom, rb87, n, pc.Superposition.equal())
    return phase.omega_N * phase.tau_pd


@pytest.mark.parametrize("d,q", [(1, 2.0), (1, 10.0), (2, 2.0), (3, 2.0), (2, 6.0)])
def test_omega_tau_product(rb87, d, q):
    product = omega_tau_product(rb87, d, q)
    assert product == pytest.approx(math.sqrt(2 * (d + 3 * q) / d), rel=1e-14)
    assert product == pytest.approx(omega_tau_quadrature(d, q), rel=1e-8)


def test_omega_tau_product_carries_no_round_off(rb87):
    # the invariant depends on (d, q) alone, to the last bits, at every N
    for d in (1, 2, 3):
        for q in (1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 10.0):
            invariant = math.sqrt(2.0 * (d + 3.0 * q) / d)
            for y in (1e1, 1e2, 1e3, 1e4):
                assert omega_tau_product(rb87, d, q, y) == \
                    pytest.approx(invariant, rel=1e-15, abs=0.0), (d, q, y)


def test_phase_dynamics(rb87):
    sup = pc.Superposition.equal()
    gamma1, _ = pc.josephson_couplings(rb87)
    for d, q in [(1, 2.0), (1, 10.0)]:
        geom = pc.trap_from_lengths(d, q, 1e-6, 100e-6, rb87.mass)
        crit = sc.critical_numbers(geom, rb87.a11)
        n = 1.0 + 1000.0 * (crit.n_lower - 1.0)
        phase = tf.phase_dynamics(geom, rb87, n, sup)
        assert phase.delta_g == pytest.approx(gamma1, rel=1e-10)
        profile = tf.tf_profile(geom, rb87, n, sc.Regime.INTERMEDIATE)
        assert phase.eta_N == profile.eta_N
        assert phase.omega_N == pytest.approx(
            (n - 1.0) * profile.eta_N * gamma1 / pc.SI.hbar, rel=1e-12)
        product = phase.omega_N * phase.tau_pd
        assert product == pytest.approx(math.sqrt(2 * (d + 3 * q) / d), rel=1e-12)
    # d=1, q=10: the product is sqrt(62), roughly 8
    geom = pc.trap_from_lengths(1, 10.0, 1e-6, 100e-6, rb87.mass)
    n = 1.0 + 1000.0 * (sc.critical_numbers(geom, rb87.a11).n_lower - 1.0)
    phase = tf.phase_dynamics(geom, rb87, n, sup)
    assert phase.omega_N * phase.tau_pd == pytest.approx(math.sqrt(62.0), rel=1e-12)


def test_phase_dynamics_closed_form(rb87):
    # omega_N also equals omega_L (dg/g11) q/(d+2q) ((d+q)/q * y)^(q/(d+q))
    sup = pc.Superposition.equal()
    d, q = 1, 2.0
    geom = pc.trap_from_lengths(d, q, 1e-6, 100e-6, rb87.mass)
    crit = sc.critical_numbers(geom, rb87.a11)
    y = 1000.0
    n = 1.0 + y * (crit.n_lower - 1.0)
    phase = tf.phase_dynamics(geom, rb87, n, sup)
    g11 = pc.coupling_constant(rb87.a11, rb87.mass)
    closed = geom.omega_L * (phase.delta_g / g11) * (q / (d + 2 * q)) \
        * ((d + q) / q * y) ** (q / (d + q))
    assert phase.omega_N == pytest.approx(closed, rel=1e-12)


def test_phase_dynamics_no_signal(typical):
    geom = pc.trap_from_lengths(1, 2, 1e-6, 100e-6, typical.mass)
    with pytest.raises(ValueError, match="no relative-phase signal"):
        tf.phase_dynamics(geom, typical, 1000.0, pc.Superposition.equal())


def test_omega_tau_invariance(rb87):
    # the product depends only on (d, q): not on N or the trap lengths
    sup = pc.Superposition.equal()
    products = []
    for rho0, r0, y in [(1e-6, 100e-6, 300.0), (0.5e-6, 200e-6, 300.0),
                        (1e-6, 100e-6, 4000.0)]:
        geom = pc.trap_from_lengths(1, 2, rho0, r0, rb87.mass)
        n = 1.0 + y * (sc.critical_numbers(geom, rb87.a11).n_lower - 1.0)
        phase = tf.phase_dynamics(geom, rb87, n, sup)
        products.append(phase.omega_N * phase.tau_pd)
    assert products[0] == pytest.approx(products[1], rel=1e-12)
    assert products[0] == pytest.approx(products[2], rel=1e-12)


def test_overlap_gaussian(rb87):
    geom = pc.trap_from_lengths(1, 2, 1e-6, 100e-6, rb87.mass)
    n = 1.0 + 1000.0 * (sc.critical_numbers(geom, rb87.a11).n_lower - 1.0)
    phase = tf.phase_dynamics(geom, rb87, n, pc.Superposition.equal())
    assert tf.overlap_gaussian(phase, 0.0) == 1.0
    ov = tf.overlap_gaussian(phase, phase.tau_pd)
    assert abs(ov) == pytest.approx(math.exp(-0.5), rel=1e-12)
    t = 0.3 / phase.omega_N
    assert cmath.phase(tf.overlap_gaussian(phase, t)) == pytest.approx(-0.3, rel=1e-12)
    with pytest.raises(ValueError):
        tf.overlap_gaussian(phase, -1.0)


def test_fringe_probabilities():
    sup = pc.Superposition.equal()
    p1, p2 = closed_forms.fringe_probabilities(sup, 1.0 + 0.0j)
    assert p1 == pytest.approx(0.5) and p2 == pytest.approx(0.5)
    p1, p2 = closed_forms.fringe_probabilities(sup, -1.0j)
    assert p1 == pytest.approx(1.0) and p2 == pytest.approx(0.0, abs=1e-15)
    single = pc.Superposition(1.0, 0.0)
    p1, p2 = closed_forms.fringe_probabilities(single, -1.0j)
    assert p1 == pytest.approx(0.5)
    with pytest.raises(ValueError):
        closed_forms.fringe_probabilities(sup, 1.5 + 0.0j)
    # visibility 2 c1 c2 |overlap| is largest for the balanced superposition
    vis = [2 * s.c1 * s.c2 for s in
           (pc.Superposition.equal(), pc.Superposition.quadratic_optimal(),
            pc.Superposition(0.9, math.sqrt(1 - 0.81)))]
    assert vis[0] == max(vis)


def test_hard_wall_profile(rb87):
    geom = pc.trap_from_lengths(1, math.inf, 1e-6, 100e-6, rb87.mass)
    n = 5000.0
    profile = tf.tf_profile(geom, rb87, n, sc.Regime.INTERMEDIATE)
    assert profile.r_tilde == geom.r0
    assert profile.eta_L == pytest.approx(1.0 / (2.0 * geom.r0), rel=1e-12)
    phase = tf.phase_dynamics(geom, rb87, n, pc.Superposition.equal())
    assert math.isinf(phase.tau_pd)  # flat density: no phase dispersion
    ov = tf.overlap_gaussian(phase, 1.0)
    assert abs(ov) == pytest.approx(1.0, rel=1e-14)
