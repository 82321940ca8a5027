import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import dense_oracle as oracle
from becmetrology import spins
from becmetrology.physconfig import Superposition
from spin_moments import expectation


def random_dicke(n, rng):
    amp = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    amp /= np.linalg.norm(amp)
    return spins.DickeState(amp)


def rotate(state, axis, angle):
    return spins.DickeState(oracle.rotate_dicke(state.amplitudes, axis, angle))


def test_state_validation():
    with pytest.raises(ValueError):
        spins.DickeState(np.ones(4))  # unnormalized
    with pytest.raises(ValueError):
        spins.prepare_product(0, Superposition.equal())
    # a norm of nan is no norm of 1
    with pytest.raises(ValueError, match="not normalized"):
        spins.DickeState([math.nan, 0.0])
    state = spins.prepare_product(4, Superposition.equal())
    h = spins.generator_eigenvalues("linear_Jz", 4)
    for t in (math.nan, -1.0):
        with pytest.raises(ValueError, match=f"time must be nonnegative, not {t}"):
            spins.evolve(state, h, 1.0, t)
    # a nan or infinite coupling, or an infinite time, made an all-nan state
    # (and a numpy RuntimeWarning) that was refused as not normalized
    for gamma, t in ((math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0), (1.0, math.inf)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="gamma and t must be finite"):
                spins.evolve(state, h, gamma, t)


@pytest.mark.parametrize("Lambda, lam, k_body", [(0.5, math.nan, 1), (math.nan, -0.5, 1),
                                                  (math.inf, -0.5, 1), (0.5, -math.inf, 1),
                                                  (-0.5, 0.5, 1), (0.5, -0.5, 1.5),
                                                  (0.5, -0.5, 0)])
def test_spectrum_bound_needs_finite_ordered_extremes_and_an_integer_order(Lambda, lam, k_body):
    # a nan extreme gave a nan bound, an infinite one a bound of 0.0, and
    # k_body = 1.5 a TypeError inside cramer_rao
    with pytest.raises(ValueError, match="Lambda and lam must be finite|k_body must be"):
        spins.SpectrumBound(Lambda, lam, k_body)
    assert spins.SpectrumBound(0.5, -0.5, np.int64(2)).k_body == 2


def test_prepare_product_small_cases():
    st = spins.prepare_product(1, Superposition.equal())
    assert np.allclose(st.amplitudes, [1 / math.sqrt(2)] * 2)
    st = spins.prepare_product(2, Superposition(1.0, 0.0))
    assert np.allclose(st.amplitudes, [0, 0, 1])  # all atoms up: m = +1
    st = spins.prepare_product(50, Superposition.equal())
    mean, var = expectation(st, "z")
    assert mean == pytest.approx(0.0, abs=1e-12)
    assert var == pytest.approx(12.5, rel=1e-12)


def test_prepare_product_matches_dense():
    rng = np.random.default_rng(7)
    for n in (2, 5, 9):
        c1 = rng.uniform(0.2, 0.9)
        sup = Superposition(c1, math.sqrt(1 - c1**2))
        dicke = spins.prepare_product(n, sup)
        dense = oracle.product_state(n, sup.c1, sup.c2)
        assert np.allclose(oracle.dicke_from_dense(dense), dicke.amplitudes, atol=1e-12)


def test_prepare_product_large_n():
    st = spins.prepare_product(4096, Superposition.equal())
    assert np.vdot(st.amplitudes, st.amplitudes).real == pytest.approx(1.0, abs=1e-12)
    _, var = expectation(st, "z")
    assert var == pytest.approx(1024.0, rel=1e-10)


def test_expectation_easy_cases():
    st = spins.prepare_product(6, Superposition(1.0, 0.0))
    assert expectation(st, "z") == (pytest.approx(3.0), pytest.approx(0.0, abs=1e-12))
    st = spins.prepare_product(10, Superposition.equal())
    mean, var = expectation(st, "z")
    assert (mean, var) == (pytest.approx(0.0, abs=1e-12), pytest.approx(2.5, rel=1e-12))
    mean_x, _ = expectation(st, "x")
    assert mean_x == pytest.approx(5.0, rel=1e-12)


def test_expectation_matches_dense_oracle():
    rng = np.random.default_rng(11)
    for n in (2, 4, 8, 12):
        st = random_dicke(n, rng)
        dense = oracle.dense_from_dicke(st.amplitudes)
        for comp in ("x", "y", "z"):
            mean, var = expectation(st, comp)
            dm, dv = oracle.collective_expectation(dense, comp)
            assert mean == pytest.approx(dm, abs=1e-10)
            assert var == pytest.approx(dv, abs=1e-10)


def test_state_takes_its_atom_number_from_its_amplitudes():
    assert spins.DickeState(np.array([0.6, 0.8j])).n_atoms == 1
    assert spins.cat_state(7).n_atoms == 7
    with pytest.raises(ValueError):
        spins.DickeState(np.eye(2) / math.sqrt(2.0))  # normalized, but not a vector
    with pytest.raises(ValueError):
        spins.DickeState(np.ones(1))  # no atom


def test_rotate_identity_and_single_qubit():
    rng = np.random.default_rng(3)
    st = random_dicke(6, rng)
    for axis in ("x", "y", "z"):
        out = rotate(st, axis, 0.0)
        assert np.allclose(out.amplitudes, st.amplitudes, atol=1e-14)
    up = spins.DickeState(np.array([0.0, 1.0], dtype=complex))  # m = +1/2
    rotated = rotate(up, "y", math.pi / 2)
    assert np.allclose(rotated.amplitudes, [1 / math.sqrt(2)] * 2, atol=1e-12)


def test_rotate_matches_dense_oracle():
    rng = np.random.default_rng(5)
    for n in (2, 5, 8, 12):
        st = random_dicke(n, rng)
        dense = oracle.dense_from_dicke(st.amplitudes)
        for axis in ("x", "y", "z"):
            angle = rng.uniform(-2 * math.pi, 2 * math.pi)
            ours = oracle.rotate_dicke(st.amplitudes, axis, angle)
            theirs = oracle.dicke_from_dense(oracle.rotate(dense, axis, angle))
            assert np.allclose(ours, theirs, atol=1e-10)


def test_rotate_x_maps_y_onto_z():
    rng = np.random.default_rng(13)
    for n in (2, 7, 12, 20):
        st = random_dicke(n, rng)
        before, _ = expectation(st, "y")
        after, _ = expectation(rotate(st, "x", math.pi / 2), "z")
        assert after == pytest.approx(before, abs=1e-10)


def test_norm_preserved():
    rng = np.random.default_rng(17)
    st = random_dicke(30, rng)
    for out in (rotate(st, "y", 0.7),
                spins.evolve(st, spins.generator_eigenvalues("quadratic_Jz2", 30), 0.3, 1.2)):
        assert np.vdot(out.amplitudes, out.amplitudes).real == pytest.approx(1.0, abs=1e-10)


def test_evolve_cases():
    st = spins.prepare_product(4, Superposition.equal())
    h = spins.generator_eigenvalues("linear_Jz", 4)
    assert np.allclose(spins.evolve(st, h, 0.8, 0.0).amplitudes, st.amplitudes)
    # a pi rotation about z flips the equatorial Bloch vector
    one = spins.prepare_product(1, Superposition.equal())
    out = spins.evolve(one, spins.generator_eigenvalues("linear_Jz", 1), math.pi, 1.0)
    assert expectation(out, "x")[0] == pytest.approx(-0.5, rel=1e-12)
    with pytest.raises(ValueError):
        spins.evolve(st, h, 1.0, -1.0)


def test_evolve_quadratic_matches_dense():
    sup = Superposition.quadratic_optimal()
    st = spins.prepare_product(4, sup)
    out = spins.evolve(st, spins.generator_eigenvalues("quadratic_Jz2", 4), 0.3, 1.0)
    dense = oracle.evolve_diagonal(oracle.product_state(4, sup.c1, sup.c2), "quadratic_Jz2", 0.3, 1.0)
    dense /= np.linalg.norm(dense)
    assert np.allclose(out.amplitudes, oracle.dicke_from_dense(dense), atol=1e-10)


QUBIT = spins.SpectrumBound(0.5, -0.5)


def test_ramsey_uncertainty_and_signal():
    assert spins.cramer_rao(QUBIT, 100, 1.0).product_state_reference == \
        pytest.approx(0.1, rel=1e-14)
    assert spins.cramer_rao(QUBIT, 1, 2.0).product_state_reference == \
        pytest.approx(0.5, rel=1e-14)
    res = spins.simulate_ramsey(10, 0.7, 1.0)
    assert res.signal_mean == pytest.approx(5 * math.cos(0.7))
    assert res.signal_variance == pytest.approx(2.5 * math.sin(0.7) ** 2)
    with pytest.raises(ValueError):
        spins.cramer_rao(QUBIT, 10, 0.0)


@pytest.mark.parametrize("n", [2, 10, 100])
def test_simulated_ramsey_matches_formula(n):
    for gamma_t in (0.4, math.pi / 2, 1.2):
        res = spins.simulate_ramsey(n, gamma_t, 1.0)
        assert res.delta_gamma == pytest.approx(1.0 / math.sqrt(n), rel=1e-9)
        assert res.signal_mean == pytest.approx(0.5 * n * math.cos(gamma_t), abs=1e-9 * n)
        assert res.signal_variance == pytest.approx(0.25 * n * math.sin(gamma_t) ** 2,
                                                    abs=1e-9 * n)
        assert res.purity == pytest.approx(1.0, abs=1e-10)


def test_cat_uncertainty_and_signal():
    assert spins.cramer_rao(QUBIT, 100, 1.0).crb == pytest.approx(0.01, rel=1e-14)
    res = spins.simulate_cat(8, 0.3, 1.0)
    assert res.signal_mean == pytest.approx(math.cos(2.4))
    assert res.signal_variance == pytest.approx(math.sin(2.4) ** 2)
    # N = 1 cat is just an equatorial qubit
    one = spins.cramer_rao(QUBIT, 1, 1.0)
    assert one.crb == one.product_state_reference


@pytest.mark.parametrize("n", [3, 8, 20])
def test_simulated_cat_signal(n):
    for gamma_t in (0.15, 0.8):
        res = spins.simulate_cat(n, gamma_t, 1.0)
        assert res.signal_mean == pytest.approx(math.cos(n * gamma_t), abs=1e-10)
        assert res.signal_variance == pytest.approx(math.sin(n * gamma_t) ** 2, abs=1e-10)
        assert res.delta_gamma == pytest.approx(1.0 / n, rel=1e-9)


def test_qfi_pure():
    lin = "linear_Jz"
    st = spins.prepare_product(64, Superposition.equal())
    assert oracle.qfi_pure(st.amplitudes, lin, 1.0) == pytest.approx(64.0, rel=1e-12)
    eig = spins.prepare_product(5, Superposition(1.0, 0.0))
    assert oracle.qfi_pure(eig.amplitudes, lin, 1.0) == pytest.approx(0.0, abs=1e-12)
    cat = spins.cat_state(30)
    assert oracle.qfi_pure(cat.amplitudes, lin, 1.0) == pytest.approx(900.0, rel=1e-12)
    assert 1.0 / math.sqrt(oracle.qfi_pure(cat.amplitudes, lin, 2.0)) == \
        pytest.approx(spins.cramer_rao(QUBIT, 30, 2.0).crb, rel=1e-12)
    # a protocol's generator spread is half the root QFI of its input state
    assert 2.0 * spins.simulate_cat(30, 0.4, 2.0).generator_sd == \
        pytest.approx(math.sqrt(oracle.qfi_pure(cat.amplitudes, lin, 2.0)), rel=1e-12)
    assert 2.0 * spins.simulate_ramsey(64, 0.4, 1.0).generator_sd == \
        pytest.approx(math.sqrt(oracle.qfi_pure(st.amplitudes, lin, 1.0)), rel=1e-12)


def test_classical_fisher_ramsey():
    n, t = 40, 1.0

    def dist(g):
        res = spins.simulate_ramsey(n, g, t)
        # binomial readout distribution reproduced from the simulated state
        st = spins.prepare_product(n, Superposition.equal())
        st = spins.evolve(st, spins.generator_eigenvalues("linear_Jz", n), g, t)
        return np.abs(oracle.rotate_dicke(st.amplitudes, "y", -math.pi / 2)) ** 2

    # hand-differentiated binomial oracle: the information is N t^2 at any phase
    value, excluded_mass = oracle.classical_fisher(dist, math.pi / 2, 1e-5)
    assert value == pytest.approx(n * t**2, rel=1e-6)
    assert excluded_mass < 1e-9
    value, _ = oracle.classical_fisher(dist, 0.8, 1e-5, p_floor=1e-14)
    assert value == pytest.approx(n * t**2, rel=1e-5)

    flat = lambda g: np.full(4, 0.25)
    assert oracle.classical_fisher(flat, 0.3, 1e-4)[0] == pytest.approx(0.0, abs=1e-12)


def test_classical_fisher_bounded_by_qfi():
    rng = np.random.default_rng(23)
    lin = "linear_Jz"
    for _ in range(50):
        n = int(rng.integers(2, 11))
        st = random_dicke(n, rng)
        t = rng.uniform(0.5, 2.0)
        qfi = oracle.qfi_pure(st.amplitudes, lin, t)

        def dist(g, st=st, t=t, n=n):
            ev = spins.evolve(st, spins.generator_eigenvalues(lin, n), g, t)
            return np.abs(oracle.rotate_dicke(ev.amplitudes, "x", math.pi / 2)) ** 2

        step = 1e-5
        value, _ = oracle.classical_fisher(dist, rng.uniform(0, 1), step, p_floor=1e-9)
        assert value <= qfi + 1e-6 + 100 * step**2 * max(qfi, 1.0)


def test_crb_linear():
    qubit = spins.SpectrumBound(0.5, -0.5)
    bounds = spins.cramer_rao(qubit, 100, 1.0)
    assert bounds.crb == pytest.approx(0.01, rel=1e-14)
    assert bounds.product_state_reference == pytest.approx(0.1, rel=1e-14)
    b1 = spins.cramer_rao(qubit, 1, 1.0)
    assert b1.crb == b1.product_state_reference
    for n in (4, 32, 500):
        assert spins.cramer_rao(qubit, 2 * n, 1.0).crb == \
            pytest.approx(0.5 * spins.cramer_rao(qubit, n, 1.0).crb, rel=1e-14)
    with pytest.raises(ValueError):
        spins.cramer_rao(spins.SpectrumBound(1.0, 1.0), 10, 1.0)


def brute_force_norm(lam, Lam, k, n):
    s = np.linspace(n * lam, n * Lam, 200001)
    return float((s**k).max() - (s**k).min())


def test_crb_nonlinear():
    b = spins.SpectrumBound(1.0, 0.5, k_body=2)
    res = spins.cramer_rao(b, 10, 1.0)
    assert res.norm == pytest.approx(75.0, rel=1e-14)
    assert res.crb == pytest.approx(1.0 / 75.0, rel=1e-14)
    # product states reach 1/(t N^(k-1/2) (Lambda-lam)^k)
    assert res.product_state_reference == pytest.approx(1.0 / (10**1.5 * 0.5**2), rel=1e-14)
    # sign-straddling interval with even power: minimum is zero
    qubit2 = spins.SpectrumBound(0.5, -0.5, k_body=2)
    res = spins.cramer_rao(qubit2, 10, 1.0)
    assert res.norm == pytest.approx(25.0, rel=1e-14)
    assert res.crb == pytest.approx(4.0 / 100.0 / 1.0**2, rel=1e-14)
    for bound in (b, qubit2, spins.SpectrumBound(-0.2, -1.0, k_body=3)):
        assert spins.cramer_rao(bound, 7, 1.0).norm == pytest.approx(
            brute_force_norm(bound.lam, bound.Lambda, bound.k_body, 7), rel=1e-8)


def test_quadratic_protocol_short_time_limit():
    for n in (10, 100, 1000):
        t = 0.01 / n
        res = spins.simulate_quadratic(n, 1.0, t)
        exact = 2.0 / (t * math.sqrt(n) * (n - 1))
        assert res.delta_gamma == pytest.approx(exact, rel=2e-4)


def test_quadratic_protocol_matches_dense():
    n, gamma, t = 2, 1.0, 0.01
    res = spins.simulate_quadratic(n, gamma, t)
    sup = Superposition.quadratic_optimal()
    dense = oracle.product_state(n, sup.c1, sup.c2)
    dense /= np.linalg.norm(dense)
    h = 1e-7
    vals = []
    for g in (gamma - h, gamma, gamma + h):
        ev = oracle.evolve_diagonal(dense, "quadratic_Jz2", g, t)
        vals.append(oracle.collective_expectation(ev, "y"))
    slope = (vals[2][0] - vals[0][0]) / (2 * h)
    expected = math.sqrt(vals[1][1]) / abs(slope)
    assert res.delta_gamma == pytest.approx(expected, rel=1e-8)


def test_enhanced_protocol_exact_at_all_times():
    for n in (4, 50, 400):
        for t in (0.001, 0.1, 1.7):
            if abs(math.sin(n * t)) < 1e-3:
                continue
            res = spins.simulate_enhanced(n, 1.0, t)
            assert res.delta_gamma == pytest.approx(n ** (-1.5) / t, rel=1e-9)
            assert res.purity == pytest.approx(1.0, abs=1e-10)


def test_product_nonlinear_protocol_api():
    t_grid = [0.001, 0.002]
    results = spins.product_nonlinear_protocol(100, 1.0, t_grid)
    assert [r.t for r in results] == t_grid
    assert all(r.protocol == "quadratic" for r in results)
    with pytest.raises(ValueError):
        spins.product_nonlinear_protocol(1, 1.0, t_grid)


def test_quadratic_protocol_needs_two_atoms():
    # one atom's J_z^2 is constant: any slope would be round-off
    with pytest.raises(ValueError, match="at least two atoms"):
        spins.simulate_quadratic(1, 1.0, 0.01)


def test_product_nonlinear_protocol_matches_its_per_point_runs():
    # the trace prepares its state once; each point must be what a lone run gives
    n, gamma = 4096, 1.0
    t_grid = [x * 2.0 / (gamma * n) / 24 for x in range(1, 25)]  # the bounds command's grid
    trace = spins.product_nonlinear_protocol(n, gamma, t_grid)
    lone = [spins.simulate_quadratic(n, gamma, t) for t in t_grid]
    assert len(trace) == len(lone) == 24
    for got, want in zip(trace, lone):
        for f in dataclasses.fields(want):
            assert getattr(got, f.name) == getattr(want, f.name), f.name


def test_quadratic_undefined_sensitivity_reported():
    # the J_y slope vanishes at gamma t = 0 exactly
    res = spins.simulate_quadratic(6, 1.0, 0.0)
    assert math.isinf(res.delta_gamma)


def test_subnormal_slope_gives_infinite_delta_gamma_without_a_warning():
    # at N gamma t = 2.2e-311 the slope is subnormal; the sensitivity is 0.4
    # over it, past the largest float, and a numpy division by it warned
    state = spins.prepare_product(1, Superposition(math.cos(1.0), math.sin(1.0)))
    res = spins._simulate("enhanced", state, "enhanced_NJz", 2.225073858507e-311, 1.0,
                          spins._extremal_coherence)  # 2 J_x at N = 1
    assert 0.0 < abs(res.signal_slope) < 1e-300
    assert math.isinf(res.delta_gamma)


def test_quadratic_protocol_and_bound_at_a_long_time():
    # gamma t N = 0.1 at gamma = 1e-306: t h reaches 1e308 and t ||h|| 1e309, so
    # a slope or bound formed from t * h overflowed.  Both scale as 1/t.
    n = 4096
    pair = spins.SpectrumBound(0.5, -0.5, k_body=2)
    for gamma in (1e-306, 1e-307):
        t = 0.1 / (gamma * n)
        res, ref = spins.simulate_quadratic(n, gamma, t), spins.simulate_quadratic(n, 1.0, 0.1 / n)
        assert res.delta_gamma * t == pytest.approx(ref.delta_gamma * ref.t, rel=1e-12)
        bound, ref_bound = spins.cramer_rao(pair, n, t), spins.cramer_rao(pair, n, ref.t)
        assert bound.crb * t == pytest.approx(ref_bound.crb * ref.t, rel=1e-9)
        assert bound.product_state_reference * t == \
            pytest.approx(ref_bound.product_state_reference * ref.t, rel=1e-9)


def test_purity():
    st = spins.prepare_product(40, Superposition.quadratic_optimal())
    assert spins.single_qubit_purity(st) == pytest.approx(1.0, abs=1e-10)
    # the N-amplified linear coupling never entangles
    for t in (0.05, 0.4, 2.0):
        res = spins.simulate_enhanced(40, 1.0, t)
        assert res.purity == pytest.approx(1.0, abs=1e-10)
    # the quadratic coupling does
    res = spins.simulate_quadratic(20, 1.0, 0.1 / 20)
    assert res.purity < 1.0 - 1e-6


def test_purity_matches_dense():
    sup = Superposition.quadratic_optimal()
    for n in (4, 8, 12):
        st = spins.prepare_product(n, sup)
        ev = spins.evolve(st, spins.generator_eigenvalues("quadratic_Jz2", n), 0.1, 1.0)
        dense = oracle.evolve_diagonal(oracle.product_state(n, sup.c1, sup.c2), "quadratic_Jz2", 0.1, 1.0)
        dense /= np.linalg.norm(dense)
        assert spins.single_qubit_purity(ev) == \
            pytest.approx(oracle.single_qubit_purity(dense), abs=1e-10)


def test_scaling_slopes():
    ns = [8 * 2**k for k in range(8)]  # 8 ... 1024
    gamma, t = 1.0, 1.0
    ramsey = [spins.simulate_ramsey(n, gamma, t).delta_gamma for n in ns]
    cat = [spins.simulate_cat(n, gamma, t).delta_gamma for n in ns]
    enhanced = [spins.simulate_enhanced(n, gamma, t).delta_gamma for n in ns]
    assert spins.fit_loglog_slope(ns, ramsey) == pytest.approx(-0.5, abs=0.02)
    assert spins.fit_loglog_slope(ns, cat) == pytest.approx(-1.0, abs=0.02)
    assert spins.fit_loglog_slope(ns, enhanced) == pytest.approx(-1.5, abs=0.02)
    # short-time quadratic: exact finite-N law is 2/(t sqrt(N) (N-1)); its slope
    # over this window deviates from -3/2 by the (N-1) correction
    quad = [spins.simulate_quadratic(n, gamma, 0.05 / n).delta_gamma * (0.05 / n)
            for n in ns]
    theory = [2.0 / (math.sqrt(n) * (n - 1)) for n in ns]
    assert spins.fit_loglog_slope(ns, quad) == \
        pytest.approx(spins.fit_loglog_slope(ns, theory), abs=2e-3)
    ns_big = [64 * 2**k for k in range(7)]  # 64 ... 4096: asymptotic window
    quad_big = [spins.simulate_quadratic(n, gamma, 0.05 / n).delta_gamma * (0.05 / n)
                for n in ns_big]
    assert spins.fit_loglog_slope(ns_big, quad_big) == pytest.approx(-1.5, abs=0.02)


def test_mandelstam_tamm_and_crb_ordering():
    qubit = spins.SpectrumBound(0.5, -0.5)
    for n in (2, 16, 128):
        for res, bound in [
            (spins.simulate_ramsey(n, 0.9, 1.0), spins.cramer_rao(qubit, n, 1.0).crb),
            (spins.simulate_cat(n, 0.9, 1.0), spins.cramer_rao(qubit, n, 1.0).crb),
            (spins.simulate_quadratic(n, 1.0, 0.05 / n),
             spins.cramer_rao(spins.SpectrumBound(0.5, -0.5, k_body=2), n, 0.05 / n).crb),
        ]:
            assert res.delta_gamma >= bound - 1e-9
            assert res.delta_gamma * res.generator_sd >= 0.5 - 1e-9


@pytest.mark.parametrize("n", [100, 1000, 4000])
def test_protocols_stable_at_small_phase(n):
    # variances must be two-pass: <A^2> - <A>^2 cancels to round-off at these
    # phases and can report delta_gamma below the Cramer-Rao bound
    t = 2.0
    for phase in (1e-3, 1e-5, 1e-7):
        ramsey = spins.simulate_ramsey(n, phase / t, t)
        assert abs(ramsey.delta_gamma * t * math.sqrt(n) - 1.0) <= 1e-6
        enhanced = spins.simulate_enhanced(n, phase / (t * n), t)
        assert abs(enhanced.delta_gamma * t * n**1.5 - 1.0) <= 1e-6
        for res in (ramsey, enhanced):
            assert res.delta_gamma * res.generator_sd >= 0.5 * (1.0 - 1e-9)


def test_protocols_memory_linear_in_n():
    # a dense (N+1)^2 basis at this N would need terabytes
    n = 10**6
    tracemalloc.start()
    try:
        ramsey = spins.simulate_ramsey(n, 1.0, 1.0)
        enhanced = spins.simulate_enhanced(n, 1e-9, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 250e6
    assert ramsey.delta_gamma == pytest.approx(1.0 / math.sqrt(n), rel=1e-9)
    assert ramsey.signal_mean == pytest.approx(0.5 * n * math.cos(1.0), rel=1e-9)
    assert ramsey.signal_variance == pytest.approx(0.25 * n * math.sin(1.0) ** 2, rel=1e-9)
    assert enhanced.delta_gamma == pytest.approx(n**-1.5, rel=1e-9)
    assert enhanced.signal_mean == pytest.approx(0.5 * n * math.cos(1e-3), rel=1e-9)
    assert enhanced.signal_variance == pytest.approx(0.25 * n * math.sin(1e-3) ** 2, rel=1e-9)
    for res in (ramsey, enhanced):
        assert res.purity == pytest.approx(1.0, abs=1e-12)
