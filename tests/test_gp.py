import cmath
import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

import tf_closed_forms as closed_forms
from becmetrology import cli, gp
from becmetrology import physconfig as pc
from becmetrology import scaling as sc
from becmetrology import thomas_fermi as tf

HBAR = pc.SI.hbar


@pytest.fixture(scope="module")
def geom_rb(rb87):
    return pc.trap_from_lengths(1, 2, 1e-6, 100e-6, rb87.mass)


@pytest.fixture(scope="module")
def tf_state(geom_rb, rb87):
    """Shared y = 1000 ground state for the two-mode tests."""
    crit = sc.critical_numbers(geom_rb, rb87.a11)
    n = 1.0 + 1000.0 * (crit.n_lower - 1.0)
    grid = gp.default_grid(geom_rb, rb87, n, points=1024)
    return n, gp.ground_state(geom_rb, rb87, n, grid)


def test_grid_validation():
    with pytest.raises(ValueError):
        gp.Grid(dimension=1, points=32, extent=1.0)
    with pytest.raises(ValueError):
        gp.Grid(dimension=4, points=128, extent=1.0)
    with pytest.raises(ValueError):
        gp.Grid(dimension=1, points=128, extent=-1.0)
    with pytest.raises(ValueError, match="integer"):
        gp.Grid(dimension=1, points=100.5, extent=1.0)
    assert gp.Grid(dimension=1, points=np.int64(128), extent=1.0).coordinates().size == 128
    grid = gp.Grid(dimension=1, points=128, extent=1.0)
    assert grid.coordinates()[0] == -1.0
    assert grid.weights().sum() == pytest.approx(2.0)
    radial = gp.Grid(dimension=3, points=128, extent=1.0)
    assert radial.weights().sum() == pytest.approx(4 * math.pi / 3, rel=1e-4)


@pytest.mark.parametrize("extent", [math.nan, math.inf])
def test_grid_rejects_a_nonfinite_extent(extent):
    with pytest.raises(ValueError, match="finite"):
        gp.Grid(dimension=1, points=512, extent=extent)


def test_ground_state_noninteracting_1d(geom_rb, rb87):
    res = gp.ground_state(geom_rb, rb87, 1.0)
    sigma = math.sqrt(HBAR / (2 * rb87.mass * geom_rb.omega_L))
    eta_exact = 1.0 / (2.0 * math.sqrt(math.pi) * sigma)
    assert res.eta_longitudinal == pytest.approx(eta_exact, rel=1e-3)
    assert res.mu == pytest.approx(0.5 * HBAR * geom_rb.omega_L, rel=1e-3)


def test_ground_state_noninteracting_3d(rb87):
    geom = pc.trap_from_lengths(3, 2, 1e-6, 100e-6, rb87.mass)
    res = gp.ground_state(geom, rb87, 1.0)
    omega = math.sqrt(geom.k / rb87.mass)
    sigma = math.sqrt(HBAR / (2 * rb87.mass * omega))
    assert res.mu == pytest.approx(1.5 * HBAR * omega, rel=1e-3)
    assert res.eta_longitudinal == pytest.approx((4 * math.pi * sigma**2) ** -1.5, rel=1e-3)
    assert res.eta_n == res.eta_longitudinal  # no transverse dimensions


def test_ground_state_matches_tf_1d(geom_rb, rb87, tf_state):
    n, res = tf_state
    profile = tf.tf_profile(geom_rb, rb87, n, sc.Regime.INTERMEDIATE)
    assert res.eta_n == pytest.approx(profile.eta_N, rel=0.05)
    assert res.mu == pytest.approx(profile.mu, rel=0.05)
    # density matches the TF profile inside the cloud (away from the edge layer)
    x = res.field.grid.coordinates()
    dens = np.abs(res.field.values) ** 2
    geff = pc.coupling_constant(rb87.a11, rb87.mass) * (n - 1) * sc.eta_transverse(geom_rb)
    tf_dens = np.maximum(profile.mu - 0.5 * geom_rb.k * x**2, 0.0) / geff
    inside = np.abs(x) < 0.8 * profile.r_tilde
    assert np.max(np.abs(dens[inside] / tf_dens[inside] - 1.0)) < 0.03


@pytest.mark.parametrize("d,y,rel", [(2, 1000.0, 0.02), (3, 5000.0, 0.02)])
def test_ground_state_matches_tf_radial(rb87, d, y, rel):
    geom = pc.trap_from_lengths(d, 2, 1e-6, 100e-6, rb87.mass)
    crit = sc.critical_numbers(geom, rb87.a11)
    n = 1.0 + y * (crit.n_lower - 1.0)
    res = gp.ground_state(geom, rb87, n)
    profile = tf.tf_profile(geom, rb87, n, sc.Regime.INTERMEDIATE)
    assert res.eta_n == pytest.approx(profile.eta_N, rel=rel)


def test_ground_state_grid_refinement(geom_rb, rb87):
    crit = sc.critical_numbers(geom_rb, rb87.a11)
    n = 1.0 + 100.0 * (crit.n_lower - 1.0)
    coarse = gp.ground_state(geom_rb, rb87, n,
                             gp.default_grid(geom_rb, rb87, n, points=256))
    fine = gp.ground_state(geom_rb, rb87, n,
                           gp.default_grid(geom_rb, rb87, n, points=512))
    assert coarse.eta_n == pytest.approx(fine.eta_n, rel=1e-4)
    assert coarse.mu == pytest.approx(fine.mu, rel=1e-4)


def test_ground_state_errors_and_warnings(geom_rb, rb87, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(gp, "_MAX_ITERATIONS", 10)
        with pytest.raises(gp.ConvergenceError) as err:
            gp.ground_state(geom_rb, rb87, 500.0)
    assert err.value.residual is not None
    with pytest.warns(UserWarning, match="extent"):
        crit = sc.critical_numbers(geom_rb, rb87.a11)
        n = 1.0 + 1000.0 * (crit.n_lower - 1.0)
        small = gp.Grid(dimension=1, points=512,
                        extent=1.0 * tf.tf_profile(geom_rb, rb87, n).r_tilde)
        gp.ground_state(geom_rb, rb87, n, small)
    with pytest.raises(ValueError):
        gp.ground_state(geom_rb, rb87, 100.0, gp.Grid(dimension=2, points=128, extent=1e-3))


def test_full_tf_ground_state_warns_once_from_the_solver(rb87):
    # r0 = 3 rho0 puts N_T near 1696; at 10 N_T the transverse state is no
    # longer the Gaussian that the reduced equation assumes, and only the
    # solver says so: the grid's TF radius and the TF start guess do not
    geom = pc.trap_from_lengths(1, 2.0, 1.0 * pc.UM, 3.0 * pc.UM, rb87.mass)
    n = 10.0 * sc.critical_numbers(geom, rb87.a11).n_upper
    assert sc.classify_regime(geom, rb87.a11, n) == sc.Regime.FULL_TF
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = gp.ground_state(geom, rb87, n)
    assert [(w.category, str(w.message)) for w in caught] == \
        [(UserWarning, f"N = {n:.6g} is above N_T, where the transverse state is no longer "
                       "the Gaussian that the reduced GP equation assumes")]
    assert caught[0].filename == gp.__file__
    assert res.residual < 1e-10


def test_ground_state_pinned_solution(geom_rb, rb87):
    # The reference is solver-independent: the Delta-tau -> 0 Richardson limit
    # (bias proportional to Delta-tau) of the normalized gradient flow this
    # minimizer replaced, from its Delta-tau_0/16 and Delta-tau_0/64 rungs
    # (eta 8.9597801745663e13 and 8.9552064984010e13, mu 1.0895055307367e-34
    # and 1.0892837904761e-34).  The flow's last rung alone missed it by 6.8e-4.
    crit = sc.critical_numbers(geom_rb, rb87.a11)
    n = 1.0 + 100.0 * (crit.n_lower - 1.0)
    res = gp.ground_state(geom_rb, rb87, n, gp.default_grid(geom_rb, rb87, n, points=512))
    assert res.steps == 26
    assert res.eta_n == pytest.approx(8.95368194e13, rel=1e-6)
    # the discrete minimum that the kinetic-only shift <T> reached in 86 steps
    assert res.eta_n == pytest.approx(89536756522690.28, rel=1e-10)
    assert res.mu == pytest.approx(1.08920988e-34, rel=1e-6)
    assert res.residual < 1e-10
    assert res.field.values.dtype == np.complex128


@pytest.mark.parametrize("y", [100.0, 1000.0])
def test_ground_state_grid_converged(geom_rb, rb87, y):
    # the spectral discretization is converged at 512 points; only a solver
    # stopping short of the discrete minimum would show a dependence
    crit = sc.critical_numbers(geom_rb, rb87.a11)
    n = 1.0 + y * (crit.n_lower - 1.0)
    coarse, *finer = (gp.ground_state(geom_rb, rb87, n,
                                      gp.default_grid(geom_rb, rb87, n, points=p))
                      for p in (512, 1024, 2048))
    for res in finer:
        assert res.eta_n == pytest.approx(coarse.eta_n, rel=1e-9)
        assert res.mu == pytest.approx(coarse.mu, rel=1e-9)


@pytest.mark.parametrize("d, steps, eta_n", [(2, 59, 471824201060.2999),
                                              (3, 26, 5994339578.036011)])
def test_radial_ground_state_pinned(rb87, d, steps, eta_n):
    # the benchmark's radial states (N/N_L = 316, 512 points); the pinned
    # values came from LAPACK's dgttrf/dgttrs preconditioner, which the
    # elimination on Python floats repeats operation for operation
    geom = pc.trap_from_lengths(d, 2, 1e-6, 100e-6, rb87.mass)
    n = 1.0 + 316.0 * (sc.critical_numbers(geom, rb87.a11).n_lower - 1.0)
    res = gp.ground_state(geom, rb87, n, gp.default_grid(geom, rb87, n, points=512))
    assert res.steps == steps
    assert res.eta_n == pytest.approx(eta_n, rel=1e-12)


def test_default_sweep_iteration_budget():
    # the five default 1D states (512 points) took 1010 iterations with the
    # preconditioner shifted by <T> alone and 217 with max(<T>, <g psi^2>)
    # from the quantile start guess; from the Thomas-Fermi profile they take 169
    cfg = cli.RunConfig()
    geom = cfg.trap()
    n_lower = sc.critical_numbers(geom, cfg.species.a11).n_lower
    steps = 0
    for y in cfg.n_over_nl:
        n = 1.0 + y * (n_lower - 1.0)
        grid = gp.default_grid(geom, cfg.species, n, points=cfg.grid_points,
                               extent_factor=cfg.grid_extent_factor)
        steps += gp.ground_state(geom, cfg.species, n, grid).steps
    assert steps <= 180


@pytest.mark.parametrize("y, steps, eta_n, mu", [
    (100.0, 26, 89536756524605.27, 1.0892096489210248e-34),
    (178.0, 29, 74011227826134.8, 1.598693825396626e-34),
    (316.0, 33, 61179272862237.06, 2.343145543523681e-34),
    (562.0, 38, 50519379776155.48, 3.4389631786382645e-34),
    (1000.0, 43, 41700397435462.59, 5.049344727676951e-34)])
def test_default_sweep_states_pinned(y, steps, eta_n, mu):
    # each default 1D state (512 points), pinned tighter than the budget
    # above: a change to the minimizer's arithmetic that keeps its algorithm
    # moves them only by rounding
    cfg = cli.RunConfig()
    geom = cfg.trap()
    n = 1.0 + y * (sc.critical_numbers(geom, cfg.species.a11).n_lower - 1.0)
    grid = gp.default_grid(geom, cfg.species, n, points=cfg.grid_points,
                           extent_factor=cfg.grid_extent_factor)
    res = gp.ground_state(geom, cfg.species, n, grid)
    assert res.steps == steps
    assert res.eta_n == pytest.approx(eta_n, rel=1e-12)
    assert res.mu == pytest.approx(mu, rel=1e-12)
    assert res.residual < 1e-10


def _same_bits(batched, alone):
    return np.array_equal(batched.field.values, alone.field.values) and \
        (batched.eta_n, batched.mu, batched.residual, batched.steps) == \
        (alone.eta_n, alone.mu, alone.residual, alone.steps)


def test_ground_states_batch_is_bit_neutral_1d(geom_rb, rb87):
    # a bare N, which starts from the quantile guess, and Thomas-Fermi rows
    # that leave the batch at different iterations
    crit = sc.critical_numbers(geom_rb, rb87.a11)
    n_list = [1.0 + y * (crit.n_lower - 1.0) for y in (0.01, 10.0, 100.0, 1000.0)]
    assert sc.classify_regime(geom_rb, rb87.a11, n_list[0]) == sc.Regime.BARE
    grids = [gp.default_grid(geom_rb, rb87, n, points=256) for n in n_list]
    batch = gp.ground_states(geom_rb, rb87, n_list, grids)
    assert len({res.steps for res in batch}) == len(batch)
    for n, grid, res in zip(n_list, grids, batch):
        assert _same_bits(res, gp.ground_state(geom_rb, rb87, n, grid))


@pytest.mark.filterwarnings("ignore:.*healing length")
@pytest.mark.parametrize("d, q, ys, points", [
    (2, 2.0, (100.0, 316.0), 256),
    # both states first converge to one with a node and restart together
    (3, 10.0, (5e3, 1e4), 64)])
def test_ground_states_batch_is_bit_neutral_radial(rb87, d, q, ys, points):
    geom = pc.trap_from_lengths(d, q, 1e-6, 100e-6, rb87.mass)
    n_list = [1.0 + y * (sc.critical_numbers(geom, rb87.a11).n_lower - 1.0) for y in ys]
    grids = [gp.default_grid(geom, rb87, n, points=points) for n in n_list]
    batch = gp.ground_states(geom, rb87, n_list, grids)
    for n, grid, res in zip(n_list, grids, batch):
        assert _same_bits(res, gp.ground_state(geom, rb87, n, grid))


def test_ground_states_rejects_empty_and_mixed_batches(geom_rb, rb87):
    grid = gp.Grid(dimension=1, points=128, extent=4.0 * geom_rb.r0)
    with pytest.raises(ValueError, match="at least one atom number"):
        gp.ground_states(geom_rb, rb87, [], [])
    with pytest.raises(ValueError, match="point count"):
        gp.ground_states(geom_rb, rb87, [10.0, 20.0],
                         [grid, dataclasses.replace(grid, points=256)])
    with pytest.raises(ValueError, match="dimension"):
        gp.ground_states(geom_rb, rb87, [10.0, 20.0],
                         [grid, dataclasses.replace(grid, dimension=2)])


@pytest.mark.parametrize("n_atoms", [0.5, 0.0])
def test_ground_state_needs_at_least_one_atom(geom_rb, rb87, n_atoms):
    with pytest.raises(ValueError, match=f"N = {n_atoms:g}: need at least one atom"):
        gp.ground_state(geom_rb, rb87, n_atoms)


def _fresh_residual(res, geom, species):
    """|H psi - mu psi| / mu recomputed from a returned state: T through np.fft
    on 1D grids, as the flux form of the radial Laplacian on radial ones."""
    grid = res.field.grid
    psi, w, x = res.field.values.real, grid.weights(), grid.coordinates()
    c = HBAR**2 / (2.0 * species.mass)
    if grid.dimension == 1:
        k = 2.0 * math.pi * np.fft.rfftfreq(grid.points, grid.spacing)
        t_psi = np.fft.irfft(c * k**2 * np.fft.rfft(psi), n=grid.points)
    else:
        # flux through the cell edges 0, dr, ..., extent; psi = 0 beyond the grid
        d, dr = grid.dimension, grid.spacing
        flux = (np.arange(grid.points + 1) * dr) ** (d - 1) * \
            np.diff(psi, prepend=psi[0], append=0.0)
        t_psi = -c / dr**2 * np.diff(flux) / x ** (d - 1)
    geff = pc.coupling_constant(species.a11, species.mass) * (res.field.n_atoms - 1.0) * \
        sc.eta_transverse(geom)
    h_psi = t_psi + 0.5 * geom.k * np.abs(x) ** geom.q * psi + geff * psi**3
    mu = np.sum(w * psi * h_psi)
    return math.sqrt(np.sum(w * (h_psi - mu * psi)**2)) / mu


def _solver_residual(res, geom, species):
    """The residual of a returned state in the minimizer's own arithmetic, from
    (T + V) psi formed afresh by its kinetic operator."""
    grid = res.field.grid
    psi, w = res.field.values.real[None], grid.weights()
    kinetic = (gp._SpectralKinetic if grid.dimension == 1 else gp._RadialKinetic)(
        [grid], species.mass, HBAR)
    linear = kinetic.apply(psi)
    linear += gp._potential(geom, grid.coordinates()) * psi
    geff = pc.coupling_constant(species.a11, species.mass) * (res.field.n_atoms - 1.0) * \
        sc.eta_transverse(geom)
    gradient = psi * psi
    gradient *= psi
    gradient *= geff
    gradient += linear
    mu = np.vecdot(w * psi, gradient, keepdims=True)
    gradient -= mu * psi
    return float((np.sqrt(np.vecdot(w * gradient, gradient, keepdims=True)) / mu)[0, 0])


@pytest.fixture(scope="module")
def q10_state(rb87):
    """1D q = 10 at N/N_L = 1e4 on 2048 points."""
    geom = pc.trap_from_lengths(1, 10, 1e-6, 100e-6, rb87.mass)
    n = 1.0 + 1e4 * (sc.critical_numbers(geom, rb87.a11).n_lower - 1.0)
    return geom, gp.ground_state(geom, rb87, n, gp.default_grid(geom, rb87, n, points=2048))


def test_q10_state_from_the_thomas_fermi_start(rb87, q10_state):
    # the quantile start guess took 1465 iterations; the Thomas-Fermi profile 658
    assert q10_state[1].steps <= 900


@pytest.mark.parametrize("case", ["default sweep's largest", "d = 3 benchmark", "q = 10"])
def test_carried_h_psi_does_not_certify_convergence(rb87, q10_state, case):
    # the minimizer carries (T + V) psi along its steps; the state must hold
    # for H psi formed afresh, and the residual it reports must be that of a
    # fresh H psi, to the bit
    if case == "default sweep's largest":
        cfg = cli.RunConfig()
        geom = cfg.trap()
        n = 1.0 + max(cfg.n_over_nl) * (sc.critical_numbers(geom, rb87.a11).n_lower - 1.0)
        res = gp.ground_state(geom, cfg.species, n,
                              gp.default_grid(geom, cfg.species, n, points=cfg.grid_points,
                                              extent_factor=cfg.grid_extent_factor))
    elif case == "d = 3 benchmark":
        geom = pc.trap_from_lengths(3, 2, 1e-6, 100e-6, rb87.mass)
        n = 1.0 + 316.0 * (sc.critical_numbers(geom, rb87.a11).n_lower - 1.0)
        res = gp.ground_state(geom, rb87, n, gp.default_grid(geom, rb87, n, points=512))
    else:
        geom, res = q10_state
    assert _fresh_residual(res, geom, rb87) < 1e-10
    assert _solver_residual(res, geom, rb87) == res.residual


@pytest.mark.filterwarnings("ignore:.*healing length")
@pytest.mark.parametrize("d, noded_energy", [(2, 5.403191055180383e-33),
                                             (3, 3.2375556468072464e-33)])
def test_radial_ground_state_has_no_node(rb87, d, noded_energy):
    # on 64 points at q = 10, N/N_L = 1e4 the minimizer first converges to an
    # excited stationary state with a node (3.4e-1 and 3.6e-2 of its norm on
    # the minority sign) at noded_energy; the restart from |psi| leaves it
    geom = pc.trap_from_lengths(d, 10.0, 1.0 * pc.UM, 100.0 * pc.UM, rb87.mass)
    n = 1.0 + 1e4 * (sc.critical_numbers(geom, rb87.a11).n_lower - 1.0)
    grid = gp.default_grid(geom, rb87, n, points=64)
    res = gp.ground_state(geom, rb87, n, grid)
    psi, w = res.field.values.real, grid.weights()
    minority = min(np.sum(w * np.minimum(psi, 0.0)**2), np.sum(w * np.maximum(psi, 0.0)**2))
    assert minority / np.sum(w * psi**2) < 1e-12
    geff = pc.coupling_constant(rb87.a11, rb87.mass) * (n - 1.0) * sc.eta_transverse(geom)
    assert res.mu - 0.5 * geff * res.eta_longitudinal < 0.99 * noded_energy
    assert res.residual < 1e-10


def test_radial_state_that_keeps_a_node_raises(rb87, monkeypatch):
    monkeypatch.setattr(gp, "_NODE_SHARE", -1.0)  # every state counts as noded
    geom = pc.trap_from_lengths(2, 2, 1e-6, 100e-6, rb87.mass)
    with pytest.raises(gp.ConvergenceError, match=r"N = 1: the stationary state has a node"):
        gp.ground_state(geom, rb87, 1.0, gp.Grid(dimension=2, points=64, extent=4.0 * geom.r0))


def test_fine_radial_grid_reaches_the_default_tolerance(rb87, monkeypatch):
    # on 4096 points, T psi summed as diagonal plus off-diagonals cancels to a
    # round-off that held the residual at 1.4e-10 for 20000 iterations; in
    # flux form the state converges in 23
    monkeypatch.setattr(gp, "_MAX_ITERATIONS", 2000)
    geom = pc.trap_from_lengths(2, 2, 1e-6, 100e-6, rb87.mass)
    n = 1.0 + 0.01 * (sc.critical_numbers(geom, rb87.a11).n_lower - 1.0)
    res = gp.ground_state(geom, rb87, n, gp.default_grid(geom, rb87, n, points=4096))
    assert res.residual < 1e-10


def test_under_resolved_1d_state_warns(geom_rb, rb87):
    # at 64 points the N/N_L = 1000 state leaves 2.8e-6 of its spectral power
    # in the top eighth of wavenumbers, and eta_N is 1.6e-4 off
    crit = sc.critical_numbers(geom_rb, rb87.a11)
    n = 1.0 + 1000.0 * (crit.n_lower - 1.0)
    with pytest.warns(UserWarning, match=rf"N = {n:.6g}: grid spacing does not resolve"):
        gp.ground_state(geom_rb, rb87, n, gp.default_grid(geom_rb, rb87, n, points=64))


@pytest.mark.parametrize("d, points, extent_factor, warning", [
    (1, 512, 1.2, "grid extent is below 1.5x the TF radius"),
    # 64 points at N/N_L = 1000 space 1.4 healing lengths apart, 512 points 0.18
    (2, 64, 2.0, "grid spacing does not resolve the healing length")])
def test_grid_checks_warn_on_a_grid_built_to_trip_them(rb87, d, points, extent_factor,
                                                       warning):
    geom = pc.trap_from_lengths(d, 2.0, 1e-6, 100e-6, rb87.mass)
    n = 1.0 + 1000.0 * (sc.critical_numbers(geom, rb87.a11).n_lower - 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gp.ground_state(geom, rb87, n)  # on default_grid's grid
    grid = gp.default_grid(geom, rb87, n, points=points, extent_factor=extent_factor)
    with pytest.warns(UserWarning, match=rf"N = {n:.6g}: {warning}"):
        gp.ground_state(geom, rb87, n, grid)


@pytest.mark.parametrize("shape", [(2, 256), (2, 125)])
def test_bound_complex_fft_kernels_give_numpy_fft_bits(shape):
    # gp calls numpy's private pocketfft gufuncs; a numpy release that moves
    # or changes them fails here
    rng = np.random.default_rng(11)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    assert np.array_equal(gp._fft(a, 1.0, np.empty_like(a)), np.fft.fft(a))
    assert np.array_equal(gp._ifft(a, 1.0, np.empty_like(a)), np.fft.ifft(a, norm="forward"))


@pytest.mark.parametrize("points, rfft", [(512, "_rfft_n_even"), (129, "_rfft_n_odd")])
def test_bound_real_fft_kernels_give_numpy_fft_bits(points, rfft):
    x = np.random.default_rng(12).standard_normal(points)
    spectrum = getattr(gp, rfft)(x, 1.0, np.empty(points // 2 + 1, dtype=complex))
    assert np.array_equal(spectrum, np.fft.rfft(x))
    assert np.array_equal(gp._irfft(spectrum, 1.0 / points, np.empty(points)),
                          np.fft.irfft(spectrum, n=points))


class _NumpyFFTKinetic(gp._SpectralKinetic):
    """gp._SpectralKinetic through the np.fft wrappers."""

    def _diagonal(self, factor, psi):
        return np.fft.irfft(factor * np.fft.rfft(psi), n=psi.shape[-1])


@pytest.mark.parametrize("y, points", [(100.0, 129), (1000.0, 512)])
def test_ground_state_on_bound_kernels_matches_numpy_fft_bits(geom_rb, rb87, monkeypatch,
                                                              y, points):
    # an odd point count runs the odd real transform inside the solver
    n = 1.0 + y * (sc.critical_numbers(geom_rb, rb87.a11).n_lower - 1.0)
    grid = gp.default_grid(geom_rb, rb87, n, points=points)
    bound = gp.ground_state(geom_rb, rb87, n, grid)
    monkeypatch.setattr(gp, "_SpectralKinetic", _NumpyFFTKinetic)
    wrapped = gp.ground_state(geom_rb, rb87, n, grid)
    assert bound.steps == wrapped.steps
    assert bound.residual < 1e-10
    assert np.array_equal(bound.field.values, wrapped.field.values)
    assert (bound.mu, bound.eta_n) == (wrapped.mu, wrapped.eta_n)


def test_ground_states_name_the_atom_number(geom_rb, rb87, monkeypatch):
    monkeypatch.setattr(gp, "_MAX_ITERATIONS", 10)
    with pytest.raises(gp.ConvergenceError, match=r"N = 500:") as err:
        gp.ground_state(geom_rb, rb87, 500.0)
    assert err.value.residual is not None and err.value.residual > 0
    crit = sc.critical_numbers(geom_rb, rb87.a11)
    n = 1.0 + 1000.0 * (crit.n_lower - 1.0)
    small = gp.Grid(dimension=1, points=512, extent=tf.tf_profile(geom_rb, rb87, n).r_tilde)
    with pytest.warns(UserWarning, match=rf"N = {n:.6g}: grid extent"), \
            pytest.raises(gp.ConvergenceError):
        gp.ground_state(geom_rb, rb87, n, small)


def test_a_stalled_ground_state_fails_fast(geom_rb, rb87):
    # on 4096 points the bare state's residual reaches a round-off floor above
    # 1e-10 within 200 iterations and never halves again
    n = 1.0 + 0.01 * (sc.critical_numbers(geom_rb, rb87.a11).n_lower - 1.0)
    grid = gp.default_grid(geom_rb, rb87, n, points=4096)
    with pytest.raises(gp.ConvergenceError, match=rf"N = {n:.6g}: no ground state") as err:
        gp.ground_state(geom_rb, rb87, n, grid)
    after, since = map(int, re.search(r"after (\d+) iterations: the residual has not "
                                      r"halved since iteration (\d+)", str(err.value)).groups())
    assert after == since + gp._STALL_ITERATIONS and since < 200
    assert err.value.residual > 1e-10


def test_eta_sweep_slope(geom_rb, rb87):
    crit = sc.critical_numbers(geom_rb, rb87.a11)
    n_list = [1.0 + y * (crit.n_lower - 1.0) for y in (100.0, 316.0, 1000.0)]
    etas = [gp.ground_state(geom_rb, rb87, n, gp.default_grid(geom_rb, rb87, n, points=512)).eta_n
            for n in n_list]
    slopes = gp.local_log_slopes(n_list, etas)
    assert math.isnan(slopes[0]) and math.isnan(slopes[-1])
    assert slopes[1] == pytest.approx(-1.0 / 3.0, abs=0.05)
    xi = 1.5 + slopes[1]  # xi = 3/2 - d/(d+q) identity against trap_scaling
    assert xi == pytest.approx(float(sc.scaling_exponent(1, 2, sc.Regime.INTERMEDIATE)),
                               abs=0.05)


def _two_mode_energy(psi1, psi2, grid, geom, species, n, sup):
    x, dx = grid.coordinates(), grid.spacing
    kx = 2 * math.pi * np.fft.fftfreq(grid.points, dx)
    V = 0.5 * geom.k * np.abs(x) ** geom.q
    eta_t = sc.eta_transverse(geom)
    g = {}
    for (i, j, a) in ((1, 1, species.a11), (1, 2, species.a12),
                      (2, 1, species.a12), (2, 2, species.a22)):
        g[i, j] = pc.coupling_constant(a, species.mass) * (n - 1) * eta_t
    w = {1: sup.c1**2, 2: sup.c2**2}
    fields = {1: psi1, 2: psi2}
    energy = 0.0
    for i, psi in fields.items():
        grad = np.fft.ifft(1j * kx * np.fft.fft(psi))
        energy += w[i] * (HBAR**2 / (2 * species.mass) * np.sum(np.abs(grad) ** 2)
                          + np.sum(V * np.abs(psi) ** 2)) * dx
    for i in (1, 2):
        for j in (1, 2):
            energy += 0.5 * w[i] * w[j] * g[i, j] * \
                np.sum(np.abs(fields[i]) ** 2 * np.abs(fields[j]) ** 2) * dx
    return energy


def test_two_mode_symmetric_couplings_stationary(typical):
    geom = pc.trap_from_lengths(1, 2, 1e-6, 100e-6, typical.mass)
    crit = sc.critical_numbers(geom, typical.a11)
    n = 1.0 + 300.0 * (crit.n_lower - 1.0)
    ground = gp.ground_state(geom, typical, n)
    t_final = 2.0 * HBAR / ground.mu
    steps = int(math.ceil(t_final * ground.mu / HBAR / 0.02))
    rec = gp.evolve_two_mode(ground, pc.Superposition.equal(), typical, geom,
                             t_final, steps)
    # identical couplings: the modes never dephase
    assert np.max(np.abs(np.abs(rec.overlap) - 1.0)) < 1e-6
    assert np.all(np.abs(rec.overlap) <= 1.0 + 1e-9)
    # ground state is stationary under real-time evolution
    dx = ground.field.grid.spacing
    fidelity = abs(np.vdot(ground.field.values, rec.final_fields[0])) * dx
    assert fidelity == pytest.approx(1.0, abs=1e-6)
    # each mode norm conserved well below the instability threshold
    assert np.max(np.abs(rec.norm1 - 1.0)) < 1e-8
    assert np.max(np.abs(rec.norm2 - 1.0)) < 1e-8


def _condensate_run(y, points, q=2.0):
    """The condensate command's two-mode run for the default config at y on
    points points in a trap of hardness q: the ground state, the species, trap
    and superposition, and t_final."""
    cfg = dataclasses.replace(cli.RunConfig(), trap_q=q)
    geom, species, sup = cfg.trap(), cfg.species, cfg.superposition()
    n = 1.0 + y * (sc.critical_numbers(geom, species.a11).n_lower - 1.0)
    ground = gp.ground_state(geom, species, n,
                             gp.default_grid(geom, species, n, points=points,
                                             extent_factor=cfg.grid_extent_factor))
    t_final = 0.5 / abs(tf.phase_dynamics(geom, species, n, sup).omega_N)
    return ground, species, geom, sup, t_final


@pytest.mark.parametrize("y, q, points, steps", [(1000.0, 2.0, 512, 100), (3.0, 2.0, 512, 1600),
                                                 (1000.0, 10.0, 512, 400),
                                                 (1000.0, 2.0, 1000, 100)],
                         ids=["default", "near-N_L", "q10", "points-1000"])
def test_two_mode_measured_steps_meet_tolerance(y, q, points, steps):
    # the largest N of the default condensate sweep, of n_over_nl = 1 3, of
    # q = 10 with n_over_nl = 10 100 1000 and of the default on 1000 points.
    # Near N_L and at q = 10 the 50- and 100-step runs end near a split-step
    # resonance, so the ladder starts its pairs at 200 steps
    ground, species, geom, sup, t_final = _condensate_run(y, points, q)
    record, chosen, error = gp.evolve_two_mode_to_tolerance(ground, sup, species, geom, t_final)
    assert chosen == steps
    assert len(record.times) == 101 and record.times[-1] == pytest.approx(t_final, rel=1e-12)
    assert error <= gp.TWO_MODE_TOLERANCE
    fine = gp.evolve_two_mode(ground, sup, species, geom, t_final, 8 * steps,
                              record_every=8 * steps).overlap[-1]
    true = abs(record.overlap[-1] - fine) / abs(fine)
    assert true <= gp.TWO_MODE_TOLERANCE
    assert error / 2.0 <= true <= 2.0 * error


def test_two_mode_measured_run_meets_tolerance_on_every_record():
    # near N_L the 800-step run's final overlap is 8.7e-7 off an 8x run, but
    # its row 92 is 1.16e-6 off: an estimate on the final overlap alone kept
    # it.  The estimate over every shared record keeps 1600 steps, 2.91e-7 off
    ground, species, geom, sup, t_final = _condensate_run(3.0, 512)
    record, steps, _ = gp.evolve_two_mode_to_tolerance(ground, sup, species, geom, t_final)
    fine = gp.evolve_two_mode(ground, sup, species, geom, t_final, 8 * steps,
                              record_every=8 * steps // 100)
    np.testing.assert_allclose(record.times, fine.times, rtol=1e-12)
    error = np.abs(record.overlap - fine.overlap) / np.abs(fine.overlap)
    assert np.max(error) <= gp.TWO_MODE_TOLERANCE


def test_two_mode_ladder_past_its_cap_raises(monkeypatch):
    # near N_L the ladder needs 1600 steps
    ground, species, geom, sup, t_final = _condensate_run(3.0, 512)
    monkeypatch.setattr(gp, "_MAX_TWO_MODE_STEPS", 400)
    with pytest.raises(gp.StepSizeError, match="no step count up to 400"):
        gp.evolve_two_mode_to_tolerance(ground, sup, species, geom, t_final)


def _drifting_ifft(monkeypatch):
    """Make every inverse FFT of the two-mode loop scale its output by 1 + 1e-6."""
    ifft = gp._ifft
    monkeypatch.setattr(gp, "_ifft", lambda a, fct, out: ifft(a, fct * (1.0 + 1e-6), out))


def test_two_mode_norm_drift_is_a_step_size_error(geom_rb, rb87, moving_state, monkeypatch):
    field, mu = moving_state
    sup, t_final = pc.Superposition.equal(), 8 * 0.05 * HBAR / mu
    _drifting_ifft(monkeypatch)
    with pytest.raises(gp.StepSizeError, match="norm drift"):
        gp.evolve_two_mode(field, sup, rb87, geom_rb, t_final, 8)
    # the ladder goes on past a drifting run and names the last failure
    runs = []

    def counted(*args):
        runs.append(args[5])
        return evolve(*args)

    evolve = gp._evolve_two_mode
    monkeypatch.setattr(gp, "_evolve_two_mode", counted)
    monkeypatch.setattr(gp, "_MAX_TWO_MODE_STEPS", 200)
    with pytest.raises(gp.StepSizeError, match=r"no step count up to 200 .*no pair of runs "
                       r"gave an estimate; last failure: lossless evolution is unstable: "
                       r"norm drift"):
        gp.evolve_two_mode_to_tolerance(field, sup, rb87, geom_rb, t_final)
    assert runs == [50, 100, 200]


def test_a_trap_built_for_another_mass_is_rejected(geom_rb, rb87, tf_state):
    # the kinetic terms read the trap's mass and the couplings the species':
    # in a trap built for twice the species' mass, the ground state's eta_N
    # came out 20.7% below tf_profile's, with no error
    heavy = pc.trap_from_lengths(1, 2, 1e-6, 100e-6, 2.0 * rb87.mass)
    n, ground = tf_state
    sup = pc.Superposition.equal()
    for call in (lambda: tf.tf_profile(heavy, rb87, n),
                 lambda: tf.phase_dynamics(heavy, rb87, n, sup),
                 lambda: gp.default_grid(heavy, rb87, n),
                 lambda: gp.ground_states(heavy, rb87, [n], [ground.field.grid]),
                 lambda: gp.loss_budget(rb87, heavy, n, sup),
                 lambda: gp.evolve_two_mode(ground, sup, rb87, heavy, 1e-3, 100),
                 lambda: gp.evolve_two_mode_to_tolerance(ground, sup, rb87, heavy, 1e-3)):
        with pytest.raises(ValueError, match="trap was built for a mass of"):
            call()


def test_two_mode_overlap_matches_gaussian_model(geom_rb, rb87, tf_state):
    n, ground = tf_state
    sup = pc.Superposition.equal()
    phase = tf.phase_dynamics(geom_rb, rb87, n, sup)
    t_final = 0.5 / abs(phase.omega_N)
    steps = 430
    rec = gp.evolve_two_mode(ground, sup, rb87, geom_rb, t_final, steps,
                             record_every=steps // 20)
    energy0 = _two_mode_energy(ground.field.values, ground.field.values,
                               ground.field.grid, geom_rb, rb87, n, sup)
    energy1 = _two_mode_energy(*rec.final_fields, ground.field.grid,
                               geom_rb, rb87, n, sup)
    assert energy1 == pytest.approx(energy0, rel=1e-6)
    for t, ov, p1, p2 in zip(rec.times[1:], rec.overlap[1:],
                             rec.p1[1:], rec.p2[1:]):
        model = tf.overlap_gaussian(phase, t)
        assert abs(ov) == pytest.approx(abs(model), rel=0.02)
        assert cmath.phase(ov) == pytest.approx(-phase.omega_N * t, rel=0.02)
        assert p1 + p2 == pytest.approx(1.0, abs=1e-9)
        exp_p1, exp_p2 = closed_forms.fringe_probabilities(sup, model)
        assert p1 == pytest.approx(exp_p1, abs=0.02)
        assert p2 == pytest.approx(exp_p2, abs=0.02)


def test_two_mode_step_size_guard(geom_rb, rb87, tf_state):
    n, ground = tf_state
    with pytest.raises(gp.StepSizeError):
        gp.evolve_two_mode(ground, pc.Superposition.equal(), rb87, geom_rb,
                           1.0, 2)


def test_two_mode_run_from_an_under_resolved_start_names_the_start_field(geom_rb, rb87,
                                                                            monkeypatch):
    # the y = 1000 state on 96 points has 8.5e-8 of its power in the top
    # eighth of its wavenumbers; no step count can evolve it, so it raises
    # before the first step instead of blaming a split-step resonance.  (The
    # quantile start guess ended in a stationary state of higher energy,
    # 3.103e-34 J against 3.030e-34 J, with 1.3e-2 there.)
    crit = sc.critical_numbers(geom_rb, rb87.a11)
    n = 1.0 + 1000.0 * (crit.n_lower - 1.0)
    with pytest.warns(UserWarning, match="does not resolve the state"):
        ground = gp.ground_state(geom_rb, rb87, n, gp.default_grid(geom_rb, rb87, n, points=96))
    sup = pc.Superposition.equal()
    t_final = 0.5 / abs(tf.phase_dynamics(geom_rb, rb87, n, sup).omega_N)
    steps = gp._min_two_mode_steps(ground.field, rb87, geom_rb, t_final)
    for k in (1, 4):
        with pytest.raises(gp.StepSizeError, match=r"start field is under-resolved "
                           r"\(8\.5e-08 .* 96-point grid"):
            gp.evolve_two_mode(ground, sup, rb87, geom_rb, t_final, k * steps)
    # the measured path raises the same before any run
    runs = []

    def counted(*args):
        runs.append(args[5])
        return evolve(*args)

    evolve = gp._evolve_two_mode
    monkeypatch.setattr(gp, "_evolve_two_mode", counted)
    with pytest.raises(gp.StepSizeError, match=r"start field is under-resolved "
                       r"\(8\.5e-08 .* 96-point grid"):
        gp.evolve_two_mode_to_tolerance(ground, sup, rb87, geom_rb, t_final)
    assert runs == []


def test_loss_decay(geom_rb, rb87, tf_state):
    n, ground = tf_state
    sup = pc.Superposition.equal()
    budget = gp.loss_budget(rb87, geom_rb, n, sup)
    t_final = 0.1 / budget.gamma
    steps = 1771
    every = steps // 10
    lossless = gp.evolve_two_mode(ground, sup, rb87, geom_rb, t_final, steps,
                                  loss=False, record_every=every)
    lossy = gp.evolve_two_mode(ground, sup, rb87, geom_rb, t_final, steps,
                               loss=True, record_every=every)
    # total mode norm decays at 2 Gamma initially
    t1 = lossy.times[1]
    total_rate = (2.0 - lossy.norm1[1] - lossy.norm2[1]) / t1
    assert total_rate == pytest.approx(2.0 * budget.gamma, rel=0.1)
    assert np.all(np.diff(lossy.norm1) < 0) and np.all(np.diff(lossy.norm2) < 0)
    # the coherent signal loses exactly the e^(-Gamma t) factor
    for i in range(1, len(lossy.times)):
        ratio = abs(lossy.overlap[i]) / abs(lossless.overlap[i])
        assert ratio == pytest.approx(math.exp(-budget.gamma * lossy.times[i]), rel=0.1)


def _fourier_copy(values, points):
    """values moved to points points of the same line by their Fourier series,
    mode by mode: mode m is kept where both grids hold it, -kept/2 <= m <
    kept/2 for the smaller point count kept; the other modes are zero."""
    size = values.shape[-1]
    kept = min(size, points)
    modes = np.arange(-(kept // 2), (kept + 1) // 2)
    spectrum = np.zeros(points, dtype=complex)
    spectrum[modes % points] = np.fft.fft(values)[modes % size]
    return np.fft.ifft(spectrum) * (points / size)


@pytest.mark.parametrize("size, points", [(1000, 125), (1000, 250), (125, 1000), (768, 384),
                                          (384, 768), (256, 256)])
def test_band_resample_matches_a_mode_by_mode_fourier_copy(size, points):
    # every mode populated, odd and even counts, cut and padded: an odd band
    # keeps as many modes as it has points
    rng = np.random.default_rng(size + points)
    rows = rng.standard_normal((2, size)) + 1j * rng.standard_normal((2, size))
    moved = gp._resample(rows, points)
    assert moved.shape == (2, points)
    for row, got in zip(rows, moved):
        want = _fourier_copy(row, points)
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


def _state_and_time(geom_rb, rb87, y, points, gamma_t=0.3):
    """The ground state at y on points points, and the t_final at which the
    loss has run for gamma_t."""
    crit = sc.critical_numbers(geom_rb, rb87.a11)
    n = 1.0 + y * (crit.n_lower - 1.0)
    ground = gp.ground_state(geom_rb, rb87, n, gp.default_grid(geom_rb, rb87, n, points=points))
    t_final = gamma_t / gp.loss_budget(rb87, geom_rb, n, pc.Superposition.equal()).gamma
    return ground, t_final


RESONANCE_CASES = pytest.mark.parametrize(
    "y, points, loss, guard, kept", [(100.0, 512, False, 4521, 128),
                                     (1000.0, 1024, False, 3223, 256),
                                     (1000.0, 1024, True, 3223, 256)],
    ids=["y100-512", "y1000-1024", "y1000-1024-loss"])


@RESONANCE_CASES
def test_two_mode_run_near_a_split_step_resonance_raises(geom_rb, rb87, y, points, loss, guard,
                                                         kept):
    # at the guard's count the kinetic phase per step at the top wavenumber
    # of the full grid lies near pi; round-off there grows over the run into
    # a large share of the final fields' spectral power, while the lossless
    # norm holds.  A ripple of 4.5e-14 of the power at 15/32 of that
    # wavenumber fills the band, so the fields evolve on the full grid.
    ground, t_final = _state_and_time(geom_rb, rb87, y, points)
    grid = ground.field.grid
    ripple = np.cos(2.0 * math.pi * (15 * points // 64) * grid.coordinates() / (2.0 * grid.extent))
    field = gp.Field(grid, ground.field.values * (1.0 + 3e-7 * ripple), ground.field.n_atoms)
    assert gp._min_two_mode_steps(field, rb87, geom_rb, t_final) == guard
    with pytest.raises(gp.StepSizeError, match=f"{points}-point band"):
        gp.evolve_two_mode(field, pc.Superposition.equal(), rb87, geom_rb, t_final, guard,
                           loss=loss, record_every=guard)


def test_two_mode_resonance_at_the_kept_band_edge_raises(geom_rb, rb87, tf_state, monkeypatch):
    # the y = 1000 state keeps 256 of 1024 points; with the step guard off,
    # 200 steps turn the kinetic phase at the top of that band through about
    # pi, and the resonance check, which reads the kept band, catches it.
    # Over the zero-padded full grid the same fields read about 1e-32.
    n, ground = tf_state
    t_final = 0.3 / gp.loss_budget(rb87, geom_rb, n, pc.Superposition.equal()).gamma
    monkeypatch.setattr(gp, "_min_two_mode_steps", lambda *args: 1)
    with pytest.raises(gp.StepSizeError, match="256-point band"):
        gp.evolve_two_mode(ground, pc.Superposition.equal(), rb87, geom_rb, t_final, 200,
                           record_every=200)


@RESONANCE_CASES
def test_two_mode_run_at_a_full_grid_resonance_runs_on_the_kept_band(geom_rb, rb87, y, points,
                                                                      loss, guard, kept):
    # the same ground states keep a quarter of the grid or less, where the
    # guard's count turns the top kinetic phase per step through pi / 16 or
    # less: the runs hold and agree with runs at twice the steps
    ground, t_final = _state_and_time(geom_rb, rb87, y, points)
    assert gp._min_two_mode_steps(ground.field, rb87, geom_rb, t_final) == guard
    runs = [gp.evolve_two_mode(ground, pc.Superposition.equal(), rb87, geom_rb, t_final,
                               k * guard, loss=loss, record_every=k * guard) for k in (1, 2)]
    assert [run.points for run in runs] == [kept, kept]
    assert abs(runs[0].overlap[-1] - runs[1].overlap[-1]) < 1e-7


def _evolve_two_mode_reference(field, sup, species, geom, t_final, steps, loss,
                               record_every, points=None):
    """The two-mode Strang loop K/2 V K/2 step by step: each mode FFT'd on its
    own, both kinetic half-steps of every step applied separately, and with
    loss the decay and phase taken at mid-step densities predicted from the
    step's starting densities.  With points, the loop runs on that many
    points of the field's grid, every (grid points / points)-th one, from the
    field's Fourier series cut to that band, and the final fields come back
    zero-padded to the field's grid."""
    grid, n = field.grid, field.n_atoms
    points = grid.points if points is None else points
    stride = grid.points // points
    x, dx = grid.coordinates()[::stride], grid.spacing * stride
    kx = 2.0 * math.pi * np.fft.fftfreq(points, dx)
    V = 0.5 * geom.k * np.abs(x) ** geom.q
    scale = (n - 1.0) * sc.eta_transverse(geom)
    g11, g12, g22 = (pc.coupling_constant(a, species.mass) * scale
                     for a in (species.a11, species.a12, species.a22))
    w1, w2 = sup.c1**2, sup.c2**2
    loss12, loss22 = species.gamma12_loss * scale, species.gamma22_loss * scale
    dt = t_final / steps
    kin_half = np.exp(-0.5j * (HBAR * kx**2 / (2.0 * species.mass)) * dt)

    def kinetic_half(psi):
        return np.fft.ifft(kin_half * np.fft.fft(psi))

    def potential(psi1, psi2):
        d1, d2 = np.abs(psi1) ** 2, np.abs(psi2) ** 2
        if loss:
            # amplitude i decays at the rate (L w rho)_i / 2, so its density
            # at rate (L w rho)_i; here over half a step at the start densities
            d1, d2 = (d1 * np.exp(-0.5 * dt * loss12 * w2 * d2),
                      d2 * np.exp(-0.5 * dt * (loss12 * w1 * d1 + loss22 * w2 * d2)))
        f1 = np.exp(-1j * (V + g11 * w1 * d1 + g12 * w2 * d2) / HBAR * dt)
        f2 = np.exp(-1j * (V + g12 * w1 * d1 + g22 * w2 * d2) / HBAR * dt)
        if loss:
            f1 = f1 * np.exp(-0.5 * dt * loss12 * w2 * d2)
            f2 = f2 * np.exp(-0.5 * dt * (loss12 * w1 * d1 + loss22 * w2 * d2))
        return f1 * psi1, f2 * psi2

    psi1 = _fourier_copy(field.values, points)
    psi2 = psi1.copy()
    rows = []

    def snapshot(t):
        n1, n2 = np.sum(np.abs(psi1) ** 2) * dx, np.sum(np.abs(psi2) ** 2) * dx
        ov = np.vdot(psi2, psi1) * dx
        fringe = 2.0 * sup.c1 * sup.c2 * ov.imag
        mean = 0.5 * (w1 * n1 + w2 * n2)
        rows.append((t, ov, mean - 0.5 * fringe, mean + 0.5 * fringe, n1, n2))

    snapshot(0.0)
    for step in range(1, steps + 1):
        psi1, psi2 = potential(kinetic_half(psi1), kinetic_half(psi2))
        psi1, psi2 = kinetic_half(psi1), kinetic_half(psi2)
        if step % record_every == 0 or step == steps:
            snapshot(step * dt)
    return [np.array(col) for col in zip(*rows)], (_fourier_copy(psi1, grid.points),
                                                   _fourier_copy(psi2, grid.points))


@pytest.fixture(scope="module")
def moving_state(geom_rb, rb87):
    """A 256-point ground state given a momentum kick, so both steps of the
    splitting act; its chemical potential sets the time step."""
    crit = sc.critical_numbers(geom_rb, rb87.a11)
    n = 1.0 + 100.0 * (crit.n_lower - 1.0)
    ground = gp.ground_state(geom_rb, rb87, n, gp.default_grid(geom_rb, rb87, n, points=256))
    grid = ground.field.grid
    kick = np.exp(2j * math.pi * 3.0 * grid.coordinates() / grid.extent)
    return gp.Field(grid, ground.field.values * kick, n), ground.mu


def _deviations(field, sup, species, geom, t_final, steps, loss, record_every, points=None):
    """evolve_two_mode against the step-by-step reference on points points
    (the field's grid when None): returns the record, the largest deviation
    of each record series and of the final fields relative to the largest
    reference value, and the reference norms."""
    rec = gp.evolve_two_mode(field, sup, species, geom, t_final, steps, loss=loss,
                             record_every=record_every)
    (times, overlap, p1, p2, norm1, norm2), final = _evolve_two_mode_reference(
        field, sup, species, geom, t_final, steps, loss, record_every, points)

    def rel(a, b):
        return float(np.max(np.abs(np.asarray(a) - b)) / np.max(np.abs(b)))

    assert np.array_equal(rec.times, times)
    deviations = {"overlap": rel(rec.overlap, overlap), "p1": rel(rec.p1, p1),
                  "p2": rel(rec.p2, p2), "norm1": rel(rec.norm1, norm1),
                  "norm2": rel(rec.norm2, norm2),
                  "final_fields": max(rel(rec.final_fields[0], final[0]),
                                      rel(rec.final_fields[1], final[1]))}
    return rec, deviations, (norm1, norm2)


def _assert_matches_reference(field, sup, species, geom, t_final, steps, loss, record_every,
                              points):
    """evolve_two_mode against the step-by-step reference on the same kept
    points to 1e-10; returns the reference norms."""
    rec, deviations, norms = _deviations(field, sup, species, geom, t_final, steps, loss,
                                         record_every, points)
    assert rec.points == points
    assert max(deviations.values()) < 1e-10, deviations
    return norms


@pytest.fixture(scope="module")
def lossier(rb87):
    """rb87 with loss constants scaled up so that mode 2 loses about 2% of its
    norm in 50 steps of the moving state."""
    return dataclasses.replace(rb87, gamma12_loss=5.0 * rb87.gamma12_loss,
                               gamma22_loss=5.0 * rb87.gamma22_loss)


@pytest.mark.parametrize("loss", [False, True])
@pytest.mark.parametrize("steps, record_every", [(1, 1), (1, 3), (8, 1), (8, 3), (8, 8),
                                                 (50, 1), (50, 3), (50, 50)])
def test_two_mode_steps_match_reference(geom_rb, lossier, moving_state, loss, steps,
                                        record_every):
    field, mu = moving_state
    t_final = steps * 0.05 * HBAR / mu
    # the kicked state keeps half its grid
    norm1, norm2 = _assert_matches_reference(field, pc.Superposition(0.6, 0.8), lossier,
                                             geom_rb, t_final, steps, loss, record_every, 128)
    if loss and steps == 50:
        assert 1e-3 < 1.0 - norm2[-1] < 0.1


@pytest.mark.parametrize("case, kept, bound", [("gp-dynamics", 256, 1e-11),
                                               ("near-N_L", 128, 1e-7),
                                               ("near-N_L-1000", 125, 1e-7)])
def test_two_mode_band_cut_error_against_the_full_grid(geom_rb, rb87, case, kept, bound):
    # the records on the kept band against the full-grid reference: the
    # y = 1000 state on 1024 points at the 5312 steps and Gamma t = 0.3 of
    # the gp-dynamics benchmark, and the condensate run for n_over_nl = 1 3,
    # whose 1260 steps are already 3.6e-7 off in the overlap by splitting
    # alone; on 1000 points that state keeps an odd count
    if case == "gp-dynamics":
        ground, t_final = _state_and_time(geom_rb, rb87, 1000.0, 1024)
        species, geom, sup = rb87, geom_rb, pc.Superposition.equal()
        steps = math.ceil(t_final * ground.mu / HBAR / 0.05)
        assert steps == 5312
    else:
        ground, species, geom, sup, t_final = _condensate_run(
            3.0, 1000 if case == "near-N_L-1000" else 512)
        steps = 1260
    rec, deviations, _ = _deviations(ground.field, sup, species, geom, t_final, steps,
                                     False, steps // 10)
    assert rec.points == kept
    del deviations["final_fields"]
    assert max(deviations.values()) < bound, deviations


@pytest.mark.parametrize("points, kept, overlap",
                         [(1000, 250, complex(0.80270488986627, -0.5732018018145765)),
                          (768, 384, complex(0.8027048898668295, -0.5732018018144405))])
def test_two_mode_on_a_grid_that_halves_unevenly(geom_rb, rb87, points, kept, overlap):
    # 1000 points halve to 500 and 250, and the band rule turns down an odd
    # 125; 768 halve to 384 and stop above 192.  The final overlap is that of
    # the full-grid evolution that the band cut replaced.
    ground, t_final = _state_and_time(geom_rb, rb87, 1000.0, points, gamma_t=0.03)
    steps = 532
    rec = gp.evolve_two_mode(ground, pc.Superposition.equal(), rb87, geom_rb, t_final, steps,
                             record_every=steps)
    assert rec.points == kept
    assert abs(rec.overlap[-1] - overlap) < 1e-12
    assert [f.shape for f in rec.final_fields] == [(points,), (points,)]


@pytest.mark.parametrize("loss", [False, True])
def test_two_mode_last_record_matches_final_fields(geom_rb, lossier, moving_state, loss):
    # a record is taken one kinetic half-step before the state it stands
    # for; that half-step is unitary and the same for both modes
    field, mu = moving_state
    steps = 50
    rec = gp.evolve_two_mode(field, pc.Superposition(0.6, 0.8), lossier, geom_rb,
                             steps * 0.05 * HBAR / mu, steps, loss=loss, record_every=steps)
    psi1, psi2 = rec.final_fields
    dx = field.grid.spacing
    assert rec.norm1[-1] == pytest.approx(np.vdot(psi1, psi1).real * dx, rel=1e-12, abs=0)
    assert rec.norm2[-1] == pytest.approx(np.vdot(psi2, psi2).real * dx, rel=1e-12, abs=0)
    assert rec.overlap[-1] == pytest.approx(np.vdot(psi2, psi1) * dx, rel=1e-12, abs=0)


@pytest.mark.parametrize("loss", [False, True])
def test_two_mode_step_doubling_is_second_order(geom_rb, rb87, loss):
    # each doubling of the step count cuts the splitting error by 4, so the
    # change in the final overlap falls by 4 per doubling; a density frozen
    # through a lossy potential step would make it 2
    crit = sc.critical_numbers(geom_rb, rb87.a11)
    n = 1.0 + 1000.0 * (crit.n_lower - 1.0)
    ground = gp.ground_state(geom_rb, rb87, n, gp.default_grid(geom_rb, rb87, n, points=512))
    sup = pc.Superposition.equal()
    t_final = 0.03 / gp.loss_budget(rb87, geom_rb, n, sup).gamma
    base = 532
    finals = [gp.evolve_two_mode(ground, sup, rb87, geom_rb, t_final, k * base, loss=loss,
                                 record_every=k * base).overlap[-1] for k in (1, 2, 4, 8)]
    changes = [abs(b - a) for a, b in zip(finals, finals[1:])]
    for coarse, fine in zip(changes, changes[1:]):
        assert 3.5 <= coarse / fine <= 4.5


@pytest.fixture(scope="module")
def moving_state_q10(rb87):
    """The moving state's recipe in a q = 10 trap at N = 2000, with the trap."""
    geom = pc.trap_from_lengths(1, 10, 1e-6, 100e-6, rb87.mass)
    n = 2000.0
    ground = gp.ground_state(geom, rb87, n, gp.default_grid(geom, rb87, n, points=256))
    grid = ground.field.grid
    kick = np.exp(2j * math.pi * 3.0 * grid.coordinates() / grid.extent)
    return geom, gp.Field(grid, ground.field.values * kick, n), ground.mu


@pytest.mark.parametrize("loss", [False, True])
@pytest.mark.parametrize("steps, record_every", [(8, 3), (50, 1)])
def test_two_mode_tangent_factor_past_its_poles_matches_reference(lossier, moving_state_q10,
                                                                  loss, steps, record_every):
    # in a q = 10 trap the potential at the grid edge, where the state has
    # almost no density, turns half the phase of a potential step, the
    # argument of the factor's tangent, through several multiples of pi:
    # the tangent crosses its poles there
    geom, field, mu = moving_state_q10
    dt = 0.02 * HBAR / mu
    edge_phase = 0.5 * dt / HBAR * 0.5 * geom.k * field.grid.extent ** geom.q
    assert edge_phase > 3.0 * math.pi
    # its band fills the grid
    _assert_matches_reference(field, pc.Superposition(0.6, 0.8), lossier, geom,
                              steps * dt, steps, loss, record_every, 256)


def test_two_mode_norm_holds_over_a_long_lossless_run(geom_rb, rb87):
    # |exp(i phase)| = 1 is rounded afresh on every step; over thousands of
    # steps a biased rounding would show as norm drift
    crit = sc.critical_numbers(geom_rb, rb87.a11)
    n = 1.0 + 1000.0 * (crit.n_lower - 1.0)
    ground = gp.ground_state(geom_rb, rb87, n, gp.default_grid(geom_rb, rb87, n, points=256))
    steps = 2000
    rec = gp.evolve_two_mode(ground, pc.Superposition.equal(), rb87, geom_rb,
                             steps * 0.05 * HBAR / ground.mu, steps, record_every=100)
    assert len(rec.times) == 21
    assert np.max(np.abs(rec.norm1 - 1.0)) < 1e-11
    assert np.max(np.abs(rec.norm2 - 1.0)) < 1e-11


def test_two_mode_norms_never_rise_over_a_long_lossy_run(geom_rb, rb87):
    # the decay D <= 1 on every step, so a norm can rise from one step to the
    # next only where the Cayley factor's modulus rounds above D
    crit = sc.critical_numbers(geom_rb, rb87.a11)
    n = 1.0 + 1000.0 * (crit.n_lower - 1.0)
    ground = gp.ground_state(geom_rb, rb87, n, gp.default_grid(geom_rb, rb87, n, points=256))
    steps = 2000
    rec = gp.evolve_two_mode(ground, pc.Superposition.equal(), rb87, geom_rb,
                             steps * 0.05 * HBAR / ground.mu, steps, loss=True, record_every=1)
    assert len(rec.times) == steps + 1
    assert np.all(np.diff(rec.norm1) <= 0.0)
    assert np.all(np.diff(rec.norm2) <= 0.0)
    assert rec.norm2[-1] < rec.norm1[-1] < 1.0


@pytest.mark.parametrize("record_every", [0, -3])
def test_two_mode_rejects_record_every_below_one(geom_rb, rb87, moving_state, record_every):
    field, mu = moving_state
    with pytest.raises(ValueError, match="record_every"):
        gp.evolve_two_mode(field, pc.Superposition.equal(), rb87, geom_rb,
                           8 * 0.05 * HBAR / mu, 8, record_every=record_every)


@pytest.mark.parametrize("t_final", [0.0, -1.0])
def test_two_mode_entry_points_reject_a_nonpositive_final_time(geom_rb, rb87, moving_state,
                                                              t_final):
    field, _ = moving_state
    sup = pc.Superposition.equal()
    with pytest.raises(ValueError, match="^need a positive final time$"):
        gp.evolve_two_mode(field, sup, rb87, geom_rb, t_final, 8)
    with pytest.raises(ValueError, match="^need a positive final time$"):
        gp.evolve_two_mode_to_tolerance(field, sup, rb87, geom_rb, t_final)


@pytest.mark.parametrize("steps", [0, -3])
def test_two_mode_rejects_fewer_than_one_step(geom_rb, rb87, moving_state, steps):
    field, mu = moving_state
    with pytest.raises(ValueError, match="^need at least one step$"):
        gp.evolve_two_mode(field, pc.Superposition.equal(), rb87, geom_rb,
                           8 * 0.05 * HBAR / mu, steps)


def test_loss_budget_values(geom_rb, rb87):
    sup = pc.Superposition.equal()
    budget = gp.loss_budget(rb87, geom_rb, 2000.0, sup)
    assert abs(1.0 / budget.ratio - 19.0) / 19.0 < 0.20
    # closed form: hbar (Gamma12 + Gamma22/2) / (2 gamma1)
    gamma1, _ = pc.josephson_couplings(rb87)
    closed = HBAR * (rb87.gamma12_loss + 0.5 * rb87.gamma22_loss) / (2.0 * gamma1)
    assert budget.ratio == pytest.approx(closed, rel=1e-12)
    # independent of N and of the trap lengths
    other = pc.trap_from_lengths(1, 2, 0.7e-6, 250e-6, rb87.mass)
    assert gp.loss_budget(rb87, other, 777.0, sup).ratio == \
        pytest.approx(budget.ratio, rel=1e-12)
    # no loss constants: no decay
    quiet = pc.Species(mass=rb87.mass, a11=rb87.a11, a22=rb87.a22, a12=rb87.a12)
    assert gp.loss_budget(quiet, geom_rb, 2000.0, sup).ratio == 0.0
    # equal in-state couplings: no signal to compare against
    flat = pc.Species(mass=rb87.mass, a11=rb87.a11, a22=rb87.a11, a12=rb87.a11,
                      gamma12_loss=rb87.gamma12_loss)
    with pytest.raises(ValueError, match="no relative-phase signal"):
        gp.loss_budget(flat, geom_rb, 2000.0, sup)


def test_loss_budget_builds_one_tf_profile(geom_rb, rb87, monkeypatch):
    # N = 2 classifies as bare in this trap; the profile is built all the same
    builds = []

    def spy(*args, **kwargs):
        builds.append(args)
        return profile(*args, **kwargs)

    profile = tf.tf_profile
    monkeypatch.setattr(tf, "tf_profile", spy)
    gp.loss_budget(rb87, geom_rb, 2.0, pc.Superposition.equal())
    assert len(builds) == 1
