import dataclasses
import math
import re
import warnings

import pytest
import scipy.constants

from becmetrology import physconfig as pc


def test_constants_positive_and_frozen():
    c = pc.SI
    assert c.hbar > 0
    with pytest.raises(Exception):
        c.hbar = 1.0
    with pytest.raises(ValueError):
        pc.PhysicalConstants(hbar=-1.0)


def test_coupling_constant_value():
    m = 86.909 * pc.atomic_mass
    g = pc.coupling_constant(5.31e-9, m)
    # independent arithmetic: 4*pi*hbar^2*a/m
    expected = 4 * math.pi * pc.SI.hbar**2 * 5.31e-9 / m
    assert g == expected
    assert abs(g - 5.15e-51) / 5.15e-51 < 0.01


def test_coupling_constant_linearity_and_domain():
    m = pc.rb87().mass
    g1 = pc.coupling_constant(1e-9, m)
    assert pc.coupling_constant(2e-9, m) == pytest.approx(2 * g1, rel=1e-15)
    assert pc.coupling_constant(1e-15, m) < 1e-6 * g1  # g -> 0 with a
    with pytest.raises(ValueError):
        pc.coupling_constant(0.0, m)
    with pytest.raises(ValueError):
        pc.coupling_constant(1e-9, -m)


@pytest.mark.parametrize("a, mass", [(1e-280, 1.44e-25), (1e300, 1e-300), (math.nan, 1e-25)])
def test_coupling_constant_is_a_positive_finite_float(a, mass):
    # g = 0 at a = 1e-280 m made tf_profile divide by zero
    with pytest.raises(ValueError, match="out of float range"):
        pc.coupling_constant(a, mass)


def test_rb87_preset_ratios():
    sp = pc.rb87()
    assert sp.a11 == pytest.approx(5.31e-9)
    assert sp.a12 == pytest.approx(sp.a11 / 1.03, rel=1e-14)
    assert sp.a22 == pytest.approx(0.97 * sp.a12, rel=1e-14)
    assert sp.gamma12_loss == pytest.approx(0.780e-19)
    assert sp.gamma22_loss == pytest.approx(1.194e-19)


def test_josephson_couplings_rb87(rb87):
    gamma1, gamma2 = pc.josephson_couplings(rb87)
    g11 = pc.coupling_constant(rb87.a11, rb87.mass)
    # the 0.97 : 1 : 1.03 ratios cancel gamma2 to rounding
    assert abs(gamma2) < 1e-13 * g11
    assert gamma1 > 0
    expected = 0.5 * pc.coupling_constant(rb87.a11 - rb87.a22, rb87.mass)
    assert gamma1 == pytest.approx(expected, rel=1e-12)
    assert rb87.a11 - rb87.a22 == pytest.approx(0.309e-9, rel=2e-3)


def test_josephson_symmetric_case():
    sp = pc.typical_species()
    gamma1, gamma2 = pc.josephson_couplings(sp)
    assert gamma1 == 0.0 and gamma2 == 0.0


def test_josephson_swap_symmetry(rb87):
    swapped = pc.Species(mass=rb87.mass, a11=rb87.a22, a22=rb87.a11, a12=rb87.a12)
    g1, g2 = pc.josephson_couplings(rb87)
    g1s, g2s = pc.josephson_couplings(swapped)
    assert g1s == pytest.approx(-g1, rel=1e-12)
    assert g2s == pytest.approx(g2, abs=1e-70)


def test_species_validation():
    with pytest.raises(ValueError):
        pc.Species(mass=-1.0, a11=1e-9, a22=1e-9, a12=1e-9)
    with pytest.raises(ValueError):
        pc.Species(mass=1e-25, a11=0.0, a22=1e-9, a12=1e-9)
    with pytest.raises(ValueError):
        pc.Species(mass=1e-25, a11=1e-9, a22=1e-9, a12=1e-9, gamma12_loss=-1.0)


@pytest.mark.parametrize("name", ["mass", "a11", "a22", "a12", "gamma12_loss",
                                  "gamma22_loss"])
def test_species_rejects_nan(rb87, name):
    with pytest.raises(ValueError, match="finite"):
        dataclasses.replace(rb87, **{name: math.nan})


def test_trap_frequencies_match_quoted_values(rb87):
    geom = pc.trap_from_lengths(1, 2, 1e-6, 100e-6, rb87.mass)
    assert geom.omega_T / (2 * math.pi) == pytest.approx(58.0, rel=0.01)
    assert geom.omega_L / (2 * math.pi) == pytest.approx(1.2e-2, rel=0.05)
    assert geom.transverse_dimensions == 2


def test_trap_round_trip(rb87):
    geom = pc.trap_from_lengths(1, 4, 0.8e-6, 60e-6, rb87.mass)
    hbar, m = pc.SI.hbar, rb87.mass
    # the bare half-widths back from the strengths: r0^(q+2) = hbar^2/(m k),
    # rho0^2 = hbar/(2 m omega_T), and omega_L = hbar/(m r0^2)
    assert (hbar**2 / (m * geom.k)) ** (1.0 / 6.0) == pytest.approx(60e-6, rel=1e-12)
    assert math.sqrt(hbar / (2.0 * m * geom.omega_T)) == pytest.approx(0.8e-6, rel=1e-12)
    assert geom.omega_L == pytest.approx(hbar / (m * (60e-6) ** 2), rel=1e-12)


def test_trap_validation_and_hard_wall(rb87):
    with pytest.raises(ValueError):
        pc.trap_from_lengths(4, 2, 1e-6, 100e-6, rb87.mass)
    with pytest.raises(ValueError):
        pc.trap_from_lengths(1, 0.5, 1e-6, 100e-6, rb87.mass)
    with pytest.raises(ValueError, match="q = inf"):
        pc.trap_from_lengths(1, 62.0, 1e-6, 20e-6, rb87.mass)  # r0^(q+2) underflows
    with pytest.raises(ValueError, match="q = inf"):
        pc.trap_from_lengths(1, 400.0, 1e-6, 20.0, rb87.mass)  # r0^(q+2) overflows
    hard = pc.trap_from_lengths(2, math.inf, 1e-6, 100e-6, rb87.mass)
    assert hard.hard_wall and hard.k is None
    with pytest.warns(UserWarning):
        pc.trap_from_lengths(1, 2, 1e-6, 0.5e-6, rb87.mass)  # r0 < rho0


def test_trap_derives_its_scales_from_its_lengths(rb87):
    geom = pc.trap_from_lengths(1, 2, 1e-6, 100e-6, rb87.mass)
    moved = dataclasses.replace(geom, r0=50e-6)
    fresh = pc.trap_from_lengths(1, 2, 1e-6, 50e-6, rb87.mass)
    assert (moved.k, moved.omega_T, moved.omega_L) == (fresh.k, fresh.omega_T, fresh.omega_L)
    assert moved == fresh
    direct = pc.TrapGeometry(1, 2, 1e-6, 100e-6, rb87.mass)
    assert direct == geom and direct.q == 2.0
    with pytest.raises(TypeError):
        pc.TrapGeometry(1, 2, 1e-6, 100e-6, rb87.mass, k=1.0)


def test_trap_built_directly_checks_the_float_range(rb87):
    with pytest.raises(ValueError, match="q = inf"):
        pc.TrapGeometry(1, 500.0, 1e-6, 100e-6, rb87.mass)  # r0^(q+2) underflows


@pytest.mark.parametrize("q, rho0, r0", [(2.0, 1e-163, 100e-6), (math.inf, 1e-6, 1e-166),
                                          (2.0, 1e294, 100e-6)])
def test_trap_out_of_float_range_names_its_lengths(rb87, q, rho0, r0):
    # a square of rho0 or r0 under- or overflows in the trap frequencies
    with pytest.raises(ValueError, match=re.escape(f"rho0 = {rho0:g} m, r0 = {r0:g} m")):
        pc.TrapGeometry(1, q, rho0, r0, rb87.mass)


def test_every_trap_warns_where_r0_is_not_above_rho0(rb87):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        geom = pc.TrapGeometry(1, 2, 1e-6, 100e-6, rb87.mass)
    with pytest.warns(UserWarning, match="loose/tight") as record:
        pc.TrapGeometry(1, 2, 1e-6, 0.5e-6, rb87.mass)
    assert record[0].filename == __file__  # the warning names the caller's line
    with pytest.warns(UserWarning, match="loose/tight"):
        dataclasses.replace(geom, r0=1e-6)


@pytest.mark.parametrize("rho0, r0", [(math.nan, 100e-6), (1e-6, math.inf)])
def test_trap_rejects_nonfinite_lengths(rb87, rho0, r0):
    with pytest.raises(ValueError, match="finite"):
        pc.trap_from_lengths(1, 2, rho0, r0, rb87.mass)


def test_superposition_rejects_nan():
    with pytest.raises(ValueError):
        pc.Superposition(math.nan, math.nan)


def test_superposition_validation():
    with pytest.raises(ValueError):
        pc.Superposition(0.9, 0.9)
    sup = pc.Superposition.equal()
    assert sup.c1 == pytest.approx(sup.c2)
    opt = pc.Superposition.quadratic_optimal()
    assert opt.c1 == pytest.approx(math.cos(math.pi / 8))


def test_differential_coupling(rb87):
    gamma1, gamma2 = pc.josephson_couplings(rb87)
    dg = pc.differential_coupling(rb87, pc.Superposition.equal())
    assert dg == pytest.approx(gamma1, rel=1e-10)
    sup = pc.Superposition(1.0, 0.0)
    assert pc.differential_coupling(rb87, sup) == pytest.approx(gamma1 + gamma2, rel=1e-10)



def test_constants_equal_codata_from_scipy():
    # the package holds the CODATA 2022 values as literals, so that it runs on
    # numpy alone; they must stay the values scipy ships
    assert pc.SI.hbar == scipy.constants.hbar
    assert pc.atomic_mass == scipy.constants.atomic_mass
