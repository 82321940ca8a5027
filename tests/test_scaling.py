import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from becmetrology import physconfig as pc
from becmetrology import scaling as sc


@pytest.fixture(scope="module")
def typical_geoms():
    mass = pc.typical_species().mass
    return {d: pc.trap_from_lengths(d, 2, 1e-6, 100e-6, mass) for d in (1, 2, 3)}


def test_geometry_factors():
    assert sc.UNIT_SPHERE_VOLUME[1] == 2.0
    assert sc.UNIT_SPHERE_VOLUME[2] == pytest.approx(math.pi)
    assert sc.UNIT_SPHERE_VOLUME[3] == pytest.approx(4 * math.pi / 3)
    for d in (1, 2, 3):
        # S_{d-1} = 2 pi^(d/2) / Gamma(d/2)
        assert sc.unit_sphere_area(d) == pytest.approx(2 * math.pi ** (d / 2) / math.gamma(d / 2))
    assert sc.beta_factor(1) == pytest.approx(1.0)
    assert sc.beta_factor(2) == pytest.approx(math.sqrt(math.pi) / 4)
    assert sc.beta_factor(3) == pytest.approx(1.0 / 6.0)


def test_lower_critical_numbers_typical(typical_geoms):
    a = 10e-9
    expected = {1: 2.0, 2: 45.0, 3: 1700.0}
    for d, target in expected.items():
        n_l = sc.critical_numbers(typical_geoms[d], a).n_lower
        assert abs(n_l - target) / target < 0.12


def test_upper_critical_numbers_typical(typical_geoms):
    a = 10e-9
    mass = pc.typical_species().mass
    assert sc.critical_numbers(typical_geoms[3], a).n_upper is None
    n_t_1d = sc.critical_numbers(typical_geoms[1], a).n_upper
    n_t_2d = sc.critical_numbers(typical_geoms[2], a).n_upper
    assert abs(n_t_1d - 1e6) / 1e6 < 0.12
    assert abs(n_t_2d - 4e9) / 4e9 < 0.12
    hard1 = pc.trap_from_lengths(1, math.inf, 1e-6, 100e-6, mass)
    hard2 = pc.trap_from_lengths(2, math.inf, 1e-6, 100e-6, mass)
    assert abs(sc.critical_numbers(hard1, a).n_upper - 1e4) / 1e4 < 0.12
    assert abs(sc.critical_numbers(hard2, a).n_upper - 4e5) / 4e5 < 0.12


def test_radius_forms_agree(typical_geoms):
    # r_N/r0 = y^(1/(d+q)) and the equivalent (r0/rho0)^(2/q) (N-1)/(N_T-1) form
    for d in (1, 2):
        geom = typical_geoms[d]
        a = 10e-9
        crit = sc.critical_numbers(geom, a)
        for n in np.geomspace(10 * crit.n_lower, 0.01 * crit.n_upper, 7):
            direct = geom.r0 * ((n - 1.0) / (crit.n_lower - 1.0)) ** (1.0 / (d + geom.q))
            alt = geom.r0 * (geom.r0 / geom.rho0) ** (2.0 / geom.q) * \
                ((n - 1.0) / (crit.n_upper - 1.0)) ** (1.0 / (d + geom.q))
            assert alt == pytest.approx(direct, rel=1e-12)


def test_r_t_relation(typical_geoms):
    # r_T/rho0 = (a (N_T-1)/(beta_d rho0))^(1/d); for 1D, r_T = a (N_T-1) exactly
    a = 10e-9
    for d in (1, 2):
        geom = typical_geoms[d]
        crit = sc.critical_numbers(geom, a)
        # the intermediate-regime radius r0 ((N-1)/(N_L-1))^(1/(d+q)) at N_T
        r_t = geom.r0 * ((crit.n_upper - 1.0) / (crit.n_lower - 1.0)) ** (1.0 / (d + geom.q))
        expected = geom.rho0 * (a * (crit.n_upper - 1.0)
                                / (sc.beta_factor(d) * geom.rho0)) ** (1.0 / d)
        assert r_t == pytest.approx(expected, rel=1e-12)
        if d == 1:
            assert r_t == pytest.approx(a * (crit.n_upper - 1.0), rel=1e-12)
        # number density at N_T is 1/(a rho0^2), independent of the long trap
        density = (crit.n_upper - 1.0) / (sc.beta_factor(d) * geom.rho0**geom.transverse_dimensions * r_t**d)
        assert density == pytest.approx(1.0 / (a * geom.rho0**2), rel=1e-12)
        assert density == pytest.approx(1e20, rel=1e-6)  # 1e14 cm^-3


def test_eta_transverse(typical_geoms):
    geom2d = typical_geoms[2]  # D = 1
    assert sc.eta_transverse(geom2d) == pytest.approx(2.82095e5, rel=1e-4)


def test_degenerate_lengths_warn_and_match():
    mass = pc.typical_species().mass
    with pytest.warns(UserWarning, match="loose/tight") as record:
        geom = pc.trap_from_lengths(1, 2, 1e-6, 1e-6, mass)  # rho0 = r0
    assert record[0].filename == __file__  # the warning names the caller's line
    crit = sc.critical_numbers(geom, 10e-9)
    assert crit.n_upper == pytest.approx(crit.n_lower, rel=1e-12)


def test_eta_estimate_continuity(typical_geoms):
    geom = typical_geoms[1]
    a = 10e-9
    crit = sc.critical_numbers(geom, a)
    eta0 = sc.eta_estimate(geom, a, 0.5 * crit.n_lower)
    assert sc.eta_estimate(geom, a, crit.n_lower) == pytest.approx(eta0, rel=1e-12)
    below = sc.eta_estimate(geom, a, crit.n_upper * (1 - 1e-9))
    above = sc.eta_estimate(geom, a, crit.n_upper * (1 + 1e-9))
    assert above == pytest.approx(below, rel=1e-6)


@pytest.mark.parametrize("d,q", [(1, 2.0), (2, 2.0), (1, 10.0), (3, 2.0)])
def test_eta_estimate_slopes(d, q):
    mass = pc.typical_species().mass
    geom = pc.trap_from_lengths(d, q, 1e-6, 100e-6, mass)
    a = 10e-9
    crit = sc.critical_numbers(geom, a)

    def slope_at(n, h=1e-4):
        up = math.log(sc.eta_estimate(geom, a, 1 + (n - 1) * (1 + h)))
        dn = math.log(sc.eta_estimate(geom, a, 1 + (n - 1) * (1 - h)))
        return (up - dn) / (math.log1p(h) - math.log1p(-h))

    n_mid = 1e3 * (crit.n_lower - 1.0) + 1.0
    assert slope_at(n_mid) == pytest.approx(-d / (d + q), abs=1e-10)
    if crit.n_upper is not None:
        n_big = 1e3 * (crit.n_upper - 1.0) + 1.0
        expected = -(3 - d + 2 * d / q) / (5 - d + 2 * d / q)
        assert slope_at(n_big) == pytest.approx(expected, abs=1e-10)


def test_classify_regime(typical_geoms):
    geom = typical_geoms[2]
    a = 10e-9
    crit = sc.critical_numbers(geom, a)
    assert sc.classify_regime(geom, a, 1.0) == sc.Regime.BARE
    assert sc.classify_regime(geom, a, crit.n_lower) == sc.Regime.BARE
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a label near N_L is not a warning
        assert sc.classify_regime(geom, a, 2.0 * crit.n_lower) == sc.Regime.INTERMEDIATE
    assert sc.classify_regime(geom, a, 1e6) == sc.Regime.INTERMEDIATE
    assert sc.classify_regime(geom, a, 1e12) == sc.Regime.FULL_TF


def test_scaling_exponent_values():
    inter = sc.Regime.INTERMEDIATE
    assert sc.scaling_exponent(1, 2, inter) == Fraction(7, 6)
    assert sc.scaling_exponent(2, 2, inter) == Fraction(1)
    assert sc.scaling_exponent(3, 2, inter) == Fraction(9, 10)
    assert sc.scaling_exponent(1, math.inf, inter) == Fraction(3, 2)
    assert sc.scaling_exponent(2, 2, sc.Regime.BARE) == Fraction(3, 2)
    full = sc.Regime.FULL_TF
    assert sc.scaling_exponent(1, 2, full) == Fraction(9, 10)
    assert sc.scaling_exponent(2, 2, full) == Fraction(9, 10)
    assert sc.scaling_exponent(1, math.inf, full) == Fraction(1)
    assert sc.scaling_exponent(2, math.inf, full) == Fraction(7, 6)
    with pytest.raises(ValueError):
        sc.scaling_exponent(3, 2, full)


def test_intermediate_exponent_identity():
    for d in (1, 2, 3):
        for q in (1, 2, 3, 7, 10):
            xi = sc.scaling_exponent(d, q, sc.Regime.INTERMEDIATE)
            assert xi == Fraction(3, 2) - Fraction(d, d + q)


def test_intermediate_exponent_table():
    # Fig. 1's table: the intermediate exponent of 1D, 2D and 3D traps against q
    q_values = [1.0, 2.0, 3.0, 10.0, math.inf]
    rows = [(q, *(sc.scaling_exponent(d, q, sc.Regime.INTERMEDIATE) for d in (1, 2, 3)))
            for q in q_values]
    by_q = {row[0]: row[1:] for row in rows}
    assert by_q[2.0] == (Fraction(7, 6), Fraction(1), Fraction(9, 10))
    assert by_q[math.inf] == (Fraction(3, 2),) * 3
    # xi = 1 exactly at q = d
    assert by_q[1.0][0] == Fraction(1)
    assert by_q[2.0][1] == Fraction(1)
    assert by_q[3.0][2] == Fraction(1)
    # monotone increasing in q, super-1/N iff q > d
    for col in range(3):
        vals = [row[1 + col] for row in rows]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        for row in rows:
            q, xi = row[0], row[1 + col]
            assert (xi > 1) == (q > col + 1)
    with pytest.raises(ValueError):
        sc.scaling_exponent(1, 0.5, sc.Regime.INTERMEDIATE)


@pytest.mark.parametrize("regime", list(sc.Regime))
def test_scaling_exponent_hardness_rule(regime):
    for q in (0.5, math.nan):
        with pytest.raises(ValueError, match="q must be >= 1"):
            sc.scaling_exponent(2, q, regime)
    assert sc.scaling_exponent(2, math.inf, regime) >= 1
