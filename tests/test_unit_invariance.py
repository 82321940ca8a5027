"""Property test: at a fixed N/N_L the condensate problem in trap units is the
same for every trap size and species, so a unit or scale slip in `physconfig`,
`scaling`, `thomas_fermi` or `gp` that moves only some of them shows here.

In the units r0 and hbar omega_L the reduced equation depends only on d, q,
N/N_L and the grid's point count and extent factor.  An error that scales
consistently, such as a wrong factor in g everywhere, cancels; the
closed-form and acceptance tests cover that case.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from becmetrology import gp, physconfig as pc, scaling as sc, thomas_fermi as tf

# (species, rho0 and r0 in um): two trap sizes of rb87 and another species
TRAPS = ((pc.rb87(), 1.0, 100.0), (pc.rb87(), 0.5, 300.0), (pc.typical_species(), 2.0, 50.0))


def _state(species, rho0, r0, d, q, n_over_nl, points):
    geom = pc.trap_from_lengths(d, q, rho0 * pc.UM, r0 * pc.UM, species.mass)
    n = 1.0 + n_over_nl * (sc.critical_numbers(geom, species.a11).n_lower - 1.0)
    return geom, n, gp.ground_state(geom, species, n,
                                    gp.default_grid(geom, species, n, points=points))


# the small grids need not resolve the state: that warns alike for every trap.
# Drawn traps have q = 1 or 2 (10-300 iterations); a q = 10 state takes
# 250-3000, so three cheap ones are given as examples.
@pytest.mark.filterwarnings("ignore:.*grid spacing does not resolve")
@settings(derandomize=True, max_examples=20, deadline=None)
@given(d=st.integers(1, 3), q=st.sampled_from([1.0, 2.0]),
       n_over_nl=st.floats(-2.0, 4.0).map(lambda e: 10.0**e),
       points=st.sampled_from([64, 128, 256]))
@example(d=1, q=10.0, n_over_nl=1000.0, points=64)
@example(d=2, q=10.0, n_over_nl=1000.0, points=64)
@example(d=3, q=10.0, n_over_nl=30.0, points=64)
def test_ground_state_in_trap_units_is_the_same_for_every_trap(d, q, n_over_nl, points):
    reduced = []
    for species, rho0, r0 in TRAPS:
        geom, _, res = _state(species, rho0, r0, d, q, n_over_nl, points)
        reduced.append((res.eta_longitudinal * geom.r0**d,
                        res.mu / (pc.SI.hbar * geom.omega_L), res.steps))
    # measured: within 8.3e-12 over d = 1-3, q = 1-4 and 10, N/N_L = 0.01-1e4
    for eta, mu, steps in reduced[1:]:
        assert eta == pytest.approx(reduced[0][0], rel=1e-10)
        assert mu == pytest.approx(reduced[0][1], rel=1e-10)
        # at q = 10 round-off steers the runs apart by up to 450 iterations in
        # 1D and 46 on radial grids (measured); at q = 1 and 2 never
        if q != 10.0:
            assert steps == reduced[0][2]


def test_two_mode_overlap_in_trap_units_is_the_same_for_every_trap_size():
    # one species only: the two-mode run also depends on a12/a11, a22/a11 and
    # the loss rates
    sup = pc.Superposition.equal()
    runs = []
    for species, rho0, r0 in TRAPS[:2]:
        geom, n, ground = _state(species, rho0, r0, 1, 2.0, 1000.0, 512)
        omega = tf.phase_dynamics(geom, species, n, sup).omega_N
        record, steps, _ = gp.evolve_two_mode_to_tolerance(ground, sup, species, geom,
                                                           0.5 / abs(omega))
        runs.append((record.times * omega, record.overlap, steps))
    (phase_a, overlap_a, steps_a), (phase_b, overlap_b, steps_b) = runs
    assert steps_a == steps_b == 100
    # measured: the overlaps agree within 2.4e-15 as functions of Omega_N t
    np.testing.assert_allclose(phase_b, phase_a, rtol=1e-10)
    np.testing.assert_allclose(overlap_b, overlap_a, rtol=0.0, atol=1e-10)
