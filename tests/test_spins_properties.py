"""Property tests: the Heisenberg-picture readout of the simulated protocols
agrees with rotating the state and reading J_z (Schroedinger picture)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

import dense_oracle as oracle
from becmetrology import spins
from becmetrology.physconfig import Superposition
from spin_moments import expectation


def schroedinger_readout(n, sup, kind, gamma, t):
    state = spins.evolve(spins.prepare_product(n, sup), kind, gamma, t)
    state = spins.DickeState(n, oracle.rotate_dicke(state.amplitudes, "y", -math.pi / 2.0))
    mean, var = expectation(state, "z")
    return mean, var, spins.single_qubit_purity(state)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(n=st.integers(1, 64), phase=st.floats(-3.0, 3.0), t=st.floats(0.1, 3.0),
       angle=st.floats(0.0, 2.0 * math.pi, allow_subnormal=False), enhanced=st.booleans())
def test_heisenberg_readout_matches_rotated_state(n, phase, t, angle, enhanced):
    # gamma multiplies N J_z (enhanced) or J_z (Ramsey)
    scale = n if enhanced else 1
    gamma = phase / (t * scale)
    if enhanced:
        kind, sup = "enhanced_NJz", Superposition(math.cos(angle), math.sin(angle))
        res = spins.simulate_enhanced(n, gamma, t, sup)
    else:
        kind, sup = "linear_Jz", Superposition.equal()
        res = spins.simulate_ramsey(n, gamma, t)
    mean, var, purity = schroedinger_readout(n, sup, kind, gamma, t)
    assert res.signal_mean == pytest.approx(mean, rel=1e-9, abs=1e-9)
    assert res.signal_variance == pytest.approx(var, rel=1e-9, abs=1e-9)
    assert res.purity == pytest.approx(purity, rel=1e-9, abs=1e-9)
    step = 1e-5 / (t * scale)
    central = (schroedinger_readout(n, sup, kind, gamma + step, t)[0]
               - schroedinger_readout(n, sup, kind, gamma - step, t)[0]) / (2.0 * step)
    assert res.signal_slope == pytest.approx(central, rel=1e-6, abs=1e-8 * n * t * scale)
