"""The library's exact collective-spin moments, as the tests read them.

`spins` computes a moment only inside its read-out, from psi and the applied
component; this is that pair of private steps on a whole state, which the
tests check against `dense_oracle` and use to read states they build.
"""

from becmetrology.spins import DickeState, _apply_component, _moments


def expectation(state: DickeState, component: str) -> tuple[float, float]:
    """Exact (mean, variance) of a collective spin component."""
    return _moments(state.amplitudes, _apply_component(state.amplitudes, state.n_atoms, component))
