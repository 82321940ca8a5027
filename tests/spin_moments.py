"""The library's exact collective-spin moments, as the tests read them.

`spins` computes a moment only inside its read-out, from psi and the applied
component; this is that pair of private steps on a whole state, which the
tests check against `dense_oracle` and use to read states they build.  J_z
is the linear generator, applied as its diagonal.
"""

from becmetrology.spins import DickeState, _apply_component, _moments, generator_eigenvalues


def expectation(state: DickeState, component: str) -> tuple[float, float]:
    """Exact (mean, variance) of a collective spin component."""
    psi, n = state.amplitudes, state.n_atoms
    applied = (generator_eigenvalues("linear_Jz", n) * psi if component == "z"
               else _apply_component(psi, component))
    return _moments(psi, applied)
