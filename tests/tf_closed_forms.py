"""Closed forms of the Thomas-Fermi analytics that serve as test references.

Independent forms of the integral J_l(d, q), the oracles for
`thomas_fermi.j_integral` (its beta-function form):

    J_l(d, q) = integral_0^1 du u^(d-1) (1 - u^q)^l

and the paper's formulas that no command computes: the full-TF regime
(N > N_T, the cloud also spreads transversely) with its K_l family and the
fringe probabilities after the closing half-rotation.  The invariant
Omega_N tau_pd = sqrt(2(d+3q)/d) is the library's own formula
(`thomas_fermi.phase_dynamics`); the tests check it against quadrature of the
TF density.
"""

import math

from becmetrology.physconfig import coupling_constant
from becmetrology.scaling import critical_numbers, unit_sphere_area
from becmetrology.thomas_fermi import j_integral


def j_integral_factorial(l: int, d: int, q: float) -> float:
    """Closed form l! q^l / (d (d+q) (d+2q) ... (d+lq)) for nonnegative integer l."""
    if not isinstance(l, int) or l < 0:
        raise ValueError("the factorial form needs a nonnegative integer order")
    if math.isinf(q):
        return 1.0 / d
    value = math.factorial(l) * q**l
    for j in range(l + 1):
        value /= d + j * q
    return value


def j_integral_q2(l: float, d: int) -> float:
    """Closed form for a harmonic profile, q = 2: Gamma(d/2) Gamma(l+1) / (2 Gamma(d/2+l+1))."""
    if l <= -1:
        raise ValueError("the integral diverges for l <= -1")
    return math.exp(math.lgamma(d / 2.0) + math.lgamma(l + 1.0)
                    - math.lgamma(d / 2.0 + l + 1.0)) / 2.0


def full_tf_pieces(geom, a: float, n_atoms: float):
    """(rho_tilde, mu_N, Y) for the full-regime TF profile, Y = mu_N/((N-1)g)."""
    d, q, D = geom.d, geom.q, geom.transverse_dimensions
    if d == 3:
        raise ValueError("the full TF regime requires transverse dimensions (d < 3)")
    crit = critical_numbers(geom, a)
    y_t = (n_atoms - 1.0) / (crit.n_upper - 1.0)
    dq = 0.0 if geom.hard_wall else d / q
    expo = 5.0 - d + 2.0 * dq
    denom = d * j_integral(1.0 + dq, D, 2.0) * j_integral(1.0, d, q)
    prefactor = 4.0 * (4.0 * math.pi) ** (D / 2.0) * 2.0 ** (2.0 * dq) / unit_sphere_area(D)
    rho_tilde = geom.rho0 * (prefactor * y_t / denom) ** (1.0 / expo)
    mu = 0.5 * geom.mass * geom.omega_T**2 * rho_tilde**2
    return rho_tilde, mu, mu / ((n_atoms - 1.0) * coupling_constant(a, geom.mass))


def k_integral(l: float, n_atoms: float, geom, a: float) -> float:
    """Integral of the full-regime TF density to the l-th power (m^(-3(l-1))).

    K_1 = 1 fixes the transverse radius; K_2 is the inverse occupied volume eta_N.
    """
    d, q, D = geom.d, geom.q, geom.transverse_dimensions
    _, _, y_units = full_tf_pieces(geom, a, n_atoms)
    dq = 0.0 if geom.hard_wall else d / q
    ratio = (j_integral(l + dq, D, 2.0) * j_integral(l, d, q)) / \
            (j_integral(1.0 + dq, D, 2.0) * j_integral(1.0, d, q))
    return ratio * y_units ** (l - 1.0)


def fringe_probabilities(sup, overlap: complex) -> tuple[float, float]:
    """Populations of the two modes after the closing half-rotation.

    p_{1,2} = (1 -/+ 2 c1 c2 Im(overlap))/2; they sum to one whenever the two
    spatial wave functions are unit-normalized.
    """
    if abs(overlap) > 1.0 + 1e-9:
        raise ValueError("overlap magnitude exceeds 1")
    fringe = 2.0 * sup.c1 * sup.c2 * overlap.imag
    return 0.5 * (1.0 - fringe), 0.5 * (1.0 + fringe)
