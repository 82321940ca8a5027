"""Independent closed forms of the Thomas-Fermi integral J_l(d, q), used as
test oracles for `thomas_fermi.j_integral` (its beta-function form).

    J_l(d, q) = integral_0^1 du u^(d-1) (1 - u^q)^l
"""

import math


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
