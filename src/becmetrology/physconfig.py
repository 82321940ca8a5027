"""hbar, atomic species data, trap geometry, and derived couplings.

Everything downstream works in SI units and reads hbar from SI; NM, UM and
CM3 convert the experimentalist's nm, um and cm^3 at the boundary.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

NM = 1e-9
UM = 1e-6
CM3 = 1e-6  # cm^3 in m^3
# CODATA 2022, the values scipy.constants holds: hbar from the Planck constant
# (exact in the SI since 2019) and the atomic mass constant in kg
_HBAR_SI = 6.62607015e-34 / (2.0 * math.pi)  # J s
atomic_mass = 1.66053906892e-27


@dataclass(frozen=True)
class PhysicalConstants:
    """SI value of hbar."""

    hbar: float = _HBAR_SI  # J s

    def __post_init__(self):
        if self.hbar <= 0:
            raise ValueError("hbar must be strictly positive")


SI = PhysicalConstants()


@dataclass(frozen=True)
class Species:
    """Atomic species: mass, s-wave scattering lengths, two-body loss constants.

    Scattering lengths are for the in-state, cross-state, and second-state
    elastic channels; loss constants are inelastic spin-exchange rates.
    All SI (kg, m, m^3/s).
    """

    mass: float
    a11: float
    a22: float
    a12: float
    gamma12_loss: float = 0.0
    gamma22_loss: float = 0.0

    def __post_init__(self):
        if not 0 < self.mass < math.inf:
            raise ValueError("mass must be positive and finite")
        if not all(0 < a < math.inf for a in (self.a11, self.a22, self.a12)):
            raise ValueError("scattering lengths must be positive and finite")
        if not all(0 <= g < math.inf for g in (self.gamma12_loss, self.gamma22_loss)):
            raise ValueError("loss constants must be nonnegative and finite")


def rb87() -> Species:
    """Rubidium-87 with the two trapped hyperfine levels used in two-mode work.

    The channel ratios are a22 : a12 : a11 = 0.97 : 1 : 1.03 anchored at
    a11 = 5.31 nm, so a12 = a11/1.03 and a22 = 0.97 a12.
    """
    a11 = 5.31 * NM
    a12 = a11 / 1.03
    a22 = 0.97 * a12
    return Species(
        mass=86.909180 * atomic_mass,
        a11=a11,
        a22=a22,
        a12=a12,
        gamma12_loss=0.780e-13 * CM3,
        gamma22_loss=1.194e-13 * CM3,
    )


def typical_species() -> Species:
    """Generic alkali used for order-of-magnitude estimates: a = 10 nm, no loss."""
    a = 10.0 * NM
    return Species(mass=86.909180 * atomic_mass, a11=a, a22=a, a12=a)


SPECIES_PRESETS = {"rb87": rb87, "typical": typical_species}


def coupling_constant(a: float, mass: float) -> float:
    """Mean-field coupling g = 4 pi hbar^2 a / m for scattering length a; a g
    that under- or overflows a float raises ValueError."""
    if a <= 0 or mass <= 0:
        raise ValueError("scattering length and mass must be positive")
    g = 4.0 * math.pi * SI.hbar**2 * a / mass
    if not 0 < g < math.inf:  # also rejects nan
        raise ValueError(f"the coupling 4 pi hbar^2 a / m = {g:g} of a = {a:g} m and "
                         f"m = {mass:g} kg is out of float range")
    return g


def josephson_couplings(species: Species) -> tuple[float, float]:
    """Two-mode couplings (gamma1, gamma2) built from the channel couplings.

    gamma1 = (g11 - g22)/2 multiplies the collective population difference,
    gamma2 = (g11 + g22)/2 - g12 multiplies its square.
    """
    g11 = coupling_constant(species.a11, species.mass)
    g22 = coupling_constant(species.a22, species.mass)
    g12 = coupling_constant(species.a12, species.mass)
    return 0.5 * (g11 - g22), 0.5 * (g11 + g22) - g12


@dataclass(frozen=True)
class Superposition:
    """Real two-mode amplitudes (c1, c2) with c1^2 + c2^2 = 1."""

    c1: float
    c2: float

    def __post_init__(self):
        if not abs(self.c1**2 + self.c2**2 - 1.0) <= 1e-12:  # also rejects nan
            raise ValueError("amplitudes must satisfy c1^2 + c2^2 = 1")

    @classmethod
    def equal(cls) -> "Superposition":
        return cls(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))

    @classmethod
    def quadratic_optimal(cls) -> "Superposition":
        """Input that is optimal for a pure quadratic collective coupling."""
        return cls(math.cos(math.pi / 8.0), math.sin(math.pi / 8.0))


def differential_coupling(species: Species, sup: Superposition) -> float:
    """Density-weighted coupling difference between the two modes.

    Delta g = c1^2 (g11 - g12) - c2^2 (g22 - g12) = gamma1 + (c1^2 - c2^2) gamma2.
    """
    gamma1, gamma2 = josephson_couplings(species)
    return gamma1 + (sup.c1**2 - sup.c2**2) * gamma2


@dataclass(frozen=True)
class TrapGeometry:
    """Power-law longitudinal trap in d dimensions plus tight transverse harmonic trap.

    q is the longitudinal hardness exponent; q = inf marks a hard-walled trap,
    in which case the stiffness k is None and formulas take analytic limits.
    The bare half-widths rho0 (transverse) and r0 (longitudinal) and the mass fix
    the rest: rho0^2 = hbar/(2 m omega_T), r0^(q+2) = hbar^2/(m k), omega_L = hbar/(m r0^2).
    Every trap, dataclasses.replace's too, is checked here: a length whose power
    under- or overflows raises ValueError, and r0 <= rho0 warns.
    """

    d: int
    q: float
    rho0: float
    r0: float
    mass: float
    k: float | None = field(init=False)
    omega_T: float = field(init=False)
    omega_L: float = field(init=False)

    @property
    def transverse_dimensions(self) -> int:
        return 3 - self.d

    @property
    def hard_wall(self) -> bool:
        return math.isinf(self.q)

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise ValueError("longitudinal dimension d must be 1, 2, or 3")
        if not (self.q >= 1.0):
            raise ValueError("hardness exponent q must be >= 1 (or inf)")
        if not all(0 < v < math.inf for v in (self.rho0, self.r0, self.mass)):
            raise ValueError("lengths and mass must be positive and finite")
        hb, q, mass, rho0, r0 = SI.hbar, float(self.q), self.mass, self.rho0, self.r0
        hint = ""  # once the frequencies are formed, only r0^(q+2) can fail
        try:
            omega_T, omega_L = hb / (2.0 * mass * rho0**2), hb / (mass * r0**2)
            hint = f" and q = {q:g}; use q = inf for a hard wall"
            k = None if math.isinf(q) else hb**2 / (mass * r0 ** (q + 2.0))
        except ArithmeticError:  # a power of rho0 or r0 under- or overflows
            raise ValueError(f"the trap's scales are out of float range at rho0 = {rho0:g} m, "
                             f"r0 = {r0:g} m{hint}") from None
        if r0 <= rho0:  # stacklevel 3: the caller of the generated __init__
            warnings.warn("r0 <= rho0: the loose/tight trap separation assumed by the "
                          "scaling formulas is violated", stacklevel=3)
        for name, value in (("q", q), ("k", k), ("omega_T", omega_T), ("omega_L", omega_L)):
            object.__setattr__(self, name, value)


def check_trap_mass(geom: TrapGeometry, species: Species) -> None:
    """Raise ValueError unless geom was built for species' mass: the solvers'
    kinetic terms read geom.mass and the couplings read species.mass."""
    if geom.mass != species.mass:
        raise ValueError(f"the trap was built for a mass of {geom.mass:.6g} kg, not the "
                         f"species' {species.mass:.6g} kg")


trap_from_lengths = TrapGeometry  # another name: its (d, q, rho0, r0, mass) are the fields
