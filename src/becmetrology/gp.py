"""Grid-based Gross-Pitaevskii machinery.

The solver works on the longitudinal problem after the tight transverse
directions have been integrated out against their Gaussian ground state, so
the effective coupling is g (N-1) eta_T.  A ground state minimizes the
discrete GP energy over unit-normalized real states by preconditioned
nonlinear conjugate gradients, one state per call; the kinetic operator is
spectral on one-dimensional longitudinal grids and a tridiagonal finite
difference on the radial grids of 2D and 3D traps.  The coupled two-mode
real-time evolution (1D only) uses Strang split steps K/2 V K/2, second order
with and without loss, with the two modes as the rows of one complex array
transformed in place and each potential factor built from the tangent of half
its phase.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
# numpy loads this on first use; load it with the package instead of inside
# the first solve
import numpy.fft  # noqa: F401

from .physconfig import (SI, Species, Superposition, TrapGeometry,
                         coupling_constant, differential_coupling)
from .scaling import Regime, classify_regime, eta_transverse, unit_sphere_area
from .thomas_fermi import phase_dynamics, tf_profile


class ConvergenceError(RuntimeError):
    """The energy minimizer did not reach the requested gradient norm."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class StepSizeError(ValueError):
    """Real-time step too coarse for the requested accuracy heuristic."""


@dataclass(frozen=True)
class Grid:
    """Uniform longitudinal grid.

    dimension 1 is a symmetric line [-extent, extent) suitable for FFTs;
    dimensions 2 and 3 are radially symmetric half-lines [0, extent) sampled
    at cell centers.
    """

    dimension: int
    points: int
    extent: float

    def __post_init__(self):
        if self.dimension not in (1, 2, 3):
            raise ValueError("grid dimension must be 1, 2, or 3")
        if self.points < 64:
            raise ValueError("need at least 64 grid points per axis")
        if self.extent <= 0:
            raise ValueError("grid extent must be positive")

    @property
    def spacing(self) -> float:
        if self.dimension == 1:
            return 2.0 * self.extent / self.points
        return self.extent / self.points

    def coordinates(self) -> np.ndarray:
        if self.dimension == 1:
            return -self.extent + self.spacing * np.arange(self.points)
        return (np.arange(self.points) + 0.5) * self.spacing

    def weights(self) -> np.ndarray:
        """Integration measure per point (includes the angular factor for d > 1)."""
        if self.dimension == 1:
            return np.full(self.points, self.spacing)
        r = self.coordinates()
        return unit_sphere_area(self.dimension) * r ** (self.dimension - 1) * self.spacing


@dataclass
class Field:
    """Complex amplitude on a Grid, unit-normalized for a lossless condensate."""

    grid: Grid
    values: np.ndarray
    n_atoms: float


@dataclass(frozen=True)
class GroundStateResult:
    field: Field
    mu: float               # longitudinal chemical potential
    mu_total: float         # including the transverse zero-point offset
    e0: float               # single-particle kinetic + trap energy (longitudinal)
    eta_longitudinal: float
    eta_n: float            # eta_T * eta_longitudinal
    residual: float         # relative gradient norm |H psi - mu psi| / mu
    steps: int              # minimizer iterations


def _potential(geom: TrapGeometry, x: np.ndarray) -> np.ndarray:
    if geom.hard_wall:
        raise ValueError("hard-wall traps are analytic limits; the grid solver "
                         "needs a finite hardness exponent")
    return 0.5 * geom.k * np.abs(x) ** geom.q


def default_grid(geom: TrapGeometry, species: Species, n_atoms: float,
                 points: int = 512, extent_factor: float = 2.0) -> Grid:
    """Grid sized from the TF radius (or the bare width when interactions are weak)."""
    r_char = geom.r0
    if classify_regime(geom, species.a11, n_atoms) != Regime.BARE:
        r_char = tf_profile(geom, species, n_atoms, Regime.INTERMEDIATE).r_tilde
    extent = max(extent_factor * r_char, 4.0 * geom.r0)
    return Grid(dimension=geom.d, points=points, extent=extent)


_MAX_ITERATIONS = 20_000
_MAX_ANGLE = 0.5  # radians; bounds a secant step extrapolated from a nearly flat slope
# share of |psi_k|^2 in the top eighth of wavenumbers above which a 1D state is
# under-resolved: at most 2.3e-23 on the default sweep, where eta_N is converged
# to 8e-12; 2.8e-6 for N/N_L = 1000 on 64 points, where eta_N is 1.6e-4 off.
# Two-mode final fields: at most 6e-15 on good runs, 1.6e-2 and up at a split-step resonance
_SPECTRAL_TAIL = 1e-10
# minority-sign share of the norm above which a radial state has a node: at
# most 6.4e-21 on the nodeless states of a 144-case sweep (d = 2, 3; q = 1 to
# 10; 64 to 2048 points; N/N_L = 0.01 to 1e4); 3.6e-2 and 3.4e-1 on the two
# states with a node that 64 points first gave at q = 10, N/N_L = 1e4
_NODE_SHARE = 1e-8


def _spectral_kinetic(grid, mass, hb):
    """1D kinetic operator T, diagonal in Fourier space (real states: real FFTs).

    Returns apply(psi) = T psi and inverse(kinetic, interaction), the solve
    psi -> (lam + T)^-1 psi for a state of mean kinetic energy <T> and mean
    interaction potential <g psi^2>.  The shift lam is the larger of the two:
    in the Thomas-Fermi regime <T> alone lies far below mu and over-weights
    the low wavenumbers.
    """
    points = grid.points
    t_k = hb**2 / (2.0 * mass) * (2.0 * math.pi * np.fft.rfftfreq(points, grid.spacing))**2

    def inverse(kinetic, interaction):
        factor = 1.0 / (max(kinetic, interaction) + t_k)
        return lambda psi: np.fft.irfft(factor * np.fft.rfft(psi), n=points)

    return (lambda psi: np.fft.irfft(t_k * np.fft.rfft(psi), n=points)), inverse


def _radial_kinetic(grid, mass, hb):
    """2D/3D kinetic operator T as the tridiagonal FD form of -(hbar^2/2m)
    (1/r^(d-1)) d/dr (r^(d-1) d/dr); _spectral_kinetic's contract, tridiagonal solves.

    The shift lam is <T> alone: on 96 radial cases (d = 2, 3; q = 1 to 10;
    64 to 2048 points; N/N_L = 0.01 to 1e4), <T> + <g psi^2> and
    <T + V + g psi^2> slowed 12 and 33 of them by more than 10%, by up to
    1.6 and 2.0 times.
    """
    d = grid.dimension
    r, dr = grid.coordinates(), grid.spacing
    a_plus = (r + 0.5 * dr) ** (d - 1)
    a_minus = (r - 0.5 * dr) ** (d - 1)
    a_minus[0] = 0.0  # regularity at the origin
    c = hb**2 / (2.0 * mass * dr**2)
    diag = c * (a_plus + a_minus) / r ** (d - 1)
    upper = -c * a_plus[:-1] / r[:-1] ** (d - 1)
    lower = -c * a_minus[1:] / r[1:] ** (d - 1)

    # apply in flux form, differences first: diagonal plus off-diagonals cancels
    # to a round-off that holds |H psi - mu psi| / mu above 1e-10 on fine grids
    scale = -c / r ** (d - 1)
    flux = np.zeros(grid.points + 1)  # flux[i] through r_i - dr/2; none at the origin

    def apply(psi):
        np.subtract(psi[1:], psi[:-1], out=flux[1:-1])
        flux[-1] = -psi[-1]  # psi = 0 beyond the grid
        flux[1:] *= a_plus
        return scale * (flux[1:] - flux[:-1])

    def inverse(kinetic, interaction):
        lam = kinetic
        # LU factors of lam + T, once per state, on Python floats: lam + T is
        # diagonally dominant, so elimination needs no pivoting (nor does
        # LAPACK's dgttrf pivot here) and the arithmetic is dgttrf's and dgttrs'
        piv, sub, sup = (lam + diag).tolist(), lower.tolist(), upper.tolist()
        for i, u in enumerate(sup):
            if piv[i] == 0.0:
                raise np.linalg.LinAlgError("singular preconditioner")
            sub[i] /= piv[i]
            piv[i + 1] -= sub[i] * u
        if piv[-1] == 0.0:
            raise np.linalg.LinAlgError("singular preconditioner")

        def solve(psi):
            x = psi.tolist()
            for i, s in enumerate(sub):
                x[i + 1] -= s * x[i]
            x[-1] /= piv[-1]
            for i in range(len(sup) - 1, -1, -1):
                x[i] = (x[i] - sup[i] * x[i + 1]) / piv[i]
            return np.array(x)

        return solve

    return apply, inverse


def _quantile(a, q):
    """np.quantile(a, q) for 0 <= q < 1 by numpy's default (linear) rule, to
    the bit, from np.partition: np.quantile would load numpy.ma."""
    k = (a.size - 1) * q
    i = int(k)
    lo, hi = (float(v) for v in np.partition(a, (i, i + 1))[i:i + 2])
    t = k - i
    return lo + (hi - lo) * t if t < 0.5 else hi - (hi - lo) * (1.0 - t)


def _minority_share(psi, w):
    """Share of the norm on the minority sign of psi; 0 for a state of one sign."""
    density = w * psi**2
    positive, negative = float(np.sum(density[psi > 0])), float(np.sum(density[psi < 0]))
    return min(positive, negative) / (positive + negative)


def _minimize(kinetic, V, w, geff, n_atoms, e_floor, tolerance, start=None):
    """Real ground state by preconditioned nonlinear conjugate gradients on the
    unit sphere (Antoine, Levitt & Tang, J. Comput. Phys. 343, 92 (2017)).

    kinetic is (apply, inverse) for the grid; V and w are the potential and
    the integration measure.  The iteration starts from start (a TF-shaped or
    Gaussian guess when None).  Directions are Polak-Ribiere+ in the metric of
    the preconditioner (lam + T)^-1, whose shift lam the grid's inverse takes
    from the start state's mean kinetic energy <T> and mean interaction
    potential <g psi^2>; each step follows the great circle through the
    direction, by an angle from a secant on the energy's slope.  Returns psi,
    e0, mu, the relative gradient norm |H psi - mu psi| / mu and the
    iteration count.

    An iteration makes few numpy calls: each inner product is one BLAS dot
    against a weighted array (w psi and w gradient serve several), psi^3 is
    psi psi psi, H psi becomes the gradient in its own buffer, and the
    direction and the state are updated in place.  The slope at the trial
    angle is c <linear, tau> + s <linear_unit, tau> + g <(c psi + s unit)^3,
    tau> for the tangent tau = c unit - s psi, so H at the trial point is
    never formed.
    """
    apply_t, inverse = kinetic

    def dot(a, b):
        return float(np.dot(w * a, b))

    if start is None:
        # TF-shaped guess where interactions dominate, Gaussian otherwise
        mu_guess = max(_quantile(V, 0.3), e_floor)
        start = np.sqrt(np.maximum(mu_guess - V, 0.0) + 1e-3 * mu_guess)
    psi = start / math.sqrt(dot(start, start))
    density = psi**2
    precondition = inverse(dot(psi, apply_t(psi)), geff * dot(density, density))
    direction = None
    per_length = 1.0  # trial angle per unit length of the direction
    for iteration in range(_MAX_ITERATIONS + 1):
        linear = apply_t(psi)
        linear += V * psi
        # H psi, then the gradient H psi - mu psi, in one buffer
        gradient = psi * psi
        gradient *= psi
        gradient *= geff
        gradient += linear
        w_psi = w * psi
        mu = float(np.dot(w_psi, gradient))
        gradient -= mu * psi
        w_gradient = w * gradient
        residual = math.sqrt(np.dot(w_gradient, gradient)) / mu
        if residual < tolerance:
            return psi, float(np.dot(w_psi, linear)), mu, residual, iteration
        if iteration == _MAX_ITERATIONS:
            raise ConvergenceError(f"N = {n_atoms:.6g}: no ground state after {iteration} "
                                   f"iterations (residual {residual:.3e})", residual=residual)
        z = precondition(gradient)
        z -= float(np.dot(w_psi, z)) * psi
        gz = float(np.dot(w_gradient, z))
        if direction is not None:
            beta = max(0.0, (gz - float(np.dot(w_gradient, z_old))) / gz_old)
            direction -= float(np.dot(w_psi, direction)) * psi
            direction *= beta
            direction -= z
            slope = float(np.dot(w_gradient, direction))
        if direction is None or slope >= 0.0:
            direction, slope = -z, -gz  # restart: not a descent direction
        z_old, gz_old = z, gz
        length = math.sqrt(dot(direction, direction))
        unit = direction / length
        linear_unit = apply_t(unit)
        linear_unit += V * unit

        # the energy's slope along the great circle, at 0 and at the trial
        # angle: <H(c psi + s unit), tau> with the tangent tau = c unit - s psi
        trial = min(per_length * length, _MAX_ANGLE)
        c, s = math.cos(trial), math.sin(trial)
        w_tau = c * unit
        w_tau -= s * psi
        w_tau *= w
        cube = c * psi
        cube += s * unit
        cube *= cube * cube
        f0 = slope / length
        f1 = float(c * np.dot(w_tau, linear) + s * np.dot(w_tau, linear_unit)
                   + geff * np.dot(w_tau, cube))
        theta = min(trial * f0 / (f0 - f1) if f1 > f0 else _MAX_ANGLE, _MAX_ANGLE)
        per_length = theta / length
        psi *= math.cos(theta)
        unit *= math.sin(theta)
        psi += unit
        psi /= math.sqrt(dot(psi, psi))


def ground_state(geom: TrapGeometry, species: Species, n_atoms: float,
                 grid: Grid | None = None, tolerance: float = 1e-10) -> GroundStateResult:
    """Ground state of the reduced longitudinal GP equation for one atom number.

    Minimizes the discrete GP energy over unit-normalized real states on grid
    (default_grid when None) until the relative gradient norm
    |H psi - mu psi| / mu falls below tolerance.  On radial grids a state
    with a node is restarted once from |psi|, and raises ConvergenceError if
    it keeps one.  N = 1 turns the interaction off and recovers the bare trap
    ground state.
    """
    g = coupling_constant(species.a11, species.mass)
    eta_t = eta_transverse(geom)
    geff = g * (n_atoms - 1.0) * eta_t
    if geff < 0:
        raise ValueError("attractive interactions are not supported")
    grid = default_grid(geom, species, n_atoms) if grid is None else grid
    if grid.dimension != geom.d:
        raise ValueError("grid dimension does not match the trap geometry")
    V = _potential(geom, grid.coordinates())

    if classify_regime(geom, species.a11, n_atoms) != Regime.BARE:
        r_tf = tf_profile(geom, species, n_atoms, Regime.INTERMEDIATE).r_tilde
        if grid.extent < 1.5 * r_tf:
            warnings.warn(f"N = {n_atoms:.6g}: grid extent is below 1.5x the TF radius; "
                          "the cloud may be clipped", stacklevel=2)
        mu_tf = 0.5 * geom.k * r_tf**geom.q
        healing = SI.hbar / math.sqrt(2.0 * geom.mass * mu_tf)
        # on 1D grids the solved state's spectrum is checked instead; a
        # finite-difference error does not show in a spectral tail
        if geom.d > 1 and grid.spacing > healing:
            warnings.warn(f"N = {n_atoms:.6g}: grid spacing does not resolve the healing "
                          "length", stacklevel=2)

    hb = SI.hbar
    w = grid.weights()
    kinetic = (_spectral_kinetic if geom.d == 1 else _radial_kinetic)(grid, geom.mass, hb)
    e_floor = hb * geom.omega_L
    psi, e0, mu, residual, iterations = _minimize(kinetic, V, w, geff, n_atoms, e_floor,
                                                  tolerance)
    # on radial grids H = T + V + g psi^2 has negative off-diagonals, so its
    # lowest state has one sign: a state with a node is an excited stationary
    # state, which the minimizer leaves when restarted from |psi|.  The 1D
    # spectral T has no such sign structure.
    if geom.d > 1 and _minority_share(psi, w) > _NODE_SHARE:
        psi, e0, mu, residual, more = _minimize(kinetic, V, w, geff, n_atoms, e_floor,
                                                tolerance, start=np.abs(psi))
        iterations += more
        share = _minority_share(psi, w)
        if share > _NODE_SHARE:
            raise ConvergenceError(f"N = {n_atoms:.6g}: the stationary state has a node "
                                   f"({share:.1e} of its norm has the minority sign), "
                                   "also when restarted from |psi|", residual=residual)
    if geom.d == 1:
        tail = _spectral_tail(psi)
        if tail > _SPECTRAL_TAIL:
            warnings.warn(f"N = {n_atoms:.6g}: grid spacing does not resolve the state "
                          f"({tail:.1e} of its spectral power is in the top eighth of "
                          "wavenumbers)", stacklevel=2)
    eta_l = float(np.sum(w * psi**4))
    mu_offset = geom.transverse_dimensions * hb * geom.omega_T / 2.0
    return GroundStateResult(field=Field(grid=grid, values=psi.astype(complex), n_atoms=n_atoms),
                             mu=mu, mu_total=mu + mu_offset, e0=e0, eta_longitudinal=eta_l,
                             eta_n=eta_t * eta_l, residual=residual, steps=iterations)


def _spectral_tail(fields: np.ndarray) -> float:
    """Largest share of spectral power in the top eighth of |k| among 1D fields' rows."""
    power = np.abs(np.fft.fft(fields))**2
    k = np.arange(power.shape[-1])
    k = np.minimum(k, k.size - k)  # |k| in units of the grid's wavenumber spacing
    top = np.sum(power[..., k >= (k.size // 2 + 1) * 7 // 8], axis=-1)
    return float(np.max(top / np.sum(power, axis=-1)))


def local_log_slopes(n_list, etas) -> list[float]:
    """Centered-difference slopes of ln(eta) against ln(N-1); nan at both ends."""
    slopes = [math.nan] * len(etas)
    for i in range(1, len(etas) - 1):
        slopes[i] = (math.log(etas[i + 1]) - math.log(etas[i - 1])) / \
            (math.log(n_list[i + 1] - 1.0) - math.log(n_list[i - 1] - 1.0))
    return slopes


def _min_two_mode_steps(field: Field, species: Species, geom: TrapGeometry,
                        t_final: float) -> int:
    """Fewest steps evolve_two_mode accepts for t_final: at most 0.1 rad of
    phase per step at the largest V + g rho (strongest channel) in the cloud."""
    dens = np.abs(field.values) ** 2
    occupied = dens > 1e-6 * dens.max()
    g_max = max(coupling_constant(a, geom.mass) for a in (species.a11, species.a12, species.a22))
    g_max *= (field.n_atoms - 1.0) * eta_transverse(geom)
    potential = _potential(geom, field.grid.coordinates())
    rate = float(np.max((potential[occupied] + g_max * dens[occupied]) / SI.hbar))
    return int(math.ceil(t_final * rate / 0.1))


def two_mode_steps(ground: GroundStateResult, species: Species, geom: TrapGeometry,
                   t_final: float) -> int:
    """Step count for evolving ground's state over t_final with evolve_two_mode:
    at least 200 steps and at most 0.05 rad of mu t/hbar per step, and never
    fewer than evolve_two_mode accepts.  Near N_L that last bound, which reads
    the largest V + g rho, lies far above mu and sets the count."""
    return max(200, int(math.ceil(t_final * ground.mu / SI.hbar / 0.05)),
               _min_two_mode_steps(ground.field, species, geom, t_final))


@dataclass(frozen=True)
class EvolutionRecord:
    times: np.ndarray
    overlap: np.ndarray   # complex <psi_2|psi_1>
    p1: np.ndarray
    p2: np.ndarray
    norm1: np.ndarray
    norm2: np.ndarray
    final_fields: tuple[np.ndarray, np.ndarray]


def evolve_two_mode(initial: GroundStateResult | Field, sup: Superposition,
                    species: Species, geom: TrapGeometry, t_final: float,
                    steps: int, loss: bool = False,
                    record_every: int = 1) -> EvolutionRecord:
    """Coupled two-mode evolution from a shared initial ground state.

    Both modes start in the supplied single-mode ground state (computed with
    the in-state coupling); they then propagate under the coupled reduced GP
    equations with population weights c1^2, c2^2.  With loss on, the
    spin-exchange non-Hermitian potentials deplete the norms.

    Strang splitting K/2 V K/2 (Bao, Jaksch & Markowich 2003): a kinetic
    half-step, a potential step, a kinetic half-step.  The kinetic half-steps
    that meet between steps are one kinetic step, so a run makes a half-step
    before the first step and after the last, and one FFT pair per step on
    the (2, points) array whose rows are the two modes.  With loss on, the
    potential step takes its decay and phase at the mid-step density, so the
    scheme is second order with and without loss.  The FFTs write into two
    preallocated arrays, and each potential factor exp(decay + i phase) is
    built from t = tan(phase / 2) by rational arithmetic, which holds its
    modulus to a few ulp.  The state is recorded at t = 0 and after every
    record_every-th step and the last, right after the potential step: it
    differs from the state at that time by a kinetic half-step, which is
    unitary and the same for both modes, so norms, overlap, p1 and p2 are
    those at that time.  Fewer steps than 0.1 rad of phase per step at the
    largest V + g rho in the cloud allows raise StepSizeError, as do final
    fields past the _SPECTRAL_TAIL rule, the mark of a split-step resonance;
    record_every < 1 raises ValueError.
    """
    field = initial.field if isinstance(initial, GroundStateResult) else initial
    grid, n_atoms = field.grid, field.n_atoms
    if grid.dimension != 1 or geom.d != 1:
        raise ValueError("two-mode evolution is implemented for 1D longitudinal grids")
    if steps < 1 or t_final <= 0:
        raise ValueError("need a positive final time and at least one step")
    if record_every < 1:
        raise ValueError("record_every must be at least 1")
    hb, mass = SI.hbar, geom.mass
    x, dx = grid.coordinates(), grid.spacing
    kx = 2.0 * math.pi * np.fft.fftfreq(grid.points, dx)
    V = _potential(geom, x)
    eta_t = eta_transverse(geom)
    gmat = np.array([[coupling_constant(species.a11, mass),
                      coupling_constant(species.a12, mass)],
                     [coupling_constant(species.a12, mass),
                      coupling_constant(species.a22, mass)]])
    gmat *= (n_atoms - 1.0) * eta_t
    weights = np.array([sup.c1**2, sup.c2**2])
    loss12 = species.gamma12_loss * (n_atoms - 1.0) * eta_t
    loss22 = species.gamma22_loss * (n_atoms - 1.0) * eta_t

    needed = _min_two_mode_steps(field, species, geom, t_final)
    if steps < needed:
        raise StepSizeError(f"step too coarse: {steps} steps advance the phase by "
                            f"more than 0.1 rad per step; use at least {needed} steps")
    dt = t_final / steps

    # the inverse FFT runs unscaled (norm="forward"); its 1/points rides on
    # the kinetic factors
    kin_phase = -1j * (hb * kx**2 / (2.0 * mass)) * dt
    kin_half = np.exp(0.5 * kin_phase) / grid.points
    kin_factor = np.exp(kin_phase) / grid.points
    psi = np.array([field.values, field.values], dtype=complex)  # row i is mode i + 1
    spectrum = np.empty_like(psi)
    # one potential step multiplies psi by exp(decay + i phase), with the
    # phase -dt/hbar (V + G rho) and the decay -dt/2 L rho at density rho;
    # v_half and g_half give half that phase, whose tangent builds the factor
    v_half = -0.5 * dt / hb * V
    g_half = -0.5 * dt / hb * gmat * weights
    if loss:
        l_decay = -0.5 * dt * np.array([[0.0, loss12], [loss12, loss22]]) * weights
    rho, phase = np.empty(psi.shape), np.empty(psi.shape)
    decay = np.empty(psi.shape) if loss else 1.0
    factor = np.empty_like(psi)

    def couple(m, rho, out):
        # out = m @ rho for a 2x2 m, elementwise: a BLAS call would add its
        # work buffer (about 0.3 MB) to the peak memory
        np.multiply(m[:, :1], rho[0], out=out)
        return np.add(out, m[:, 1:] * rho[1], out=out)

    def kinetic_step(psi, kin):
        np.fft.fft(psi, out=spectrum)
        # kin first: the complex product is not symmetric in its operands'
        # rounding where it uses fused multiply-adds
        np.multiply(kin, spectrum, out=spectrum)
        np.fft.ifft(spectrum, out=psi, norm="forward")

    def potential_step(psi):
        """One potential step on psi in place."""
        # |psi|^2: both parts squared in one pass over factor's memory
        np.square(psi.view(float), out=factor.view(float))
        np.add(factor.real, factor.imag, out=rho)
        if loss:
            # the loss moves the density within the step, so the decay and
            # the phase are taken at its mid-step value rho exp(l_decay rho),
            # in closed form for a density frozen over the first half-step
            np.exp(couple(l_decay, rho, decay), out=decay)
            np.multiply(rho, decay, out=rho)
            np.exp(couple(l_decay, rho, decay), out=decay)
        np.add(couple(g_half, rho, phase), v_half, out=phase)
        # exp(decay + i phase) from t = tan(phase / 2), the tangent of what
        # the phase array holds: with D = exp(decay), which the decay array
        # now holds (1 without loss), and r = 2 D / (1 + t^2), D cos(phase)
        # is r - D and D sin(phase) is t r.
        # numpy's float64 tan is vectorized where its cos and sin are not
        # (about 3 against 10 ns per element), and its complex exp is slower
        # still.  Past a pole of tan, t is huge and r tiny, which gives -D.
        np.tan(phase, out=phase)
        np.square(phase, out=rho)
        np.add(rho, 1.0, out=rho)
        np.divide(decay, rho, out=rho)
        np.add(rho, rho, out=rho)
        np.subtract(rho, decay, out=factor.real)
        np.multiply(phase, rho, out=factor.imag)
        psi *= factor

    def snapshot(psi, t):
        n1, n2 = (float(n) for n in np.sum(psi.real**2 + psi.imag**2, axis=1) * dx)
        ov = complex(np.vdot(psi[1], psi[0]) * dx)
        fringe = 2.0 * sup.c1 * sup.c2 * ov.imag
        p1 = 0.5 * (weights[0] * n1 + weights[1] * n2) - 0.5 * fringe
        p2 = 0.5 * (weights[0] * n1 + weights[1] * n2) + 0.5 * fringe
        times.append(t)
        overlaps.append(ov)
        p1s.append(p1)
        p2s.append(p2)
        norm1s.append(n1)
        norm2s.append(n2)

    times, overlaps, p1s, p2s, norm1s, norm2s = [], [], [], [], [], []
    snapshot(psi, 0.0)
    kinetic_step(psi, kin_half)
    for step in range(1, steps + 1):
        potential_step(psi)
        if step % record_every == 0 or step == steps:
            snapshot(psi, step * dt)
        kinetic_step(psi, kin_factor if step < steps else kin_half)
    record = EvolutionRecord(times=np.array(times), overlap=np.array(overlaps),
                             p1=np.array(p1s), p2=np.array(p2s),
                             norm1=np.array(norm1s), norm2=np.array(norm2s),
                             final_fields=(psi[0], psi[1]))
    tail = _spectral_tail(psi)
    if tail > _SPECTRAL_TAIL:
        raise StepSizeError(f"{steps} steps sit near a split-step resonance ({tail:.1e} of "
                            "the final spectral power is in the top eighth of wavenumbers)")
    if not loss:
        drift = max(float(np.max(np.abs(record.norm1 - 1.0))),
                    float(np.max(np.abs(record.norm2 - 1.0))))
        if drift > 1e-6:
            raise RuntimeError(f"lossless evolution is unstable: norm drift {drift:.3e}")
    return record


@dataclass(frozen=True)
class LossBudget:
    gamma: float     # integrated spin-exchange decay rate (1/s)
    omega_N: float   # integrated relative-phase rate (rad/s)
    ratio: float     # gamma / |omega_N|


def loss_budget(species: Species, geom: TrapGeometry, n_atoms: float,
                sup: Superposition) -> LossBudget:
    """Spin-exchange decay rate against the phase-accumulation rate.

    The ratio hbar (Gamma12 + Gamma22 c2^2) / (2 Delta-g) is independent of the
    atom number and of every trap parameter; the common eta_N cancels.
    """
    delta_g = differential_coupling(species, sup)
    if delta_g == 0.0:
        raise ValueError("no relative-phase signal: the differential coupling "
                         "vanishes for this species and superposition")
    profile = tf_profile(geom, species, n_atoms, Regime.INTERMEDIATE)
    gamma = (n_atoms - 1.0) * profile.eta_N * \
        (species.gamma12_loss + species.gamma22_loss * sup.c2**2) / 2.0
    omega = phase_dynamics(geom, species, n_atoms, sup).omega_N
    return LossBudget(gamma=gamma, omega_N=omega, ratio=gamma / abs(omega))

