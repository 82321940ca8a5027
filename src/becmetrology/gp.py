"""Grid-based Gross-Pitaevskii machinery.

The solver works on the longitudinal problem after the tight transverse
directions have been integrated out against their Gaussian ground state, so
the effective coupling is g (N-1) eta_T.  A ground state minimizes the
discrete GP energy over unit-normalized real states by preconditioned
nonlinear conjugate gradients; the states of several atom numbers are solved
as the rows of one array, so that each numpy call serves all of them, and a
1D state outside the bare regime starts from its Thomas-Fermi profile.  The
kinetic operator is spectral on one-dimensional longitudinal grids and a
tridiagonal finite difference on the radial grids of 2D and 3D traps.  The
coupled two-mode real-time evolution (1D only) uses Strang split steps
K/2 V K/2, second order with and without loss, with the two modes as the
rows of one complex array transformed in place and each potential factor a
Cayley transform of the tangent of half its phase.  One FFT of the start
field per call checks that it is resolved and cuts it to the fewest points
whose band holds it, where every run starts; one FFT of a run's final fields
serves its resonance check, on the top of that band, and their way back to
the caller's grid.  Its step count is the caller's, checked against a 0.1-rad
phase guard, or the fewest steps of a doubling ladder whose Richardson error
estimate over every shared record meets TWO_MODE_TOLERANCE.  The FFTs of
each minimizer iteration and each split step call numpy's pocketfft kernels
directly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
# the gufuncs that np.fft.fft, ifft, rfft and irfft call (numpy >= 2.0) after
# 3-5 us of argument handling, which costs more than the transform on a few
# hundred points.  Each takes (input, scale, out) on the last axis and gives
# np.fft's bits for the scale that np.fft passes: 1 for fft, rfft and the
# unscaled ifft (norm="forward"), 1/n for irfft.  The import also loads
# numpy.fft, which numpy would otherwise load inside the first solve
from numpy.fft._pocketfft_umath import (fft as _fft, ifft as _ifft, irfft as _irfft,
                                        rfft_n_even as _rfft_n_even,
                                        rfft_n_odd as _rfft_n_odd)

from .physconfig import (SI, Species, Superposition, TrapGeometry, check_trap_mass,
                         coupling_constant)
from .scaling import Regime, classify_regime, eta_transverse, unit_sphere_area
from .thomas_fermi import phase_dynamics, tf_profile


class ConvergenceError(RuntimeError):
    """The energy minimizer did not reach the requested gradient norm."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class StepSizeError(ValueError):
    """A two-mode run that cannot be trusted at its step count: a start field
    its grid does not resolve, final fields at a split-step resonance, a
    lossless run whose norms drift by more than 1e-6, an explicit count below
    the 0.1-rad guard, or a step ladder that meets no tolerance below its cap."""


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
        if not isinstance(self.points, (int, np.integer)):
            raise ValueError(f"grid point count must be an integer, not {self.points!r}")
        if self.points < 64:
            raise ValueError("need at least 64 grid points per axis")
        if not 0 < self.extent < math.inf:
            raise ValueError("grid extent must be positive and finite")

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
# iterations without a halving of a row's residual after which the minimizer
# gives the row up: converging solves go at most 173 iterations without one
# over the test suite and 222 on radial q = 10 grids of 2048 points; a
# residual on its round-off floor above tolerance never halves again
_STALL_ITERATIONS = 2000
# default_grid spans max(extent_factor R_TF, 4 r0): at this extent_factor and
# above the cloud is never clipped, below it eta_N can be off by order one
MIN_EXTENT_FACTOR = 1.5
_MAX_ANGLE = 0.5  # radians; bounds a secant step extrapolated from a nearly flat slope
# share of |psi_k|^2 in the top eighth of wavenumbers above which a 1D state is
# under-resolved: at most 2.3e-23 on the default sweep, where eta_N is converged
# to 8e-12; 2.8e-6 for N/N_L = 1000 on 64 points, where eta_N is 1.6e-4 off.
# Two-mode final fields, read on the kept band that they evolved on: at most
# 5e-16 on good runs, 4e-2 and up at a split-step resonance
_SPECTRAL_TAIL = 1e-10
# share of a two-mode start field's spectral power in or above the top eighth
# of a halved grid's band up to which evolve_two_mode evolves on that band:
# the y = 1000 state on 1024 points keeps 256 (2.8e-16 there, 1.9e-9 in the
# top eighth of 128), and moves its final overlap by 4e-13
_BAND_TAIL = 1e-15
# minority-sign share of the norm above which a radial state has a node: at
# most 6.4e-21 on the nodeless states of a 144-case sweep (d = 2, 3; q = 1 to
# 10; 64 to 2048 points; N/N_L = 0.01 to 1e4); 3.6e-2 and 3.4e-1 on the two
# states with a node that 64 points first gave at q = 10, N/N_L = 1e4
_NODE_SHARE = 1e-8


class _SpectralKinetic:
    """1D kinetic operator T on the rows of a batch, one grid per row, diagonal
    in Fourier space (real states: real FFTs).

    apply(psi) is T psi row by row.  shift(kinetic, interaction) sets each
    row's preconditioner, the solve psi -> (lam + T)^-1 psi that
    precondition applies, from the row's mean kinetic energy <T> and mean
    interaction potential <g psi^2>.  The shift lam is the larger of the two:
    in the Thomas-Fermi regime <T> alone lies far below mu and over-weights
    the low wavenumbers.  keep(rows) drops the rows outside the boolean mask.
    """

    def __init__(self, grids, mass, hb):
        points = grids[0].points
        self.t_k = np.array([hb**2 / (2.0 * mass) *
                             (2.0 * math.pi * np.fft.rfftfreq(points, grid.spacing))**2
                             for grid in grids])
        self._rfft = _rfft_n_even if points % 2 == 0 else _rfft_n_odd
        self._scale = 1.0 / points
        self._spectrum = np.empty(self.t_k.shape, dtype=complex)
        self._factor = None

    def _diagonal(self, factor, psi):
        # irfft(factor * rfft(psi), n=points) into a new array: the minimizer
        # keeps several results at once
        spectrum = self._spectrum
        self._rfft(psi, 1.0, spectrum)
        np.multiply(factor, spectrum, out=spectrum)
        return _irfft(spectrum, self._scale, np.empty(psi.shape))

    def apply(self, psi):
        return self._diagonal(self.t_k, psi)

    def shift(self, kinetic, interaction):
        self._factor = 1.0 / (np.maximum(kinetic, interaction) + self.t_k)

    def precondition(self, psi):
        return self._diagonal(self._factor, psi)

    def keep(self, rows):
        self.t_k, self._factor = self.t_k[rows], self._factor[rows]
        self._spectrum = self._spectrum[:len(self.t_k)]


class _RadialKinetic:
    """2D/3D kinetic operator T as the tridiagonal FD form of -(hbar^2/2m)
    (1/r^(d-1)) d/dr (r^(d-1) d/dr); _SpectralKinetic's contract, with one
    tridiagonal solve per row.  All rows share one description of T: the face
    areas r^(d-1) at r +- dr/2, c = hbar^2 / (2 m dr^2) and r^(d-1).

    The shift lam is <T> alone: on 96 radial cases (d = 2, 3; q = 1 to 10;
    64 to 2048 points; N/N_L = 0.01 to 1e4), <T> + <g psi^2> and
    <T + V + g psi^2> slowed 12 and 33 of them by more than 10%, by up to
    1.6 and 2.0 times.
    """

    def __init__(self, grids, mass, hb):
        d = grids[0].dimension
        r = np.array([grid.coordinates() for grid in grids])
        dr = np.array([[grid.spacing] for grid in grids])
        self._plus, self._minus = (r + 0.5 * dr) ** (d - 1), (r - 0.5 * dr) ** (d - 1)
        self._minus[:, 0] = 0.0  # regularity at the origin
        self._c = np.array([[hb**2 / (2.0 * mass * grid.spacing**2)] for grid in grids])
        self._area = r ** (d - 1)
        # apply in flux form, differences first: diagonal plus off-diagonals
        # cancels to a round-off that holds |H psi - mu psi| / mu above 1e-10
        # on fine grids
        self._scale = -self._c / self._area
        # flux[:, i] through r_i - dr/2; none at the origin
        self._flux = np.zeros((len(grids), grids[0].points + 1))
        self._solves = None

    def apply(self, psi):
        flux = self._flux
        np.subtract(psi[:, 1:], psi[:, :-1], out=flux[:, 1:-1])
        flux[:, -1] = -psi[:, -1]  # psi = 0 beyond the grid
        flux[:, 1:] *= self._plus
        return self._scale * (flux[:, 1:] - flux[:, :-1])

    def shift(self, kinetic, interaction):
        c, plus, minus, area = self._c, self._plus, self._minus, self._area
        diagonal = kinetic + c * (plus + minus) / area
        lower = -c * minus[:, 1:] / area[:, 1:]
        upper = -c * plus[:, :-1] / area[:, :-1]
        self._solves = [_tridiagonal_solve(*bands) for bands in zip(diagonal, lower, upper)]

    def precondition(self, psi):
        return np.array([solve(row) for solve, row in zip(self._solves, psi)])

    def keep(self, rows):
        self._plus, self._minus, self._c, self._area, self._scale = \
            (a[rows] for a in (self._plus, self._minus, self._c, self._area, self._scale))
        self._flux = self._flux[:len(self._plus)]
        self._solves = [s for s, k in zip(self._solves, rows) if k]


def _tridiagonal_solve(diag, lower, upper):
    """psi -> A^-1 psi for the tridiagonal A with these bands, factored once.

    LU factors on Python floats: A = lam + T is diagonally dominant, so
    elimination needs no pivoting (nor does LAPACK's dgttrf pivot here) and
    the arithmetic is dgttrf's and dgttrs'.
    """
    piv, sub, sup = diag.tolist(), lower.tolist(), upper.tolist()
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
        return x

    return solve


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


def _minimize(kinetic, V, w, geff, n_atoms, start, tolerance):
    """Real ground states by preconditioned nonlinear conjugate gradients on the
    unit sphere (Antoine, Levitt & Tang, J. Comput. Phys. 343, 92 (2017)),
    one state per row of a (rows, points) batch.

    kinetic is the rows' _SpectralKinetic or _RadialKinetic; V, w and start
    hold each row's potential, integration measure and start state, geff and
    n_atoms its coupling and atom number.  Directions are Polak-Ribiere+ in
    the metric of the preconditioner (lam + T)^-1, whose shift lam the kinetic
    operator takes from the start state's mean kinetic energy <T> and mean
    interaction potential <g psi^2>; each step follows the great circle
    through the direction, by an angle from a secant on the energy's slope.
    Returns psi, mu, the relative gradient norm |H psi - mu psi| / mu and
    the iteration count of every row.

    Every row keeps its own coefficients, trial angle and restarts, and each
    numpy call serves all rows: an inner product is a row-wise np.vecdot
    against a weighted array (w psi and w gradient serve several), so a row
    takes the same steps, to the bit, in any batch.  A row leaves the batch
    once its residual is below tolerance, and the later iterations run on the
    rows left.  The linear part (T + V) psi is carried along the great circle
    with the state, from (T + V) of the unit direction, so an iteration
    applies T only to that direction besides the preconditioner's solve: two
    real FFT pairs on 1D grids.  A row whose carried residual falls below
    tolerance has (T + V) psi recomputed, and only that fresh residual
    certifies convergence.  A row whose residual has not halved for
    _STALL_ITERATIONS iterations, or any row at _MAX_ITERATIONS, raises
    ConvergenceError naming its atom number.  The slope at the trial angle is
    c <linear, tau> + s <linear_unit, tau> + g <(c psi + s unit)^3, tau> for
    the tangent tau = c unit - s psi, so H at the trial point is never formed.

    Every iteration, the first included, is one Polak-Ribiere+ update: a zero
    previous direction and an infinite previous <g, z> give beta = 0 and the
    direction -z.  An iteration makes 86 numpy calls whatever the row count,
    3 more where a residual halves.  On a 2-core VM (Python 3.11.7, numpy
    2.4.6) the five default states, 512 points each, take 169 iterations in
    43 iterations of the batch: 7.2 ms (6.6-9.6), about 165 us per batch
    iteration, against 14.7 ms (14.0-29.9) and 217 iterations solved one at
    a time from the quantile start guess (medians and ranges of five
    interleaved rounds, best of 9 each, on a loaded host).  A batch of one
    pays for its per-row scalars as (1, 1) arrays, 20-30 us per iteration
    more than Python floats cost.
    """
    def dot(a, b):
        return np.vecdot(w * a, b, keepdims=True)

    rows = np.arange(len(start))  # the batch row of each active row
    out_psi, mu_out = np.empty(start.shape), np.empty(len(rows))
    residual_out, steps = np.empty(len(rows)), np.empty(len(rows), dtype=int)
    geff = geff[:, None]
    psi = start / np.sqrt(dot(start, start))
    linear = kinetic.apply(psi)
    density = psi**2
    kinetic.shift(dot(psi, linear), geff * dot(density, density))
    linear += V * psi
    refreshed = False  # linear of the converged rows recomputed from psi
    direction, z_old = np.zeros_like(psi), np.zeros_like(psi)  # beta = 0 at first
    gz_old = np.full((len(rows), 1), np.inf)
    per_length = np.ones((len(rows), 1))  # trial angle per unit length of the direction
    # half each row's residual at its last halving, the iteration of that
    # halving, and the earliest such iteration among the rows
    half, halved = np.full((len(rows), 1), np.inf), np.zeros((len(rows), 1), dtype=int)
    oldest = 0
    iteration = 0
    while True:
        # H psi, then the gradient H psi - mu psi, in one buffer
        gradient = psi * psi
        gradient *= psi
        gradient *= geff
        gradient += linear
        w_psi = w * psi
        mu = np.vecdot(w_psi, gradient, keepdims=True)
        gradient -= mu * psi
        w_gradient = w * gradient
        residual = np.sqrt(np.vecdot(w_gradient, gradient, keepdims=True)) / mu
        if residual.min() < tolerance:
            done = residual[:, 0] < tolerance
            if not refreshed:
                # a carried H psi never certifies convergence: recompute it
                # for the rows below tolerance, and test them again
                recomputed = kinetic.apply(psi)
                recomputed += V * psi
                linear[done] = recomputed[done]
                refreshed = True
                continue
            index = rows[done]
            out_psi[index] = psi[done]
            mu_out[index], residual_out[index], steps[index] = mu[done, 0], residual[done, 0], \
                iteration
            keep = ~done
            if not keep.any():
                return out_psi, mu_out, residual_out, steps
            rows, psi, linear, V, w, geff, per_length, mu, residual, gradient, w_psi, \
                w_gradient, half, halved, direction, z_old, gz_old = (a[keep] for a in (
                    rows, psi, linear, V, w, geff, per_length, mu, residual, gradient, w_psi,
                    w_gradient, half, halved, direction, z_old, gz_old))
            kinetic.keep(keep)
            oldest = int(halved.min())
        # halvings count only after the refresh: a carried residual below
        # tolerance can lie far below the fresh one
        below = residual < half
        if below.any():
            np.multiply(0.5, residual, out=half, where=below)
            np.copyto(halved, iteration, where=below)
            oldest = int(halved.min())
        if iteration - oldest == _STALL_ITERATIONS:
            i = int(np.argmin(halved))
            reached = float(2.0 * half[i, 0])
            raise ConvergenceError(f"N = {n_atoms[rows[i]]:.6g}: no ground state after "
                                   f"{iteration} iterations: the residual has not halved "
                                   f"since iteration {oldest}, where it reached {reached:.3e} "
                                   f"(now {float(residual[i, 0]):.3e})", residual=reached)
        if iteration == _MAX_ITERATIONS:
            worst = float(residual[0, 0])
            raise ConvergenceError(f"N = {n_atoms[rows[0]]:.6g}: no ground state after "
                                   f"{iteration} iterations (residual {worst:.3e})",
                                   residual=worst)
        z = kinetic.precondition(gradient)
        z -= np.vecdot(w_psi, z, keepdims=True) * psi
        gz = np.vecdot(w_gradient, z, keepdims=True)
        beta = np.maximum(0.0, (gz - np.vecdot(w_gradient, z_old, keepdims=True)) / gz_old)
        direction -= np.vecdot(w_psi, direction, keepdims=True) * psi
        direction *= beta
        direction -= z
        slope = np.vecdot(w_gradient, direction, keepdims=True)
        if slope.max() >= 0.0:  # restart where it is not a descent direction
            restart = slope[:, 0] >= 0.0
            direction[restart], slope[restart] = -z[restart], -gz[restart]
        z_old, gz_old = z, gz
        length = np.sqrt(dot(direction, direction))
        unit = direction / length
        linear_unit = kinetic.apply(unit)
        linear_unit += V * unit

        # the energy's slope along the great circle, at 0 and at the trial
        # angle: <H(c psi + s unit), tau> with the tangent tau = c unit - s psi
        trial = np.minimum(per_length * length, _MAX_ANGLE)
        c, s = np.cos(trial), np.sin(trial)
        w_tau = c * unit
        w_tau -= s * psi
        w_tau *= w
        cube = c * psi
        cube += s * unit
        cube *= cube * cube
        f0 = slope / length
        f1 = c * np.vecdot(w_tau, linear, keepdims=True) + \
            s * np.vecdot(w_tau, linear_unit, keepdims=True) + \
            geff * np.vecdot(w_tau, cube, keepdims=True)
        # the secant's root where the slope rises, else the largest angle
        theta = np.full_like(trial, _MAX_ANGLE)
        np.divide(trial * f0, f0 - f1, out=theta, where=f1 > f0)
        np.minimum(theta, _MAX_ANGLE, out=theta)
        per_length = theta / length
        c, s = np.cos(theta), np.sin(theta)
        psi *= c
        unit *= s
        psi += unit
        norm = np.sqrt(dot(psi, psi))
        psi /= norm
        # (T + V) psi along the same great circle
        linear *= c
        linear_unit *= s
        linear += linear_unit
        linear /= norm
        refreshed = False
        iteration += 1


def ground_states(geom: TrapGeometry, species: Species, n_list, grids,
                  tolerance: float = 1e-10) -> list[GroundStateResult]:
    """Ground states of the reduced longitudinal GP equation, one per atom number
    in n_list on the grid at the same place in grids, solved as one batch.

    Minimizes the discrete GP energy over unit-normalized real states until
    each state's relative gradient norm |H psi - mu psi| / mu falls below
    tolerance; every state comes out as ground_state gives it alone.  A state
    whose residual has not halved in _STALL_ITERATIONS iterations, as where
    round-off on a fine grid holds it above tolerance, raises
    ConvergenceError.  The grids must share their dimension and point count:
    a mismatch, an empty list or lists of unequal length raise ValueError.  On 1D grids a state
    outside the bare regime starts from its Thomas-Fermi profile
    sqrt(max(mu_TF - V, 0)); bare states, and all states on radial grids,
    where that profile took more iterations than this guess, start from a
    TF-shaped guess below the 0.3 quantile of V, Gaussian-like where that
    quantile lies below hbar omega_L.
    On radial grids the states with a node are restarted together from
    |psi|, and one that keeps its node raises ConvergenceError.  N = 1 turns
    the interaction off and recovers the bare trap ground state; N < 1 raises
    ValueError.  An atom number that scaling.classify_regime labels full TF
    warns once: above N_T the reduced equation's Gaussian transverse state no
    longer holds.  A trap built for another mass than the species' raises
    ValueError.
    """
    check_trap_mass(geom, species)
    if len(n_list) == 0 or len(n_list) != len(grids):
        raise ValueError("need one grid per atom number, and at least one atom number")
    if len({(grid.dimension, grid.points) for grid in grids}) != 1:
        raise ValueError("the grids of one batch must share their dimension and point count")
    if grids[0].dimension != geom.d:
        raise ValueError("grid dimension does not match the trap geometry")
    for n in n_list:  # Species refuses a11 <= 0, so the interaction is repulsive
        if n < 1:
            raise ValueError(f"N = {n:.6g}: need at least one atom")
    g = coupling_constant(species.a11, species.mass)
    eta_t = eta_transverse(geom)
    n_atoms = np.array(n_list, dtype=float)
    geff = g * (n_atoms - 1.0) * eta_t
    hb = SI.hbar
    e_floor = hb * geom.omega_L
    V = np.array([_potential(geom, grid.coordinates()) for grid in grids])
    start = np.empty(V.shape)
    for n, grid, v, row in zip(n_list, grids, V, start):
        regime = classify_regime(geom, species.a11, n)
        if regime == Regime.FULL_TF:
            warnings.warn(f"N = {n:.6g} is above N_T, where the transverse state is no longer "
                          "the Gaussian that the reduced GP equation assumes", stacklevel=2)
        if regime != Regime.BARE:
            profile = tf_profile(geom, species, n, Regime.INTERMEDIATE)
            if grid.extent < MIN_EXTENT_FACTOR * profile.r_tilde:
                warnings.warn(f"N = {n:.6g}: grid extent is below {MIN_EXTENT_FACTOR}x the TF "
                              "radius; the cloud may be clipped", stacklevel=2)
            mu_tf = profile.mu
            healing = SI.hbar / math.sqrt(2.0 * geom.mass * mu_tf)
            # on 1D grids the solved state's spectrum is checked instead; a
            # finite-difference error does not show in a spectral tail
            if geom.d > 1 and grid.spacing > healing:
                warnings.warn(f"N = {n:.6g}: grid spacing does not resolve the healing "
                              "length", stacklevel=2)
            if geom.d == 1:
                np.sqrt(np.maximum(mu_tf - v, 0.0), out=row)
                continue
        # TF-shaped guess where interactions dominate, Gaussian otherwise
        mu_guess = max(_quantile(v, 0.3), e_floor)
        np.sqrt(np.maximum(mu_guess - v, 0.0) + 1e-3 * mu_guess, out=row)

    w = np.array([grid.weights() for grid in grids])
    kinetic_operator = _SpectralKinetic if geom.d == 1 else _RadialKinetic
    psi, mu, residual, steps = _minimize(kinetic_operator(grids, geom.mass, hb), V, w,
                                         geff, n_atoms, start, tolerance)
    # on radial grids H = T + V + g psi^2 has negative off-diagonals, so its
    # lowest state has one sign: a state with a node is an excited stationary
    # state, which the minimizer leaves when restarted from |psi|.  The 1D
    # spectral T has no such sign structure.
    if geom.d > 1:
        noded = [i for i in range(len(n_list)) if _minority_share(psi[i], w[i]) > _NODE_SHARE]
        if noded:
            again = _minimize(kinetic_operator([grids[i] for i in noded], geom.mass, hb),
                              V[noded], w[noded], geff[noded], n_atoms[noded],
                              np.abs(psi[noded]), tolerance)
            psi[noded], mu[noded], residual[noded] = again[:3]
            steps[noded] += again[3]
            for i in noded:
                share = _minority_share(psi[i], w[i])
                if share > _NODE_SHARE:
                    raise ConvergenceError(f"N = {n_list[i]:.6g}: the stationary state has a "
                                           f"node ({share:.1e} of its norm has the minority "
                                           "sign), also when restarted from |psi|",
                                           residual=float(residual[i]))
    tails = _spectral_tail(np.fft.fft(psi)) if geom.d == 1 else np.zeros(len(n_list))
    results = []
    for i, (n, grid, tail) in enumerate(zip(n_list, grids, tails)):
        if tail > _SPECTRAL_TAIL:
            warnings.warn(f"N = {n:.6g}: grid spacing does not resolve the state "
                          f"({tail:.1e} of its spectral power is in the top eighth of "
                          "wavenumbers)", stacklevel=2)
        eta_l = float(np.sum(w[i] * psi[i]**4))
        results.append(GroundStateResult(
            field=Field(grid=grid, values=psi[i].astype(complex), n_atoms=n),
            mu=float(mu[i]), eta_longitudinal=eta_l, eta_n=eta_t * eta_l,
            residual=float(residual[i]), steps=int(steps[i])))
    return results


def ground_state(geom: TrapGeometry, species: Species, n_atoms: float,
                 grid: Grid | None = None, tolerance: float = 1e-10) -> GroundStateResult:
    """Ground state of the reduced longitudinal GP equation for one atom number:
    ground_states for a batch of one, on grid (default_grid when None)."""
    grid = default_grid(geom, species, n_atoms) if grid is None else grid
    return ground_states(geom, species, [n_atoms], [grid], tolerance)[0]


def _spectral_tail(spectrum: np.ndarray, band: int | None = None) -> np.ndarray:
    """Each row's share of spectral power, given 1D fields' rows by their
    Fourier spectrum, in or above the top eighth of |k| in the band of a grid
    of band points on the same line (the fields' own grid when None)."""
    power = np.abs(spectrum)**2
    k = np.arange(power.shape[-1])
    k = np.minimum(k, k.size - k)  # |k| in units of the grid's wavenumber spacing
    band = k.size if band is None else band
    top = np.sum(power[..., k >= (band // 2 + 1) * 7 // 8], axis=-1)
    return top / np.sum(power, axis=-1)


def _resample(spectrum: np.ndarray, points: int) -> np.ndarray:
    """1D fields' rows moved from their FFT spectrum to a grid of points points
    on the same line: the modes outside the smaller grid's band are cut, and
    those missing from it are zero.  Of the smaller count n, an odd one keeps
    the modes |m| <= n // 2 and an even one -n / 2 <= m < n / 2."""
    size = spectrum.shape[-1]
    kept = min(size, points)
    low, high = (kept + 1) // 2, kept // 2  # modes 0 .. low - 1 and -high .. -1
    out = np.zeros(spectrum.shape[:-1] + (points,), dtype=complex)
    out[..., :low] = spectrum[..., :low]
    out[..., points - high:] = spectrum[..., size - high:]
    # an unscaled inverse and 1/size: the values of the same trigonometric series
    return _ifft(out, 1.0, out) / size


def local_log_slopes(n_list, etas) -> list[float]:
    """Centered-difference slopes of ln(eta) against ln(N-1); nan at both ends."""
    slopes = [math.nan] * len(etas)
    for i in range(1, len(etas) - 1):
        slopes[i] = (math.log(etas[i + 1]) - math.log(etas[i - 1])) / \
            (math.log(n_list[i + 1] - 1.0) - math.log(n_list[i - 1] - 1.0))
    return slopes


def _coupling_matrix(species: Species, geom: TrapGeometry, n_atoms: float) -> np.ndarray:
    """The two modes' reduced couplings g_ij (N-1) eta_T as a 2x2 matrix."""
    g11, g12, g22 = (coupling_constant(a, geom.mass) for a in (species.a11, species.a12,
                                                               species.a22))
    return np.array([[g11, g12], [g12, g22]]) * ((n_atoms - 1.0) * eta_transverse(geom))


def _min_two_mode_steps(field: Field, species: Species, geom: TrapGeometry,
                        t_final: float) -> int:
    """Fewest steps evolve_two_mode accepts for t_final: at most 0.1 rad of
    phase per step at the largest V + g rho (strongest channel) in the cloud."""
    dens = np.abs(field.values) ** 2
    occupied = dens > 1e-6 * dens.max()
    g_max = _coupling_matrix(species, geom, field.n_atoms).max()
    potential = _potential(geom, field.grid.coordinates())
    rate = float(np.max((potential[occupied] + g_max * dens[occupied]) / SI.hbar))
    return int(math.ceil(t_final * rate / 0.1))


# evolve_two_mode_to_tolerance: the largest relative Richardson error over the
# records its two runs share that it accepts, the first step count it tries
# (its run records every step, so 101 states) and the count past which it stops
TWO_MODE_TOLERANCE = 1e-6
_FIRST_TWO_MODE_STEPS = 100
_MAX_TWO_MODE_STEPS = 51_200


@dataclass(frozen=True)
class EvolutionRecord:
    times: np.ndarray
    overlap: np.ndarray   # complex <psi_2|psi_1>
    p1: np.ndarray
    p2: np.ndarray
    norm1: np.ndarray
    norm2: np.ndarray
    final_fields: tuple[np.ndarray, np.ndarray]
    points: int           # grid points the fields were evolved on


def _two_mode_field(initial: GroundStateResult | Field, species: Species,
                    geom: TrapGeometry, t_final: float) -> tuple[Field, Field]:
    """initial's field and, from one FFT of it, the start of every run: its
    Fourier series cut to the band that evolve_two_mode describes, on a
    Grid(1, kept, extent) whose points, kept dividing points by a power of
    two, are every (points / kept)-th point of the field's grid to the bit.
    Both entry points call it once: a field past the _SPECTRAL_TAIL rule on
    its own grid, which no step count evolves, raises StepSizeError before
    any run, and a trap built for another mass than the species' ValueError."""
    check_trap_mass(geom, species)
    field = initial.field if isinstance(initial, GroundStateResult) else initial
    if field.grid.dimension != 1 or geom.d != 1:
        raise ValueError("two-mode evolution is implemented for 1D longitudinal grids")
    if t_final <= 0:
        raise ValueError("need a positive final time")
    spectrum = np.fft.fft(field.values)
    tail = _spectral_tail(spectrum)
    if tail > _SPECTRAL_TAIL:
        raise StepSizeError(f"the start field is under-resolved ({tail:.1e} of its spectral "
                            f"power is in the top eighth of the {field.grid.points}-point "
                            "grid's wavenumbers); solve it on more points")
    points = field.grid.points
    while points % 2 == 0 and points >= 128 and \
            _spectral_tail(spectrum, points // 2) <= _BAND_TAIL:
        points //= 2
    return field, Field(Grid(1, points, field.grid.extent), _resample(spectrum, points),
                        field.n_atoms)


def evolve_two_mode(initial: GroundStateResult | Field, sup: Superposition,
                    species: Species, geom: TrapGeometry, t_final: float,
                    steps: int, loss: bool = False,
                    record_every: int = 1) -> EvolutionRecord:
    """Coupled two-mode evolution from a shared initial ground state.

    Both modes start in the supplied single-mode ground state (computed with
    the in-state coupling); they then propagate under the coupled reduced GP
    equations with population weights c1^2, c2^2.  With loss on, the
    spin-exchange non-Hermitian potentials deplete the norms.

    The fields evolve on a Fourier-truncated copy of the start field, made
    once per call (_two_mode_field): the grid is halved, down to 64 points
    and while its point count stays even, as long as the halved band leaves
    at most _BAND_TAIL of the start field's spectral power in or above its
    top eighth.  The kept grid holds every (points / kept)-th point of the
    caller's, where the potential is sampled; by Parseval the records equal
    those of the full grid wherever the band holds the fields, and
    final_fields are zero-padded back to the caller's grid.  A field whose
    band fills its grid evolves on that grid.

    Strang splitting K/2 V K/2 (Bao, Jaksch & Markowich 2003): a kinetic
    half-step, a potential step, a kinetic half-step.  The kinetic half-steps
    that meet between steps are one kinetic step, so a run makes a half-step
    before the first step and after the last, and one FFT pair per step on
    the (2, kept) array whose rows are the two modes.  With loss on, the
    potential step takes its decay and phase at the mid-step density, so the
    scheme is second order with and without loss.  The FFTs call numpy's
    pocketfft kernels on psi in place, and each potential factor
    D exp(i phase), D = exp(decay), is the Cayley transform
    D (1 + i t) / (1 - i t) of t = tan(phase / 2), whose modulus is D to a
    few ulp: one tangent, one negation and a complex product and quotient
    per step, on arrays made before the first step.  The state is recorded
    at t = 0 and after every record_every-th step and the last, right after
    the potential step: it differs from the state at that time by a kinetic
    half-step, which is unitary and the same for both modes, so norms,
    overlap, p1 and p2 are those at that time.

    The step count is the caller's, so fewer steps than 0.1 rad of phase per
    step at the largest V + g rho in the cloud allows raise StepSizeError:
    that guard is a heuristic, but without it 2 steps over a second evolve
    the y = 1000 state past every other check.  evolve_two_mode_to_tolerance
    measures its error instead and needs no guard.  A start field past the
    _SPECTRAL_TAIL rule on its own grid raises StepSizeError before the first
    step (_two_mode_field), as do final fields past that rule on the kept
    band, the mark of a split-step resonance there (Weideman & Herbst 1986);
    record_every < 1 raises ValueError.
    """
    field, start = _two_mode_field(initial, species, geom, t_final)
    if steps < 1:
        raise ValueError("need at least one step")
    if record_every < 1:
        raise ValueError("record_every must be at least 1")
    needed = _min_two_mode_steps(field, species, geom, t_final)
    if steps < needed:
        raise StepSizeError(f"step too coarse: {steps} steps advance the phase by "
                            f"more than 0.1 rad per step; use at least {needed} steps")
    return _evolve_two_mode(start, sup, species, geom, t_final, steps, loss, record_every,
                            field.grid.points)


def evolve_two_mode_to_tolerance(initial: GroundStateResult | Field, sup: Superposition,
                                 species: Species, geom: TrapGeometry,
                                 t_final: float) -> tuple[EvolutionRecord, int, float]:
    """Lossless evolve_two_mode at the fewest steps of the ladder 100, 200,
    400, ... whose measured splitting error meets TWO_MODE_TOLERANCE.

    The error of the S-step run is estimated by step doubling (Richardson;
    Hairer, Norsett & Wanner, Solving ODEs I, II.4): the splitting is second
    order, so an overlap of S steps is off by about a third of its change
    from S/2 steps.  The estimate is the largest such share of the S-step
    |overlap| over the records the two runs share: 51 for S = 100, 101 from
    S = 200.  Each rung's run is the next rung's coarse run, and a 50-step
    run is the first rung's.  The first S whose estimate is at most
    TWO_MODE_TOLERANCE is kept, with no 0.1-rad guard.  A run that raises
    StepSizeError, because it ends near a split-step resonance or its norms
    drift, has no estimate, and the ladder goes on to 2S.  The S-step run
    records every (S / 100)-th step, 101 states.  Returns that record, S and
    the estimate.  An under-resolved start field raises StepSizeError before
    any run (_two_mode_field), and so does a ladder past _MAX_TWO_MODE_STEPS,
    naming the last failure of a run if there was one.
    """
    field, start = _two_mode_field(initial, species, geom, t_final)
    coarse, error, failure = None, math.nan, None
    steps = _FIRST_TWO_MODE_STEPS // 2
    while steps <= _MAX_TWO_MODE_STEPS:
        try:
            record = _evolve_two_mode(start, sup, species, geom, t_final, steps, False,
                                      max(1, steps // _FIRST_TWO_MODE_STEPS), field.grid.points)
        except StepSizeError as exc:
            record, failure = None, exc
        if record is not None and coarse is not None:
            # the S-step run's records at the coarse run's times
            shared = record.overlap[::(record.overlap.size - 1) // (coarse.overlap.size - 1)]
            error = float(np.max(np.abs(shared - coarse.overlap) / (3.0 * np.abs(shared))))
            if error <= TWO_MODE_TOLERANCE:
                return record, steps, error
        coarse, steps = record, 2 * steps
    last = "no pair of runs gave an estimate" if math.isnan(error) else \
        f"last estimate {error:.1e}"
    if failure is not None:
        last += f"; last failure: {failure}"
    raise StepSizeError(f"no step count up to {_MAX_TWO_MODE_STEPS} brings the two-mode "
                        f"splitting error within {TWO_MODE_TOLERANCE:.0e} ({last})")


def _evolve_two_mode(start: Field, sup: Superposition, species: Species,
                     geom: TrapGeometry, t_final: float, steps: int, loss: bool,
                     record_every: int, points: int) -> EvolutionRecord:
    """The split-step loop of evolve_two_mode from the start that
    _two_mode_field builds, its final fields returned to points points:
    resonance and norm-drift checks, each a StepSizeError, no guard."""
    grid, kept, n_atoms = start.grid, start.grid.points, start.n_atoms
    hb, mass = SI.hbar, geom.mass
    dx = grid.spacing
    kx = 2.0 * math.pi * np.fft.fftfreq(kept, dx)
    V = _potential(geom, grid.coordinates())
    gmat = _coupling_matrix(species, geom, n_atoms)
    eta_t = eta_transverse(geom)
    weights = np.array([sup.c1**2, sup.c2**2])
    loss12 = species.gamma12_loss * (n_atoms - 1.0) * eta_t
    loss22 = species.gamma22_loss * (n_atoms - 1.0) * eta_t
    dt = t_final / steps

    # the inverse FFT runs unscaled (np.fft.ifft's norm="forward"); its
    # 1/kept rides on the kinetic factors
    kin_phase = -1j * (hb * kx**2 / (2.0 * mass)) * dt
    kin_half = np.exp(0.5 * kin_phase) / kept
    kin_factor = np.exp(kin_phase) / kept
    psi = np.array([start.values, start.values])  # row i is mode i + 1
    # one potential step multiplies psi by D exp(i phase), with the phase
    # -dt/hbar (V + G rho) and D = exp(-dt/2 L rho) at density rho; v_half and
    # the columns of g_half give half that phase, whose tangent builds the factor
    v_half = np.broadcast_to(-0.5 * dt / hb * V, psi.shape).copy()
    g_half = -0.5 * dt / hb * gmat * weights
    g1, g2 = g_half[:, :1], g_half[:, 1:]  # columns: the weights of rho1 and rho2
    if loss:
        l_decay = -0.5 * dt * np.array([[0.0, loss12], [loss12, loss22]]) * weights
        l1, l2 = l_decay[:, :1], l_decay[:, 1:]
    # every array and view a step touches, made once
    psi_parts = psi.view(float)
    squares = np.empty(psi_parts.shape)
    squares_re, squares_im = squares[:, ::2], squares[:, 1::2]
    rho, phase, scratch = np.empty(psi.shape), np.empty(psi.shape), np.empty(psi.shape)
    rho1, rho2 = rho
    # numerator D (1 + i t) and denominator 1 - i t of the factor, t = tan(phase / 2)
    numerator, denominator = np.ones_like(psi), np.ones_like(psi)
    numerator_re, numerator_im, denominator_im = numerator.real, numerator.imag, denominator.imag

    def couple(m1, m2, out):
        # out = m @ rho for the 2x2 m with columns m1 and m2, elementwise: a
        # BLAS call would be slower at this size and add its work buffer
        # (about 0.3 MB) to the peak memory
        np.multiply(m1, rho1, out=out)
        np.multiply(m2, rho2, out=scratch)
        np.add(out, scratch, out=out)

    def kinetic_step(kin):
        # in place: a kernel copies its input into its output before it
        # transforms there, unless they are the same array
        _fft(psi, 1.0, psi)
        # kin first: the complex product is not symmetric in its operands'
        # rounding where it uses fused multiply-adds
        np.multiply(kin, psi, out=psi)
        _ifft(psi, 1.0, psi)

    def potential_step():
        """One potential step on psi in place."""
        # |psi|^2: both parts squared in one pass
        np.square(psi_parts, out=squares)
        np.add(squares_re, squares_im, out=rho)
        if loss:
            # the loss moves the density within the step, so the decay and
            # the phase are taken at its mid-step value rho exp(l_decay rho),
            # in closed form for a density frozen over the first half-step;
            # phase holds the decay until the phase is formed
            couple(l1, l2, phase)
            np.exp(phase, out=phase)
            np.multiply(rho, phase, out=rho)
            couple(l1, l2, phase)
            np.exp(phase, out=numerator_re)
        couple(g1, g2, phase)
        np.add(phase, v_half, out=phase)
        # D exp(i phase) as the Cayley transform D (1 + i t) / (1 - i t) of
        # t = tan(phase / 2), the tangent of what the phase array holds:
        # numpy's float64 tan is vectorized where its cos and sin are not
        # (about 3 against 10 ns per element), and its complex exp is slower
        # still.  The quotient's modulus is D to a few ulp; past a pole of
        # tan, t is huge and the quotient -D.
        np.tan(phase, out=numerator_im)
        np.negative(numerator_im, out=denominator_im)
        if loss:
            np.multiply(numerator_im, numerator_re, out=numerator_im)
        np.multiply(psi, numerator, out=psi)
        np.divide(psi, denominator, out=psi)

    # the state after step recorded[i] goes into row i: the two mode norms
    # and the overlap <psi_2|psi_1>, times dx after the last step
    recorded = np.arange(1 + steps // record_every + (steps % record_every > 0)) * record_every
    recorded[-1] = steps
    norms = np.empty((recorded.size, 2))
    overlaps = np.empty(recorded.size, dtype=complex)
    row = 0
    np.vecdot(psi_parts, psi_parts, out=norms[row])
    np.vecdot(psi[1], psi[0], out=overlaps[row, ...])
    kinetic_step(kin_half)
    for step in range(1, steps + 1):
        potential_step()
        if step % record_every == 0 or step == steps:
            row += 1
            np.vecdot(psi_parts, psi_parts, out=norms[row])
            np.vecdot(psi[1], psi[0], out=overlaps[row, ...])
        kinetic_step(kin_factor if step < steps else kin_half)
    spectrum = np.fft.fft(psi)
    tail = np.max(_spectral_tail(spectrum))
    if tail > _SPECTRAL_TAIL:
        raise StepSizeError(f"{steps} steps sit near a split-step resonance ({tail:.1e} of "
                            f"the final spectral power is in the top eighth of the "
                            f"{kept}-point band's wavenumbers)")
    norms *= dx
    overlaps *= dx
    if not loss:
        drift = float(np.max(np.abs(norms - 1.0)))
        if drift > 1e-6:
            raise StepSizeError(f"lossless evolution is unstable: norm drift {drift:.3e}")
    norm1, norm2 = norms.T
    mean = 0.5 * (weights[0] * norm1 + weights[1] * norm2)
    fringe = 2.0 * sup.c1 * sup.c2 * overlaps.imag
    return EvolutionRecord(times=recorded * dt, overlap=overlaps,
                           p1=mean - 0.5 * fringe, p2=mean + 0.5 * fringe,
                           norm1=norm1, norm2=norm2,
                           final_fields=tuple(_resample(spectrum, points)), points=kept)


@dataclass(frozen=True)
class LossBudget:
    gamma: float     # integrated spin-exchange decay rate (1/s)
    omega_N: float   # integrated relative-phase rate (rad/s)
    ratio: float     # gamma / |omega_N|


def loss_budget(species: Species, geom: TrapGeometry, n_atoms: float,
                sup: Superposition) -> LossBudget:
    """Spin-exchange decay rate against the phase-accumulation rate.

    The ratio hbar (Gamma12 + Gamma22 c2^2) / (2 Delta-g) is independent of the
    atom number and of every trap parameter; the common eta_N cancels.  Both
    rates are those of the intermediate-regime TF cloud, from
    thomas_fermi.phase_dynamics, which owns the no-signal rule and raises
    ValueError on a vanishing Delta-g.
    """
    phase = phase_dynamics(geom, species, n_atoms, sup)
    gamma = (n_atoms - 1.0) * phase.eta_N * \
        (species.gamma12_loss + species.gamma22_loss * sup.c2**2) / 2.0
    return LossBudget(gamma=gamma, omega_N=phase.omega_N, ratio=gamma / abs(phase.omega_N))

