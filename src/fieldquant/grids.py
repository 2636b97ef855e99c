"""Uniform grids, sampled wavefunctions, and discrete operator actions.

Quadrature is the plain Riemann sum, which is spectrally accurate for the
periodic or exponentially decayed fields used throughout.  Momentum acts
either spectrally (periodic grids) or through fourth-order centered
stencils; the parallel-field gauge term is applied through an exact unitary
gauge twist so that it stays alias-free for states whose gauge momentum
grows with position.  The twist is cached per (grid, config).

Expectation values of momentum and energy are spectral moments (Parseval):
one FFT per axis of a field, plus one for the gauge term, and no inverse
transform, whatever the number of observables.  ``stack_expectations``
measures a stack of fields (leading axis) in one call, every reduction and
transform running over the trailing field axes; ``expectations`` is its
one-field call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .config import SystemConfig, cyclotron_frequency
from .solutions import AnalyticSolution

NYQUIST_SAFETY = 0.5          # admissible fraction of the grid Nyquist wavenumber
DIRICHLET_BAND = 4            # cells excluded at each wall in residual norms
GAUGE_TWIST_CACHE_SIZE = 16   # gauge twists kept across (grid, config) pairs


class NyquistError(ValueError):
    """Requested sample would alias; carries the admissible bound."""


class GridMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class Grid1D:
    length: float
    npoints: int
    boundary: str = "periodic"

    def __post_init__(self):
        if self.npoints < 16:
            raise ValueError("grids need at least 16 points")
        if self.boundary not in ("periodic", "dirichlet"):
            raise ValueError(f"unknown boundary {self.boundary!r}")
        if self.length <= 0:
            raise ValueError("grid length must be positive")

    @property
    def dx(self) -> float:
        return self.length / self.npoints

    @cached_property
    def x(self) -> np.ndarray:
        # uniform samples of [-L/2, L/2); the lattice contains -L/2 + k dx,
        # which keeps gauge-coupled plane waves on-grid when shifts do too
        return -0.5 * self.length + np.arange(self.npoints) * self.dx

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        return 2.0 * math.pi * np.fft.fftfreq(self.npoints, d=self.dx)

    @property
    def nyquist(self) -> float:
        return math.pi / self.dx


@dataclass(frozen=True)
class Grid2D:
    y: Grid1D
    z: Grid1D

    @property
    def shape(self):
        return (self.y.npoints, self.z.npoints)

    @property
    def cell(self) -> float:
        return self.y.dx * self.z.dx


@dataclass
class WaveField:
    grid: Grid1D | Grid2D
    values: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        expected = (self.grid.npoints,) if isinstance(self.grid, Grid1D) else self.grid.shape
        if self.values.shape != expected:
            raise GridMismatchError(
                f"field shape {self.values.shape} does not match grid {expected}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite samples")

    def copy(self) -> "WaveField":
        return WaveField(self.grid, self.values.copy(), self.t)


def _snap(value: float, origin: float, spacing: float) -> float:
    cells = (value - origin) / spacing
    if not math.isfinite(cells):
        raise ValueError(f"cannot snap {value} to a lattice of spacing {spacing:.6g}")
    return origin + round(cells) * spacing


def snap_shift(grid: Grid1D, value: float) -> float:
    """Nearest integer multiple of the grid spacing (for lattice shifts)."""
    return _snap(value, 0.0, grid.dx)


def snap_offset(grid: Grid1D, value: float) -> float:
    """Nearest point of the sample lattice (cell centers extended to all of R)."""
    return _snap(value, grid.x[0], grid.dx)


def commensurate_time(cfg: SystemConfig, grid: Grid1D, k: int = 1) -> float:
    """t_k = 2 pi hbar k / (q E L): times at which the plane-wave factor of
    the electric solution lies exactly on the periodic grid."""
    if cfg.electric == 0:
        raise ValueError("commensurate times need a nonzero electric field")
    return 2.0 * math.pi * cfg.hbar * k / (cfg.charge * cfg.electric * grid.length)


def landau_grid(cfg: SystemConfig, npoints: int = 64, ly: float = 24.0) -> Grid2D:
    """Periodic (y, z) grid commensurate with the gauge coupling.

    Choosing dz = 2 pi hbar / (m |wc| Ly) with equal point counts makes both
    plane-wave phases exp(i m wc dy z / hbar) and exp(i m wc y (z - dz) / hbar)
    exactly periodic whenever dy and dz sit on the sample lattices, so both
    displaced-oscillator families and the gauge twist are alias-free.
    """
    wc = cyclotron_frequency(cfg)
    if wc == 0:
        raise ValueError("landau_grid requires a nonzero magnetic field")
    if not (math.isfinite(ly) and ly > 0):
        raise ValueError(f"landau_grid needs a finite positive ly, got {ly}")
    dz = 2.0 * math.pi * cfg.hbar / (cfg.mass * abs(wc) * ly)
    return Grid2D(y=Grid1D(ly, npoints, "periodic"),
                  z=Grid1D(dz * npoints, npoints, "periodic"))


# --- sampling ---------------------------------------------------------------

def _check_nyquist(solution: AnalyticSolution, grid, t: float):
    if solution.kmax is None:
        return
    needed = solution.kmax(t)
    axes = (grid,) if isinstance(grid, Grid1D) else (grid.y, grid.z)
    # the 0.5 safety margin guards the time-growing wavenumber of the
    # electric solutions; oscillator bounds are amplitude-weighted already
    factor = NYQUIST_SAFETY if solution.family.startswith("electric") else 1.0
    for k_req, axis in zip(needed, axes):
        limit = factor * axis.nyquist
        if k_req > limit:
            msg = (f"sampling would alias: wavenumber {k_req:.6g} exceeds "
                   f"{factor:g} * Nyquist = {limit:.6g}")
            if solution.family.startswith("electric"):
                cfg = solution.cfg
                tmax = solution.time_origin + limit * cfg.hbar / abs(cfg.charge * cfg.electric)
                msg = f"{msg}; maximum admissible t is {tmax:.6g}"
            raise NyquistError(msg)


def sample(solution: AnalyticSolution, grid: Grid1D | Grid2D, t: float) -> WaveField:
    """Pointwise evaluation at cell centers, guarded against aliasing."""
    _check_nyquist(solution, grid, t)
    if solution.ndim == 1:
        if not isinstance(grid, Grid1D):
            raise GridMismatchError("1D solution needs a 1D grid")
        return WaveField(grid, solution.fn(grid.x, t), t)
    if solution.ndim == 2:
        if not isinstance(grid, Grid2D):
            raise GridMismatchError("2D solution needs a 2D grid")
        yy = grid.y.x[:, None]
        zz = grid.z.x[None, :]
        return WaveField(grid, solution.fn(yy, zz, t), t)
    raise GridMismatchError(f"cannot sample a {solution.ndim}D solution on a grid")


# --- discrete derivatives ----------------------------------------------------

def _shifted(values: np.ndarray, k: int, periodic: bool, axis: int = 0) -> np.ndarray:
    """values displaced so out[i] = values[i + k]; zero fill for walls."""
    if periodic:
        return np.roll(values, -k, axis=axis)
    out = np.zeros_like(values)
    src = [slice(None)] * values.ndim
    dst = [slice(None)] * values.ndim
    if k > 0:
        dst[axis] = slice(None, -k)
        src[axis] = slice(k, None)
    elif k < 0:
        dst[axis] = slice(-k, None)
        src[axis] = slice(None, k)
    else:
        return values.copy()
    out[tuple(dst)] = values[tuple(src)]
    return out


def _fd4_first(values: np.ndarray, dx: float, periodic: bool, axis: int = 0) -> np.ndarray:
    s = lambda k: _shifted(values, k, periodic, axis)
    return (-s(2) + 8.0 * s(1) - 8.0 * s(-1) + s(-2)) / (12.0 * dx)


def _fd4_second(values: np.ndarray, dx: float, periodic: bool, axis: int = 0) -> np.ndarray:
    s = lambda k: _shifted(values, k, periodic, axis)
    return (-s(2) + 16.0 * s(1) - 30.0 * values + 16.0 * s(-1) - s(-2)) / (12.0 * dx ** 2)


def _axis_grid(grid, axis: int) -> Grid1D:
    if isinstance(grid, Grid1D):
        if axis != 0:
            raise GridMismatchError("1D grid has a single axis")
        return grid
    return (grid.y, grid.z)[axis]


def _spectral(values: np.ndarray, axis_grid: Grid1D, multiplier, axis: int) -> np.ndarray:
    """ifft(multiplier(k) fft(values)) along one periodic axis, with k the
    wavenumbers of ``axis_grid``: the one Fourier-multiplier kernel behind
    spectral momentum, kinetic energy and off-lattice translations."""
    shape = [1] * values.ndim
    shape[axis] = axis_grid.npoints
    k = axis_grid.wavenumbers.reshape(shape)
    return np.fft.ifft(multiplier(k) * np.fft.fft(values, axis=axis), axis=axis)


def apply_momentum(f: WaveField, cfg: SystemConfig, axis: int = 0,
                   scheme: str = "spectral") -> WaveField:
    """-i hbar d/dx along the chosen axis."""
    ag = _axis_grid(f.grid, axis)
    if scheme == "spectral":
        if ag.boundary != "periodic":
            raise GridMismatchError("spectral momentum requires a periodic axis")
        out = _spectral(f.values, ag, lambda k: cfg.hbar * k, axis)
    elif scheme == "fd4":
        out = -1j * cfg.hbar * _fd4_first(f.values, ag.dx, ag.boundary == "periodic", axis)
    else:
        raise ValueError(f"unknown momentum scheme {scheme!r}")
    return WaveField(f.grid, out, f.t)


def apply_kinetic(f: WaveField, cfg: SystemConfig, axis: int = 0,
                  scheme: str = "spectral") -> np.ndarray:
    """p^2/(2m) along one axis, returned as raw samples."""
    ag = _axis_grid(f.grid, axis)
    if scheme == "spectral":
        if ag.boundary != "periodic":
            raise GridMismatchError("spectral kinetic term requires a periodic axis")
        return _spectral(f.values, ag, lambda k: (cfg.hbar * k) ** 2, axis) / (2.0 * cfg.mass)
    if scheme == "fd4":
        lap = _fd4_second(f.values, ag.dx, ag.boundary == "periodic", axis)
        return -cfg.hbar ** 2 * lap / (2.0 * cfg.mass)
    raise ValueError(f"unknown momentum scheme {scheme!r}")


def apply_hamiltonian_1d(f: WaveField, cfg: SystemConfig, scheme: str = "spectral") -> WaveField:
    """px^2/(2m) - q E x acting on a 1D field."""
    if not isinstance(f.grid, Grid1D):
        raise GridMismatchError("apply_hamiltonian_1d needs a 1D field")
    kinetic = apply_kinetic(f, cfg, axis=0, scheme=scheme)
    potential = -cfg.charge * cfg.electric * f.grid.x * f.values
    return WaveField(f.grid, kinetic + potential, f.t)


@lru_cache(maxsize=GAUGE_TWIST_CACHE_SIZE)
def gauge_twist(grid: Grid2D, cfg: SystemConfig) -> np.ndarray:
    """G = exp(i m wc y z / hbar); (pz - m wc y) = G pz G^dagger exactly.
    Cached per (grid, config), so the shared array is read-only."""
    wc = cyclotron_frequency(cfg)
    yy = grid.y.x[:, None]
    zz = grid.z.x[None, :]
    twist = np.exp(1j * cfg.mass * wc * yy * zz / cfg.hbar)
    twist.flags.writeable = False
    return twist


def apply_hamiltonian_yz(f: WaveField, cfg: SystemConfig) -> WaveField:
    """py^2/(2m) + (pz - m wc y)^2/(2m) on a periodic 2D field.

    The gauge term is applied as G pz^2 G^dagger with the unitary twist G,
    which is exact and keeps states with position-dependent gauge momentum
    free of spectral aliasing.
    """
    if not isinstance(f.grid, Grid2D):
        raise GridMismatchError("apply_hamiltonian_yz needs a 2D field")
    kin_y = apply_kinetic(f, cfg, axis=0, scheme="spectral")
    twist = gauge_twist(f.grid, cfg)
    inner = WaveField(f.grid, np.conj(twist) * f.values, f.t)
    kin_z = twist * apply_kinetic(inner, cfg, axis=1, scheme="spectral")
    return WaveField(f.grid, kin_y + kin_z, f.t)


# --- inner products and expectations ------------------------------------------

def _cell_volume(grid) -> float:
    return grid.dx if isinstance(grid, Grid1D) else grid.cell


def _field_axes(grid) -> tuple[int, ...]:
    """The trailing axes holding one field, alone or in a stack of fields;
    axis a of a field is axis ``_field_axes(grid)[a]`` of the array."""
    return (-1,) if isinstance(grid, Grid1D) else (-2, -1)


def _overlaps(a: np.ndarray, b: np.ndarray, grid) -> np.ndarray:
    """<a|b> over the trailing field axes; either side may be a stack."""
    return np.sum(np.conj(a) * b, axis=_field_axes(grid)) * _cell_volume(grid)


def inner_product(a: WaveField, b: WaveField) -> complex:
    if a.grid != b.grid:
        raise GridMismatchError("inner product needs a common grid")
    return complex(_overlaps(a.values, b.values, a.grid))


def norm(f: WaveField) -> float:
    return math.sqrt(max(inner_product(f, f).real, 0.0))


_OBSERVABLES = {1: ("x", "px", "pi_x", "H"),
                2: ("y", "z", "py", "pz", "pi_y", "pi_z", "H")}


def stack_expectations(names, grid, stack: np.ndarray, times, cfg: SystemConfig,
                       reference: np.ndarray | None = None):
    """Norms and normalized expectation values of a stack of fields.

    ``stack`` holds one field of ``grid`` per leading index, at the matching
    entry of ``times``.  Returns ``(norms, values, overlaps)``: the norm of
    each field, ``values[i]`` the i-th named observable of every field, and
    <reference|f> per field (None without a reference).

    Supported names: x, px, H, pi_x (uses the field's time), and for 2D
    fields y, z, py, pz, pi_y, pi_z.  Momentum and kinetic energy are
    spectral moments (Parseval): sum conj(v) ifft(g fft(v)) dv = sum g w
    with w = |fft(v)|^2 dv / N along one axis.  One norm and at most one
    weight per axis (plus one of conj(G) v for the 2D gauge term) serve
    every name, each one array operation over the trailing field axes; a
    field of the stack measures bit for bit as it would alone.  The samples
    are transformed whatever the boundary tag; wall-bounded fields must stay
    clear of the walls.
    """
    n2 = _overlaps(stack, stack, grid).real
    if np.any(n2 <= 0):
        raise ValueError("expectation of an empty field")
    ndim = 1 if isinstance(grid, Grid1D) else 2
    dv = _cell_volume(grid)
    fax = _field_axes(grid)
    axes = (grid,) if ndim == 1 else (grid.y, grid.z)
    coords = (grid.x,) if ndim == 1 else (grid.y.x[:, None], grid.z.x[None, :])
    cache = {}

    def position(axis):
        if "density" not in cache:
            cache["density"] = np.abs(stack) ** 2
        return np.sum(coords[axis] * cache["density"], axis=fax) * dv / n2

    def moment(axis, power, twisted=False):
        if (axis, twisted) not in cache:
            v = np.conj(gauge_twist(grid, cfg)) * stack if twisted else stack
            w = np.abs(np.fft.fft(v, axis=fax[axis])) ** 2
            if ndim == 2:
                w = w.sum(axis=fax[1 - axis])
            cache[axis, twisted] = w * (dv / axes[axis].npoints)
        hk = (cfg.hbar * axes[axis].wavenumbers) ** power
        # one dot per field: a stacked matrix-vector product sums in another order
        return np.array([np.dot(hk, w) for w in cache[axis, twisted]]) / n2

    values = np.empty((len(names), n2.size))
    for i, name in enumerate(names):
        if name not in _OBSERVABLES[ndim]:
            raise ValueError(f"unknown {ndim}D observable {name!r}")
        axis = 1 if name.endswith("z") else 0
        if name in ("x", "y", "z"):
            values[i] = position(axis)
        elif name in ("px", "py", "pz", "pi_z"):
            values[i] = moment(axis, 1)
        elif name == "pi_x":
            values[i] = moment(0, 1) - cfg.charge * cfg.electric * np.asarray(times, dtype=float)
        elif name == "pi_y":
            values[i] = moment(0, 1) - cfg.mass * cyclotron_frequency(cfg) * position(1)
        elif ndim == 1:
            values[i] = moment(0, 2) / (2.0 * cfg.mass) - cfg.charge * cfg.electric * position(0)
        else:
            values[i] = (moment(0, 2) + moment(1, 2, twisted=True)) / (2.0 * cfg.mass)
    overlaps = None if reference is None else _overlaps(reference, stack, grid)
    return np.sqrt(n2), values, overlaps


def expectations(names, f: WaveField, cfg: SystemConfig) -> list[float]:
    """Normalized expectation values of the named observables of one field,
    in order: the one-field call of ``stack_expectations``."""
    return stack_expectations(names, f.grid, f.values[None], (f.t,), cfg)[1][:, 0].tolist()


def expectation(opname: str, f: WaveField, cfg: SystemConfig) -> float:
    """Normalized expectation value of one named observable; see
    ``stack_expectations`` for the names and the method."""
    return expectations((opname,), f, cfg)[0]


# --- residuals ----------------------------------------------------------------

def _interior_mask(grid) -> np.ndarray | None:
    # 2D residuals run on periodic axes only: the spectral kinetic term
    # rejects a wall axis before any mask is needed
    if isinstance(grid, Grid1D) and grid.boundary == "dirichlet":
        mask = np.zeros(grid.npoints, dtype=bool)
        mask[DIRICHLET_BAND:-DIRICHLET_BAND] = True
        return mask
    return None


def residual_samples(solution: AnalyticSolution, grid, t: float, dt_stencil: float,
                     scheme: str = "spectral") -> tuple[np.ndarray, WaveField]:
    """i hbar (psi(t+h) - psi(t-h)) / 2h - H psi(t) at every sample, and the
    sampled psi(t).  H is the solution's own Hamiltonian: 1D (with the given
    momentum scheme) or the transverse gauge problem."""
    cfg = solution.cfg
    plus = sample(solution, grid, t + dt_stencil)
    minus = sample(solution, grid, t - dt_stencil)
    mid = sample(solution, grid, t)
    dpsi_dt = (plus.values - minus.values) / (2.0 * dt_stencil)
    if solution.ndim == 1:
        h_mid = apply_hamiltonian_1d(mid, cfg, scheme=scheme)
    else:
        h_mid = apply_hamiltonian_yz(mid, cfg)
    return 1j * cfg.hbar * dpsi_dt - h_mid.values, mid


def schrodinger_residual(solution: AnalyticSolution, grid, t: float,
                         dt_stencil: float, scheme: str = "spectral") -> float:
    """|| i hbar (psi(t+h) - psi(t-h)) / 2h - H psi(t) ||_2 / || psi(t) ||_2.

    Interior points only for wall-bounded grids (a 4-cell band is dropped,
    covering the fd4 stencil footprint).
    """
    r, mid = residual_samples(solution, grid, t, dt_stencil, scheme)
    mask = _interior_mask(grid)
    ref = mid.values
    if mask is not None:
        r, ref = r[mask], ref[mask]
    return float(np.linalg.norm(r) / np.linalg.norm(ref))
