"""Uniform grids, sampled wavefunctions, and discrete operator actions.

Quadrature is the plain Riemann sum, which is spectrally accurate for the
periodic or exponentially decayed fields used throughout.  Momentum acts
spectrally on a periodic axis and through fourth-order centered stencils on
a wall-bounded one; the parallel-field gauge term is applied through an
exact unitary gauge twist so that it stays alias-free for states whose gauge
momentum grows with position.  The twist is cached per (grid, config).

Both grid kinds have ``axes`` (their 1D axis grids), ``shape``, ``cell`` (the
quadrature weight) and ``coords`` (sample positions broadcasting to ``shape``),
so code serving fields of either dimension needs no test of the grid type.

Measurements take one pass per field and quantity, over a stack of fields:
the density re^2 + im^2 once, a norm as its sum, a position as one dot with
its marginal, an overlap as one ``np.vdot``, momenta as spectral moments of
re^2 + im^2 of one FFT, or of the spectra a stepper hands over with its
fields.  Each reduction reads one field, so a field of a stack measures bit
for bit as it would alone, given the same spectra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .config import SystemConfig, cyclotron_frequency, refuse_overflow
from .solutions import AnalyticSolution

NYQUIST_SAFETY = 0.5          # admissible fraction of the grid Nyquist wavenumber
DIRICHLET_BAND = 4            # cells excluded at each wall in residual norms
STENCIL_REACH = 2             # cells the fd4 stencils read on each side
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

    @property
    def axes(self) -> tuple[Grid1D]:
        return (self,)

    @property
    def shape(self) -> tuple[int]:
        return (self.npoints,)

    @property
    def cell(self) -> float:
        return self.dx

    @property
    def coords(self) -> tuple[np.ndarray]:
        return (self.x,)


@dataclass(frozen=True)
class Grid2D:
    y: Grid1D
    z: Grid1D

    @property
    def axes(self) -> tuple[Grid1D, Grid1D]:
        return (self.y, self.z)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.y.npoints, self.z.npoints)

    @property
    def cell(self) -> float:
        return self.y.dx * self.z.dx

    @property
    def coords(self) -> tuple[np.ndarray, np.ndarray]:
        return (self.y.x[:, None], self.z.x[None, :])


@dataclass
class WaveField:
    grid: Grid1D | Grid2D
    values: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != self.grid.shape:
            raise GridMismatchError(
                f"field shape {self.values.shape} does not match grid {self.grid.shape}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite samples")


def _snap(value: float, origin: float, spacing: float) -> float:
    # Python floats in and out: arithmetic on the snapped value (such as a
    # sampling bound) overflows to inf without a numpy warning
    origin, spacing = float(origin), float(spacing)
    cells = refuse_overflow(lambda: (float(value) - origin) / spacing, lambda: (
        f"cannot snap {value} to a lattice of spacing {spacing:.6g}"))
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
    # an electric solution's wavenumber q E (t - time_origin) / hbar grows with
    # t and keeps the 0.5 safety margin; the other families' constant bounds
    # (kmax) are amplitude-weighted already
    cfg = solution.cfg
    electric = solution.family.startswith("electric")
    if electric:
        needed = (abs(cfg.charge * cfg.electric * (t - solution.time_origin) / cfg.hbar),)
    else:
        needed = solution.kmax
    factor = NYQUIST_SAFETY if electric else 1.0
    for k_req, axis in zip(needed, grid.axes):
        limit = factor * axis.nyquist
        if not k_req <= limit:   # also a NaN wavenumber
            msg = (f"sampling would alias: wavenumber {k_req:.6g} exceeds "
                   f"{factor:g} * Nyquist = {limit:.6g}")
            if electric:
                tmax = solution.time_origin + limit * cfg.hbar / abs(cfg.charge * cfg.electric)
                msg = f"{msg}; maximum admissible t is {tmax:.6g}"
            raise NyquistError(msg)


def sample(solution: AnalyticSolution, grid: Grid1D | Grid2D, t: float) -> WaveField:
    """Pointwise evaluation at cell centers, guarded against aliasing and
    against samples float64 cannot hold (a weak field's t^3 phase at a huge t)."""
    _check_nyquist(solution, grid, t)
    if solution.ndim != len(grid.axes):
        raise GridMismatchError(
            f"cannot sample a {solution.ndim}D solution on a {len(grid.axes)}D grid")
    return WaveField(grid, refuse_overflow(lambda: solution.fn(*grid.coords, t), lambda: (
        f"float64 cannot hold the samples at t = {t}")), t)


# --- discrete derivatives ----------------------------------------------------

def _neighbours(values: np.ndarray, ag: Grid1D, axis: int):
    """s(k): the samples read k cells on along ``axis`` (s(k)[i] = values[i + k],
    |k| <= STENCIL_REACH), all from one padded copy: wrapped on a periodic
    axis, zero beyond a wall."""
    r = STENCIL_REACH
    pad = [(0, 0)] * values.ndim
    pad[axis] = (r, r)
    padded = np.pad(values, pad, mode="wrap" if ag.boundary == "periodic" else "constant")
    n, lead = values.shape[axis], (slice(None),) * (axis % values.ndim)
    return lambda k: padded[lead + (slice(r + k, r + k + n),)]


def derivative(values: np.ndarray, ag: Grid1D, axis: int = 0) -> np.ndarray:
    """Fourth-order centered d/dx of samples along ``axis``, whose axis grid
    is ``ag`` (its spacing and boundary)."""
    s = _neighbours(values, ag, axis)
    return (-s(2) + 8.0 * s(1) - 8.0 * s(-1) + s(-2)) / (12.0 * ag.dx)


def _fd4_second(values: np.ndarray, ag: Grid1D, axis: int) -> np.ndarray:
    s = _neighbours(values, ag, axis)
    return (-s(2) + 16.0 * s(1) - 30.0 * values + 16.0 * s(-1) - s(-2)) / (12.0 * ag.dx ** 2)


def fourier_multiply(values: np.ndarray, axis_grid: Grid1D, multiplier, axis: int) -> np.ndarray:
    """ifft(multiplier(k) fft(values)) along one periodic axis, with k the
    wavenumbers of ``axis_grid``: the one Fourier-multiplier kernel behind
    spectral momentum, kinetic energy and off-lattice translations."""
    shape = [1] * values.ndim
    shape[axis] = axis_grid.npoints
    k = axis_grid.wavenumbers.reshape(shape)
    # one transform buffer, multiplied and inverted in place: new arrays for
    # the product and the inverse held three blocks at the peak, this two
    spectrum = np.fft.fft(values, axis=axis, out=np.empty(values.shape, complex))
    np.multiply(multiplier(k), spectrum, out=spectrum)
    return np.fft.ifft(spectrum, axis=axis, out=spectrum)


def _momentum_power(f: WaveField, cfg: SystemConfig, axis: int, power: int) -> np.ndarray:
    """p^power (power 1 or 2) along one axis, as raw samples: the spectral
    multiplier (hbar k)^power on a periodic axis, the fourth-order stencils
    -i hbar D1 and -hbar^2 D2 on a wall-bounded one."""
    if axis not in range(len(f.grid.axes)):
        raise GridMismatchError(f"{len(f.grid.axes)}D grid has no axis {axis}")
    ag = f.grid.axes[axis]
    if ag.boundary == "periodic":
        return fourier_multiply(f.values, ag, lambda k: (cfg.hbar * k) ** power, axis)
    if power == 1:
        return -1j * cfg.hbar * derivative(f.values, ag, axis)
    return -cfg.hbar ** 2 * _fd4_second(f.values, ag, axis)


def apply_momentum(f: WaveField, cfg: SystemConfig, axis: int = 0) -> WaveField:
    """-i hbar d/dx along the chosen axis."""
    return WaveField(f.grid, _momentum_power(f, cfg, axis, 1), f.t)


def apply_kinetic(f: WaveField, cfg: SystemConfig, axis: int = 0) -> np.ndarray:
    """p^2/(2m) along one axis, returned as raw samples."""
    return _momentum_power(f, cfg, axis, 2) / (2.0 * cfg.mass)


def apply_hamiltonian_1d(f: WaveField, cfg: SystemConfig) -> WaveField:
    """px^2/(2m) - q E x acting on a 1D field."""
    if not isinstance(f.grid, Grid1D):
        raise GridMismatchError("apply_hamiltonian_1d needs a 1D field")
    kinetic = apply_kinetic(f, cfg, axis=0)
    potential = -cfg.charge * cfg.electric * f.grid.x * f.values
    return WaveField(f.grid, kinetic + potential, f.t)


@lru_cache(maxsize=GAUGE_TWIST_CACHE_SIZE)
def gauge_twist(grid: Grid2D, cfg: SystemConfig) -> np.ndarray:
    """G = exp(i m wc y z / hbar); (pz - m wc y) = G pz G^dagger exactly.
    Cached per (grid, config), so the shared array is read-only."""
    wc = cyclotron_frequency(cfg)
    yy, zz = grid.coords
    twist = np.exp(1j * cfg.mass * wc * yy * zz / cfg.hbar)
    twist.flags.writeable = False
    return twist


def apply_hamiltonian_yz(f: WaveField, cfg: SystemConfig) -> WaveField:
    """py^2/(2m) + (pz - m wc y)^2/(2m) on a periodic 2D field.

    The gauge term is applied as G pz^2 G^dagger with the unitary twist G,
    which is exact and keeps states with position-dependent gauge momentum
    free of spectral aliasing.
    """
    if not isinstance(f.grid, Grid2D) or any(ag.boundary != "periodic" for ag in f.grid.axes):
        raise GridMismatchError("apply_hamiltonian_yz needs a periodic 2D field")
    kin_y = apply_kinetic(f, cfg, axis=0)
    twist = gauge_twist(f.grid, cfg)
    inner = WaveField(f.grid, np.conj(twist) * f.values, f.t)
    kin_z = twist * apply_kinetic(inner, cfg, axis=1)
    return WaveField(f.grid, kin_y + kin_z, f.t)


# --- inner products and expectations ------------------------------------------

def _field_axes(grid) -> tuple[int, ...]:
    """The trailing axes holding one field, alone or in a stack of fields;
    axis a of a field is axis ``_field_axes(grid)[a]`` of the array."""
    return tuple(range(-len(grid.axes), 0))


def _dots(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """u . w_f, one dot per field (a stacked product sums in another order)."""
    return np.array([np.dot(u, wf) for wf in w])


def _density_sums(stack: np.ndarray, grid):
    """n^2 = sum |v|^2 dv and, per axis, sum x |v|^2 dv of each field: the
    density once, n^2 the sum of its first marginal, one dot per marginal."""
    d = np.square(stack.real)
    d += np.square(stack.imag)
    fax = _field_axes(grid)
    marginals = [d] if len(fax) == 1 else [d.sum(axis=fax[1]), d.sum(axis=fax[0])]
    return (marginals[0].sum(axis=-1) * grid.cell,
            [_dots(ag.x, m) * grid.cell for ag, m in zip(grid.axes, marginals)])


def _overlaps(a: np.ndarray, stack: np.ndarray, grid) -> np.ndarray:
    """<a|f> dv for each field f of ``stack``: one ``np.vdot`` per field."""
    return np.array([np.vdot(a, f) for f in stack]) * grid.cell


def inner_product(a: WaveField, b: WaveField) -> complex:
    """One ``np.vdot``, as ``stack_expectations`` forms its overlaps."""
    if a.grid != b.grid:
        raise GridMismatchError("inner product needs a common grid")
    return complex(_overlaps(a.values, b.values[None], a.grid)[0])


def norm(f: WaveField) -> float:
    """The root of the density sum, as ``stack_expectations`` forms its norms."""
    return math.sqrt(_density_sums(f.values[None], f.grid)[0][0])


OBSERVABLES = {1: ("x", "px", "H"), 2: ("y", "z", "py", "pz", "H")}


def _spectral_weights(v: np.ndarray, grid, axis: int, overwrite: bool = False) -> np.ndarray:
    """w = |fft(v)|^2 along one axis, summed over the other axis of a 2D
    field, for each field of the stack ``v``: one FFT (into ``v`` if
    ``overwrite``), w = re^2 + im^2 formed in its own buffer."""
    fax = _field_axes(grid)
    spectrum = np.fft.fft(v, axis=fax[axis], out=v if overwrite else np.empty(v.shape, complex))
    squares = spectrum.view(float)   # re and im interleaved: one contiguous pass
    np.square(squares, out=squares)
    w = spectrum.real   # in place: a new weight array per block raised peak RSS
    w += spectrum.imag
    return w if len(fax) == 1 else w.sum(axis=fax[1 - axis])


def _moments(w: np.ndarray, grid, axis: int, hbar: float, n2: np.ndarray, powers=(1, 2)):
    """Normalized spectral moments <p^power> along one axis from the
    weights ``w`` of each field (Parseval): hbar^power k^power . w dv / (N n2),
    one array over the stack per power and one dot per field and power."""
    ag = grid.axes[axis]
    scale = grid.cell / ag.npoints / n2
    return [_dots(ag.wavenumbers ** power, w) * (hbar ** power * scale) for power in powers]


def stack_expectations(grid, stack: np.ndarray, cfg: SystemConfig,
                       reference: np.ndarray | None = None, spectra=None):
    """Norms and normalized expectation values of a stack of fields.

    ``stack`` holds one field of ``grid`` per leading index.  Returns
    ``(norms, values, overlaps)``: the norm of each field, ``values`` mapping
    each name of ``OBSERVABLES[ndim]``, in order, to an array over the
    stack, and <reference|f> per field (None without a reference).  The
    conserved px - q E t and py - m wc z are ``algebra``'s, not measured here.

    The method is the module's: one density, dot, ``np.vdot`` or FFT per
    field and quantity (``_density_sums``, ``_overlaps``, ``_spectral_weights``
    and ``_moments``, plus the FFT of conj(G) v for the 2D gauge term).
    ``spectra`` hands over the py and pz weights of 2D fields, one array
    per axis over the stack of Sigma_z |F_y v|^2 and Sigma_y |F_z v|^2 (F the
    unnormalized DFT), in place of the y- and z-FFTs.  So a field of the
    stack measures bit for bit as it would alone, given the same spectra.
    The moments stay spectral on a wall-bounded grid too (stencil
    moments would change every recorded trajectory: ``evolve1d``, the
    Ehrenfest check), so its fields must stay clear of the walls.
    """
    n2, position_sums = _density_sums(stack, grid)
    if np.any(n2 <= 0):
        raise ValueError("expectation of an empty field")
    pos = [s / n2 for s in position_sums]
    if len(pos) == 1:
        px, px2 = _moments(_spectral_weights(stack, grid, 0), grid, 0, cfg.hbar, n2)
        values = {"x": pos[0], "px": px,
                  "H": px2 / (2.0 * cfg.mass) - cfg.charge * cfg.electric * pos[0]}
    else:
        if spectra is None:
            spectra = [_spectral_weights(stack, grid, axis) for axis in (0, 1)]
        py, py2 = _moments(spectra[0], grid, 0, cfg.hbar, n2)
        (pz,) = _moments(spectra[1], grid, 1, cfg.hbar, n2, (1,))
        # per field: numpy buffers a broadcast product in a block-sized scratch
        conj_twist, twisted = np.conj(gauge_twist(grid, cfg)), np.empty(stack.shape, complex)
        for v, out in zip(stack, twisted):
            np.multiply(conj_twist, v, out=out)
        (pi_z2,) = _moments(_spectral_weights(twisted, grid, 1, overwrite=True),
                            grid, 1, cfg.hbar, n2, (2,))
        values = {"y": pos[0], "z": pos[1], "py": py, "pz": pz,
                  "H": (py2 + pi_z2) / (2.0 * cfg.mass)}
    overlaps = None if reference is None else _overlaps(reference, stack, grid)
    return np.sqrt(n2), values, overlaps


def expectation(opname: str, f: WaveField, cfg: SystemConfig) -> float:
    """Normalized expectation value of one observable of ``OBSERVABLES``,
    measured by ``stack_expectations`` (see it for the method)."""
    values = stack_expectations(f.grid, f.values[None], cfg)[1]
    if opname not in values:
        raise ValueError(f"unknown {len(f.grid.axes)}D observable {opname!r}")
    return float(values[opname][0])


# --- residuals ----------------------------------------------------------------

def interior(grid) -> slice:
    """The samples a residual norm covers: all but a DIRICHLET_BAND of cells
    at each wall of a wall-bounded 1D grid (the fd4 stencil footprint).  2D
    residuals run on periodic axes only: ``apply_hamiltonian_yz`` rejects a
    wall axis."""
    if isinstance(grid, Grid1D) and grid.boundary == "dirichlet":
        return slice(DIRICHLET_BAND, -DIRICHLET_BAND)
    return slice(None)


def residual_samples(solution: AnalyticSolution, grid, t: float,
                     dt_stencil: float) -> tuple[np.ndarray, WaveField, np.ndarray]:
    """i hbar (psi(t+h) - psi(t-h)) / 2h - H psi(t) at every sample, the
    sampled psi(t), and the sampled Eop psi = i hbar (psi(t+h) - psi(t-h)) / 2h.
    H is the solution's own Hamiltonian: 1D or the transverse gauge problem."""
    cfg = solution.cfg
    plus = sample(solution, grid, t + dt_stencil)
    minus = sample(solution, grid, t - dt_stencil)
    mid = sample(solution, grid, t)
    e_action = 1j * cfg.hbar * ((plus.values - minus.values) / (2.0 * dt_stencil))
    if solution.ndim == 1:
        h_mid = apply_hamiltonian_1d(mid, cfg)
    else:
        h_mid = apply_hamiltonian_yz(mid, cfg)
    return e_action - h_mid.values, mid, e_action


def schrodinger_residual(solution: AnalyticSolution, grid, t: float,
                         dt_stencil: float) -> float:
    """|| i hbar (psi(t+h) - psi(t-h)) / 2h - H psi(t) ||_2 / || psi(t) ||_2.

    Over the ``interior`` samples: a wall-bounded grid drops its wall band.
    """
    r, mid, _ = residual_samples(solution, grid, t, dt_stencil)
    return relative_residual(r, mid.values, grid)


def relative_residual(r: np.ndarray, ref: np.ndarray, grid) -> float:
    """||r|| / ||ref||, both 2-norms over the ``interior`` samples of ``grid``."""
    band = interior(grid)
    return float(np.linalg.norm(r[band]) / np.linalg.norm(ref[band]))
