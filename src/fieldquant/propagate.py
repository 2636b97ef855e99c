"""Independent numerical time evolution used to validate the closed forms.

Two second-order methods: Crank-Nicolson for the 1D linear-potential
problem (wall-bounded, exactly norm preserving) and Strang splitting for
the transverse gauge problem (periodic).  Neither assumes anything about
the analytic solutions they are checked against.  A stepper defines one
thing, ``rows(values, cadence)``: a generator of (state, spectra) pairs, the
initial state, then the state after every ``cadence`` steps.  ``advance``
and ``step`` come from it, once for both methods: ``advance(values, steps)``
is the second row of ``rows(values, steps)``, checked finite, and ``step``
is ``advance(values, 1)``.  A Crank-Nicolson row carries no spectra; the
split step keeps its state in k-space from one row to the next and hands
over each row's momentum weights (``grids.stack_expectations`` takes them).
``evolve`` records a trajectory row every ``cadence`` steps, and
``estimate_order`` gives the Richardson convergence order of either method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SystemConfig, cyclotron_frequency, refuse_overflow
from .grids import (OBSERVABLES, Grid1D, Grid2D, WaveField, GridMismatchError, norm,
                    stack_expectations)


class AlreadyConvergedError(RuntimeError):
    """Richardson differences vanished; the run is step-size independent."""


@dataclass(frozen=True)
class EvolutionSpec:
    dt: float
    steps: int
    cadence: int = 1
    method: str = "cn_1d"   # cn_1d | split_yz

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"time step dt must be finite and positive, got {self.dt}")
        if self.steps < 0:
            raise ValueError("step count must be nonnegative")
        if self.cadence < 1 or (self.steps and self.steps % self.cadence):
            raise ValueError("cadence must divide the step count")
        if self.method not in ("cn_1d", "split_yz"):
            raise ValueError(f"unknown method {self.method!r}")


@dataclass
class TrajectoryRecord:
    columns: list[str]
    rows: np.ndarray   # float64, one row per recorded state and one column per name
    final: WaveField

    def column(self, name: str) -> np.ndarray:
        return self.rows[:, self.columns.index(name)]

    @property
    def times(self) -> np.ndarray:
        return self.column("t")


class _Stepper:
    """``advance`` and ``step`` of a stepper, from its ``rows``."""

    def step(self, values: np.ndarray) -> np.ndarray:
        return self.advance(values, 1)

    def advance(self, values: np.ndarray, steps: int) -> np.ndarray:
        """The second row of ``rows(values, steps)``, C-ordered and checked:
        NaN and inf survive every linear step, so one finiteness check of
        the result covers a non-finite input and an overflow at any step."""
        if steps == 0:
            return values
        rows = self.rows(values, steps)
        next(rows)   # the initial state
        row, _ = next(rows)
        rows.close()   # frees the stepper's state before the copy
        row = np.ascontiguousarray(row)
        if not np.isfinite(row).all():
            raise ValueError("array must not contain infs or NaNs")
        return row


class CrankNicolson1D(_Stepper):
    """(1 + i dt H / 2 hbar) psi' = (1 - i dt H / 2 hbar) psi with the
    three-point kinetic stencil and V(x) = -q E x, zero at the walls.

    The left-hand matrix is constant, so it is LU-factored (``zgttrf``,
    partial pivoting) once here; every step reuses the factors."""

    def __init__(self, grid: Grid1D, cfg: SystemConfig, dt: float):
        if grid.boundary != "dirichlet":
            raise GridMismatchError("Crank-Nicolson runs on wall-bounded grids")
        # scipy is imported here, not with the module: commands that build no
        # Crank-Nicolson stepper never pay for it
        from scipy.linalg.lapack import zgttrf, zgttrs
        self._zgttrs = zgttrs
        self.grid = grid
        self.cfg = cfg
        self.dt = dt
        n = grid.npoints
        hbar, m = cfg.hbar, cfg.mass
        lam = 1j * dt / (2.0 * hbar)

        def diagonals():
            kin_diag = hbar ** 2 / (m * grid.dx ** 2)
            kin_off = -hbar ** 2 / (2.0 * m * grid.dx ** 2)
            return (lam * (kin_diag - cfg.charge * cfg.electric * grid.x),
                    np.full(n - 1, lam * kin_off, dtype=complex), kin_off)
        h_diag, off, kin_off = refuse_overflow(diagonals, lambda: (
            f"the Crank-Nicolson diagonals i dt (hbar^2/(m dx^2) - q E x) / (2 hbar) overflow "
            f"float64 at dt = {dt:.3g}, dx = {grid.dx:.3g}, m = {m:.3g} and "
            f"q E = {cfg.charge * cfg.electric:.3g}"))
        *self._lu, info = zgttrf(off, 1.0 + h_diag, off)
        if info != 0:
            raise RuntimeError(f"tridiagonal Crank-Nicolson factorization failed (info={info})")
        self._b_diag = 1.0 - h_diag
        self._b_off = -lam * kin_off

    def _advance(self, values: np.ndarray, steps: int) -> np.ndarray:
        """``steps`` >= 1 steps, each one right-hand-side product and one back
        substitution.  The right-hand side is built in two buffers used in
        turn (the solve overwrites one, the next product reads it into the
        other), so no step allocates and ``values`` is never written.  One
        product b_off * values feeds both off-diagonal adds, read shifted."""
        n = values.shape[0]
        # each buffer with its two shifted views, made once per advance
        bufs = [(b, b[:-1], b[1:]) for b in (np.empty(n, dtype=complex),
                                             np.empty(n, dtype=complex))]
        tmp = np.empty(n, dtype=complex)
        tmp_lo, tmp_hi = tmp[:-1], tmp[1:]
        b_diag, b_off, lu, zgttrs = self._b_diag, self._b_off, self._lu, self._zgttrs
        for k in range(steps):
            rhs, rhs_lo, rhs_hi = bufs[k % 2]
            np.multiply(b_diag, values, out=rhs)
            np.multiply(b_off, values, out=tmp)   # serves both off-diagonals
            rhs_lo += tmp_hi
            rhs_hi += tmp_lo
            values, info = zgttrs(*lu, rhs, overwrite_b=1)
            if info != 0:
                raise RuntimeError(f"tridiagonal Crank-Nicolson solve failed (info={info})")
        return values

    def rows(self, values: np.ndarray, cadence: int):
        """``values``, then the state after every ``cadence`` steps, each one
        ``_advance`` (``evolve`` and ``advance`` check the rows): its buffers are
        freed between rows, so a trajectory holds no scratch while its rows
        are measured."""
        yield values, None
        while True:
            values = self._advance(values, cadence)
            yield values, None


class SplitStepYZ(_Stepper):
    """Strang splitting exp(-i dt A / 2 hbar) exp(-i dt B / hbar)
    exp(-i dt A / 2 hbar) with A = py^2/2m diagonal in k_y and
    B = (hbar k_z - m wc y)^2 / 2m diagonal in the mixed (y, k_z)
    representation, so no 2D transform is ever needed.

    A step costs one y-FFT pair and two multiplies, all in place.  A row
    adds two inverse transforms (y, then z) and the squares of its momentum
    weights, so ``evolve`` at cadence 1 runs five FFTs per row: these four
    and its gauge-twisted z-FFT.  The two
    per-step kicks (gauge and fused k_y) are stored at the full C-contiguous
    (N_z, N_y) shape of the stepping buffers, so each multiply is one
    contiguous loop; the k_y half-kick, which acts once at the start of a
    trajectory and once in each row's tap, stays a (1, N_y) row.  The k_y
    kicks are pre-scaled by 1/N_y, the normalization of the inverse
    y-transform that follows each of them, so those transforms run unscaled
    (``norm="forward"``).  At a power-of-two N_y that division is exact and
    the states are bit-identical to scaled inverse transforms; at other
    sizes they differ at roundoff level.  A multi-row trajectory fuses the
    half-kicks across rows, so its rows differ from chained advances at
    roundoff level."""

    def __init__(self, grid: Grid2D, cfg: SystemConfig, dt: float):
        if grid.y.boundary != "periodic" or grid.z.boundary != "periodic":
            raise GridMismatchError("split stepping runs on periodic grids")
        self.grid = grid
        self.cfg = cfg
        self.dt = dt
        hbar, m = cfg.hbar, cfg.mass
        wc = cyclotron_frequency(cfg)
        ny = grid.y.npoints

        def kicks():
            a = (hbar * grid.y.wavenumbers) ** 2 / (2.0 * m)
            half = np.exp(-0.5j * dt * a / hbar)
            gauge = (hbar * grid.z.wavenumbers[:, None]
                     - m * wc * grid.y.x[None, :]) ** 2 / (2.0 * m)
            return ((half / ny)[None, :],
                    np.tile(half * half / ny, (grid.z.npoints, 1)),  # two fused half-kicks
                    np.exp(-1j * dt * gauge / hbar))
        self._half_kick, self._kick, self._kick_gauge = refuse_overflow(kicks, lambda: (
            f"the split-step kicks exp(-i dt p^2 / (2 m hbar)) overflow float64 at dt = "
            f"{dt:.3g}, grid lengths {grid.y.length:.3g} x {grid.z.length:.3g} of {ny} x "
            f"{grid.z.npoints} points, m = {m:.3g} and m wc = {m * wc:.3g}"))

    def rows(self, values: np.ndarray, cadence: int):
        """``values``, then the state after every ``cadence`` Strang steps,
        each with its ``_split_spectra``.  The state is held in (k_y, k_z)
        between gauge kicks for the whole trajectory: the closing half-kick
        in k_y of one step and the opening one of the next act as one full
        kick, across rows too.  Between rows the generator holds that one
        state buffer, stored C-contiguous as (k_z, k_y); ``values`` is never
        written.  Each later row is a new array: the (y, z) transpose of a
        C-contiguous buffer, so it is Fortran-ordered (``evolve`` copies it
        into its C-ordered stack, ``advance`` returns a C-ordered copy)."""
        fft = np.fft.fft
        w = fft(values, axis=1)   # (y, k_z)
        u = np.ascontiguousarray(w.T)   # (k_z, y)
        w = w.reshape(u.shape)   # the first transform's output, reused
        fft(u, out=w)   # (k_z, k_y)
        spectra = _split_spectra(w, u)
        del u
        yield values, spectra
        del values
        # a complex product can round differently with its operands swapped,
        # so each kick's operand order is part of the result
        np.multiply(self._half_kick, w, out=w)
        while True:
            yield self._row(w, cadence)
            w *= self._kick

    def _row(self, w: np.ndarray, steps: int):
        """Advance ``w``, the (k_z, k_y) state after an opening half-kick in
        k_y, in place by ``steps`` Strang steps short of the last closing
        half-kick, and return the row, the state with that half-kick in
        (y, z), and its spectra.  Every FFT runs along the last axis, and
        every FFT and kick acts in place.  The row is tapped off into one new
        array, which first holds the squares of w for the spectra: w times
        the half-kick, its inverse y-transform, then its inverse z-transform
        along the first axis, returned as its transpose."""
        fft, ifft = np.fft.fft, np.fft.ifft
        half, kick, gauge = self._half_kick, self._kick, self._kick_gauge
        for k in range(steps):
            if k:
                w *= kick
            ifft(w, out=w, norm="forward")
            np.multiply(gauge, w, out=w)
            fft(w, out=w)
        u = np.empty_like(w)
        spectra = _split_spectra(w, u)
        np.multiply(w, half, out=u)
        ifft(u, out=u, norm="forward")   # (k_z, y)
        return ifft(u, axis=0, out=u).T, spectra   # (y, z)


def _split_spectra(w: np.ndarray, squares: np.ndarray):
    """The py and pz weights (Sigma_z |F_y psi|^2, Sigma_y |F_z psi|^2, F the
    unnormalized DFT) of the state psi with |F_z F_y psi| = |w|: the
    half-kick left out of w is a phase over N_y, which the unscaled inverse
    y-transform undoes.  By Parseval along z and y they are the column sums
    over N_z and the row sums over N_y of |w|^2, squared into ``squares`` (a
    buffer of the shape of ``w``) as re^2 and im^2 interleaved."""
    nz, ny = w.shape
    squares = np.square(w.view(float), out=squares.view(float))
    col = squares.sum(axis=0)
    return (col[0::2] + col[1::2]) / nz, squares.sum(axis=1) / ny


def _make_stepper(f0: WaveField, spec: EvolutionSpec, cfg: SystemConfig):
    if spec.method == "cn_1d":
        if not isinstance(f0.grid, Grid1D):
            raise GridMismatchError("cn_1d evolves 1D fields")
        return CrankNicolson1D(f0.grid, cfg, spec.dt)
    if not isinstance(f0.grid, Grid2D):
        raise GridMismatchError("split_yz evolves 2D fields")
    return SplitStepYZ(f0.grid, cfg, spec.dt)


# states per measured block, capped for memory: 512 KiB blocks ran the dense
# benchmark trajectories about 5% faster on 2 cores, but raised peak RSS by 1.1 MB
ROW_BLOCK_BYTES = 1 << 17


def evolve(f0: WaveField, spec: EvolutionSpec, cfg: SystemConfig) -> TrajectoryRecord:
    """Repeated stepping with cadence recording; the final field rides along
    on the record.  The record's columns are t, the norm, the ``OBSERVABLES``
    of the field's dimension and the fidelity, the overlap with the initial
    field.

    Rows, the initial one included, are drawn from the stepper's ``rows``
    into a stack of at most ``ROW_BLOCK_BYTES`` of states, and each full
    stack is checked for finiteness (the one check of a Crank-Nicolson row)
    and measured by one ``stack_expectations`` call with the spectra the
    stepper hands over: one density per block, then one dot, ``np.vdot`` or
    FFT per row and quantity, so each row measures bit for bit as its field
    would alone, given the same spectra.  Each block's rows are stacked as it
    is measured (the record grows with the run, never allocated for all its
    rows up front) and the blocks are joined once at the end."""
    stepper = _make_stepper(f0, spec, cfg)
    ref_norm = norm(f0)
    if ref_norm == 0:   # the fidelity column divides by it
        raise ValueError("evolve needs an initial field of nonzero norm")
    names = OBSERVABLES[f0.values.ndim]
    nrows = spec.steps // spec.cadence + 1
    stack = np.empty((max(1, min(nrows, ROW_BLOCK_BYTES // f0.values.nbytes)),
                      *f0.values.shape), dtype=complex)
    states = stepper.rows(f0.values, spec.cadence)
    row, blocks = 0, []
    while row < nrows:
        block, times, spectra = stack[:min(len(stack), nrows - row)], [], []
        for i in range(len(block)):
            block[i], row_spectra = next(states)
            spectra.append(row_spectra)
            times.append(f0.t + row * spec.cadence * spec.dt if row else f0.t)
            row += 1
        if not np.isfinite(block).all():
            raise ValueError("field contains non-finite samples")
        # one array per axis over the block, for its one dot per row
        spectra = None if spectra[0] is None else [np.array(w) for w in zip(*spectra)]
        norms, values, overlaps = stack_expectations(f0.grid, block, cfg,
                                                     reference=f0.values, spectra=spectra)
        # hypot is Python's abs(complex); numpy's complex abs rounds differently
        fidelity = np.hypot(overlaps.real, overlaps.imag) / (ref_norm * norms)
        blocks.append(np.column_stack((times, norms, *values.values(), fidelity)))
    columns = ["t", "norm", *("energy" if n == "H" else f"{n}_mean" for n in names), "fidelity"]
    return TrajectoryRecord(columns, np.concatenate(blocks),
                            WaveField(f0.grid, block[-1].copy(), times[-1]))


def estimate_order(f0: WaveField, T: float, method: str, cfg: SystemConfig,
                   base_steps: int = 64) -> float:
    """Richardson convergence-order estimate at fixed horizon T:

        log2( ||psi_dt - psi_dt/2|| / ||psi_dt/2 - psi_dt/4|| )

    Expected near 2 for both methods.  Raises AlreadyConvergedError when the
    differences sit at the roundoff floor (step-size independent run).
    """
    finals = []
    for factor in (1, 2, 4):
        spec = EvolutionSpec(dt=T / (base_steps * factor), steps=base_steps * factor,
                             cadence=base_steps * factor, method=method)
        finals.append(evolve(f0, spec, cfg).final.values)
    d1 = float(np.linalg.norm(finals[0] - finals[1]))
    d2 = float(np.linalg.norm(finals[1] - finals[2]))
    scale = float(np.linalg.norm(finals[2]))
    if d2 <= 1e-13 * max(scale, 1.0) or d1 <= 1e-13 * max(scale, 1.0):
        raise AlreadyConvergedError("already converged: step-size differences at roundoff")
    return math.log2(d1 / d2)


def cyclotron_period(cfg: SystemConfig) -> float:
    wc = cyclotron_frequency(cfg)
    if wc == 0:
        raise ValueError("cyclotron period undefined for zero magnetic field")
    return 2.0 * math.pi / abs(wc)
