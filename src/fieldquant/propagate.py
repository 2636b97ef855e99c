"""Independent numerical time evolution used to validate the closed forms.

Two second-order methods: Crank-Nicolson with a tridiagonal kinetic stencil
for the 1D linear-potential problem (wall-bounded, exactly norm preserving),
and Strang splitting for the transverse gauge problem (periodic, with the
gauge factor applied diagonally in the mixed (y, k_z) representation).
Neither assumes anything about the analytic solutions they are checked
against.

Both steppers expose ``advance(values, steps)``; ``step(values)`` is
``advance(values, 1)``.  Crank-Nicolson factors its constant tridiagonal
matrix once, at construction (the only place scipy is imported), and each
step is a single LAPACK back substitution; the right-hand side is built in
two preallocated buffers used in turn, and finiteness is checked once, on
the result of each advance.  The split stepper keeps the state in
(y, k_z) for the whole advance, stored C-contiguous as (k_z, y) so every
FFT runs along the last axis into one of two buffers: the kinetic term is
diagonal in k_y and the gauge term in y, so a step costs one FFT pair, the
kicks act in place, and adjacent k_y half-kicks fuse into one full kick.
``evolve`` advances one recorded row at a time, so the state returns to
(y, z) only where a row is recorded.  A row costs one ``expectations`` call:
one FFT in 1D and three in 2D, besides the norm and the fidelity overlap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import SystemConfig, cyclotron_frequency
from .grids import (Grid1D, Grid2D, WaveField, GridMismatchError,
                    inner_product, norm, expectations)


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
    rows: list[list[float]] = field(default_factory=list)
    final: WaveField | None = None

    def column(self, name: str) -> np.ndarray:
        idx = self.columns.index(name)
        return np.array([row[idx] for row in self.rows])

    @property
    def times(self) -> np.ndarray:
        return self.column("t")


class CrankNicolson1D:
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
        kin_diag = hbar ** 2 / (m * grid.dx ** 2)
        kin_off = -hbar ** 2 / (2.0 * m * grid.dx ** 2)
        v = -cfg.charge * cfg.electric * grid.x
        lam = 1j * dt / (2.0 * hbar)
        off = np.full(n - 1, lam * kin_off, dtype=complex)
        *self._lu, info = zgttrf(off, 1.0 + lam * (kin_diag + v), off)
        if info != 0:
            raise RuntimeError(f"tridiagonal Crank-Nicolson factorization failed (info={info})")
        self._b_diag = 1.0 - lam * (kin_diag + v)
        self._b_off = -lam * kin_off

    def step(self, values: np.ndarray) -> np.ndarray:
        return self.advance(values, 1)

    def advance(self, values: np.ndarray, steps: int) -> np.ndarray:
        """``steps`` steps, each one right-hand-side product and one back
        substitution.  The right-hand side is built in two buffers used in
        turn (the solve overwrites one, the next product reads it into the
        other), so no step allocates and ``values`` is never written.
        NaN and inf survive every linear step, so one finiteness check of
        the result covers a non-finite input and an overflow at any step."""
        if steps == 0:
            return values
        n = values.shape[0]
        bufs = (np.empty(n, dtype=complex), np.empty(n, dtype=complex))
        tmp = np.empty(n - 1, dtype=complex)
        b_diag, b_off, lu, zgttrs = self._b_diag, self._b_off, self._lu, self._zgttrs
        for k in range(steps):
            rhs = bufs[k % 2]
            np.multiply(b_diag, values, out=rhs)
            np.multiply(b_off, values[1:], out=tmp)
            rhs[:-1] += tmp
            np.multiply(b_off, values[:-1], out=tmp)
            rhs[1:] += tmp
            values, info = zgttrs(*lu, rhs, overwrite_b=1)
            if info != 0:
                raise RuntimeError(f"tridiagonal Crank-Nicolson solve failed (info={info})")
        if not np.isfinite(values).all():
            raise ValueError("array must not contain infs or NaNs")
        return values


class SplitStepYZ:
    """Strang splitting exp(-i dt A / 2 hbar) exp(-i dt B / hbar)
    exp(-i dt A / 2 hbar) with A = py^2/2m diagonal in k_y and
    B = (hbar k_z - m wc y)^2 / 2m diagonal in the mixed (y, k_z)
    representation, so no 2D transform is ever needed."""

    def __init__(self, grid: Grid2D, cfg: SystemConfig, dt: float):
        if grid.y.boundary != "periodic" or grid.z.boundary != "periodic":
            raise GridMismatchError("split stepping runs on periodic grids")
        self.grid = grid
        self.cfg = cfg
        self.dt = dt
        hbar, m = cfg.hbar, cfg.mass
        wc = cyclotron_frequency(cfg)
        # the kicks in the (k_z, y) layout of the stepping loop
        a = (hbar * grid.y.wavenumbers) ** 2 / (2.0 * m)
        self._half_kick = np.exp(-0.5j * self.dt * a / hbar)[None, :]
        self._kick = self._half_kick * self._half_kick  # two fused half-kicks
        gauge = (hbar * grid.z.wavenumbers[:, None] - m * wc * grid.y.x[None, :]) ** 2 / (2.0 * m)
        self._kick_gauge = np.exp(-1j * self.dt * gauge / hbar)

    def step(self, values: np.ndarray) -> np.ndarray:
        return self.advance(values, 1)

    def advance(self, values: np.ndarray, steps: int) -> np.ndarray:
        """``steps`` Strang steps with the state held in (k_y, k_z) between
        gauge kicks: the closing half-kick in k_y of one step and the
        opening one of the next act as one full kick.  Inside the loop the
        state is stored C-contiguous as (k_z, y), so every FFT runs along
        the last axis, into one of two buffers, and the kicks act in place."""
        if steps == 0:
            return values
        fft, ifft = np.fft.fft, np.fft.ifft
        half, kick, gauge = self._half_kick, self._kick, self._kick_gauge
        u = np.ascontiguousarray(fft(values, axis=1).T)   # (k_z, y)
        w = np.empty_like(u)
        # a complex product can round differently with its operands swapped,
        # so each kick's operand order is part of the result
        np.multiply(half, fft(u, out=w), out=w)
        for _ in range(steps - 1):
            np.multiply(gauge, ifft(w, out=u), out=u)
            fft(u, out=w)
            w *= kick
        np.multiply(gauge, ifft(w, out=u), out=u)
        fft(u, out=w)
        w *= half
        ifft(w, out=u)
        v = np.ascontiguousarray(u.T)   # (y, k_z)
        return ifft(v, axis=1, out=v)


def _make_stepper(f0: WaveField, spec: EvolutionSpec, cfg: SystemConfig):
    if spec.method == "cn_1d":
        if not isinstance(f0.grid, Grid1D):
            raise GridMismatchError("cn_1d evolves 1D fields")
        return CrankNicolson1D(f0.grid, cfg, spec.dt)
    if not isinstance(f0.grid, Grid2D):
        raise GridMismatchError("split_yz evolves 2D fields")
    return SplitStepYZ(f0.grid, cfg, spec.dt)


_ROW_OBSERVABLES = {1: ("x", "px", "H"), 2: ("y", "z", "py", "pz", "H")}


def _record_columns(f0: WaveField) -> list[str]:
    names = _ROW_OBSERVABLES[f0.values.ndim]
    return ["t", "norm", *("energy" if n == "H" else f"{n}_mean" for n in names), "fidelity"]


def _record_row(f: WaveField, cfg: SystemConfig, reference: WaveField, ref_norm: float) -> list[float]:
    n = norm(f)
    fid = abs(inner_product(reference, f)) / (ref_norm * n)
    return [f.t, n, *expectations(_ROW_OBSERVABLES[f.values.ndim], f, cfg), fid]


def evolve(f0: WaveField, spec: EvolutionSpec, cfg: SystemConfig) -> TrajectoryRecord:
    """Repeated stepping with cadence recording; the final field rides along
    on the record.  The fidelity column is the overlap with the initial field."""
    stepper = _make_stepper(f0, spec, cfg)
    ref_norm = norm(f0)
    if ref_norm == 0:   # the fidelity column divides by it
        raise ValueError("evolve needs an initial field of nonzero norm")
    record = TrajectoryRecord(columns=_record_columns(f0))
    record.rows.append(_record_row(f0, cfg, f0, ref_norm))
    values = f0.values.copy()
    t = f0.t
    for row in range(1, spec.steps // spec.cadence + 1):
        values = stepper.advance(values, spec.cadence)
        t = f0.t + row * spec.cadence * spec.dt
        record.rows.append(_record_row(WaveField(f0.grid, values, t), cfg, f0, ref_norm))
    record.final = WaveField(f0.grid, values, t)
    return record


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
