"""Probability density, current, drift velocity, and the classical-force
consistency checks that tie the quantum solutions back to Newton."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SystemConfig, ConfigError
from .solutions import AnalyticSolution
from .grids import DIRICHLET_BAND, WaveField, Grid1D, _fd4_first
from .propagate import TrajectoryRecord

DENSITY_FLOOR_FRACTION = 1e-12  # of the peak density; below it v is absent (nan)


@dataclass
class CurrentProfile:
    x: np.ndarray
    density: np.ndarray
    current: np.ndarray
    velocity: np.ndarray  # nan where the density sits below the floor


def _profile(x, psi, dpsi_dx, cfg: SystemConfig) -> CurrentProfile:
    density = np.abs(psi) ** 2
    peak = density.max()
    if peak <= 0:
        raise ValueError("vanishing density: no current profile")
    current = (cfg.hbar / cfg.mass) * np.imag(np.conj(psi) * dpsi_dx)
    velocity = np.full_like(density, np.nan)
    ok = density > DENSITY_FLOOR_FRACTION * peak
    velocity[ok] = current[ok] / density[ok]
    return CurrentProfile(x=np.asarray(x, dtype=float), density=density,
                          current=current, velocity=velocity)


def _numeric_dfdx(solution: AnalyticSolution, x, t, step: float):
    return (np.asarray(solution.fn(x + step, t)) - np.asarray(solution.fn(x - step, t))) \
        / (2.0 * step)


def probability_current_1d(target, cfg: SystemConfig, t: float | None = None,
                           x=None) -> CurrentProfile:
    """J = (i hbar / 2m)(psi dpsi*/dx - psi* dpsi/dx) with density and drift.

    Accepts an analytic solution (closed-form derivative when available)
    or a 1D grid field (fourth-order stencil derivative).
    """
    if isinstance(target, AnalyticSolution):
        if target.ndim != 1:
            raise ValueError("probability_current_1d needs a 1D solution")
        if t is None:
            raise ValueError("an evaluation time is required for analytic input")
        if x is None:
            L = cfg.box_length
            x = np.linspace(-0.5 * L, 0.5 * L, 257)
        psi = np.asarray(target.fn(x, t))
        if target.dfdx is not None:
            dpsi = np.asarray(target.dfdx(x, t))
        else:
            dpsi = _numeric_dfdx(target, np.asarray(x, dtype=float), t, 1e-6)
        return _profile(x, psi, dpsi, cfg)
    if isinstance(target, WaveField):
        if not isinstance(target.grid, Grid1D):
            raise ValueError("probability_current_1d needs a 1D field")
        grid = target.grid
        dpsi = _fd4_first(target.values, grid.dx, grid.boundary == "periodic")
        return _profile(grid.x, target.values, dpsi, cfg)
    raise TypeError("expected an AnalyticSolution or WaveField")


def drift_velocity(t: float, cfg: SystemConfig) -> float:
    """v = q E t / m, the drift carried by the fundamental solution."""
    if cfg.geometry != "electric_1d":
        raise ConfigError("geometry", "drift_velocity requires geometry electric_1d")
    return cfg.charge * cfg.electric * t / cfg.mass


def newton_check(record: TrajectoryRecord, cfg: SystemConfig) -> dict:
    """Compare m d<v>/dt against q E along a recorded trajectory.

    Central differences over the interior record rows; the first and last
    rows are discarded.  Returns the maximum residual, relative to |q E|
    when the field is nonzero and absolute otherwise.
    """
    if len(record.rows) < 3:
        raise ValueError("newton_check needs at least 3 recorded rows")
    t = record.times
    v = record.column("px_mean") / cfg.mass
    dvdt = (v[2:] - v[:-2]) / (t[2:] - t[:-2])
    force = cfg.charge * cfg.electric
    residual = np.abs(cfg.mass * dvdt - force)
    scale = abs(force) if force != 0 else 1.0
    return {"max_residual": float(residual.max() / scale),
            "rows_used": int(dvdt.size)}


def continuity_residual(prev: WaveField, mid: WaveField, nxt: WaveField,
                        cfg: SystemConfig) -> float:
    """max | d rho/dt + dJ/dx | over interior points, from three snapshots.

    rho-dot is the centered difference of the densities and J the
    fourth-order current of the middle snapshot.
    """
    if prev.grid != mid.grid or mid.grid != nxt.grid:
        raise ValueError("continuity_residual needs a common grid")
    dt1 = mid.t - prev.t
    dt2 = nxt.t - mid.t
    if dt1 <= 0 or dt2 <= 0:
        raise ValueError("snapshots must be time ordered")
    rho_dot = (np.abs(nxt.values) ** 2 - np.abs(prev.values) ** 2) / (dt1 + dt2)
    profile = probability_current_1d(mid, cfg)
    grid = mid.grid
    dj_dx = _fd4_first(profile.current, grid.dx, grid.boundary == "periodic")
    r = rho_dot + dj_dx
    return float(np.max(np.abs(r[DIRICHLET_BAND:-DIRICHLET_BAND])))
