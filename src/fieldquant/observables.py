"""Probability density, current, drift velocity, and the classical-force
consistency checks that tie the quantum solutions back to Newton."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SystemConfig, require_geometry
from .solutions import AnalyticSolution
from .grids import WaveField, Grid1D, derivative, interior
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


def probability_current_1d(target, cfg: SystemConfig, t: float | None = None,
                           x: np.ndarray | None = None) -> CurrentProfile:
    """J = (i hbar / 2m)(psi dpsi*/dx - psi* dpsi/dx) with density and drift.

    Accepts a plane-wave electric solution (fundamental or time-shifted,
    also under Ux or Ut), sampled at the points ``x`` (default: 257 across
    the box) with dpsi/dx = i k psi, k = q E (t - time_origin) / hbar, or a
    1D grid field (fourth-order ``derivative`` on every boundary: a spectral
    one would smear the jump of a plane wave at the periodic wrap for a time
    that is not commensurate).  Other solution families are refused.
    """
    if isinstance(target, AnalyticSolution):
        if target.family not in ("electric_1d_fundamental", "electric_1d_shifted"):
            raise ValueError(f"no closed-form current for the {target.family} family; "
                             "sample it on a grid")
        if t is None:
            raise ValueError("an evaluation time is required for analytic input")
        if x is None:
            x = np.linspace(-0.5 * cfg.box_length, 0.5 * cfg.box_length, 257)
        psi = np.asarray(target.fn(x, t))
        c = target.cfg
        dpsi = (1j * c.charge * c.electric * (np.asarray(t) - target.time_origin) / c.hbar) * psi
        return _profile(x, psi, dpsi, cfg)
    if isinstance(target, WaveField):
        if not isinstance(target.grid, Grid1D):
            raise ValueError("probability_current_1d needs a 1D field")
        dpsi = derivative(target.values, target.grid)
        return _profile(target.grid.x, target.values, dpsi, cfg)
    raise TypeError("expected an AnalyticSolution or WaveField")


def drift_velocity(t: float, cfg: SystemConfig) -> float:
    """v = q E t / m, the drift carried by the fundamental solution."""
    require_geometry(cfg, "electric_1d", "drift_velocity")
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
    """max | d rho/dt + dJ/dx | over the ``interior`` points (a wall-bounded
    grid drops its wall band), from three snapshots.

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
    r = rho_dot + derivative(probability_current_1d(mid, cfg).current, mid.grid)
    return float(np.max(np.abs(r[interior(mid.grid)])))
