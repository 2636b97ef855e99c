"""Symmetry unitaries of the two systems, the invariance phase they imprint,
and the resistance-quantization report.

Every unitary shifts a coordinate s by delta and multiplies by exp(i rate
delta w), a phase linear in a second coordinate w.  ``UNITARY_TABLE`` holds
(s, w) per kind, and ``apply_unitary`` transforms closed-form solutions and
grid fields alike from it.  Uz and Ut carry no phase; Ut acts on solutions
only, moving their ``time_origin``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SystemConfig, cyclotron_frequency, refuse_overflow
from .solutions import AnalyticSolution, electric_shifted, oscillator_scale, plane_wave_phase
from .grids import (WaveField, GridMismatchError, fourier_multiply, relative_residual, sample,
                    residual_samples)

UNITARY_TABLE = {"Ux": ("x", "t"), "Uy": ("y", "z"), "Uz": ("z", None), "Ut": ("t", None)}
UNITARY_KINDS = tuple(UNITARY_TABLE)
_SOLUTION_COORDS = {1: ("x", "t"), 2: ("y", "z", "t"), 3: ("x", "y", "z", "t")}


@dataclass(frozen=True)
class Unitary:
    kind: str
    delta: float
    compensating_phase: bool = True  # False gives the broken-symmetry probe

    def __post_init__(self):
        if self.kind not in UNITARY_KINDS:
            raise ValueError(f"unknown unitary kind {self.kind!r}")
        if not math.isfinite(self.delta):
            raise ValueError("unitary parameter must be finite")


def _phase(u: Unitary, cfg: SystemConfig, w):
    """exp(i rate delta w), the compensating phase of Ux (rate q E / hbar)
    or Uy (rate m wc / hbar) at phase-coordinate values ``w``."""
    if u.kind == "Ux":
        rate = cfg.charge * cfg.electric / cfg.hbar
    else:
        rate = cfg.mass * cyclotron_frequency(cfg) / cfg.hbar
    return np.exp(1j * rate * u.delta * np.asarray(w))


def _solution_transform(u: Unitary, solution: AnalyticSolution, cfg: SystemConfig):
    # every solution has t, and z wherever it has y: only s can be missing
    shifted, phased = UNITARY_TABLE[u.kind]
    coords = _SOLUTION_COORDS[solution.ndim]
    if shifted not in coords:
        raise GridMismatchError(f"{u.kind} needs a solution with a {shifted} coordinate")
    fn, d = solution.fn, u.delta
    i = coords.index(shifted)
    j = coords.index(phased) if phased and u.compensating_phase else None

    def transformed(*args):
        moved = list(args)
        moved[i] = np.asarray(args[i]) - d
        out = fn(*moved)
        return out if j is None else _phase(u, cfg, args[j]) * out
    return transformed


def _field_transform(u: Unitary, f: WaveField, cfg: SystemConfig) -> WaveField:
    if u.kind == "Ut":
        raise ValueError("time shift requires analytic time dependence")
    # a field's t is its time stamp; as for solutions, only s can be missing
    shifted, phased = UNITARY_TABLE[u.kind]
    names = _SOLUTION_COORDS[len(f.grid.axes)][:-1]
    if shifted not in names:
        raise GridMismatchError(f"grid {u.kind} needs a field with a {shifted} axis")
    axis = names.index(shifted)
    ag = f.grid.axes[axis]
    if ag.boundary != "periodic":
        raise GridMismatchError("grid unitaries need periodic axes")
    # exact roll when delta sits on the lattice, band-limited interpolation otherwise
    cells = u.delta / ag.dx
    if abs(cells - round(cells)) < 1e-9:
        out = np.roll(f.values, round(cells), axis=axis)
    else:
        out = fourier_multiply(f.values, ag, lambda k: np.exp(-1j * k * u.delta), axis)
    if phased and u.compensating_phase:
        w = f.t if phased == "t" else f.grid.coords[names.index(phased)]
        out = out * _phase(u, cfg, w)
    return WaveField(f.grid, out, f.t)


def apply_unitary(u: Unitary, target, cfg: SystemConfig):
    """Apply a symmetry unitary to an analytic solution or a grid field."""
    if isinstance(target, AnalyticSolution):
        tag = "" if u.compensating_phase else " (phase stripped)"
        return AnalyticSolution(
            family=target.family, ndim=target.ndim,
            fn=_solution_transform(u, target, cfg), cfg=target.cfg,
            n=target.n, shifts=target.shifts + ((u.kind, u.delta),),
            kmax=target.kmax,
            label=f"{u.kind}({u.delta:g}){tag} {target.label}",
            time_origin=target.time_origin + (u.delta if u.kind == "Ut" else 0.0))
    if isinstance(target, WaveField):
        return _field_transform(u, target, cfg)
    raise TypeError("apply_unitary expects an AnalyticSolution or WaveField")


# --- conjugation symmetry -----------------------------------------------------

def conjugation_symmetry_check(u: Unitary, solution: AnalyticSolution, grid,
                               t: float, cfg: SystemConfig) -> float:
    """|| (H - i hbar d/dt)(U psi) - U((H - i hbar d/dt) psi) ||_2 / ||psi||_2.

    Vanishes (to discretization accuracy) exactly when U is generated by a
    conserved operator; a phase-stripped translation fails loudly.
    """
    h = 1e-4   # centered time step of the residuals; spectral derivatives in space
    lhs = residual_samples(apply_unitary(u, solution, cfg), grid, t, h)[0]
    if u.kind == "Ut":
        rhs = residual_samples(solution, grid, t - u.delta, h)[0]
        ref = sample(solution, grid, t)
    else:
        base, ref, _ = residual_samples(solution, grid, t, h)
        rhs = _field_transform(u, WaveField(grid, base, t), cfg).values
    return relative_residual(lhs - rhs, ref.values, grid)


# --- invariance phase and quantization -----------------------------------------

AMPLITUDE_FLOOR = 1e-6   # fraction of the peak below which ratios are ignored
PHASE_BATCH = 50         # dt values per batched evaluation; bounds the sample arrays
PHASE_TOL = 1e-8         # allowed spread of the phase ratio, scaled by (1 + |n_real|)


def _phase_sample_points(state: AnalyticSolution, cfg: SystemConfig):
    L = cfg.box_length
    if state.ndim == 1:
        x = np.linspace(-0.45 * L, 0.45 * L, 64)
        return [(x, 0.0), (x, 0.31), (x, 0.73)]
    # full parallel product: sweep x and the oscillator neighborhoods
    shifts = dict(state.shifts)
    alpha = oscillator_scale(cfg)
    x = np.linspace(-0.45 * L, 0.45 * L, 16)
    y = shifts.get("dy", 0.0) + np.linspace(-2.0, 2.0, 5) / alpha
    z = shifts.get("dz", 0.0) + np.linspace(-2.0, 2.0, 5) / alpha
    xx, yy, zz = np.meshgrid(x, y, z, indexing="ij")
    return [(xx, yy, zz, 0.0), (xx, yy, zz, 0.41)]


def _n_real(dx_shift, dt_shift, cfg: SystemConfig):
    """q E dx dt / (2 pi hbar), for scalar or array dt."""
    return cfg.charge * cfg.electric * dx_shift * dt_shift / (2.0 * math.pi * cfg.hbar)


def _global_phases(shifted, base, n_real, tol: float) -> np.ndarray:
    """Per row: the ratio shifted / base at the largest-amplitude sample,
    checked constant (within tol (1 + |n_real|)) over all samples above the
    amplitude floor.  The first row that is not constant raises."""
    mag = np.abs(base)
    amax = mag.max(axis=1)
    if not np.all(amax > 0):
        raise ValueError("state vanishes at every phase sample")
    keep = mag > AMPLITUDE_FLOOR * amax[:, None]
    ratio = shifted / np.where(keep, base, 1.0)
    ref = ratio[np.arange(len(ratio)), np.argmax(mag, axis=1)]
    spread = np.where(keep, np.abs(ratio - ref[:, None]), 0.0).max(axis=1)
    bad = np.flatnonzero(spread > tol * (1.0 + np.abs(n_real)))
    if bad.size:
        raise ValueError(
            f"state is not a Ux eigenvector: phase ratio varies by {spread[bad[0]]:.3e}")
    return ref


def _measure(dx_shift: float, state: AnalyticSolution, cfg: SystemConfig, n_real) -> np.ndarray:
    """Global phases (Ux Psi) / Psi of ``state``, one per entry of ``n_real``
    (``_global_phases``); a state batched over a leading axis gives one each.

    First the float64 guard: the largest plane-wave phase at the sample
    points (Psi at x, Ux Psi at x - dx, both from the state's own origins:
    x less the Ux shifts it carries, t - time_origin) must have a float64
    spacing within PHASE_TOL / 10, or ValueError ("unresolvable")."""
    points = _phase_sample_points(state, cfg)
    x0 = sum(delta for kind, delta in state.shifts if kind == "Ux")
    # rounding the largest sampled phase moves the measured deviation at a hit
    # by up to about one float64 spacing of it (0.44-1.0 spacings measured
    # from q = E = 10 to 1000)
    largest = max(float(np.abs(plane_wave_phase(xs, p[-1] - state.time_origin, cfg)).max())
                  for p in points for xs in (p[0] - x0, p[0] - x0 - dx_shift))
    if not math.ulp(largest) <= PHASE_TOL / 10:
        raise ValueError(f"unresolvable: the sampled phase reaches {largest:.3g} rad, whose "
                         f"float64 spacing {math.ulp(largest):.2g} is not well below "
                         f"the tolerance {PHASE_TOL:g}")
    transformed, rows = apply_unitary(Unitary("Ux", dx_shift), state, cfg), np.size(n_real)
    shifted, base = (np.concatenate([np.asarray(fn(*p), dtype=complex).reshape(rows, -1)
                                     for p in points], axis=1)
                     for fn in (transformed.fn, state.fn))
    return _global_phases(shifted, base, n_real, PHASE_TOL)


def invariance_phases(dx_shift: float, dt_values, cfg: SystemConfig) -> np.ndarray:
    """Measured global phases (Ux Psi) / Psi of the time-shifted solutions
    ``electric_shifted(cfg, dt)``, one per dt.

    The dt shifts ride along as a leading array axis, PHASE_BATCH at a time,
    so a whole scan costs a few broadcast evaluations; every phase equals the
    one-point result bit for bit.  The first batch that float64 cannot
    resolve raises ValueError ("unresolvable", see ``_measure``), and so does
    the first dt whose state is not a Ux eigenvector."""
    dt_arr = np.asarray(dt_values, dtype=float).ravel()
    n_real = _n_real(dx_shift, dt_arr, cfg)
    out = np.empty(dt_arr.size, dtype=complex)
    for lo in range(0, dt_arr.size, PHASE_BATCH):
        hi = min(lo + PHASE_BATCH, dt_arr.size)
        out[lo:hi] = _measure(dx_shift, electric_shifted(cfg, dt_arr[lo:hi, None]), cfg,
                              n_real[lo:hi])
    return out


def invariance_phase(dx_shift: float, dt_shift: float, cfg: SystemConfig,
                     state: AnalyticSolution | None = None) -> complex:
    """Measured global phase (Ux Psi) / Psi of ``state``, by default the
    time-shifted solution ``electric_shifted(cfg, dt_shift)``.

    The ratio is taken at the largest-amplitude sample and verified constant
    over all samples above the amplitude floor; a non-constant ratio means
    the state is not a Ux eigenvector and raises ValueError, and so does a
    phase float64 cannot resolve (see ``_measure``).
    """
    if state is None:
        state = electric_shifted(cfg, dt_shift)
    return complex(_measure(dx_shift, state, cfg, _n_real(dx_shift, dt_shift, cfg))[0])


@dataclass(frozen=True)
class QuantizationReport:
    dx: float
    dt: float
    electric: float
    charge: float
    n_real: float
    nearest: int
    is_quantized: bool
    tolerance: float
    voltage: float
    current: float
    resistance: float
    resistance_in_klitzing: float
    resistance_ohms: float | None = None


def _charge_squared(cfg: SystemConfig) -> float:
    """q^2 of the resistance unit h / q^2; a charge for which float64 cannot
    hold q^2 or h / q^2 raises ValueError."""
    q = cfg.charge   # an underflowed q^2 = 0 raises ZeroDivisionError
    return refuse_overflow(lambda: (q ** 2, cfg.units.h / q ** 2), lambda: (
        f"charge out of range: float64 cannot hold q^2 and h/q^2 at q = {q:.3g}"))[0]


def quantization_report(dx_shift: float, dt_shift: float, cfg: SystemConfig,
                        tol: float = 1e-8) -> QuantizationReport:
    """Quantization verdict for q E dx dt / (2 pi hbar) plus the electrical
    reading: V = E dx, I = q / dt, R = V / I in units of h / q^2.

    Raises ValueError where the tolerance reaches 1/2: every real number
    then lies within it of an integer, so no verdict can be given.  It also
    raises where V/I and (h/q^2) n_real, equal in exact arithmetic, differ
    by more than 4 ulp of R.  It is the one-point ``scan_quantization``, so
    it raises that point's reason ("undefined current" at dt = 0) and the
    scan's refusal of a tol outside (0, 0.5)."""
    (report,) = scan_quantization(dx_shift, [dt_shift], cfg, tol)
    if isinstance(report, str):
        raise ValueError(report)
    return report


def _quantization_report(dx_shift: float, dt_shift: float, cfg: SystemConfig, tol: float,
                         q2: float) -> QuantizationReport:
    """``quantization_report`` at a nonzero dt, with q^2 given."""
    q, E, h = cfg.charge, cfg.electric, cfg.units.h
    n_real = _n_real(dx_shift, dt_shift, cfg)
    tol_eff = tol * (1.0 + abs(n_real))  # condition of the phase grows with n
    if not tol_eff < 0.5:   # also a non-finite n_real
        raise ValueError(f"unresolvable: tolerance {tol_eff:.3g} at n_real {n_real:.6g} "
                         "admits every real number")
    nearest = round(n_real)
    voltage = E * dx_shift
    current = q / dt_shift
    resistance = voltage / current
    klitzing = resistance * q2 / h
    gap, budget = abs(resistance - (h / q2) * n_real), 4 * math.ulp(abs(resistance) + 1.0)
    if gap > budget:
        raise ValueError(f"unresolvable: V/I and (h/q^2) n_real differ by {gap:.3g} "
                         f"against a 4-ulp budget of {budget:.3g}")
    return QuantizationReport(
        dx=dx_shift, dt=dt_shift, electric=E, charge=q,
        n_real=n_real, nearest=nearest,
        is_quantized=abs(n_real - nearest) <= tol_eff,
        tolerance=tol_eff,
        voltage=voltage, current=current, resistance=resistance,
        resistance_in_klitzing=klitzing,
        resistance_ohms=resistance if cfg.units.kind == "si" else None)


def scan_quantization(dx_shift: float, dt_values, cfg: SystemConfig,
                      tol: float = 1e-8) -> list[QuantizationReport | str]:
    """Quantization reports over a dt scan.  A point without a verdict
    yields its reason instead: "undefined current" at dt = 0, or the
    unresolvable message of ``quantization_report``."""
    if not 0 < tol < 0.5:
        raise ValueError(f"quantization tolerance tol must lie in (0, 0.5), got {tol}")
    q2 = _charge_squared(cfg)   # every point needs it: refuse the scan, not each point
    out = []
    for dt_shift in dt_values:
        if dt_shift == 0:
            out.append("undefined current")
            continue
        try:
            out.append(_quantization_report(dx_shift, float(dt_shift), cfg, tol, q2))
        except ValueError as exc:
            out.append(str(exc))
    return out

