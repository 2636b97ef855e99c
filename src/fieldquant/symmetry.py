"""Symmetry unitaries of the two systems, the invariance phase they imprint,
and the resistance-quantization report.

The four transforms share one form: shift a coordinate s by delta and
multiply by exp(i rate delta w), a phase linear in a second coordinate w.
``UNITARY_TABLE`` holds (s, w) per kind, ``_phase`` the two rates, and both
closed-form solutions and grid fields are transformed from that one table:

    Ux: s = x, w = t, rate q E / hbar
    Uy: s = y, w = z, rate m wc / hbar
    Uz: s = z, no phase
    Ut: s = t, no phase   (solutions only; a bare grid field has no free t)

A state with a sharp conserved-momentum eigenvalue picks up the global
phase exp(i q E dx dt / hbar) under Ux; demanding invariance quantizes
q E dx dt / hbar in steps of 2 pi, which is resistance quantization in
units of h / q^2.  ``invariance_phases`` measures that phase over a dt scan
with dt as a leading array axis, PHASE_BATCH shifts per evaluation, bit for
bit equal to the one-point ``invariance_phase``.  It refuses a scan whose
sampled plane-wave phases float64 cannot resolve to a tenth of PHASE_TOL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SystemConfig, cyclotron_frequency
from .solutions import (AnalyticSolution, _plane_wave, _plane_wave_phase, electric_shifted,
                        landau_level, oscillator_scale, phi2_family_y, phi2_family_z)
from .grids import (Grid1D, Grid2D, WaveField, GridMismatchError, _spectral,
                    landau_grid, sample, residual_samples)

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
    axes = {"x": (0, f.grid)} if isinstance(f.grid, Grid1D) \
        else {"y": (0, f.grid.y), "z": (1, f.grid.z)}
    if shifted not in axes:
        raise GridMismatchError(f"grid {u.kind} needs a field with a {shifted} axis")
    axis, ag = axes[shifted]
    if ag.boundary != "periodic":
        raise GridMismatchError("grid unitaries need periodic axes")
    # exact roll when delta sits on the lattice, band-limited interpolation otherwise
    cells = u.delta / ag.dx
    if abs(cells - round(cells)) < 1e-9:
        out = np.roll(f.values, round(cells), axis=axis)
    else:
        out = _spectral(f.values, ag, lambda k: np.exp(-1j * k * u.delta), axis)
    if phased and u.compensating_phase:
        w = f.t if phased == "t" else np.expand_dims(axes[phased][1].x, 1 - axes[phased][0])
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
    lhs, _ = residual_samples(apply_unitary(u, solution, cfg), grid, t, h)
    if u.kind == "Ut":
        rhs, _ = residual_samples(solution, grid, t - u.delta, h)
        ref = sample(solution, grid, t)
    else:
        base, ref = residual_samples(solution, grid, t, h)
        rhs = _field_transform(u, WaveField(grid, base, t), cfg).values
    return float(np.linalg.norm(lhs - rhs) / np.linalg.norm(ref.values))


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


def _ux_samples(dx_shift: float, state: AnalyticSolution, cfg: SystemConfig, rows: int):
    """(Ux Psi, Psi) at the sample points, as (rows, samples) arrays; a
    state batched over a leading axis of length ``rows`` gives one row each."""
    transformed = apply_unitary(Unitary("Ux", dx_shift), state, cfg)
    points = _phase_sample_points(state, cfg)
    base = np.concatenate([np.asarray(state.fn(*p), dtype=complex).reshape(rows, -1)
                           for p in points], axis=1)
    shifted = np.concatenate([np.asarray(transformed.fn(*p), dtype=complex).reshape(rows, -1)
                              for p in points], axis=1)
    return shifted, base


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


def invariance_phases(dx_shift: float, dt_values, cfg: SystemConfig) -> np.ndarray:
    """Measured global phases (Ux Psi) / Psi of the time-shifted solutions
    ``electric_shifted(cfg, dt)``, one per dt.

    The dt shifts ride along as a leading array axis, PHASE_BATCH at a time,
    so a whole scan costs a few broadcast evaluations; every phase equals the
    one-point result bit for bit.  Before measuring a batch, its largest
    sampled plane-wave phase must have a float64 spacing within PHASE_TOL / 10;
    the first batch that float64 cannot resolve raises ValueError
    ("unresolvable"), and so does the first dt whose state is not a Ux
    eigenvector."""
    dt_arr = np.asarray(dt_values, dtype=float).ravel()
    n_real = _n_real(dx_shift, dt_arr, cfg)
    out = np.empty(dt_arr.size, dtype=complex)
    for lo in range(0, dt_arr.size, PHASE_BATCH):
        chunk = dt_arr[lo:lo + PHASE_BATCH]
        state = electric_shifted(cfg, chunk[:, None])
        # rounding the largest sampled phase (Psi at x, Ux Psi at x - dx) moves the
        # measured deviation at a hit by up to about one float64 spacing of it
        # (0.44-1.0 spacings measured from q = E = 10 to 1000)
        largest = max(float(np.abs(_plane_wave_phase(xs, t - state.time_origin, cfg)).max())
                      for x, t in _phase_sample_points(state, cfg) for xs in (x, x - dx_shift))
        if not math.ulp(largest) <= PHASE_TOL / 10:
            raise ValueError(f"unresolvable: the sampled phase reaches {largest:.3g} rad, whose "
                             f"float64 spacing {math.ulp(largest):.2g} is not well below "
                             f"the tolerance {PHASE_TOL:g}")
        shifted, base = _ux_samples(dx_shift, state, cfg, chunk.size)
        out[lo:lo + chunk.size] = _global_phases(shifted, base, n_real[lo:lo + chunk.size],
                                                 PHASE_TOL)
    return out


def invariance_phase(dx_shift: float, dt_shift: float, cfg: SystemConfig,
                     state: AnalyticSolution | None = None) -> complex:
    """Measured global phase (Ux Psi) / Psi of the time-shifted solution.

    The ratio is taken at the largest-amplitude sample and verified constant
    over all samples above the amplitude floor; a non-constant ratio means
    the state is not a Ux eigenvector and raises ValueError.  Without a
    ``state`` this is the one-point call of ``invariance_phases``.
    """
    if state is None:
        return complex(invariance_phases(dx_shift, [dt_shift], cfg)[0])
    shifted, base = _ux_samples(dx_shift, state, cfg, 1)
    return complex(_global_phases(shifted, base, _n_real(dx_shift, dt_shift, cfg),
                                  PHASE_TOL)[0])


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


def quantization_report(dx_shift: float, dt_shift: float, cfg: SystemConfig,
                        tol: float = 1e-8) -> QuantizationReport:
    """Quantization verdict for q E dx dt / (2 pi hbar) plus the electrical
    reading: V = E dx, I = q / dt, R = V / I in units of h / q^2.

    Raises ValueError where the tolerance reaches 1/2: every real number
    then lies within it of an integer, so no verdict can be given."""
    if dt_shift == 0:
        raise ValueError("undefined current: dt must be nonzero")
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
    klitzing = resistance * q ** 2 / h
    # consistency guard: V/I must equal (h/q^2) n_real identically
    if abs(resistance - (h / q ** 2) * n_real) > 4 * math.ulp(abs(resistance) + 1.0):
        raise AssertionError("resistance bookkeeping out of ulp budget")
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
    out = []
    for dt_shift in dt_values:
        if dt_shift == 0:
            out.append("undefined current")
            continue
        try:
            out.append(quantization_report(dx_shift, float(dt_shift), cfg, tol))
        except ValueError as exc:
            out.append(str(exc))
    return out


# --- the parallel-field superposition -------------------------------------------

MAX_SUPERPOSITION_N = 16


def build_parallel_superposition(a_coeffs, abar_coeffs, cfg: SystemConfig,
                                 grid: Grid2D | None = None) -> AnalyticSolution:
    """Closed-form superposition sum_n a_n Ut Ux Uy zeta_n
    + sum_n abar_n Ut Ux Uz zetabar_n, Gram-normalized on a transverse grid.

    zeta_n carries the unshifted oscillator along y; zetabar_n carries the
    gauge-twisted oscillator along z.  All components share the same
    plane-wave x factor, so the state is a sharp Ux eigenvector and its
    invariance phase is exp(i q E dx dt / hbar).
    """
    a_coeffs = np.asarray(a_coeffs, dtype=complex)
    abar_coeffs = np.asarray(abar_coeffs, dtype=complex)
    if a_coeffs.size > MAX_SUPERPOSITION_N or abar_coeffs.size > MAX_SUPERPOSITION_N:
        raise ValueError(f"at most {MAX_SUPERPOSITION_N} levels per family")
    if not np.any(a_coeffs) and not np.any(abar_coeffs):
        raise ValueError("empty superposition: all coefficients vanish")
    if not (np.all(np.isfinite(a_coeffs)) and np.all(np.isfinite(abar_coeffs))):
        raise ValueError("superposition coefficients must be finite")

    d = cfg.displacements
    hbar, q, E = cfg.hbar, cfg.charge, cfg.electric
    if grid is None:
        grid = landau_grid(cfg)
    ly, lz = grid.y.length, grid.z.length

    components = []   # (coefficient, energy, yz evaluator)
    for n, a_n in enumerate(a_coeffs):
        if a_n != 0:
            yz = lambda y, z, n=n: phi2_family_y(y, z, d.dy, n, cfg) / math.sqrt(lz)
            components.append((complex(a_n), landau_level(n, cfg), yz))
    for n, a_n in enumerate(abar_coeffs):
        if a_n != 0:
            yz = lambda y, z, n=n: phi2_family_z(y, z, d.dz, n, cfg) / math.sqrt(ly)
            components.append((complex(a_n), landau_level(n, cfg), yz))

    # Gram matrix of the transverse parts; different Landau levels are
    # orthogonal, so the time phases never enter the norm
    yy = grid.y.x[:, None]
    zz = grid.z.x[None, :]
    sampled = [fn(yy, zz) for (_, _, fn) in components]
    gram = np.array([[np.sum(np.conj(si) * sj) * grid.cell for sj in sampled]
                     for si in sampled])
    cvec = np.array([c for (c, _, _) in components])
    total = float(np.real(np.conj(cvec) @ gram @ cvec))
    if total <= 0:
        raise ValueError("superposition has vanishing norm")
    scale = 1.0 / math.sqrt(total)

    def evaluator(x, y, z, t):
        t_eff = np.asarray(t, dtype=float) - d.dt
        common = (np.exp(1j * q * E * t_eff * d.dx / hbar)
                  * _plane_wave(np.asarray(x) - d.dx, t_eff, cfg))
        acc = 0.0j
        for c, en, yz in components:
            acc = acc + c * np.exp(-1j * en * t_eff / hbar) * yz(y, z)
        return scale * common * acc

    return AnalyticSolution(
        family="parallel_superposition", ndim=3, fn=evaluator, cfg=cfg,
        shifts=(("dx", d.dx), ("dy", d.dy), ("dz", d.dz), ("dt", d.dt)),
        label="Gram-normalized two-family superposition",
        time_origin=d.dt)
