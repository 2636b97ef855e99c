"""Closed-form wavefunctions: the constant-force plane-wave family, its
degeneracy ladder and resummed superpositions, and the two displaced
oscillator families of the parallel-field system."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

import numpy as np

from .config import (MAX_LADDER_DEPTH, SystemConfig, cyclotron_frequency, refuse_overflow,
                     require_geometry)

MAX_OSCILLATOR_N = 64
LADDER_CACHE_SIZE = 256     # ladder polynomials kept across configs


# --- one-dimensional constant force ---------------------------------------

def phi_electric(x, t, cfg: SystemConfig):
    """Fundamental solution of the linear-potential problem:

        (1/sqrt(L)) * exp(-i q^2 E^2 t^3 / (6 m hbar) + i q E t x / hbar)

    Constant modulus in x; unit L2 norm over the box.
    """
    require_geometry(cfg, "electric_1d", "phi_electric")
    return plane_wave(x, t, cfg)


def _force_squared(q: float, E: float) -> float:
    """(q E)^2; a field whose square float64 cannot hold raises ValueError."""
    return refuse_overflow(lambda: (q * E) ** 2, lambda: (
        f"field too strong: (q E)^2 overflows float64 at q E = {q * E:.3g}"))


def plane_wave_phase(x, t, cfg: SystemConfig):
    """-(q E)^2 t^3 / (6 m hbar) + q E t x / hbar, the phase of phi_electric."""
    q, E, m, hbar = cfg.charge, cfg.electric, cfg.mass, cfg.hbar
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    return -_force_squared(q, E) * t ** 3 / (6.0 * m * hbar) + q * E * t * x / hbar


def plane_wave(x, t, cfg: SystemConfig):
    """phi_electric without the geometry guard: also the x factor of the
    parallel-field product solutions."""
    return (1.0 / math.sqrt(cfg.box_length)) * np.exp(1j * plane_wave_phase(x, t, cfg))


def psi_electric_shifted(x, t, dt_shift, cfg: SystemConfig):
    """Time-shifted solution phi(x, t - dt); a negative dt shifts to later times."""
    return phi_electric(x, np.asarray(t, dtype=float) - dt_shift, cfg)


# --- degeneracy ladder -----------------------------------------------------

@dataclass
class BivariatePoly:
    """Dense polynomial sum_{a,b} c[a,b] x^a t^b with complex coefficients."""

    coeffs: np.ndarray  # shape (deg_x + 1, deg_t + 1)

    def __post_init__(self):
        c = np.atleast_2d(np.asarray(self.coeffs, dtype=complex))
        while c.shape[0] > 1 and not c[-1].any():
            c = c[:-1]
        while c.shape[1] > 1 and not c[:, -1].any():
            c = c[:, :-1]
        self.coeffs = c

    def eval(self, x, t):
        """Horner evaluation, x-major: coefficients in t evaluated first."""
        x = np.asarray(x)
        t = np.asarray(t)
        rows = [np.polynomial.polynomial.polyval(t, row) for row in self.coeffs]
        out = np.zeros(np.broadcast(x, t).shape, dtype=complex) + rows[-1]
        for row in reversed(rows[:-1]):
            out = out * x + row
        return out


@lru_cache(maxsize=LADDER_CACHE_SIZE)
def _ladder_cache(j: int, hbar: float, m: float, q: float, E: float) -> BivariatePoly:
    if j == 0:
        return BivariatePoly(np.ones((1, 1)))
    p = _ladder_cache(j - 1, hbar, m, q, E).coeffs
    nx, nt = p.shape

    def recurse():
        out = np.zeros((nx + 1, nt + 2), dtype=complex)
        out[:nx, 2:] += (_force_squared(q, E) / (2.0 * m)) * p    # (q E)^2 t^2 / 2m
        out[1:, :nt] += (-q * E) * p                               # - q E x
        out[:nx, :nt - 1] += (p[:, 1:] * np.arange(1, nt)) * (1j * hbar)   # i hbar d/dt
        return out
    # P_{j-1} is finite, or its own call would have raised
    return BivariatePoly(refuse_overflow(recurse, lambda: (
        f"ladder order {j} has non-finite coefficients at q E = {q * E:.3g}; "
        "float64 cannot hold this order of the ladder")))


def degeneracy_polynomial(j: int, cfg: SystemConfig) -> BivariatePoly:
    """P_j with E^j phi = P_j(x, t) phi, from the recursion

        P_0 = 1,  P_{j+1} = i hbar dP_j/dt + (q^2 E^2 t^2 / 2m - q E x) P_j.
    """
    if not 0 <= j <= MAX_LADDER_DEPTH:
        raise ValueError(f"ladder order {j} lies outside 0..{MAX_LADDER_DEPTH}")
    return _ladder_cache(j, cfg.hbar, cfg.mass, cfg.charge, cfg.electric)


def ladder_state(x, t, j: int, cfg: SystemConfig):
    """E^j phi evaluated pointwise: P_j(x, t) * phi(x, t)."""
    return degeneracy_polynomial(j, cfg).eval(x, t) * phi_electric(x, t, cfg)


def _taylor_coefficient(j: int, dt_shift: float, cfg: SystemConfig) -> complex:
    # c_j = (i * dt / hbar)^j / j!, computed in log space so J up to 64 cannot overflow
    # refused here: math.exp(inf) returns inf instead of raising
    arg = refuse_overflow(lambda: dt_shift / cfg.hbar, lambda: (
        f"dt / hbar overflows float64 at dt = {dt_shift} and hbar = {cfg.hbar:.3g}"))
    if arg == 0.0:
        return 1.0 + 0.0j if j == 0 else 0.0j
    log_mag = j * math.log(abs(arg)) - math.lgamma(j + 1)
    phase = (1j ** (j % 4)) * ((1.0 if arg > 0 else -1.0) ** j)
    return refuse_overflow(lambda: math.exp(log_mag) * phase, lambda: (
        f"Taylor coefficient c_{j} at dt = {dt_shift} overflows float64"))


def superposition_taylor(x, t, dt_shift, J: int, cfg: SystemConfig):
    """Partial resummation sum_{j<=J} c_j P_j(x,t) phi(x,t); converges to
    psi_electric_shifted(x, t, dt_shift) as J grows.

    J shares the ladder's order cap, MAX_LADDER_DEPTH; the log-space
    coefficients keep every J up to it overflow-free.
    """
    if not 0 <= J <= MAX_LADDER_DEPTH:
        raise ValueError(f"superposition order must lie in 0..{MAX_LADDER_DEPTH}")
    coefficients = [_taylor_coefficient(j, dt_shift, cfg) for j in range(J + 1)]
    return superposition_with_coefficients(x, t, coefficients, cfg)


def superposition_with_coefficients(x, t, coefficients, cfg: SystemConfig):
    """sum_j coefficients[j] * E^j phi for arbitrary finite coefficient
    vectors.  No convergence or symmetry claims are attached to this."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    acc = np.zeros(np.broadcast(x, t).shape, dtype=complex)
    for j, cj in enumerate(coefficients):
        if cj != 0:
            acc = acc + cj * degeneracy_polynomial(j, cfg).eval(x, t)
    return acc * phi_electric(x, t, cfg)


# --- oscillator machinery ---------------------------------------------------

def hermite_poly(n: int, xi):
    """Physicists' Hermite polynomial by the three-term recurrence."""
    if n > MAX_OSCILLATOR_N:
        raise ValueError(f"Hermite order {n} exceeds overflow guard {MAX_OSCILLATOR_N}")
    if n < 0:
        raise ValueError("Hermite order must be nonnegative")
    xi = np.asarray(xi, dtype=float)
    h_prev = np.ones_like(xi)
    if n == 0:
        return h_prev
    h = 2.0 * xi
    for k in range(1, n):
        h, h_prev = 2.0 * xi * h - 2.0 * k * h_prev, h
    return h


def oscillator_eigenfunction(n: int, xi, cfg: SystemConfig):
    """Normalized oscillator eigenfunction of the dimensionless coordinate:

        (2^n n!)^(-1/2) (m |wc| / pi hbar)^(1/4) exp(-xi^2 / 2) H_n(xi)
    """
    wc = abs(cyclotron_frequency(cfg))
    xi = np.asarray(xi, dtype=float)
    # prefactor in log space: 2^n n! overflows float64 near n = 60
    log_norm = -0.5 * (n * math.log(2.0) + math.lgamma(n + 1))
    prefactor = math.exp(log_norm) * (cfg.mass * wc / (math.pi * cfg.hbar)) ** 0.25
    return prefactor * np.exp(-0.5 * xi ** 2) * hermite_poly(n, xi)


def landau_level(n: int, cfg: SystemConfig) -> float:
    """E_n = hbar |wc| (n + 1/2), for either sign of the charge."""
    require_geometry(cfg, "parallel_eb", "landau_level")
    if n < 0:
        raise ValueError(f"oscillator index n must be nonnegative, got {n}")
    return cfg.hbar * abs(cyclotron_frequency(cfg)) * (n + 0.5)


def oscillator_scale(cfg: SystemConfig) -> float:
    """sqrt(m |wc| / hbar), the inverse oscillator length."""
    return math.sqrt(cfg.mass * abs(cyclotron_frequency(cfg)) / cfg.hbar)


def _oscillator_k(n: int, alpha: float) -> float:
    # wavenumber bound of phi_n(alpha u): its turning-point wavenumber
    # alpha sqrt(2n + 1) plus a margin of 3 alpha
    return alpha * math.sqrt(2.0 * n + 1.0) + 3.0 * alpha


# --- parallel-field stationary families -------------------------------------

def phi2_family_y(y, z, dy_shift, n: int, cfg: SystemConfig):
    """Displaced-oscillator solution from the pz eigenvalue route:

        exp(i m wc z dy / hbar) * phi_n(sqrt(m wc / hbar) (y - dy))
    """
    require_geometry(cfg, "parallel_eb", "phi2_family_y")
    wc = cyclotron_frequency(cfg)
    alpha = oscillator_scale(cfg)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    phase = cfg.mass * wc * z * dy_shift / cfg.hbar
    return np.exp(1j * phase) * oscillator_eigenfunction(n, alpha * (y - dy_shift), cfg)


def phi2_family_z(y, z, dz_shift, n: int, cfg: SystemConfig):
    """Non-separable second family, from the (py - m wc z) eigenvalue route:

        exp(i m wc y (z - dz) / hbar) * phi_n(sqrt(m wc / hbar) (z - dz))

    Under (py - m wc z) this closed form carries eigenvalue -m wc dz; the
    sign convention is immaterial, like the sign of the time displacement.
    """
    require_geometry(cfg, "parallel_eb", "phi2_family_z")
    wc = cyclotron_frequency(cfg)
    alpha = oscillator_scale(cfg)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    phase = cfg.mass * wc * y * (z - dz_shift) / cfg.hbar
    return np.exp(1j * phase) * oscillator_eigenfunction(n, alpha * (z - dz_shift), cfg)


# --- solution objects --------------------------------------------------------

@dataclass(frozen=True)
class AnalyticSolution:
    """A closed-form wavefunction with evaluation metadata.

    ``fn`` takes (x, t) for 1D, (y, z, t) for 2D and (x, y, z, t) for the
    full parallel products; all accept numpy arrays.  ``kmax`` holds the
    largest spatial wavenumber carried per axis, the same at every t, for
    sampling safety checks; an electric solution's bound grows with t,
    q E (t - time_origin) / hbar, and is formed where it is checked.
    """

    family: str
    ndim: int
    fn: Callable
    cfg: SystemConfig
    n: int | None = None
    shifts: tuple = ()
    kmax: tuple = ()
    label: str = ""
    time_origin: float = 0.0  # t at which an electric solution's wavenumber vanishes


def electric_fundamental(cfg: SystemConfig) -> AnalyticSolution:
    return AnalyticSolution(
        family="electric_1d_fundamental", ndim=1,
        fn=lambda x, t: phi_electric(x, t, cfg), cfg=cfg, label="phi(x,t)")


def electric_shifted(cfg: SystemConfig, dt_shift) -> AnalyticSolution:
    return AnalyticSolution(
        family="electric_1d_shifted", ndim=1,
        fn=lambda x, t: psi_electric_shifted(x, t, dt_shift, cfg), cfg=cfg,
        shifts=(("dt", dt_shift),),
        # a dt array (one state per row) is not printed: formatting it costs
        # more than evaluating the batch
        label="psi(x,t)=phi(x,t-dt), dt=" + (str(dt_shift) if np.ndim(dt_shift) == 0
                                             else f"<{np.size(dt_shift)} values>"),
        time_origin=dt_shift)


def electric_ladder(cfg: SystemConfig, j: int) -> AnalyticSolution:
    degeneracy_polynomial(j, cfg)   # a bad order is refused when built, not when sampled
    return AnalyticSolution(
        family="electric_1d_ladder", ndim=1,
        fn=lambda x, t: ladder_state(x, t, j, cfg), cfg=cfg, n=j, label=f"E^{j} phi")


def electric_taylor(cfg: SystemConfig, dt_shift: float, J: int) -> AnalyticSolution:
    return AnalyticSolution(
        family="electric_1d_taylor", ndim=1,
        fn=lambda x, t: superposition_taylor(x, t, dt_shift, J, cfg), cfg=cfg,
        shifts=(("dt", dt_shift),),
        label=f"sum_j<={J} c_j E^j phi, dt={dt_shift}")


def oscillator_1d(cfg: SystemConfig, n: int) -> AnalyticSolution:
    """Stationary oscillator profile on one axis; used for norm and
    orthogonality checks, not a solution of the 1D electric problem."""
    alpha = oscillator_scale(cfg)
    en = landau_level(n, cfg)

    def fn(x, t):
        # unit L2 norm in x: the (m wc / pi hbar)^(1/4) prefactor absorbs alpha
        t = np.asarray(t, dtype=float)
        return oscillator_eigenfunction(n, alpha * np.asarray(x), cfg) * np.exp(-1j * en * t / cfg.hbar)

    return AnalyticSolution(
        family="oscillator_1d", ndim=1, fn=fn, cfg=cfg, n=n,
        kmax=(_oscillator_k(n, alpha),), label=f"oscillator n={n}")


def parallel_family(cfg: SystemConfig, family: str, n: int, shift: float = 0.0,
                    box: float | None = None) -> AnalyticSolution:
    """Time-dependent solution exp(-i E_n t / hbar) phi2(y, z) of the
    transverse problem, box normalized along the free axis when its length
    ``box`` is supplied.

    ``family`` is "family_y" (``shift`` is dy, the box runs along z) or
    "family_z" (``shift`` is dz, the box runs along y).  Family z carries a
    y wavenumber that grows with |z - dz|, so its sampling bound uses the
    state's z extent.
    """
    en = landau_level(n, cfg)
    wc = cyclotron_frequency(cfg)
    alpha = oscillator_scale(cfg)
    amp = 1.0 / math.sqrt(box) if box else 1.0
    k_osc = _oscillator_k(n, alpha)
    if family == "family_y":
        phi2, axis = phi2_family_y, "y"
        bound = (k_osc, abs(cfg.mass * wc * shift / cfg.hbar))
    elif family == "family_z":
        phi2, axis = phi2_family_z, "z"
        # amplitude-weighted extent: beyond it the Gaussian factor is < ~1e-6
        span = (math.sqrt(2.0 * n + 1.0) + 5.0) / alpha
        bound = (cfg.mass * abs(wc) * (abs(shift) + span) / cfg.hbar, k_osc)
    else:
        raise ValueError(f"unknown parallel solution family {family!r}")

    def fn(y, z, t):
        t = np.asarray(t, dtype=float)
        return amp * np.exp(-1j * en * t / cfg.hbar) * phi2(y, z, shift, n, cfg)

    return AnalyticSolution(
        family=f"parallel_{family}", ndim=2, fn=fn, cfg=cfg, n=n,
        shifts=((f"d{axis}", shift),), kmax=bound,
        label=f"family-{axis} n={n}, d{axis}={shift}")


def parallel_product(cfg: SystemConfig, family: str, n: int, shift: float = 0.0,
                     box: float | None = None) -> AnalyticSolution:
    """Solution phi1(x, t) exp(-i E_n t / hbar) phi2(y, z) of the full
    parallel-field problem, of (x, y, z, t): the plane wave along x times
    ``parallel_family(cfg, family, n, shift, box)``, whose metadata it keeps.
    Ux moves only the plane-wave factor, so the product carries the 1D
    system's invariance phase."""
    transverse = parallel_family(cfg, family, n, shift, box)
    return replace(transverse, ndim=3,
                   fn=lambda x, y, z, t: plane_wave(x, t, cfg) * transverse.fn(y, z, t))
