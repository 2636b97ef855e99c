"""Closed-form wavefunctions: the constant-force plane-wave family, its
degeneracy ladder and resummed superpositions, and the two displaced
oscillator families of the parallel-field system."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .config import MAX_LADDER_DEPTH, SystemConfig, ConfigError, cyclotron_frequency

MAX_OSCILLATOR_N = 64
LADDER_CACHE_SIZE = 256     # ladder polynomials kept across configs


def _eigen_sign(cfg: SystemConfig) -> float:
    # "minus" convention shifts t -> t - dt, "plus" shifts t -> t + dt
    return 1.0 if cfg.displacements.eigen_sign == "minus" else -1.0


# --- one-dimensional constant force ---------------------------------------

def _box_amplitude(cfg: SystemConfig) -> float:
    L = cfg.box_length
    return 1.0 / math.sqrt(L) if cfg.plane_wave_norm == "sqrt_box" else 1.0 / L


def phi_electric(x, t, cfg: SystemConfig):
    """Fundamental solution of the linear-potential problem:

        (1/sqrt(L)) * exp(-i q^2 E^2 t^3 / (6 m hbar) + i q E t x / hbar)

    Constant modulus in x; unit L2 norm over the box with the default
    normalization convention.
    """
    if cfg.geometry != "electric_1d":
        raise ConfigError("geometry", "phi_electric requires geometry electric_1d")
    return _plane_wave(x, t, cfg)


def _force_squared(q: float, E: float) -> float:
    """(q E)^2; a field whose square float64 cannot hold raises ValueError."""
    try:
        out = (q * E) ** 2
    except OverflowError:
        out = math.inf
    if out == math.inf:
        raise ValueError(f"field too strong: (q E)^2 overflows float64 at q E = {q * E:.3g}")
    return out


def _plane_wave_phase(x, t, cfg: SystemConfig):
    """-(q E)^2 t^3 / (6 m hbar) + q E t x / hbar, the phase of phi_electric."""
    q, E, m, hbar = cfg.charge, cfg.electric, cfg.mass, cfg.hbar
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    return -_force_squared(q, E) * t ** 3 / (6.0 * m * hbar) + q * E * t * x / hbar


def _plane_wave(x, t, cfg: SystemConfig):
    # phi_electric without the geometry guard: also the x factor of the
    # parallel-field product solutions
    return _box_amplitude(cfg) * np.exp(1j * _plane_wave_phase(x, t, cfg))


def psi_electric_shifted(x, t, dt_shift, cfg: SystemConfig):
    """Time-shifted solution phi(x, t - dt) (sign set by eigen_sign)."""
    return phi_electric(x, np.asarray(t, dtype=float) - _eigen_sign(cfg) * dt_shift, cfg)


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

    @property
    def degree_x(self) -> int:
        return self.coeffs.shape[0] - 1

    def eval(self, x, t):
        """Horner evaluation, x-major: coefficients in t evaluated first."""
        x = np.asarray(x)
        t = np.asarray(t)
        rows = [np.polynomial.polynomial.polyval(t, row) for row in self.coeffs]
        out = np.zeros(np.broadcast(x, t).shape, dtype=complex) + rows[-1]
        for row in reversed(rows[:-1]):
            out = out * x + row
        return out

    def deriv_x(self) -> "BivariatePoly":
        if self.degree_x == 0:
            return BivariatePoly(np.zeros((1, 1)))
        a = np.arange(1, self.degree_x + 1)
        return BivariatePoly(self.coeffs[1:, :] * a[:, None])


@lru_cache(maxsize=LADDER_CACHE_SIZE)
def _ladder_cache(j: int, hbar: float, m: float, q: float, E: float) -> BivariatePoly:
    if j == 0:
        return BivariatePoly(np.ones((1, 1)))
    p = _ladder_cache(j - 1, hbar, m, q, E).coeffs
    nx, nt = p.shape
    out = np.zeros((nx + 1, nt + 2), dtype=complex)
    out[:nx, 2:] += (_force_squared(q, E) / (2.0 * m)) * p    # (q E)^2 t^2 / 2m
    out[1:, :nt] += (-q * E) * p                               # - q E x
    out[:nx, :nt - 1] += (p[:, 1:] * np.arange(1, nt)) * (1j * hbar)   # i hbar d/dt
    return BivariatePoly(out)


def degeneracy_polynomial(j: int, cfg: SystemConfig) -> BivariatePoly:
    """P_j with E^j phi = P_j(x, t) phi, from the recursion

        P_0 = 1,  P_{j+1} = i hbar dP_j/dt + (q^2 E^2 t^2 / 2m - q E x) P_j.
    """
    if not 0 <= j <= cfg.ladder_depth:
        raise ValueError(f"ladder order {j} lies outside 0..{cfg.ladder_depth}, "
                         "the configured depth")
    return _ladder_cache(j, cfg.hbar, cfg.mass, cfg.charge, cfg.electric)


def ladder_state(x, t, j: int, cfg: SystemConfig):
    """E^j phi evaluated pointwise: P_j(x, t) * phi(x, t)."""
    return degeneracy_polynomial(j, cfg).eval(x, t) * phi_electric(x, t, cfg)


def _taylor_coefficient(j: int, dt_shift: float, cfg: SystemConfig) -> complex:
    # c_j = (i * s * dt / hbar)^j / j!, computed in log space so J up to 64
    # cannot overflow; s is the eigen_sign convention.
    s = _eigen_sign(cfg)
    arg = s * dt_shift / cfg.hbar
    if arg == 0.0:
        return 1.0 + 0.0j if j == 0 else 0.0j
    log_mag = j * math.log(abs(arg)) - math.lgamma(j + 1)
    phase = (1j ** (j % 4)) * ((1.0 if arg > 0 else -1.0) ** j)
    try:
        return math.exp(log_mag) * phase
    except OverflowError:
        raise ValueError(f"Taylor coefficient c_{j} at dt = {dt_shift} overflows float64") from None


def superposition_taylor(x, t, dt_shift, J: int, cfg: SystemConfig):
    """Partial resummation sum_{j<=J} c_j P_j(x,t) phi(x,t); converges to
    psi_electric_shifted(x, t, dt_shift) as J grows.

    The truncation order is independent of the symbolic ladder-depth cap
    (the numeric polynomial table grows mildly); the log-space coefficients
    keep J up to 64 overflow-free.
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
            acc = acc + cj * _ladder_cache(j, cfg.hbar, cfg.mass, cfg.charge,
                                           cfg.electric).eval(x, t)
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
    if cfg.geometry != "parallel_eb":
        raise ConfigError("geometry", "landau_level requires geometry parallel_eb")
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
    if cfg.geometry != "parallel_eb":
        raise ConfigError("geometry", "phi2_family_y requires geometry parallel_eb")
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
    if cfg.geometry != "parallel_eb":
        raise ConfigError("geometry", "phi2_family_z requires geometry parallel_eb")
    wc = cyclotron_frequency(cfg)
    alpha = oscillator_scale(cfg)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    phase = cfg.mass * wc * y * (z - dz_shift) / cfg.hbar
    return np.exp(1j * phase) * oscillator_eigenfunction(n, alpha * (z - dz_shift), cfg)


def full_parallel_solution(x, y, z, t, family: str, n: int, cfg: SystemConfig,
                           dy_shift: float = 0.0, dz_shift: float = 0.0):
    """Product solution phi1(x, t) * exp(-i E_n t / hbar) * phi2(y, z)."""
    shift = dy_shift if family == "family_y" else dz_shift
    return _plane_wave(x, t, cfg) * parallel_family(cfg, family, n, shift).fn(y, z, t)


# --- solution objects --------------------------------------------------------

@dataclass(frozen=True)
class AnalyticSolution:
    """A closed-form wavefunction with evaluation metadata.

    ``fn`` takes (x, t) for 1D, (y, z, t) for 2D and (x, y, z, t) for the
    full parallel products; all accept numpy arrays.  ``kmax`` maps a time
    to the largest spatial wavenumber carried per axis, used for sampling
    safety checks.  ``dfdx`` is the analytic x-derivative when known.
    """

    family: str
    ndim: int
    fn: Callable
    cfg: SystemConfig
    n: int | None = None
    shifts: tuple = ()
    kmax: Callable[[float], tuple] | None = None
    dfdx: Callable | None = None
    label: str = ""
    time_origin: float = 0.0  # t at which a time-growing wavenumber vanishes

    def __call__(self, *args):
        return self.fn(*args)


def _electric_kmax(cfg: SystemConfig, time_shift: float = 0.0):
    q, E, hbar = cfg.charge, cfg.electric, cfg.hbar
    return lambda t: (abs(q * E * (t - time_shift) / hbar),)


def electric_fundamental(cfg: SystemConfig) -> AnalyticSolution:
    return AnalyticSolution(
        family="electric_1d_fundamental", ndim=1,
        fn=lambda x, t: phi_electric(x, t, cfg), cfg=cfg,
        kmax=_electric_kmax(cfg),
        dfdx=lambda x, t: (1j * cfg.charge * cfg.electric * np.asarray(t) / cfg.hbar)
        * phi_electric(x, t, cfg),
        label="phi(x,t)")


def electric_shifted(cfg: SystemConfig, dt_shift) -> AnalyticSolution:
    s = _eigen_sign(cfg)
    return AnalyticSolution(
        family="electric_1d_shifted", ndim=1,
        fn=lambda x, t: psi_electric_shifted(x, t, dt_shift, cfg), cfg=cfg,
        shifts=(("dt", dt_shift),),
        kmax=_electric_kmax(cfg, s * dt_shift),
        dfdx=lambda x, t: (1j * cfg.charge * cfg.electric
                           * (np.asarray(t) - s * dt_shift) / cfg.hbar)
        * psi_electric_shifted(x, t, dt_shift, cfg),
        # a dt array (one state per row) is not printed: formatting it costs
        # more than evaluating the batch
        label="psi(x,t)=phi(x,t-dt), dt=" + (str(dt_shift) if np.ndim(dt_shift) == 0
                                             else f"<{np.size(dt_shift)} values>"),
        time_origin=s * dt_shift)


def electric_ladder(cfg: SystemConfig, j: int) -> AnalyticSolution:
    poly = degeneracy_polynomial(j, cfg)
    dpoly = poly.deriv_x()

    def dfdx(x, t):
        base = phi_electric(x, t, cfg)
        kx = 1j * cfg.charge * cfg.electric * np.asarray(t) / cfg.hbar
        return (dpoly.eval(x, t) + poly.eval(x, t) * kx) * base

    return AnalyticSolution(
        family="electric_1d_ladder", ndim=1,
        fn=lambda x, t: ladder_state(x, t, j, cfg), cfg=cfg, n=j,
        kmax=_electric_kmax(cfg), dfdx=dfdx,
        label=f"E^{j} phi")


def electric_taylor(cfg: SystemConfig, dt_shift: float, J: int) -> AnalyticSolution:
    return AnalyticSolution(
        family="electric_1d_taylor", ndim=1,
        fn=lambda x, t: superposition_taylor(x, t, dt_shift, J, cfg), cfg=cfg,
        shifts=(("dt", dt_shift),), kmax=_electric_kmax(cfg),
        label=f"sum_j<={J} c_j E^j phi, dt={dt_shift}")


def oscillator_1d(cfg: SystemConfig, n: int) -> AnalyticSolution:
    """Stationary oscillator profile on one axis; used for norm and
    orthogonality checks, not a solution of the 1D electric problem."""
    alpha = oscillator_scale(cfg)
    en = landau_level(n, cfg)
    kline = _oscillator_k(n, alpha)

    def fn(x, t):
        # unit L2 norm in x: the (m wc / pi hbar)^(1/4) prefactor absorbs alpha
        t = np.asarray(t, dtype=float)
        return oscillator_eigenfunction(n, alpha * np.asarray(x), cfg) * np.exp(-1j * en * t / cfg.hbar)

    return AnalyticSolution(
        family="oscillator_1d", ndim=1, fn=fn, cfg=cfg, n=n,
        kmax=lambda t: (kline,), label=f"oscillator n={n}")


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
        shifts=((f"d{axis}", shift),), kmax=lambda t: bound,
        label=f"family-{axis} n={n}, d{axis}={shift}")
