"""Closed-form solutions checked against independent oracles: brute-force
Hermite sums, quadrature, finite differences, and Taylor remainders."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from fieldquant import solutions as S
from fieldquant.config import build_config, cyclotron_frequency, natural_config

CFG = natural_config(L=8.0)
CFG_PAR = natural_config(B=1.0, geometry="parallel_eb", L=8.0)


# --- Hermite and oscillator ----------------------------------------------------

def hermite_brute_force(n, xi):
    """Explicit sum H_n(xi) = n! sum_m (-1)^m (2 xi)^(n-2m) / (m! (n-2m)!)."""
    total = np.zeros_like(np.asarray(xi, dtype=float))
    for m in range(n // 2 + 1):
        total = total + ((-1) ** m / (math.factorial(m) * math.factorial(n - 2 * m))
                         * (2.0 * np.asarray(xi)) ** (n - 2 * m))
    return math.factorial(n) * total


def test_hermite_low_orders():
    xi = np.linspace(-3, 3, 13)
    assert np.all(S.hermite_poly(0, xi) == 1.0)
    assert np.allclose(S.hermite_poly(1, xi), 2.0 * xi)
    assert S.hermite_poly(2, 2.0) == pytest.approx(14.0)  # 4 xi^2 - 2 at xi = 2


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8, 12])
def test_hermite_matches_brute_force(n):
    xi = np.linspace(-2.5, 2.5, 11)
    assert np.allclose(S.hermite_poly(n, xi), hermite_brute_force(n, xi), rtol=1e-12)


def test_hermite_overflow_guard():
    S.hermite_poly(64, 0.5)
    with pytest.raises(ValueError, match="overflow guard"):
        S.hermite_poly(65, 0.5)
    with pytest.raises(ValueError):
        S.hermite_poly(-1, 0.5)


def test_oscillator_peak_value():
    assert S.oscillator_eigenfunction(0, 0.0, CFG_PAR) == pytest.approx(math.pi ** -0.25)


@pytest.mark.parametrize("n", range(6))
def test_oscillator_normalization_by_quadrature(n):
    # natural units, wc = 1: int |phi_n(xi)|^2 dxi = 1
    xi = np.linspace(-14.0, 14.0, 5601)
    vals = S.oscillator_eigenfunction(n, xi, CFG_PAR)
    integral = np.sum(vals ** 2) * (xi[1] - xi[0])
    assert integral == pytest.approx(1.0, abs=1e-8)


def _oscillator_ode_residual(profile, xi, n):
    """Finite-difference residual of -phi''/2 + xi^2 phi / 2 - (n + 1/2) phi."""
    h = xi[1] - xi[0]
    lap = (profile[2:] - 2.0 * profile[1:-1] + profile[:-2]) / h ** 2
    r = -0.5 * lap + 0.5 * xi[1:-1] ** 2 * profile[1:-1] - (n + 0.5) * profile[1:-1]
    return np.max(np.abs(r)) / np.max(np.abs(profile))


@pytest.mark.parametrize("n", [0, 1, 3])
def test_oscillator_satisfies_displaced_oscillator_ode(n):
    xi = np.linspace(-8.0, 8.0, 4001)
    good = S.oscillator_eigenfunction(n, xi, CFG_PAR)
    assert _oscillator_ode_residual(good, xi, n) < 1e-4
    # the same profile with a full exp(-xi^2) Gaussian is NOT an eigenfunction
    bad = good * np.exp(-0.5 * xi ** 2)
    assert _oscillator_ode_residual(bad / np.max(np.abs(bad)), xi, n) > 1e-1


def test_landau_levels():
    assert S.landau_level(0, CFG_PAR) == pytest.approx(0.5)
    assert S.landau_level(3, CFG_PAR) == pytest.approx(3.5)
    gaps = [S.landau_level(n + 1, CFG_PAR) - S.landau_level(n, CFG_PAR) for n in range(6)]
    assert np.allclose(gaps, 1.0)
    with pytest.raises(Exception):
        S.landau_level(0, CFG)


@pytest.mark.parametrize("q", [1.0, -1.0, -1.5])
def test_oscillator_quantities_use_the_cyclotron_magnitude(q):
    # q = -1 is the electron: levels hbar |wc| (n + 1/2), a real oscillator
    # scale and a positive Nyquist bound for the family-z y wavenumber
    cfg = natural_config(m=2.0, q=q, B=0.7, geometry="parallel_eb", L=8.0)
    wc = abs(q) * 0.7 / 2.0
    for n in range(5):
        assert S.landau_level(n, cfg) == pytest.approx(wc * (n + 0.5), rel=1e-15)
    assert S.oscillator_scale(cfg) == pytest.approx(math.sqrt(2.0 * wc), rel=1e-15)
    assert S.parallel_family(cfg, "family_z", 1, 0.5).kmax(0.0)[0] > 0
    xi = np.linspace(-8.0, 8.0, 2001)
    norm = np.sum(S.oscillator_eigenfunction(2, xi, cfg) ** 2) * (xi[1] - xi[0])
    assert norm == pytest.approx(math.sqrt(2.0 * wc), rel=1e-12)


# --- electric-field solution ------------------------------------------------------

def test_phi_electric_at_t0():
    x = np.linspace(-4, 4, 17)
    vals = S.phi_electric(x, 0.0, CFG)
    assert np.allclose(vals, 1.0 / math.sqrt(8.0))
    assert np.all(vals.imag == 0.0)


def test_phi_electric_pure_phase_at_x0():
    ts = np.linspace(0.0, 2.0, 9)
    vals = S.phi_electric(0.0, ts, CFG)
    assert np.allclose(np.abs(vals), 1.0 / math.sqrt(8.0))


def test_phi_electric_unit_box_value():
    cfg = natural_config(L=1.0)
    # exp(i (q E t x / hbar - q^2 E^2 t^3 / 6 m hbar)) = exp(i (1 - 1/6)) at x = t = 1
    assert S.phi_electric(1.0, 1.0, cfg) == pytest.approx(cmath.exp(1j * 5.0 / 6.0))


def test_plane_wave_norm_convention_switch():
    cfg_box = build_config({"m": 1, "q": 1, "E": 1, "L": 4.0, "plane_wave_norm": "box"})
    assert S.phi_electric(0.0, 0.0, cfg_box) == pytest.approx(0.25)
    cfg_sqrt = build_config({"m": 1, "q": 1, "E": 1, "L": 4.0})
    assert S.phi_electric(0.0, 0.0, cfg_sqrt) == pytest.approx(0.5)


def test_shifted_solution_is_time_translate():
    x = np.linspace(-3, 3, 7)
    assert np.allclose(S.psi_electric_shifted(x, 1.0, 0.0, CFG), S.phi_electric(x, 1.0, CFG))
    assert np.allclose(S.psi_electric_shifted(x, 0.3, 0.3, CFG), 1.0 / math.sqrt(8.0))
    assert S.psi_electric_shifted(2.0, 1.0, 0.3, CFG) == pytest.approx(
        S.phi_electric(2.0, 0.7, CFG))


def test_eigen_sign_flips_shift_direction():
    cfg_plus = build_config({"m": 1, "q": 1, "E": 1, "L": 8.0, "eigen_sign": "plus"})
    assert S.psi_electric_shifted(2.0, 1.0, 0.3, cfg_plus) == pytest.approx(
        S.phi_electric(2.0, 1.3, cfg_plus))


# --- degeneracy ladder -----------------------------------------------------------------

def test_ladder_polynomial_base_cases():
    p0 = S.degeneracy_polynomial(0, CFG)
    assert p0.degree_x == 0 and p0.coeffs[0, 0] == 1.0

    p1 = S.degeneracy_polynomial(1, CFG)
    x, t = 0.7, 1.3
    assert p1.eval(x, t) == pytest.approx(t ** 2 / 2.0 - x)
    assert p1.degree_x == 1

    p2 = S.degeneracy_polynomial(2, CFG)
    expected = 1j * t + (t ** 2 / 2.0 - x) ** 2
    assert p2.eval(x, t) == pytest.approx(expected)
    assert p2.degree_x == 2


def exact_ladder(j_max, hbar, m, q, E):
    """P_0..P_{j_max} from the recursion in exact arithmetic: a dict
    (a, b) -> (Re, Im) of Fractions for the coefficient of x^a t^b."""
    hbar, m, q, E = (Fraction(v) for v in (hbar, m, q, E))
    zero = (Fraction(0), Fraction(0))
    g = q * q * E * E / (2 * m)
    polys = [{(0, 0): (Fraction(1), Fraction(0))}]
    for _ in range(j_max):
        nxt = {}

        def add(key, re, im):
            r0, i0 = nxt.get(key, zero)
            nxt[key] = (r0 + re, i0 + im)

        for (a, b), (re, im) in polys[-1].items():
            if b:                      # i hbar dP/dt
                add((a, b - 1), -hbar * b * im, hbar * b * re)
            add((a, b + 2), g * re, g * im)   # (q E)^2 t^2 / 2m
            add((a + 1, b), -q * E * re, -q * E * im)   # - q E x
        polys.append(nxt)
    return polys


@pytest.mark.parametrize("q", [1.0, -1.0])
def test_ladder_coefficients_equal_exact_recursion(q):
    """Every coefficient of P_j, j <= 16, is a float64 dyadic at these
    parameters, so the float recursion must reproduce it bit for bit."""
    cfg = natural_config(q=q, ladder_depth=16)
    for j, exact in enumerate(exact_ladder(16, 1.0, 1.0, q, 1.0)):
        shape = (max(a for a, _ in exact) + 1, max(b for _, b in exact) + 1)
        want = np.zeros(shape, dtype=complex)
        for (a, b), (re, im) in exact.items():
            assert Fraction(float(re)) == re and Fraction(float(im)) == im
            want[a, b] = complex(float(re), float(im))
        got = S.degeneracy_polynomial(j, cfg).coeffs
        assert got.shape == want.shape, j
        assert np.array_equal(got, want), j


@pytest.mark.parametrize("j", range(1, 7))
def test_ladder_degree_grows_linearly(j):
    assert S.degeneracy_polynomial(j, CFG).degree_x == j


def test_ladder_cache_is_bounded():
    for k in range(S.LADDER_CACHE_SIZE):
        S.degeneracy_polynomial(3, natural_config(E=1.0 + k / 64))
    info = S._ladder_cache.cache_info()
    assert info.maxsize == S.LADDER_CACHE_SIZE
    assert info.currsize <= S.LADDER_CACHE_SIZE


def test_ladder_depth_guard():
    with pytest.raises(ValueError, match="depth"):
        S.degeneracy_polynomial(7, CFG)


def test_ladder_rejects_negative_order():
    # the recursion has no floor below 0: a negative order must be refused
    with pytest.raises(ValueError, match="ladder order -1 lies outside 0..6"):
        S.degeneracy_polynomial(-1, CFG)
    with pytest.raises(ValueError, match="lies outside"):
        S.electric_ladder(CFG, -3)


@pytest.mark.parametrize("j", [0, 1, 2, 3])
def test_ladder_recursion_matches_time_derivative(j):
    """Central-difference oracle: i hbar d/dt (P_j phi) = P_{j+1} phi."""
    x = np.linspace(-3.0, 3.0, 11)
    t, h = 0.8, 1e-5
    lhs = 1j * (S.ladder_state(x, t + h, j, CFG) - S.ladder_state(x, t - h, j, CFG)) / (2 * h)
    rhs = S.ladder_state(x, t, j + 1, CFG)
    assert np.max(np.abs(lhs - rhs)) < 1e-8 * np.max(np.abs(rhs))


# --- resummation -------------------------------------------------------------------------

def test_taylor_truncation_at_zero_order():
    x = np.linspace(-3, 3, 9)
    assert np.allclose(S.superposition_taylor(x, 1.0, 0.1, 0, CFG),
                       S.phi_electric(x, 1.0, CFG))


def test_taylor_zero_shift_collapses():
    x = np.linspace(-3, 3, 9)
    for J in (0, 3, 10):
        assert np.allclose(S.superposition_taylor(x, 1.0, 0.0, J, CFG),
                           S.phi_electric(x, 1.0, CFG))


def test_taylor_coefficient_overflow_is_a_value_error():
    # c_2 = (dt/hbar)^2 / 2 is past float64 at dt = 1e300
    with pytest.raises(ValueError, match="c_2 at dt = 1e[+]300 overflows float64"):
        S.superposition_taylor(0.0, 0.0, 1e300, 10, CFG)


def test_taylor_resums_to_shifted_solution():
    val = S.superposition_taylor(1.0, 1.0, 0.1, 10, CFG)
    target = S.psi_electric_shifted(1.0, 1.0, 0.1, CFG)
    assert abs(val - target) / abs(target) < 1e-6


def test_taylor_error_monotone_nonincreasing():
    x = np.linspace(-4.0, 4.0, 65)
    target = S.psi_electric_shifted(x, 1.0, 0.1, CFG)
    errs = [np.max(np.abs(S.superposition_taylor(x, 1.0, 0.1, J, CFG) - target))
            for J in range(11)]
    assert errs[10] < 1e-6
    assert all(errs[k + 1] <= errs[k] * (1 + 1e-12) for k in range(10))


def test_arbitrary_coefficients_expose_raw_ladder():
    x = np.linspace(-2, 2, 5)
    assert np.allclose(S.superposition_with_coefficients(x, 0.7, [1.0], CFG),
                       S.phi_electric(x, 0.7, CFG))
    combo = S.superposition_with_coefficients(x, 0.7, [0.0, 2.0], CFG)
    assert np.allclose(combo, 2.0 * S.ladder_state(x, 0.7, 1, CFG))


# --- parallel families ---------------------------------------------------------------------

def test_family_y_real_when_unshifted():
    y = np.linspace(-3, 3, 7)
    vals = S.phi2_family_y(y, 1.7, 0.0, 1, CFG_PAR)
    assert np.allclose(vals.imag, 0.0)


def test_family_z_real_profile_on_axis():
    z = np.linspace(-3, 3, 7)
    vals = S.phi2_family_z(0.0, z, 0.0, 2, CFG_PAR)
    assert np.allclose(vals.imag, 0.0)


def test_family_z_is_not_separable():
    """The ratio at two y values must depend on z (no f(y)g(z) splitting)."""
    z = np.array([0.4, 1.2])
    r = (S.phi2_family_z(1.0, z, 0.0, 0, CFG_PAR)
         / S.phi2_family_z(-1.0, z, 0.0, 0, CFG_PAR))
    assert abs(r[0] - r[1]) > 0.1


def test_family_y_is_separable_in_its_arguments():
    # sanity contrast: exp(i wc z dy) * phi_n(y - dy) factorizes
    y = np.array([0.2, 1.1])
    z = np.array([0.5, 2.0])
    vals = S.phi2_family_y(y[:, None], z[None, :], 0.5, 0, CFG_PAR)
    det = vals[0, 0] * vals[1, 1] - vals[0, 1] * vals[1, 0]
    assert abs(det) < 1e-14


def test_full_parallel_solution_product_structure():
    y, z = 0.4, -0.9
    val = S.full_parallel_solution(0.0, y, z, 0.0, "family_y", 0, CFG_PAR, dy_shift=0.25)
    expected = (1.0 / math.sqrt(8.0)) * S.phi2_family_y(y, z, 0.25, 0, CFG_PAR)
    assert val == pytest.approx(expected)


def test_full_parallel_solution_modulus_x_independent():
    xs = np.linspace(-3, 3, 9)
    vals = S.full_parallel_solution(xs, 0.3, 0.1, 0.7, "family_z", 1, CFG_PAR, dz_shift=0.2)
    assert np.allclose(np.abs(vals), np.abs(vals[0]))


def test_full_parallel_solution_unknown_family():
    with pytest.raises(ValueError, match="unknown parallel solution family"):
        S.full_parallel_solution(0, 0, 0, 0, "family_q", 0, CFG_PAR)


@pytest.mark.parametrize("q", [1.0, -1.0])
@pytest.mark.parametrize("box", [None, 24.0])
@pytest.mark.parametrize("family", ["family_y", "family_z"])
def test_parallel_family_is_the_closed_form_bit_for_bit(family, box, q):
    """parallel_family evaluates amp * exp(-i E_n t / hbar) * phi2 in that
    operand order, and carries the closed-form sampling bound and tags."""
    cfg = natural_config(m=2.0, q=q, B=0.7, geometry="parallel_eb", L=8.0)
    n, shift = 2, 0.375
    state = S.parallel_family(cfg, family, n, shift, box)
    y = np.linspace(-4.0, 4.0, 9)[:, None]
    z = np.linspace(-3.0, 5.0, 7)[None, :]
    amp = 1.0 / math.sqrt(box) if box else 1.0
    en = S.landau_level(n, cfg)
    phi2 = S.phi2_family_y if family == "family_y" else S.phi2_family_z
    for t in (0.0, 0.8, np.array([[0.3]])):
        want = amp * np.exp(-1j * en * np.asarray(t, dtype=float) / cfg.hbar) \
            * phi2(y, z, shift, n, cfg)
        assert np.array_equal(state.fn(y, z, t), want)

    m, hbar, wc, alpha = cfg.mass, cfg.hbar, cyclotron_frequency(cfg), S.oscillator_scale(cfg)
    k_osc = alpha * math.sqrt(2.0 * n + 1.0) + 3.0 * alpha
    axis = family[-1]
    if family == "family_y":
        kmax = (k_osc, abs(m * wc * shift / hbar))
    else:
        span = (math.sqrt(2.0 * n + 1.0) + 5.0) / alpha
        kmax = (m * abs(wc) * (abs(shift) + span) / hbar, k_osc)
    assert state.kmax(0.0) == kmax
    assert state.kmax(3.0) == state.kmax(0.0)
    assert state.family == f"parallel_{family}"
    assert state.shifts == ((f"d{axis}", shift),)
    assert state.label == f"family-{axis} n=2, d{axis}=0.375"
    assert (state.ndim, state.n) == (2, n)
