"""Symmetry unitaries, invariance phases, quantization, superpositions."""

import cmath
import dataclasses
import math
import re

import numpy as np
import pytest

from fieldquant import grids as G
from fieldquant import solutions as S
from fieldquant import symmetry as Y
from fieldquant import verify as V
from fieldquant.config import build_config, cyclotron_frequency, natural_config

CFG = natural_config(L=8.0)
CFG_PAR = natural_config(B=1.0, geometry="parallel_eb", L=8.0)
GRID = G.Grid1D(8.0, 256, "periodic")


def test_unitary_validation():
    with pytest.raises(ValueError):
        Y.Unitary("Uq", 1.0)
    with pytest.raises(ValueError):
        Y.Unitary("Ux", math.inf)


def test_ux_zero_shift_is_identity():
    phi = S.electric_fundamental(CFG)
    moved = Y.apply_unitary(Y.Unitary("Ux", 0.0), phi, CFG)
    x = np.linspace(-3, 3, 11)
    assert np.allclose(moved.fn(x, 1.1), phi.fn(x, 1.1))


def test_ut_reproduces_shifted_solution():
    phi = S.electric_fundamental(CFG)
    moved = Y.apply_unitary(Y.Unitary("Ut", 0.4), phi, CFG)
    x = np.linspace(-3.5, 3.5, 29)
    for t in (0.0, 0.9, 2.2):
        assert np.allclose(moved.fn(x, t), S.psi_electric_shifted(x, t, 0.4, CFG))


def test_uy_translation_identity_on_grid():
    g2 = G.landau_grid(CFG_PAR, npoints=64, ly=24.0)
    dy = G.snap_shift(g2.y, 0.75)
    base = S.parallel_family(CFG_PAR, "family_y", 0, 0.0, box=g2.z.length)
    moved = Y.apply_unitary(Y.Unitary("Uy", dy), base, CFG_PAR)
    target = S.parallel_family(CFG_PAR, "family_y", 0, dy, box=g2.z.length)
    yy, zz = g2.y.x[:, None], g2.z.x[None, :]
    assert np.max(np.abs(moved.fn(yy, zz, 0.2) - target.fn(yy, zz, 0.2))) < 1e-10


def test_uz_translation_identity():
    g2 = G.landau_grid(CFG_PAR, npoints=64, ly=24.0)
    dz = G.snap_shift(g2.z, 0.5)
    base = S.parallel_family(CFG_PAR, "family_z", 1, G.snap_offset(g2.z, 0.1), box=g2.y.length)
    moved = Y.apply_unitary(Y.Unitary("Uz", dz), base, CFG_PAR)
    yy, zz = g2.y.x[:, None], g2.z.x[None, :]
    assert np.allclose(moved.fn(yy, zz, 0.0), base.fn(yy, zz - dz, 0.0))


def test_grid_unitarity_and_group_law():
    t1 = G.commensurate_time(CFG, GRID, 1)
    f = G.sample(S.electric_fundamental(CFG), GRID, t1)
    # on-lattice shift
    u1 = Y.Unitary("Ux", G.snap_shift(GRID, 0.7))
    # off-lattice shift exercises the band-limited interpolation
    u2 = Y.Unitary("Ux", 0.41)
    for u in (u1, u2):
        moved = Y.apply_unitary(u, f, CFG)
        assert abs(G.norm(moved) - G.norm(f)) < 1e-10
    composed = Y.apply_unitary(u1, Y.apply_unitary(u2, f, CFG), CFG)
    merged = Y.apply_unitary(Y.Unitary("Ux", u1.delta + u2.delta), f, CFG)
    assert np.max(np.abs(composed.values - merged.values)) < 1e-10


def test_group_law_closed_form():
    phi = S.electric_fundamental(CFG)
    a = Y.apply_unitary(Y.Unitary("Ux", 0.3), Y.apply_unitary(Y.Unitary("Ux", 0.9), phi, CFG), CFG)
    b = Y.apply_unitary(Y.Unitary("Ux", 1.2), phi, CFG)
    x = np.linspace(-3, 3, 17)
    assert np.max(np.abs(a.fn(x, 0.8) - b.fn(x, 0.8))) < 1e-12


def test_time_shift_rejected_on_bare_fields():
    f = G.sample(S.electric_fundamental(CFG), GRID, 0.0)
    with pytest.raises(ValueError, match="analytic time dependence"):
        Y.apply_unitary(Y.Unitary("Ut", 0.1), f, CFG)


def test_grid_unitaries_need_periodic_axes():
    g = G.Grid1D(8.0, 64, "dirichlet")
    f = G.WaveField(g, np.ones(64, dtype=complex), 0.0)
    with pytest.raises(G.GridMismatchError):
        Y.apply_unitary(Y.Unitary("Ux", 0.5), f, CFG)


# --- the unitary table against the per-kind transforms it replaced -------------

def _reference_solution_fn(u, solution, cfg):
    d, fn = u.delta, solution.fn
    if u.kind == "Ut":
        if solution.ndim == 1:
            return lambda x, t: fn(x, np.asarray(t) - d)
        if solution.ndim == 2:
            return lambda y, z, t: fn(y, z, np.asarray(t) - d)
        return lambda x, y, z, t: fn(x, y, z, np.asarray(t) - d)
    if u.kind == "Ux":
        q, E, hbar = cfg.charge, cfg.electric, cfg.hbar
        phase = (lambda t: np.exp(1j * q * E * np.asarray(t) * d / hbar)) \
            if u.compensating_phase else (lambda t: 1.0)
        if solution.ndim == 1:
            return lambda x, t: phase(t) * fn(np.asarray(x) - d, t)
        return lambda x, y, z, t: phase(t) * fn(np.asarray(x) - d, y, z, t)
    if u.kind == "Uy":
        coeff = cfg.mass * cyclotron_frequency(cfg) * d / cfg.hbar
        phase = (lambda z: np.exp(1j * coeff * np.asarray(z))) \
            if u.compensating_phase else (lambda z: 1.0)
        if solution.ndim == 2:
            return lambda y, z, t: phase(z) * fn(np.asarray(y) - d, z, t)
        return lambda x, y, z, t: phase(z) * fn(x, np.asarray(y) - d, z, t)
    if solution.ndim == 2:
        return lambda y, z, t: fn(y, np.asarray(z) - d, t)
    return lambda x, y, z, t: fn(x, y, np.asarray(z) - d, t)


def _reference_shift_axis(values, grid_axis, delta, axis):
    cells = delta / grid_axis.dx
    if abs(cells - round(cells)) < 1e-9:
        return np.roll(values, round(cells), axis=axis)
    k = grid_axis.wavenumbers
    shape = [1] * values.ndim
    shape[axis] = k.size
    return np.fft.ifft(np.exp(-1j * k.reshape(shape) * delta)
                       * np.fft.fft(values, axis=axis), axis=axis)


def _reference_field_values(u, f, cfg):
    if u.kind == "Ux":
        out = _reference_shift_axis(f.values, f.grid, u.delta, 0)
        if u.compensating_phase:
            out = out * cmath.exp(1j * cfg.charge * cfg.electric * f.t * u.delta / cfg.hbar)
        return out
    if u.kind == "Uy":
        out = _reference_shift_axis(f.values, f.grid.y, u.delta, 0)
        if u.compensating_phase:
            zz = f.grid.z.x[None, :]
            out = out * np.exp(1j * cfg.mass * cyclotron_frequency(cfg) * zz * u.delta / cfg.hbar)
        return out
    return _reference_shift_axis(f.values, f.grid.z, u.delta, 1)


def _assert_matches(got, want, rel):
    if rel == 0:
        np.testing.assert_array_equal(got, want)
    else:
        assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


# (1D config, parallel config, relative bound): bit for bit at unit parameters,
# where the operation order of the phase cannot matter
REFERENCE_CONFIGS = [
    (CFG, CFG_PAR, 0.0),
    (natural_config(m=2.0, q=-1.5, L=8.0),
     natural_config(m=2.0, q=-1.5, B=0.7, geometry="parallel_eb", L=8.0), 1e-14),
]


@pytest.mark.parametrize("cfg1, cfgp, rel", REFERENCE_CONFIGS)
@pytest.mark.parametrize("phase", [True, False])
def test_unitary_table_matches_reference_on_solutions(cfg1, cfgp, rel, phase):
    g2 = G.landau_grid(cfgp, npoints=64, ly=24.0)
    x = np.linspace(-3.0, 3.0, 9)
    y = np.linspace(-2.0, 2.0, 7)[:, None]
    z = np.linspace(-1.0, 1.0, 5)[None, :]
    cases = [
        (S.electric_shifted(cfg1, 0.3), cfg1, ("Ux", "Ut"), (x, 0.55)),
        (S.parallel_family(cfgp, "family_y", 1, 0.5, box=g2.z.length), cfgp, ("Uy", "Uz", "Ut"),
         (y, z, 0.55)),
    ] + [(S.parallel_product(cfgp, family, 1, 0.5, box=24.0), cfgp, Y.UNITARY_KINDS,
          (x[:, None, None], y[None], z[None], 0.55)) for family in ("family_y", "family_z")]
    for solution, cfg, kinds, point in cases:
        for kind in kinds:
            u = Y.Unitary(kind, 0.37, phase)
            got = Y.apply_unitary(u, solution, cfg).fn(*point)
            _assert_matches(got, _reference_solution_fn(u, solution, cfg)(*point), rel)


@pytest.mark.parametrize("cfg1, cfgp, rel", REFERENCE_CONFIGS)
@pytest.mark.parametrize("phase", [True, False])
def test_unitary_table_matches_reference_on_fields(cfg1, cfgp, rel, phase):
    g2 = G.landau_grid(cfgp, npoints=64, ly=24.0)
    f1 = G.sample(S.electric_fundamental(cfg1), GRID, 0.4)
    f2 = G.sample(S.parallel_family(cfgp, "family_y", 1, 0.5, box=g2.z.length), g2, 0.2)
    cases = [(f1, cfg1, "Ux", GRID), (f2, cfgp, "Uy", g2.y), (f2, cfgp, "Uz", g2.z)]
    for f, cfg, kind, axis in cases:
        for delta in (3 * axis.dx, 0.37):   # on- and off-lattice
            u = Y.Unitary(kind, delta, phase)
            got = Y.apply_unitary(u, f, cfg).values
            _assert_matches(got, _reference_field_values(u, f, cfg), rel)


@pytest.mark.parametrize("kind, ndim, coord", [
    ("Ux", 2, "x"), ("Uy", 1, "y"), ("Uz", 1, "z")])
def test_missing_solution_coordinate_is_a_grid_mismatch(kind, ndim, coord):
    solution = S.electric_fundamental(CFG) if ndim == 1 \
        else S.parallel_family(CFG_PAR, "family_y", 0, 0.0)
    with pytest.raises(G.GridMismatchError, match=f"{kind} needs a solution with a {coord} "):
        Y.apply_unitary(Y.Unitary(kind, 0.5), solution, CFG_PAR)


@pytest.mark.parametrize("kind, ndim, coord", [
    ("Ux", 2, "x"), ("Uy", 1, "y"), ("Uz", 1, "z")])
def test_missing_field_axis_is_a_grid_mismatch(kind, ndim, coord):
    if ndim == 1:
        f = G.WaveField(GRID, np.ones(GRID.npoints), 0.0)
    else:
        g2 = G.landau_grid(CFG_PAR, npoints=32, ly=24.0)
        f = G.WaveField(g2, np.ones(g2.shape), 0.0)
    with pytest.raises(G.GridMismatchError, match=f"{kind} needs a field with a {coord} axis"):
        Y.apply_unitary(Y.Unitary(kind, 0.5), f, CFG_PAR)


# --- conjugation symmetry ------------------------------------------------------

def test_conjugation_symmetry_conserved_unitaries():
    phi = S.electric_fundamental(CFG)
    t1 = G.commensurate_time(CFG, GRID, 1)
    assert Y.conjugation_symmetry_check(
        Y.Unitary("Ux", G.snap_shift(GRID, 0.9)), phi, GRID, t1, CFG) < 1e-6
    assert Y.conjugation_symmetry_check(
        Y.Unitary("Ut", 0.3), phi, GRID, t1, CFG) < 1e-6

    g2 = G.landau_grid(CFG_PAR, npoints=64, ly=24.0)
    fam_y = S.parallel_family(CFG_PAR, "family_y", 1, 0.0, box=g2.z.length)
    fam_z = S.parallel_family(CFG_PAR, "family_z", 1, G.snap_offset(g2.z, 0.7), box=g2.y.length)
    assert Y.conjugation_symmetry_check(
        Y.Unitary("Uy", G.snap_shift(g2.y, 0.5)), fam_y, g2, 0.4, CFG_PAR) < 1e-6
    assert Y.conjugation_symmetry_check(
        Y.Unitary("Uz", G.snap_shift(g2.z, 0.8)), fam_z, g2, 0.4, CFG_PAR) < 1e-6


def test_conjugation_symmetry_broken_witness():
    g2 = G.landau_grid(CFG_PAR, npoints=64, ly=24.0)
    fam_z = S.parallel_family(CFG_PAR, "family_z", 1, G.snap_offset(g2.z, 0.7), box=g2.y.length)
    stripped = Y.Unitary("Uy", G.snap_shift(g2.y, 0.5), compensating_phase=False)
    assert Y.conjugation_symmetry_check(stripped, fam_z, g2, 0.4, CFG_PAR) > 1e-2


# --- invariance phase ------------------------------------------------------------

def test_invariance_phase_values():
    assert Y.invariance_phase(1.0, 0.0, CFG) == pytest.approx(1.0)
    assert Y.invariance_phase(1.0, 2.0 * math.pi, CFG) == pytest.approx(1.0, abs=1e-8)
    assert Y.invariance_phase(1.0, math.pi, CFG) == pytest.approx(-1.0, abs=1e-8)
    assert Y.invariance_phase(0.8, 0.7, CFG) == pytest.approx(cmath.exp(0.56j), abs=1e-10)


def test_invariance_phase_rejects_non_eigenvector():
    s1 = S.electric_shifted(CFG, 0.2)
    s2 = S.electric_shifted(CFG, 1.1)
    mixed = S.AnalyticSolution(
        family="electric_1d_shifted", ndim=1,
        fn=lambda x, t: 0.7 * s1.fn(x, t) + 0.3 * s2.fn(x, t), cfg=CFG)
    with pytest.raises(ValueError, match="not a Ux eigenvector"):
        Y.invariance_phase(1.0, 0.2, CFG, state=mixed)


def _reference_invariance_phase(dx_shift, dt_shift, cfg, state=None, tol=1e-8):
    """Reference: the scalar one-state-per-call measurement."""
    if state is None:
        state = S.electric_shifted(cfg, dt_shift)
    transformed = Y.apply_unitary(Y.Unitary("Ux", dx_shift), state, cfg)
    points = Y._phase_sample_points(state, cfg)
    base = np.concatenate([np.asarray(state.fn(*p), dtype=complex).ravel() for p in points])
    shifted = np.concatenate([np.asarray(transformed.fn(*p), dtype=complex).ravel()
                              for p in points])
    amax = np.abs(base).max()
    keep = np.abs(base) > Y.AMPLITUDE_FLOOR * amax
    ratio = shifted[keep] / base[keep]
    ref = ratio[int(np.argmax(np.abs(base[keep])))]
    n_real = cfg.charge * cfg.electric * dx_shift * dt_shift / (2.0 * math.pi * cfg.hbar)
    spread = float(np.max(np.abs(ratio - ref)))
    if spread > tol * (1.0 + abs(n_real)):
        raise ValueError(
            f"state is not a Ux eigenvector: phase ratio varies by {spread:.3e}")
    return complex(ref)


def _assert_bitwise(got, want):
    assert np.array_equal(np.atleast_1d(np.asarray(got, dtype=complex)).view(float),
                          np.atleast_1d(np.asarray(want, dtype=complex)).view(float))


@pytest.mark.parametrize("cfg, dx, dts", [
    (CFG, 2.0 * math.pi, np.arange(1, 1001) * 0.005),    # the verify scan
    (build_config({"m": 2, "q": -1.5, "E": 1, "L": 8.0}), 2.0 * math.pi,
     np.arange(1, 1001) * 0.005),
    (CFG, 0.8, np.random.default_rng(7).uniform(-3.0, 3.0, 3 * Y.PHASE_BATCH + 17)),
])
def test_invariance_phases_match_scalar_reference_bit_for_bit(cfg, dx, dts):
    got = Y.invariance_phases(dx, dts, cfg)
    want = [_reference_invariance_phase(dx, float(dt), cfg) for dt in dts]
    assert got.shape == (len(dts),)
    _assert_bitwise(got, want)
    _assert_bitwise(Y.invariance_phase(dx, float(dts[-1]), cfg), want[-1])


def test_invariance_phases_refuse_phases_float64_cannot_resolve():
    """At the verify scan, q = E = 25 samples phases whose float64 spacing
    stays within PHASE_TOL / 10; at q = E = 30 a later batch exceeds it."""
    dts = np.arange(1, 1001) * 0.005
    phases = Y.invariance_phases(2.0 * math.pi, dts, natural_config(E=25, q=25, L=8.0))
    assert phases.shape == (1000,)
    with pytest.raises(ValueError, match="unresolvable: the sampled phase reaches 8.68e"):
        Y.invariance_phases(2.0 * math.pi, dts, natural_config(E=30, q=30, L=8.0))


@pytest.mark.parametrize("with_state", [False, True])
def test_invariance_phase_refuses_the_same_state_with_or_without_it_passed(with_state):
    """The time-shifted state passed in meets the float64 guard that the
    default one meets: at q = E = 30 and dt = 4 both refuse."""
    cfg = natural_config(E=30, q=30)
    state = S.electric_shifted(cfg, 4.0) if with_state else None
    with pytest.raises(ValueError, match="unresolvable: the sampled phase reaches 8.68e"):
        Y.invariance_phase(2.0 * math.pi, 4.0, cfg, state=state)


def test_superposition_phase_is_measured_under_the_float64_guard(super_setup):
    """The guard reads the superposition's plane-wave phase from its own
    origins, x less its Ux shift and t less its time origin: the canonical
    state is measured, and a strong field or a far shift, whose sampled
    phase reaches 9e6 rad, is refused instead of read 8e-10 off."""
    cfg, g2, d = super_setup
    psi = _superposition(cfg, d)
    assert abs(Y.invariance_phase(0.7, 0.9, cfg, state=psi) - cmath.exp(0.63j)) < 1e-9
    for E, dx, dt, reach in ((900, 0.7, 4.0, "8.66e+06"), (1, 1e7, 0.9, "9e+06")):
        strong = build_config({"m": 1, "q": 1, "E": E, "B": 1.0, "L": 8.0,
                               "geometry": "parallel_eb"})
        psi = _superposition(strong, {"dx": dx, "dy": 0.0, "dz": 0.0, "dt": dt})
        with pytest.raises(ValueError, match=re.escape(f"the sampled phase reaches {reach} rad")):
            Y.invariance_phase(0.7, dt, strong, state=psi)


def test_custom_state_phase_matches_scalar_reference_bit_for_bit(super_setup):
    cfg, g2, d = super_setup
    psi = _superposition(cfg, d)
    for dx in (d["dx"], 1.9):
        _assert_bitwise(Y.invariance_phase(dx, 0.9, cfg, state=psi),
                        _reference_invariance_phase(dx, 0.9, cfg, state=psi))


def test_global_phase_kernel_raises_at_first_non_eigenvector_row():
    rng = np.random.default_rng(5)
    base = np.exp(1j * rng.uniform(0.0, 6.0, (6, 40)))
    shifted = base * np.exp(0.3j)
    shifted[2, 7] *= np.exp(1e-3j)     # ratio spread ~1e-3
    shifted[4, 3] *= np.exp(1e-1j)     # a larger spread further on
    with pytest.raises(ValueError, match=r"not a Ux eigenvector: phase ratio varies by 1\.000e-03"):
        Y._global_phases(shifted, base, np.zeros(6), 1e-8)
    phases = Y._global_phases(shifted[:2], base[:2], np.zeros(2), 1e-8)
    assert np.allclose(phases, np.exp(0.3j), rtol=0, atol=1e-15)


# --- quantization report -----------------------------------------------------------

def test_quantization_report_basic():
    rep = Y.quantization_report(2.0 * math.pi, 1.0, CFG)
    assert rep.n_real == pytest.approx(1.0)
    assert rep.is_quantized and rep.nearest == 1
    assert rep.voltage == pytest.approx(2.0 * math.pi)
    assert rep.current == pytest.approx(1.0)
    assert rep.resistance == pytest.approx(CFG.units.h)  # h / q^2 with q = 1
    assert rep.resistance_in_klitzing == pytest.approx(1.0)
    assert rep.resistance_ohms is None


def test_quantization_scales_linearly():
    r1 = Y.quantization_report(2.0 * math.pi, 1.0, CFG)
    r3 = Y.quantization_report(2.0 * math.pi, 3.0, CFG)
    assert r3.n_real == pytest.approx(3.0 * r1.n_real)
    assert r3.resistance == pytest.approx(3.0 * r1.resistance)


def test_quantization_zero_dt():
    with pytest.raises(ValueError, match="undefined current"):
        Y.quantization_report(1.0, 0.0, CFG)


def test_quantization_verdict_needs_float64_resolution():
    # SI units with a numeric q = 1 (one coulomb): n_real ~ 1.5e33, ulp(n) > 1
    cfg = build_config({"units": "si", "m": 1.0, "q": 1.0, "E": 1.0, "L": 1.0})
    with pytest.raises(ValueError, match="unresolvable: tolerance"):
        Y.quantization_report(1.0, 1.0, cfg)
    # the tolerance tol * (1 + |n|) reaches 1/2 exactly at n = 1 for tol = 1/4
    with pytest.raises(ValueError, match="admits every real number"):
        Y.quantization_report(2.0 * math.pi, 1.0, CFG, tol=0.25)
    assert Y.quantization_report(2.0 * math.pi, 1.0, CFG, tol=0.24).is_quantized


@pytest.mark.parametrize("dx, dt", [(math.inf, 1.0), (1e300, 1e300), (math.nan, 1.0),
                                    (-math.inf, 0.5)])
def test_quantization_non_finite_n_real_is_unresolvable(dx, dt):
    with pytest.raises(ValueError, match="unresolvable: tolerance"):
        Y.quantization_report(dx, dt, CFG)


@pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, 0.5, math.inf])
def test_scan_rejects_bad_tolerance(tol):
    with pytest.raises(ValueError, match="tolerance tol"):
        Y.scan_quantization(2.0 * math.pi, [0.5, 1.0], CFG, tol)


def test_scan_gives_the_unresolvable_reason():
    [reason] = Y.scan_quantization(math.inf, [1.0], CFG)
    assert reason.startswith("unresolvable: tolerance inf at n_real inf")


def test_quantization_sign_convention():
    rep = Y.quantization_report(2.0 * math.pi, -1.0, CFG)
    assert rep.n_real == pytest.approx(-1.0)
    assert rep.resistance < 0 and rep.nearest == -1
    assert rep.resistance_in_klitzing == pytest.approx(rep.n_real)


def test_quantization_si_mode_reports_ohms():
    cfg = build_config({"units": "si", "m": 9.1093837015e-31, "q": "e",
                        "E": 1.0, "L": 1.0})
    dt_n1 = 2.0 * math.pi * cfg.hbar / (cfg.charge * cfg.electric * 1.0)
    rep = Y.quantization_report(1.0, dt_n1, cfg)
    assert rep.is_quantized and rep.nearest == 1
    assert rep.resistance_ohms == pytest.approx(25812.8074593045, abs=1e-6)


def test_eigen_sign_does_not_change_reports():
    """The shift direction is the sign of dt: a shift toward later times
    (-dt) mirrors n_real and R exactly and keeps the verdict."""
    rep_back = Y.quantization_report(2.0 * math.pi, 1.5, CFG)
    rep_fwd = Y.quantization_report(2.0 * math.pi, -1.5, CFG)
    assert rep_fwd.n_real == -rep_back.n_real
    assert rep_fwd.is_quantized == rep_back.is_quantized
    assert rep_fwd.resistance == -rep_back.resistance
    # the phase itself conjugates, so proximity to 1 is unchanged
    ph_back = Y.invariance_phase(2.0 * math.pi, 1.5, CFG)
    ph_fwd = Y.invariance_phase(2.0 * math.pi, -1.5, CFG)
    assert abs(ph_back - 1.0) == pytest.approx(abs(ph_fwd - 1.0), abs=1e-12)


def test_scan_quantization_integer_hits_only():
    dts = np.arange(1, 201) * 0.025  # 0.025 .. 5.0, hits at 1..5 via dx = 2 pi
    reports = Y.scan_quantization(2.0 * math.pi, dts, CFG)
    hits = [r.nearest for r in reports if r is not None and r.is_quantized]
    assert hits == [1, 2, 3, 4, 5]
    for r in reports:
        if r is None or r.is_quantized:
            continue
        phase = Y.invariance_phase(2.0 * math.pi, r.dt, CFG)
        assert abs(phase - 1.0) > 1e-8


def test_scan_checks_the_charge_once(monkeypatch):
    """q^2 is refused or kept once per scan, not once per point; the public
    one-point report still checks it itself."""
    calls = []
    charge_squared = Y._charge_squared
    monkeypatch.setattr(Y, "_charge_squared", lambda cfg: calls.append(cfg) or charge_squared(cfg))
    reports = Y.scan_quantization(2.0 * math.pi, [0.5, 1.0, 1.5, 2.0], CFG)
    assert len(calls) == 1 and all(isinstance(r, Y.QuantizationReport) for r in reports)
    assert reports[1] == Y.quantization_report(2.0 * math.pi, 1.0, CFG)
    assert len(calls) == 2


def test_scan_handles_zero_dt():
    reports = Y.scan_quantization(1.0, [0.0, 0.5], CFG)
    assert reports[0] == "undefined current"
    assert isinstance(reports[1], Y.QuantizationReport)


# --- superpositions of parallel products ----------------------------------------------

@pytest.fixture(scope="module")
def super_setup():
    g2 = G.landau_grid(natural_config(B=1.0, geometry="parallel_eb", L=8.0),
                       npoints=64, ly=24.0)
    cfg = build_config({
        "m": 1, "q": 1, "E": 1, "B": 1.0, "L": 8.0, "geometry": "parallel_eb"})
    shifts = {"dx": 0.7, "dy": G.snap_shift(g2.y, 0.5), "dz": G.snap_offset(g2.z, 0.7),
              "dt": 0.9}
    return cfg, g2, shifts


def _moved(psi, cfg, d):
    """Ut(dt) Ux(dx) psi, Ux applied first."""
    for kind in ("Ux", "Ut"):
        psi = Y.apply_unitary(Y.Unitary(kind, d["d" + kind[1:].lower()]), psi, cfg)
    return psi


def _superposition(cfg, d):
    """Ut Ux of 1.0 Y_0 + 0.4 Y_1 + 0.5 Z_0 + 0.25 Z_2, with Y_n and Z_n the
    family-y (at dy) and family-z (at dz) products: every term shares the
    plane wave phi1(x, t), which is all that Ux moves."""
    terms = [(c, S.parallel_product(cfg, family, n, d["dy" if family == "family_y" else "dz"]))
             for c, family, n in ((1.0, "family_y", 0), (0.4, "family_y", 1),
                                  (0.5, "family_z", 0), (0.25, "family_z", 2))]
    psi = dataclasses.replace(terms[0][1], shifts=(("dy", d["dy"]), ("dz", d["dz"])),
                              fn=lambda *p: sum(c * s.fn(*p) for c, s in terms))
    return _moved(psi, cfg, d)


def test_single_term_superposition_matches_transformed_product(super_setup):
    """Ut Ux of one box-normalized product is the closed form
    exp(i q E (t - dt) dx / hbar) phi1(x - dx, t - dt) exp(-i E_0 (t - dt) / hbar)
    phi2_y(y, z) / sqrt(Lz)."""
    cfg, g2, d = super_setup
    psi = _moved(S.parallel_product(cfg, "family_y", 0, d["dy"], box=g2.z.length), cfg, d)
    x, y, z, t = 0.31, 0.8, -0.4, 0.65
    t_eff = t - d["dt"]
    expected = (cmath.exp(1j * t_eff * d["dx"])
                * S.plane_wave(x - d["dx"], t_eff, cfg)
                * cmath.exp(-1j * S.landau_level(0, cfg) * t_eff)
                * complex(S.phi2_family_y(y, z, d["dy"], 0, cfg))
                / math.sqrt(g2.z.length))
    assert complex(psi.fn(x, y, z, t)) == pytest.approx(expected, rel=1e-10)


def test_superposition_invariance_phase(super_setup):
    cfg, g2, d = super_setup
    psi = _superposition(cfg, d)
    for dx_probe in (d["dx"], 1.9):
        measured = Y.invariance_phase(dx_probe, d["dt"], cfg, state=psi)
        assert measured == pytest.approx(cmath.exp(1j * dx_probe * d["dt"]), abs=1e-9)


@pytest.mark.parametrize("family", ["family_y", "family_z"])
def test_parallel_phase_check_fails_when_the_x_factor_ignores_the_time_shift(
        monkeypatch, family):
    """quantization.parallel_phase measures the Ut-shifted product: with Ut
    reaching only the transverse factor, Ux reads phase 1 at every dt, so
    the check fails at dt = 0.37, by |1 - exp(0.74 pi i)| = 1.84."""
    name = f"quantization.parallel_phase[{family.replace('_', '-')} n=1]"
    check = {c.name: c for c in V.checks_quantization(natural_config())}[name]
    assert check.passed and check.value < 1e-14
    apply_unitary = Y.apply_unitary

    def ut_misses_x(u, target, cfg):
        moved = apply_unitary(u, target, cfg)
        if u.kind != "Ut" or target.ndim != 3:
            return moved
        return dataclasses.replace(moved, fn=lambda x, y, z, t: moved.fn(x, y, z, t)
                                   * S.plane_wave(x, t, cfg)
                                   / S.plane_wave(x, np.asarray(t) - u.delta, cfg))
    monkeypatch.setattr(Y, "apply_unitary", ut_misses_x)
    check = {c.name: c for c in V.checks_quantization(natural_config())}[name]
    assert not check.passed
    assert check.value == pytest.approx(abs(1.0 - cmath.exp(0.74j * math.pi)), rel=1e-9)
