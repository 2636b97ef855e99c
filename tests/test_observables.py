"""Current, drift velocity, Newton recovery, and local continuity."""

import dataclasses
import math

import numpy as np
import pytest

from fieldquant import grids as G
from fieldquant import observables as O
from fieldquant import propagate as P
from fieldquant import solutions as S
from fieldquant import symmetry as Y
from fieldquant import verify as V
from fieldquant.config import natural_config

CFG = natural_config(L=8.0)
CFG40 = natural_config(L=40.0)


def test_current_vanishes_at_t0():
    prof = O.probability_current_1d(S.electric_fundamental(CFG), CFG, t=0.0)
    assert np.max(np.abs(prof.current)) < 1e-14


@pytest.mark.parametrize("t", [0.5, 1.3, 2.0])
def test_current_closed_form(t):
    prof = O.probability_current_1d(S.electric_fundamental(CFG), CFG, t=t)
    expected = t / 8.0  # (q E t / m) |phi|^2 with |phi|^2 = 1/L
    assert np.max(np.abs(prof.current - expected)) < 1e-10
    assert np.max(np.abs(prof.density - 1.0 / 8.0)) < 1e-14


def test_current_check_fails_on_a_wrong_wavenumber(monkeypatch):
    """newton.current_closed_form measures the current of sampled states: a
    fundamental solution carrying an extra exp(2 pi i x / L) has current
    off by (hbar 2 pi / L m) |phi|^2 = 0.098 and fails the check."""
    def wrong_wavenumber(cfg):
        phi = fundamental(cfg)
        extra = 2.0 * math.pi / cfg.box_length
        return dataclasses.replace(phi, fn=lambda x, t: phi.fn(x, t) * np.exp(1j * extra * x))
    fundamental = S.electric_fundamental
    check = {c.name: c for c in V.checks_newton()}["newton.current_closed_form"]
    assert check.passed and check.value < 1e-12
    monkeypatch.setattr(S, "electric_fundamental", wrong_wavenumber)
    check = {c.name: c for c in V.checks_newton()}["newton.current_closed_form"]
    assert not check.passed
    assert check.value == pytest.approx(2.0 * math.pi / 8.0 / 8.0, rel=1e-9)


def test_velocity_matches_drift_closed_form():
    for t in (0.25, 1.0, 1.7):
        prof = O.probability_current_1d(S.electric_fundamental(CFG), CFG, t=t)
        assert np.nanmax(np.abs(prof.velocity - O.drift_velocity(t, CFG))) < 1e-10


PLANE_WAVES = {
    "shifted": S.electric_shifted(CFG, 0.3),
    "Ux": Y.apply_unitary(Y.Unitary("Ux", 0.9), S.electric_fundamental(CFG), CFG),
    "Ut": Y.apply_unitary(Y.Unitary("Ut", 0.3), S.electric_fundamental(CFG), CFG),
}


@pytest.mark.parametrize("t", [0.5, 1.3])
@pytest.mark.parametrize("name", list(PLANE_WAVES))
def test_plane_wave_current_is_drift_times_density(name, t):
    """J = (q E (t - t0) / m) |psi|^2 for every plane-wave solution, t0 its
    time origin: dpsi/dx = i k psi holds under time shifts and Ux or Ut."""
    state = PLANE_WAVES[name]
    prof = O.probability_current_1d(state, CFG, t=t)
    expected = CFG.charge * CFG.electric * (t - state.time_origin) / CFG.mass * prof.density
    assert np.max(np.abs(prof.current - expected)) <= 1e-14 * np.max(np.abs(expected))


@pytest.mark.parametrize("build", [
    lambda: S.electric_ladder(CFG, 2),
    lambda: S.electric_taylor(CFG, 0.3, 4),
    lambda: S.oscillator_1d(natural_config(B=1.0, geometry="parallel_eb"), 1),
    lambda: S.parallel_family(natural_config(B=1.0, geometry="parallel_eb"), "family_y", 0),
], ids=["ladder", "taylor", "oscillator", "family_y"])
def test_current_of_other_families_is_refused_by_name(build):
    state = build()
    with pytest.raises(ValueError, match=f"no closed-form current for the {state.family} family"):
        O.probability_current_1d(state, CFG, t=0.5)


def test_current_from_grid_field():
    grid = G.Grid1D(8.0, 512, "periodic")
    t = G.commensurate_time(CFG, grid, 1)
    f = G.sample(S.electric_fundamental(CFG), grid, t)
    prof = O.probability_current_1d(f, CFG)
    assert np.max(np.abs(prof.current - t / 8.0)) < 1e-8


def test_real_wavefunction_carries_no_current():
    grid = G.Grid1D(40.0, 512, "dirichlet")
    vals = np.exp(-grid.x ** 2 / 4.0).astype(complex)
    prof = O.probability_current_1d(G.WaveField(grid, vals, 0.0), CFG40)
    assert np.max(np.abs(prof.current)) < 1e-14


def test_velocity_absent_below_density_floor():
    grid = G.Grid1D(40.0, 512, "dirichlet")
    vals = np.exp(-grid.x ** 2 / 2.0).astype(complex) * np.exp(0.3j * grid.x)
    prof = O.probability_current_1d(G.WaveField(grid, vals, 0.0), CFG40)
    assert np.isnan(prof.velocity[0]) and np.isnan(prof.velocity[-1])
    center = np.abs(grid.x) < 2.0
    assert np.all(np.isfinite(prof.velocity[center]))


def test_drift_velocity_values():
    assert O.drift_velocity(0.0, CFG) == 0.0
    assert O.drift_velocity(2.0, CFG) == pytest.approx(2.0)
    h = 1e-6
    slope = (O.drift_velocity(1.0 + h, CFG) - O.drift_velocity(1.0 - h, CFG)) / (2 * h)
    assert slope == pytest.approx(1.0)  # dv/dt = q E / m


def test_drift_velocity_geometry_guard():
    cfg_par = natural_config(B=1.0, geometry="parallel_eb")
    with pytest.raises(Exception):
        O.drift_velocity(1.0, cfg_par)


def _gaussian_field(grid, sigma=1.0):
    vals = (2.0 * math.pi * sigma ** 2) ** -0.25 * np.exp(-grid.x ** 2 / (4 * sigma ** 2))
    return G.WaveField(grid, vals.astype(complex), 0.0)


def test_newton_check_electric():
    grid = G.Grid1D(40.0, 1024, "dirichlet")
    rec = P.evolve(_gaussian_field(grid), P.EvolutionSpec(dt=5e-4, steps=2000, cadence=100),
                   CFG40)
    result = O.newton_check(rec, CFG40)
    assert result["max_residual"] < 1e-6


def test_newton_check_free():
    cfg = natural_config(E=0.0, L=40.0)
    grid = G.Grid1D(40.0, 512, "dirichlet")
    rec = P.evolve(_gaussian_field(grid), P.EvolutionSpec(dt=5e-4, steps=1000, cadence=100),
                   cfg)
    assert O.newton_check(rec, cfg)["max_residual"] < 1e-8


def test_newton_residual_scales_second_order_in_record_step():
    """Coarsening the record cadence grows the stencil residual ~quadratically."""
    grid = G.Grid1D(40.0, 512, "dirichlet")
    f0 = _gaussian_field(grid)

    # CN time step coarse enough that its own error dominates the stencil
    residuals = []
    for dt in (4e-2, 8e-2):
        rec = P.evolve(f0, P.EvolutionSpec(dt=dt, steps=int(0.8 / dt), cadence=1), CFG40)
        residuals.append(O.newton_check(rec, CFG40)["max_residual"])
    ratio = residuals[1] / residuals[0]
    assert 2.5 < ratio < 6.5


def test_newton_check_needs_rows():
    grid = G.Grid1D(40.0, 256, "dirichlet")
    rec = P.evolve(_gaussian_field(grid), P.EvolutionSpec(dt=1e-3, steps=0), CFG40)
    with pytest.raises(ValueError, match="at least 3"):
        O.newton_check(rec, CFG40)


def test_continuity_along_cn_trajectory():
    grid = G.Grid1D(40.0, 1024, "dirichlet")
    f0 = _gaussian_field(grid, sigma=1.5)
    stepper = P.CrankNicolson1D(grid, CFG40, 5e-4)
    v = f0.values.copy()
    snaps = []
    t = 0.0
    for k in range(30):
        v = stepper.step(v)
        t += 5e-4
        if (k + 1) % 10 == 0:
            snaps.append(G.WaveField(grid, v.copy(), t))
    assert O.continuity_residual(snaps[0], snaps[1], snaps[2], CFG40) < 1e-5


def test_continuity_check_fails_on_a_wrong_crank_nicolson_mass(monkeypatch):
    """newton.continuity reads the density and the current of the run at
    t = 1: a Crank-Nicolson stepper whose mass is divided by 1.1 moves the
    density faster than the current with the true mass allows (2.0e-2,
    against 1.2e-4 for the true mass and the tolerance 1e-3), while
    newton.ehrenfest, blind to the mass of the stepper, still passes."""
    checks = {c.name: c for c in V.checks_newton()}
    assert checks["newton.continuity[E=1 gaussian]"].value < 2e-4
    init = P.CrankNicolson1D.__init__
    monkeypatch.setattr(P.CrankNicolson1D, "__init__", lambda self, grid, cfg, dt: init(
        self, grid, dataclasses.replace(cfg, mass=cfg.mass / 1.1), dt))
    checks = {c.name: c for c in V.checks_newton()}
    assert checks["newton.continuity[E=1 gaussian]"].value > 1e-2
    assert not checks["newton.continuity[E=1 gaussian]"].passed
    assert checks["newton.ehrenfest[E=1 gaussian]"].passed


def test_continuity_covers_every_point_of_a_periodic_grid():
    """A periodic grid has no wall band: with the snapshots rolled so that the
    largest |rho-dot + J'| sits 2 cells from the start, the residual is the
    maximum over all points."""
    grid = G.Grid1D(40.0, 256, "periodic")
    packet = _gaussian_field(grid).values * np.exp(2j * grid.x)
    k = grid.wavenumbers
    times = (0.0, 0.01, 0.02)   # free flight, exact in Fourier space
    free = [np.fft.ifft(np.exp(-0.5j * k ** 2 * t) * np.fft.fft(packet)) for t in times]
    rho_dot = (np.abs(free[2]) ** 2 - np.abs(free[0]) ** 2) / 0.02
    current = O.probability_current_1d(G.WaveField(grid, free[1], 0.01), CFG40).current
    s = lambda j: np.roll(current, -j)   # the fd4 stencil, wrapped
    r = rho_dot + (-s(2) + 8.0 * s(1) - 8.0 * s(-1) + s(-2)) / (12.0 * grid.dx)
    shift = 2 - int(np.argmax(np.abs(r)))
    snaps = [G.WaveField(grid, np.roll(v, shift), t) for v, t in zip(free, times)]
    assert np.argmax(np.abs(np.roll(r, shift))) == 2
    assert O.continuity_residual(*snaps, CFG40) == np.max(np.abs(r))


def test_continuity_input_validation():
    grid = G.Grid1D(40.0, 256, "dirichlet")
    f = _gaussian_field(grid)
    a = G.WaveField(grid, f.values, 0.0)
    b = G.WaveField(grid, f.values, 0.0)
    with pytest.raises(ValueError, match="time ordered"):
        O.continuity_residual(a, b, b, CFG40)


def test_vanishing_density_error():
    grid = G.Grid1D(40.0, 256, "dirichlet")
    f = G.WaveField(grid, np.zeros(256, dtype=complex), 0.0)
    with pytest.raises(ValueError, match="vanishing density"):
        O.probability_current_1d(f, CFG40)
