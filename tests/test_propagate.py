"""Propagator oracles: norm preservation, Ehrenfest laws, eigenstate
stationarity, convergence orders, and the cross-check of the analytic
electric-field solution against an independent evolution."""

import math

import numpy as np
import pytest
from scipy.linalg import solve_banded

from fieldquant import grids as G
from fieldquant import propagate as P
from fieldquant import solutions as S
from fieldquant.config import cyclotron_frequency, natural_config
from test_grids import (one_field_expectations, one_field_inner_product, one_field_norm,
                        random_band_limited, reference_expectation)

CFG40 = natural_config(L=40.0)
CFG_PAR = natural_config(B=1.0, geometry="parallel_eb", L=8.0)


def gaussian_packet(grid, sigma=1.0, x0=0.0, p0=0.0):
    x = grid.x
    psi = ((2.0 * math.pi * sigma ** 2) ** -0.25
           * np.exp(-(x - x0) ** 2 / (4.0 * sigma ** 2))
           * np.exp(1j * p0 * x))
    return G.WaveField(grid, psi, 0.0)


def test_evolution_spec_validation():
    for dt in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="time step"):
            P.EvolutionSpec(dt=dt, steps=10)
    with pytest.raises(ValueError):
        P.EvolutionSpec(dt=1e-3, steps=10, cadence=3)
    with pytest.raises(ValueError):
        P.EvolutionSpec(dt=1e-3, steps=10, method="rk4")


def test_cn_requires_walls():
    grid = G.Grid1D(40.0, 256, "periodic")
    with pytest.raises(G.GridMismatchError):
        P.CrankNicolson1D(grid, CFG40, 1e-3)


def test_cn_single_step_norm():
    grid = G.Grid1D(40.0, 512, "dirichlet")
    f0 = gaussian_packet(grid)
    f1 = G.WaveField(grid, P.CrankNicolson1D(grid, CFG40, 1e-3).step(f0.values), 1e-3)
    assert abs(G.norm(f1) - G.norm(f0)) < 1e-12


def test_cn_norm_drift_over_many_steps():
    grid = G.Grid1D(40.0, 256, "dirichlet")
    f0 = gaussian_packet(grid)
    stepper = P.CrankNicolson1D(grid, CFG40, 1e-3)
    v = f0.values.copy()
    for _ in range(10000):
        v = stepper.step(v)
    assert abs(G.norm(G.WaveField(grid, v, 0.0)) - G.norm(f0)) < 1e-10


def test_cn_factored_steps_match_solve_banded_bit_for_bit():
    """Reference: the per-step banded solve, which refactors the matrix."""
    grid = G.Grid1D(40.0, 256, "dirichlet")
    f0 = gaussian_packet(grid, p0=0.5)
    dt, hbar, m = 1e-3, CFG40.hbar, CFG40.mass
    kin_diag = hbar ** 2 / (m * grid.dx ** 2)
    kin_off = -hbar ** 2 / (2.0 * m * grid.dx ** 2)
    lam = 1j * dt / (2.0 * hbar)
    diag = kin_diag - CFG40.charge * CFG40.electric * grid.x
    ab = np.zeros((3, grid.npoints), dtype=complex)
    ab[0, 1:] = lam * kin_off
    ab[1, :] = 1.0 + lam * diag
    ab[2, :-1] = lam * kin_off
    ref = f0.values.copy()
    for _ in range(100):
        rhs = (1.0 - lam * diag) * ref
        rhs[:-1] -= lam * kin_off * ref[1:]
        rhs[1:] -= lam * kin_off * ref[:-1]
        ref = solve_banded((1, 1), ab, rhs)
    got = P.CrankNicolson1D(grid, CFG40, dt).advance(f0.values, 100)
    assert np.array_equal(got, ref)


def test_cn_rejects_non_finite_input():
    grid = G.Grid1D(40.0, 64, "dirichlet")
    values = gaussian_packet(grid).values
    values[10] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        P.CrankNicolson1D(grid, CFG40, 1e-3).step(values)


@pytest.mark.parametrize("bad", ["nan", "overflow"])
def test_cn_advance_checks_the_result_once(bad):
    """A NaN input, or a finite one whose right-hand side overflows (a flat
    1e308 state meets the ~10x explicit half-step at the walls for dt = 1),
    leaves a non-finite result that the one check per advance catches."""
    grid = G.Grid1D(40.0, 64, "dirichlet")
    if bad == "nan":
        values = gaussian_packet(grid).values
        values[10] = np.nan
    else:
        values = np.full(grid.npoints, 1e308 + 0j)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="infs or NaNs"):
        P.CrankNicolson1D(grid, CFG40, 1.0).advance(values, 5)


def test_advance_leaves_the_input_unmodified(landau_eigenstate):
    grid = G.Grid1D(40.0, 256, "dirichlet")
    cases = [(P.CrankNicolson1D(grid, CFG40, 1e-3), gaussian_packet(grid, p0=0.5).values),
             (P.SplitStepYZ(landau_eigenstate[0], CFG_PAR, 0.01), landau_eigenstate[1].values)]
    for stepper, values in cases:
        before = values.copy()
        for steps in (1, 2, 7):
            out = stepper.advance(values, steps)
            assert not np.shares_memory(out, values)
            assert np.array_equal(values, before)


def test_cn_free_particle_spreads_in_place():
    cfg = natural_config(E=0.0, L=40.0)
    grid = G.Grid1D(40.0, 512, "dirichlet")
    f0 = gaussian_packet(grid, sigma=1.0)
    rec = P.evolve(f0, P.EvolutionSpec(dt=1e-3, steps=1000, cadence=250), cfg)
    assert np.max(np.abs(rec.column("x_mean"))) < 1e-10

    def variance(field):
        rho = np.abs(field.values) ** 2
        rho /= rho.sum()
        mu = float(np.sum(grid.x * rho))
        return float(np.sum((grid.x - mu) ** 2 * rho))

    v0 = variance(f0)
    v1 = variance(rec.final)
    assert v1 > v0
    # free Gaussian law: sigma^2(t) = sigma^2 (1 + (t / (2 sigma^2))^2)
    t = rec.final.t
    assert v1 == pytest.approx(v0 * (1.0 + (t / (2.0 * v0)) ** 2), rel=1e-3)


def test_cn_ehrenfest_momentum_growth():
    grid = G.Grid1D(40.0, 1024, "dirichlet")
    f0 = gaussian_packet(grid)
    rec = P.evolve(f0, P.EvolutionSpec(dt=5e-4, steps=2000, cadence=200), CFG40)
    p = rec.column("px_mean")
    t = rec.times
    drift = p - p[0] - t  # q E t with q = E = 1
    assert np.max(np.abs(drift[1:] / t[1:])) < 1e-6


def test_evolve_zero_steps_keeps_initial_row():
    grid = G.Grid1D(40.0, 256, "dirichlet")
    f0 = gaussian_packet(grid)
    rec = P.evolve(f0, P.EvolutionSpec(dt=1e-3, steps=0), CFG40)
    assert len(rec.rows) == 1
    assert rec.rows[0][0] == 0.0
    assert rec.final.t == 0.0


def test_evolve_rejects_zero_norm_fields():
    empty = G.WaveField(G.Grid1D(40.0, 256, "dirichlet"), np.zeros(256), 0.0)
    with pytest.raises(ValueError, match="nonzero norm"):
        P.evolve(empty, P.EvolutionSpec(dt=1e-3, steps=4), CFG40)


def test_evolve_norm_column_constant():
    grid = G.Grid1D(40.0, 256, "dirichlet")
    f0 = gaussian_packet(grid)
    rec = P.evolve(f0, P.EvolutionSpec(dt=1e-3, steps=1000, cadence=100), CFG40)
    norms = rec.column("norm")
    assert np.max(np.abs(norms - norms[0])) < 1e-10
    assert np.all(np.diff(rec.times) > 0)


# --- split step -----------------------------------------------------------------

def test_split_free_plane_wave_exact():
    cfg = natural_config(E=0.0, B=0.0, geometry="parallel_eb", L=8.0)
    g2 = G.Grid2D(G.Grid1D(16.0, 32), G.Grid1D(16.0, 32))
    ky = 2.0 * math.pi * 2 / 16.0
    kz = 2.0 * math.pi * 5 / 16.0
    vals = np.exp(1j * (ky * g2.y.x[:, None] + kz * g2.z.x[None, :]))
    f0 = G.WaveField(g2, vals, 0.0)
    steps, dt = 16, 0.05
    rec = P.evolve(f0, P.EvolutionSpec(dt=dt, steps=steps, cadence=steps,
                                       method="split_yz"), cfg)
    t = steps * dt
    expected = vals * np.exp(-1j * 0.5 * (ky ** 2 + kz ** 2) * t)
    assert np.max(np.abs(rec.final.values - expected)) < 1e-12


def landau_state(npoints):
    g2 = G.landau_grid(CFG_PAR, npoints=npoints, ly=24.0)
    state = S.parallel_family(CFG_PAR, "family_y", 0, G.snap_shift(g2.y, 1.0), box=g2.z.length)
    return g2, G.sample(state, g2, 0.0)


@pytest.fixture(scope="module")
def landau_eigenstate():
    return landau_state(64)


def six_fft_strang_step(grid, cfg, dt, values):
    """Reference: one unfused Strang step back in (y, z), its kicks built from
    A = (hbar k_y)^2 / 2m and B = (hbar k_z - m wc y)^2 / 2m."""
    hbar, m, wc = cfg.hbar, cfg.mass, cyclotron_frequency(cfg)
    half = np.exp(-0.5j * dt * (hbar * grid.y.wavenumbers[:, None]) ** 2 / (2.0 * m * hbar))
    gauge = np.exp(-1j * dt * (hbar * grid.z.wavenumbers[None, :] - m * wc * grid.y.x[:, None]) ** 2
                   / (2.0 * m * hbar))
    v = np.fft.ifft(half * np.fft.fft(values, axis=0), axis=0)
    v = np.fft.ifft(gauge * np.fft.fft(v, axis=1), axis=1)
    return np.fft.ifft(half * np.fft.fft(v, axis=0), axis=0)


# the 64^2 cases keep their bare step-count ids; 48^2 is not a power of two
UNFUSED_CASES = [pytest.param(64, steps, id=str(steps)) for steps in (1, 2, 512)] \
    + [pytest.param(48, steps, id=f"48-{steps}") for steps in (1, 2, 512)]


@pytest.mark.parametrize("npoints, steps", UNFUSED_CASES)
def test_split_advance_matches_unfused_steps(landau_eigenstate, npoints, steps):
    g2, f0 = landau_eigenstate if npoints == 64 else landau_state(npoints)
    rng = np.random.default_rng(3)
    v = f0.values * np.exp(1j * rng.uniform(0.0, 0.1, size=g2.shape))
    dt = P.cyclotron_period(CFG_PAR) / 512
    ref = v
    for _ in range(steps):
        ref = six_fft_strang_step(g2, CFG_PAR, dt, ref)
    got = P.SplitStepYZ(g2, CFG_PAR, dt).advance(v, steps)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(v))


# Reference: the stepping loop as it was before its kicks were stored at full
# shape with the 1/N_y of the inverse y-transform folded in: (1, N_y) row
# kicks broadcast over k_z, and scaled inverse transforms.

def broadcast_kick_advance(grid, cfg, dt, values, steps):
    hbar, m, wc = cfg.hbar, cfg.mass, cyclotron_frequency(cfg)
    a = (hbar * grid.y.wavenumbers) ** 2 / (2.0 * m)
    half = np.exp(-0.5j * dt * a / hbar)[None, :]
    kick = half * half
    b = (hbar * grid.z.wavenumbers[:, None] - m * wc * grid.y.x[None, :]) ** 2 / (2.0 * m)
    gauge = np.exp(-1j * dt * b / hbar)
    fft, ifft = np.fft.fft, np.fft.ifft
    u = np.ascontiguousarray(fft(values, axis=1).T)
    w = np.empty_like(u)
    np.multiply(half, fft(u, out=w), out=w)
    for _ in range(steps - 1):
        np.multiply(gauge, ifft(w, out=u), out=u)
        fft(u, out=w)
        w *= kick
    np.multiply(gauge, ifft(w, out=u), out=u)
    fft(u, out=w)
    w *= half
    ifft(w, out=u)
    v = np.ascontiguousarray(u.T)
    return ifft(v, axis=1, out=v)


def test_split_per_step_kicks_are_full_shape_and_k_y_kicks_prescaled():
    g2 = G.Grid2D(G.Grid1D(24.0, 48), G.Grid1D(16.0, 32))
    stepper = P.SplitStepYZ(g2, CFG_PAR, 0.01)
    for kick in (stepper._kick, stepper._kick_gauge):
        assert kick.shape == (32, 48) and kick.flags.c_contiguous
    # every row of the fused kick is the same k_y kick; both carry 1/N_y
    assert np.array_equal(stepper._kick, np.broadcast_to(stepper._kick[0], (32, 48)))
    assert stepper._half_kick.shape == (1, 48)
    for kick in (stepper._half_kick, stepper._kick):
        assert np.allclose(np.abs(kick), 1.0 / 48, rtol=0, atol=1e-15)


@pytest.mark.parametrize("npoints", [32, 64])
@pytest.mark.parametrize("steps", [1, 2, 512])
def test_split_advance_matches_broadcast_kick_loop_bit_for_bit(npoints, steps):
    """At a power-of-two N_y, dividing by N_y is exact, so folding it into the
    kicks changes no bit."""
    g2 = G.landau_grid(CFG_PAR, npoints=npoints, ly=24.0)
    v = random_band_limited(g2, 11).values
    dt = P.cyclotron_period(CFG_PAR) / 512
    got = P.SplitStepYZ(g2, CFG_PAR, dt).advance(v, steps)
    assert np.array_equal(got, broadcast_kick_advance(g2, CFG_PAR, dt, v, steps))


@pytest.mark.parametrize("grid", [
    pytest.param(G.landau_grid(CFG_PAR, npoints=48, ly=24.0), id="48x48"),
    pytest.param(G.Grid2D(G.Grid1D(24.0, 48), G.Grid1D(16.0, 32)), id="48x32"),
])
@pytest.mark.parametrize("steps", [1, 2, 512])
def test_split_advance_matches_broadcast_kick_loop_at_roundoff(grid, steps):
    """At other N_y the prescaled kicks move the state at roundoff level."""
    v = random_band_limited(grid, 11).values
    dt = P.cyclotron_period(CFG_PAR) / 512
    got = P.SplitStepYZ(grid, CFG_PAR, dt).advance(v, steps)
    ref = broadcast_kick_advance(grid, CFG_PAR, dt, v, steps)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("method", ["cn_1d", "split_yz"])
def test_evolve_cadence_rows_match_every_step_rows(landau_eigenstate, method):
    if method == "cn_1d":
        f0, cfg, dt = gaussian_packet(G.Grid1D(40.0, 256, "dirichlet"), p0=0.5), CFG40, 1e-3
    else:
        f0, cfg, dt = landau_eigenstate[1], CFG_PAR, P.cyclotron_period(CFG_PAR) / 64
    dense = P.evolve(f0, P.EvolutionSpec(dt=dt, steps=64, cadence=1, method=method), cfg)
    sparse = P.evolve(f0, P.EvolutionSpec(dt=dt, steps=64, cadence=8, method=method), cfg)
    assert len(sparse.rows) == 9
    assert np.max(np.abs(np.array(sparse.rows) - np.array(dense.rows[::8]))) < 1e-13
    assert sparse.final.t == dense.final.t


@pytest.mark.parametrize("method", ["cn_1d", "split_yz"])
def test_evolve_rows_match_reference_measurement(method):
    """Every-step rows against rows rebuilt from the per-observable
    reference measurement on the same stepped fields."""
    if method == "cn_1d":
        grid, cfg, dt = G.Grid1D(40.0, 1024, "dirichlet"), CFG40, 1e-3
        f0 = gaussian_packet(grid, sigma=0.7, x0=0.3, p0=0.8)
        names = ("x", "px", "H")
    else:
        grid, cfg = G.landau_grid(CFG_PAR, npoints=64, ly=24.0), CFG_PAR
        f0, dt = random_band_limited(grid, 7), P.cyclotron_period(CFG_PAR) / 64
        names = ("y", "z", "py", "pz", "H")
    spec = P.EvolutionSpec(dt=dt, steps=64, cadence=1, method=method)
    got = np.array(P.evolve(f0, spec, cfg).rows)
    stepper, values, rows = P._make_stepper(f0, spec, cfg), f0.values, []
    for step in range(65):
        if step:
            values = stepper.advance(values, 1)
        f = G.WaveField(grid, values, f0.t + step * dt)
        fid = abs(G.inner_product(f0, f)) / (G.norm(f0) * G.norm(f))
        rows.append([f.t, G.norm(f), *(reference_expectation(n, f, cfg) for n in names), fid])
    ref = np.array(rows)
    for col in (0, 1, -1):  # t, norm and fidelity
        assert np.array_equal(got[:, col], ref[:, col])
    scale = np.max(np.abs(ref), axis=0)
    assert np.all(np.abs(got - ref) <= 1e-13 * scale)


# Reference: evolve as it was before rows were measured in blocks, one row
# at a time through the one-field kernel.

def _record_row(f, cfg, reference, ref_norm):
    n = one_field_norm(f)
    fid = abs(one_field_inner_product(reference, f)) / (ref_norm * n)
    return [f.t, n, *one_field_expectations(P._ROW_OBSERVABLES[f.values.ndim], f, cfg), fid]


def row_by_row_evolve(f0, spec, cfg):
    stepper = P._make_stepper(f0, spec, cfg)
    ref_norm = one_field_norm(f0)
    rows = [_record_row(f0, cfg, f0, ref_norm)]
    values, t = f0.values.copy(), f0.t
    for row in range(1, spec.steps // spec.cadence + 1):
        values = stepper.advance(values, spec.cadence)
        t = f0.t + row * spec.cadence * spec.dt
        rows.append(_record_row(G.WaveField(f0.grid, values, t), cfg, f0, ref_norm))
    return rows, G.WaveField(f0.grid, values, t)


BLOCK_CASES = [
    # (grid points or "landau", steps, cadence): rows per block 32, 8 and 1
    (256, 64, 1), (1024, 64, 1), (8192, 12, 1),
    # 11 rows in blocks of 8, so the last block is partial
    (1024, 99, 9),
    (256, 0, 1),
    # blocks of 2 at 64^2: 65 and 9 rows, both ending on a partial block
    ("landau", 64, 1), ("landau", 64, 8),
]


@pytest.mark.parametrize("n, steps, cadence", BLOCK_CASES,
                         ids=[f"{n}-{steps}-{c}" for n, steps, c in BLOCK_CASES])
def test_evolve_rows_match_row_by_row_measurement_bit_for_bit(landau_eigenstate, n, steps, cadence):
    if n == "landau":
        g2 = landau_eigenstate[0]
        f0, cfg = random_band_limited(g2, 5, t=0.25), CFG_PAR
        spec = P.EvolutionSpec(dt=P.cyclotron_period(cfg) / 64, steps=steps, cadence=cadence,
                               method="split_yz")
    else:
        f0 = gaussian_packet(G.Grid1D(40.0, n, "dirichlet"), sigma=0.7, x0=0.3, p0=0.8)
        f0, cfg = G.WaveField(f0.grid, f0.values, 0.25), CFG40
        spec = P.EvolutionSpec(dt=1e-3, steps=steps, cadence=cadence)
    rows, final = row_by_row_evolve(f0, spec, cfg)
    rec = P.evolve(f0, spec, cfg)
    assert rec.rows == rows
    assert np.array_equal(rec.final.values, final.values)
    assert rec.final.t == final.t
    assert not np.shares_memory(rec.final.values, f0.values)


def test_evolve_raises_on_a_non_finite_state_inside_a_block(monkeypatch):
    """A stepper whose fifth advance alone returns a NaN, so the final field
    is finite again: the block of 32 rows the NaN lands in is refused."""
    f0 = gaussian_packet(G.Grid1D(40.0, 256, "dirichlet"))
    assert P.ROW_BLOCK_BYTES // f0.values.nbytes == 32

    class NanOnFifthAdvance:
        calls = 0

        def advance(self, values, steps):
            self.calls += 1
            out = f0.values.copy()
            if self.calls == 5:
                out[7] = np.nan
            return out

    monkeypatch.setattr(P, "_make_stepper", lambda f0, spec, cfg: NanOnFifthAdvance())
    with pytest.raises(ValueError, match="field contains non-finite samples"):
        P.evolve(f0, P.EvolutionSpec(dt=1e-3, steps=20), CFG40)


def test_split_eigenstate_one_period(landau_eigenstate):
    g2, f0 = landau_eigenstate
    period = P.cyclotron_period(CFG_PAR)
    rec = P.evolve(f0, P.EvolutionSpec(dt=period / 512, steps=512, cadence=512,
                                       method="split_yz"), CFG_PAR)
    overlap = G.inner_product(f0, rec.final) / (G.norm(f0) * G.norm(rec.final))
    assert abs(overlap) > 1.0 - 1e-6
    expected_phase = (-S.landau_level(0, CFG_PAR) * period) % (2.0 * math.pi)
    measured = math.atan2(overlap.imag, overlap.real) % (2.0 * math.pi)
    delta = (measured - expected_phase + math.pi) % (2.0 * math.pi) - math.pi
    assert abs(delta) < 1e-4


def test_split_eigenstate_ten_periods_fidelity(landau_eigenstate):
    g2, f0 = landau_eigenstate
    period = P.cyclotron_period(CFG_PAR)
    rec = P.evolve(f0, P.EvolutionSpec(dt=period / 512, steps=5120, cadence=512,
                                       method="split_yz"), CFG_PAR)
    assert rec.column("fidelity").min() > 1.0 - 1e-5


def test_split_electron_ten_periods_fidelity():
    # q = -1: the gauge kick keeps the sign of wc, the period uses |wc|
    cfg = natural_config(B=1.0, geometry="parallel_eb", L=8.0, q=-1.0)
    g2 = G.landau_grid(cfg, npoints=64, ly=24.0)
    f0 = G.sample(S.parallel_family(cfg, "family_y", 0, G.snap_shift(g2.y, 1.0), box=g2.z.length),
                  g2, 0.0)
    period = P.cyclotron_period(cfg)
    assert period == P.cyclotron_period(CFG_PAR)
    rec = P.evolve(f0, P.EvolutionSpec(dt=period / 512, steps=5120, cadence=512,
                                       method="split_yz"), cfg)
    assert rec.column("fidelity").min() > 1.0 - 1e-5


def test_split_energy_conserved_along_trajectory(landau_eigenstate):
    g2, f0 = landau_eigenstate
    period = P.cyclotron_period(CFG_PAR)
    rec = P.evolve(f0, P.EvolutionSpec(dt=period / 1024, steps=2048, cadence=128,
                                       method="split_yz"), CFG_PAR)
    energy = rec.column("energy")
    assert np.max(np.abs(energy - energy[0])) / abs(energy[0]) < 1e-8


# --- convergence orders ------------------------------------------------------------

def test_richardson_order_cn():
    grid = G.Grid1D(40.0, 1024, "dirichlet")
    f0 = gaussian_packet(grid)
    order = P.estimate_order(f0, 0.5, "cn_1d", CFG40, base_steps=64)
    assert order == pytest.approx(2.0, abs=0.2)


def test_richardson_order_split():
    g2 = G.landau_grid(CFG_PAR, npoints=64, ly=24.0)
    rng = np.random.default_rng(7)
    shape = g2.shape
    spec = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    mask = ((np.abs(g2.y.wavenumbers)[:, None] <= 1.5)
            & (np.abs(g2.z.wavenumbers)[None, :] <= 1.5))
    vals = np.fft.ifft2(spec * mask) * np.exp(-g2.y.x[:, None] ** 2 / 18.0)
    vals /= math.sqrt(float(np.sum(np.abs(vals) ** 2)) * g2.cell)
    f0 = G.WaveField(g2, vals, 0.0)
    order = P.estimate_order(f0, P.cyclotron_period(CFG_PAR), "split_yz", CFG_PAR,
                             base_steps=64)
    assert order == pytest.approx(2.0, abs=0.2)


def test_already_converged_guard():
    cfg = natural_config(E=0.0, B=0.0, geometry="parallel_eb", L=8.0)
    g2 = G.Grid2D(G.Grid1D(16.0, 32), G.Grid1D(16.0, 32))
    f0 = G.WaveField(g2, np.ones(g2.shape, dtype=complex), 0.0)
    with pytest.raises(P.AlreadyConvergedError, match="already converged"):
        P.estimate_order(f0, 1.0, "split_yz", cfg, base_steps=16)


# --- cross-oracle against the analytic solution ---------------------------------------

def test_cn_reproduces_analytic_momentum_evolution():
    """Windowed sample of the plane-wave solution, evolved independently by
    Crank-Nicolson, follows the analytic expectation laws."""
    cfg = CFG40
    grid = G.Grid1D(40.0, 1024, "dirichlet")
    t0 = 0.75
    window = np.exp(-grid.x ** 2 / (2.0 * 16.0))
    vals = S.phi_electric(grid.x, t0, cfg) * window
    f0 = G.WaveField(grid, vals, t0)
    p_start = G.expectation("px", f0, cfg)
    assert p_start == pytest.approx(t0, abs=1e-10)  # phase gradient is q E t0
    x_start = G.expectation("x", f0, cfg)

    horizon = 1.0
    rec = P.evolve(f0, P.EvolutionSpec(dt=5e-4, steps=2000, cadence=2000), cfg)
    f1 = rec.final
    p_end = G.expectation("px", f1, cfg)
    x_end = G.expectation("x", f1, cfg)
    assert abs(p_end - (t0 + horizon)) < 1e-5
    # <x>(T) = <x>(0) + <p>(0) T + q E T^2 / 2m; the drift speed of the CN
    # trajectory is sin(k dx)/dx, so the position law carries the O(dx^2)
    # dispersion of the three-point kinetic stencil
    assert abs(x_end - (x_start + p_start * horizon + 0.5 * horizon ** 2)) < 1e-3
