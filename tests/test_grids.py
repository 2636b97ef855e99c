"""Grid sampling, discrete operators, residuals, and quadrature properties."""

import math
import tracemalloc

import numpy as np
import pytest

from fieldquant import grids as G
from fieldquant import solutions as S
from fieldquant import verify as V
from fieldquant.config import cyclotron_frequency, natural_config
from fieldquant.symmetry import Unitary, apply_unitary

CFG = natural_config(L=8.0)
CFG_PAR = natural_config(B=1.0, geometry="parallel_eb", L=8.0)
GRID = G.Grid1D(8.0, 256, "periodic")


# --- grids and sampling ------------------------------------------------------

def test_grid_validation():
    with pytest.raises(ValueError):
        G.Grid1D(8.0, 8)
    with pytest.raises(ValueError):
        G.Grid1D(8.0, 64, "absorbing")
    with pytest.raises(ValueError):
        G.Grid1D(-1.0, 64)


def test_grid_spacing_exact():
    g = G.Grid1D(8.0, 256)
    assert g.dx * g.npoints == 8.0
    assert g.x.shape == (256,)
    assert g.x[0] == -4.0


def test_field_shape_guard():
    with pytest.raises(G.GridMismatchError):
        G.WaveField(GRID, np.zeros(100, dtype=complex))
    with pytest.raises(ValueError, match="non-finite"):
        G.WaveField(GRID, np.full(256, np.nan, dtype=complex))


@pytest.mark.parametrize("grid", [GRID, G.landau_grid(CFG_PAR, npoints=32, ly=24.0)],
                         ids=["1d", "landau"])
def test_grids_share_one_interface(grid):
    """axes, shape, cell and coords describe a grid of either dimension, so
    quadrature and axis lookups need no test of the grid type."""
    rng = np.random.default_rng(5)
    values = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    f = G.WaveField(grid, values, 0.0)
    assert len(grid.axes) == len(grid.coords) == values.ndim
    assert np.broadcast_shapes(*(c.shape for c in grid.coords)) == grid.shape
    for axis, coord in zip(grid.axes, grid.coords):
        assert np.array_equal(coord.ravel(), axis.x)
    assert np.sum(np.abs(values) ** 2) * grid.cell == pytest.approx(G.norm(f) ** 2, rel=1e-13)
    for missing in (len(grid.axes), -1):
        with pytest.raises(G.GridMismatchError, match=f"has no axis {missing}"):
            G.apply_momentum(f, CFG_PAR, axis=missing)


def test_sample_constant_at_t0():
    f = G.sample(S.electric_fundamental(CFG), GRID, 0.0)
    assert np.allclose(f.values, 1.0 / math.sqrt(8.0))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_sampled_norm_at_commensurate_times(k):
    t = G.commensurate_time(CFG, GRID, k)
    f = G.sample(S.electric_fundamental(CFG), GRID, t)
    assert abs(G.norm(f) - 1.0) < 1e-10


def test_oscillator_sample_norm():
    # box of 16 oscillator lengths comfortably exceeds the 12-length bound
    cfg = natural_config(B=1.0, geometry="parallel_eb", L=16.0)
    grid = G.Grid1D(16.0, 256, "periodic")
    for n in range(4):
        f = G.sample(S.oscillator_1d(cfg, n), grid, 0.0)
        assert abs(G.norm(f) - 1.0) < 1e-8


def test_nyquist_violation_names_admissible_time():
    phi = S.electric_fundamental(CFG)
    with pytest.raises(G.NyquistError) as err:
        G.sample(phi, GRID, 1e4)
    message = str(err.value)
    assert "maximum admissible t" in message
    tmax = float(message.rsplit("is", 1)[1])
    assert tmax == pytest.approx(0.5 * GRID.nyquist, rel=1e-6)
    G.sample(phi, GRID, tmax - 0.1)  # just inside the bound is fine


def test_ut_shifted_state_is_guarded_at_its_own_time_origin():
    """Ut(200) phi carries wavenumber 200 at t = 0, past 0.5 * Nyquist =
    50.27, and 50 at t = 250: the electric bound is measured from the time
    origin that Ut moves."""
    phi = apply_unitary(Unitary("Ut", 200.0), S.electric_fundamental(CFG), CFG)
    with pytest.raises(G.NyquistError) as err:
        G.sample(phi, GRID, 0.0)
    assert str(err.value).endswith("maximum admissible t is 250.265")
    G.sample(phi, GRID, 250.0)


def test_nan_wavenumber_is_refused():
    """inf - inf gives a NaN wavenumber, which no bound admits."""
    with pytest.raises(G.NyquistError, match="wavenumber nan exceeds"):
        G.sample(S.electric_shifted(CFG, math.inf), GRID, math.inf)


def test_commensurate_time_formula():
    assert G.commensurate_time(CFG, GRID, 3) == pytest.approx(6.0 * math.pi / 8.0)


def test_commensurate_time_needs_a_field():
    with pytest.raises(ValueError, match="nonzero electric field"):
        G.commensurate_time(natural_config(E=0.0), GRID, 1)


def test_landau_grid_rejects_bad_box_length():
    for ly in (0.0, -24.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite positive ly"):
            G.landau_grid(CFG_PAR, npoints=64, ly=ly)


def test_landau_grid_commensurate():
    g2 = G.landau_grid(CFG_PAR, npoints=64, ly=24.0)
    # both gauge plane-wave phases lie on the grid
    assert g2.z.dx * g2.y.length == pytest.approx(2.0 * math.pi)
    assert g2.y.dx * g2.z.length == pytest.approx(2.0 * math.pi)


def test_snap_helpers():
    g = G.Grid1D(8.0, 256)
    assert G.snap_shift(g, 0.1) == pytest.approx(round(0.1 / g.dx) * g.dx)
    off = G.snap_offset(g, 0.7)
    assert abs((off - g.x[0]) / g.dx - round((off - g.x[0]) / g.dx)) < 1e-12


@pytest.mark.parametrize("length, value", [(8.0, math.inf), (8.0, -math.inf),
                                           (8.0, math.nan), (1e-300, 1e300)])
def test_snap_rejects_values_off_the_float_lattice(length, value):
    g = G.Grid1D(length, 16)
    for snap in (G.snap_shift, G.snap_offset):
        with pytest.raises(ValueError, match="cannot snap"):
            snap(g, value)


# --- momentum and Hamiltonian actions --------------------------------------------

def test_spectral_momentum_on_plane_wave():
    k = 2.0 * math.pi * 5 / GRID.length
    f = G.WaveField(GRID, np.exp(1j * k * GRID.x), 0.0)
    pf = G.apply_momentum(f, CFG)
    assert np.max(np.abs(pf.values - k * f.values)) < 1e-12


def test_momentum_kills_constant():
    """The spectral multiplier (periodic axis), the stencil away from the
    walls (wall axis) and the stencil derivative on a periodic axis."""
    for grid in (GRID, _WALL):
        pf = G.apply_momentum(G.WaveField(grid, np.ones(grid.npoints, dtype=complex), 0.0), CFG)
        assert np.max(np.abs(pf.values[G.interior(grid)])) < 1e-12
    assert np.max(np.abs(G.derivative(np.ones(256, dtype=complex), GRID))) < 1e-12


def test_fd4_momentum_fourth_order():
    """Halving dx cuts the stencil error ~16x: the derivative on a periodic
    axis, and the momentum of a wall axis away from its walls."""
    k = 2.0 * math.pi * 3 / 8.0
    for boundary in ("periodic", "dirichlet"):
        errs = []
        for n in (64, 128):
            g = G.Grid1D(8.0, n, boundary)
            f = G.WaveField(g, np.exp(1j * k * g.x), 0.0)
            if boundary == "periodic":
                pv = -1j * CFG.hbar * G.derivative(f.values, g)
            else:
                pv = G.apply_momentum(f, CFG).values
            errs.append(np.max(np.abs(pv - k * f.values)[G.interior(g)]))
        ratio = errs[0] / errs[1]
        assert 12.0 < ratio < 20.0, boundary


def _reference_neighbour(values, k, periodic, axis):
    """values[i + k] along ``axis``: np.roll, with the wrapped cells zeroed
    beyond a wall."""
    out = np.roll(values, -k, axis=axis)
    if not periodic:
        cut = [slice(None)] * values.ndim
        cut[axis] = slice(-k, None) if k > 0 else slice(None, -k)
        out[tuple(cut)] = 0.0
    return out


_WALL = G.Grid1D(8.0, 64, "dirichlet")
_RING = G.Grid1D(6.0, 48, "periodic")


@pytest.mark.parametrize("grid, axis", [
    (_RING, 0), (_WALL, 0), (G.Grid2D(y=_RING, z=_WALL), 0), (G.Grid2D(y=_RING, z=_WALL), 1),
    (G.Grid2D(y=_WALL, z=_RING), 0), (G.Grid2D(y=_WALL, z=_RING), 1)])
def test_fd4_stencils_read_rolled_or_zero_filled_neighbours_bit_for_bit(grid, axis):
    """derivative equals the stencil written out on np.roll neighbours (zero
    beyond a wall), in the same operand order.  apply_momentum and
    apply_kinetic equal the stencils on a wall axis and the spectral
    multipliers (hbar k)^p written out on a periodic one."""
    cfg = natural_config(m=2.0, L=8.0)
    rng = np.random.default_rng(11)
    values = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    ag = grid.axes[axis]
    periodic = ag.boundary == "periodic"
    s = lambda k: _reference_neighbour(values, k, periodic, axis)
    d1 = (-s(2) + 8.0 * s(1) - 8.0 * s(-1) + s(-2)) / (12.0 * ag.dx)
    d2 = (-s(2) + 16.0 * s(1) - 30.0 * values + 16.0 * s(-1) - s(-2)) / (12.0 * ag.dx ** 2)
    assert np.array_equal(G.derivative(values, ag, axis), d1)
    if periodic:
        shape = [1] * values.ndim
        shape[axis] = ag.npoints
        hk = cfg.hbar * ag.wavenumbers.reshape(shape)
        p1, p2 = (np.fft.ifft(hk ** p * np.fft.fft(values, axis=axis), axis=axis) for p in (1, 2))
    else:
        p1, p2 = -1j * cfg.hbar * d1, -cfg.hbar ** 2 * d2
    f = G.WaveField(grid, values, 0.0)
    assert np.array_equal(G.apply_momentum(f, cfg, axis).values, p1)
    assert np.array_equal(G.apply_kinetic(f, cfg, axis), p2 / (2.0 * cfg.mass))


def test_interior_drops_the_wall_band_only_on_a_wall_bounded_1d_grid():
    band = G.DIRICHLET_BAND
    assert G.interior(_WALL) == slice(band, -band)
    assert np.array_equal(np.arange(64)[G.interior(_WALL)], np.arange(band, 64 - band))
    assert G.interior(_RING) == slice(None)
    grid2 = G.landau_grid(CFG_PAR, npoints=16)
    assert np.zeros(grid2.shape)[G.interior(grid2)].shape == grid2.shape


def test_wall_axis_gets_the_stencil():
    """On a wall-bounded axis momentum and the 1D Hamiltonian act through the
    fd4 stencils (zero beyond the walls), not the Fourier multiplier."""
    rng = np.random.default_rng(3)
    f = G.WaveField(_WALL, rng.normal(size=64) + 1j * rng.normal(size=64), 0.0)
    assert np.array_equal(G.apply_momentum(f, CFG).values,
                          -1j * CFG.hbar * G.derivative(f.values, _WALL))
    spectral = G.fourier_multiply(f.values, _WALL, lambda k: CFG.hbar * k, 0)
    assert not np.allclose(G.apply_momentum(f, CFG).values, spectral)
    kinetic = G.apply_kinetic(f, CFG)
    assert np.array_equal(G.apply_hamiltonian_1d(f, CFG).values,
                          kinetic - CFG.charge * CFG.electric * _WALL.x * f.values)


@pytest.mark.parametrize("label, grid, axis", [
    ("1d", G.Grid1D(8.0, 256, "periodic"), 0),
    ("2d-y", G.landau_grid(CFG_PAR, npoints=32, ly=24.0), 0),
    ("2d-z", G.Grid2D(G.Grid1D(24.0, 48), G.Grid1D(10.0, 32)), 1),
])
def test_fourier_multiply_equals_the_unbuffered_transforms_bit_for_bit(label, grid, axis):
    """Reference: ifft(m * fft(v)) with a new array per transform."""
    values = random_band_limited(grid, 4).values
    ag = grid.axes[axis]
    shape = [1] * values.ndim
    shape[axis] = ag.npoints
    k = ag.wavenumbers.reshape(shape)
    for multiplier in (lambda k: CFG.hbar * k, lambda k: np.exp(-1j * k * 0.37)):
        ref = np.fft.ifft(multiplier(k) * np.fft.fft(values, axis=axis), axis=axis)
        assert np.array_equal(G.fourier_multiply(values, ag, multiplier, axis), ref)


def test_hamiltonian_1d_on_plane_wave():
    k = 2.0 * math.pi * 4 / GRID.length
    f = G.WaveField(GRID, np.exp(1j * k * GRID.x), 0.0)
    hf = G.apply_hamiltonian_1d(f, CFG)
    expected = (0.5 * k ** 2 - GRID.x) * f.values
    assert np.max(np.abs(hf.values - expected)) < 1e-11


def test_hamiltonian_yz_eigenstate():
    g2 = G.landau_grid(CFG_PAR, npoints=64, ly=24.0)
    state = S.parallel_family(CFG_PAR, "family_y", 0, G.snap_shift(g2.y, 0.5), box=g2.z.length)
    f = G.sample(state, g2, 0.0)
    hf = G.apply_hamiltonian_yz(f, CFG_PAR)
    e0 = S.landau_level(0, CFG_PAR)
    assert np.max(np.abs(hf.values - e0 * f.values)) < 1e-10 * np.max(np.abs(f.values))


def _landau_energies(q):
    """<H_yz> of both families, n = 0..3, on the 96^2 grid, with residuals."""
    cfg = natural_config(B=1.0, geometry="parallel_eb", L=8.0, q=q)
    g2 = G.landau_grid(cfg, npoints=96, ly=24.0)
    dy, dz = G.snap_shift(g2.y, 1.0), G.snap_offset(g2.z, 0.7)
    energies, residuals = [], []
    for n in range(4):
        for state in (S.parallel_family(cfg, "family_y", n, dy, box=g2.z.length),
                      S.parallel_family(cfg, "family_z", n, dz, box=g2.y.length)):
            energies.append(G.expectation("H", G.sample(state, g2, 0.0), cfg))
            residuals.append(G.schrodinger_residual(state, g2, 0.3, 1e-4))
    return cfg, np.array(energies), np.array(residuals)


def test_electron_landau_energies_match_the_positive_charge():
    cfg_e, e_minus, r_minus = _landau_energies(-1.0)
    _, e_plus, r_plus = _landau_energies(1.0)
    levels = np.repeat([S.landau_level(n, cfg_e) for n in range(4)], 2)
    assert levels[0] == 0.5
    assert np.all(np.abs(e_minus - levels) <= 1e-6 * levels)
    assert np.all(np.abs(e_minus - e_plus) <= 1e-12 * levels)
    assert np.all(r_minus < 1e-6)
    assert np.all(np.abs(r_minus - r_plus) <= 1e-3 * r_plus)


def test_hamiltonian_dimension_guards():
    f1 = G.WaveField(GRID, np.ones(256, dtype=complex), 0.0)
    with pytest.raises(G.GridMismatchError):
        G.apply_hamiltonian_yz(f1, CFG_PAR)
    g2 = G.landau_grid(CFG_PAR, npoints=32, ly=24.0)
    f2 = G.WaveField(g2, np.ones(g2.shape, dtype=complex), 0.0)
    with pytest.raises(G.GridMismatchError):
        G.apply_hamiltonian_1d(f2, CFG)


@pytest.mark.parametrize("grid", [G.Grid2D(y=_RING, z=_WALL), G.Grid2D(y=_WALL, z=_RING)],
                         ids=["z-wall", "y-wall"])
def test_hamiltonian_yz_refuses_a_wall_axis(grid):
    """The gauge twist is exact on periodic axes only, so a wall axis is
    refused rather than given the stencil."""
    f = G.WaveField(grid, np.ones(grid.shape, dtype=complex), 0.0)
    with pytest.raises(G.GridMismatchError, match="periodic 2D field"):
        G.apply_hamiltonian_yz(f, CFG_PAR)


# --- quadrature properties --------------------------------------------------------

def test_fourier_modes_exactly_orthogonal():
    for j, k in ((0, 1), (2, 5), (7, 8)):
        a = G.WaveField(GRID, np.exp(2j * math.pi * j * GRID.x / 8.0), 0.0)
        b = G.WaveField(GRID, np.exp(2j * math.pi * k * GRID.x / 8.0), 0.0)
        assert abs(G.inner_product(a, b)) < 1e-12


def test_grid_mismatch_inner_product():
    a = G.WaveField(GRID, np.ones(256, dtype=complex), 0.0)
    b = G.WaveField(G.Grid1D(8.0, 128), np.ones(128, dtype=complex), 0.0)
    with pytest.raises(G.GridMismatchError):
        G.inner_product(a, b)


def test_oscillator_orthonormality():
    cfg = natural_config(B=1.0, geometry="parallel_eb", L=16.0)
    grid = G.Grid1D(16.0, 256, "periodic")
    fields = [G.sample(S.oscillator_1d(cfg, n), grid, 0.0) for n in range(6)]
    for m in range(6):
        for n in range(6):
            ip = G.inner_product(fields[m], fields[n])
            assert abs(ip - (1.0 if m == n else 0.0)) < 1e-8


def test_hamiltonian_hermitian_on_random_fields():
    rng = np.random.default_rng(11)
    k = GRID.wavenumbers
    for _ in range(4):
        spec_a = (rng.normal(size=256) + 1j * rng.normal(size=256)) * (np.abs(k) < 12)
        spec_b = (rng.normal(size=256) + 1j * rng.normal(size=256)) * (np.abs(k) < 12)
        a = G.WaveField(GRID, np.fft.ifft(spec_a), 0.0)
        b = G.WaveField(GRID, np.fft.ifft(spec_b), 0.0)
        lhs = G.inner_product(a, G.apply_hamiltonian_1d(b, CFG))
        rhs = G.inner_product(b, G.apply_hamiltonian_1d(a, CFG))
        assert abs(lhs - rhs.conjugate()) < 1e-10


def test_hamiltonian_yz_hermitian_on_random_fields():
    g2 = G.landau_grid(CFG_PAR, npoints=32, ly=24.0)
    rng = np.random.default_rng(5)
    shape = g2.shape
    mask = ((np.abs(g2.y.wavenumbers)[:, None] < 4)
            & (np.abs(g2.z.wavenumbers)[None, :] < 4))
    a = G.WaveField(g2, np.fft.ifft2((rng.normal(size=shape) + 1j * rng.normal(size=shape)) * mask), 0.0)
    b = G.WaveField(g2, np.fft.ifft2((rng.normal(size=shape) + 1j * rng.normal(size=shape)) * mask), 0.0)
    lhs = G.inner_product(a, G.apply_hamiltonian_yz(b, CFG_PAR))
    rhs = G.inner_product(b, G.apply_hamiltonian_yz(a, CFG_PAR))
    assert abs(lhs - rhs.conjugate()) < 1e-10


# --- expectations --------------------------------------------------------------------

def test_momentum_expectation_tracks_field():
    t = G.commensurate_time(CFG, GRID, 2)
    f = G.sample(S.electric_fundamental(CFG), GRID, t)
    assert abs(G.expectation("px", f, CFG) - t) < 1e-8
    # the conserved pi_x = px - q E t
    assert abs(G.expectation("px", f, CFG) - CFG.charge * CFG.electric * f.t) < 1e-8


def test_landau_energy_expectation():
    g2 = G.landau_grid(CFG_PAR, npoints=64, ly=24.0)
    state = S.parallel_family(CFG_PAR, "family_y", 2, G.snap_shift(g2.y, 1.0), box=g2.z.length)
    f = G.sample(state, g2, 0.0)
    assert G.expectation("H", f, CFG_PAR) == pytest.approx(2.5, abs=1e-6)


def test_gauge_momentum_expectations():
    g2 = G.landau_grid(CFG_PAR, npoints=64, ly=24.0)
    dy = G.snap_shift(g2.y, 0.75)
    fy = G.sample(S.parallel_family(CFG_PAR, "family_y", 0, dy, box=g2.z.length), g2, 0.0)
    # the conserved pi_z = pz and pi_y = py - m wc z
    assert G.expectation("pz", fy, CFG_PAR) == pytest.approx(dy, abs=1e-10)
    dz = G.snap_offset(g2.z, 0.7)
    fz = G.sample(S.parallel_family(CFG_PAR, "family_z", 1, dz, box=g2.y.length), g2, 0.0)
    pi_y = (G.expectation("py", fz, CFG_PAR)
            - CFG_PAR.mass * cyclotron_frequency(CFG_PAR) * G.expectation("z", fz, CFG_PAR))
    assert pi_y == pytest.approx(-dz, abs=1e-10)


def test_unknown_observable():
    f = G.sample(S.electric_fundamental(CFG), GRID, 0.0)
    with pytest.raises(ValueError, match="unknown 1D observable"):
        G.expectation("spin", f, CFG)
    with pytest.raises(ValueError, match="unknown 1D observable 'py'"):
        G.expectation("py", f, CFG)
    g2 = G.landau_grid(CFG_PAR, npoints=32, ly=24.0)
    f2 = G.WaveField(g2, np.ones(g2.shape, dtype=complex), 0.0)
    with pytest.raises(ValueError, match="unknown 2D observable 'x'"):
        G.expectation("x", f2, CFG_PAR)
    for empty in (G.WaveField(GRID, np.zeros(256, dtype=complex), 0.0),
                  G.WaveField(g2, np.zeros(g2.shape, dtype=complex), 0.0)):
        with pytest.raises(ValueError, match="empty field"):
            G.expectation("H", empty, CFG_PAR)


# Reference: the measurement as it was before the spectral-moment kernel,
# one forward and one inverse FFT per observable.

def _measured_momentum(f, cfg, axis=0):
    """Fourier momentum action on the raw samples, regardless of boundary tag."""
    ag = f.grid.axes[axis]
    k = ag.wavenumbers
    shape = [1] * f.values.ndim
    shape[axis] = k.size
    fk = np.fft.fft(f.values, axis=axis)
    return np.fft.ifft(cfg.hbar * k.reshape(shape) * fk, axis=axis)


def _measured_kinetic(f, cfg, axis=0):
    ag = f.grid.axes[axis]
    k = ag.wavenumbers
    shape = [1] * f.values.ndim
    shape[axis] = k.size
    fk = np.fft.fft(f.values, axis=axis)
    return np.fft.ifft((cfg.hbar * k.reshape(shape)) ** 2 * fk, axis=axis) / (2.0 * cfg.mass)


def reference_expectation(opname, f, cfg):
    n2 = G.inner_product(f, f).real
    dv = f.grid.cell
    if isinstance(f.grid, G.Grid1D):
        if opname == "x":
            return float(np.sum(f.grid.x * np.abs(f.values) ** 2) * dv / n2)
        if opname in ("px", "pi_x"):
            pv = _measured_momentum(f, cfg, 0)
            px = float((np.sum(np.conj(f.values) * pv) * dv).real / n2)
            return px if opname == "px" else px - cfg.charge * cfg.electric * f.t
        assert opname == "H"
        kin = _measured_kinetic(f, cfg, 0)
        pot = -cfg.charge * cfg.electric * f.grid.x * f.values
        return float((np.sum(np.conj(f.values) * (kin + pot)) * dv).real / n2)
    yy = f.grid.y.x[:, None]
    zz = f.grid.z.x[None, :]
    if opname in ("y", "z"):
        w = yy if opname == "y" else zz
        return float(np.sum(w * np.abs(f.values) ** 2) * dv / n2)
    if opname in ("py", "pz", "pi_z"):
        pv = _measured_momentum(f, cfg, 0 if opname == "py" else 1)
        return float((np.sum(np.conj(f.values) * pv) * dv).real / n2)
    if opname == "pi_y":
        py = _measured_momentum(f, cfg, 0)
        wc = cyclotron_frequency(cfg)
        val = np.sum(np.conj(f.values) * (py - cfg.mass * wc * zz * f.values)) * dv
        return float(val.real / n2)
    assert opname == "H"
    return G.inner_product(f, G.apply_hamiltonian_yz(f, cfg)).real / n2


def _one_field_value(names, f, cfg, position, moment):
    """The named values of one field from its position and spectral-moment
    rules; the rules differ between the references below."""
    out = []
    for name in names:
        axis = 1 if name.endswith("z") else 0
        if name in ("x", "y", "z"):
            val = position(axis)
        elif name in ("px", "py", "pz", "pi_z"):
            val = moment(axis, 1)
        elif name == "pi_x":
            val = moment(0, 1) - cfg.charge * cfg.electric * f.t
        elif name == "pi_y":
            val = moment(0, 1) - cfg.mass * cyclotron_frequency(cfg) * position(1)
        elif f.values.ndim == 1:
            val = moment(0, 2) / (2.0 * cfg.mass) - cfg.charge * cfg.electric * position(0)
        else:
            val = (moment(0, 2) + moment(1, 2, twisted=True)) / (2.0 * cfg.mass)
        out.append(val)
    return out


def _axes(f):
    return (f.grid,) if f.values.ndim == 1 else (f.grid.y, f.grid.z)


# Reference: the one-field kernel written out for a single field, one pass
# per quantity; the stacked kernel must equal it bit for bit.

def _density_marginal(f, axis):
    d = f.values.real ** 2 + f.values.imag ** 2
    return d if f.values.ndim == 1 else np.sum(d, axis=1 - axis)


def one_field_inner_product(a, b):
    return complex(np.vdot(a.values, b.values) * a.grid.cell)


def one_field_norm(f):
    return math.sqrt(np.sum(_density_marginal(f, 0)) * f.grid.cell)


def one_field_expectations(names, f, cfg, spectra=None):
    """``spectra``: the py and pz weights a stepper hands over with a 2D
    field, used in place of the y- and z-FFTs (not the twisted one)."""
    dv = f.grid.cell
    n2 = np.sum(_density_marginal(f, 0)) * dv

    def position(axis):
        return float(np.dot(_axes(f)[axis].x, _density_marginal(f, axis)) * dv / n2)

    def moment(axis, power, twisted=False):
        if spectra is not None and not twisted:
            w = spectra[axis]
        else:
            v = np.conj(G.gauge_twist(f.grid, cfg)) * f.values if twisted else f.values
            spectrum = np.fft.fft(v, axis=axis)
            # re^2 + im^2 in the spectrum's own buffer: a dot with that strided
            # view sums in another order than one with a contiguous copy
            w = spectrum.real
            w **= 2
            w += spectrum.imag ** 2
            if f.values.ndim == 2:
                w = w.sum(axis=1 - axis)
        ag = _axes(f)[axis]
        scale = cfg.hbar ** power * (dv / ag.npoints / n2)
        return float(np.dot(ag.wavenumbers ** power, w) * scale)

    return _one_field_value(names, f, cfg, position, moment)


# Reference: the kernel before one pass per quantity (conj(v) v norms and
# overlaps, |v|^2 by hypot, weights scaled before their dot); the stacked
# kernel stays within roundoff of it.

def parent_inner_product(a, b):
    return complex(np.sum(np.conj(a.values) * b.values) * a.grid.cell)


def parent_norm(f):
    return math.sqrt(max(parent_inner_product(f, f).real, 0.0))


def parent_expectations(names, f, cfg):
    n2 = parent_inner_product(f, f).real
    ndim = f.values.ndim
    dv = f.grid.cell
    coords = (f.grid.x,) if ndim == 1 else (f.grid.y.x[:, None], f.grid.z.x[None, :])

    def position(axis):
        return float(np.sum(coords[axis] * np.abs(f.values) ** 2) * dv / n2)

    def moment(axis, power, twisted=False):
        v = np.conj(G.gauge_twist(f.grid, cfg)) * f.values if twisted else f.values
        w = np.abs(np.fft.fft(v, axis=axis)) ** 2
        if ndim == 2:
            w = w.sum(axis=1 - axis)
        w = w * (dv / _axes(f)[axis].npoints)
        return float(np.dot((cfg.hbar * _axes(f)[axis].wavenumbers) ** power, w)) / n2

    return _one_field_value(names, f, cfg, position, moment)


NAMES_1D = ("x", "px", "H")
NAMES_2D = ("y", "z", "py", "pz", "H")
# the conserved momenta pi_x = px - q E t, pi_y = py - m wc z and pi_z = pz,
# formed from the kernel's values and checked against every reference
PI_NAMES = {1: ("pi_x",), 2: ("pi_y", "pi_z")}


def kernel_pi(values, i, f, cfg):
    """The conserved momenta of field ``i`` from the kernel's values, operation
    for operation as the kernel formed them (with ``f.t`` for each time)."""
    if f.values.ndim == 1:
        return [float(values["px"][i] - cfg.charge * cfg.electric * f.t)]
    wc = cyclotron_frequency(cfg)
    return [float(values["py"][i] - cfg.mass * wc * values["z"][i]), float(values["pz"][i])]


def random_band_limited(grid, seed, t=0.0):
    """A seeded random state: Fourier modes |k| < 4 on every axis under a
    Gaussian envelope that keeps it clear of the box edges."""
    rng = np.random.default_rng(seed)
    axes = (grid,) if isinstance(grid, G.Grid1D) else (grid.y, grid.z)
    shape = tuple(a.npoints for a in axes)
    spec = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    envelope = np.ones(shape)
    for i, a in enumerate(axes):
        index = [None] * len(axes)
        index[i] = slice(None)
        spec = spec * (np.abs(a.wavenumbers) < 4)[tuple(index)]
        envelope = envelope * np.exp(-(a.x / (0.15 * a.length)) ** 2)[tuple(index)]
    values = np.fft.ifftn(spec) * envelope * rng.uniform(0.5, 3.0)
    return G.WaveField(grid, values, t)


KERNEL_CASES = [
    ("periodic", G.Grid1D(8.0, 256, "periodic"), CFG, NAMES_1D),
    ("dirichlet", G.Grid1D(40.0, 512, "dirichlet"), natural_config(L=40.0), NAMES_1D),
    ("landau", G.landau_grid(CFG_PAR, npoints=64, ly=24.0), CFG_PAR, NAMES_2D),
    # unequal axes, so a weight normalized by the wrong axis length shows
    ("rect", G.Grid2D(G.Grid1D(24.0, 48), G.Grid1D(10.0, 32)), CFG_PAR, NAMES_2D),
]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("label, grid, cfg, names", KERNEL_CASES, ids=[c[0] for c in KERNEL_CASES])
def test_expectations_match_reference_measurement(label, grid, cfg, names, seed):
    f = random_band_limited(grid, seed, t=0.1 * seed)
    values = G.stack_expectations(grid, f.values[None], cfg)[1]
    got = [float(values[name][0]) for name in names]
    pi_names = PI_NAMES[len(grid.axes)]
    for name, value in zip(names + pi_names, got + kernel_pi(values, 0, f, cfg)):
        ref = reference_expectation(name, f, cfg)
        assert abs(value - ref) <= 1e-13 * max(1.0, abs(ref)), name
    # one kernel call equals the per-name calls bit for bit
    assert got == [G.expectation(name, f, cfg) for name in names]


@pytest.mark.parametrize("label, grid, cfg, names", KERNEL_CASES, ids=[c[0] for c in KERNEL_CASES])
def test_stacked_expectations_equal_one_field_calls(label, grid, cfg, names):
    """Five fields at five times measured in one stacked call equal the
    one-field kernel on each, bit for bit: every name, the conserved
    momenta formed from them (pi_x reads each field's own time), the norms
    and the overlaps with a reference."""
    fields = [random_band_limited(grid, seed, t=0.3 * seed - 0.4) for seed in range(5)]
    stack = np.array([f.values for f in fields])
    reference = random_band_limited(grid, 11)
    norms, values, overlaps = G.stack_expectations(grid, stack, cfg, reference=reference.values)
    # every observable of the field dimension, in order, over the whole stack
    assert tuple(values) == G.OBSERVABLES[len(grid.axes)] == names
    assert all(v.shape == (len(fields),) for v in values.values())
    for i, f in enumerate(fields):
        got = [float(values[name][i]) for name in names]
        assert got == one_field_expectations(names, f, cfg)
        assert got == [G.expectation(name, f, cfg) for name in names]
        pi_names = PI_NAMES[len(grid.axes)]
        assert kernel_pi(values, i, f, cfg) == one_field_expectations(pi_names, f, cfg)
        assert norms[i] == one_field_norm(f) == G.norm(f)
        assert complex(overlaps[i]) == one_field_inner_product(reference, f)
        assert complex(overlaps[i]) == G.inner_product(reference, f)


@pytest.mark.parametrize("label, grid, cfg, names", KERNEL_CASES, ids=[c[0] for c in KERNEL_CASES])
def test_kernel_stays_within_roundoff_of_the_parent_kernel(label, grid, cfg, names):
    """Norms, positions, momenta, energies and overlaps of five fields move
    from the parent kernel's by at most 1e-13 of each column's largest value."""
    fields = [random_band_limited(grid, seed, t=0.3 * seed - 0.4) for seed in range(5)]
    reference = random_band_limited(grid, 11)
    norms, values, overlaps = G.stack_expectations(
        grid, np.array([f.values for f in fields]), cfg, reference=reference.values)
    pi_names = PI_NAMES[len(grid.axes)]
    got = np.array([[norms[i], *(values[n][i] for n in names), *kernel_pi(values, i, f, cfg)]
                    for i, f in enumerate(fields)])
    ref = np.array([[parent_norm(f), *parent_expectations(names + pi_names, f, cfg)]
                    for f in fields])
    assert np.all(np.abs(got - ref) <= 1e-13 * np.max(np.abs(ref), axis=0))
    parent_overlaps = np.array([parent_inner_product(reference, f) for f in fields])
    assert np.all(np.abs(overlaps - parent_overlaps) <= 1e-13 * np.max(np.abs(parent_overlaps)))


BLOCK_PEAKS = [
    # (grid, config, fields per ROW_BLOCK_BYTES block, the parent kernel's peak in block bytes)
    (G.landau_grid(CFG_PAR, npoints=64, ly=24.0), CFG_PAR, 2, 3.02),
    (G.Grid1D(40.0, 8192, "dirichlet"), natural_config(L=40.0), 1, 2.52),
    (G.Grid1D(40.0, 1024, "dirichlet"), natural_config(L=40.0), 8, 2.65),
]


@pytest.mark.parametrize("grid, cfg, nfields, parent_peak", BLOCK_PEAKS,
                         ids=["64x64x2", "8192x1", "1024x8"])
def test_one_kernel_call_on_a_full_block_allocates_no_more_than_the_parent(
        grid, cfg, nfields, parent_peak):
    """The tracemalloc peak of one ``stack_expectations`` call on a full row
    block, in block bytes: the parent kernel's is the bound (this kernel
    reads about 1.53, 1.52 and 1.08)."""
    from fieldquant.propagate import ROW_BLOCK_BYTES
    field = random_band_limited(grid, 3).values
    assert ROW_BLOCK_BYTES // field.nbytes == nfields
    stack = np.array([field] * nfields)
    args = (grid, stack, cfg)
    G.stack_expectations(*args, reference=field)   # fills the twist and FFT caches
    tracemalloc.start()
    try:
        G.stack_expectations(*args, reference=field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= parent_peak * stack.nbytes


def test_stacked_expectations_refuse_an_empty_field():
    fields = np.array([random_band_limited(GRID, 1).values, np.zeros(GRID.npoints)])
    with pytest.raises(ValueError, match="empty field"):
        G.stack_expectations(GRID, fields, CFG)


def test_gauge_twist_is_cached_and_read_only():
    g2 = G.landau_grid(CFG_PAR, npoints=32, ly=24.0)
    twist = G.gauge_twist(g2, CFG_PAR)
    assert G.gauge_twist(g2, CFG_PAR) is twist
    assert not twist.flags.writeable
    with pytest.raises(ValueError):
        twist[0, 0] = 0.0


def test_gauge_twist_cache_is_bounded():
    g2 = G.landau_grid(CFG_PAR, npoints=16, ly=24.0)
    for i in range(100):
        G.gauge_twist(g2, natural_config(B=1.0 + 0.01 * i, geometry="parallel_eb", L=8.0))
    assert G.gauge_twist.cache_info().currsize <= G.GAUGE_TWIST_CACHE_SIZE


# --- residuals -------------------------------------------------------------------------

def test_residual_small_for_solution_large_for_non_solution():
    phi = S.electric_fundamental(CFG)
    t1 = G.commensurate_time(CFG, GRID, 1)
    assert G.schrodinger_residual(phi, GRID, t1, 1e-4) < 1e-6
    amp = 1.0 / math.sqrt(8.0)
    bad = S.AnalyticSolution(
        family="electric_1d_fundamental", ndim=1,
        fn=lambda x, t: amp * np.exp(1j * (np.asarray(t) ** 3 / 6.0
                                           + np.asarray(t) * np.asarray(x))),
        cfg=CFG)
    assert G.schrodinger_residual(bad, GRID, t1, 1e-4) > 1e-1


def test_residual_convergence_order_fd4():
    phi = S.electric_fundamental(CFG)
    sizes = [64, 128, 256, 512]
    t4 = math.pi  # k = 4 commensurate time on the L = 8 box
    residuals = []
    for n in sizes:
        grid = G.Grid1D(8.0, n, "dirichlet")   # a wall axis gets the fd4 stencils
        residuals.append(G.schrodinger_residual(phi, grid, t4, 1e-5))
    slope = np.polyfit(np.log([8.0 / n for n in sizes]), np.log(residuals), 1)[0]
    assert slope >= 3.7


def test_residual_uses_interior_band_for_walls():
    cfg = CFG
    grid = G.Grid1D(8.0, 512, "dirichlet")
    state = S.electric_ladder(cfg, 2)
    t1 = G.commensurate_time(cfg, GRID, 1)
    assert G.schrodinger_residual(state, grid, t1, 2e-5) < 1e-5


def test_residual_samples_return_the_sampled_energy_operator():
    """The third output is i hbar (psi(t+h) - psi(t-h)) / 2h, and the residual
    is it minus H psi(t)."""
    grid = G.Grid1D(8.0, 512, "dirichlet")
    t1, h = G.commensurate_time(CFG, GRID, 1), 2e-5
    state = S.electric_ladder(CFG, 2)
    r, mid, e_action = G.residual_samples(state, grid, t1, h)
    plus, minus = G.sample(state, grid, t1 + h), G.sample(state, grid, t1 - h)
    assert np.array_equal(e_action, 1j * (plus.values - minus.values) / (2.0 * h))
    assert np.array_equal(mid.values, G.sample(state, grid, t1).values)
    assert np.array_equal(r, e_action - G.apply_hamiltonian_1d(mid, CFG).values)


def test_ladder_group_residuals_equal_schrodinger_residual():
    grid = G.Grid1D(8.0, 512, "dirichlet")
    t1 = G.commensurate_time(CFG, GRID, 1)
    got = [c.value for c in V.checks_ladder_grid() if c.name.startswith("ladder.residual")]
    assert got == [G.schrodinger_residual(S.electric_ladder(CFG, j), grid, t1, 2e-5)
                   for j in range(5)]


@pytest.mark.parametrize("j", range(7))
def test_ladder_property_full_depth(j):
    """Every ladder state up to the default depth solves the equation and
    satisfies the eigen relation f Eop (E^j phi) = i hbar q E (j+1) E^j phi."""
    grid = G.Grid1D(8.0, 512, "dirichlet")
    t1 = G.commensurate_time(CFG, GRID, 1)
    state = S.electric_ladder(CFG, j)
    assert G.schrodinger_residual(state, grid, t1, 2e-5) < 1e-5

    h = 2e-5
    mid = G.sample(state, grid, t1)
    plus = G.sample(state, grid, t1 + h)
    minus = G.sample(state, grid, t1 - h)
    e_action = 1j * (plus.values - minus.values) / (2.0 * h)
    px_e = -1j * G.derivative(e_action, grid)
    f_e = px_e - t1 * e_action
    target = 1j * (j + 1) * mid.values
    band = slice(G.DIRICHLET_BAND, -G.DIRICHLET_BAND)
    rel = np.linalg.norm((f_e - target)[band]) / np.linalg.norm(target[band])
    assert rel < 1e-6
