"""Grid sampling, discrete operators, residuals, and quadrature properties."""

import math

import numpy as np
import pytest

from fieldquant import grids as G
from fieldquant import solutions as S
from fieldquant.config import cyclotron_frequency, natural_config

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
    pf = G.apply_momentum(f, CFG, scheme="spectral")
    assert np.max(np.abs(pf.values - k * f.values)) < 1e-12


def test_momentum_kills_constant():
    f = G.WaveField(GRID, np.ones(256, dtype=complex), 0.0)
    for scheme in ("spectral", "fd4"):
        pf = G.apply_momentum(f, CFG, scheme=scheme)
        assert np.max(np.abs(pf.values)) < 1e-12


def test_fd4_momentum_fourth_order():
    k = 2.0 * math.pi * 3 / 8.0
    errs = []
    for n in (64, 128):
        g = G.Grid1D(8.0, n, "periodic")
        f = G.WaveField(g, np.exp(1j * k * g.x), 0.0)
        pf = G.apply_momentum(f, CFG, scheme="fd4")
        errs.append(np.max(np.abs(pf.values - k * f.values)))
    ratio = errs[0] / errs[1]
    assert 12.0 < ratio < 20.0  # halving dx cuts the error ~16x


def test_spectral_needs_periodic():
    g = G.Grid1D(8.0, 64, "dirichlet")
    f = G.WaveField(g, np.ones(64, dtype=complex), 0.0)
    with pytest.raises(G.GridMismatchError):
        G.apply_momentum(f, CFG, scheme="spectral")


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
    assert abs(G.expectation("pi_x", f, CFG)) < 1e-8


def test_landau_energy_expectation():
    g2 = G.landau_grid(CFG_PAR, npoints=64, ly=24.0)
    state = S.parallel_family(CFG_PAR, "family_y", 2, G.snap_shift(g2.y, 1.0), box=g2.z.length)
    f = G.sample(state, g2, 0.0)
    assert G.expectation("H", f, CFG_PAR) == pytest.approx(2.5, abs=1e-6)


def test_gauge_momentum_expectations():
    g2 = G.landau_grid(CFG_PAR, npoints=64, ly=24.0)
    dy = G.snap_shift(g2.y, 0.75)
    fy = G.sample(S.parallel_family(CFG_PAR, "family_y", 0, dy, box=g2.z.length), g2, 0.0)
    assert G.expectation("pi_z", fy, CFG_PAR) == pytest.approx(dy, abs=1e-10)
    dz = G.snap_offset(g2.z, 0.7)
    fz = G.sample(S.parallel_family(CFG_PAR, "family_z", 1, dz, box=g2.y.length), g2, 0.0)
    assert G.expectation("pi_y", fz, CFG_PAR) == pytest.approx(-dz, abs=1e-10)


def test_unknown_observable():
    f = G.sample(S.electric_fundamental(CFG), GRID, 0.0)
    with pytest.raises(ValueError, match="unknown 1D observable"):
        G.expectation("spin", f, CFG)
    with pytest.raises(ValueError, match="unknown 1D observable 'py'"):
        G.expectations(("x", "py"), f, CFG)
    g2 = G.landau_grid(CFG_PAR, npoints=32, ly=24.0)
    f2 = G.WaveField(g2, np.ones(g2.shape, dtype=complex), 0.0)
    with pytest.raises(ValueError, match="unknown 2D observable 'x'"):
        G.expectations(("y", "x"), f2, CFG_PAR)
    for empty in (G.WaveField(GRID, np.zeros(256, dtype=complex), 0.0),
                  G.WaveField(g2, np.zeros(g2.shape, dtype=complex), 0.0)):
        with pytest.raises(ValueError, match="empty field"):
            G.expectation("H", empty, CFG_PAR)


# Reference: the measurement as it was before the spectral-moment kernel,
# one forward and one inverse FFT per observable.

def _measured_momentum(f, cfg, axis=0):
    """Fourier momentum action on the raw samples, regardless of boundary tag."""
    ag = G._axis_grid(f.grid, axis)
    k = ag.wavenumbers
    shape = [1] * f.values.ndim
    shape[axis] = k.size
    fk = np.fft.fft(f.values, axis=axis)
    return np.fft.ifft(cfg.hbar * k.reshape(shape) * fk, axis=axis)


def _measured_kinetic(f, cfg, axis=0):
    ag = G._axis_grid(f.grid, axis)
    k = ag.wavenumbers
    shape = [1] * f.values.ndim
    shape[axis] = k.size
    fk = np.fft.fft(f.values, axis=axis)
    return np.fft.ifft((cfg.hbar * k.reshape(shape)) ** 2 * fk, axis=axis) / (2.0 * cfg.mass)


def reference_expectation(opname, f, cfg):
    n2 = G.inner_product(f, f).real
    dv = G._cell_volume(f.grid)
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


# Reference: the one-field spectral-moment kernel as it was before fields
# were measured in stacks; the stacked kernel must equal it bit for bit.

def one_field_inner_product(a, b):
    return complex(np.sum(np.conj(a.values) * b.values) * G._cell_volume(a.grid))


def one_field_norm(f):
    return math.sqrt(max(one_field_inner_product(f, f).real, 0.0))


def one_field_expectations(names, f, cfg):
    n2 = one_field_inner_product(f, f).real
    ndim = f.values.ndim
    dv = G._cell_volume(f.grid)
    axes = (f.grid,) if ndim == 1 else (f.grid.y, f.grid.z)
    coords = (f.grid.x,) if ndim == 1 else (f.grid.y.x[:, None], f.grid.z.x[None, :])

    def position(axis):
        return float(np.sum(coords[axis] * np.abs(f.values) ** 2) * dv / n2)

    def moment(axis, power, twisted=False):
        v = np.conj(G.gauge_twist(f.grid, cfg)) * f.values if twisted else f.values
        w = np.abs(np.fft.fft(v, axis=axis)) ** 2
        if ndim == 2:
            w = w.sum(axis=1 - axis)
        w = w * (dv / axes[axis].npoints)
        return float(np.dot((cfg.hbar * axes[axis].wavenumbers) ** power, w)) / n2

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
        elif ndim == 1:
            val = moment(0, 2) / (2.0 * cfg.mass) - cfg.charge * cfg.electric * position(0)
        else:
            val = (moment(0, 2) + moment(1, 2, twisted=True)) / (2.0 * cfg.mass)
        out.append(val)
    return out


NAMES_1D = ("x", "px", "pi_x", "H")
NAMES_2D = ("y", "z", "py", "pz", "pi_y", "pi_z", "H")


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
    got = G.expectations(names, f, cfg)
    for name, value in zip(names, got):
        ref = reference_expectation(name, f, cfg)
        assert abs(value - ref) <= 1e-13 * max(1.0, abs(ref)), name
    # one kernel call equals the per-name calls bit for bit, in any order
    assert got == [G.expectation(name, f, cfg) for name in names]
    assert G.expectations(names[::-1], f, cfg) == got[::-1]


@pytest.mark.parametrize("label, grid, cfg, names", KERNEL_CASES, ids=[c[0] for c in KERNEL_CASES])
def test_stacked_expectations_equal_one_field_calls(label, grid, cfg, names):
    """Five fields at five times measured in one stacked call equal the
    one-field kernel on each, bit for bit: every name (pi_x reads each
    field's own time), the norms and the overlaps with a reference."""
    fields = [random_band_limited(grid, seed, t=0.3 * seed - 0.4) for seed in range(5)]
    stack = np.array([f.values for f in fields])
    reference = random_band_limited(grid, 11)
    norms, values, overlaps = G.stack_expectations(
        names, grid, stack, [f.t for f in fields], cfg, reference=reference.values)
    assert values.shape == (len(names), len(fields))
    for i, f in enumerate(fields):
        assert values[:, i].tolist() == one_field_expectations(names, f, cfg)
        assert values[:, i].tolist() == G.expectations(names, f, cfg)
        assert norms[i] == one_field_norm(f) == G.norm(f)
        assert complex(overlaps[i]) == one_field_inner_product(reference, f)
        assert complex(overlaps[i]) == G.inner_product(reference, f)


def test_stacked_expectations_refuse_an_empty_field():
    fields = np.array([random_band_limited(GRID, 1).values, np.zeros(GRID.npoints)])
    with pytest.raises(ValueError, match="empty field"):
        G.stack_expectations(("x",), GRID, fields, [0.0, 0.0], CFG)


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
        cfg=CFG, kmax=lambda t: (abs(t),))
    assert G.schrodinger_residual(bad, GRID, t1, 1e-4) > 1e-1


def test_residual_convergence_order_fd4():
    phi = S.electric_fundamental(CFG)
    sizes = [64, 128, 256, 512]
    t4 = math.pi  # k = 4 commensurate time on the L = 8 box
    residuals = []
    for n in sizes:
        grid = G.Grid1D(8.0, n, "periodic")
        residuals.append(G.schrodinger_residual(phi, grid, t4, 1e-5, scheme="fd4"))
    slope = np.polyfit(np.log([8.0 / n for n in sizes]), np.log(residuals), 1)[0]
    assert slope >= 3.7


def test_residual_uses_interior_band_for_walls():
    cfg = CFG
    grid = G.Grid1D(8.0, 512, "dirichlet")
    state = S.electric_ladder(cfg, 2)
    t1 = G.commensurate_time(cfg, GRID, 1)
    assert G.schrodinger_residual(state, grid, t1, 2e-5, scheme="fd4") < 1e-5


@pytest.mark.parametrize("j", range(7))
def test_ladder_property_full_depth(j):
    """Every ladder state up to the default depth solves the equation and
    satisfies the eigen relation f Eop (E^j phi) = i hbar q E (j+1) E^j phi."""
    grid = G.Grid1D(8.0, 512, "dirichlet")
    t1 = G.commensurate_time(CFG, GRID, 1)
    state = S.electric_ladder(CFG, j)
    assert G.schrodinger_residual(state, grid, t1, 2e-5, scheme="fd4") < 1e-5

    h = 2e-5
    mid = G.sample(state, grid, t1)
    plus = G.sample(state, grid, t1 + h)
    minus = G.sample(state, grid, t1 - h)
    e_action = 1j * (plus.values - minus.values) / (2.0 * h)
    px_e = -1j * G._fd4_first(e_action, grid.dx, False)
    f_e = px_e - t1 * e_action
    target = 1j * (j + 1) * mid.values
    band = slice(G.DIRICHLET_BAND, -G.DIRICHLET_BAND)
    rel = np.linalg.norm((f_e - target)[band]) / np.linalg.norm(target[band])
    assert rel < 1e-6
