"""The named check battery behind the ``verify`` CLI command.

Each check records the identity it exercises, the measured value, and the
tolerance it must meet.  Symbolic checks demand exact zero expressions; the
discretized groups run on canonical natural-unit setups whose tolerances
are part of the library's contract.  A user-supplied config contributes the
symbolic Hamiltonian override, ad-hoc operator checks, and the quantization
scan parameters.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import algebra as alg
from . import constants
from .config import SystemConfig, natural_config
from . import solutions as sol
from . import grids as gr
from . import propagate as prop
from . import symmetry as sym
from . import observables as obs


@dataclass
class CheckResult:
    name: str
    passed: bool
    value: float
    tolerance: float
    anchor: str
    # a witness passes when its residual exceeds a bound; it records both
    measured: float | None = None
    bound: float | None = None


@dataclass
class VerifyReport:
    checks: list[CheckResult] = field(default_factory=list)

    def extend(self, items):
        self.checks.extend(items)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def exit_code(self) -> int:
        return 0 if self.all_passed else 1

    def as_dict(self) -> dict:
        return {"all_passed": self.all_passed, "checks": [_check_dict(c) for c in self.checks]}


def _check_dict(c: CheckResult) -> dict:
    out = {"name": c.name, "passed": c.passed, "value": c.value,
           "tolerance": c.tolerance, "anchor": c.anchor}
    if c.measured is not None:
        out.update(measured=c.measured, bound=c.bound)
    return out


def _check(name, value, tolerance, anchor) -> CheckResult:
    return CheckResult(name=name, passed=bool(value <= tolerance), value=float(value),
                       tolerance=float(tolerance), anchor=anchor)


def _exact(name, ok, anchor) -> CheckResult:
    # an exact check records 0 (holds) or 1 against tolerance 0
    return _check(name, 0.0 if ok else 1.0, 0.0, anchor)


def _witness(name, measured, bound, anchor) -> CheckResult:
    # an exact check that passes when the measured residual exceeds its bound;
    # a residual that cannot be measured (NaN) fails
    return replace(_exact(name, measured > bound, anchor),
                   measured=float(measured), bound=float(bound))


# --- symbolic -----------------------------------------------------------------

def checks_symbolic(cfg: SystemConfig, op_text: str | None = None) -> list[CheckResult]:
    out = []
    cfg_1d = natural_config()
    cfg_par = natural_config(B=1.0, geometry="parallel_eb")
    systems = [("H_1d", cfg_1d, alg.hamiltonian_1d(cfg_1d)),
               ("H_par", cfg_par, alg.hamiltonian_parallel(cfg_par))]
    if cfg.hamiltonian_override is not None:
        systems = [("H_override", cfg, alg.parse_operator(cfg.hamiltonian_override))]
    for h_name, sys_cfg, h in systems:
        for op_name, op in alg.conserved_operators(sys_cfg).items():
            res = alg.heisenberg_residual(op, h)
            out.append(_exact(
                f"symbolic.conserved[{op_name} | {h_name}]", res.is_zero,
                f"[f,H]/(i*hbar) + df/dt = 0 for f = {op_name}, residual = {alg.to_text(res)}"))
    for j in range(6):
        res = alg.eigen_ladder_check(j)
        out.append(_exact(
            f"symbolic.ladder[j={j}]", res.is_zero,
            f"[f, Eop^{j + 1}] = i*hbar*q*E*{j + 1}*Eop^{j} exactly"))
    f_op = alg.momentum_minus_force_time()
    e_op = alg.energy_operator()
    prod = f_op * e_op
    defect = prod - alg.adjoint(prod)
    out.append(_exact(
        "symbolic.adjoint[fE not hermitian]",
        not defect.is_zero and defect == alg.commutator(f_op, e_op),
        "fE - (fE)^dagger = [f, Eop] = i*hbar*q*E, so fE admits imaginary eigenvalues"))
    if op_text:
        op = alg.parse_operator(op_text)
        res = alg.heisenberg_residual(op, alg.system_hamiltonian(cfg))
        out.append(_exact(
            f"symbolic.adhoc[{op_text}]", res.is_zero,
            f"[f,H]/(i*hbar) + df/dt for f = {op_text}, residual = {alg.to_text(res)}"))
    return out


# --- canonical numeric setups ---------------------------------------------------

def _setup_electric():
    cfg = natural_config(L=8.0)
    grid = gr.Grid1D(8.0, 256, "periodic")
    return cfg, grid


def _setup_landau(npoints=64):
    cfg = natural_config(B=1.0, geometry="parallel_eb", L=8.0)
    grid = gr.landau_grid(cfg, npoints=npoints, ly=24.0)
    return cfg, grid


def _wall_gaussian(npoints: int) -> gr.WaveField:
    """Unit-width Gaussian at rest in the middle of a 40-wide walled box."""
    grid = gr.Grid1D(40.0, npoints, "dirichlet")
    psi0 = (2.0 * math.pi) ** -0.25 * np.exp(-grid.x ** 2 / 4.0) + 0.0j
    return gr.WaveField(grid, psi0, 0.0)


def checks_residual(*_) -> list[CheckResult]:
    out = []
    cfg, grid = _setup_electric()
    phi = sol.electric_fundamental(cfg)
    for k in range(1, 5):
        t = gr.commensurate_time(cfg, grid, k)
        r = gr.schrodinger_residual(phi, grid, t, 1e-4)
        out.append(_check(
            f"residual.electric[t{k}]", r, 1e-6,
            "i*hbar dpsi/dt = H psi for the cubic-phase plane-wave solution"))
    t1 = gr.commensurate_time(cfg, grid, 1)
    amp = 1.0 / math.sqrt(cfg.box_length)
    bad = sol.AnalyticSolution(
        family="electric_1d_fundamental", ndim=1,
        fn=lambda x, t: amp * np.exp(1j * (np.asarray(t) ** 3 / 6.0
                                           + np.asarray(t) * np.asarray(x))), cfg=cfg)
    r_bad = gr.schrodinger_residual(bad, grid, t1, 1e-4)
    out.append(_witness(
        "residual.electric[flipped-phase witness]", r_bad, 1e-1,
        f"sign-flipped cubic phase is not a solution (residual {r_bad:.3f} > 0.1)"))
    return out


def checks_ladder_grid(*_) -> list[CheckResult]:
    residuals, eigen = [], []
    cfg, _ = _setup_electric()
    grid = gr.Grid1D(8.0, 512, "dirichlet")
    t1 = gr.commensurate_time(cfg, grid, 1)
    q, E, hbar = cfg.charge, cfg.electric, cfg.hbar
    for j in range(5):
        r, mid, e_action = gr.residual_samples(sol.electric_ladder(cfg, j), grid, t1, 2e-5)
        residuals.append(_check(
            f"ladder.residual[j={j}]", gr.relative_residual(r, mid.values, grid), 1e-5,
            f"Eop^{j} phi solves the time-dependent equation"))
        px_e = gr.apply_momentum(gr.WaveField(grid, e_action, t1), cfg).values
        f_e = px_e - q * E * t1 * e_action
        target = 1j * hbar * q * E * (j + 1) * mid.values
        eigen.append(_check(
            f"ladder.eigen[j={j}]", gr.relative_residual(f_e - target, target, grid), 1e-6,
            f"f Eop (Eop^{j} phi) = i*hbar*q*E*{j + 1} * Eop^{j} phi on the grid"))
    return residuals + eigen


def checks_resummation(*_) -> list[CheckResult]:
    out = []
    cfg, grid = _setup_electric()
    x = grid.x
    t, dt_shift = 1.0, 0.1
    target = sol.psi_electric_shifted(x, t, dt_shift, cfg)
    errors = []
    for J in range(11):
        approx = sol.superposition_taylor(x, t, dt_shift, J, cfg)
        errors.append(float(np.max(np.abs(approx - target))))
    out.append(_check(
        "resummation.sup_error[J=10]", errors[-1], 1e-6,
        "sum_j c_j Eop^j phi resums to phi(x, t - dt)"))
    monotone = all(errors[k + 1] <= errors[k] * (1 + 1e-12) for k in range(10))
    out.append(_exact(
        "resummation.monotone[J=0..10]", monotone,
        "partial-sum error is nonincreasing in the truncation order"))
    return out


def checks_landau(*_) -> list[CheckResult]:
    out = []
    cfg, grid = _setup_landau(npoints=96)  # n = 3 content needs the denser axes
    dy = gr.snap_shift(grid.y, 1.0)
    dz = gr.snap_offset(grid.z, 0.7)
    for n in range(4):
        e_n = sol.landau_level(n, cfg)
        fy = gr.sample(sol.parallel_family(cfg, "family_y", n, dy, box=grid.z.length), grid, 0.0)
        rel_y = abs(gr.expectation("H", fy, cfg) - e_n) / e_n
        out.append(_check(
            f"landau.energy[family-y n={n}]", rel_y, 1e-6,
            f"<H_yz> = hbar*wc*(n + 1/2) = {e_n}"))
        fz = gr.sample(sol.parallel_family(cfg, "family_z", n, dz, box=grid.y.length), grid, 0.0)
        rel_z = abs(gr.expectation("H", fz, cfg) - e_n) / e_n
        out.append(_check(
            f"landau.energy[family-z n={n}]", rel_z, 1e-6,
            f"<H_yz> = hbar*wc*(n + 1/2) = {e_n}"))
    period = prop.cyclotron_period(cfg)
    cfg64, grid64 = _setup_landau(npoints=64)
    dy64 = gr.snap_shift(grid64.y, 1.0)
    f0 = gr.sample(sol.parallel_family(cfg64, "family_y", 0, dy64, box=grid64.z.length),
                   grid64, 0.0)
    spec = prop.EvolutionSpec(dt=period / 512, steps=5120, cadence=512, method="split_yz")
    rec = prop.evolve(f0, spec, cfg64)
    fid_min = float(rec.column("fidelity").min())
    out.append(_check(
        "landau.split_fidelity[n=0, 10 periods]", 1.0 - fid_min, 1e-5,
        "split-step evolution holds the stationary family-y state"))
    return out


def checks_symmetry(*_) -> list[CheckResult]:
    out = []
    cfg, grid = _setup_electric()
    t1 = gr.commensurate_time(cfg, grid, 1)
    phi = sol.electric_fundamental(cfg)
    dx_on = gr.snap_shift(grid, 0.9)
    out.append(_check(
        "symmetry.conjugation[Ux]",
        sym.conjugation_symmetry_check(sym.Unitary("Ux", dx_on), phi, grid, t1, cfg),
        1e-6, "H - Eop commutes with the conserved-momentum translation Ux"))
    out.append(_check(
        "symmetry.conjugation[Ut]",
        sym.conjugation_symmetry_check(sym.Unitary("Ut", 0.3), phi, grid, t1, cfg),
        1e-6, "H - Eop commutes with the time shift Ut"))
    cfgp, grid2 = _setup_landau()
    dy = gr.snap_shift(grid2.y, 0.5)
    dz_state = gr.snap_offset(grid2.z, 0.7)
    fam_y = sol.parallel_family(cfgp, "family_y", 1, 0.0, box=grid2.z.length)
    fam_z = sol.parallel_family(cfgp, "family_z", 1, dz_state, box=grid2.y.length)
    out.append(_check(
        "symmetry.conjugation[Uy]",
        sym.conjugation_symmetry_check(sym.Unitary("Uy", dy), fam_y, grid2, 0.4, cfgp),
        1e-6, "H - Eop commutes with the gauge-compensated y translation Uy"))
    out.append(_check(
        "symmetry.conjugation[Uz]",
        sym.conjugation_symmetry_check(sym.Unitary("Uz", gr.snap_shift(grid2.z, 0.8)),
                                       fam_z, grid2, 0.4, cfgp),
        1e-6, "H - Eop commutes with the z translation Uz"))
    broken = sym.conjugation_symmetry_check(
        sym.Unitary("Uy", dy, compensating_phase=False), fam_z, grid2, 0.4, cfgp)
    out.append(_witness(
        "symmetry.conjugation[phase-stripped witness]", broken, 1e-2,
        f"translation without the gauge phase breaks the symmetry (residual {broken:.3f} > 0.01)"))
    return out


def checks_quantization(cfg: SystemConfig, *_) -> list[CheckResult]:
    out = []
    dx_shift = 2.0 * math.pi
    dt_arr = np.arange(1, 1001) * 0.005
    # the scan runs on the electric solutions: a natural-unit config keeps its
    # particle and E, with the magnetic field dropped
    scan_cfg = replace(cfg, geometry="electric_1d", magnetic=0.0) \
        if cfg.units.kind == "natural" else natural_config()
    if scan_cfg.electric == 0:
        raise ValueError("quantization checks need a nonzero electric field and shift")
    # no verdict where float64 cannot resolve the sampled phases to the
    # tolerance; that guard also bounds the integer enumeration below
    try:
        devs = np.abs(sym.invariance_phases(dx_shift, dt_arr, scan_cfg) - 1.0)
    except ValueError as exc:
        raise ValueError(f"quantization scan: {exc}") from None
    # integers whose quantizing dt lands on the scan grid, by pure arithmetic;
    # n carries the sign of q E dx (the electron's n are negative)
    q_e_dx = scan_cfg.charge * scan_cfg.electric * dx_shift
    two_pi_hbar = 2.0 * math.pi * scan_cfg.hbar
    sign = 1 if q_e_dx > 0 else -1
    n_max = int(math.floor(abs(q_e_dx) * np.abs(dt_arr).max() / two_pi_hbar)) + 1
    expected_hits = [n for n in range(sign, sign * (n_max + 1), sign)
                     if np.min(np.abs(dt_arr - two_pi_hbar * n / q_e_dx)) < 1e-12]
    if not expected_hits:   # n = 0 says nothing about quantization (R = 0)
        raise ValueError("quantization scan: no nonzero integer n lands on the dt grid "
                         f"(|n_real| < {n_max} over the scan)")
    hits = []
    misses_ok = True
    phase_dev_hit = 0.0
    for report, dev in zip(sym.scan_quantization(dx_shift, dt_arr, scan_cfg), devs):
        if isinstance(report, str):   # no verdict at this point
            raise ValueError(f"quantization scan: {report}")
        if report.is_quantized:
            hits.append(report.nearest)
            phase_dev_hit = max(phase_dev_hit, float(dev))
        elif dev < 1e-8:
            misses_ok = False
    out.append(_check(
        "quantization.phase_at_integers",
        phase_dev_hit, 1e-8,
        "Ux imprints exp(i q E dx dt / hbar) = 1 exactly at integer n"))
    out.append(_exact(
        "quantization.no_false_hits", misses_ok,
        "away from integer n the invariance phase stays away from 1"))
    out.append(_exact(
        "quantization.integer_hits", hits == expected_hits,
        f"scan marks exactly the integer points, n = {hits}"))
    # the parallel system: Ux moves only the plane-wave factor of the product
    # phi1 phi2, so the Ut-shifted product carries the same phase; canonical setup
    cfgp, grid2 = _setup_landau()
    rate = cfgp.charge * cfgp.electric * dx_shift / cfgp.hbar
    for axis, shift, box in (("y", gr.snap_shift(grid2.y, 0.5), grid2.z.length),
                             ("z", gr.snap_offset(grid2.z, 0.7), grid2.y.length)):
        product = sol.parallel_product(cfgp, f"family_{axis}", 1, shift, box)
        dev = max(abs(sym.invariance_phase(
            dx_shift, dt, cfgp, state=sym.apply_unitary(sym.Unitary("Ut", dt), product, cfgp))
            - target) for dt, target in ((0.37, cmath.exp(1j * rate * 0.37)), (1.0, 1.0)))
        out.append(_check(
            f"quantization.parallel_phase[family-{axis} n=1]", dev, 1e-8,
            "Ux imprints exp(i q E dx dt / hbar) on the product phi1 phi2 at dt = 0.37, "
            "and 1 at dt = 1 (n = 1)"))
    report = sym.quantization_report(dx_shift, 1.0, scan_cfg)
    h_over_q2 = scan_cfg.units.h / scan_cfg.charge ** 2   # the scan refused an overflowing q^2
    ulp_err = abs(report.resistance - h_over_q2 * report.n_real) \
        / math.ulp(abs(report.resistance) + 1.0)
    out.append(_check(
        "quantization.resistance_identity",
        ulp_err, 4.0,
        "R = V/I = (h/q^2) n, with V = E dx and I = q/dt"))
    rk = constants.PLANCK_SI / constants.ELEMENTARY_CHARGE_SI ** 2
    out.append(_check(
        "quantization.von_klitzing_si",
        abs(rk - constants.VON_KLITZING_OHM), constants.VON_KLITZING_OHM_TOL,
        "h/e^2 from the bundled exact SI constants matches the tabulated value"))
    return out


def checks_newton(*_) -> list[CheckResult]:
    out = []
    cfg = natural_config(L=40.0)
    f0 = _wall_gaussian(1024)
    rec = prop.evolve(f0, prop.EvolutionSpec(dt=5e-4, steps=2000, cadence=100), cfg)
    res = obs.newton_check(rec, cfg)
    out.append(_check(
        "newton.ehrenfest[E=1 gaussian]", res["max_residual"], 1e-6,
        "m d<v>/dt = q E along the wall-bounded numerical trajectory"))
    # two more steps from the run's final state at t = 1 give three snapshots
    states = prop.CrankNicolson1D(f0.grid, cfg, 5e-4).rows(rec.final.values, 1)
    snaps = [gr.WaveField(f0.grid, next(states)[0], rec.final.t + k * 5e-4) for k in range(3)]
    states.close()
    out.append(_check(
        "newton.continuity[E=1 gaussian]", obs.continuity_residual(*snaps, cfg), 1e-3,
        "d rho/dt + dJ/dx = 0 at t = 1 on the same Crank-Nicolson trajectory"))
    cfg8, grid = _setup_electric()
    phi = sol.electric_fundamental(cfg8)
    worst = 0.0
    for k in range(1, 5):
        t = gr.commensurate_time(cfg8, grid, k)
        f = gr.sample(phi, grid, t)
        current = np.real(np.conj(f.values) * gr.apply_momentum(f, cfg8).values) / cfg8.mass
        expected = obs.drift_velocity(t, cfg8) * np.abs(f.values) ** 2
        worst = max(worst, float(np.max(np.abs(current - expected))))
    out.append(_check(
        "newton.current_closed_form", worst, 1e-10,
        "J = Re(phi* p phi) / m = (q E t / m) |phi|^2 for phi sampled at commensurate times"))
    return out


def checks_propagator(*_) -> list[CheckResult]:
    out = []
    cfg = natural_config(L=40.0)
    f0 = _wall_gaussian(256)
    v = prop.CrankNicolson1D(f0.grid, cfg, 1e-3).advance(f0.values, 10000)
    drift = abs(gr.norm(gr.WaveField(f0.grid, v, 0.0)) - gr.norm(f0))
    out.append(_check(
        "propagator.cn_norm[1e4 steps]", drift, 1e-10,
        "Crank-Nicolson is exactly norm preserving"))
    order_cn = prop.estimate_order(_wall_gaussian(1024), 0.5, "cn_1d", cfg, base_steps=64)
    out.append(_check(
        "propagator.order[cn_1d]", abs(order_cn - 2.0), 0.2,
        f"Richardson order estimate {order_cn:.3f} for the implicit midpoint scheme"))
    cfgp, grid2 = _setup_landau()
    rng = np.random.default_rng(7)
    shape = grid2.shape
    spec_f = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    mask = ((np.abs(grid2.y.wavenumbers)[:, None] <= 1.5)
            & (np.abs(grid2.z.wavenumbers)[None, :] <= 1.5))
    val = np.fft.ifft2(spec_f * mask) * np.exp(-grid2.y.x[:, None] ** 2 / 18.0)
    val /= math.sqrt(float(np.sum(np.abs(val) ** 2)) * grid2.cell)
    frand = gr.WaveField(grid2, val, 0.0)
    order_split = prop.estimate_order(frand, prop.cyclotron_period(cfgp),
                                      "split_yz", cfgp, base_steps=64)
    out.append(_check(
        "propagator.order[split_yz]", abs(order_split - 2.0), 0.2,
        f"Richardson order estimate {order_split:.3f} for Strang splitting"))
    return out


# each group is called as checks(cfg, op_text); the groups on canonical
# setups take *_ and ignore both
GROUPS = {
    "symbolic": checks_symbolic,
    "residual": checks_residual,
    "ladder": checks_ladder_grid,
    "resummation": checks_resummation,
    "landau": checks_landau,
    "symmetry": checks_symmetry,
    "quantization": checks_quantization,
    "newton": checks_newton,
    "propagator": checks_propagator,
}


def run_verify(cfg: SystemConfig | None = None, filters=(),
               op_text: str | None = None) -> VerifyReport:
    """Run the named check groups; ``filters`` keeps groups whose name
    contains any of the given substrings.  Filters that keep no group, or
    none of the groups that read a given input (a ``cfg`` not None among
    them), are refused."""
    groups = [g for g in GROUPS if not filters or any(f in g for f in filters)]
    if not groups:
        raise ValueError(f"no check group name contains {' or '.join(map(repr, filters))}; "
                         f"the groups are {', '.join(GROUPS)}")
    # each input, whether it was given, and the groups that read it
    for name, given, readers in (
            ("--op", bool(op_text), ("symbolic",)),
            ("hamiltonian_override", getattr(cfg, "hamiltonian_override", None) is not None,
             ("symbolic",)),
            ("--config or --units", cfg is not None, ("symbolic", "quantization"))):
        if given and not set(readers) & set(groups):
            raise ValueError(f"{name} needs the {' or '.join(readers)} group, "
                             "which --filter leaves out")
    if cfg is None:
        cfg = natural_config()
    report = VerifyReport()
    for group in groups:
        report.extend(GROUPS[group](cfg, op_text))
    return report
