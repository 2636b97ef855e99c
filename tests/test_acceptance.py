"""Acceptance gate: every top-level claim at its stated tolerance.

Each criterion prints one pass/fail line (run with ``pytest -s`` to watch
them stream).  The checks mirror the ``verify`` CLI battery; tolerances are
pinned here and must not be loosened.
"""

import math
import time

import numpy as np

from fieldquant import algebra as A
from fieldquant import grids as G
from fieldquant import solutions as S
from fieldquant import verify as V
from fieldquant.config import natural_config


def _report(number, label, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:2d} [{status}] {label} {detail}")
    assert passed, f"criterion {number}: {label} {detail}"


def test_criterion_01_symbolic_conservation():
    start = time.perf_counter()
    cfg_1d = natural_config()
    cfg_par = natural_config(B=1.0, geometry="parallel_eb")
    pairs = [
        (A.momentum_minus_force_time(), A.hamiltonian_1d(cfg_1d)),
        (A.energy_operator(), A.hamiltonian_1d(cfg_1d)),
        (A.momentum_minus_force_time(), A.hamiltonian_parallel(cfg_par)),
        (A.gauge_momentum_y(), A.hamiltonian_parallel(cfg_par)),
        (A.momentum_z(), A.hamiltonian_parallel(cfg_par)),
        (A.energy_operator(), A.hamiltonian_parallel(cfg_par)),
    ]
    all_zero = all(A.heisenberg_residual(op, ham).is_zero for op, ham in pairs)
    elapsed = time.perf_counter() - start
    _report(1, "six conserved pairs have exactly zero Heisenberg residual",
            all_zero and elapsed < 1.0, f"(runtime {elapsed:.3f}s < 1s)")


def test_criterion_02_commutator_ladder():
    start = time.perf_counter()
    all_zero = all(A.eigen_ladder_check(j).is_zero for j in range(6))
    elapsed = time.perf_counter() - start
    _report(2, "[f, Eop^(j+1)] = i hbar q E (j+1) Eop^j exactly for j = 0..5",
            all_zero and elapsed < 1.0, f"(runtime {elapsed:.3f}s < 1s)")


def test_criterion_03_pde_residual():
    start = time.perf_counter()
    cfg = natural_config(L=8.0)
    grid = G.Grid1D(8.0, 256, "periodic")
    phi = S.electric_fundamental(cfg)
    residuals = [G.schrodinger_residual(phi, grid, G.commensurate_time(cfg, grid, k), 1e-4)
                 for k in range(1, 5)]
    amp = 1.0 / math.sqrt(8.0)
    bad = S.AnalyticSolution(
        family="electric_1d_fundamental", ndim=1,
        fn=lambda x, t: amp * np.exp(1j * (np.asarray(t) ** 3 / 6.0
                                           + np.asarray(t) * np.asarray(x))),
        cfg=cfg)
    bad_res = G.schrodinger_residual(bad, grid, G.commensurate_time(cfg, grid, 1), 1e-4)
    elapsed = time.perf_counter() - start
    _report(3, "solution residual < 1e-6 at four commensurate times, witness > 1e-1",
            max(residuals) < 1e-6 and bad_res > 1e-1 and elapsed < 5.0,
            f"(max {max(residuals):.2e}, witness {bad_res:.2f}, runtime {elapsed:.2f}s < 5s)")


def test_criterion_04_degeneracy_ladder_on_grid():
    results = V.checks_ladder_grid()
    values = {c.name: c.value for c in results}
    res_ok = all(values[f"ladder.residual[j={j}]"] < 1e-5 for j in range(5))
    eig_ok = all(values[f"ladder.eigen[j={j}]"] < 1e-6 for j in range(5))
    worst_r = max(values[f"ladder.residual[j={j}]"] for j in range(5))
    worst_e = max(values[f"ladder.eigen[j={j}]"] for j in range(5))
    _report(4, "ladder states: residual < 1e-5 and eigen relation < 1e-6 for j <= 4",
            res_ok and eig_ok, f"(residual {worst_r:.2e}, eigen {worst_e:.2e})")


def test_criterion_05_resummation():
    cfg = natural_config(L=8.0)
    grid = G.Grid1D(8.0, 256, "periodic")
    x = grid.x
    target = S.psi_electric_shifted(x, 1.0, 0.1, cfg)
    errors = [float(np.max(np.abs(S.superposition_taylor(x, 1.0, 0.1, J, cfg) - target)))
              for J in range(11)]
    monotone = all(errors[k + 1] <= errors[k] * (1 + 1e-12) for k in range(10))
    _report(5, "Taylor resummation reaches phi(x, t - dt): sup error < 1e-6 at J = 10, monotone",
            errors[10] < 1e-6 and monotone, f"(error {errors[10]:.2e})")


def test_criterion_06_landau_spectrum_and_fidelity():
    results = V.checks_landau()
    values = {c.name: c.value for c in results}
    energy_ok = all(values[f"landau.energy[family-{fam} n={n}]"] < 1e-6
                    for fam in ("y", "z") for n in range(4))
    fid_defect = values["landau.split_fidelity[n=0, 10 periods]"]
    _report(6, "grid <H_yz> = hbar wc (n + 1/2) for n = 0..3 (both families), "
               "10-period fidelity > 1 - 1e-5",
            energy_ok and fid_defect < 1e-5,
            f"(energy worst {max(v for k, v in values.items() if 'energy' in k):.2e}, "
            f"fidelity defect {fid_defect:.2e})")


def test_criterion_07_symmetry_conjugation():
    results = V.checks_symmetry()
    values = {c.name: c.value for c in results}
    unitary_ok = all(values[f"symmetry.conjugation[{kind}]"] < 1e-6
                     for kind in ("Ux", "Ut", "Uy", "Uz"))
    witness_ok = values["symmetry.conjugation[phase-stripped witness]"] == 0.0
    _report(7, "H - Eop invariant under Ux, Uy, Uz, Ut; phase-stripped witness > 1e-2",
            unitary_ok and witness_ok,
            f"(worst {max(values[f'symmetry.conjugation[{k}]'] for k in ('Ux', 'Ut', 'Uy', 'Uz')):.2e})")


def test_criterion_08_quantization():
    start = time.perf_counter()
    cfg = natural_config(L=8.0)
    results = V.checks_quantization(cfg)
    by_name = {c.name: c for c in results}
    ok = all(c.passed for c in results)
    elapsed = time.perf_counter() - start
    _report(8, "1e3-point scan: phase = 1 exactly at integer n, R = (h/q^2) n to 4 ulp, "
               "SI reproduces the von Klitzing value",
            ok and elapsed < 10.0,
            f"(phase dev {by_name['quantization.phase_at_integers'].value:.2e}, "
            f"runtime {elapsed:.2f}s < 10s)")


def test_criterion_09_newton_recovery():
    results = V.checks_newton()
    values = {c.name: c.value for c in results}
    _report(9, "m d<v>/dt = q E within 1e-6 on the numerical trajectory; "
               "current of phi sampled at commensurate times J = (q E t / m)|phi|^2 to 1e-10",
            values["newton.ehrenfest[E=1 gaussian]"] < 1e-6
            and values["newton.current_closed_form"] < 1e-10,
            f"(ehrenfest {values['newton.ehrenfest[E=1 gaussian]']:.2e}, "
            f"current {values['newton.current_closed_form']:.2e})")


def test_criterion_10_propagator_orders():
    results = V.checks_propagator()
    values = {c.name: c.value for c in results}
    _report(10, "Richardson orders 2.0 +/- 0.2 for both methods, "
                "CN norm drift < 1e-10 over 1e4 steps",
            values["propagator.cn_norm[1e4 steps]"] < 1e-10
            and values["propagator.order[cn_1d]"] < 0.2
            and values["propagator.order[split_yz]"] < 0.2,
            f"(drift {values['propagator.cn_norm[1e4 steps]']:.2e}, "
            f"order gaps {values['propagator.order[cn_1d]']:.2e} / "
            f"{values['propagator.order[split_yz]']:.2e})")


def test_full_verify_battery_exits_clean():
    """End-to-end: the CLI-facing battery agrees with the criteria above."""
    report = V.run_verify(natural_config(), filters=("symbolic", "resummation"))
    assert report.exit_code == 0
    assert all(c.anchor.strip() for c in report.checks)
