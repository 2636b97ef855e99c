"""The benchmark's workloads: seeded inputs, the job list of one pass, and
the checks each job's output must pass.

A job's ``run`` is the timed call into the library; its ``check`` runs after
the pass and returns the problems found plus facts recorded in the output.
Library functions are always reached through their module attribute, so a
traced pass sees every call.

* ``verify``: the full check battery, exactly as ``fieldquant verify --json``
  runs it.  Its inputs are fixed inside the library; the seed is unused.
* ``evolve_dense``: trajectories recording a row at every step, so trajectory
  recording (``grids``) dominates and ``cli`` writes large CSVs.  The seed
  draws the packet parameters and the random 2D state.
* ``symbolic``: exact algebra only.  The seed draws the nonzero rational
  coefficients, never the structure, so every seed does the same work.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

import fieldquant.algebra as alg
import fieldquant.cli as cli
import fieldquant.config as config
import fieldquant.grids as gr
import fieldquant.propagate as prop

WORKLOADS = ("verify", "evolve_dense", "symbolic")

# norm drift a norm-preserving propagator may show over a trajectory; the
# library's own evolve tests hold both methods to it
NORM_BOUND = 1e-10

CN_RUNS = ((8192, 200), (1024, 1000))   # (grid points, steps) of evolve1d --cadence 1
SPLIT_N = 64
SPLIT_STEPS = 512                       # one cyclotron period at dt = period / 512

SYMBOLIC_POWERS = range(1, 6)
LADDER_ORDERS = range(17)
LADDER_DEPTH = 16
COMMUTATOR_POWERS = range(1, 7)


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple[list[str], dict]]


@dataclass
class Workload:
    name: str
    seed: int
    inputs: dict = field(default_factory=dict)   # generated inputs, as recorded
    jobs: list[Job] = field(default_factory=list)


def build(name: str, seed: int, workdir: str) -> Workload:
    """The named workload with inputs generated from ``seed``."""
    builders = {"verify": _verify, "evolve_dense": _evolve_dense, "symbolic": _symbolic}
    return builders[name](Workload(name, seed), workdir)


# --- verify ---------------------------------------------------------------------

def _verify(wl: Workload, workdir: str) -> Workload:
    wl.inputs["argv"] = ["verify", "--json"]

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify", "--json"])
        return code, out.getvalue()

    def check(output):
        code, text = output
        checks = json.loads(text)["checks"]
        problems = [f"exit code {code}"] if code != 0 else []
        problems += [f"check failed: {c['name']}" for c in checks if not c["passed"]]
        if not checks:
            problems.append("no checks ran")
        margins = {}
        for c in checks:
            if c["tolerance"] > 0:
                group = c["name"].split(".")[0]
                margins[group] = max(margins.get(group, 0.0), c["value"] / c["tolerance"])
        worst = max((c for c in checks if c["tolerance"] > 0),
                    key=lambda c: c["value"] / c["tolerance"], default=None)
        facts = {"check_values": {c["name"]: c["value"] for c in checks},
                 "margins": margins,
                 "worst_check": worst["name"] if worst else None}
        return problems, facts

    wl.jobs.append(Job("verify --json", run, check))
    return wl


# --- evolve_dense -----------------------------------------------------------------

def _norm_problems(norms, steps, rows) -> list[str]:
    problems = []
    if rows != steps + 1:
        problems.append(f"{rows} rows recorded, expected {steps + 1}")
    drift = float(np.max(np.abs(np.asarray(norms) - norms[0])))
    if not drift <= NORM_BOUND:
        problems.append(f"norm drift {drift:.3e} exceeds {NORM_BOUND:.0e}")
    return problems


def _read_csv(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    header = lines[0].rstrip("\n").split(",")
    return header, np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


def _evolve1d_job(n: int, steps: int, rng: random.Random, workdir: str, inputs: dict) -> Job:
    packet = {"sigma": round(rng.uniform(0.5, 0.8), 4),
              "x0": round(rng.uniform(-0.5, 0.5), 4),
              "p0": round(rng.uniform(-0.5, 0.5), 4)}
    out_dir = os.path.join(workdir, f"evolve1d_n{n}")
    args = ["evolve1d", "--cadence", "1", "--steps", str(steps), "--grid-n", str(n)]
    args += [f"--{k}={v!r}" for k, v in packet.items()]
    inputs[f"evolve1d_n{n}"] = args
    argv = args + ["--out-dir", out_dir]

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(code):
        if code != 0:
            return [f"exit code {code}"], {}
        header, table = _read_csv(os.path.join(out_dir, "evolve1d_trajectory.csv"))
        with open(os.path.join(out_dir, "evolve1d_summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        problems = _norm_problems(table[:, header.index("norm")], steps, len(table))
        newton = summary.get("newton_max_residual")
        if not (isinstance(newton, float) and math.isfinite(newton)):
            problems.append(f"newton residual missing: {newton!r}")
        return problems, {}

    return Job(f"evolve1d n={n}", run, check)


def _random_landau_state(seed: int):
    """A seeded, band-limited, normalised state on the 64^2 Landau grid, built
    the way the propagator check group builds its random state."""
    cfg = config.natural_config(B=1.0, geometry="parallel_eb", L=8.0)
    grid = gr.landau_grid(cfg, npoints=SPLIT_N, ly=24.0)
    rng = np.random.default_rng(seed)
    spec = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    mask = ((np.abs(grid.y.wavenumbers)[:, None] <= 1.5)
            & (np.abs(grid.z.wavenumbers)[None, :] <= 1.5))
    values = np.fft.ifft2(spec * mask) * np.exp(-grid.y.x[:, None] ** 2 / 18.0)
    values /= math.sqrt(float(np.sum(np.abs(values) ** 2)) * grid.cell)
    return cfg, gr.WaveField(grid, values, 0.0)


def _evolve_dense(wl: Workload, workdir: str) -> Workload:
    rng = random.Random(wl.seed)
    for n, steps in CN_RUNS:
        wl.jobs.append(_evolve1d_job(n, steps, rng, workdir, wl.inputs))
    cfg, f0 = _random_landau_state(wl.seed)
    spec = prop.EvolutionSpec(dt=prop.cyclotron_period(cfg) / SPLIT_STEPS,
                              steps=SPLIT_STEPS, cadence=1, method="split_yz")
    wl.inputs["split_yz"] = {"n": SPLIT_N, "steps": SPLIT_STEPS, "cadence": 1,
                             "state_seed": wl.seed}

    def check(record):
        return _norm_problems(record.column("norm"), SPLIT_STEPS, len(record.rows)), {}

    wl.jobs.append(Job(f"split_yz n={SPLIT_N}", lambda: prop.evolve(f0, spec, cfg), check))
    return wl


# --- symbolic ------------------------------------------------------------------------

def _zero(expr):
    return ([] if expr.is_zero else [f"residual is not zero: {alg.to_text(expr)[:120]}"]), {}


def _nonzero(expr):
    return ([] if not expr.is_zero else ["witness residual is zero"]), {}


def _symbolic(wl: Workload, workdir: str) -> Workload:
    rng = random.Random(wl.seed)
    coeffs = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
              for _ in range(4)]
    wl.inputs["coefficients"] = [str(c) for c in coeffs]
    ops = (alg.momentum_minus_force_time(), alg.gauge_momentum_y(), alg.momentum_z(),
           alg.energy_operator())
    poly = alg.OperatorExpr.zero()
    for c, op in zip(coeffs, ops):
        poly = poly + op.scale(c)
    h_par = alg.hamiltonian_parallel(config.natural_config(B=1.0, geometry="parallel_eb"))
    x, px = alg.gen(alg.Gen.X), alg.gen(alg.Gen.PX)
    x_px, px_x = x * px, px * x

    for k in SYMBOLIC_POWERS:
        wl.jobs.append(Job(f"residual[P^{k}]",
                           lambda k=k: alg.heisenberg_residual(poly ** k, h_par), _zero))
        wl.jobs.append(Job(f"witness[P^{k} + x]",
                           lambda k=k: alg.heisenberg_residual(poly ** k + x, h_par), _nonzero))
    for j in LADDER_ORDERS:
        wl.jobs.append(Job(f"ladder[j={j}]",
                           lambda j=j: alg.eigen_ladder_check(j, depth=LADDER_DEPTH), _zero))
    for k in COMMUTATOR_POWERS:
        wl.jobs.append(Job(f"commutator[(x*px)^{k}, (px*x)^{k}]",
                           lambda k=k: alg.commutator(x_px ** k, px_x ** k), _zero))
    return wl
