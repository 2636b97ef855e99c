"""Guards for the tooling that sits outside the library, and for the module
boundaries inside it.  The benchmark's span tracer (``bench/tracing.py``)
wraps library attributes by name, so a rename in ``src/`` would break
``bench/run.py --trace 1`` without failing a test; its workloads read the
library's outputs, so they are run once here too.  No module reaches into
another module's private names, and none writes its own float64 or geometry
refusal."""

import ast
import json
import os
import pathlib
import subprocess
import sys
import textwrap

import fieldquant

ROOT = pathlib.Path(__file__).resolve().parents[1]

# runs in a fresh interpreter: installing the tracer rebinds library attributes
TRACER_PROBE = textwrap.dedent("""
    import json
    import numpy as np
    from tracing import Tracer
    from fieldquant import grids, propagate
    from fieldquant.config import natural_config

    tracer = Tracer()
    tracer.install()
    cfg = natural_config(B=1.0, geometry="parallel_eb", L=8.0)
    grid = grids.Grid1D(8.0, 64, "dirichlet")
    propagate.CrankNicolson1D(grid, natural_config(L=8.0), 1e-3).step(np.ones(64, complex))
    grid2 = grids.landau_grid(cfg, npoints=16, ly=24.0)
    propagate.SplitStepYZ(grid2, cfg, 1e-3).step(np.ones(grid2.shape, complex))
    print(json.dumps(sorted(tracer.durations)))
""")


def test_bench_tracer_wraps_attributes_that_exist():
    """``install`` reads every attribute it wraps, so a missing one fails the
    probe; the traced steps show the stepper spans are recorded."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "bench"), str(ROOT / "src")])}
    out = subprocess.run([sys.executable, "-c", TRACER_PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    spans = json.loads(out.stdout.splitlines()[-1])
    for span in ("propagate.build", "propagate.cn_step.64", "propagate.split_step.16"):
        assert span in spans


# runs every job of every benchmark workload once, in a fresh interpreter: the
# jobs' checks read the library's outputs (``record.rows``, ``record.column``,
# the CLI's CSVs), so an interface change that breaks the benchmark fails here
WORKLOAD_PROBE = textwrap.dedent("""
    import json, sys
    import workloads

    problems = {}
    for name in workloads.WORKLOADS:
        for job in workloads.build(name, 1, sys.argv[1]).jobs:
            problems[f"{name}: {job.name}"] = job.check(job.run())[0]
    print(json.dumps(problems))
""")


def test_every_benchmark_job_runs_and_passes_its_own_check(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "bench"), str(ROOT / "src")])}
    out = subprocess.run([sys.executable, "-c", WORKLOAD_PROBE, str(tmp_path)], env=env,
                         cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    problems = json.loads(out.stdout.splitlines()[-1])
    assert len(problems) >= 3
    assert {name: p for name, p in problems.items() if p} == {}


def _private_uses(path: pathlib.Path) -> set[tuple[str, str, str]]:
    """``from .mod import _name`` and ``mod._name`` in one package module."""
    tree = ast.parse(path.read_text())
    modules, found = {}, set()   # modules: local name -> package module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                elif alias.name.startswith("_") and not alias.name.startswith("__"):
                    found.add((path.stem, node.module, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            found.add((path.stem, modules[node.value.id], node.attr))
    return found


def test_no_new_cross_module_private_uses():
    """Each use found is (user, owner, name); a name another module needs
    gets a public home instead."""
    paths = sorted(pathlib.Path(fieldquant.__file__).parent.glob("*.py"))
    assert len(paths) > 1
    found = set().union(*map(_private_uses, paths))
    assert not found, sorted(found)


def _hand_written_refusals(path: pathlib.Path) -> list[tuple[str, int, str]]:
    """``errstate`` uses, ``except`` clauses naming ``FloatingPointError`` or
    ``OverflowError``, and ``raise ConfigError("geometry", ...)`` in one
    package module, as (module, line, what)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and node.attr == "errstate":
            found.append((path.stem, node.lineno, "errstate"))
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            for t in types:
                if isinstance(t, ast.Name) and t.id in ("FloatingPointError", "OverflowError"):
                    found.append((path.stem, node.lineno, f"except {t.id}"))
        elif (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
              and isinstance(node.exc.func, ast.Name) and node.exc.func.id == "ConfigError"
              and node.exc.args and isinstance(node.exc.args[0], ast.Constant)
              and node.exc.args[0].value == "geometry"):
            found.append((path.stem, node.lineno, 'raise ConfigError("geometry", ...)'))
    return found


def test_float64_and_geometry_refusals_go_through_the_config_helpers():
    """Outside ``config`` (home of ``refuse_overflow``, ``require_geometry``
    and ``cyclotron_frequency``, whose wording is its own), a value float64
    cannot hold is refused through ``refuse_overflow`` and a wrong geometry
    through ``require_geometry``: no module writes its own guard."""
    paths = sorted(p for p in pathlib.Path(fieldquant.__file__).parent.glob("*.py")
                   if p.stem != "config")
    assert len(paths) > 1
    found = [hit for p in paths for hit in _hand_written_refusals(p)]
    assert not found, found
