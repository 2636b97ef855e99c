"""Guards for the tooling that sits outside the library, and for the module
boundaries inside it.  The benchmark's span tracer (``bench/tracing.py``)
wraps library attributes by name, so a rename in ``src/`` would break
``bench/run.py --trace 1`` without failing a test.  No module reaches into
another module's private names."""

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
