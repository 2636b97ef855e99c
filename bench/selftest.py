"""Self-tests of the benchmark.  Run from the root of a source checkout:

    python3 bench/selftest.py

1. A smoke-size run of every workload, untraced and traced, emits exactly
   the metrics BENCHMARK.json lists, with their units, and no failed job;
   in the traced run the layer self times and the unattributed time add up
   to the traced pass wall time.
2. In a directory holding only BENCHMARK.json and bench/, the benchmark
   exits non-zero without printing a result.
3. A deliberately broken layer raises the failed-job count: a Crank-Nicolson
   step that scales the field by 1.01 (evolve_dense), and a Heisenberg
   residual that gains a nonzero term (symbolic and verify).
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import worker  # noqa: E402

WORK = ROOT / ".bench_work" / "selftest"
failures = []


def expect(ok: bool, what: str):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", "3", "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def smoke(spec: dict):
    for workload in run.WORKLOADS:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = bench(ROOT, workload, trace)
            what = f"{workload} trace={trace}"
            if proc.returncode != 0:
                expect(False, f"{what}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            metrics = result["metrics"]
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{what}: result keys")
            expect([(m["name"], m["unit"]) for m in listed]
                   == [(name, m["unit"]) for name, m in metrics.items()],
                   f"{what}: every listed metric with its unit")
            expect(all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                        for m in metrics.values()), f"{what}: finite values")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{what}: failed_frac = 0 ({result['failed']} of {result['attempted']})")
            if trace:
                value = {name: m["value"] for name, m in metrics.items()}
                covered = value["trace.unattributed_s"] + sum(
                    v for name, v in value.items() if name.endswith(".self_s"))
                expect(math.isclose(covered, value["trace.pass_s"], rel_tol=1e-6),
                       f"{what}: self times cover the traced pass "
                       f"({covered:.6f} s of {value['trace.pass_s']:.6f} s)")


def bare_directory():
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(bare, "verify", 0)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    expect(proc.returncode != 0 and not last[0].startswith("{"),
           f"bare directory: exit {proc.returncode}, no result printed")
    shutil.rmtree(bare)


def sabotaged(workload: str, target, name: str, replacement) -> int:
    import workloads
    wl = workloads.build(workload, 3, str(WORK / workload))
    with mock.patch.object(target, name, replacement):
        return worker.run_pass(wl)["failed"]


def sabotage():
    import fieldquant.algebra as alg
    import fieldquant.propagate as prop

    step = prop.CrankNicolson1D.step
    failed = sabotaged("evolve_dense", prop.CrankNicolson1D, "step",
                       lambda self, values: 1.01 * step(self, values))
    expect(failed == 2, f"evolve_dense with a CN step scaled by 1.01: {failed} failed jobs")

    residual = alg.heisenberg_residual

    def broken(f, H):
        return residual(f, H) + alg.gen(alg.Gen.X)

    failed = sabotaged("symbolic", alg, "heisenberg_residual", broken)
    expect(failed == 5, f"symbolic with a nonzero residual term: {failed} failed jobs")
    failed = sabotaged("verify", alg, "heisenberg_residual", broken)
    expect(failed == 1, f"verify with a nonzero residual term: {failed} failed jobs")


def main() -> int:
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        smoke(run.load_spec())
        bare_directory()
        sabotage()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
