"""fieldquant benchmark.

    python3 bench/run.py --workload {verify,evolve_dense,symbolic} --seed N
                         --seconds S --trace {0,1}

Run from the root of a source checkout (the package is imported from
``src/``; nothing is installed).  Passes run one after another, each in a
fresh interpreter started by ``bench/worker.py``, until ``--seconds`` have
gone by; no pass starts after that.  This is a closed loop with a single
client, so at most one worker process runs at a time.  BLAS and OpenMP
thread counts of the workers are pinned to 1.

With ``--trace 0`` the run reports the end-to-end metrics: medians over its
passes of set-up time, pass time and peak resident memory.  Set-up and pass
times are rescaled to reference host speed by a snippet timed in the same
process (see ``bench/worker.py``); the raw wall times are printed too.  With
``--trace 1`` untraced and traced passes alternate; the traced ones give the
per-layer metrics (see ``bench/tracing.py``) and the pair gives the tracing
overhead.  Human-readable lines (environment, generated inputs, check
values, failures) come first; the last line of standard output is the
result as one JSON object.  Exit code 2 means the run could not start, 1
that no pass produced a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import VERIFY_GROUPS

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORKLOADS = ("verify", "evolve_dense", "symbolic")

THREAD_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                     "NUMEXPR_NUM_THREADS")}
RUN_LIMIT_S = 170.0   # every run must end within 180 s
WORKER_CPU = max(os.sched_getaffinity(0))


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return f"unknown ({ref})"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    return {"cpu": _cpu_model(), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "platform": platform.platform(), "git_commit": _git_commit(),
            "threads": THREAD_ENV, "PYTHONHASHSEED": "0", "workers": 1,
            "worker_cpu": WORKER_CPU}


def spawn_pass(workload: str, seed: int, trace: bool, workdir: Path,
               timeout: float) -> tuple[dict | None, str]:
    """One pass in a fresh interpreter; returns (result, error text)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0", **THREAD_ENV)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", str(workdir), "--cpu", str(WORKER_CPU)]
    if trace:
        cmd.append("--trace")
    cmd += ["--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"pass timed out after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    return json.loads(lines[-1]), ""


def run_passes(args, workdir: Path):
    """Alternate untraced and (with --trace 1) traced passes until time is up."""
    untraced, traced, crashed = [], [], []
    start = time.monotonic()
    longest = 0.0
    while True:
        elapsed = time.monotonic() - start
        enough = untraced and (traced or not args.trace)
        if (enough and elapsed >= args.seconds) or elapsed + 1.5 * longest > RUN_LIMIT_S:
            break
        trace = bool(args.trace) and len(traced) < len(untraced)
        t0 = time.monotonic()
        result, error = spawn_pass(args.workload, args.seed, trace, workdir,
                                   timeout=max(5.0, RUN_LIMIT_S - elapsed))
        longest = max(longest, time.monotonic() - t0)
        if result is None:
            crashed.append(error)
        else:
            (traced if trace else untraced).append(result)
    return untraced, traced, crashed


def _median(results, key):
    return statistics.median(r[key] for r in results)


def per_layer(untraced, traced) -> dict:
    metrics = {name: statistics.median(r["layers"][name] for r in traced)
               for name in traced[0]["layers"]}
    metrics["trace.overhead_frac"] = _median(traced, "pass_s") / _median(untraced, "pass_s") - 1.0
    metrics["trace.loop_overhead_s"] = _median(untraced, "loop_overhead_s")
    margins = traced[0]["facts"].get("margins", {})
    for group in VERIFY_GROUPS:
        metrics[f"verify.margin.{group}"] = margins.get(group, 0.0)
    metrics["verify.worst_margin"] = max(margins.values(), default=0.0)
    return metrics


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def report(args, untraced, traced, crashed) -> dict:
    results = untraced + traced
    attempted = sum(r["attempted"] for r in results) + len(crashed)
    failed = sum(r["failed"] for r in results) + len(crashed)
    first = results[0]
    print(f"fieldquant benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("environment " + json.dumps(dict(environment(), **first["versions"]), sort_keys=True))
    print("inputs " + json.dumps({"seed": args.seed, **first["inputs"]}, sort_keys=True))
    print(f"passes: {len(untraced)} untraced, {len(traced)} traced, {len(crashed)} crashed; "
          f"jobs attempted {attempted}, failed {failed}")
    for r in results:
        for job, problems in r["problems"].items():
            print(f"FAILED {job}: {'; '.join(problems)}")
    for error in crashed:
        print(f"CRASHED {error}")

    e2e = {name: _median(untraced, name) for name in ("setup_s", "pass_s", "peak_rss_mb")}
    n = len(untraced)
    print(f"{'setup_s':<16}{e2e['setup_s']:.4f} s      median of {n} fresh interpreters, "
          f"at reference speed (wall {_median(untraced, 'setup_wall_s'):.4f} s)")
    print(f"{'pass_s':<16}{e2e['pass_s']:.4f} s      median of {n} passes, "
          f"at reference speed (wall {_median(untraced, 'pass_wall_s'):.4f} s)")
    print(f"{'failed_frac':<16}{failed / attempted:.4f} ratio  {failed} of {attempted} jobs")
    print(f"{'peak_rss_mb':<16}{e2e['peak_rss_mb']:.1f} MB     median of {n} passes")
    print(f"{'loop_overhead_s':<16}{_median(untraced, 'loop_overhead_s'):.6f} s  "
          "pass wall time outside the jobs, median")
    if "check_values" in first["facts"]:
        margins = first["facts"]["margins"]
        print(f"{'worst_margin':<16}{max(margins.values(), default=0.0):.4f} ratio  "
              f"{first['facts']['worst_check']}")
        values_seen = {json.dumps(r["facts"]["check_values"], sort_keys=True) for r in results}
        print(f"verify check values, identical in all {len(results)} passes: "
              f"{len(values_seen) == 1}")
        print("verify.check_values " + json.dumps(first["facts"]["check_values"], sort_keys=True))
    spec = load_spec()
    values, wanted = e2e, spec["end_to_end"]
    if args.trace:
        values, wanted = per_layer(untraced, traced), spec["per_layer"]
        for name in sorted(values):
            print(f"  {name} = {values[name]!r}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in wanted}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fieldquant benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fieldquant" / "__init__.py").is_file():
        print(f"no fieldquant sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        untraced, traced, crashed = run_passes(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    if not untraced or (args.trace and not traced):
        for error in crashed:
            print(error, file=sys.stderr)
        print("no pass produced a result", file=sys.stderr)
        return 1
    print(json.dumps(report(args, untraced, traced, crashed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
