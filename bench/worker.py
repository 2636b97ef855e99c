"""One benchmark pass in a fresh interpreter, as a fieldquant CLI user pays it.

    python3 bench/worker.py --workload NAME --seed N --workdir DIR --spawned T --cpu C [--trace]

``--spawned`` is the ``time.monotonic()`` reading the parent took just before
starting this process, so set-up time covers interpreter start, the imports
of numpy, scipy and fieldquant, and building the workload's inputs.  The
pass runs the workload's jobs once and then checks their outputs.  The last
line of standard output is the pass result as JSON.

Wall times on a shared host swing by up to 2x within a second as other
tenants load the machine, and the swing shows in this process's CPU time
as much as in its wall time.  So the worker measures the host's speed with
a fixed snippet of work that shares no code with fieldquant, and reports
``setup_s`` and ``pass_s`` at reference speed: the wall time multiplied by
``REFERENCE_SNIPPET_S / snippet time``.  During a pass a timer signal runs
the snippet every ``SAMPLE_INTERVAL_S``, so the speed is sampled while the
jobs run; the snippets' own time is taken out of the pass time (and, in a
traced pass, out of every span it lands in).  Set-up uses a burst of the
snippet run just after it instead.  The raw wall times are reported as
``setup_wall_s`` and ``pass_wall_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import numpy as np

# mean snippet time on the reference sandbox (Intel Xeon, 2 vCPUs) when unloaded
REFERENCE_SNIPPET_S = 0.0012
SAMPLE_INTERVAL_S = 0.05
BURST = 20

# bound before any tracer wraps numpy's FFTs, so the snippet is never traced
_FFT, _IFFT = np.fft.fft, np.fft.ifft
_SIGNAL = np.exp(1j * np.linspace(0.0, 1.0, 256))


def snippet_s() -> float:
    """Wall time of one run of a fixed computation that shares no code with
    fieldquant: exact-rational dictionary updates (the kind of work
    ``algebra`` does) and small complex FFTs (the kind ``propagate`` and
    ``grids`` do)."""
    t0 = time.perf_counter()
    acc = {}
    for i in range(400):
        key = (i % 31, i % 7)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i, 7)
    a = _SIGNAL
    for _ in range(20):
        a = _IFFT(_FFT(a) * _SIGNAL)
    return time.perf_counter() - t0


def burst_s() -> float:
    """Mean snippet time over a burst of back-to-back runs."""
    return statistics.mean(snippet_s() for _ in range(BURST))


class SpeedSampler:
    """Runs the snippet from a SIGALRM handler every SAMPLE_INTERVAL_S of
    wall time while active.  The handler runs between bytecodes of the main
    thread, so it never interrupts numpy or scipy mid-call.  ``on_tick``
    receives the start time and the wall time of each handler call."""

    def __init__(self, on_tick=None):
        self.on_tick = on_tick
        self.samples: list[float] = []
        self.spent = 0.0    # wall time inside the handler

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        snippet_s()   # refills the caches the jobs evicted; only the warm run counts
        self.samples.append(snippet_s())
        spent = time.perf_counter() - t0
        self.spent += spent
        if self.on_tick is not None:
            self.on_tick(t0, spent)

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def run_pass(workload, tracer=None) -> dict:
    """Run every job once, timed, then check the outputs."""
    outputs, errors = {}, {}
    job_s = 0.0
    sampler = SpeedSampler(None if tracer is None else tracer.exclude)

    def jobs():
        nonlocal job_s
        for job in workload.jobs:
            t0, spent0 = time.perf_counter(), sampler.spent
            try:
                outputs[job.name] = job.run()
            except Exception:  # a job that raises is a failed job, not a failed pass
                errors[job.name] = traceback.format_exc(limit=-3)
            job_s += time.perf_counter() - t0 - (sampler.spent - spent0)

    before = burst_s()
    with sampler:
        if tracer is None:
            t0 = time.perf_counter()
            jobs()
            pass_wall_s = time.perf_counter() - t0 - sampler.spent
        else:
            _, pass_wall_s = tracer.run_root(jobs)
    speed_snippet_s = statistics.mean(sampler.samples) if sampler.samples else before

    problems, facts = {}, {}
    for job in workload.jobs:
        if job.name in errors:
            problems[job.name] = [f"raised: {errors[job.name]}"]
            continue
        try:
            found, recorded = job.check(outputs[job.name])
        except Exception:
            found, recorded = [f"output check raised: {traceback.format_exc(limit=-3)}"], {}
        if found:
            problems[job.name] = found
        facts.update(recorded)
    result = {
        "pass_s": pass_wall_s * REFERENCE_SNIPPET_S / speed_snippet_s,
        "pass_wall_s": pass_wall_s,
        "snippet_s": {"before": before, "pass": speed_snippet_s},
        "loop_overhead_s": pass_wall_s - job_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(workload.jobs),
        "failed": len(problems),
        "problems": problems,
        "facts": facts,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(pass_wall_s)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--cpu", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    # each vCPU of a shared host slows down independently of the other, so
    # the snippet only measures the pass's speed when both run on one CPU
    os.sched_setaffinity(0, {args.cpu})

    import scipy
    import scipy.linalg  # noqa: F401  (imported by fieldquant; counted in set-up)
    import fieldquant
    import fieldquant.cli  # noqa: F401

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(fieldquant.__file__).resolve().parents:
        print(f"fieldquant imported from {fieldquant.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads
    workload = workloads.build(args.workload, args.seed, args.workdir)
    setup_wall_s = time.monotonic() - args.spawned
    snippet_s()  # first-call costs (FFT plan, allocator) stay out of the timings

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    result = run_pass(workload, tracer)
    result.update(setup_s=setup_wall_s * REFERENCE_SNIPPET_S / result["snippet_s"]["before"],
                  setup_wall_s=setup_wall_s, inputs=workload.inputs,
                  versions={"python": sys.version.split()[0], "numpy": np.__version__,
                            "scipy": scipy.__version__, "fieldquant": fieldquant.__version__})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
