"""Span tracing of fieldquant's layers, installed from outside the library.

`Tracer.install` wraps the public functions of each layer module, the
stepper and operator-product methods, and numpy's FFT entry points.  Every
wrapped call is a span: its duration is added to the enclosing span's child
time, so a layer's self time is the time its spans spent outside any other
traced span.  The pass itself is the root span (layer ``bench``); its self
time is what no layer accounts for.  All spans of a pass sum to its wall time.
Sampler ticks reported through ``exclude`` (the worker's speed sampling) are
taken out of every span whose interval holds them.

Nothing here edits the library.  Module attributes are rebound in every
``fieldquant`` module namespace that holds the original object, because the
layers import one another's functions by name.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("verify", "cli", "propagate", "grids", "algebra", "symmetry",
          "solutions", "observables")

VERIFY_GROUPS = ("symbolic", "residual", "ladder", "resummation", "landau",
                 "symmetry", "quantization", "newton", "propagator")

STEP_KINDS = ("cn_step", "split_step")
FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn")
CN_SIZES = (256, 1024, 8192)


class _Frame:
    __slots__ = ("kind", "child", "steps", "first_tick")

    def __init__(self, kind, first_tick):
        self.kind = kind
        self.child = 0.0        # time in traced child spans
        self.steps = 0.0        # time in child step and stepper-build spans
        self.first_tick = first_tick  # sampler ticks before this one ended earlier


class Tracer:
    """Collects span durations, layer self times and exact counts of one pass."""

    def __init__(self):
        self._stack: list[_Frame] = []
        self._ticks: list[tuple[float, float]] = []   # (start, seconds) of sampler ticks
        self.self_s = defaultdict(float)
        self.durations = defaultdict(list)   # span key -> seconds per call
        self.counts = Counter()

    # --- spans -----------------------------------------------------------------

    def _begin(self, kind=None) -> _Frame:
        frame = _Frame(kind, len(self._ticks))
        self._stack.append(frame)
        return frame

    def _end(self, frame: _Frame, layer: str, key: str, t0: float, t1: float) -> float:
        """Close the innermost span, open over [t0, t1]; returns its duration
        net of the sampler ticks inside it.  A tick runs between two
        bytecodes, so it lies wholly inside or wholly outside the interval."""
        self._stack.pop()
        dur = t1 - t0 - sum(s for start, s in self._ticks[frame.first_tick:]
                            if t0 <= start <= t1)
        if self._stack:
            parent = self._stack[-1]
            parent.child += dur
            if frame.kind in STEP_KINDS or frame.kind == "build":
                parent.steps += dur
        self.self_s[layer] += dur - frame.child
        self.durations[key].append(dur)
        return dur

    def exclude(self, start: float, seconds: float):
        """Record a sampler tick that began at ``start`` and took ``seconds``;
        it counts toward no span."""
        self._ticks.append((start, seconds))

    def wrap(self, layer, name, fn, kind=None, tag=None, after=None):
        """Return ``fn`` traced as a span of ``layer``.

        ``tag(args)`` refines the span key (for example by grid size);
        ``after(frame, dur, args, result)`` records counts from the call.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._begin(kind)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                key = f"{layer}.{name}" if tag is None else f"{layer}.{name}.{tag(args)}"
                dur = self._end(frame, layer, key, t0, t1)
            if after is not None:
                after(frame, dur, args, result)
            return result
        return traced

    def run_root(self, fn):
        """Run ``fn`` as the root span of a pass; returns (result, seconds)."""
        frame = self._begin("pass")
        t0 = perf_counter()
        try:
            result = fn()
        finally:
            dur = self._end(frame, "bench", "bench.pass", t0, perf_counter())
        return result, dur

    # --- counters ----------------------------------------------------------------

    def _count_fft(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for frame in reversed(self._stack):
                if frame.kind in STEP_KINDS:
                    self.counts[f"fft.{frame.kind}"] += 1
                    break
                if frame.kind == "evolve":
                    self.counts["fft.row"] += 1
                    break
            else:
                self.counts["fft.other"] += 1
            return fn(*args, **kwargs)
        return counted

    def _after_evolve(self, frame, dur, args, record):
        self.counts["propagate.rows"] += len(record.rows)
        self.durations["propagate.record"].append(dur - frame.steps)

    def _after_product(self, frame, dur, args, result):
        self.counts["algebra.terms_out"] += len(result.terms)

    def _after_write_csv(self, frame, dur, args, result):
        path, _, _, rows = args[:4]
        self.counts["cli.rows_written"] += len(rows)
        self.counts["cli.bytes_written"] += os.path.getsize(path)

    # --- installation ------------------------------------------------------------

    def install(self):
        """Wrap every layer of the imported ``fieldquant`` package."""
        import numpy as np

        modules = {layer: importlib.import_module(f"fieldquant.{layer}") for layer in LAYERS}
        replaced = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    replaced[obj] = self._wrap_function(layer, name, obj)
        cli = modules["cli"]
        replaced[cli._write_csv] = self.wrap("cli", "write_csv", cli._write_csv,
                                             after=self._after_write_csv)
        for mod in [m for n, m in sys.modules.items()
                    if n == "fieldquant" or n.startswith("fieldquant.")]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, name, replaced[obj])
        groups = modules["verify"].GROUPS
        for group, fn in groups.items():
            if fn in replaced:
                groups[group] = replaced[fn]

        prop = modules["propagate"]
        for cls, kind in ((prop.CrankNicolson1D, "cn_step"), (prop.SplitStepYZ, "split_step")):
            cls.__init__ = self.wrap("propagate", "build", cls.__init__, kind="build")
            tag = (lambda args: args[1].size) if kind == "cn_step" \
                else (lambda args: args[1].shape[0])
            cls.step = self.wrap("propagate", kind, cls.step, kind=kind, tag=tag)
        expr = modules["algebra"].OperatorExpr
        expr.__mul__ = self.wrap("algebra", "product", expr.__mul__, after=self._after_product)
        for name in ("__add__", "__sub__", "__neg__", "__pow__", "scale"):
            setattr(expr, name, self.wrap("algebra", name.strip("_"), getattr(expr, name)))
        for name in FFT_NAMES:
            setattr(np.fft, name, self._count_fft(getattr(np.fft, name)))

    def _wrap_function(self, layer, name, fn):
        if layer == "propagate" and name == "evolve":
            return self.wrap(layer, name, fn, kind="evolve", after=self._after_evolve)
        if layer == "grids" and name == "expectation":
            return self.wrap(layer, name, fn,
                             tag=lambda args: "1d" if args[1].values.ndim == 1 else "2d")
        return self.wrap(layer, name, fn)

    # --- metrics -------------------------------------------------------------------

    def _median_us(self, key) -> float:
        values = self.durations.get(key)
        return 1e6 * statistics.median(values) if values else 0.0

    def _calls(self, prefix) -> int:
        return sum(len(v) for k, v in self.durations.items()
                   if k == prefix or k.startswith(prefix + "."))

    def metrics(self, pass_s: float) -> dict:
        """Per-layer metrics of the traced pass; absent work reads 0."""
        d, c = self.durations, self.counts
        out = {}
        for group in VERIFY_GROUPS:
            fn = "checks_ladder_grid" if group == "ladder" else f"checks_{group}"
            out[f"verify.group_s.{group}"] = sum(d.get(f"verify.{fn}", ()), 0.0)
        for n in CN_SIZES:
            out[f"propagate.cn_step_us.n{n}"] = self._median_us(f"propagate.cn_step.{n}")
        out["propagate.split_step_us.n64"] = self._median_us("propagate.split_step.64")
        cn_steps, split_steps = self._calls("propagate.cn_step"), self._calls("propagate.split_step")
        rows = c["propagate.rows"]
        out.update({
            "propagate.steps": cn_steps + split_steps,
            "propagate.stepper_builds": self._calls("propagate.build"),
            "propagate.build_us": self._median_us("propagate.build"),
            "propagate.record_us_per_row":
                1e6 * sum(d.get("propagate.record", ())) / rows if rows else 0.0,
            "grids.expectation.calls": self._calls("grids.expectation"),
            "grids.expectation_us.1d": self._median_us("grids.expectation.1d"),
            "grids.expectation_us.2d": self._median_us("grids.expectation.2d"),
            "grids.sample.calls": self._calls("grids.sample"),
            "grids.sample_us": self._median_us("grids.sample"),
            "grids.residual.calls": self._calls("grids.schrodinger_residual"),
            "grids.residual_us": self._median_us("grids.schrodinger_residual"),
            "grids.hamiltonian_yz_us": self._median_us("grids.apply_hamiltonian_yz"),
            "fft.calls_per_split_step":
                c["fft.split_step"] / split_steps if split_steps else 0.0,
            "fft.calls_per_row": c["fft.row"] / rows if rows else 0.0,
            "algebra.products": self._calls("algebra.product"),
            "algebra.product_us":
                1e6 * sum(d.get("algebra.product", ())) / max(self._calls("algebra.product"), 1),
            "algebra.terms_out": c["algebra.terms_out"],
            "algebra.heisenberg.calls": self._calls("algebra.heisenberg_residual"),
            "algebra.heisenberg_ms": 1e-3 * self._median_us("algebra.heisenberg_residual"),
            "symmetry.invariance_phase_us": self._median_us("symmetry.invariance_phase"),
            "symmetry.quantization_report_us": self._median_us("symmetry.quantization_report"),
            "symmetry.conjugation_check_ms":
                1e-3 * self._median_us("symmetry.conjugation_symmetry_check"),
            "solutions.calls": self._calls("solutions"),
            "observables.newton_check_ms": 1e-3 * self._median_us("observables.newton_check"),
            "observables.current_ms": 1e-3 * self._median_us("observables.probability_current_1d"),
            "cli.rows_written": c["cli.rows_written"],
            "cli.bytes_written": c["cli.bytes_written"],
        })
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
        out["trace.pass_s"] = pass_s
        out["trace.unattributed_s"] = self.self_s["bench"]
        return out
