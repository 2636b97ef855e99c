"""Command-line interface: verification suites, time evolution, quantization
scans, and closed-form solution dumps.

Subcommands: verify, evolve1d, evolve-landau, quantize, eval.  All accept
``--config <path>`` (JSON, see config.build_config) plus overrides.  CSV
outputs carry ``#`` metadata lines and are byte-identical across runs with
identical inputs; exit codes are 0 (all pass), 1 (check failures), 2
(usage, config or output errors).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .config import (ConfigError, SystemConfig, build_config, natural_config,
                     read_document, refuse_overflow, require_geometry, serialize)
from . import solutions as sol
from . import grids as gr
from . import propagate as prop
from . import symmetry as sym
from . import observables as obs
from .verify import run_verify


def _fmt(value) -> str:
    return f"{value:.17g}" if isinstance(value, float) else str(value)


def _write_csv(path: str, metadata: dict, header: list[str], rows) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key in sorted(metadata):
            fh.write(f"# {key}={_fmt(metadata[key])}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_json(path: str, payload: dict) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_cfg(args) -> SystemConfig:
    raw = read_document(args.config) if args.config else serialize(natural_config())
    if args.units and isinstance(raw, dict):
        # the document's numbers, and a charge "e" or "-e", read in the new system
        raw = {**raw, "units": args.units}
    return build_config(raw)


def _config_metadata(cfg: SystemConfig, command: str, options: dict) -> dict:
    return {**{f"config.{k}": v for k, v in serialize(cfg).items()}, "command": command,
            **options}


# --- verify ---------------------------------------------------------------

def cmd_verify(args) -> int:
    cfg = _load_cfg(args) if args.config or args.units else None
    report = run_verify(cfg, filters=args.filter or (), op_text=args.op)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        width = max((len(c.name) for c in report.checks), default=4)
        for c in report.checks:
            status = "pass" if c.passed else "FAIL"
            tol = "exact" if c.tolerance == 0 else f"{c.tolerance:.1e}"
            print(f"{c.name:<{width}}  {status}  value={c.value:.3e}  tol={tol}  {c.anchor}")
        n_fail = sum(not c.passed for c in report.checks)
        print(f"{len(report.checks)} checks, {n_fail} failures")
    if args.out_dir:
        _write_json(os.path.join(args.out_dir, "verify_report.json"), report.as_dict())
    return report.exit_code


# --- evolve1d ----------------------------------------------------------------

def _print_result(args, path: str, payload: dict) -> None:
    """The output path, or ``payload`` as JSON under ``--json``."""
    print(json.dumps(payload, indent=2, sort_keys=True) if args.json else path)


def _trajectory_outputs(args, record, metadata, stem: str, extra: dict):
    csv_path = os.path.join(args.out_dir, f"{stem}_trajectory.csv")
    rows = record.rows.tolist()   # Python floats format faster than numpy's
    _write_csv(csv_path, metadata, record.columns, rows)
    summary = {
        "rows": len(rows),
        "columns": record.columns,
        "t_final": rows[-1][0],   # evolve always records the initial row
        "norm_final": rows[-1][1],
        **extra,
    }
    _write_json(os.path.join(args.out_dir, f"{stem}_summary.json"), summary)
    _print_result(args, csv_path, summary)
    return 0


def cmd_evolve1d(args) -> int:
    cfg = _load_cfg(args)
    if args.steps == 0 and (args.cadence or args.richardson):
        raise ValueError("--cadence and --richardson need at least one step, not --steps 0")
    grid = gr.Grid1D(cfg.box_length, args.grid_n, "dirichlet")
    x = grid.x
    sigma = args.sigma
    if not (sigma > 0 and 0 < 2.0 * math.pi * (sigma * sigma) < math.inf):
        raise ValueError(f"--sigma must be finite and positive, with 2*pi*sigma^2 "
                         f"a nonzero float, got {sigma}")
    psi0 = refuse_overflow(
        lambda: ((2.0 * math.pi * sigma ** 2) ** -0.25
                 * np.exp(-(x - args.x0) ** 2 / (4.0 * sigma ** 2))
                 * np.exp(1j * args.p0 * x / cfg.hbar)),
        lambda: (f"--x0 {args.x0} and --p0 {args.p0} give a packet with non-finite "
                 f"samples or exponents at --sigma {sigma}"))
    f0 = gr.WaveField(grid, psi0, 0.0)
    spec = prop.EvolutionSpec(dt=args.dt, steps=args.steps,
                              cadence=args.cadence or max(args.steps, 1), method="cn_1d")
    record = prop.evolve(f0, spec, cfg)
    extra = {}
    if args.richardson:
        extra["order_estimate"] = prop.estimate_order(
            f0, args.steps * args.dt, "cn_1d", cfg, base_steps=min(args.steps, 64))
    if args.steps:
        extra["newton_max_residual"] = obs.newton_check(record, cfg)["max_residual"] \
            if len(record.rows) >= 3 else None
    meta = _config_metadata(cfg, "evolve1d", {
        "dt": args.dt, "steps": args.steps, "sigma": sigma, "x0": args.x0, "p0": args.p0,
        "grid_n": args.grid_n})
    return _trajectory_outputs(args, record, meta, "evolve1d", extra)


def cmd_evolve_landau(args) -> int:
    cfg = _load_cfg(args)
    require_geometry(cfg, "parallel_eb", "evolve-landau")
    if args.steps_per_period < 1:
        raise ValueError("--steps-per-period must be at least 1")
    grid = gr.landau_grid(cfg, npoints=args.grid_n, ly=args.ly)
    dy = gr.snap_shift(grid.y, args.dy)
    state = sol.parallel_family(cfg, "family_y", args.n, dy, box=grid.z.length)
    f0 = gr.sample(state, grid, 0.0)
    period = prop.cyclotron_period(cfg)
    steps = args.periods * args.steps_per_period
    spec = prop.EvolutionSpec(dt=period / args.steps_per_period, steps=steps,
                              cadence=args.steps_per_period, method="split_yz")
    record = prop.evolve(f0, spec, cfg)
    extra = {"cyclotron_period": period, "dy_snapped": dy}
    if args.richardson:
        extra["order_estimate"] = prop.estimate_order(f0, period, "split_yz", cfg,
                                                      base_steps=64)
    meta = _config_metadata(cfg, "evolve-landau", {
        "n": args.n, "dy": dy, "periods": args.periods,
        "steps_per_period": args.steps_per_period, "grid_n": args.grid_n, "ly": args.ly})
    return _trajectory_outputs(args, record, meta, "evolve_landau", extra)


# --- quantize -------------------------------------------------------------------

def cmd_quantize(args) -> int:
    cfg = _load_cfg(args)
    if args.dt_steps < 1:
        raise ConfigError("dt-steps", "scan needs at least one point")
    refuse_overflow(lambda: args.dt_max - args.dt_min,
                    lambda: (f"--dt-min {args.dt_min} and --dt-max {args.dt_max} must be "
                             "finite, and so must their difference"))
    dts = np.linspace(args.dt_min, args.dt_max, args.dt_steps)
    header = ["dt", "n_real", "nearest", "is_quantized", "V", "I", "R", "R_over_RK"]
    si_mode = cfg.units.kind == "si"
    if si_mode:
        header.append("R_ohm")
    header.append("error")
    rows, hits, reasons = [], [], []
    for dt_shift, rep in zip(dts, sym.scan_quantization(args.dx, dts, cfg, args.tol)):
        if isinstance(rep, str):   # no verdict at this point; rep is the reason
            rows.append([dt_shift] + [""] * (len(header) - 2) + [rep])
            reasons.append(rep)
            continue
        row = [rep.dt, rep.n_real, rep.nearest, int(rep.is_quantized),
               rep.voltage, rep.current, rep.resistance, rep.resistance_in_klitzing]
        if si_mode:
            row.append(rep.resistance_ohms)
        row.append("")
        rows.append(row)
        if rep.is_quantized:
            hits.append({"dt": rep.dt, "n": rep.nearest, "R_over_RK": rep.resistance_in_klitzing})
    meta = _config_metadata(cfg, "quantize", {
        "dx": args.dx, "dt_min": args.dt_min, "dt_max": args.dt_max,
        "dt_steps": args.dt_steps, "tol": args.tol})
    csv_path = os.path.join(args.out_dir, "quantize_scan.csv")
    _write_csv(csv_path, meta, header, rows)
    summary = {"integer_hits": hits, "points": len(rows), "dx": args.dx}
    _write_json(os.path.join(args.out_dir, "quantize_summary.json"), summary)
    if len(reasons) == len(rows):
        # the CSV holds each point's reason; a scan that decides nothing is an error
        raise ValueError(f"no scan point gets a verdict; the first: {reasons[0]}")
    _print_result(args, csv_path, summary)
    return 0


# --- eval ------------------------------------------------------------------------

# family -> (geometry, options it reads besides --times and --grid-n, state builder).
# The builder takes the config and the values of those options but current, in order;
# a family that reads ly is sampled on landau_grid, which it gets in ly's place.
EVAL_FAMILIES = {
    "fundamental": ("electric_1d", ("current",), sol.electric_fundamental),
    "shifted": ("electric_1d", ("dt_shift", "current"), sol.electric_shifted),
    "ladder": ("electric_1d", ("n", "current"), sol.electric_ladder),
    "taylor": ("electric_1d", ("dt_shift", "order", "current"), sol.electric_taylor),
    "oscillator": ("parallel_eb", ("n", "current"), sol.oscillator_1d),
    "family-y": ("parallel_eb", ("n", "shift", "ly"), lambda cfg, n, dy, grid: sol.parallel_family(
        cfg, "family_y", n, gr.snap_shift(grid.y, dy), grid.z.length)),
    "family-z": ("parallel_eb", ("n", "shift", "ly"), lambda cfg, n, dz, grid: sol.parallel_family(
        cfg, "family_z", n, gr.snap_offset(grid.z, dz), grid.y.length)),
}


def cmd_eval(args) -> int:
    cfg = _load_cfg(args)
    times = [float(v) for v in args.times.split(",") if v.strip()]
    if not times:
        raise ValueError(f"--times {args.times!r} lists no time")
    for option, value in [("--times", t) for t in times] + [
            ("--dt-shift", args.dt_shift), ("--shift", args.shift), ("--ly", args.ly)]:
        if not math.isfinite(value):
            raise ValueError(f"{option} must be finite, got {value}")
    family = args.family
    geometry, reads, build = EVAL_FAMILIES[family]
    require_geometry(cfg, geometry, family)
    for dest in ("n", "dt_shift", "order", "shift", "ly", "current"):
        if dest not in reads and getattr(args, dest) != args.default(dest):
            readers = ", ".join(f for f in EVAL_FAMILIES if dest in EVAL_FAMILIES[f][1])
            raise ValueError(f"--{dest.replace('_', '-')} applies to {readers}, not {family}")
    if "ly" in reads:
        grid, header = gr.landau_grid(cfg, npoints=args.grid_n, ly=args.ly), ["y", "z"]
    else:
        grid, header = gr.Grid1D(cfg.box_length, args.grid_n, "periodic"), ["x"]
    state = build(cfg, *[grid if d == "ly" else getattr(args, d) for d in reads if d != "current"])
    header += ["t", "re", "im", "abs2"] + (["J", "rho", "v"] if args.current else [])
    rows = []
    for t in times:
        f = gr.sample(state, grid, t)
        peak = float(np.abs(f.values).max())
        refuse_overflow(lambda: peak * peak, lambda: (
            f"|psi|^2 overflows float64 at t = {t}: |psi| reaches {peak:.3g}"))
        if args.current and family in ("fundamental", "shifted"):   # the closed form i k psi
            prof = obs.probability_current_1d(state, cfg, t, x=grid.x)
        elif args.current:   # fd4, with no current read across the periodic wrap
            prof = obs.probability_current_1d(f, cfg)
            wrap = np.r_[:gr.STENCIL_REACH, -gr.STENCIL_REACH:0]
            prof.current[wrap] = prof.velocity[wrap] = math.nan
        for index in np.ndindex(grid.shape):
            val = f.values[index]
            row = [axis.x[i] for axis, i in zip(grid.axes, index)]
            row += [t, val.real, val.imag, abs(val) ** 2]
            if args.current:
                j, v = prof.current[index], prof.velocity[index]
                row += ["" if math.isnan(j) else j, prof.density[index],
                        "" if math.isnan(v) else v]
            rows.append(row)
    meta = _config_metadata(cfg, "eval", {
        "family": family, "label": state.label, "grid_n": args.grid_n, "times": args.times})
    path = os.path.join(args.out_dir, f"eval_{family.replace('-', '_')}.csv")
    _write_csv(path, meta, header, rows)
    _print_result(args, path, {"csv": path, "rows": len(rows)})
    return 0


# --- parser --------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="path to a JSON config document")
    p.add_argument("--units", choices=("natural", "cgs", "si"),
                   help="override the unit system")
    p.add_argument("--out-dir", default=".", help="directory for output files")
    p.add_argument("--json", action="store_true", help="emit JSON to stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fieldquant",
        description="conserved-operator verification and resistance quantization "
                    "for charged particles in constant fields")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("verify", help="run the named check battery")
    _add_common(p)
    p.add_argument("--filter", action="append",
                   help="only run groups whose name contains this substring")
    p.add_argument("--op", help="ad-hoc operator text to test for conservation")
    p.set_defaults(fn=cmd_verify, out_dir=None)  # report file only on request

    p = subs.add_parser("evolve1d", help="Crank-Nicolson run of a Gaussian packet")
    _add_common(p)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--cadence", type=int, default=0,
                   help="record every N steps (default: final step only)")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--x0", type=float, default=0.0)
    p.add_argument("--p0", type=float, default=0.0)
    p.add_argument("--grid-n", type=int, default=1024)
    p.add_argument("--richardson", action="store_true",
                   help="attach a convergence-order estimate")
    p.set_defaults(fn=cmd_evolve1d)

    p = subs.add_parser("evolve-landau", help="split-step run of a stationary state")
    _add_common(p)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--dy", type=float, default=1.0)
    p.add_argument("--periods", type=int, default=1)
    p.add_argument("--steps-per-period", type=int, default=512)
    p.add_argument("--grid-n", type=int, default=64)
    p.add_argument("--ly", type=float, default=24.0)
    p.add_argument("--richardson", action="store_true")
    p.set_defaults(fn=cmd_evolve_landau)

    p = subs.add_parser("quantize", help="scan dt and report quantization verdicts")
    _add_common(p)
    p.add_argument("--dx", type=float, required=True)
    p.add_argument("--dt-min", type=float, required=True)
    p.add_argument("--dt-max", type=float, required=True)
    p.add_argument("--dt-steps", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(fn=cmd_quantize)

    p = subs.add_parser("eval", help="dump closed-form solutions as CSV")
    _add_common(p)
    p.add_argument("--family", required=True, choices=EVAL_FAMILIES)
    p.add_argument("--n", type=int, default=0, help="quantum number / ladder order")
    p.add_argument("--dt-shift", type=float, default=0.0)
    p.add_argument("--order", type=int, default=10, help="truncation order (taylor)")
    p.add_argument("--shift", type=float, default=0.0, help="dy or dz displacement")
    p.add_argument("--times", default="0.0", help="comma-separated evaluation times")
    p.add_argument("--grid-n", type=int, default=128)
    p.add_argument("--ly", type=float, default=24.0)
    p.add_argument("--current", action="store_true",
                   help="append current/density/velocity columns (1D families)")
    p.set_defaults(fn=cmd_eval, default=p.get_default)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()   # a closed stdout is reported here, not at exit
        return code
    except ConfigError as exc:
        print(f"config error [{exc.field}]: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:   # ParseError, NyquistError, an unwritable --out-dir
        if isinstance(exc, BrokenPipeError):   # stdout's reader left: write the rest nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except prop.AlreadyConvergedError as exc:
        print(f"error: {exc}; no order estimate at this step size", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
