"""Command-line interface: subcommands, exit codes, deterministic outputs."""

import contextlib
import fcntl
import io
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import fieldquant
from fieldquant import symmetry as Y
from fieldquant.cli import EVAL_FAMILIES, main
from fieldquant.verify import _witness


def run(args):
    return main(args)


def read(path):
    return path.read_bytes()


def test_verify_symbolic_filter_passes(capsys):
    assert run(["verify", "--filter", "symbolic"]) == 0
    out = capsys.readouterr().out
    assert "symbolic.conserved" in out
    assert "0 failures" in out


def test_verify_adhoc_operator_conserved(capsys):
    assert run(["verify", "--filter", "symbolic", "--op", "px - q*E*t"]) == 0
    assert "symbolic.adhoc" in capsys.readouterr().out


def test_verify_adhoc_operator_not_conserved():
    assert run(["verify", "--filter", "symbolic", "--op", "px"]) == 1


def test_verify_refuses_a_filter_that_matches_no_group(capsys):
    """No verdict for checks that never ran: the refusal names the groups."""
    assert run(["verify", "--filter", "nosuchgroup", "--json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: no check group name contains 'nosuchgroup'; the groups are "
                   "symbolic, residual, ladder, resummation, landau, symmetry, quantization, "
                   "newton, propagator\n")


def test_verify_refuses_an_op_whose_group_is_filtered_out(capsys):
    """``--op`` is checked in the symbolic group; a filter that leaves it out
    would drop the ad-hoc check and report the rest as passed."""
    assert run(["verify", "--filter", "resid", "--op", "px"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --op needs the symbolic group, which --filter leaves out\n"


def test_verify_tampered_hamiltonian_fails(tmp_path):
    cfg = {"m": 1, "q": 1, "E": 1, "L": 8.0,
           "hamiltonian_override": "1/2*px^2 + q*E*x"}
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(cfg))
    assert run(["verify", "--filter", "symbolic", "--config", str(path)]) == 1


def test_verify_refuses_a_hamiltonian_override_whose_group_is_filtered_out(tmp_path, capsys):
    """Only the symbolic group reads ``hamiltonian_override``; a filter that
    leaves it out would pass the other groups on the untampered system."""
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps({"m": 1, "q": 1, "E": 1, "L": 8.0,
                                "hamiltonian_override": "1/2*px^2 + q*E*x"}))
    assert run(["verify", "--filter", "newton", "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: hamiltonian_override needs the symbolic group, "
                   "which --filter leaves out\n")


ELECTRIC_CFG = {"m": 1, "q": 1, "E": 1, "L": 8}


@pytest.mark.parametrize("group, code", [("landau", 2), ("quant", 0)])
def test_verify_refuses_a_config_no_selected_group_reads(tmp_path, capsys, group, code):
    """Only the symbolic and quantization groups read the config; the others
    run on canonical setups, so a config under them would go unread."""
    path = tmp_path / "c.json"
    path.write_text(json.dumps(ELECTRIC_CFG))
    assert run(["verify", "--filter", group, "--config", str(path)]) == code
    out, err = capsys.readouterr()
    if code == 2:
        assert out == ""
        assert err == ("error: --config or --units needs the symbolic or quantization "
                       "group, which --filter leaves out\n")
    else:
        assert out.endswith("7 checks, 0 failures\n") and err == ""


def test_verify_json_output(capsys, tmp_path):
    assert run(["verify", "--filter", "symbolic", "--json",
                "--out-dir", str(tmp_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_passed"] is True
    assert (tmp_path / "verify_report.json").exists()
    saved = json.loads((tmp_path / "verify_report.json").read_text())
    assert saved == payload


def test_verify_every_check_carries_anchor(capsys):
    run(["verify", "--filter", "symbolic", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert all(c["anchor"].strip() for c in payload["checks"])


def test_config_error_exit_code(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"q": 1, "E": 1, "L": 8.0}))  # missing mass
    assert run(["verify", "--config", str(path)]) == 2


@pytest.mark.parametrize("document, message", [
    ({"units": "mks", "m": 1, "q": 1, "E": 1, "L": 8},
     "config error [units]: unknown unit system 'mks'; expected one of "
     "('natural', 'cgs', 'si')"),
    ({"m": "heavy", "q": 1, "E": 1, "L": 8}, "config error [m]: m must be a number, got 'heavy'"),
    ([1, 2], "config error [document]: configuration must be a mapping"),
    ({"m": 1, "q": 1, "E": 1, "L": 8, "hamiltonian_override": 7},
     "config error [hamiltonian_override]: hamiltonian_override must be operator text"),
], ids=["units", "mass", "list", "override"])
def test_verify_refuses_a_malformed_config_document(tmp_path, capsys, document, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(document))
    assert run(["verify", "--config", str(path)]) == 2
    assert capsys.readouterr() == ("", message + "\n")


OVERRIDE_CFG = {"m": 1, "q": 1, "E": 1, "L": 8, "hamiltonian_override": "1/2*px^2 - q*E*x"}


def test_evolve1d_csv_records_the_hamiltonian_override(tmp_path):
    path = tmp_path / "override.json"
    path.write_text(json.dumps(OVERRIDE_CFG))
    assert run(["evolve1d", "--config", str(path), "--steps", "4", "--grid-n", "64",
                "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "evolve1d_trajectory.csv").read_text().splitlines()
    assert "# config.hamiltonian_override=1/2*px^2 - q*E*x" in lines


@pytest.mark.parametrize("document, op, code, residual", [
    ({"m": 1, "q": 1, "E": 1, "B": 1.0, "L": 8.0, "geometry": "parallel_eb"}, "pz", 0, "0"),
    # py is conserved under the 1D Hamiltonian, not under the parallel-field one
    ({"m": 1, "q": 1, "E": 1, "B": 1.0, "L": 8.0, "geometry": "parallel_eb"}, "py", 1,
     "-m*wc^2*y + wc*pz"),
    # conserved under the default 1D Hamiltonian; the override flips the force
    ({**OVERRIDE_CFG, "hamiltonian_override": "1/2*px^2 + q*E*x"}, "px - q*E*t", 1, "-2*q*E"),
], ids=["parallel-pz", "parallel-py", "override"])
def test_verify_op_is_checked_under_the_config_hamiltonian(tmp_path, capsys, document, op,
                                                           code, residual):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(document))
    assert run(["verify", "--filter", "symbolic", "--op", op, "--config", str(path),
                "--json"]) == code
    [adhoc] = [c for c in json.loads(capsys.readouterr().out)["checks"]
               if c["name"] == f"symbolic.adhoc[{op}]"]
    assert adhoc["passed"] is (code == 0)
    assert adhoc["anchor"].endswith(f"residual = {residual}")


def test_missing_config_file_exit_2(tmp_path, capsys):
    code = run(["evolve1d", "--config", str(tmp_path / "nothere.json"),
                "--out-dir", str(tmp_path)])
    assert code == 2
    assert "config error [document]: cannot read config file" in capsys.readouterr().err


def test_operator_parse_error_exit_code():
    assert run(["verify", "--filter", "symbolic", "--op", "px + @"]) == 2


def test_deeply_nested_operator_exit_2(tmp_path, capsys):
    text = "(" * 300 + "x" + ")" * 300
    assert run(["verify", "--filter", "symbolic", "--op", text]) == 2
    assert "nested too deeply" in capsys.readouterr().err
    path = tmp_path / "nested.json"
    path.write_text(json.dumps({"m": 1, "q": 1, "E": 1, "L": 8.0,
                                "hamiltonian_override": text}))
    assert run(["verify", "--filter", "symbolic", "--config", str(path)]) == 2
    assert "nested too deeply" in capsys.readouterr().err


def run_subprocess(args, timeout=60, python_args=()):
    """``fieldquant`` in a fresh interpreter: its stderr holds the warnings too."""
    src = str(pathlib.Path(fieldquant.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, *python_args, "-m", "fieldquant.cli", *args],
                          env=env, capture_output=True, text=True, timeout=timeout)


def test_huge_operator_exponent_exits_2_in_time():
    """The exponent is refused when parsed, before any product is formed."""
    out = run_subprocess(["verify", "--filter", "symbolic", "--op", "x^99999999999999999999"])
    assert out.returncode == 2
    assert "exponent too large" in out.stderr


def test_operator_power_past_the_term_budget_exits_2_in_time():
    """An exponent far under the cap whose products outgrow the term budget:
    the tenth power of the six-term sum has 4900 terms, so the next product
    would form 4900 x 6 term pairs, more than ``MAX_TERM_PAIRS`` allows."""
    out = run_subprocess(["verify", "--filter", "symbolic", "--op", "(x+y+z+px+py+pz)^30"],
                         timeout=30)
    assert out.returncode == 2
    assert "operator product too large" in out.stderr
    assert "Traceback" not in out.stderr


def test_operator_power_past_the_part_budget_exits_2_in_time():
    """README's example of a power whose products each stay small but share
    one budget of ``MAX_PRODUCT_PARTS`` normal-ordered parts, which runs out."""
    out = run_subprocess(["verify", "--filter", "symbolic", "--op", "(px*x)^300"], timeout=30)
    assert out.returncode == 2
    assert out.stderr == ("error: operator product too large: "
                          "more than 100000 normal-ordered parts\n")


def test_overflowing_ladder_order_exits_2_without_warnings(tmp_path):
    """A field whose ladder coefficients overflow float64 at order 2 gives one
    message naming that order, and no numpy RuntimeWarning."""
    path = tmp_path / "strong.json"
    path.write_text(json.dumps({"m": 1, "q": 1, "E": 1e150, "L": 8}))
    out = run_subprocess(["eval", "--config", str(path), "--family", "ladder", "--n", "3",
                          "--grid-n", "16", "--out-dir", str(tmp_path)])
    assert out.returncode == 2
    assert "RuntimeWarning" not in out.stderr
    assert out.stderr == ("error: ladder order 2 has non-finite coefficients at q E = 1e+150; "
                          "float64 cannot hold this order of the ladder\n")


@pytest.mark.parametrize("args, message", [
    (["evolve1d", "--p0", "inf", "--steps", "2", "--grid-n", "64"],
     "--x0 0.0 and --p0 inf give a packet with non-finite samples or exponents at --sigma 1.0"),
    (["evolve1d", "--x0", "1e308"],
     "--x0 1e+308 and --p0 0.0 give a packet with non-finite samples or exponents at --sigma 1.0"),
    (["evolve1d", "--sigma", "1e-160"],
     "--x0 0.0 and --p0 0.0 give a packet with non-finite samples or exponents at --sigma 1e-160"),
    (["quantize", "--dx", "1", "--dt-min", "0", "--dt-max", "inf", "--dt-steps", "3"],
     "--dt-min 0.0 and --dt-max inf must be finite, and so must their difference"),
], ids=["p0-inf", "x0-1e308", "sigma-1e-160", "dt-max-inf"])
def test_overflowing_options_exit_2_without_warnings(tmp_path, args, message):
    """Inputs that overflow float64 in the packet or the scan grid exit 2: stderr
    holds the one message naming the options, no numpy warning, and nothing is
    written."""
    out = run_subprocess(args + ["--out-dir", str(tmp_path)])
    assert out.returncode == 2
    assert out.stderr == f"error: {message}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("config, args, message", [
    ({"m": 1, "q": "e", "E": 1e300, "L": 8, "units": "cgs"},
     ["evolve1d", "--steps", "4", "--grid-n", "64"],
     "the Crank-Nicolson diagonals i dt (hbar^2/(m dx^2) - q E x) / (2 hbar) overflow float64 "
     "at dt = 0.001, dx = 0.125, m = 1 and q E = 4.8e+290"),
    ({"m": 1, "q": 1, "E": 1, "B": 1.0, "L": 8.0, "geometry": "parallel_eb"},
     ["evolve-landau", "--grid-n", "16", "--periods", "0", "--steps-per-period", "1",
      "--ly", "1e-300", "--dy", "0"],
     "the split-step kicks exp(-i dt p^2 / (2 m hbar)) overflow float64 at dt = 6.28, "
     "grid lengths 1e-300 x 1.01e+302 of 16 x 16 points, m = 1 and m wc = 1"),
    ({"m": 1, "q": 1, "E": 1, "B": 1.0, "L": 8.0, "geometry": "parallel_eb"},
     ["eval", "--family", "family-z", "--shift", "1e300", "--ly", "1e300"],
     "cannot snap 1e+300 to a lattice of spacing 6.28319e-300"),
    # cgs: hbar = 1.05e-27, so dt / hbar is huge (fuzz seeds 45 and 48)
    ({"m": 1, "q": 1, "E": 1, "L": 8, "units": "cgs"},
     ["eval", "--family", "taylor", "--dt-shift", "1e300"],
     "dt / hbar overflows float64 at dt = 1e+300 and hbar = 1.05e-27"),
    ({"m": 1, "q": 1, "E": 1, "L": 8, "units": "cgs"},
     ["eval", "--family", "taylor", "--grid-n", "16", "--dt-shift", "1"],
     "|psi|^2 overflows float64 at t = 0.0: |psi| reaches 6.01e+268"),
    # the family-z y-wavenumber bound m |wc| (|dz| + span) / hbar (fuzz seed 59)
    ({"m": 1, "q": 1, "E": 1, "B": 1.0, "L": 8.0, "geometry": "parallel_eb", "units": "cgs"},
     ["eval", "--family", "family-z", "--grid-n", "16", "--shift", "1e300", "--ly", "1e-300"],
     "sampling would alias: wavenumber inf exceeds 1 * Nyquist = 5.02655e+301"),
], ids=["cn-diagonals", "split-kicks", "snap", "taylor-coefficients", "taylor-samples",
        "family-z-bound"])
def test_overflowing_stepper_or_lattice_exits_2_without_warnings(tmp_path, config, args,
                                                                 message):
    """A config or grid whose stepper coefficients, lattice cells, Taylor
    coefficients or squared samples overflow float64 exits 2 with one
    message and writes nothing.  The run turns RuntimeWarnings into errors,
    so a numpy warning would end it in a traceback instead."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out_dir = tmp_path / "out"
    out = run_subprocess([*args, "--config", str(path), "--out-dir", str(out_dir)],
                         python_args=("-W", "error::RuntimeWarning"))
    assert out.returncode == 2
    assert out.stderr == f"error: {message}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("config, args, message", [
    ({"m": 1, "q": 1, "E": 1, "L": 8},
     ["eval", "--family", "shifted", "--dt-shift", "inf", "--times", "inf", "--grid-n", "16"],
     "--times must be finite, got inf"),
    ({"m": 1, "q": 1, "E": 1, "B": 1.0, "L": 8.0, "geometry": "parallel_eb"},
     ["eval", "--family", "oscillator", "--grid-n", "16", "--times", "inf"],
     "--times must be finite, got inf"),
    ({"m": 1, "q": 1, "E": 1, "L": 8},
     ["eval", "--family", "shifted", "--dt-shift", "inf", "--times", "0"],
     "--dt-shift must be finite, got inf"),
    ({"m": 1, "q": 1, "E": 1, "B": 1.0, "L": 8.0, "geometry": "parallel_eb"},
     ["eval", "--family", "family-y", "--times", "0", "--shift", "nan"],
     "--shift must be finite, got nan"),
    ({"m": 1, "q": 1, "E": 1, "B": 1.0, "L": 8.0, "geometry": "parallel_eb"},
     ["eval", "--family", "family-z", "--times", "0,1", "--ly", "inf"],
     "--ly must be finite, got inf"),
], ids=["shifted-times-inf", "oscillator-times-inf", "dt-shift-inf", "shift-nan", "ly-inf"])
def test_non_finite_eval_options_exit_2_without_warnings(tmp_path, config, args, message):
    """eval refuses a non-finite time, shift or box length by name, before any
    sample is taken; no numpy warning reaches stderr and nothing is written."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out_dir = tmp_path / "out"
    out = run_subprocess([*args, "--config", str(path), "--out-dir", str(out_dir)],
                         python_args=("-W", "error::RuntimeWarning"))
    assert out.returncode == 2
    assert out.stderr == f"error: {message}\n"
    assert not out_dir.exists()


def test_quantize_point_beyond_the_resistance_ulp_budget_gets_no_verdict(tmp_path):
    """V/I and (h/q^2) n_real part by 5 ulp here, against a budget of 4: the
    point gets no verdict, so the one-point scan exits 2 with the gap named
    in its CSV and its message."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"m": 1, "q": 0.06301579700354017, "E": 2.193104315199503,
                                "L": 8}))
    out = run_subprocess(["quantize", "--config", str(path), "--dx", "8.695102630472597",
                          "--dt-min", "215.18174200883598", "--dt-max", "215.18174200883598",
                          "--dt-steps", "1", "--out-dir", str(tmp_path)])
    reason = ("unresolvable: V/I and (h/q^2) n_real differ by 3.64e-11 "
              "against a 4-ulp budget of 2.91e-11")
    assert out.returncode == 2
    assert out.stderr == f"error: no scan point gets a verdict; the first: {reason}\n"
    assert (tmp_path / "quantize_scan.csv").read_text().endswith(f",{reason}\n")


@pytest.mark.parametrize("name, reason", [("a_file", "File exists"),
                                          ("a_file/x", "Not a directory")])
def test_unwritable_out_dir_exits_2(tmp_path, capsys, name, reason):
    (tmp_path / "a_file").write_text("")
    out_dir = str(tmp_path / name)
    assert run(["eval", "--family", "fundamental", "--out-dir", out_dir]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno ") and err.endswith(f"] {reason}: {out_dir!r}\n")


@pytest.mark.skipif(not hasattr(fcntl, "F_SETPIPE_SZ"), reason="needs a resizable pipe")
def test_stdout_closed_by_its_reader_exits_2_without_a_traceback():
    """``verify --json | head -c 10``: the 11 kB report overfills a 4 kB pipe,
    whose reader leaves after 10 bytes."""
    read_end, write_end = os.pipe()
    fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    src = str(pathlib.Path(fieldquant.__file__).resolve().parents[1])
    proc = subprocess.Popen([sys.executable, "-m", "fieldquant.cli", "verify", "--json"],
                            stdout=write_end, stderr=subprocess.PIPE, text=True,
                            env={**os.environ, "PYTHONPATH": src})
    os.close(write_end)
    assert os.read(read_end, 10)
    os.close(read_end)
    err = proc.communicate(timeout=60)[1]
    assert "Traceback" not in err
    assert (proc.returncode, err) == (2, "error: [Errno 32] Broken pipe\n")


def test_usage_error_is_exit_2():
    with pytest.raises(SystemExit) as err:
        run(["quantize"])  # missing required flags
    assert err.value.code == 2


def test_quantize_scan_marks_integer_hits(tmp_path, capsys):
    assert run(["quantize", "--dx", "6.283185307179586", "--dt-min", "0.5",
                "--dt-max", "3.0", "--dt-steps", "6",
                "--out-dir", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "quantize_summary.json").read_text())
    assert [h["n"] for h in summary["integer_hits"]] == [1, 2, 3]
    csv_text = (tmp_path / "quantize_scan.csv").read_text()
    assert csv_text.startswith("#")
    header = [line for line in csv_text.splitlines() if not line.startswith("#")][0]
    assert header.split(",")[:4] == ["dt", "n_real", "nearest", "is_quantized"]


def test_quantize_zero_dt_marks_row_not_abort(tmp_path):
    assert run(["quantize", "--dx", "1.0", "--dt-min", "-0.01", "--dt-max", "0.01",
                "--dt-steps", "3", "--out-dir", str(tmp_path)]) == 0
    rows = [line for line in (tmp_path / "quantize_scan.csv").read_text().splitlines()
            if not line.startswith("#")][1:]
    assert len(rows) == 3
    assert "undefined current" in rows[1]


def test_quantize_si_mode_adds_ohm_column(tmp_path):
    cfg = {"units": "si", "m": 9.1093837015e-31, "q": "e", "E": 1.0, "L": 1.0}
    path = tmp_path / "si.json"
    path.write_text(json.dumps(cfg))
    assert run(["quantize", "--config", str(path), "--dx", "1.0",
                "--dt-min", "1e-15", "--dt-max", "1e-14", "--dt-steps", "4",
                "--out-dir", str(tmp_path)]) == 0
    header = [line for line in (tmp_path / "quantize_scan.csv").read_text().splitlines()
              if not line.startswith("#")][0]
    assert "R_ohm" in header.split(",")


def test_outputs_are_byte_identical(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    d1.mkdir(), d2.mkdir()
    args = ["quantize", "--dx", "6.283185307179586", "--dt-min", "0.1",
            "--dt-max", "2.0", "--dt-steps", "40"]
    assert run(args + ["--out-dir", str(d1)]) == 0
    assert run(args + ["--out-dir", str(d2)]) == 0
    assert read(d1 / "quantize_scan.csv") == read(d2 / "quantize_scan.csv")
    assert read(d1 / "quantize_summary.json") == read(d2 / "quantize_summary.json")


def test_eval_fundamental_with_current(tmp_path):
    assert run(["eval", "--family", "fundamental", "--times", "0.0,0.785398163397448",
                "--grid-n", "64", "--current", "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "eval_fundamental.csv").read_text().splitlines()
    header = [line for line in lines if not line.startswith("#")][0]
    assert header == "x,t,re,im,abs2,J,rho,v"
    data = [line for line in lines if not line.startswith("#")][1:]
    assert len(data) == 128  # 64 points x 2 times


def _eval_rows(path):
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


@pytest.mark.parametrize("family, extra, k_t", [
    ("fundamental", [], 0.5),
    ("shifted", ["--dt-shift", "0.3"], 0.5 - 0.3)])
def test_eval_plane_wave_current_is_the_closed_form_at_the_wrap(tmp_path, family, extra, k_t):
    """At a time that is not commensurate the sampled plane wave jumps at the
    wrap; the current is q E (t - time_origin) |phi|^2 / m at every row,
    the two rows at each end of the box included."""
    assert run(["eval", "--family", family, *extra, "--times", "0.5", "--current",
                "--out-dir", str(tmp_path)]) == 0
    rows = _eval_rows(tmp_path / f"eval_{family}.csv")
    assert len(rows) == 128
    for row in rows:
        expected = k_t * float(row["rho"])   # q = E = m = 1
        assert abs(float(row["J"]) - expected) <= 1e-15, row["x"]
        assert abs(float(row["v"]) - k_t) <= 1e-15, row["x"]


def test_eval_grid_current_is_left_out_where_its_stencil_reads_across_the_wrap(tmp_path):
    assert run(["eval", "--family", "ladder", "--n", "2", "--times", "0.5", "--current",
                "--out-dir", str(tmp_path)]) == 0
    rows = _eval_rows(tmp_path / "eval_ladder.csv")
    blank = [i for i, row in enumerate(rows) if row["J"] == ""]
    assert blank == [0, 1, 126, 127]
    assert all(rows[i]["v"] == "" and rows[i]["rho"] != "" for i in blank)
    assert all(math.isfinite(float(row["J"])) for i, row in enumerate(rows) if i not in blank)


# each option some family leaves unread: a value other than its default, and
# the families that read it
EVAL_OPTIONS = {
    "--n": (["1"], "ladder, oscillator, family-y, family-z"),
    "--dt-shift": (["0.3"], "shifted, taylor"),
    "--order": (["3"], "taylor"),
    "--shift": (["2"], "family-y, family-z"),
    "--ly": (["5"], "family-y, family-z"),
    "--current": ([], "fundamental, shifted, ladder, taylor, oscillator"),
}
UNREAD = [(family, option) for family, (_, reads, _) in EVAL_FAMILIES.items()
          for option in EVAL_OPTIONS if option[2:].replace("-", "_") not in reads]


def _eval_config(tmp_path, geometry):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(PARALLEL_CFG if geometry == "parallel_eb" else ELECTRIC_CFG))
    return str(path)


@pytest.mark.parametrize("family, option", UNREAD, ids=[f"{f}{o}" for f, o in UNREAD])
def test_eval_refuses_an_option_its_family_does_not_read(tmp_path, capsys, family, option):
    """An option the family does not read, set away from its default, is
    refused instead of being dropped from a CSV that looks like its answer."""
    assert len(UNREAD) == 26
    value, readers = EVAL_OPTIONS[option]
    out_dir = tmp_path / "out"
    assert run(["eval", "--family", family, "--grid-n", "16", "--times", "0", option, *value,
                "--config", _eval_config(tmp_path, EVAL_FAMILIES[family][0]),
                "--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr().err == f"error: {option} applies to {readers}, not {family}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("family, geometry", [
    ("fundamental", "electric_1d"), ("shifted", "electric_1d"), ("ladder", "electric_1d"),
    ("taylor", "electric_1d"), ("oscillator", "parallel_eb"), ("family-y", "parallel_eb"),
    ("family-z", "parallel_eb")])
def test_eval_refuses_a_family_on_the_wrong_geometry(tmp_path, capsys, family, geometry):
    """One refusal, before any grid or state is built, names the family and
    the geometry it needs."""
    assert EVAL_FAMILIES[family][0] == geometry
    other = "electric_1d" if geometry == "parallel_eb" else "parallel_eb"
    out_dir = tmp_path / "out"
    assert run(["eval", "--family", family, "--grid-n", "16", "--config",
                _eval_config(tmp_path, other), "--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr().err == (f"config error [geometry]: {family} requires "
                                       f"geometry {geometry}\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("times", ["", ","])
def test_eval_refuses_times_that_list_no_time(tmp_path, capsys, times):
    assert run(["eval", "--family", "fundamental", "--times", times,
                "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: --times {times!r} lists no time\n"
    assert not (tmp_path / "out").exists()


def test_eval_is_deterministic(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    d1.mkdir(), d2.mkdir()
    args = ["eval", "--family", "taylor", "--dt-shift", "0.1", "--order", "6",
            "--times", "1.0", "--grid-n", "32"]
    assert run(args + ["--out-dir", str(d1)]) == 0
    assert run(args + ["--out-dir", str(d2)]) == 0
    assert read(d1 / "eval_taylor.csv") == read(d2 / "eval_taylor.csv")


def test_eval_family_y(tmp_path):
    cfg = {"m": 1, "q": 1, "E": 1, "B": 1.0, "L": 8.0, "geometry": "parallel_eb"}
    path = tmp_path / "par.json"
    path.write_text(json.dumps(cfg))
    assert run(["eval", "--config", str(path), "--family", "family-y", "--n", "1",
                "--shift", "0.5", "--grid-n", "64", "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "eval_family_y.csv").read_text().splitlines()
    header = [line for line in lines if not line.startswith("#")][0]
    assert header == "y,z,t,re,im,abs2"


def test_eval_family_grid_too_coarse_is_reported(tmp_path, capsys):
    cfg = {"m": 1, "q": 1, "E": 1, "B": 1.0, "L": 8.0, "geometry": "parallel_eb"}
    path = tmp_path / "par.json"
    path.write_text(json.dumps(cfg))
    code = run(["eval", "--config", str(path), "--family", "family-y", "--n", "1",
                "--shift", "0.5", "--grid-n", "32", "--out-dir", str(tmp_path)])
    assert code == 2
    assert "alias" in capsys.readouterr().err


def test_eval_nyquist_violation_exit_2(tmp_path, capsys):
    code = run(["eval", "--family", "fundamental", "--times", "1000.0",
                "--grid-n", "64", "--out-dir", str(tmp_path)])
    assert code == 2
    assert "maximum admissible t" in capsys.readouterr().err


def test_evolve1d_zero_steps_single_row(tmp_path):
    assert run(["evolve1d", "--steps", "0", "--grid-n", "128",
                "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "evolve1d_trajectory.csv").read_text().splitlines()
    data = [line for line in lines if not line.startswith("#")]
    assert data[0].startswith("t,norm,x_mean")
    assert len(data) == 2  # header + initial row


@pytest.mark.parametrize("option", [["--richardson"], ["--cadence", "1"]])
def test_evolve1d_zero_steps_refuses_what_needs_a_step(tmp_path, capsys, option):
    assert run(["evolve1d", "--steps", "0", *option, "--grid-n", "128",
                "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == ("error: --cadence and --richardson need at least "
                                       "one step, not --steps 0\n")
    assert not list(tmp_path.iterdir())


def test_evolve1d_monotone_time_and_richardson(tmp_path):
    cfg = {"m": 1, "q": 1, "E": 1, "L": 40.0}  # box wide enough for the packet
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(cfg))
    assert run(["evolve1d", "--config", str(path), "--dt", "2e-3", "--steps", "128",
                "--cadence", "16",
                "--grid-n", "512", "--richardson", "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "evolve1d_trajectory.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines if not line.startswith("#")][1:]
    times = [float(r[0]) for r in rows]
    assert times == sorted(times) and len(times) == 9
    summary = json.loads((tmp_path / "evolve1d_summary.json").read_text())
    assert abs(summary["order_estimate"] - 2.0) < 0.2


def test_evolve_landau_run(tmp_path):
    cfg = {"m": 1, "q": 1, "E": 1, "B": 1.0, "L": 8.0, "geometry": "parallel_eb"}
    path = tmp_path / "par.json"
    path.write_text(json.dumps(cfg))
    assert run(["evolve-landau", "--config", str(path), "--periods", "1",
                "--steps-per-period", "64", "--grid-n", "32",
                "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "evolve_landau_trajectory.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines if not line.startswith("#")][1:]
    norms = [float(r[1]) for r in rows]
    fidelity = [float(r[-1]) for r in rows]
    assert max(abs(n - norms[0]) for n in norms) < 1e-10
    assert fidelity[-1] > 1.0 - 1e-4


def test_evolve_landau_requires_parallel_geometry():
    assert run(["evolve-landau", "--periods", "1", "--steps-per-period", "16",
                "--grid-n", "32"]) == 2


def test_units_override_flag(tmp_path):
    assert run(["eval", "--family", "fundamental", "--times", "0.0",
                "--grid-n", "32", "--units", "cgs", "--out-dir", str(tmp_path)]) == 0
    text = (tmp_path / "eval_fundamental.csv").read_text()
    assert "# config.units=cgs" in text


@pytest.mark.parametrize("doc_units, q, units, charge", [
    ("natural", "e", "si", "1.6021766339999999e-19"),
    ("natural", "e", "cgs", "4.8032047125702634e-10"),
    ("si", "-e", "natural", "-1"),
])
def test_units_override_resolves_a_symbolic_charge(tmp_path, doc_units, q, units, charge):
    """--units reads the document, so "e" / "-e" become the new system's charge.
    In SI and cgs units the charge e puts n_real near 1e14 and 1e17, where no
    scan point gets a verdict: the CSV is written and the command exits 2."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"m": 1, "q": q, "E": 1, "L": 8, "units": doc_units}))
    assert run(["quantize", "--config", str(path), "--units", units, "--dx", "1",
                "--dt-min", "1", "--dt-max", "2", "--dt-steps", "3",
                "--out-dir", str(tmp_path)]) == (0 if units == "natural" else 2)
    text = (tmp_path / "quantize_scan.csv").read_text()
    assert f"# config.units={units}\n" in text
    assert f"# config.q={charge}\n" in text


@pytest.mark.parametrize("args", [
    ["verify", "--filter", "quantization"],
    ["eval", "--family", "fundamental", "--current"],
    ["eval", "--family", "ladder"],
])
def test_field_whose_square_overflows_exit_2(tmp_path, capsys, args):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"m": 1, "q": 1, "E": 1e300, "L": 8}))
    assert run(args + ["--config", str(path), "--out-dir", str(tmp_path)]) == 2
    assert "field too strong: (q E)^2 overflows float64" in capsys.readouterr().err


@pytest.mark.parametrize("charge, field", [(1e200, 1e-200), (1e-200, 1e200), (1e-160, 1e160)])
@pytest.mark.parametrize("args", [
    ["quantize", "--dx", "1", "--dt-min", "1", "--dt-max", "2", "--dt-steps", "2"],
    ["verify", "--filter", "quantization"],
])
def test_charge_whose_square_float64_cannot_hold_exit_2(tmp_path, capsys, args, charge, field):
    """q^2 overflows at 1e200 and underflows to 0 at 1e-200; at 1e-160 it is
    subnormal and h/q^2 overflows, so the resistance reads inf."""
    path = tmp_path / "charge.json"
    path.write_text(json.dumps({"m": 1, "q": charge, "E": field, "L": 8}))
    assert run(args + ["--config", str(path), "--out-dir", str(tmp_path)]) == 2
    assert "charge out of range: float64 cannot hold q^2 and h/q^2" in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    (["evolve1d", "--dt", "nan"], "time step dt must be finite and positive"),
    (["evolve1d", "--sigma", "0"], "--sigma must be finite and positive"),
    (["evolve1d", "--richardson", "--dt", "1e-13"], "already converged"),
    (["evolve1d", "--dt", "nan", "--steps", "0"], "time step dt must be finite and positive"),
    (["evolve1d", "--sigma", "1e300"], "--sigma must be finite and positive"),
    (["evolve1d", "--sigma", "1e-200"], "--sigma must be finite and positive"),
    (["evolve1d", "--x0", "nan"], "--x0 nan and --p0 0.0 give a packet with non-finite"),
    (["evolve1d", "--p0", "nan"], "--x0 0.0 and --p0 nan give a packet with non-finite"),
    (["evolve1d", "--p0", "inf"], "--x0 0.0 and --p0 inf give a packet with non-finite"),
    (["evolve1d", "--x0", "1000"], "nonzero norm"),
    (["evolve1d", "--x0", "inf"], "nonzero norm"),
])
def test_evolve1d_bad_input_exit_2(tmp_path, capsys, args, message):
    # the case's own flags come last, so they override the defaults given here
    code = run(args[:1] + ["--steps", "64", "--grid-n", "128", "--out-dir", str(tmp_path)]
               + args[1:])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_verify_quantization_zero_field_exit_2(tmp_path, capsys):
    path = tmp_path / "free.json"
    path.write_text(json.dumps({"m": 1, "q": 1, "E": 0, "L": 8.0}))
    assert run(["verify", "--filter", "quant", "--config", str(path)]) == 2
    assert "nonzero electric field" in capsys.readouterr().err


@pytest.mark.parametrize("cfg, message", [
    ({"m": 1, "q": 1, "E": 1e-9, "L": 8}, "no nonzero integer n"),
    ({"m": 1, "q": 30, "E": 30, "L": 8}, "unresolvable"),
    ({"m": 1, "q": 1000, "E": 1000, "L": 8}, "unresolvable"),
])
def test_verify_quantization_without_a_verdict_exit_2(tmp_path, capsys, cfg, message):
    """A weak field puts only n = 0 on the scan; a strong one samples phases
    whose float64 spacing exceeds a tenth of the tolerance (1.9e-9 in the
    first refused batch at q = E = 30).  Neither gets a verdict."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run(["verify", "--filter", "quantization", "--config", str(path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("qe", [10, 20, 25])
def test_verify_quantization_resolvable_strong_field_passes(tmp_path, capsys, qe):
    """Phase spacing 2.9e-11, 4.7e-10 and 9.3e-10: inside tol / 10 = 1e-9."""
    checks = _quantization_checks(capsys, tmp_path, {"m": 1, "q": qe, "E": qe, "L": 8})
    assert all(c["passed"] for c in checks)


def test_cli_import_leaves_scipy_unloaded():
    code = "import sys, fieldquant.cli; print('scipy' in sys.modules)"
    src = str(pathlib.Path(fieldquant.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


def _quantization_checks(capsys, tmp_path, cfg=None):
    args = ["verify", "--filter", "quantization", "--json"]
    if cfg is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        args += ["--config", str(path)]
    assert run(args) == 0
    return json.loads(capsys.readouterr().out)["checks"]


def test_verify_parallel_config_scans_the_electric_solutions(tmp_path, capsys):
    default = _quantization_checks(capsys, tmp_path)
    assert _quantization_checks(capsys, tmp_path, PARALLEL_CFG) == default


ELECTRON_PARALLEL_CFG = {"m": 1, "q": "-e", "E": 1, "B": 1.0, "L": 8.0,
                         "geometry": "parallel_eb"}


@pytest.mark.parametrize("cfg", [{"m": 1, "q": -1, "E": 1, "L": 8},
                                 {"m": 1, "q": "-e", "E": 1, "L": 8},
                                 {"m": 1, "q": 1, "E": -1, "L": 8},
                                 ELECTRON_PARALLEL_CFG])
def test_verify_signed_quantum_numbers(tmp_path, capsys, cfg):
    checks = _quantization_checks(capsys, tmp_path, cfg)
    [hits] = [c for c in checks if c["name"] == "quantization.integer_hits"]
    assert hits["passed"]
    assert hits["anchor"].endswith("n = [-1, -2, -3, -4, -5]")


def test_verify_fails_no_false_hits_when_a_non_integer_dt_reads_phase_1(monkeypatch, capsys):
    """A phase of 1 away from the integer points is a false hit: with the
    scan's first point (dt = 0.005, n_real = 0.005) reading exactly 1,
    quantization.no_false_hits fails and verify exits 1."""
    invariance_phases = Y.invariance_phases

    def false_hit(dx_shift, dt_values, cfg):
        phases = invariance_phases(dx_shift, dt_values, cfg)
        phases[0] = 1.0
        return phases
    monkeypatch.setattr(Y, "invariance_phases", false_hit)
    assert run(["verify", "--filter", "quantization", "--json"]) == 1
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert not checks["quantization.no_false_hits"]["passed"]
    assert [name for name, c in checks.items() if not c["passed"]] == [
        "quantization.no_false_hits"]


@pytest.mark.parametrize("args", [
    ["evolve-landau", "--periods", "1", "--steps-per-period", "64", "--grid-n", "32"],
    ["eval", "--family", "family-y", "--n", "1", "--shift", "0.5", "--grid-n", "64"],
    ["eval", "--family", "family-z", "--n", "1", "--shift", "0.5", "--grid-n", "64"],
])
def test_electron_parallel_commands_run(tmp_path, args):
    path = tmp_path / "electron.json"
    path.write_text(json.dumps(ELECTRON_PARALLEL_CFG))
    assert run(args + ["--config", str(path), "--out-dir", str(tmp_path / "out")]) == 0


PARALLEL_CFG = {"m": 1, "q": 1, "E": 1, "B": 1.0, "L": 8.0, "geometry": "parallel_eb"}


@pytest.mark.parametrize("args, message", [
    (["--steps-per-period", "0"], "--steps-per-period must be at least 1"),
    (["--ly", "0"], "landau_grid needs a finite positive ly"),
    (["--n", "-1"], "oscillator index n must be nonnegative"),
])
def test_evolve_landau_bad_input_exit_2(tmp_path, capsys, args, message):
    path = tmp_path / "par.json"
    path.write_text(json.dumps(PARALLEL_CFG))
    code = run(["evolve-landau", "--config", str(path), "--grid-n", "32",
                "--out-dir", str(tmp_path / "out")] + args)
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_quantize_unresolvable_points_get_no_verdict(tmp_path, capsys):
    # q = 1 read as one coulomb puts n_real near 1e33, where ulp(n) > 1; a scan
    # in which no point gets a verdict exits 2 quoting the first reason
    assert run(["quantize", "--units", "si", "--dx", "1", "--dt-min", "1",
                "--dt-max", "2", "--dt-steps", "3", "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "error: no scan point gets a verdict; the first: unresolvable: tolerance 1.51e+25 "
        "at n_real 1.50919e+33 admits every real number\n")
    summary = json.loads((tmp_path / "quantize_summary.json").read_text())
    assert summary["integer_hits"] == [] and summary["points"] == 3
    lines = [line for line in (tmp_path / "quantize_scan.csv").read_text().splitlines()
             if not line.startswith("#")]
    header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
    assert len(rows) == 3
    for row in rows:
        assert len(row) == len(header)
        assert row[header.index("is_quantized")] == ""
        assert row[header.index("error")].startswith("unresolvable: tolerance")


@pytest.mark.parametrize("command", ["evolve1d", "evolve-landau", "quantize", "eval"])
def test_json_flag_prints_summary(tmp_path, capsys, command):
    path = tmp_path / "par.json"
    path.write_text(json.dumps(PARALLEL_CFG))
    args, csv_name, summary_name = {
        "evolve1d": (["evolve1d", "--steps", "8", "--cadence", "4", "--grid-n", "128"],
                     "evolve1d_trajectory.csv", "evolve1d_summary.json"),
        "evolve-landau": (["evolve-landau", "--config", str(path), "--grid-n", "32",
                           "--steps-per-period", "16"],
                          "evolve_landau_trajectory.csv", "evolve_landau_summary.json"),
        "quantize": (["quantize", "--dx", "6.283185307179586", "--dt-min", "0.5",
                      "--dt-max", "3.0", "--dt-steps", "6"],
                     "quantize_scan.csv", "quantize_summary.json"),
        "eval": (["eval", "--family", "fundamental", "--times", "0.0,0.5", "--grid-n", "32"],
                 "eval_fundamental.csv", None),
    }[command]
    plain, as_json = tmp_path / "plain", tmp_path / "json"
    assert run(args + ["--out-dir", str(plain)]) == 0
    assert capsys.readouterr().out == f"{plain / csv_name}\n"
    assert run(args + ["--out-dir", str(as_json), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    if summary_name is None:
        assert payload == {"csv": str(as_json / csv_name), "rows": 64}
    else:
        assert payload == json.loads((as_json / summary_name).read_text())
    assert read(plain / csv_name) == read(as_json / csv_name)


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "0.5", "inf"])
def test_quantize_bad_tolerance_exit_2(tmp_path, capsys, tol):
    # with tol = nan or -1 even the exact integer point n_real = 1 is not quantized
    code = run(["quantize", "--dx", "6.283185307179586", "--dt-min", "0.5", "--dt-max", "1",
                "--dt-steps", "2", "--tol", tol, "--out-dir", str(tmp_path)])
    assert code == 2
    assert "tolerance tol must lie in (0, 0.5)" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("args", [["--dx", "inf", "--dt-max", "1"],
                                  ["--dx", "1e300", "--dt-max", "1e300"]])
def test_quantize_overflowing_n_real_gets_error_cell(tmp_path, args):
    # no point gets a verdict, so the command exits 2 after writing the CSV
    assert run(["quantize", "--dt-min", "0", "--dt-steps", "3", "--out-dir", str(tmp_path)]
               + args) == 2
    lines = [line for line in (tmp_path / "quantize_scan.csv").read_text().splitlines()
             if not line.startswith("#")]
    errors = [line.split(",")[-1] for line in lines[1:]]
    assert errors[0] == "undefined current"
    assert all(e.startswith("unresolvable: tolerance inf at n_real inf") for e in errors[1:])


def test_eval_taylor_order_past_the_cap_exit_2(tmp_path, capsys):
    assert run(["eval", "--family", "taylor", "--order", "65", "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: superposition order must lie in 0..64\n"


def test_eval_negative_ladder_order_exit_2(tmp_path, capsys):
    assert run(["eval", "--family", "ladder", "--n", "-1", "--out-dir", str(tmp_path)]) == 2
    assert "ladder order -1 lies outside 0..64" in capsys.readouterr().err


def test_eval_ladder_beyond_the_depth_cap_exit_2(tmp_path, capsys):
    # an order far past the recursion limit: refused before any array is built
    assert run(["eval", "--family", "ladder", "--n", "2000", "--grid-n", "16",
                "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: ladder order 2000 lies outside 0..64\n"


@pytest.mark.parametrize("n, code, stderr", [
    ("64", 0, ""), ("65", 2, "error: ladder order 65 lies outside 0..64\n")])
def test_eval_ladder_orders_up_to_the_cap(tmp_path, n, code, stderr):
    out = run_subprocess(["eval", "--family", "ladder", "--n", n, "--grid-n", "16",
                          "--out-dir", str(tmp_path)])
    assert (out.returncode, out.stderr) == (code, stderr)


@pytest.mark.parametrize("extra, t", [
    (["--family", "fundamental", "--times=1e300"], "1e+300"),
    (["--family", "shifted", "--dt-shift=1e300", "--times", "0"], "0.0"),
    (["--family", "ladder", "--n", "64", "--times=-1e300"], "-1e+300")])
def test_eval_tiny_field_at_a_huge_time_exits_2_without_warnings(tmp_path, extra, t):
    """q E t stays below Nyquist, but the phase's t^3 overflows float64 (times
    a (q E)^2 that underflows to 0): the samples are refused, with no numpy warning."""
    path = tmp_path / "weak.json"
    path.write_text(json.dumps({"m": 1, "q": 1, "E": 1e-300, "L": 8}))
    out = run_subprocess(["eval", "--config", str(path), "--grid-n", "16",
                          "--out-dir", str(tmp_path)] + extra)
    assert (out.returncode, out.stderr) == (
        2, f"error: float64 cannot hold the samples at t = {t}\n")


GOLDEN = pathlib.Path(__file__).parent / "data" / "verify_golden.json"


def test_verify_matches_golden_snapshot(capsys):
    """The full battery against the committed ``verify --json`` snapshot:
    the same checks in the same order with the same verdicts, tolerances
    and anchors, and every value within 1e-12 relative."""
    assert run(["verify", "--json"]) == 0
    got = json.loads(capsys.readouterr().out)["checks"]
    want = json.loads(GOLDEN.read_text())["checks"]
    fixed = ("name", "passed", "tolerance", "anchor")
    assert [[c[k] for k in fixed] for c in got] == [[c[k] for k in fixed] for c in want]
    for g, w in zip(got, want):
        assert abs(g["value"] - w["value"]) <= 1e-12 * max(1.0, abs(w["value"])), g["name"]


WITNESS_BOUNDS = {"residual.electric[flipped-phase witness]": 0.1,
                  "symmetry.conjugation[phase-stripped witness]": 0.01}


def test_witness_checks_record_measured_residual_and_bound(capsys, tmp_path):
    assert run(["verify", "--filter", "residual", "--filter", "symmetry", "--json",
                "--out-dir", str(tmp_path)]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert json.loads((tmp_path / "verify_report.json").read_text())["checks"] == checks
    witnesses = {c["name"]: c for c in checks if "measured" in c}
    assert set(witnesses) == set(WITNESS_BOUNDS)
    for name, c in witnesses.items():
        assert c["bound"] == WITNESS_BOUNDS[name]
        assert c["measured"] > c["bound"]
        assert (c["value"], c["tolerance"], c["passed"]) == (0.0, 0.0, True)
        assert f"(residual {c['measured']:.3f} > {c['bound']:g})" in c["anchor"]
    assert all("bound" not in c for c in checks if c["name"] not in WITNESS_BOUNDS)


@pytest.mark.parametrize("measured, passed", [
    (0.5, True), (0.1, False), (0.05, False),
    (float("nan"), False), (float("inf"), True), (float("-inf"), False),
])
def test_witness_passes_only_when_the_residual_exceeds_its_bound(measured, passed):
    """A witness residual that cannot be measured (NaN) fails the witness."""
    check = _witness("w", measured, 0.1, "a")
    assert check.passed is passed
    assert check.value == (0.0 if passed else 1.0)


@pytest.mark.parametrize("golden, args", [
    ("quantize_natural.csv", ["--dx", "6.283185307179586", "--dt-min", "0", "--dt-max", "3",
                              "--dt-steps", "7"]),
    ("quantize_si.csv", ["--units", "si", "--dx", "1", "--dt-min", "1", "--dt-max", "2",
                         "--dt-steps", "3"]),
])
def test_quantize_csv_matches_committed_bytes(tmp_path, golden, args):
    """Pure scalar arithmetic: the scan CSV is pinned byte for byte.  No SI
    point gets a verdict, so that scan exits 2 after writing its CSV."""
    code = 2 if golden == "quantize_si.csv" else 0
    assert run(["quantize"] + args + ["--out-dir", str(tmp_path)]) == code
    assert read(tmp_path / "quantize_scan.csv") == read(GOLDEN.parent / golden)


# --- random argv: every input ends in exit 0, 1 or 2, never a traceback ---------

FLOATS = st.sampled_from(["0", "1", "-1", "0.5", "nan", "inf", "-inf", "1e300", "-1e300",
                          "1e-300", "1000"])
INTS = st.sampled_from(["-1", "0", "1", "2", "4", "70"])
GRID_N = st.sampled_from(["-1", "0", "16", "32"])


@st.composite
def random_argv(draw, config_path):
    command = draw(st.sampled_from(["quantize", "eval", "evolve1d", "evolve-landau"]))
    argv = [command]
    if command == "quantize":
        argv += ["--dx", draw(FLOATS), "--dt-min", draw(FLOATS), "--dt-max", draw(FLOATS),
                 "--dt-steps", draw(st.sampled_from(["-1", "0", "1", "3"]))]
        flags = {"--tol": FLOATS}
    elif command == "eval":
        argv += ["--family", draw(st.sampled_from(["fundamental", "shifted", "ladder",
                                                   "taylor", "oscillator", "family-y",
                                                   "family-z"])),
                 "--grid-n", draw(GRID_N)]
        flags = {"--n": INTS, "--dt-shift": FLOATS, "--shift": FLOATS, "--ly": FLOATS,
                 "--order": st.sampled_from(["-1", "0", "3", "65"]),
                 "--times": st.lists(FLOATS, min_size=1, max_size=2).map(",".join),
                 "--current": None}
    elif command == "evolve1d":
        argv += ["--grid-n", draw(GRID_N), "--steps", draw(st.sampled_from(["-1", "0", "1", "4"]))]
        flags = {"--dt": FLOATS, "--sigma": FLOATS, "--x0": FLOATS, "--p0": FLOATS,
                 "--cadence": st.sampled_from(["-1", "0", "1", "2"]), "--richardson": None}
    else:
        argv += ["--grid-n", draw(GRID_N), "--periods", draw(st.sampled_from(["-1", "0", "1"])),
                 "--steps-per-period", draw(st.sampled_from(["-1", "0", "1", "4"]))]
        flags = {"--n": INTS, "--dy": FLOATS, "--ly": FLOATS, "--richardson": None}
    flags["--units"] = st.sampled_from(["natural", "cgs", "si"])
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), unique=True)):
        argv += [flag] if flags[flag] is None else [flag, draw(flags[flag])]
    if draw(st.booleans()):
        argv += ["--config", config_path]
    return argv


@pytest.fixture(scope="module")
def fuzz_dirs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "par.json").write_text(json.dumps(PARALLEL_CFG))
    return str(root / "par.json"), str(root / "out")


@given(data=st.data())
@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
def test_random_argv_never_raises(fuzz_dirs, data):
    config_path, out_dir = fuzz_dirs
    argv = data.draw(random_argv(config_path)) + ["--out-dir", out_dir]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = run(argv)
        except SystemExit as exc:   # argparse rejects the argv
            code = exc.code
    assert code in (0, 1, 2), argv


# --- random config documents: the same guarantee for every config -------------

CHARGES = st.sampled_from(["e", "-e", 1, -1, 2.5, -0.3, 1e3, 1e200, 1e-200])
FIELDS = st.sampled_from([0, 1, -1, 0.5, 30, 1e150, 1e300, -1e300,
                          math.nan, math.inf, -math.inf])
CONFIG_COMMANDS = [
    ["verify", "--filter", "quantization"],
    ["eval", "--family", "fundamental", "--current", "--times", "0,0.5"],
    ["eval", "--family", "ladder", "--n", "2", "--times", "0.5"],
    ["eval", "--family", "shifted", "--dt-shift", "0.3", "--current"],
    ["eval", "--family", "oscillator", "--n", "1"],
    ["eval", "--family", "family-y", "--n", "1", "--shift", "0.5", "--grid-n", "32"],
    ["eval", "--family", "family-z", "--n", "1", "--shift", "0.5", "--grid-n", "32"],
    ["quantize", "--dx", "1", "--dt-min", "0.5", "--dt-max", "2", "--dt-steps", "3"],
    ["evolve1d", "--steps", "4", "--grid-n", "64"],
    ["evolve-landau", "--periods", "1", "--steps-per-period", "4", "--grid-n", "16"],
]


@st.composite
def random_config_argv(draw):
    """(config document, argv without --config)."""
    doc = {"m": 1, "q": draw(CHARGES), "E": draw(FIELDS), "L": 8,
           "units": draw(st.sampled_from(["natural", "cgs", "si"])),
           "geometry": draw(st.sampled_from(["electric_1d", "parallel_eb"]))}
    if draw(st.booleans()):
        doc["B"] = draw(FIELDS)
    argv = list(draw(st.sampled_from(CONFIG_COMMANDS)))
    units = draw(st.sampled_from([None, "natural", "cgs", "si"]))
    return doc, argv + (["--units", units] if units else [])


@given(data=st.data())
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_random_config_documents_never_raise(fuzz_dirs, data):
    par_path, out_dir = fuzz_dirs
    doc, argv = data.draw(random_config_argv())
    path = pathlib.Path(par_path).with_name("random.json")
    path.write_text(json.dumps(doc))   # NaN and Infinity as JSON tokens
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv + ["--config", str(path), "--out-dir", out_dir])
    assert code in (0, 1, 2), (argv, doc)
