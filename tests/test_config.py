"""Configuration validation, unit systems, and the constants table."""

import json
import math

import pytest

from fieldquant import constants
from fieldquant.config import (ConfigError, build_config, cyclotron_frequency,
                               load_config, natural_config, serialize, unit_system)


def test_minimal_natural_config():
    cfg = build_config({"m": 1, "q": 1, "E": 1, "L": 10, "units": "natural"})
    assert cfg.hbar == 1.0
    assert cfg.units.c == 1.0
    assert cfg.box_length == 10.0
    assert cfg.geometry == "electric_1d"
    assert cfg.displacements.eigen_sign == "minus"


def test_defaults_applied():
    cfg = build_config({"m": 1, "q": 1, "E": 1, "L": 10})
    assert cfg.units.kind == "natural"
    assert cfg.magnetic == 0.0
    assert cfg.plane_wave_norm == "sqrt_box"
    assert cfg.ladder_depth == 6


@pytest.mark.parametrize("raw, bad_field, message", [
    ({"m": -1, "q": 1, "E": 1, "L": 10}, "m", "mass must be positive"),
    ({"m": 0, "q": 1, "E": 1, "L": 10}, "m", "mass must be positive"),
    ({"m": 1, "q": 0, "E": 1, "L": 10}, "q", "charge must be nonzero"),
    ({"m": 1, "q": 1, "E": 1, "L": -2}, "L", "box length must be positive"),
    ({"q": 1, "E": 1, "L": 10}, "m", "missing required key"),
    ({"m": 1, "q": 1, "E": 1, "L": 10, "geometry": "spiral"}, "geometry", "unknown geometry"),
    ({"m": 1, "q": 1, "E": 1, "L": 10, "eigen_sign": "up"}, "eigen_sign", "eigen_sign"),
    ({"m": 1, "q": 1, "E": 1, "L": 10, "bogus": 3}, "bogus", "unknown configuration key"),
    ({"m": 1, "q": 1, "E": 1, "L": 10, "ladder_depth": True}, "ladder_depth",
     "ladder_depth must be a nonnegative integer"),
])
def test_validation_errors(raw, bad_field, message):
    with pytest.raises(ConfigError) as err:
        build_config(raw)
    assert err.value.field == bad_field
    assert message in str(err.value)


def test_ladder_depth_is_bounded():
    """The ladder recursion runs down to order 0, so a depth is capped at the
    resummation's order bound instead of ending in a RecursionError."""
    assert build_config({"m": 1, "q": 1, "E": 1, "L": 8, "ladder_depth": 64}).ladder_depth == 64
    for depth in (65, 5000):
        with pytest.raises(ConfigError) as err:
            build_config({"m": 1, "q": 1, "E": 1, "L": 8, "ladder_depth": depth})
        assert err.value.field == "ladder_depth"
        assert str(err.value) == f"ladder_depth must be at most 64, got {depth}"


def test_si_elementary_charge():
    cfg = build_config({"m": 9.1e-31, "q": "e", "E": 1.0, "L": 1.0, "units": "si"})
    assert cfg.hbar == constants.HBAR_SI
    assert cfg.charge == constants.ELEMENTARY_CHARGE_SI
    neg = build_config({"m": 9.1e-31, "q": "-e", "E": 1.0, "L": 1.0, "units": "si"})
    assert neg.charge == -constants.ELEMENTARY_CHARGE_SI


@pytest.mark.parametrize("kind", ["natural", "cgs", "si"])
def test_h_is_two_pi_hbar(kind):
    units = unit_system(kind)
    assert abs(units.h - 2.0 * math.pi * units.hbar) <= 4 * math.ulp(units.h)


def test_natural_units_fix_hbar_and_c():
    units = unit_system("natural")
    assert units.hbar == 1.0 and units.c == 1.0


def test_config_round_trip():
    cfg = build_config({"m": 2.0, "q": -1.5, "E": 0.25, "B": 1.0, "L": 12.0,
                        "geometry": "parallel_eb", "dx": 0.1, "dt": -0.2,
                        "eigen_sign": "plus", "units": "natural"})
    assert build_config(serialize(cfg)) == cfg


def test_load_config(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"m": 1, "q": 1, "E": 1, "L": 8}))
    cfg = load_config(str(path))
    assert cfg.box_length == 8.0
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(bad))


def test_cyclotron_frequency():
    cfg = natural_config(B=1.0, geometry="parallel_eb")
    assert cyclotron_frequency(cfg) == 1.0
    assert cyclotron_frequency(natural_config(B=0.0, geometry="parallel_eb")) == 0.0
    cfg2 = build_config({"m": 1.5, "q": 2.0, "E": 0.0, "B": 3.0, "L": 8,
                         "geometry": "parallel_eb"})
    assert cyclotron_frequency(cfg2) == pytest.approx(4.0)


def test_cyclotron_requires_magnetic_geometry():
    with pytest.raises(ConfigError, match="no magnetic field in this geometry"):
        cyclotron_frequency(natural_config())


def test_magnetic_field_ignored_in_electric_geometry():
    cfg = build_config({"m": 1, "q": 1, "E": 1, "L": 8, "B": 5.0})
    assert cfg.magnetic == 0.0


def test_von_klitzing_reference_matches_exact_constants():
    computed = constants.PLANCK_SI / constants.ELEMENTARY_CHARGE_SI ** 2
    assert abs(computed - constants.VON_KLITZING_OHM) < constants.VON_KLITZING_OHM_TOL
